"""
Monte Carlo cross-check of the deterministic error traces.

Draws exact joint samples of (state at the horizon, sampled outputs), maps
each trial's normals to its filtering error through the one linear error
map, and compares the empirical average of ||z(T) - z_hat||^2 with the
closed-form posterior trace.  Agreement within a few standard errors
validates the whole kernel/filter stack end to end.
"""

import numpy as np

import sampledkf as sk

TRIALS = 5000
SEED = 42


def main() -> None:
    times = np.arange(1, 17) / 16.0
    models = [
        sk.build_heat_model(20, horizon=1.0),
        sk.build_wave_model(20, horizon=1.0),
        sk.build_heat_model(20, horizon=1.0, q_scalar=0.5),
    ]
    print(f"{TRIALS} trials per model, 16 uniform samples, seed {SEED}\n")
    print(f"{'model':<44} {'empirical':>12} {'trace':>12} {'z':>7}")
    for system in models:
        batch = sk.empirical_error(system, times, trials=TRIALS, seed=SEED)
        print(f"{batch.label:<44} {batch.empirical_mean:12.6e} "
              f"{batch.trace_err:12.6e} {batch.z_score:+7.2f}")
    print("\n|z| of a correct implementation is below 3 for all but ~0.3% of seeds")


if __name__ == "__main__":
    main()
