"""Path sampling and empirical validation of the deterministic error traces.

The modal coordinates are complex but describe a real-valued random field:
conjugate mode pairs carry conjugate coefficients.  Sampling therefore runs
through a real re-composition.  For a self-conjugate mode k the coordinate is
a real Gaussian; for a pair (a, b) the coordinates are eta_a = rho_a + i rho_b,
eta_b = conj(eta_a) with real Gaussians rho.  Stacking the rho's gives a real
vector whose covariance S = A^{-1} Sigma A^{-H} (A the re-composition matrix)
is real symmetric whenever Sigma respects the pairing; a factor of S drives
the draws and A maps them back to modal coordinates.  The map eta -> real
field is then norm-preserving, so squared errors computed in modal
coordinates are the physical ones.

Every trial consumes one flat block of standard normals from its own
counter-based stream, in a fixed documented order:

    [ initial state (num_modes) ]
    for each sample step: [ process noise (num_modes + num_outputs), driven only ]
                          [ measurement noise (num_outputs) ]
    [ tail process noise (num_modes + num_outputs), driven only, if the last
      sample precedes the horizon ]

which makes runs bitwise reproducible and trials independent regardless of
how many are batched together.  Every sample step takes a block of the same
width, so the simulator reads the steps as one (trials, steps, width) view.
Trial j of seed s reads the Philox stream of ``SeedSequence([s, j])``; the
keys of a whole batch are derived in one vectorised pass of that hash, and
one reused generator is reset to each key, so the streams and their order
are those of one generator per trial.
Between samples every path moves elementwise (z *= e) with the output
integral a rank-r map of z, as in the filter recursion.  The simulator
returns output increments; ``empirical_error`` filters all trials at once
with ``filter_core._filtered_means``, the mean update ``sequential_filter``
applies to a single path, and ``sample_path`` sums the increments.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .filter_core import _filter_plan, _filtered_means, _validate_times
from .spectral_model import ModalSystem

logger = logging.getLogger(__name__)

__all__ = ["SimulationBatch", "sample_path", "empirical_error"]


def _pairing_or_identity(system: ModalSystem) -> np.ndarray:
    if system.pairing is not None:
        return system.pairing
    # Without a declared pairing the identity is only sound for real modes;
    # complex ones would silently be sampled with the wrong law.
    for arr in (system.eigenvalues, system.output_coeffs, system.input_coeffs,
                system.prior_mean):
        if np.any(arr.imag != 0):
            raise ValueError("path sampling needs a conjugate pairing when "
                             "modes are complex")
    return np.arange(system.num_modes)


def _recomposition(pairing: np.ndarray) -> np.ndarray:
    """Matrix A with eta = A rho mapping real draws to paired modal coords."""
    d = pairing.size
    amat = np.zeros((d, d), dtype=complex)
    for k, mate in enumerate(pairing):
        if mate == k:
            amat[k, k] = 1.0
        elif k < mate:
            amat[k, k] = 1.0
            amat[k, mate] = 1.0j
            amat[mate, k] = 1.0
            amat[mate, mate] = -1.0j
    return amat


def _real_factor(cov: np.ndarray, pairing: np.ndarray) -> np.ndarray:
    """Complex factor L with L L^H = cov and L xi pairing-compatible, xi real."""
    amat = _recomposition(pairing)
    half = np.linalg.solve(amat, cov)
    s = np.linalg.solve(amat, half.conj().T).conj().T
    scale = float(np.abs(s).max()) or 1.0
    if np.abs(s.imag).max() > 1e-8 * scale:
        raise ValueError("covariance does not respect the conjugate pairing")
    s = (s.real + s.real.T) / 2.0
    w, v = np.linalg.eigh(s)
    floor = -1e-12 * max(float(w[-1]), np.finfo(float).tiny)
    if w[0] < floor:
        raise NumericalError(f"sampling covariance has eigenvalue {w[0]:.3e}")
    if w[0] < 0:
        logger.debug("clipping %.3e of negative eigenvalue mass", float(-w[w < 0].sum()))
    return amat @ (v * np.sqrt(np.clip(w, 0.0, None)))


def _trial_rng(seed: int, trial: int | None) -> np.random.Generator:
    words = [int(seed)] if trial is None else [int(seed), int(trial)]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(words)))


# numpy's SeedSequence hash constants (pool of four 32-bit words)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _trial_keys(seed: int, trials: int) -> np.ndarray:
    """(trials, 2) Philox keys of ``SeedSequence([seed, j])``, j < trials.

    numpy's SeedSequence entropy pool and its ``generate_state(2, uint64)``
    output, vectorised over the trial word: every hash constant is the same
    for all trials, so each step is one uint32 array operation.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & 0xFFFFFFFF]  # little-endian 32-bit words, [0] for 0
    while seed >> 32 * len(words):
        words.append((seed >> 32 * len(words)) & 0xFFFFFFFF)
    u32 = np.uint32
    entropy = [np.full(trials, w, dtype=u32) for w in words]
    entropy.append(np.arange(trials, dtype=u32))
    const = u32(_INIT_A)

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * u32(_MULT_A)
        value = value * const
        return value ^ (value >> u32(16))

    def mix(x, y):
        out = u32(_MIX_L) * x - u32(_MIX_R) * y
        return out ^ (out >> u32(16))

    with np.errstate(over="ignore"):
        zero = np.zeros(trials, dtype=u32)
        pool = [hashmix(entropy[i] if i < len(entropy) else zero)
                for i in range(_POOL_SIZE)]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in entropy[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                pool[dst] = mix(pool[dst], hashmix(word))
        const = u32(_INIT_B)
        state = []
        for i in range(4):  # two uint64 words from four uint32 ones
            value = pool[i % _POOL_SIZE] ^ const
            const = const * u32(_MULT_B)
            value = value * const
            state.append(value ^ (value >> u32(16)))
    return np.stack(state, axis=1).astype("<u4").view("<u8").astype(np.uint64)


class _Simulator:
    """Shared precomputation for exact joint draws of states and outputs."""

    def __init__(self, system: ModalSystem, times: np.ndarray):
        self.system = system
        self.times = times
        self.run, self.steps, self.tail_tr = _filter_plan(system, times)
        n, r = system.num_modes, system.num_outputs
        self.n, self.r = n, r
        pairing = _pairing_or_identity(system)
        aug_pairing = np.concatenate([pairing, n + np.arange(r)])
        self.initial_factor = _real_factor(
            np.diag(system.prior_var.astype(complex)), pairing)
        # per transition, the real (N+r) x 2(N+r) matrix whose product with
        # real normals is the complex process noise, viewed as complex
        self.noise_maps: dict[int, np.ndarray] = {}
        if system.has_input_noise:
            transitions = [tr for tr, _ in self.steps]
            if self.tail_tr is not None:
                transitions.append(self.tail_tr)
            for tr in transitions:
                if id(tr) not in self.noise_maps:
                    factor = _real_factor(tr.noise_cov, aug_pairing).T
                    self.noise_maps[id(tr)] = np.stack(
                        [factor.real, factor.imag], axis=-1).reshape(n + r, -1)
        self.meas_chol = np.linalg.cholesky(system.r_cov)
        # widths in the documented draw order: one sample step's normals,
        # then a trial's whole block
        process = n + r if system.has_input_noise else 0
        self.stride = process + r
        tail = process if self.tail_tr is not None else 0
        self.total = n + times.size * self.stride + tail

    def draw(self, seed: int, trials: int) -> np.ndarray:
        keys = _trial_keys(seed, trials)
        bitgen = np.random.Philox(0)
        gen = np.random.Generator(bitgen)
        zero = np.zeros(4, dtype=np.uint64)
        out = np.empty((trials, self.total))
        for key, row in zip(keys, out):
            # the state of a fresh Philox(SeedSequence([seed, j]))
            bitgen.state = {"bit_generator": "Philox",
                            "state": {"counter": zero, "key": key},
                            "buffer": zero, "buffer_pos": 4,
                            "has_uint32": 0, "uinteger": 0}
            gen.standard_normal(self.total, out=row)
        return out

    def run_paths(self, normals: np.ndarray):
        """Propagate all trials; return (final states, output increments).

        States are (trials, num_modes); increments are the sampled outputs'
        y(t_i) - y(t_(i-1)), (trials, num_steps, num_outputs).  Between
        samples z moves by z *= e and the output integral is Y = z G^T, with
        e and G the decay and output map of the step's transition, both in
        place.
        """
        sysm = self.system
        n, r = self.n, self.r
        trials, m = normals.shape[0], self.times.size
        driven = sysm.has_input_noise
        state = normals[:, :n] @ self.initial_factor.T
        state += sysm.prior_mean
        # each sample step's [ process | measurement ] normals, as a view
        per_step = normals[:, n:n + m * self.stride].reshape(trials, m, self.stride)
        process, measure = per_step[:, :, :-r], per_step[:, :, -r:]
        increments = np.empty((trials, m, r))
        noise_buf = np.empty((trials, 2 * (n + r))) if driven else None
        noise = noise_buf.view(complex) if driven else None
        for i, (tr, _) in enumerate(self.steps):
            out_int = state @ tr.output_map.T
            state *= tr.decay
            if driven:
                np.matmul(process[:, i], self.noise_maps[id(tr)], out=noise_buf)
                state += noise[:, :n]
                out_int += noise[:, n:]
            y_inc = increments[:, i, :]
            np.matmul(measure[:, i], self.meas_chol.T, out=y_inc)
            y_inc *= np.sqrt(tr.step)
            y_inc += out_int.real
        if self.tail_tr is not None:
            state *= self.tail_tr.decay
            if driven:
                np.matmul(normals[:, n + m * self.stride:],
                          self.noise_maps[id(self.tail_tr)], out=noise_buf)
                state += noise[:, :n]
        return state, increments


def sample_path(system: ModalSystem, times, seed: int,
                trial: int | None = None):
    """Draw one exact joint sample of (z(horizon), sampled outputs).

    Returns (state, outputs) with state (num_modes,) complex in modal
    coordinates and outputs (len(times), num_outputs) the cumulative sampled
    output values.  With ``trial`` given, the draw comes from that trial's
    stream of the batch keyed by ``seed``, matching ``empirical_error``.
    """
    times = _validate_times(system, times)
    sim = _Simulator(system, times)
    normals = _trial_rng(seed, trial).standard_normal((1, sim.total))
    state, increments = sim.run_paths(normals)
    return state[0], np.cumsum(increments[0], axis=0)


@dataclass(frozen=True)
class SimulationBatch:
    """Monte Carlo squared-error sample versus the deterministic trace."""

    label: str
    grid: np.ndarray
    trials: int
    seed: int
    errors: np.ndarray
    empirical_mean: float
    std_error: float
    trace_err: float
    z_score: float


def empirical_error(system: ModalSystem, times, trials: int,
                    seed: int) -> SimulationBatch:
    """Monte Carlo estimate of E||zhat(horizon) - z(horizon)||^2.

    Runs ``trials`` independent exact simulations, filters each sampled
    output path, and compares the mean squared estimation error against the
    deterministic ``trace_err`` of the same grid.  The z-score should be
    O(1); |z| > 3 flags disagreement.
    """
    if trials < 2:
        raise ValueError("need at least two trials")
    times = _validate_times(system, times)
    if times.size == 0:
        raise ValueError("need at least one sample time")
    sim = _Simulator(system, times)
    state, increments = sim.run_paths(sim.draw(seed, trials))
    mean = _filtered_means(system, sim.steps, sim.tail_tr, increments)
    errors = (np.abs(mean - state) ** 2).sum(axis=1)
    empirical = float(errors.mean())
    sdev = float(errors.std(ddof=1) / np.sqrt(trials))
    trace = sim.run.trace_err
    z = (empirical - trace) / sdev if sdev > 0 else 0.0
    return SimulationBatch(label=system.label, grid=times, trials=int(trials),
                           seed=int(seed), errors=errors,
                           empirical_mean=empirical, std_error=sdev,
                           trace_err=trace, z_score=float(z))
