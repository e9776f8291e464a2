"""Path sampling and empirical validation of the deterministic error trace."""

import numpy as np
import numpy.testing as npt
import pytest

import sampledkf as sk
from sampledkf.filter_core import _filtered_means
from sampledkf.montecarlo import (_pairing_or_identity, _real_factor,
                                  _Simulator, _trial_keys, _trial_rng)

EIGHT_TIMES = np.arange(1, 9) / 8.0


def draw_offsets(sysm, num_steps, has_tail):
    """Slices of one trial's normals in the order the module docstring gives.

    Returns (total, initial, process, measure, tail): the initial state, then
    per sample step the process noise (driven only) and the measurement
    noise, then the tail process noise (driven only, when the last sample
    precedes the horizon).
    """
    n, r = sysm.num_modes, sysm.num_outputs
    d = n + r if sysm.has_input_noise else 0
    pos = n
    process, measure = [], []
    for _ in range(num_steps):
        process.append(slice(pos, pos + d))
        measure.append(slice(pos + d, pos + d + r))
        pos += d + r
    tail = slice(pos, pos + d if has_tail else pos)
    return tail.stop, slice(0, n), process, measure, tail


def blind_mode(lam=-1.0, p=0.8, driven=False):
    """Single mode whose output coefficient is zero: data carry nothing."""
    q = np.array([[0.5]]) if driven else np.zeros((1, 1))
    b = np.array([[1.5 + 0.0j]]) if driven else np.zeros((1, 1), complex)
    return sk.ModalSystem(
        eigenvalues=np.array([complex(lam)]),
        output_coeffs=np.zeros((1, 1), complex),
        input_coeffs=b,
        prior_mean=np.zeros(1, complex),
        prior_var=np.array([p]),
        q_cov=q,
        r_cov=np.array([[1.0]]),
        horizon=1.0,
        pairing=np.array([0]),
        label="blind",
    )


class TestClosedFormTraces:
    def test_uninformative_data_leave_the_prior(self):
        # nothing is learned, so the error is the propagated prior variance
        sysm = blind_mode(lam=-1.0, p=0.8)
        run = sk.sequential_filter(sysm, EIGHT_TIMES)
        npt.assert_allclose(run.trace_err, 0.8 * np.exp(-2.0), rtol=1e-12)
        batch = sk.empirical_error(sysm, EIGHT_TIMES, trials=4000, seed=3)
        assert abs(batch.z_score) < 3.0

    def test_driven_marginal_variance(self):
        sysm = blind_mode(lam=0.0, p=0.8, driven=True)
        run = sk.sequential_filter(sysm, EIGHT_TIMES)
        npt.assert_allclose(run.trace_err, 0.8 + 0.5 * 1.5 ** 2, rtol=1e-12)
        batch = sk.empirical_error(sysm, EIGHT_TIMES, trials=4000, seed=3)
        assert abs(batch.z_score) < 3.0


class TestDeterminism:
    def test_batches_are_bitwise_reproducible(self):
        sysm = sk.build_heat_model(4, horizon=1.0)
        a = sk.empirical_error(sysm, EIGHT_TIMES, trials=64, seed=11)
        b = sk.empirical_error(sysm, EIGHT_TIMES, trials=64, seed=11)
        npt.assert_array_equal(a.errors, b.errors)
        assert a.empirical_mean == b.empirical_mean
        assert a.z_score == b.z_score

    def test_paths_are_bitwise_reproducible(self):
        sysm = sk.build_wave_model(4, horizon=1.0)
        s1, y1 = sk.sample_path(sysm, EIGHT_TIMES, seed=5)
        s2, y2 = sk.sample_path(sysm, EIGHT_TIMES, seed=5)
        npt.assert_array_equal(s1, s2)
        npt.assert_array_equal(y1, y2)

    def test_trials_use_independent_streams(self):
        # per-trial draws are keyed (seed, trial), so enlarging the batch
        # must not disturb earlier trials
        sysm = sk.build_heat_model(4, horizon=1.0)
        small = sk.empirical_error(sysm, EIGHT_TIMES, trials=8, seed=11)
        large = sk.empirical_error(sysm, EIGHT_TIMES, trials=32, seed=11)
        npt.assert_array_equal(large.errors[:8], small.errors)

    def test_different_seeds_differ(self):
        sysm = sk.build_heat_model(4, horizon=1.0)
        a = sk.empirical_error(sysm, EIGHT_TIMES, trials=16, seed=1)
        b = sk.empirical_error(sysm, EIGHT_TIMES, trials=16, seed=2)
        assert not np.array_equal(a.errors, b.errors)


class TestBulkTrialKeys:
    """Keys derived in bulk reproduce the per-trial SeedSequence streams."""

    # 2^100 and 2^200 carry more than three 32-bit words, so with the trial
    # word the entropy outgrows the pool of four and takes the mixing tail
    @pytest.mark.parametrize("seed", [0, 3, 2**32 + 5, 2**100 + 7,
                                      2**200 + 12345])
    def test_keys_match_seed_sequence(self, seed):
        want = [np.random.SeedSequence([seed, j]).generate_state(2, np.uint64)
                for j in range(64)]
        got = _trial_keys(seed, 64)
        assert got.dtype == np.uint64 and got.shape == (64, 2)
        npt.assert_array_equal(got, want)

    @pytest.mark.parametrize("seed", [0, 11, 2**70 + 1])
    def test_draws_match_per_trial_generators(self, seed):
        sysm = sk.build_heat_model(3, horizon=1.0, q_scalar=0.5)
        sim = _Simulator(sysm, EIGHT_TIMES)
        total = draw_offsets(sysm, EIGHT_TIMES.size, has_tail=False)[0]
        normals = sim.draw(seed, 12)
        assert normals.shape == (12, total)
        for j in range(12):
            npt.assert_array_equal(normals[j],
                                   _trial_rng(seed, j).standard_normal(total))

    def test_sample_path_reads_its_trial_stream(self):
        sysm = sk.build_heat_model(3, horizon=1.0, q_scalar=0.5)
        sim = _Simulator(sysm, EIGHT_TIMES)
        state, increments = sim.run_paths(sim.draw(4, 6))
        for j in (0, 5):  # same normals; a batched gemm may round differently
            s, y = sk.sample_path(sysm, EIGHT_TIMES, seed=4, trial=j)
            npt.assert_allclose(s, state[j], rtol=1e-13, atol=1e-16)
            npt.assert_allclose(y, np.cumsum(increments[j], axis=0),
                                rtol=1e-13, atol=1e-16)
        # without a trial the path reads the stream of SeedSequence([seed])
        total = draw_offsets(sysm, EIGHT_TIMES.size, has_tail=False)[0]
        state, increments = sim.run_paths(
            _trial_rng(4, None).standard_normal((1, total)))
        s, y = sk.sample_path(sysm, EIGHT_TIMES, seed=4)
        npt.assert_array_equal(s, state[0])
        npt.assert_array_equal(y, np.cumsum(increments[0], axis=0))

    def test_negative_seed_raises(self):
        sim = _Simulator(sk.build_heat_model(3, horizon=1.0), EIGHT_TIMES)
        with pytest.raises(ValueError):
            sim.draw(-1, 4)
        with pytest.raises(ValueError):
            sk.empirical_error(sk.build_heat_model(3, horizon=1.0), EIGHT_TIMES,
                               trials=4, seed=-5)


class TestPathsAgainstAugmentedMap:
    def test_paths_match_dense_augmented_propagation(self):
        # reference: the (N+r) augmented state through the full transition,
        # with Y_partial reset after each sample, on the same normals
        sysm = sk.build_heat_model(4, horizon=1.0, q_scalar=0.5)
        times = EIGHT_TIMES[:-1]  # leaves a tail step
        sim = _Simulator(sysm, times)
        normals = sim.draw(3, 16)
        state, increments = sim.run_paths(normals)

        n = sysm.num_modes
        total, initial, process, measure, tail = draw_offsets(
            sysm, times.size, has_tail=True)
        assert normals.shape == (16, total)
        pairing = np.concatenate([_pairing_or_identity(sysm),
                                  n + np.arange(sysm.num_outputs)])
        aug = np.zeros((16, n + sysm.num_outputs), dtype=complex)
        aug[:, :n] = sysm.prior_mean + normals[:, initial] @ sim.initial_factor.T
        dense = []
        for i, (tr, _) in enumerate(sim.steps):
            factor = _real_factor(tr.noise_cov, pairing)
            aug = aug @ tr.state_map.T + normals[:, process[i]] @ factor.T
            width = times[i] - (times[i - 1] if i else 0.0)
            dw = np.sqrt(width) * (normals[:, measure[i]] @ sim.meas_chol.T)
            dense.append(aug[:, n:].real + dw)
            aug[:, n:] = 0.0
        factor = _real_factor(sim.tail_tr.noise_cov, pairing)
        aug = aug @ sim.tail_tr.state_map.T + normals[:, tail] @ factor.T
        npt.assert_allclose(increments, np.stack(dense, axis=1),
                            rtol=1e-12, atol=1e-14)
        npt.assert_allclose(state, aug[:, :n], rtol=1e-12, atol=1e-14)
        # the batched means of the Monte Carlo are those of sequential_filter
        # on each path's cumulative outputs (the mean update itself is checked
        # against a regression oracle in test_filter_core)
        mean = _filtered_means(sysm, sim.steps, sim.tail_tr, increments)
        for j in range(4):
            run = sk.sequential_filter(sysm, times,
                                       observations=np.cumsum(increments[j], axis=0))
            npt.assert_allclose(mean[j], run.final_mean, rtol=1e-12, atol=1e-14)


class TestAgainstDeterministicTrace:
    @pytest.mark.parametrize("make", [
        lambda: sk.build_heat_model(4, horizon=1.0),
        lambda: sk.build_wave_model(4, horizon=1.0),
        lambda: sk.build_heat_model(4, horizon=1.0, q_scalar=0.4),
    ], ids=["heat", "wave", "heat-driven"])
    def test_zscore_within_bands(self, make):
        sysm = make()
        batch = sk.empirical_error(sysm, EIGHT_TIMES, trials=1500, seed=7)
        assert abs(batch.z_score) < 4.0
        npt.assert_allclose(batch.z_score,
                            (batch.empirical_mean - batch.trace_err)
                            / batch.std_error, rtol=1e-12)
        assert batch.std_error > 0
        assert batch.label == sysm.label
        assert batch.trials == 1500

    @pytest.mark.parametrize("q_scalar", [0.0, 0.5], ids=["undriven", "driven"])
    def test_two_outputs_zscore(self, two_output_heat, q_scalar):
        sysm = two_output_heat(4, q_scalar=q_scalar)
        batch = sk.empirical_error(sysm, EIGHT_TIMES[:-1], trials=1500, seed=7)
        assert abs(batch.z_score) < 4.0
        npt.assert_allclose(batch.trace_err,
                            sk.batch_condition(sysm, EIGHT_TIMES[:-1]).trace_err,
                            rtol=1e-12)

    def test_errors_are_real_squared_norms(self):
        sysm = sk.build_wave_model(4, horizon=1.0)
        batch = sk.empirical_error(sysm, EIGHT_TIMES, trials=32, seed=9)
        assert batch.errors.shape == (32,)
        assert batch.errors.dtype == np.float64
        assert np.all(batch.errors >= 0)
        npt.assert_allclose(batch.empirical_mean, batch.errors.mean(), rtol=1e-14)


class TestValidation:
    def test_complex_modes_need_a_declared_pairing(self):
        sysm = sk.ModalSystem(
            eigenvalues=np.array([2.0j, -2.0j]),
            output_coeffs=np.array([[0.5j], [-0.5j]]),
            input_coeffs=np.zeros((2, 1), complex),
            prior_mean=np.zeros(2, complex),
            prior_var=np.array([0.3, 0.3]),
            q_cov=np.zeros((1, 1)),
            r_cov=np.array([[1.0]]),
            horizon=1.0,
            pairing=None,
        )
        with pytest.raises(ValueError, match="conjugate pairing"):
            sk.sample_path(sysm, EIGHT_TIMES, seed=1)

    def test_needs_two_trials(self):
        sysm = sk.build_heat_model(3, horizon=1.0)
        with pytest.raises(ValueError, match="at least two trials"):
            sk.empirical_error(sysm, EIGHT_TIMES, trials=1, seed=0)
