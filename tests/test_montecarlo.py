"""Path sampling and empirical validation of the deterministic error trace."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

import sampledkf as sk
from sampledkf import montecarlo
from sampledkf.errors import NumericalError
from sampledkf.filter_core import _filtered_means
from sampledkf.montecarlo import (_TRIAL_BLOCK, _prior_factor,
                                  _real_error_map, _real_factor, _Simulator,
                                  _trial_rng)

EIGHT_TIMES = np.arange(1, 9) / 8.0


def aug_pairing(sysm):
    """Pairing of the augmented (z, Y) coordinates: outputs are real."""
    return np.concatenate([sysm.pairing,
                           sysm.num_modes + np.arange(sysm.num_outputs)])


def recomposition(pairing):
    """Dense A with eta = A rho: a pair (k, mate) is (rho_k + i rho_mate, rho_k - i rho_mate)."""
    amat = np.zeros((pairing.size, pairing.size), dtype=complex)
    for k, mate in enumerate(pairing):
        if mate == k:
            amat[k, k] = 1.0
        elif k < mate:
            amat[[k, k, mate, mate], [k, mate, k, mate]] = [1.0, 1.0j, 1.0, -1.0j]
    return amat


def draw(sim, seed, trials):
    """Trials 0..trials-1 of ``seed``'s stream, drawn as one array."""
    return sim.draw(_trial_rng(seed), np.empty((trials, sim.total)))


def draw_offsets(sim):
    """Slices of one trial's normals in the order the module docstring gives.

    Returns (total, initial, process, measure, tail): the initial state (the
    initial factor's width), then per sample step the process noise (driven
    only) and the measurement noise, then the tail process noise (driven
    only, when the last sample precedes the horizon).  Every process block
    takes the width of the widest process-noise factor.
    """
    sysm = sim.system
    # the stack holds the transitions of every step and of the tail
    d = max(_real_factor(cov, aug_pairing(sysm)).shape[1]
            for cov in sim.stack.noise_cov) if sysm.has_input_noise else 0
    r = sysm.num_outputs
    pos = _real_factor(np.diag(sysm.prior_var.astype(complex)),
                       sysm.pairing).shape[1]
    initial = slice(0, pos)
    process, measure = [], []
    for _ in sim.times:
        process.append(slice(pos, pos + d))
        measure.append(slice(pos + d, pos + d + r))
        pos += d + r
    tail = slice(pos, pos + d if sim.tail is not None else pos)
    return tail.stop, initial, process, measure, tail


def step_covariances(sim):
    """The process-noise covariance of each sample step, in step order."""
    return sim.stack.noise_cov[sim.index]


def transition(sim, j):
    """Entry j of the simulator's stack of transitions, as one transition."""
    return sk.AugmentedTransition(
        step=float(sim.stack.step[j]), decay=sim.stack.decay[j],
        output_map=sim.stack.output_map[j], noise_cov=sim.stack.noise_cov[j])


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
        # trial j is the j-th block of the seed's stream, so enlarging the
        # batch must not disturb earlier trials
        sysm = sk.build_heat_model(4, horizon=1.0)
        small = sk.empirical_error(sysm, EIGHT_TIMES, trials=8, seed=11)
        large = sk.empirical_error(sysm, EIGHT_TIMES, trials=32, seed=11)
        npt.assert_array_equal(large.errors[:8], small.errors)

    def test_errors_do_not_depend_on_the_trial_count(self):
        # every block's products take the full block's shape, so a trial's
        # error is the same bit for bit whatever the batch it is drawn in;
        # BLAS rounds a product of few rows differently from one of many
        sysm, times = workload_model_and_grid(1)
        full = sk.empirical_error(sysm, times, trials=10 * _TRIAL_BLOCK,
                                  seed=1).errors
        for trials in (2, 3, 7, 100, _TRIAL_BLOCK - 1, _TRIAL_BLOCK + 1, 2000):
            batch = sk.empirical_error(sysm, times, trials=trials, seed=1)
            npt.assert_array_equal(batch.errors, full[:trials])

    def test_different_seeds_differ(self):
        sysm = sk.build_heat_model(4, horizon=1.0)
        a = sk.empirical_error(sysm, EIGHT_TIMES, trials=16, seed=1)
        b = sk.empirical_error(sysm, EIGHT_TIMES, trials=16, seed=2)
        assert not np.array_equal(a.errors, b.errors)


def workload_model_and_grid(seed=1):
    """Driven heat N=20, q=0.5, on a seeded 32-point irregular grid."""
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.5, 1.5, 32))
    times /= times[-1]
    times[-1] = 1.0
    return sk.build_heat_model(20, horizon=1.0, q_scalar=0.5), times


class TestRealFactor:
    """The pivoted Cholesky factor of the sampling covariances."""

    def test_reproduces_every_step_covariance(self, caplog):
        sysm, times = workload_model_and_grid()
        pairing = aug_pairing(sysm)
        caplog.set_level("DEBUG", logger="sampledkf.montecarlo")
        covs = step_covariances(_Simulator(sysm, times))
        caplog.clear()
        factors = _real_factor(covs, pairing)
        assert factors.shape[:2] == covs.shape[:2]
        assert factors.shape[2] < covs.shape[2]  # rank-revealing
        # one record per matrix: the mass each leaves below its floor, tiny
        assert len(caplog.records) == len(covs)
        for cov, factor, record in zip(covs, factors, caplog.records):
            scale = np.abs(cov).max()
            assert np.abs(factor @ factor.conj().T - cov).max() <= 1e-15 * scale
            trace = np.trace(cov).real
            dropped = trace - np.sum(np.abs(factor) ** 2)
            assert abs(dropped) <= 1e-15 * trace
            assert record.getMessage().startswith("clipping")
            assert record.args[0] <= 1e-15 * trace

    @pytest.mark.parametrize("case", ["workload", "wave-driven"])
    def test_a_stack_factors_each_matrix(self, case, caplog):
        # each matrix keeps its own pivots and stop, bit for bit as when
        # factored alone, so a stopped matrix takes no further pivot and
        # leaves the same mass below its floor; narrower factors are
        # zero-padded to the widest
        if case == "workload":
            sysm, times = workload_model_and_grid()
            pairing = aug_pairing(sysm)
            covs = np.concatenate([step_covariances(_Simulator(sysm, times)),
                                   np.zeros((1, 21, 21), dtype=complex)])  # rank 0
        else:
            # conjugate pairs (0, 1) and (2, 3) and a real mode: A rho rho^T A*
            # with real rho of full, middle and unit rank
            pairing = np.array([1, 0, 3, 2, 4])
            amat = recomposition(pairing)
            rng = np.random.default_rng(4)
            covs = np.stack([amat @ (x @ x.T) @ amat.conj().T
                             for x in (rng.standard_normal((5, k))
                                       for k in (5, 3, 1))])
        caplog.set_level("DEBUG", logger="sampledkf.montecarlo")
        stacked = _real_factor(covs, pairing)
        stacked_records = [r.getMessage() for r in caplog.records]
        caplog.clear()
        singles = [_real_factor(cov, pairing) for cov in covs]
        assert [r.getMessage() for r in caplog.records] == stacked_records
        # L = A F with F real, so L xi respects the pairing for real xi
        real = np.linalg.solve(recomposition(pairing), stacked)
        assert np.abs(real.imag).max() <= 1e-15 * np.abs(real).max()
        assert stacked.shape[-1] == max(f.shape[1] for f in singles)
        for cov, one, single in zip(covs, stacked, singles):
            width = single.shape[1]
            assert not one[:, width:].any()
            assert one[:, :width].tobytes() == single.tobytes()
            scale = np.abs(cov).max() or 1.0
            assert np.abs(one @ one.conj().T - cov).max() <= 1e-14 * scale

    def test_pivots_by_diagonal_with_ties_to_the_lower_index(self):
        npt.assert_array_equal(_real_factor(np.eye(3, dtype=complex),
                                            np.arange(3)), np.eye(3))
        cov = np.diag([1.0, 4.0, 4.0]).astype(complex)
        npt.assert_array_equal(_real_factor(cov, np.arange(3)),
                               [[0, 0, 1], [2, 0, 0], [0, 2, 0]])

    @pytest.mark.parametrize("cov", [np.diag([1.0, -1.0]),
                                     np.array([[1.0, 2.0], [2.0, 1.0]])],
                             ids=["negative-diagonal", "indefinite"])
    def test_indefinite_matrix_raises(self, cov):
        with pytest.raises(NumericalError, match="remaining pivot"):
            _real_factor(cov.astype(complex), np.arange(2))

    def test_ulp_perturbation_moves_factor_and_paths_little(self, monkeypatch):
        # an eigenbasis of the near-null space is free to rotate under such
        # a perturbation; the pivoted factor is not
        sysm, times = workload_model_and_grid()
        pairing = aug_pairing(sysm)
        rng = np.random.default_rng(0)

        def perturb(cov):
            # one Hermitian pattern of signs per covariance of a stack
            signs = rng.choice([-1.0, 1.0], size=cov.shape)
            signs = np.triu(signs) + np.triu(signs, 1).swapaxes(-1, -2)
            return cov * (1.0 + 4e-16 * signs)

        sim = _Simulator(sysm, times)
        for cov in step_covariances(sim):
            factor = _real_factor(cov, pairing)
            moved = _real_factor(perturb(cov), pairing)
            assert moved.shape == factor.shape
            assert np.abs(moved - factor).max() <= 1e-11 * np.abs(factor).max()
        state, increments = sim.run_paths(draw(sim, 1, 64))
        exact = montecarlo._real_factor
        monkeypatch.setattr(montecarlo, "_real_factor",
                            lambda cov, p: exact(perturb(cov), p))
        sim = _Simulator(sysm, times)
        state2, increments2 = sim.run_paths(draw(sim, 1, 64))
        assert np.abs(state2 - state).max() <= 1e-11 * np.abs(state).max()
        assert (np.abs(increments2 - increments).max()
                <= 1e-11 * np.abs(increments).max())


class TestPriorFactor:
    """The initial state's factor in closed form, against the pivot loop."""

    @pytest.mark.parametrize("case", ["heat", "wave", "two-outputs",
                                      "zeros-and-ties"])
    def test_equals_the_pivoted_cholesky_bit_for_bit(self, case, caplog,
                                                     two_output_heat):
        sysm = {
            "heat": lambda: sk.build_heat_model(20, horizon=1.0, q_scalar=0.5),
            "wave": lambda: sk.build_wave_model(20, horizon=1.0),
            "two-outputs": lambda: two_output_heat(6, 0.5),
            # ties go to the lower index; 0 and 1e-20 fall below the floor,
            # and the cut 1e-20 is logged once
            "zeros-and-ties": lambda: dataclasses.replace(
                sk.build_heat_model(6, horizon=1.0),
                prior_var=np.array([1.0, 4.0, 0.0, 4.0, 1e-20, 1.0])),
        }[case]()
        caplog.set_level("DEBUG", logger="sampledkf.montecarlo")
        want = _real_factor(np.diag(sysm.prior_var.astype(complex)),
                            sysm.pairing)
        loop_records = [r.getMessage() for r in caplog.records]
        caplog.clear()
        got = _prior_factor(sysm)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert [r.getMessage() for r in caplog.records] == loop_records
        if case == "zeros-and-ties":
            assert got.shape[1] == 4
            assert len(loop_records) == 1
            assert loop_records[0].startswith("clipping 1.000e-20")

    def test_the_simulator_takes_it(self):
        sim = _Simulator(sk.build_wave_model(6, horizon=1.0), EIGHT_TIMES)
        assert (sim.initial_factor.tobytes()
                == _prior_factor(sim.system).tobytes())


class TestTransitionStack:
    """The simulator reads one stack of transitions, one entry per width."""

    def test_one_factor_call_and_each_step_reads_its_entry(self, monkeypatch):
        # repeated widths (1/8) and a tail of a width of its own (1/16)
        sysm = heat(0.5)
        times = np.array([0.125, 0.25, 0.5, 0.625, 0.75, 0.9375])
        calls = []
        exact = montecarlo._real_factor

        def spy(cov, pairing):
            calls.append(cov)
            return exact(cov, pairing)

        monkeypatch.setattr(montecarlo, "_real_factor", spy)
        sim = _Simulator(sysm, times)
        # one call on the grid's whole stack; the prior's factor is closed form
        assert [cov.shape for cov in calls] == [(4, 5, 5)]
        assert calls[0] is sim.stack.noise_cov
        npt.assert_array_equal(sim.stack.step, [0.0625, 0.125, 0.1875, 0.25])
        npt.assert_array_equal(sim.stack.step[sim.index],
                               np.diff(times, prepend=0.0))
        assert sim.stack.step[sim.tail] == 1.0 - times[-1]
        for j, h in enumerate(sim.stack.step):
            single = sk.transition_block(sysm, h)
            scale = np.abs(single.noise_cov).max()
            assert (np.abs(sim.stack.noise_cov[j] - single.noise_cov).max()
                    <= 1e-15 * scale)
            factor = sim.noise_maps[j].T
            assert (np.abs(factor @ factor.conj().T - single.noise_cov).max()
                    <= 1e-14 * scale)

        class Reads:
            """The noise maps, noting which entries are read."""

            def __init__(self, maps):
                self.maps, self.keys = maps, []

            def __getitem__(self, j):
                self.keys.append(int(j))
                return self.maps[j]

        sim.noise_maps = reads = Reads(sim.noise_maps)
        sim.run_paths(draw(sim, 0, 4))
        # step i reads entry index[i], in step order, then the tail its own
        assert reads.keys == [1, 1, 3, 1, 1, 2, 0]
        reads.keys.clear()
        sim.error_map()  # the backward pass: last step first, then the tail
        assert reads.keys == [2, 1, 1, 3, 1, 1, 0]

    @pytest.mark.parametrize("case", ["heat", "wave-tail"])
    def test_an_undriven_stack_takes_the_same_call(self, case, monkeypatch):
        # no input noise: the stack's covariances are all zero and the one
        # call gives them factors of width 0, so a step reads r normals
        sysm, times = {
            "heat": (heat(), EIGHT_TIMES),
            "wave-tail": (sk.build_wave_model(4, horizon=1.0),
                          np.array([0.125, 0.25, 0.5, 0.875])),
        }[case]
        calls = []
        exact = montecarlo._real_factor

        def spy(cov, pairing):
            calls.append(cov)
            return exact(cov, pairing)

        monkeypatch.setattr(montecarlo, "_real_factor", spy)
        sim = _Simulator(sysm, times)
        assert len(calls) == 1 and calls[0] is sim.stack.noise_cov
        assert not calls[0].any()
        assert sim.width == 0
        assert sim.noise_maps.shape == (len(sim.stack.step), 0,
                                        sysm.num_modes + sysm.num_outputs)
        assert (sim.tail is not None) == (case == "wave-tail")
        assert sim.stride == sysm.num_outputs
        assert sim.total == sim.head + times.size * sysm.num_outputs


class TestZeroStack:
    """An undriven model's all-zero process noise takes no pivot loop."""

    @pytest.mark.parametrize("case", ["heat", "wave-tail", "driven-heat",
                                      "driven-wave"])
    def test_an_undriven_simulator_forms_no_real_covariance(self, case,
                                                            monkeypatch):
        # the prior's factor is closed form and the zero stack comes back
        # before its real forms are made; a driven stack forms them only
        # when the model has pairs, as heat's real stack is its own
        sysm, times = {
            "heat": (heat(), EIGHT_TIMES),
            "wave-tail": (sk.build_wave_model(4, horizon=1.0),
                          np.array([0.125, 0.25, 0.5, 0.875])),
            "driven-heat": (heat(0.5), EIGHT_TIMES),
            "driven-wave": (driven_wave(), EIGHT_TIMES),
        }[case]
        calls = []
        exact = montecarlo._real_covariance

        def spy(cov, *args):
            calls.append(cov.shape)
            return exact(cov, *args)

        monkeypatch.setattr(montecarlo, "_real_covariance", spy)
        sim = _Simulator(sysm, times)
        if case == "driven-wave":
            assert calls == [sim.stack.noise_cov.shape]
        else:
            assert not calls
        assert (sim.width > 0) == sysm.has_input_noise

    def test_a_zero_stack_has_the_pivot_loops_shape(self):
        # width 0 and complex, whatever the leading shape, as the loop left
        # it: a draw reads no normal from it either way
        pairing = np.array([1, 0, 2])
        for shape in ((3, 3), (4, 3, 3), (2, 4, 3, 3)):
            got = _real_factor(np.zeros(shape, dtype=complex), pairing)
            assert got.shape == (*shape[:-1], 0) and got.dtype == complex


class TestNormalsCap:
    """A block of trials holds at most ``_BLOCK_NORMALS`` normals."""

    @pytest.mark.parametrize("samples", [1, 8, 64])
    @pytest.mark.parametrize("case", ["heat", "heat-driven", "wave",
                                      "two-outputs-driven"])
    def test_a_trial_takes_at_most_the_bound(self, case, samples,
                                             two_output_heat):
        sysm = {"heat": lambda: heat(),
                "heat-driven": lambda: heat(0.5),
                "wave": lambda: sk.build_wave_model(4, horizon=1.0),
                "two-outputs-driven": lambda: two_output_heat(4, 0.5)}[case]()
        bound = montecarlo._most_normals(sysm.num_modes, sysm.num_outputs,
                                         samples)
        for times in (sk.dyadic_grid(samples, 0), sk.dyadic_grid(samples, 0)[:-1]):
            if times.size:
                assert _Simulator(sysm, times).total <= bound

    def test_driven_steps_count_their_whole_factor(self):
        # heat N=4, q=0.5: 4 + 64 x (5 + 1) normals, more than
        # 4 + 65 x (4 + 1), the count of N + r a step
        sim = _Simulator(heat(0.5), sk.dyadic_grid(64, 0))
        assert sim.total == 388
        assert montecarlo._most_normals(4, 1, 64) == 4 + 64 * 6 + 5

    def test_an_over_cap_block_is_refused_before_it_is_drawn(self,
                                                            monkeypatch):
        sysm = heat(0.5)
        total = _Simulator(sysm, EIGHT_TIMES).total
        monkeypatch.setattr(montecarlo, "_BLOCK_NORMALS", _TRIAL_BLOCK * total)
        sk.empirical_error(sysm, EIGHT_TIMES, trials=4, seed=1)
        monkeypatch.setattr(montecarlo, "_BLOCK_NORMALS",
                            _TRIAL_BLOCK * total - 1)
        monkeypatch.setattr(_Simulator, "blocks", None)  # nothing allocated
        with pytest.raises(ValueError, match=f"would hold {_TRIAL_BLOCK * total} "
                                             f"normals"):
            sk.empirical_error(sysm, EIGHT_TIMES, trials=4, seed=1)
        with pytest.raises(ValueError, match="normals"):
            sk.sample_path(sysm, EIGHT_TIMES, seed=1)


class TestTrialStream:
    """Every trial of a seed reads the seed's one stream, in trial order."""

    # seeds of one, two, four and seven 32-bit words
    @pytest.mark.parametrize(
        "seed", [0, 3, 2**32 + 5, 2**100 + 7, 2**200 + 12345],
        ids=["0", "3", "2^32+5", "2^100+7", "2^200+12345"])
    def test_batch_reads_the_seed_stream(self, seed):
        sysm = sk.build_heat_model(3, horizon=1.0, q_scalar=0.5)
        sim = _Simulator(sysm, EIGHT_TIMES)
        total = draw_offsets(sim)[0]
        gen = np.random.Generator(
            np.random.SFC64(np.random.SeedSequence([seed])))
        npt.assert_array_equal(draw(sim, seed, 12),
                               gen.standard_normal((12, total)))

    @pytest.mark.parametrize("seed", [0, 11, 2**70 + 1],
                             ids=["0", "11", "2^70+1"])
    def test_enlarging_the_batch_keeps_earlier_trials(self, seed):
        sim = _Simulator(sk.build_heat_model(3, horizon=1.0, q_scalar=0.5),
                         EIGHT_TIMES[:-1])
        npt.assert_array_equal(draw(sim, seed, 5), draw(sim, seed, 12)[:5])

    @pytest.mark.parametrize("seed", [0, 11], ids=["0", "11"])
    def test_blocks_read_the_stream_as_one_draw(self, seed):
        sim = _Simulator(sk.build_heat_model(3, horizon=1.0, q_scalar=0.5),
                         EIGHT_TIMES[:-1])
        blocks = [normals.copy() for normals in sim.blocks(seed, _TRIAL_BLOCK + 5)]
        assert [b.shape for b in blocks] == [(_TRIAL_BLOCK, sim.total)] * 2
        drawn = np.concatenate(blocks)
        npt.assert_array_equal(drawn[:_TRIAL_BLOCK + 5],
                               draw(sim, seed, _TRIAL_BLOCK + 5))
        # the rows past the last trial are zero
        assert not drawn[_TRIAL_BLOCK + 5:].any()

    def test_sample_path_reads_its_trial_row(self):
        sysm = sk.build_heat_model(3, horizon=1.0, q_scalar=0.5)
        sim = _Simulator(sysm, EIGHT_TIMES)
        state, increments = sim.run_paths(draw(sim, 4, _TRIAL_BLOCK + 2))
        # the last rows lie on both sides of the first block boundary
        for j in (0, 2, 5, _TRIAL_BLOCK - 1, _TRIAL_BLOCK, _TRIAL_BLOCK + 1):
            # same normals; a batched gemm may round differently
            s, y = sk.sample_path(sysm, EIGHT_TIMES, seed=4, trial=j)
            npt.assert_allclose(s, state[j], rtol=1e-13, atol=1e-16)
            npt.assert_allclose(y, np.cumsum(increments[j], axis=0),
                                rtol=1e-13, atol=1e-16)

    def test_sample_path_defaults_to_trial_zero(self):
        sysm = sk.build_wave_model(4, horizon=1.0)
        s, y = sk.sample_path(sysm, EIGHT_TIMES, seed=4)
        s0, y0 = sk.sample_path(sysm, EIGHT_TIMES, seed=4, trial=0)
        npt.assert_array_equal(s, s0)
        npt.assert_array_equal(y, y0)
        sim = _Simulator(sysm, EIGHT_TIMES)
        state, increments = sim.run_paths(draw(sim, 4, 1))
        npt.assert_array_equal(s, state[0])
        npt.assert_array_equal(y, np.cumsum(increments[0], axis=0))

    def test_negative_seed_raises(self):
        sysm = sk.build_heat_model(3, horizon=1.0)
        sim = _Simulator(sysm, EIGHT_TIMES)
        with pytest.raises(ValueError):
            draw(sim, -1, 4)
        with pytest.raises(ValueError):
            sk.empirical_error(sysm, EIGHT_TIMES, trials=4, seed=-5)
        with pytest.raises(ValueError, match="trial must be >= 0"):
            sk.sample_path(sysm, EIGHT_TIMES, seed=4, trial=-1)


class TestPathsAgainstAugmentedMap:
    def test_paths_match_dense_augmented_propagation(self):
        # reference: the (N+r) augmented state through the full transition,
        # with Y_partial reset after each sample, on the same normals
        sysm = sk.build_heat_model(4, horizon=1.0, q_scalar=0.5)
        # the short steps have narrower noise factors than the others, and
        # the last sample leaves a tail step
        times = np.array([0.001, 0.3, 0.302, 0.8])
        sim = _Simulator(sysm, times)
        normals = draw(sim, 3, 16)
        state, increments = sim.run_paths(normals)

        n = sysm.num_modes
        total, initial, process, measure, tail = draw_offsets(sim)
        assert normals.shape == (16, total)
        pairing = aug_pairing(sysm)

        def noise(factor, block):
            # a narrower factor reads the leading columns of its padded block
            return normals[:, block][:, :factor.shape[1]] @ factor.T

        aug = np.zeros((16, n + sysm.num_outputs), dtype=complex)
        aug[:, :n] = sysm.prior_mean + normals[:, initial] @ sim.initial_factor.T
        dense, widths = [], []
        for i, j in enumerate(sim.index):
            tr = transition(sim, j)
            factor = _real_factor(tr.noise_cov, pairing)
            widths.append(factor.shape[1])
            aug = aug @ tr.state_map.T + noise(factor, process[i])
            width = times[i] - (times[i - 1] if i else 0.0)
            dw = np.sqrt(width) * (normals[:, measure[i]] @ sim.meas_chol.T)
            dense.append(aug[:, n:].real + dw)
            aug[:, n:] = 0.0
        tr = transition(sim, sim.tail)
        factor = _real_factor(tr.noise_cov, pairing)
        aug = aug @ tr.state_map.T + noise(factor, tail)
        assert min(widths) < max(widths) == tail.stop - tail.start
        npt.assert_allclose(increments, np.stack(dense, axis=1),
                            rtol=1e-12, atol=1e-14)
        npt.assert_allclose(state, aug[:, :n], rtol=1e-12, atol=1e-14)
        # the batched means of the Monte Carlo are those of sequential_filter
        # on each path's cumulative outputs (the mean update itself is checked
        # against a regression oracle in test_filter_core)
        mean = _filtered_means(sysm, sim.plan, increments)
        for j in range(4):
            run = sk.sequential_filter(sysm, times,
                                       observations=np.cumsum(increments[j], axis=0))
            npt.assert_allclose(mean[j], run.final_mean, rtol=1e-12, atol=1e-14)


def with_prior_mean(sysm, mean):
    return dataclasses.replace(sysm, prior_mean=np.asarray(mean, complex),
                               label=sysm.label + "+mean")


def heat(q_scalar=0.0):
    return sk.build_heat_model(4, horizon=1.0, q_scalar=q_scalar)


def driven_wave():
    """Wave N=4 with a scalar input on every mode: a driven model with pairs."""
    b = np.array([1j, -1j, 0.25j, -0.25j])[:, None]
    return dataclasses.replace(sk.build_wave_model(4, horizon=1.0),
                               input_coeffs=b, q_cov=np.array([[0.5]]),
                               label="driven-wave")


# two_output_heat -> (model, times): undriven and driven, complex modes, a
# tail step with narrower factors, two outputs, and nonzero prior means
ERROR_MAP_CASES = {
    "heat": lambda _: (heat(), EIGHT_TIMES),
    "wave": lambda _: (sk.build_wave_model(4, horizon=1.0), EIGHT_TIMES),
    "heat-driven": lambda _: (heat(0.4), EIGHT_TIMES),
    "tail-narrow": lambda _: (heat(0.5), np.array([0.001, 0.3, 0.302, 0.8])),
    "two-outputs": lambda two: (two(4, 0.0), EIGHT_TIMES[:-1]),
    "two-outputs-driven": lambda two: (two(4, 0.5), EIGHT_TIMES[:-1]),
    "heat-driven-mean": lambda _: (
        with_prior_mean(heat(0.5), [0.8, -0.5, 0.3, 0.1]),
        np.array([0.2, 0.45, 0.5, 0.9])),
    "wave-mean": lambda _: (
        with_prior_mean(sk.build_wave_model(4, horizon=1.0),
                        [0.3 + 0.2j, 0.3 - 0.2j, -0.1 + 0.4j, -0.1 - 0.4j]),
        EIGHT_TIMES),
}


class TestErrorMap:
    """The map from a trial's normals to zhat(T) - z(T), against the paths."""

    @pytest.mark.parametrize("case", ERROR_MAP_CASES)
    def test_matches_filtered_paths(self, case, two_output_heat):
        sysm, times = ERROR_MAP_CASES[case](two_output_heat)
        sim = _Simulator(sysm, times)
        normals = draw(sim, 5, 64)
        state, increments = sim.run_paths(normals)
        gap = _filtered_means(sysm, sim.plan, increments) - state
        mapped = normals @ sim.error_map()
        assert np.abs(mapped - gap).max() <= 1e-12 * np.abs(gap).max()
        # empirical_error reads the same stream k normals a trial through
        # the triangle R of the map's QR
        factor = sim.error_factor()
        narrow = sim.draw(_trial_rng(5), np.empty((64, factor.shape[0])))
        batch = sk.empirical_error(sysm, times, trials=64, seed=5)
        npt.assert_allclose(batch.errors, np.square(narrow @ factor).sum(axis=1),
                            rtol=1e-12)

    @pytest.mark.parametrize("case", [*ERROR_MAP_CASES, "workload"])
    def test_frobenius_norm_is_the_trace(self, case, two_output_heat):
        # E||xi M||^2 = ||M||_F^2 for standard normals xi
        sysm, times = (workload_model_and_grid() if case == "workload"
                       else ERROR_MAP_CASES[case](two_output_heat))
        sim = _Simulator(sysm, times)
        emap = sim.error_map()
        assert emap.shape == (sim.total, sysm.num_modes)
        npt.assert_allclose(np.sum(np.abs(emap) ** 2), sim.run.trace_err,
                            rtol=1e-10)

    @pytest.mark.parametrize("case", ERROR_MAP_CASES)
    def test_real_map_matches_the_complex_map(self, case, two_output_heat):
        # N real columns weighted 2 on each member of a pair, against the
        # real and imaginary parts of all N complex columns side by side
        sysm, times = ERROR_MAP_CASES[case](two_output_heat)
        sim = _Simulator(sysm, times)
        normals = draw(sim, 5, 256)
        full = np.square(normals @ sim.error_map().view(float)).sum(axis=1)
        emap, weights = _real_error_map(sim.error_map(), sysm._pair_index)
        assert emap.shape == (sim.total, sysm.num_modes)
        assert emap.dtype == np.float64
        npt.assert_allclose(np.square(normals @ emap) @ weights, full,
                            rtol=1e-12)
        paired = sysm.pairing != np.arange(sysm.num_modes)
        npt.assert_array_equal(weights, np.where(paired, 2.0, 1.0))
        assert paired.any() == case.startswith("wave")

    def test_map_off_the_pairing_is_refused(self):
        # a pair's two error columns must be conjugate for the real form
        sim = _Simulator(sk.build_wave_model(4, horizon=1.0), EIGHT_TIMES)
        emap = sim.error_map()
        _real_error_map(emap, sim.system._pair_index)
        emap[:, 1] += 1e-6 * np.abs(emap).max()
        with pytest.raises(ValueError, match="error map does not respect"):
            _real_error_map(emap, sim.system._pair_index)

    @pytest.mark.parametrize("seed", range(20))
    def test_workload_draw_layout(self, seed):
        # the initial factor's 20 normals, then 12 process and 1 measurement
        # normals at each of 32 samples; the last sample is the horizon
        sysm, times = workload_model_and_grid(seed)
        sim = _Simulator(sysm, times)
        assert (sim.head, sim.width, sim.total) == (20, 12, 436)

    def test_a_later_block_leaves_the_first_alone(self):
        sysm = sk.build_heat_model(3, horizon=1.0, q_scalar=0.5)
        one = sk.empirical_error(sysm, EIGHT_TIMES, trials=_TRIAL_BLOCK, seed=2)
        more = sk.empirical_error(sysm, EIGHT_TIMES, trials=_TRIAL_BLOCK + 5,
                                  seed=2)
        npt.assert_array_equal(more.errors[:_TRIAL_BLOCK], one.errors)


class TestErrorFactor:
    """The (k, N) triangle R that ``empirical_error`` draws through."""

    @pytest.mark.parametrize("case", [*ERROR_MAP_CASES, "workload"])
    def test_gram_and_norm_match_the_map(self, case, two_output_heat):
        # R^T R = M_w^T M_w, so ||g R||^2 has the law of ||xi M_w||^2, and
        # the batch reports ||R||_F^2 beside the trace
        sysm, times = (workload_model_and_grid() if case == "workload"
                       else ERROR_MAP_CASES[case](two_output_heat))
        sim = _Simulator(sysm, times)
        emap, weights = _real_error_map(sim.error_map(), sysm._pair_index)
        weighted = emap * np.sqrt(weights)
        gram = weighted.T @ weighted
        factor = sim.error_factor()
        assert factor.shape == (sysm.num_modes, sysm.num_modes)
        assert (np.abs(factor.T @ factor - gram).max()
                <= 1e-12 * np.abs(gram).max())
        npt.assert_allclose(np.square(factor).sum(), sim.run.trace_err,
                            rtol=1e-10)
        batch = sk.empirical_error(sysm, times, trials=2, seed=1)
        npt.assert_allclose(batch.map_trace, batch.trace_err, rtol=1e-10)

    def test_a_map_with_fewer_rows_than_modes_gives_a_wide_factor(self):
        # one known mode and one sample: 1 + 1 normals a path, 4 modes
        sysm = dataclasses.replace(heat(), prior_var=np.array([1.0, 0, 0, 0]))
        sim = _Simulator(sysm, np.array([1.0]))
        assert sim.total == 2
        factor = sim.error_factor()
        assert factor.shape == (2, 4)
        emap, _ = _real_error_map(sim.error_map(), sysm._pair_index)
        npt.assert_allclose(factor.T @ factor, emap.T @ emap, atol=1e-15)
        batch = sk.empirical_error(sysm, np.array([1.0]), trials=64, seed=5)
        narrow = sim.draw(_trial_rng(5), np.empty((64, 2)))
        npt.assert_allclose(batch.errors, np.square(narrow @ factor).sum(axis=1),
                            rtol=1e-12)

    @pytest.mark.parametrize("make", [
        lambda: heat(),
        lambda: sk.build_wave_model(4, horizon=1.0),
        lambda: heat(0.4),
    ], ids=["heat", "wave", "heat-driven"])
    def test_error_variance_is_twice_the_squared_covariance(self, make):
        # ||e||^2 of a Gaussian error of covariance Sigma has variance
        # 2 tr(Sigma^2); Sigma is the filter's, not the simulator's
        sysm = make()
        sigma = sk.sequential_filter(sysm, EIGHT_TIMES).final_cov
        expected = 2.0 * np.trace(sigma @ sigma).real
        batch = sk.empirical_error(sysm, EIGHT_TIMES, trials=100_000, seed=5)
        assert abs(batch.errors.var(ddof=1) / expected - 1.0) < 0.05

    def test_batch_draws_k_normals_a_trial_and_paths_their_total(
            self, monkeypatch):
        # on the workload grid a path takes 436 normals, a batch trial 20
        sysm, times = workload_model_and_grid()
        shapes = []
        draw_normals = _Simulator.draw

        def spy(self, rng, out):
            shapes.append(out.shape)
            return draw_normals(self, rng, out)

        monkeypatch.setattr(_Simulator, "draw", spy)
        sk.empirical_error(sysm, times, trials=2 * _TRIAL_BLOCK, seed=1)
        assert shapes == [(_TRIAL_BLOCK, 20)] * 2
        shapes.clear()
        sk.sample_path(sysm, times, seed=1, trial=3)
        assert shapes == [(4, 436)]


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
    @pytest.mark.parametrize("name", ["trials", "seed"])
    @pytest.mark.parametrize("value", [10.5, float("nan"), float("inf")],
                             ids=["fractional", "nan", "inf"])
    def test_batch_counts_must_be_whole(self, name, value):
        sysm = sk.build_heat_model(3, horizon=1.0)
        args = {"trials": 10, "seed": 1, name: value}
        with pytest.raises(ValueError, match=f"{name} must be >= .* whole"):
            sk.empirical_error(sysm, EIGHT_TIMES, **args)

    @pytest.mark.parametrize("name", ["trial", "seed"])
    @pytest.mark.parametrize("value", [2.7, float("nan"), float("inf")],
                             ids=["fractional", "nan", "inf"])
    def test_path_indices_must_be_whole(self, name, value):
        sysm = sk.build_heat_model(3, horizon=1.0)
        args = {"seed": 1, "trial": 0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be >= 0 and a whole"):
            sk.sample_path(sysm, EIGHT_TIMES, **args)

    def test_whole_valued_floats_and_numpy_ints_are_ints(self):
        sysm = sk.build_heat_model(3, horizon=1.0)
        batch = sk.empirical_error(sysm, EIGHT_TIMES, trials=np.int64(10),
                                   seed=3.0)
        assert type(batch.trials) is int and type(batch.seed) is int
        assert (batch.trials, batch.seed) == (10, 3)
        plain = sk.empirical_error(sysm, EIGHT_TIMES, trials=10, seed=3)
        npt.assert_array_equal(batch.errors, plain.errors)
        # an int seed too large for a float is whole without a conversion
        assert sk.empirical_error(sysm, EIGHT_TIMES, trials=2,
                                  seed=2**1100).seed == 2**1100
        s, y = sk.sample_path(sysm, EIGHT_TIMES, seed=np.uint8(3), trial=1.0)
        s1, y1 = sk.sample_path(sysm, EIGHT_TIMES, seed=3, trial=1)
        npt.assert_array_equal(s, s1)
        npt.assert_array_equal(y, y1)

    def test_needs_two_trials(self):
        sysm = sk.build_heat_model(3, horizon=1.0)
        with pytest.raises(ValueError, match="trials must be >= 2"):
            sk.empirical_error(sysm, EIGHT_TIMES, trials=1, seed=0)

    def test_trials_past_the_cap_are_refused(self, monkeypatch):
        # ``errors`` holds one float64 a trial; refused before the simulator
        # is built, so nothing is drawn
        monkeypatch.setattr(montecarlo, "_Simulator", None)
        sysm = sk.build_heat_model(3, horizon=1.0)
        with pytest.raises(ValueError, match=r"trials must be at most 2147483648"):
            sk.empirical_error(sysm, EIGHT_TIMES, trials=2 ** 31 + 1, seed=0)
