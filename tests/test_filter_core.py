"""Sequential Kalman recursion, information form, doubling, one-shot conditioning.

The covariance routes are the load-bearing cross-check of the package: the
recursion (increment observations, reset bookkeeping), the information form
(initial-state information matrix, undriven systems; closed form for a
uniform grid given by its size, summed over any times passed in), doubling
(stretch triples, uniform grids) and the batch regression (full output gram
matrix) must produce the same
posterior to floating-point accuracy on every model family.  The mean route
is checked against a regression on the batch oracle's own stacked-output
gram and cross-covariance (``_output_gram``).
"""

import dataclasses
import logging

import mpmath
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sampledkf as sk
from sampledkf import filter_core, montecarlo
from sampledkf._scalars import phi1
from sampledkf.errors import GramSingularError
from sampledkf.filter_core import (_accumulated_information, _condition,
                                   _doubled_triples, _dyadic_rows, _energy,
                                   _geometric_sum, _information_rows,
                                   _lower_inverse, _observe,
                                   _output_gram, _prior_scale,
                                   _sample_space_chain, _solve_gram,
                                   _telescope, _trace, _uniform_information,
                                   _uniform_traces, _white_rows)
from sampledkf.spectral_model import _real_covariance, _times_a

FIVE_TIMES = np.linspace(0.2, 1.0, 5)
# ends before the horizon, so the filter finishes with a tail prediction
TAIL_TIMES = np.array([0.15, 0.4, 0.55, 0.8])


def rel_frobenius(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def heat(n=3, **kw):
    kw.setdefault("horizon", 1.0)
    return sk.build_heat_model(n, **kw)


def _sample_space_trace(system, m):
    """The sample-space trace of the m-point uniform grid alone, and tr_prior."""
    gains, prior = _sample_space_chain(system, m, m)
    return prior - float(gains.sum()), prior


def _level_gains(gains, base_n, levels):
    """A chain's midpoint gains split by level, as ``telescope_check`` splits them."""
    return np.split(gains, [base_n * (2 ** level - 1)
                            for level in range(1, levels)])


def _new_points(system, base_n, level):
    """Mesh width h and the (points, N) phi_h values of the points new at ``level``.

    Each point's phi_h(lambda, t, h) is taken directly at its time t, the odd
    j of ``dyadic_grid``'s (j T) / m.
    """
    m = base_n * 2 ** level
    points = (np.arange(1, m, 2) * system.horizon) / m
    h = system.horizon / m
    return h, sk.phi_h(system.eigenvalues[None, :], points[:, None], h)


def _irregular_times(points, seed):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.2, 1.8, points))
    times /= times[-1]
    times[-1] = 1.0
    return times


class TestSequentialVersusBatch:
    @pytest.mark.parametrize("make", [
        lambda: heat(3),
        lambda: heat(3, q_scalar=0.5),
        lambda: sk.build_wave_model(4, horizon=1.0),
    ], ids=["heat", "heat-driven", "wave"])
    def test_final_covariance_agrees(self, make):
        sysm = make()
        seq = sk.sequential_filter(sysm, FIVE_TIMES)
        bat = sk.batch_condition(sysm, FIVE_TIMES)
        assert rel_frobenius(seq.final_cov, bat.final_cov) <= 1e-10
        npt.assert_allclose(seq.trace_err, bat.trace_err, rtol=1e-10)

    def test_irregular_grid(self):
        sysm = heat(4, q_scalar=0.3)
        times = [0.07, 0.21, 0.22, 0.6, 0.99]
        seq = sk.sequential_filter(sysm, times)
        bat = sk.batch_condition(sysm, times)
        assert rel_frobenius(seq.final_cov, bat.final_cov) <= 1e-10

    @pytest.mark.parametrize("times", [
        _irregular_times(32, seed=1), sk.dyadic_grid(64, 0, 1.0),
    ], ids=["irregular-32", "uniform-64"])
    def test_driven_rank_r_recursion(self, times):
        sysm = heat(20, q_scalar=0.5)
        seq = sk.sequential_filter(sysm, times)
        bat = sk.batch_condition(sysm, times)
        assert rel_frobenius(seq.final_cov, bat.final_cov) <= 1e-10
        npt.assert_allclose(seq.trace_err, bat.trace_err, rtol=1e-10)

    @pytest.mark.parametrize("times", [FIVE_TIMES, _irregular_times(24, seed=4)],
                             ids=["five", "irregular-24"])
    @pytest.mark.parametrize("q_scalar", [0.0, 0.5], ids=["undriven", "driven"])
    def test_two_outputs_agree_on_every_route(self, two_output_heat, q_scalar,
                                              times):
        sysm = two_output_heat(4, q_scalar=q_scalar)
        first, *others = _routes(sysm, times)
        for run in others:
            assert rel_frobenius(run.final_cov, first.final_cov) <= 1e-12
            npt.assert_allclose(run.trace_err, first.trace_err, rtol=1e-12)

    def test_empty_times_propagates_prior(self):
        sysm = heat(3, q_scalar=0.5)
        n = sysm.num_modes
        want = sk.augmented_covariance(sysm, sysm.horizon)[:n, :n]
        for run in (sk.sequential_filter(sysm, []), sk.batch_condition(sysm, [])):
            npt.assert_allclose(run.final_cov, want, rtol=1e-12)
            assert run.final_mean is None


def _with_zero_prior_mode(sysm, mode):
    pvar = sysm.prior_var.copy()
    pvar[mode] = 0.0
    return sk.ModalSystem(
        eigenvalues=sysm.eigenvalues, output_coeffs=sysm.output_coeffs,
        input_coeffs=sysm.input_coeffs, prior_mean=sysm.prior_mean,
        prior_var=pvar, q_cov=sysm.q_cov, r_cov=sysm.r_cov,
        horizon=sysm.horizon, pairing=sysm.pairing, label="zero-prior")


class TestInformationForm:
    @pytest.mark.parametrize("n", [4, 64, 1024])
    @pytest.mark.parametrize("modes", [10, 60])
    @pytest.mark.parametrize("family", ["heat", "wave"])
    def test_matches_recursion_on_uniform_grids(self, family, modes, n):
        build = sk.build_heat_model if family == "heat" else sk.build_wave_model
        sysm = build(modes, horizon=1.0)
        times = sk.dyadic_grid(n, 0, 1.0)
        info = sk.information_filter(sysm, times)
        routes = [sk.sequential_filter(sysm, times)]
        if n <= 64:  # the batch oracle's gram loop is O(n^2)
            routes.append(sk.batch_condition(sysm, times))
        for run in routes:
            assert rel_frobenius(info.final_cov, run.final_cov) <= 1e-12
            npt.assert_allclose(info.trace_err, run.trace_err, rtol=1e-12)

    @pytest.mark.parametrize("make", [
        lambda: heat(10), lambda: sk.build_wave_model(60, horizon=1.0),
    ], ids=["heat", "wave"])
    def test_matches_both_routes_on_irregular_grid(self, make):
        sysm = make()
        times = _irregular_times(40, seed=3)
        info = sk.information_filter(sysm, times)
        for run in (sk.sequential_filter(sysm, times),
                    sk.batch_condition(sysm, times)):
            assert rel_frobenius(info.final_cov, run.final_cov) <= 1e-12
            npt.assert_allclose(info.trace_err, run.trace_err, rtol=1e-12)

    def test_empty_times_propagates_prior(self):
        sysm = sk.build_wave_model(4, horizon=1.0)
        want = sk.augmented_covariance(sysm, 1.0)[:4, :4]
        npt.assert_allclose(sk.information_filter(sysm, []).final_cov, want,
                            rtol=1e-12)

    def test_zero_prior_variance(self):
        sysm = _with_zero_prior_mode(heat(5), mode=2)
        times = _irregular_times(12, seed=8)
        info = sk.information_filter(sysm, times)
        assert np.all(info.final_cov[2, :] == 0) and np.all(info.final_cov[:, 2] == 0)
        for run in (sk.sequential_filter(sysm, times),
                    sk.batch_condition(sysm, times)):
            assert rel_frobenius(info.final_cov, run.final_cov) <= 1e-12

    def test_rejects_driven_systems(self):
        with pytest.raises(ValueError, match="needs an undriven system"):
            sk.information_filter(heat(3, q_scalar=0.5), FIVE_TIMES)

    def test_posterior_trace_picks_the_route(self):
        # the uniform-grid trace takes the grid size: an undriven system
        # with m r <= 3N/4 takes the sample space, one with more rows
        # conditions (e^(AT), closed-form J, None), a driven one the doubled
        # triple; the summed J of information_filter agrees to rounding only
        times = sk.dyadic_grid(5, 0, 1.0)
        wave = sk.build_wave_model(4, horizon=1.0)
        assert _uniform_traces(wave, [5])[0] == _trace(
            wave, _condition(wave, _uniform_information(wave, [5])))[0]
        npt.assert_allclose(sk.information_filter(wave, times).trace_err,
                            _uniform_traces(wave, [5])[0], rtol=1e-14)
        wave = sk.build_wave_model(8, horizon=1.0)
        assert _uniform_traces(wave, [5])[0] == _sample_space_trace(wave, 5)[0]
        npt.assert_allclose(sk.information_filter(wave, times).trace_err,
                            _uniform_traces(wave, [5])[0], rtol=1e-14)
        driven = heat(3, q_scalar=0.5)
        phi, gam, noise = _doubled_triples(driven, [5])
        assert _uniform_traces(driven, [5])[0] == _trace(
            driven, _condition(driven, gam), phi, noise)[0]
        for run in (sk.sequential_filter(driven, times),
                    sk.batch_condition(driven, times)):
            npt.assert_allclose(_uniform_traces(driven, [5])[0], run.trace_err,
                                rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(grid=st.lists(st.integers(1, 999), min_size=1, max_size=12, unique=True),
           extra=st.integers(1, 999), family=st.sampled_from(["heat", "wave", "driven"]))
    def test_adding_a_sample_never_raises_the_trace(self, grid, extra, family):
        sysm = {"heat": lambda: heat(6), "wave": lambda: sk.build_wave_model(6),
                "driven": lambda: heat(4, q_scalar=0.5)}[family]()
        base = np.array(sorted(grid)) / 1000.0
        refined = np.array(sorted(set(grid) | {extra})) / 1000.0
        trace = (sk.sequential_filter if sysm.has_input_noise
                 else sk.information_filter)
        before = trace(sysm, base).trace_err
        after = trace(sysm, refined).trace_err
        assert after <= before * (1 + 1e-12)


def _driven_wave(num_modes=10):
    """The wave model with a scalar input on every mode, b = +/- i m^-2 per pair."""
    base = sk.build_wave_model(num_modes, horizon=1.0)
    amp = np.repeat(np.arange(1, num_modes // 2 + 1, dtype=float) ** -2.0, 2)
    b = (amp * np.tile([1j, -1j], num_modes // 2))[:, None]
    return dataclasses.replace(base, input_coeffs=b, q_cov=np.array([[0.5]]),
                               label="driven-wave")


_DOUBLING_N = [1, 2, 3, 5, 7, 100, 257]


def _assert_doubling_matches(sysm, n):
    times = sk.dyadic_grid(n, 0, sysm.horizon)
    doubled = _uniform_traces(sysm, [n])[0]
    npt.assert_allclose(doubled, sk.sequential_filter(sysm, times).trace_err,
                        rtol=1e-12)
    if n <= 8:
        npt.assert_allclose(doubled, sk.batch_condition(sysm, times).trace_err,
                            rtol=1e-12)


class TestDoubling:
    """Driven traces on uniform grids: doubling against the recursion."""

    @pytest.mark.parametrize("n", _DOUBLING_N + [2 ** 13])
    @pytest.mark.parametrize("modes", [20, 60])
    def test_matches_recursion_on_driven_heat(self, modes, n):
        _assert_doubling_matches(heat(modes, q_scalar=0.5), n)

    @pytest.mark.parametrize("n", _DOUBLING_N)
    @pytest.mark.parametrize("model", [
        "heat-T0.7", "heat-T3", "two-output-heat", "wave"])
    def test_matches_recursion_on_other_models(self, model, n, two_output_heat):
        sysm = {"heat-T0.7": lambda: heat(20, q_scalar=0.5, horizon=0.7),
                "heat-T3": lambda: heat(20, q_scalar=0.5, horizon=3.0),
                "two-output-heat": lambda: two_output_heat(6, 0.5),
                "wave": _driven_wave}[model]()
        _assert_doubling_matches(sysm, n)

    @pytest.mark.parametrize("n", [1, 3, 64, 1000, 2 ** 12])
    @pytest.mark.parametrize("family", ["heat", "wave"])
    def test_undriven_doubling_is_the_information_form(self, family, n):
        # without input noise H = 0 and Gam is the information matrix J
        build = sk.build_heat_model if family == "heat" else sk.build_wave_model
        sysm = build(10, horizon=1.0)
        info = sk.information_filter(sysm, sk.dyadic_grid(n, 0, 1.0))
        # the triple is real, in rho: P_rho = F^T F, and the posterior of
        # z(T) = A rho is A (H + Phi P_rho Phi^T) A*
        phi, gam, noise = (part[0] for part in _doubled_triples(sysm, [n]))
        half = _condition(sysm, gam)
        amat = _recomposition(sysm)
        post = amat @ (noise + phi @ half.T @ half @ phi.T) @ amat.conj().T
        assert rel_frobenius(post, info.final_cov) <= 1e-12

    @pytest.mark.parametrize("widths_per_batch", [None, 3],
                             ids=["one-batch", "batches-of-3"])
    @pytest.mark.parametrize("model", [
        "heat-T0.7", "heat-T1", "heat-T3", "two-output-heat", "wave"])
    def test_a_size_in_a_stack_is_the_size_alone(self, monkeypatch, model,
                                                 widths_per_batch,
                                                 two_output_heat):
        # the stacked doubling shares one kernel call and one squaring
        # chain; no size's bits may depend on the sizes beside it, nor on
        # the kernel batches its step triple is formed in
        sysm = {"heat-T0.7": lambda: heat(20, q_scalar=0.5, horizon=0.7),
                "heat-T1": lambda: heat(20, q_scalar=0.5),
                "heat-T3": lambda: heat(20, q_scalar=0.5, horizon=3.0),
                "two-output-heat": lambda: two_output_heat(6, 0.5),
                "wave": _driven_wave}[model]()
        if widths_per_batch:
            monkeypatch.setattr(sk.kernels, "_KERNEL_ELEMENTS",
                                widths_per_batch * sysm.num_modes ** 2)
        sizes = np.random.default_rng(7).permutation(
            [1, 3, 5, 7, 64, 100, 257, 2 ** 12]).tolist()
        stacked = _doubled_triples(sysm, sizes)
        traces = _uniform_traces(sysm, sizes)
        for i, m in enumerate(sizes):
            for part, alone in zip(stacked, _doubled_triples(sysm, [m])):
                npt.assert_array_equal(part[i], alone[0])
            assert traces[i] == _uniform_traces(sysm, [m])[0], m

    def test_a_driven_curve_takes_one_doubling(self, monkeypatch):
        # coarse grids, reference and check: one kernel call, one stack of
        # factors, and bit_length(largest size) - 1 squaring stages
        counts = {"_transitions": 0, "_condition": 0, "_join": 0,
                  "squarings": 0}

        def counting(name):
            real = getattr(filter_core, name)

            def spy(*args):
                counts[name] += 1
                if name == "_join" and args[0] is args[1]:
                    counts["squarings"] += 1
                return real(*args)
            return spy

        for name in ("_transitions", "_condition", "_join"):
            monkeypatch.setattr(filter_core, name, counting(name))
        n_values = [4, 8, 16, 32]
        curve = sk.discrepancy_curve(heat(20, q_scalar=0.5), n_values,
                                     reference_level=6, check_reference=True)
        assert counts["_transitions"] == 1
        assert counts["_condition"] == 1
        check = 2 * curve.reference_points
        assert counts["squarings"] == check.bit_length() - 1


@pytest.fixture
def spy(monkeypatch):
    """The factors ``_condition`` returns, one per call, in call order."""
    real, calls = filter_core._condition, []

    def counting(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(filter_core, "_condition", counting)
    return calls


class TestOneConditioning:
    """Every trace or posterior taken from J or a triple factors it once.

    ``_condition`` is the one N x N factorisation: it returns the
    lower-triangular inverse factor of the whitened information, and every
    trace and posterior is formed from that.  An undriven uniform trace with
    m r <= 3N/4 rows factors an (m r) x (m r) matrix in sample space
    instead, and calls it not at all.
    """

    @pytest.mark.parametrize("make", [
        lambda: heat(6), lambda: sk.build_wave_model(6, horizon=1.0),
        lambda: heat(6, q_scalar=0.5)], ids=["heat", "wave", "driven-heat"])
    def test_uniform_trace(self, spy, make):
        sysm = make()
        trace = _uniform_traces(sysm, [12])[0]
        triple = (_doubled_triples(sysm, [12])[::2]
                  if sysm.has_input_noise else ())
        assert len(spy) == 1 and trace == _trace(sysm, spy[0], *triple)[0]
        npt.assert_array_equal(spy[0], np.tril(spy[0]))

    @pytest.mark.parametrize("model", ["heat", "wave", "two-output-heat"])
    def test_the_sample_space_takes_no_conditioning(self, spy, model,
                                                    two_output_heat):
        # m r up to 3N/4 = 9 rows: no N x N factor; more rows, one factor
        sysm = _oracle_model(model, 12, 1.0, two_output_heat)
        r = sysm.num_outputs
        for m in range(1, 9 // r + 1):
            assert _uniform_traces(sysm, [m])[0] == _sample_space_trace(sysm, m)[0]
        assert not spy
        _uniform_traces(sysm, [9 // r + 1])[0]
        assert len(spy) == 1

    def test_uniform_trace_forms_no_posterior(self, monkeypatch):
        # only information_filter takes a posterior back to modal coordinates
        monkeypatch.setattr(filter_core, "_from_real", _refuse)
        for sysm in (heat(6), sk.build_wave_model(6), heat(6, q_scalar=0.5)):
            assert _uniform_traces(sysm, [12])[0] > 0

    def test_undriven_uniform_trace_takes_no_recomposition(self, monkeypatch):
        # the closed form arrives in real coordinates: no modal J is formed
        # and taken there afterwards
        monkeypatch.setattr(filter_core, "_real_covariance", _refuse)
        for sysm in (heat(6), sk.build_wave_model(6), _mixed_model()):
            assert _uniform_traces(sysm, [12])[0] > 0

    def test_information_filter(self, spy):
        sysm = heat(6)
        run = sk.information_filter(sysm, _irregular_times(9, seed=4))
        decay = np.exp(sysm.eigenvalues * sysm.horizon)
        assert len(spy) == 1
        assert rel_frobenius(run.final_cov,
                             _modal_posterior(sysm, spy[0], decay)) <= 1e-14

    def test_increment_variance(self, spy):
        sk.increment_variance(heat(6), sk.dyadic_grid(4, 0, 1.0), 0.125, 0.125)
        assert len(spy) == 1

    def test_telescope_gains(self, spy):
        # the base grid's factor serves the coarse trace and the carried
        # posterior; the fine grid's serves the fine trace, both from one
        # stack
        sk.telescope_check(heat(6), 4, 2)
        assert len(spy) == 1 and spy[0].shape == (2, 6, 6)

    @pytest.mark.parametrize("model", [
        "heat", "wave", "two-output-heat", "mixed", "driven-heat",
        "driven-wave", "driven-two-output-heat", "driven-oscillator"])
    def test_takes_only_float64(self, monkeypatch, model, two_output_heat):
        # every route hands _condition a J_rho built real
        real, received = filter_core._condition, []

        def recording(system, info):
            received.append(info.dtype)
            return real(system, info)

        monkeypatch.setattr(filter_core, "_condition", recording)
        sysm = {"heat": lambda: heat(6),
                "wave": lambda: sk.build_wave_model(6, horizon=1.0),
                "two-output-heat": lambda: two_output_heat(6),
                "mixed": _mixed_model,
                "driven-heat": lambda: heat(6, q_scalar=0.5),
                "driven-wave": lambda: _driven_wave(6),
                "driven-two-output-heat": lambda: two_output_heat(6, 0.5),
                "driven-oscillator": lambda: _driven_oscillator(1.0)}[model]()
        _uniform_traces(sysm, [12])[0]
        if not sysm.has_input_noise:
            sk.information_filter(sysm, _irregular_times(9, seed=4))
            sk.increment_variance(sysm, sk.dyadic_grid(4, 0, 1.0), 0.125,
                                  0.125)
            sk.telescope_check(sysm, 4, 2)
        assert received and all(dtype == np.float64 for dtype in received)


def _stack_model(model, two_output_heat):
    return {"heat": lambda: heat(20),
            "wave": lambda: sk.build_wave_model(20, horizon=1.0),
            "wave-N60": lambda: sk.build_wave_model(60, horizon=1.0),
            "wave-L3-T0.7": lambda: sk.build_wave_model(
                20, domain_length=3.0, horizon=0.7),
            "high-snr-heat": lambda: heat(20, r_scalar=1e-6),
            "two-output-heat": lambda: two_output_heat(10),
            "mixed": _mixed_model,
            "heat-N100": lambda: heat(100),
            "driven-heat": lambda: heat(20, q_scalar=0.5),
            "driven-wave": lambda: _driven_wave(10)}[model]()


# shuffled and duplicated lists; wave at N = 60 aliases at 3, 5 and 7; the
# high signal-to-noise heat sends sample-space sizes back to the closed
# form; at N = 100 a slice of kernels._batches holds 3 sizes, so the 5
# closed-form sizes take two
_STACKS = [
    pytest.param("heat", [8192, 3, 100, 3, 7, 4096, 12, 100], id="heat"),
    pytest.param("wave", [64, 5, 4096, 5, 3, 8192, 7, 1000], id="wave"),
    pytest.param("wave-N60", [3, 5, 7, 4096], id="wave-N60"),
    pytest.param("wave-L3-T0.7", [7, 4096, 14, 3, 2 ** 20], id="wave-L3-T0.7"),
    pytest.param("high-snr-heat", [2, 4, 8, 12, 4096, 8], id="high-snr-heat"),
    pytest.param("two-output-heat", [16, 2, 4096, 9, 1024, 16],
                 id="two-output-heat"),
    pytest.param("mixed", [1, 2, 4, 3, 64], id="mixed"),
    pytest.param("heat-N100", [4096, 80, 1000, 96, 128], id="heat-N100"),
    pytest.param("driven-heat", [257, 1, 64, 5, 64, 2 ** 12], id="driven-heat"),
    pytest.param("driven-wave", [7, 100, 3, 2 ** 12, 7], id="driven-wave"),
]


class TestStackedConditioning:
    """Every size of a call in one stack, each with the bits of the size alone."""

    @pytest.mark.parametrize("model, sizes", _STACKS)
    def test_a_size_in_a_stack_is_the_size_alone(self, model, sizes,
                                                 two_output_heat):
        # a size the sample space keeps is a prefix of its odd part's
        # chain, which moves its rounding alone; every size a stack
        # conditions keeps its bits
        sysm = _stack_model(model, two_output_heat)
        traces = _uniform_traces(sysm, sizes)
        kept = ({} if sysm.has_input_noise
                else filter_core._sample_space_traces(sysm, sizes))
        for m, got in zip(sizes, traces):
            alone = _uniform_traces(sysm, [m])[0]
            assert got == alone if m not in kept else _rel(got, alone) <= 1e-14
        if sysm.has_input_noise:
            return
        stack = _uniform_information(sysm, sizes)
        assert stack.shape == (len(sizes), sysm.num_modes, sysm.num_modes)
        factors = _condition(sysm, stack)
        for i, m in enumerate(sizes):
            alone = _uniform_information(sysm, [m])
            npt.assert_array_equal(stack[i], alone[0])
            npt.assert_array_equal(factors[i], _condition(sysm, alone[0]))
            assert _trace(sysm, factors)[i] == _trace(sysm, factors[i:i + 1])[0]

    def test_the_high_snr_case_falls_back(self):
        # the floor guard hands every sample-space size of the high-snr
        # list back to the stack
        sysm = heat(20, r_scalar=1e-6)
        assert not filter_core._sample_space_traces(sysm, [2, 4, 8, 12])

    @pytest.mark.parametrize("model", ["heat", "wave", "driven-heat",
                                       "driven-wave"])
    def test_the_empty_list(self, model, two_output_heat):
        sysm = _stack_model(model, two_output_heat)
        assert _uniform_traces(sysm, []).shape == (0,)
        n = sysm.num_modes
        assert _uniform_information(sysm, []).shape == (0, n, n)
        assert _condition(sysm, np.zeros((0, n, n))).shape == (0, n, n)

    @pytest.mark.parametrize("n", [5, 32, 33, 65, 100])
    def test_lower_inverse_of_a_stack(self, n):
        stack = np.stack([_random_lower(n + k, float)[:n, :n]
                          for k in range(3)])
        got = _lower_inverse(stack)
        for low, inverse in zip(stack, got):
            npt.assert_array_equal(inverse, _lower_inverse(low))

    @pytest.mark.parametrize("family", ["heat", "wave"])
    def test_a_curve_conditions_its_closed_form_sizes_once(self, spy, family):
        # at N = 60 the sizes 4..32 take the sample space; 64, the
        # reference and its check are one stack of one _condition call
        build = sk.build_heat_model if family == "heat" else sk.build_wave_model
        curve = sk.discrepancy_curve(build(60, horizon=1.0),
                                     [4, 8, 16, 32, 64], reference_level=6)
        assert len(spy) == 1 and spy[0].shape == (3, 60, 60)
        assert curve.reference_points == 4096

    def test_a_large_model_conditions_each_size_alone(self, spy):
        # from N = 182 a kernel batch holds one N x N matrix: the reference
        # and its check take one _condition call each, as each size alone
        sysm = heat(200)
        assert filter_core._batches(sysm, 2) == [slice(0, 1), slice(1, 2)]
        _uniform_traces(sysm, [4, 4096, 8192])
        assert [factor.shape for factor in spy] == [(1, 200, 200)] * 2

    def test_a_list_over_two_slices_makes_two_calls(self, spy):
        sysm = heat(100)
        _uniform_traces(sysm, [4096, 80, 1000, 96, 128])
        assert [factor.shape[0] for factor in spy] == [3, 2]

    @pytest.mark.parametrize("modes, levels, stacked", [
        (6, 2, (2, 6, 6)), (60, 2, (1, 60, 60))])
    def test_a_telescope_stacks_its_closed_form_sizes(self, spy, modes,
                                                      levels, stacked):
        # the fine size keeps _uniform_traces' route: 16 points of 6 modes
        # take the closed form beside the base grid, 16 of 60 the sample
        # space, and the base grid is conditioned alone
        sysm = heat(modes)
        report = sk.telescope_check(sysm, 4, levels)
        assert len(spy) == 1 and spy[0].shape == stacked
        fine = _uniform_traces(sysm, [4 * 2 ** levels])[0]
        assert report.trace_drop == _closed_form_trace(sysm, 4) - fine


def _complex_condition_oracle(system, info, phi=None, noise=None):
    """The complex whitened conditioning the real route replaced: the oracle.

    H + Phi P0^(1/2) (I + P0^(1/2) J P0^(1/2))^-1 P0^(1/2) Phi*, symmetrised,
    in modal coordinates and complex128, with an LU solve against the
    Cholesky factor of the whitened matrix.
    """
    root = np.sqrt(system.prior_var)
    whitened = np.eye(system.num_modes) + root[:, None] * info * root[None, :]
    rhs = np.diag(root) if phi is None else (phi * root[None, :]).conj().T
    half = np.linalg.solve(np.linalg.cholesky(whitened), rhs)
    post = half.conj().T @ half if noise is None else noise + half.conj().T @ half
    return (post + post.conj().T) / 2.0


def _recomposition(system):
    """The dense recomposition A of x = A rho: columns (1, 1), (i, -i) on a pair."""
    amat = np.eye(system.num_modes, dtype=complex)
    pairs = system._pair_index
    amat[pairs.mate, pairs.first] = 1.0
    amat[pairs.first, pairs.mate] = 1.0j
    amat[pairs.mate, pairs.mate] = -1.0j
    return amat


def _modal_posterior(system, factor, decay=None):
    """A F^T F A* of a factor of ``_condition``, with the dense A.

    With ``decay`` = e^(AT) it is the posterior of z(T) = diag(decay) x.
    """
    amat = _recomposition(system)
    post = amat @ factor.T @ factor @ amat.conj().T
    if decay is not None:
        post = post * np.outer(decay, decay.conj())
    return (post + post.conj().T) / 2.0


def _modal_insert(post, chm, h, r_cov, decay):
    """One midpoint insertion on a modal posterior of x, in complex128.

    ``chm`` is the (r, N) modal map C_h of the new point.  With
    G = C_h P C_h* + (h/2) R the posterior drops by P C_h* G^-1 C_h P, and
    the gain is the trace of its image under e^(AT).  Returns the gain and
    the downdated posterior.
    """
    cpost = chm @ post
    drop = cpost.conj().T @ np.linalg.solve(
        cpost @ chm.conj().T + (h / 2.0) * r_cov, cpost)
    after = post - drop
    return (float(np.abs(decay) ** 2 @ drop.diagonal().real),
            (after + after.conj().T) / 2.0)


def _modal_triple(system, phi, gam, noise):
    """A triple in rho back in modal coordinates, with A^-1 = A* / D.

    Phi = A Phi_rho A^-1, J = Gam = A^-* Gam_rho A^-1 and H = A H_rho A*;
    ``phi`` and ``noise`` may be None.
    """
    amat = _recomposition(system)
    inverse = amat.conj().T / system._pair_index.weights[:, None]
    return (None if phi is None else amat @ phi @ inverse,
            inverse.conj().T @ gam @ inverse,
            None if noise is None else amat @ noise @ amat.conj().T)


def _summed_information(system, times):
    """The modal J = sum_i H_i* (R d_i)^-1 H_i from its per-sample definition.

    H_i = C diag(e^(lambda t_(i-1)) d_i phi1(lambda d_i)) on the widths
    d_i = t_i - t_(i-1), with no whitening of the outputs.
    """
    lam = system.eigenvalues
    starts = np.concatenate([[0.0], times[:-1]])
    widths = times - starts
    modal = (np.exp(np.outer(starts, lam)) * widths[:, None]
             * phi1(np.outer(widths, lam)))
    rows = system.output_coeffs.T[None, :, :] * modal[:, None, :]
    return np.einsum("i,irk,rs,isl->kl", 1.0 / widths, rows.conj(),
                     np.linalg.inv(system.r_cov), rows, optimize=True)


def _real_oracle(system, info):
    """J_rho = A* J A of a modal J, with the dense A."""
    amat = _recomposition(system)
    return amat.conj().T @ info @ amat


def _mixed_model(horizon=1.0):
    """One self-conjugate mode and two pairs, pairing [0, 2, 1, 4, 3], two outputs.

    The undamped pair +/- 4 pi i aliases to x = 2 pi i j on the grids of
    1, 2 and 4 points of the unit horizon.
    """
    c1, c2 = np.array([0.3 + 0.4j, -0.2j]), np.array([0.6j, 0.1 + 0.5j])
    return sk.ModalSystem(
        eigenvalues=np.array([-0.5, -0.1 + 2.0j, -0.1 - 2.0j,
                              4j * np.pi, -4j * np.pi]),
        output_coeffs=np.array([[0.7, -0.4], c1, c1.conj(), c2, c2.conj()]),
        input_coeffs=np.zeros((5, 1), complex),
        prior_mean=np.zeros(5, complex),
        prior_var=np.array([1.0, 0.5, 0.5, 0.2, 0.2]),
        q_cov=np.array([[0.0]]),
        r_cov=np.array([[1.0, 0.3], [0.3, 2.0]]),
        horizon=horizon,
        pairing=np.array([0, 2, 1, 4, 3]),
        label="mixed",
    )


def _driven_oscillator(horizon):
    """The conjugate pair with input noise of ``test_kernels``, at ``horizon``."""
    return sk.ModalSystem(
        eigenvalues=np.array([-0.1 + 2.0j, -0.1 - 2.0j]),
        output_coeffs=np.array([[0.5j], [-0.5j]]),
        input_coeffs=np.array([[1.0], [1.0]], dtype=complex),
        prior_mean=np.zeros(2, complex),
        prior_var=np.array([0.3, 0.3]),
        q_cov=np.array([[0.8]]),
        r_cov=np.array([[1.0]]),
        horizon=horizon,
        pairing=np.array([1, 0]),
        label="osc",
    )


def _oracle_model(model, modes, horizon, two_output_heat):
    if model == "heat":
        return heat(modes, horizon=horizon)
    if model == "wave":
        return sk.build_wave_model(modes, horizon=horizon)
    if model == "two-output-heat":
        return dataclasses.replace(two_output_heat(modes), horizon=horizon)
    if model == "driven-heat":
        return heat(modes, horizon=horizon, q_scalar=0.5)
    if model == "mixed":
        return _mixed_model(horizon)
    return _driven_oscillator(horizon)


def _rel(got, want):
    return abs(got - want) / abs(want)


_ORACLE_MODELS = [pytest.param(model, modes, id=f"{model}-N{modes}")
                  for model in ("heat", "wave", "two-output-heat", "driven-heat")
                  for modes in (6, 10, 60)]
_ORACLE_MODELS.append(pytest.param("oscillator", 2, id="oscillator-N2"))
_ORACLE_MODELS.append(pytest.param("mixed", 5, id="mixed-N5"))
_ORACLE_SIZES = [1, 2, 3, 5, 7, 64, 1000, 2 ** 13, 2 ** 20]


class TestRealConditioning:
    """The real triangular conditioning against the complex whitened oracle."""

    @pytest.mark.parametrize("horizon", [0.7, 1.0])
    @pytest.mark.parametrize("model, modes", _ORACLE_MODELS)
    def test_uniform_trace_matches_the_oracle(self, model, modes, horizon,
                                              two_output_heat):
        sysm = _oracle_model(model, modes, horizon, two_output_heat)
        for m in _ORACLE_SIZES:
            phi, info, noise = _modal_triple(
                sysm, *((part[0] for part in _doubled_triples(sysm, [m]))
                        if sysm.has_input_noise
                        else (None, _uniform_information(sysm, [m])[0], None)))
            if phi is None:
                phi = np.diag(np.exp(sysm.eigenvalues * horizon))
            want = np.trace(_complex_condition_oracle(sysm, info, phi, noise)).real
            assert _rel(_uniform_traces(sysm, [m])[0], want) <= 1e-13, m

    @pytest.mark.parametrize("horizon", [0.7, 1.0])
    @pytest.mark.parametrize("model, modes", [
        p for p in _ORACLE_MODELS if p.values[0] in ("heat", "wave",
                                                     "two-output-heat",
                                                     "mixed")])
    def test_posteriors_match_the_oracle(self, model, modes, horizon,
                                         two_output_heat):
        sysm = _oracle_model(model, modes, horizon, two_output_heat)
        times = _irregular_times(12, seed=modes) * horizon
        decay = np.exp(sysm.eigenvalues * horizon)
        want = _complex_condition_oracle(
            sysm, _summed_information(sysm, times), np.diag(decay))
        run = sk.information_filter(sysm, times)
        assert rel_frobenius(run.final_cov, want) <= 1e-13
        assert _rel(run.trace_err, np.trace(want).real) <= 1e-13
        # one insertion on a base of four points, and the carried telescope
        base = sk.dyadic_grid(4, 0, horizon)
        h = horizon / 8
        chm = sysm.output_coeffs.T * sk.phi_h(sysm.eigenvalues, h, h)[None, :]
        oracle = _complex_condition_oracle(
            sysm, _summed_information(sysm, base))
        gain = _modal_insert(oracle, chm, h, sysm.r_cov, decay)[0]
        assert _rel(sk.increment_variance(sysm, base, h, h), gain) <= 1e-13
        per_level = _level_gains(_telescope(sysm, 4, 32)[2], 4, 3)
        oracle = _complex_condition_oracle(
            sysm, _summed_information(sysm, base))
        for level, gains in enumerate(per_level, start=1):
            h, phis = _new_points(sysm, 4, level)
            for got, phi in zip(gains, phis):
                want, oracle = _modal_insert(oracle, sysm.output_coeffs.T * phi,
                                             h, sysm.r_cov, decay)
                assert _rel(got, want) <= 1e-13

    @pytest.mark.parametrize("family", ["heat", "wave", "undeclared"])
    def test_the_factor_is_real_and_lower_triangular(self, family):
        build = sk.build_wave_model if family == "wave" else sk.build_heat_model
        sysm = build(10, horizon=1.0)
        if family == "undeclared":
            # a real model declared without a pairing gets the identity one
            sysm = dataclasses.replace(sysm, pairing=None)
        linv = _condition(sysm, _uniform_information(sysm, [16])[0])
        assert linv.dtype == np.float64
        npt.assert_array_equal(linv, np.tril(linv))

    def test_a_triple_off_the_pairing_is_refused(self, monkeypatch):
        # the one-step triple reaches real coordinates through
        # _real_covariance, which holds it to the pairing
        sysm = _driven_wave(6)
        build = filter_core._transitions

        def broken(system, widths):
            stack = build(system, widths)
            noise = stack.noise_cov.copy()
            # only one entry of the conjugate-mate pair moves, in the last
            # width of the stack alone
            noise[-1, 0, 2] += 1e-4 * np.abs(noise[-1]).max()
            noise[-1, 2, 0] = noise[-1, 0, 2].conj()
            return dataclasses.replace(stack, noise_cov=noise)

        assert np.all(_uniform_traces(sysm, [4, 5]) > 0)
        monkeypatch.setattr(filter_core, "_transitions", broken)
        with pytest.raises(ValueError, match="stretch triple does not "
                                             "respect the conjugate pairing"):
            _uniform_traces(sysm, [4, 5])

    def test_times_a_is_the_dense_recomposition(self):
        # x A along the last axis, on a pairing that mixes a real mode and
        # two pairs
        sysm = _mixed_model()
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
        npt.assert_allclose(_times_a(x, sysm._pair_index),
                            x @ _recomposition(sysm), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 64, 65, 97, 400, 1000])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_lower_inverse_matches_inv(self, n, dtype):
        low = _random_lower(n, dtype)
        got = _lower_inverse(low)
        assert got.dtype == low.dtype
        npt.assert_array_equal(got, np.tril(got))
        assert rel_frobenius(got, np.linalg.inv(low)) <= 1e-13

    @pytest.mark.parametrize("n", [33, 65, 129, 400])
    def test_lower_inverse_inverts_only_leaves(self, monkeypatch, n):
        # every np.linalg.inv call sees one leaf, never a larger block
        inv, rows = np.linalg.inv, []

        def spy(block):
            rows.append(block.shape[0])
            return inv(block)

        monkeypatch.setattr(np.linalg, "inv", spy)
        _lower_inverse(_random_lower(n, float))
        assert sum(rows) == n
        assert max(rows) <= filter_core._INVERSE_LEAF


def _closed_form_trace(system, m):
    """The undriven uniform trace through ``_condition`` of the closed-form J."""
    return _trace(system, _condition(system, _uniform_information(system, [m])))[0]


def _sample_space_oracle(system, m):
    """The uniform trace from the float64 rows of the sample space, in 40 digits.

    The rows, prior scale R and weights are the float64 ones of
    ``_sample_space_trace``; the posterior R (I + B^T B)^-1 R, B = rows R,
    is the N x N inverse of mpmath, so the oracle holds only the rounding of
    its float64 inputs and neither route's.
    """
    n = system.num_modes
    rows = _information_rows(system, (np.arange(m) * system.horizon) / m,
                             np.array([system.horizon / m]),
                             np.zeros(m, dtype=int)).reshape(-1, n)
    scale, energy = _prior_scale(system), _energy(system)
    with mpmath.workdps(40):
        white = mpmath.matrix(rows.tolist())
        for k in range(n):
            for i in range(rows.shape[0]):
                white[i, k] *= mpmath.mpf(scale[k])
        post = mpmath.inverse(mpmath.eye(n) + white.T * white)
        return float(mpmath.fsum(mpmath.mpf(energy[k]) * mpmath.mpf(scale[k]) ** 2
                                 * post[k, k] for k in range(n)))


_SAMPLE_SPACE_MODELS = [pytest.param(model, modes, id=f"{model}-N{modes}")
                        for model in ("heat", "wave", "wave-L3-T0.7",
                                      "two-output-heat")
                        for modes in (10, 20, 60)]
_SAMPLE_SPACE_MODELS.append(pytest.param("mixed", 5, id="mixed-N5"))


class TestSampleSpace:
    """Coarse undriven uniform traces through Woodbury's identity."""

    @pytest.mark.parametrize("model, modes", _SAMPLE_SPACE_MODELS)
    def test_matches_the_closed_form(self, model, modes, two_output_heat):
        # every size whose m r rows take the sample space
        sysm = (sk.build_wave_model(modes, domain_length=3.0, horizon=0.7)
                if model == "wave-L3-T0.7"
                else _oracle_model(model, modes, 1.0, two_output_heat))
        r = sysm.num_outputs
        sizes = [m for m in range(1, modes + 1)
                 if m * r <= filter_core._SAMPLE_SPACE_SHARE * modes]
        assert sizes
        for m in sizes:
            assert _rel(_sample_space_trace(sysm, m)[0],
                        _closed_form_trace(sysm, m)) <= 1e-13, m

    @pytest.mark.parametrize("r_scalar", [1.0, 1e-4, 1e-8])
    @pytest.mark.parametrize("family", ["heat", "wave"])
    def test_the_guard_keeps_the_closed_form_accuracy(self, family, r_scalar):
        # high signal-to-noise heat cancels digits in sample space and
        # falls back; 16 points of 20 modes take the closed form anyway
        build = sk.build_heat_model if family == "heat" else sk.build_wave_model
        sysm = build(20, horizon=1.0, r_scalar=r_scalar)
        for m in (4, 8, 16):
            want = _sample_space_oracle(sysm, m)
            closed = _rel(_closed_form_trace(sysm, m), want)
            assert _rel(_uniform_traces(sysm, [m])[0], want) <= max(1e-13,
                                                              10 * closed), m

    @pytest.mark.parametrize("family, r_scalar, conditions", [
        ("heat", 1.0, 0), ("heat", 1e-4, 1), ("heat", 1e-8, 1),
        ("wave", 1e-8, 0)])
    def test_the_guard_sends_high_snr_heat_to_condition(self, spy, family,
                                                        r_scalar, conditions):
        build = sk.build_heat_model if family == "heat" else sk.build_wave_model
        sysm = build(20, horizon=1.0, r_scalar=r_scalar)
        for m in (4, 8):
            spy.clear()
            trace, prior = _sample_space_trace(sysm, m)
            got = _uniform_traces(sysm, [m])[0]
            assert len(spy) == conditions, m
            assert (trace < filter_core._SAMPLE_SPACE_FLOOR * prior) == bool(
                conditions)
            assert got == (_trace(sysm, spy[0])[0] if conditions else trace)

    @pytest.mark.parametrize("m", [2, 40])
    def test_a_zero_trace_divides_by_nothing(self, m):
        # heat at T = 40, where every e^(lambda T) underflows to 0, and a
        # prior of zero variance: tr_prior = 0 on either route, and a
        # RuntimeWarning would fail the test
        for sysm in (heat(4, horizon=40.0),
                     dataclasses.replace(sk.build_wave_model(6),
                                         prior_var=np.zeros(6))):
            assert _uniform_traces(sysm, [m])[0] == 0.0


def _counting_observe(monkeypatch, module):
    """Count the ``_observe`` calls ``module`` makes; returns the list of row counts."""
    real, calls = filter_core._observe, []

    def counting(post, rows, energy):
        calls.append(rows.shape[0])
        return real(post, rows, energy)

    monkeypatch.setattr(module, "_observe", counting)
    return calls


class TestDyadicChain:
    """Sample-space sizes of one odd part observed as one dyadic chain."""

    @pytest.mark.parametrize("modes, sizes, chains", [
        (60, [4, 8, 16, 32], [32]), (20, [3, 4, 6, 12], [12, 4])])
    def test_one_observation_per_odd_part(self, monkeypatch, modes, sizes,
                                          chains):
        # sizes of one odd part are prefixes of the chain on the smallest:
        # 3, 6 and 12 share one factor and 4 stands alone
        calls = _counting_observe(monkeypatch, filter_core)
        _uniform_traces(heat(modes), sizes)
        assert sorted(calls) == sorted(chains)

    @pytest.mark.parametrize("model", ["heat", "wave", "two-output-heat"])
    def test_each_member_is_the_size_alone(self, model, two_output_heat):
        # a lone size is a chain of one, with the rows of its own samples
        sysm = _oracle_model(model, 60, 1.0, two_output_heat)
        sizes = [3, 4, 6, 8, 12, 16] if sysm.num_outputs == 2 else [
            3, 4, 6, 8, 12, 16, 24, 32]
        chained = _uniform_traces(sysm, sizes)
        for m, got in zip(sizes, chained):
            alone = _uniform_traces(sysm, [m])[0]
            assert alone == _sample_space_trace(sysm, m)[0]
            assert _rel(got, alone) <= 1e-14, m

    def test_a_member_below_the_floor_takes_the_closed_form(self, spy):
        # high signal-to-noise heat: on the chain 2, 4, 8 the trace of 2
        # stays above the floor and is kept, those of 4 and 8 cancel below
        # it and condition the closed form, as each size alone does
        sysm = sk.build_heat_model(20, horizon=1.0, r_scalar=1.5e-3)
        gains, prior = _sample_space_chain(sysm, 2, 8)
        floor = filter_core._SAMPLE_SPACE_FLOOR * prior
        assert prior - gains[:2].sum() >= floor
        assert prior - gains[:4].sum() < floor and prior - gains.sum() < floor
        got = _uniform_traces(sysm, [2, 4, 8])
        assert len(spy) == 1 and spy[0].shape[0] == 2
        assert got[0] == prior - float(gains[:2].sum())
        assert got[1] == _closed_form_trace(sysm, 4)
        assert got[2] == _closed_form_trace(sysm, 8)

    @pytest.mark.parametrize("base_n", [1, 3, 4, 5])
    @pytest.mark.parametrize("model", ["heat", "wave", "two-output-heat",
                                       "mixed"])
    def test_the_base_grid_rows_are_its_information_rows(self, model, base_n,
                                                         two_output_heat):
        # positions 0..base_n-1 of the chain observe the base grid's
        # samples bit for bit, whether a block ends on the grid's last
        # sample or runs on into the midpoints; every block size gives the
        # same rows
        sysm = _oracle_model(model, 10, 1.0, two_output_heat)
        horizon, top = sysm.horizon, base_n * 8
        want = _information_rows(sysm, (np.arange(base_n) * horizon) / base_n,
                                 np.array([horizon / base_n]),
                                 np.zeros(base_n, dtype=int))
        whole, = _dyadic_rows(sysm, base_n, 0, top, top)
        assert whole[:base_n].tobytes() == want.tobytes()
        for block in (1, 2, 3, base_n, base_n + 1):
            rows = np.concatenate(list(_dyadic_rows(sysm, base_n, 0, top,
                                                    block)))
            assert rows.tobytes() == whole.tobytes(), block

    def test_a_chain_past_the_base_grid_takes_no_phi1(self, monkeypatch):
        # only the base grid's row needs phi1; the midpoints take a_l
        monkeypatch.setattr(filter_core, "phi1", _refuse)
        rows = list(_dyadic_rows(heat(6), 4, 4, 32, 5))
        assert sum(block.shape[0] for block in rows) == 28

    @pytest.mark.parametrize("model", ["heat", "wave", "two-output-heat"])
    def test_level_gains_are_the_telescope_level_sums(self, model,
                                                      two_output_heat):
        # two starting routes, one row builder: the chain from the prior in
        # sample space, and the telescope from the base grid's posterior
        sysm = _oracle_model(model, 10, 1.0, two_output_heat)
        levels = 4
        gains, _ = _sample_space_chain(sysm, 4, 4 * 2 ** levels)
        report = sk.telescope_check(sysm, 4, levels)
        for level, want in enumerate(report.level_sums, start=1):
            got = gains[4 * 2 ** (level - 1):4 * 2 ** level].sum()
            assert _rel(got, want) <= 1e-12, level


_BLOCKED_MODELS = [pytest.param(model, modes, id=f"{model}-N{modes}")
                   for model, modes in (("heat", 10), ("wave", 10),
                                        ("two-output-heat", 6))]


class TestBlockedDowndate:
    """One Cholesky downdate per block of points against one point at a time."""

    @staticmethod
    def _carried(sysm, levels, block, monkeypatch):
        monkeypatch.setattr(filter_core, "_ROW_BLOCK", block)
        _, _, gains, post = _telescope(sysm, 4, 4 * 2 ** levels)
        return gains, post

    @pytest.mark.parametrize("model, modes", _BLOCKED_MODELS)
    def test_the_block_size_moves_only_the_rounding(self, model, modes,
                                                    monkeypatch, two_output_heat):
        # 5 levels insert 124 points: four blocks of 32 (the last of 28), or
        # 41 of 3 and one of 1; blocks of 5 over 4 levels span level ends
        sysm = _oracle_model(model, modes, 1.0, two_output_heat)
        for levels, blocks in ((5, (3, filter_core._ROW_BLOCK)), (4, (5,))):
            want, want_post = self._carried(sysm, levels, 1, monkeypatch)
            for block in blocks:
                gains, post = self._carried(sysm, levels, block, monkeypatch)
                assert np.max(np.abs(gains - want) / want) <= 1e-13, block
                assert rel_frobenius(post, want_post) <= 1e-13, block

    @pytest.mark.parametrize("model, modes", _BLOCKED_MODELS)
    def test_a_level_of_several_blocks_matches_the_oracle(self, model, modes,
                                                          two_output_heat):
        # the complex modal insertion, one point at a time, is the oracle;
        # a two-output model checks that R lands on each point's r x r block
        sysm = _oracle_model(model, modes, 1.0, two_output_heat)
        levels = 5
        assert 4 * 2 ** (levels - 1) > filter_core._ROW_BLOCK
        decay = np.exp(sysm.eigenvalues * sysm.horizon)
        per_level = _level_gains(_telescope(sysm, 4, 4 * 2 ** levels)[2], 4,
                                 levels)
        oracle = _complex_condition_oracle(
            sysm, _summed_information(sysm, sk.dyadic_grid(4, 0)))
        for level, gains in enumerate(per_level, start=1):
            h, phis = _new_points(sysm, 4, level)
            for got, phi in zip(gains, phis):
                want, oracle = _modal_insert(oracle, sysm.output_coeffs.T * phi,
                                             h, sysm.r_cov, decay)
                assert _rel(got, want) <= 1e-13, level

    def test_blocks_run_across_levels(self, monkeypatch):
        # 60 new points over 4 levels of base 4: two blocks, not four
        calls = _counting_observe(monkeypatch, filter_core)
        report = sk.telescope_check(heat(10), 4, 4)
        assert calls == [filter_core._ROW_BLOCK, 60 - filter_core._ROW_BLOCK]
        assert [arr.size for arr in report.increments] == [
            4 * 2 ** (level - 1) for level in range(1, 5)]

    @pytest.mark.parametrize("build", [sk.build_heat_model, sk.build_wave_model])
    def test_high_snr_keeps_the_telescope_identity(self, build):
        sysm = build(10, horizon=1.0, r_scalar=1e-8)
        assert sk.telescope_check(sysm, 4, 6).residual <= 1e-12

    @pytest.mark.parametrize("model, modes", _BLOCKED_MODELS)
    def test_increment_variance_matches_the_oracle(self, model, modes,
                                                   two_output_heat):
        # a block of one point on a base of eight, at every new point of
        # the next level
        sysm = _oracle_model(model, modes, 1.0, two_output_heat)
        decay = np.exp(sysm.eigenvalues * sysm.horizon)
        base = sk.dyadic_grid(4, 1)
        oracle = _complex_condition_oracle(sysm, _summed_information(sysm, base))
        h, phis = _new_points(sysm, 4, 2)
        for t, phi in zip(sk.dyadic_grid(4, 2)[::2], phis):
            want = _modal_insert(oracle, sysm.output_coeffs.T * phi, h,
                                 sysm.r_cov, decay)[0]
            assert _rel(sk.increment_variance(sysm, base, t, h), want) <= 1e-13


_OBSERVATION_MODELS = [pytest.param(model, modes, id=f"{model}-N{modes}")
                       for model in ("heat", "wave", "two-output-heat")
                       for modes in (10, 20)]
_OBSERVATION_MODELS.append(pytest.param("mixed", 5, id="mixed-N5"))


class TestObservationForm:
    """``_observe``, the one observation-space update, against the N x N route."""

    @staticmethod
    def _sample_rows(system, times):
        starts = np.concatenate([[0.0], times[:-1]])
        return _information_rows(system, starts,
                                 *np.unique(times - starts, return_inverse=True))

    @pytest.mark.parametrize("model, modes", _OBSERVATION_MODELS)
    def test_irregular_samples_match_the_conditioning(self, model, modes,
                                                      two_output_heat):
        # the sample space's form on any grid, not only on a uniform one
        sysm = _oracle_model(model, modes, 1.0, two_output_heat)
        scale = _prior_scale(sysm)
        energy = _energy(sysm) * scale ** 2
        for points in (1, 3, 7, 16):
            times = _irregular_times(points, seed=points)
            gains, _ = _observe(None, self._sample_rows(sysm, times) * scale,
                                energy)
            want = _trace(sysm, _condition(
                sysm, _accumulated_information(sysm, times))[None])[0]
            assert _rel(energy.sum() - gains.sum(), want) <= 1e-13, points

    @pytest.mark.parametrize("model, modes", _OBSERVATION_MODELS)
    def test_a_dense_prior_matches_the_identity(self, model, modes,
                                                two_output_heat):
        # diag(R^2) on unscaled rows is the identity on rows R, weights R^2
        sysm = _oracle_model(model, modes, 1.0, two_output_heat)
        scale, energy = _prior_scale(sysm), _energy(sysm)
        rows = self._sample_rows(sysm, _irregular_times(5, seed=3))
        dense, _ = _observe(np.diag(scale ** 2), rows, energy)
        identity, _ = _observe(None, rows * scale, energy * scale ** 2)
        assert np.max(np.abs(dense - identity) / identity) <= 1e-14

    @pytest.mark.parametrize("points", [3, 4, 8])
    def test_a_block_carries_one_point_at_a_time(self, points,
                                                 two_output_heat):
        # r = 2: each point's gain is taken after the points before it
        sysm = two_output_heat(10)
        energy = _energy(sysm)
        factor = _condition(sysm, _uniform_information(sysm, [4])[0])
        base = factor.T @ factor
        h, phis = _new_points(sysm, 4, 4)
        rows = _white_rows(sysm, phis[:points] / np.sqrt(h / 2.0))
        assert rows.shape == (points, 2, 10)
        block, half = _observe(base, rows, energy)
        post = base
        for j in range(points):
            gain, one = _observe(post, rows[j:j + 1], energy)
            post = post - one.T @ one
            assert _rel(block[j], gain[0]) <= 1e-13, j
        assert rel_frobenius(base - half.T @ half, post) <= 1e-13


def _random_lower(n, dtype):
    """The Cholesky factor of a random well-conditioned (n, n) matrix."""
    rng = np.random.default_rng(n)
    mix = rng.standard_normal((n, n)).astype(dtype)
    if dtype is complex:
        mix += 1j * rng.standard_normal((n, n))
    return np.linalg.cholesky(np.eye(n) + mix @ mix.conj().T / n)


def _refuse(*args, **kwargs):
    raise AssertionError("this route must not run")


def _one_ulp_off():
    times = sk.dyadic_grid(16, 0, 1.0).copy()
    times[7] = np.nextafter(times[7], 2.0)
    return times


class TestDoublingRoute:
    @pytest.mark.parametrize("horizon", [0.7, 1.0, 3.0])
    @pytest.mark.parametrize("base_n, level", [
        (1, 0), (3, 0), (5, 2), (7, 4), (4, 6), (32, 7), (1, 13)])
    def test_uniform_grids_are_doubled(self, monkeypatch, base_n, level,
                                       horizon):
        sysm = heat(4, q_scalar=0.5, horizon=horizon)
        # from the grid size alone: neither the recursion nor a grid runs
        monkeypatch.setattr(filter_core, "sequential_filter", _refuse)
        monkeypatch.setattr(sk.refinement, "dyadic_grid", _refuse)
        assert _uniform_traces(sysm, [base_n * 2 ** level])[0] > 0

    @pytest.mark.parametrize("q_scalar", [0.0, 0.5], ids=["undriven", "driven"])
    def test_bad_times_raise_as_before(self, q_scalar):
        sysm = heat(3, q_scalar=q_scalar)
        trace = sk.sequential_filter if q_scalar else sk.information_filter
        for times in ([0.0, 0.5], [0.5, 1.5], [0.5, np.nan], [np.nan]):
            with pytest.raises(ValueError, match=r"lie in \(0, horizon\]"):
                trace(sysm, times)
        with pytest.raises(ValueError, match="strictly increasing"):
            trace(sysm, [0.5, 0.5, 1.0])

    @pytest.mark.parametrize("route", [
        sk.sequential_filter, sk.batch_condition, sk.information_filter,
        lambda sysm, times: sk.empirical_error(sysm, times, trials=4, seed=1),
        lambda sysm, times: sk.sample_path(sysm, times, seed=1),
        lambda sysm, times: sk.increment_variance(sysm, times, 0.25, 0.25),
    ], ids=["sequential", "batch", "information", "montecarlo", "path",
            "increment"])
    def test_nan_times_are_refused_on_every_route(self, route):
        with pytest.raises(ValueError, match=r"lie in \(0, horizon\]"):
            route(heat(3), [0.5, 1.0, np.nan])


class TestInformationRoute:
    @pytest.mark.parametrize("horizon", [0.7, 1.0, 3.0])
    @pytest.mark.parametrize("base_n, level", [
        (1, 0), (3, 0), (5, 2), (7, 4), (4, 6), (32, 7), (1, 13)])
    def test_uniform_grids_take_the_closed_form(self, monkeypatch, base_n,
                                                level, horizon):
        # a uniform grid is known by its size, which never sums over
        # samples: sizes 1 and 3 of four modes (m r <= 3N/4) take the sample
        # space, the others the closed form
        sysm = heat(4, horizon=horizon)
        m = base_n * 2 ** level
        monkeypatch.setattr(filter_core, "_accumulated_information", _refuse)
        monkeypatch.setattr(filter_core, "_uniform_information" if m <= 3
                            else "_sample_space_chain", _refuse)
        assert _uniform_traces(sysm, [m])[0] > 0

    @pytest.mark.parametrize("which", [
        "irregular", "stops-before-T", "one-ulp-off", "empty", "uniform"])
    def test_other_grids_take_the_accumulation(self, monkeypatch, which):
        # times handed in are summed, an exactly uniform array included; only
        # a grid size takes the closed form
        sysm = heat(4)
        times = {"irregular": lambda: _irregular_times(16, seed=2),
                 "stops-before-T": lambda: sk.dyadic_grid(16, 0, 1.0)[:-1],
                 "uniform": lambda: sk.dyadic_grid(16, 0, 1.0),
                 "one-ulp-off": _one_ulp_off,
                 "empty": lambda: np.array([])}[which]()
        want = sk.sequential_filter(sysm, times).trace_err
        monkeypatch.setattr(filter_core, "_uniform_information", _refuse)
        npt.assert_allclose(sk.information_filter(sysm, times).trace_err, want,
                            rtol=1e-12)


def _closed_form_model(family, modes):
    if family == "heat":
        return sk.build_heat_model(modes, 1.0)
    if family == "wave":
        return sk.build_wave_model(modes, horizon=1.0)
    return sk.build_wave_model(modes, domain_length=3.0, horizon=0.7)


class TestClosedFormInformation:
    """J_rho on the uniform grid: the closed form and the sum over samples.

    Both are built in real coordinates, J_rho = A* J A.  Each is held on its
    own to the oracle: the modal J of the per-sample definition, taken there
    with the dense A.
    """

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 64, 1000, 2 ** 13])
    @pytest.mark.parametrize("modes", [10, 60])
    @pytest.mark.parametrize("family", ["heat", "wave", "wave-L3-T0.7"])
    def test_matches_the_accumulation(self, family, modes, n):
        # wave modes +/- i pi k / L alias to x = 2 pi i j at n <= modes / 2
        # (L = 3, T = 0.7: at n = 7, k = 30)
        sysm = _closed_form_model(family, modes)
        closed = _uniform_information(sysm, [n])[0]
        assert closed.dtype == np.float64 and np.all(np.isfinite(closed))
        times = sk.dyadic_grid(n, 0, sysm.horizon)
        summed = _accumulated_information(sysm, times)
        assert summed.dtype == np.float64
        want = _real_oracle(sysm, _summed_information(sysm, times))
        assert rel_frobenius(closed, want) <= 1e-12
        assert rel_frobenius(summed, want) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 64, 1000, 2 ** 13])
    def test_mixed_pairing_matches_the_accumulation(self, n):
        # a self-conjugate mode between two pairs, the undamped one aliased
        # at n = 1, 2, 4
        sysm = _mixed_model()
        closed = _uniform_information(sysm, [n])[0]
        assert closed.dtype == np.float64
        times = sk.dyadic_grid(n, 0, 1.0)
        summed = _accumulated_information(sysm, times)
        assert summed.dtype == np.float64
        want = _real_oracle(sysm, _summed_information(sysm, times))
        assert rel_frobenius(closed, want) <= 1e-12
        assert rel_frobenius(summed, want) <= 1e-12

    @pytest.mark.parametrize("family", ["heat", "wave"])
    def test_keeps_its_digits_near_x_zero(self, family):
        # at n = 2**18 every |x| is small; e^x - 1 taken as exp(x) - 1 there
        # drifts by 7e-14 (heat) and 1.8e-12 (wave) from the accumulation
        build = sk.build_heat_model if family == "heat" else sk.build_wave_model
        sysm = build(10, horizon=1.0)
        n = 2 ** 18
        summed = _accumulated_information(sysm, sk.dyadic_grid(n, 0, 1.0))
        assert rel_frobenius(_uniform_information(sysm, [n])[0], summed) <= 5e-14

    @pytest.mark.parametrize("n", [1, 3, 4, 64, 1000])
    def test_keeps_the_conjugate_mate_structure(self, n):
        # J[mate k, mate l] = conj(J[k, l]) makes J_rho = A* J A real: the
        # closed form is float64 and symmetric
        sysm = sk.build_wave_model(12, horizon=1.0)
        closed = _uniform_information(sysm, [n])[0]
        assert closed.dtype == np.float64
        npt.assert_array_equal(closed, closed.T)


def _geometric_model(family, modes):
    if family == "mixed":
        return _mixed_model()
    return _closed_form_model(family, modes)


def _geometric_oracle(system, count):
    """S[k, l] = (e^(count x) - 1) / (e^x - 1) over every row, at 40 digits.

    x = (conj(lambda_k) + lambda_l) T / count is formed from the float
    eigenvalues in mpmath and never reduced, so aliased entries are summed
    as they stand.
    """
    lam = [mpmath.mpc(value) for value in system.eigenvalues]
    out = np.empty((len(lam), len(lam)), complex)
    with mpmath.workdps(40):
        d = mpmath.mpf(system.horizon) / count
        for k, row in enumerate(lam):
            for l, col in enumerate(lam):
                x = (mpmath.conj(row) + col) * d
                out[k, l] = complex(count if x == 0 else
                                    mpmath.expm1(count * x) / mpmath.expm1(x))
    return out


_GEOMETRIC_FAMILIES = ["heat", "wave", "wave-L3-T0.7", "mixed"]


class TestGeometricSum:
    """S = sum_(j<count) e^(j x), the geometric sum of every closed form."""

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 8, 64, 4096, 2 ** 20,
                                       2 ** 40])
    @pytest.mark.parametrize("family", _GEOMETRIC_FAMILIES)
    def test_matches_mpmath(self, family, count):
        # wave modes alias to x = 2 pi i j at the small counts, and the
        # mixed model's undamped pair at 1, 2 and 4
        sysm = _geometric_model(family, 20)
        want = _geometric_oracle(sysm, count)
        got = _geometric_sum(sysm, sysm.eigenvalues, [count])[0]
        assert np.all(np.isfinite(got))
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("family", ["wave", "wave-L3-T0.7", "heat"])
    def test_a_stack_matches_mpmath(self, family):
        # wave at N = 60 aliases at 3, 5 and 7; a numerator shared across
        # counts would give S = 0 for the entries 5 reduces to +-1.8e-15i
        sysm = _geometric_model(family, 60)
        counts = [3, 5, 7, 4096]
        got = _geometric_sum(sysm, sysm.eigenvalues, counts)
        assert got.shape == (4, 60, 60)
        for count, stacked in zip(counts, got):
            want = _geometric_oracle(sysm, count)
            assert np.abs(stacked - want).max() <= 1e-14 * np.abs(want).max()
            npt.assert_array_equal(
                stacked, _geometric_sum(sysm, sysm.eigenvalues, [count])[0])

    @pytest.mark.parametrize("counts", [[64, 4096, 8192, 2 ** 40],
                                        [3, 6, 12, 3 * 2 ** 30],
                                        [4, 8, 16, 32, 64]])
    @pytest.mark.parametrize("family", _GEOMETRIC_FAMILIES)
    def test_counts_of_one_odd_part_share_their_bits(self, family, counts):
        sysm = _geometric_model(family, 60)
        rows = sysm.eigenvalues[::3]
        for count, stacked in zip(counts, _geometric_sum(sysm, rows, counts)):
            npt.assert_array_equal(stacked,
                                   _geometric_sum(sysm, rows, [count])[0])

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 64, 4096, 2 ** 40])
    @pytest.mark.parametrize("family", _GEOMETRIC_FAMILIES)
    def test_rows_are_independent_of_the_row_set(self, family, count):
        # level_sum passes every row, _uniform_information one per pair
        sysm = _geometric_model(family, 60)
        lam, pairs = sysm.eigenvalues, sysm._pair_index
        whole = _geometric_sum(sysm, lam, [count])[0]
        rng = np.random.default_rng(count)
        for rows in (np.concatenate([pairs.first, pairs.single]),
                     rng.permutation(lam.size)[:lam.size // 3 + 1]):
            npt.assert_array_equal(_geometric_sum(sysm, lam[rows], [count])[0],
                                   whole[rows])

    @pytest.mark.parametrize("family", ["heat", "wave", "wave-L3-T0.7",
                                        "heat-R0.3"])
    def test_reaches_the_continuous_data_limit(self, family):
        # as m grows, J_m tends to A* (G / R) A with G the observability
        # gramian; at m = 2**40 the gap is O((lambda T / m)^2)
        if family == "heat-R0.3":
            sysm = sk.build_heat_model(60, 1.0, r_scalar=0.3)
        else:
            sysm = _closed_form_model(family, 60)
        pairs = sysm._pair_index
        gram = sk.observability_gram(sysm) / sysm.r_cov[0, 0]
        want = (_real_covariance(gram[None], pairs)[0]
                * np.outer(pairs.weights, pairs.weights))
        got = _uniform_information(sysm, [2 ** 40])[0]
        assert np.abs(got - want).max() <= 2e-15 * np.abs(want).max()


_GRIDS = st.lists(st.integers(1, 999), min_size=1, max_size=16, unique=True)


def _routes(sysm, times):
    runs = [sk.sequential_filter(sysm, times), sk.batch_condition(sysm, times)]
    if not sysm.has_input_noise:
        runs.append(sk.information_filter(sysm, times))
    return runs


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.records = []

    def emit(self, record):
        self.records.append(record)


class TestRouteProperties:
    @settings(max_examples=60, deadline=None)
    @given(grid=_GRIDS, family=st.sampled_from(["heat", "wave", "driven"]))
    def test_routes_agree_on_irregular_grids(self, grid, family):
        sysm = {"heat": lambda: heat(6), "wave": lambda: sk.build_wave_model(6),
                "driven": lambda: heat(4, q_scalar=0.5)}[family]()
        times = np.array(sorted(grid)) / 1000.0
        first, *others = _routes(sysm, times)
        for run in others:
            assert rel_frobenius(run.final_cov, first.final_cov) <= 1e-10
            npt.assert_allclose(run.trace_err, first.trace_err, rtol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(grid=_GRIDS, pairs=st.integers(1, 6),
           uniform=st.one_of(st.just(0), st.integers(1, 40)))
    def test_paired_models_keep_real_traces(self, grid, pairs, uniform):
        # uniform > 0 takes that many uniform points, whose size route runs
        # the closed-form information matrix, aliased wave pairs included; 0
        # takes the irregular grid
        sysm = sk.build_wave_model(2 * pairs)
        times = (sk.dyadic_grid(uniform, 0, sysm.horizon) if uniform
                 else np.array(sorted(grid)) / 1000.0)
        records = _Records()
        logger = logging.getLogger("sampledkf.filter_core")
        logger.addHandler(records)
        try:
            runs = _routes(sysm, times)
        finally:
            logger.removeHandler(records)
        assert not records.records
        covs = [run.final_cov for run in runs]
        if uniform:
            decay = np.exp(sysm.eigenvalues * sysm.horizon)
            covs.append(_modal_posterior(
                sysm, _condition(sysm, _uniform_information(sysm, [uniform])[0]),
                decay))
        mate = np.ix_(sysm.pairing, sysm.pairing)
        for cov in covs:
            trace = complex(np.trace(cov))
            assert abs(trace.imag) <= 1e-12 * max(1.0, abs(trace))
            # the posterior is the law of a real field: swapping every mode
            # with its conjugate mate conjugates the covariance
            npt.assert_allclose(cov[mate], cov.conj(),
                                rtol=0, atol=1e-12 * np.abs(cov).max())


def _complex_filter_plan(system, times):
    """The complex recursion the model-dtype route replaced: the oracle.

    Every model's transitions in complex128, as ``kernels._transitions``
    gives them, and G*, e e* and S formed again at every step.
    """
    n, r = system.num_modes, system.num_outputs
    cov = np.diag(system.prior_var.astype(complex))
    widths = np.diff(times, prepend=0.0)
    span = system.horizon - (times[-1] if times.size else 0.0)
    has_tail = span > 1e-12 * system.horizon
    distinct, which = np.unique(np.append(widths, span) if has_tail else widths,
                                return_inverse=True)
    tail = int(which[-1]) if has_tail else None
    stack = filter_core._transitions(system, distinct)
    gains = np.empty((widths.size, n, r), dtype=complex)
    for i, (delta, j) in enumerate(zip(widths, which)):
        e, g, sig = stack.decay[j], stack.output_map[j], stack.noise_cov[j]
        pg = cov @ g.conj().T
        pzy = e[:, None] * pg + sig[:n, n:]
        s = g @ pg + sig[n:, n:] + system.r_cov * delta
        gains[i] = np.linalg.solve(s, pzy.conj().T).conj().T
        cov = filter_core._hermitize(cov * np.outer(e, e.conj()) + sig[:n, :n]
                                     - gains[i] @ pzy.conj().T)
    if tail is not None:
        e = stack.decay[tail]
        cov = filter_core._hermitize(cov * np.outer(e, e.conj())
                                     + stack.noise_cov[tail, :n, :n])
    run = sk.FilterRun(grid=times, final_cov=cov,
                       trace_err=float(np.trace(cov).real))
    return run, stack, which[:widths.size], gains, tail


def _complex_backward_maps(system, plan):
    """The complex backward pass the model-dtype route replaced: the oracle."""
    _, stack, index, gains, tail = plan
    back = np.diag(stack.decay[tail] if tail is not None
                   else np.ones(system.num_modes, dtype=complex))
    for i in range(index.size, 0, -1):
        j = index[i - 1]
        lmap = back @ gains[i - 1]
        yield i, back, lmap
        back = back * stack.decay[j] - lmap @ stack.output_map[j]
    yield 0, back, None


def _max_rel(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


_DTYPE_MODELS = {
    "driven-heat-N20": (lambda _: heat(20, q_scalar=0.5), 32),
    "driven-heat-N60": (lambda _: heat(60, q_scalar=0.5), 128),
    "two-output-heat": (lambda make: make(10, 0.5), 24),
    "two-output-heat-undriven": (lambda make: make(10), 24),
    "driven-wave": (lambda _: _driven_wave(), 24),
}


def _dtype_case(case, end, two_output_heat):
    """A model of ``_DTYPE_MODELS`` and its seeded irregular grid ending at ``end``."""
    make, points = _DTYPE_MODELS[case]
    return make(two_output_heat), _irregular_times(points, 3) * end


class TestModelDtype:
    """The driven routes run in float64 on a model without pairs.

    Held to the complex recursion and backward pass they replaced, on grids
    that end at the horizon and before it.
    """

    @pytest.mark.parametrize("end", [1.0, 0.85], ids=["at-T", "tail"])
    @pytest.mark.parametrize("case", _DTYPE_MODELS)
    def test_recursion_matches_the_complex_oracle(self, case, end,
                                                  two_output_heat):
        sysm, times = _dtype_case(case, end, two_output_heat)
        run, stack, index, gains, tail = filter_core._filter_plan(sysm, times)
        want = _complex_filter_plan(sysm, times)
        paired = case == "driven-wave"
        assert sysm._pair_index.identity != paired
        assert stack.decay.dtype == gains.dtype == (complex if paired
                                                    else np.float64)
        assert run.final_cov.dtype == complex
        npt.assert_array_equal(index, want[2])
        assert tail == want[4] and (tail is None) == (end == 1.0)
        assert _max_rel(gains, want[3]) <= 1e-14
        assert _max_rel(run.final_cov, want[0].final_cov) <= 1e-14
        assert _rel(run.trace_err, want[0].trace_err) <= 1e-14

    @pytest.mark.parametrize("end", [1.0, 0.85], ids=["at-T", "tail"])
    @pytest.mark.parametrize("case", _DTYPE_MODELS)
    def test_error_map_matches_the_complex_oracle(self, case, end, monkeypatch,
                                                  two_output_heat):
        sysm, times = _dtype_case(case, end, two_output_heat)
        emap = montecarlo._Simulator(sysm, times).error_map()
        monkeypatch.setattr(montecarlo, "_filter_plan", _complex_filter_plan)
        monkeypatch.setattr(montecarlo, "_backward_maps",
                            _complex_backward_maps)
        want = montecarlo._Simulator(sysm, times).error_map()
        assert want.dtype == complex
        assert emap.dtype == (complex if case == "driven-wave" else np.float64)
        assert emap.shape == want.shape
        assert _max_rel(emap, want) <= 1e-14

    def test_public_results_stay_complex(self):
        sysm = heat(6, q_scalar=0.5)
        state, outputs = sk.sample_path(sysm, TAIL_TIMES, seed=2)
        assert state.dtype == complex and outputs.dtype == np.float64
        run = sk.sequential_filter(sysm, TAIL_TIMES, observations=outputs)
        assert run.final_cov.dtype == run.final_mean.dtype == complex
        assert sk.transition_block(sysm, 0.25).noise_cov.dtype == complex


def _regression_mean(sysm, times, ys):
    """E[z(T) | y(t_1), ..., y(t_m)], zero prior mean, on the batch oracle's gram."""
    gram, cross = _output_gram(sysm, times)
    return cross @ np.linalg.solve(gram, ys.reshape(-1).astype(complex))


class TestMeanRoute:
    def test_filtered_mean_matches_regression_oracle(self, two_output_heat):
        for sysm in (heat(3), heat(3, q_scalar=0.5),
                     sk.build_wave_model(4, horizon=1.0), two_output_heat(4),
                     two_output_heat(4, q_scalar=0.5)):
            for times in (FIVE_TIMES, TAIL_TIMES):
                _, ys = sk.sample_path(sysm, times, seed=11)
                run = sk.sequential_filter(sysm, times, observations=ys)
                npt.assert_allclose(run.final_mean,
                                    _regression_mean(sysm, times, ys),
                                    rtol=1e-9, atol=1e-12,
                                    err_msg=f"{sysm.label} on {times}")

    def test_mean_requires_matching_shape(self):
        sysm = heat(3)
        with pytest.raises(ValueError, match="observations must have shape"):
            sk.sequential_filter(sysm, FIVE_TIMES, observations=np.zeros((3, 1)))

    def test_zero_observations_keep_zero_mean(self):
        sysm = heat(3)
        run = sk.sequential_filter(sysm, FIVE_TIMES,
                                   observations=np.zeros((5, 1)))
        npt.assert_array_equal(run.final_mean, np.zeros(3))


class TestPosteriorProperties:
    def test_final_cov_is_psd_with_nonnegative_trace(self):
        sysm = heat(5, q_scalar=0.2)
        run = sk.sequential_filter(sysm, FIVE_TIMES)
        eigs = np.linalg.eigvalsh(run.final_cov)
        assert eigs.min() >= -1e-13 * eigs.max()
        assert run.trace_err >= 0

    def test_more_samples_never_hurt(self):
        sysm = heat(6)
        traces = [sk.sequential_filter(sysm, sk.dyadic_grid(2, lvl, 1.0)).trace_err
                  for lvl in range(4)]
        assert all(a >= b - 1e-13 for a, b in zip(traces, traces[1:]))

    def test_huge_measurement_noise_recovers_prior(self):
        noisy = heat(3, r_scalar=1e12)
        run = sk.sequential_filter(noisy, FIVE_TIMES)
        n = noisy.num_modes
        prior = sk.augmented_covariance(noisy, noisy.horizon)[:n, :n]
        npt.assert_allclose(run.trace_err, np.trace(prior).real, rtol=1e-6)

    def test_time_validation(self):
        sysm = heat(3)
        with pytest.raises(ValueError, match=r"lie in \(0, horizon\]"):
            sk.sequential_filter(sysm, [0.0, 0.5])
        with pytest.raises(ValueError, match=r"lie in \(0, horizon\]"):
            sk.sequential_filter(sysm, [0.5, 1.5])
        with pytest.raises(ValueError, match="strictly increasing"):
            sk.sequential_filter(sysm, [0.5, 0.5, 0.9])


class TestIncrementVariance:
    def test_matches_trace_difference(self):
        sysm = heat(2)
        base = [0.5, 1.0]
        for t, h in [(0.25, 0.25), (0.75, 0.25)]:
            refined = np.sort(np.append(base, t))
            drop = (sk.sequential_filter(sysm, base).trace_err
                    - sk.sequential_filter(sysm, refined).trace_err)
            inc = sk.increment_variance(sysm, base, t, h)
            npt.assert_allclose(inc, drop, rtol=1e-6)

    def test_next_level_insertions_too(self):
        sysm = heat(2)
        base = np.array([0.25, 0.5, 0.75, 1.0])
        for t in (0.125, 0.375, 0.625, 0.875):
            refined = np.sort(np.append(base, t))
            drop = (sk.sequential_filter(sysm, base).trace_err
                    - sk.sequential_filter(sysm, refined).trace_err)
            inc = sk.increment_variance(sysm, base, t, 0.125)
            npt.assert_allclose(inc, drop, rtol=1e-6)

    def test_rejects_driven_systems(self):
        with pytest.raises(ValueError, match="needs an undriven system"):
            sk.increment_variance(heat(2, q_scalar=0.5), [0.5, 1.0], 0.75, 0.25)

    def test_stencil_validation(self):
        sysm = heat(2)
        with pytest.raises(ValueError, match="insertion stencil"):
            sk.increment_variance(sysm, [0.5, 1.0], 0.95, 0.25)
        with pytest.raises(ValueError, match="already belongs"):
            sk.increment_variance(sysm, [0.5, 1.0], 0.5, 0.25)
        with pytest.raises(ValueError, match="must contain"):
            sk.increment_variance(sysm, [1.0], 0.75, 0.25)
        with pytest.raises(ValueError, match="intrudes"):
            sk.increment_variance(sysm, [0.4, 0.5, 0.9], 0.65, 0.25)

    @pytest.mark.parametrize("new_time, h", [
        (0.125, 0.125 * (1 + 1e-14)), (0.125 * (1 - 1e-14), 0.125)])
    def test_a_stencil_past_the_origin_is_refused(self, new_time, h):
        # new_time - h < 0 by rounding: refused here, never inside phi_h
        sysm = sk.build_heat_model(6, 1.0)
        with pytest.raises(ValueError, match=r"insertion stencil.*new_time="
                           rf"{new_time!r}, h={h!r}"):
            sk.increment_variance(sysm, sk.dyadic_grid(4, 0), new_time, h)


class TestGramSolve:
    def test_jitter_retry_recovers_semidefinite_gram(self, caplog):
        gram = np.array([[1.0, 1.0], [1.0, 1.0]])
        rhs = np.array([1.0, 1.0])  # in the range of the singular gram
        with caplog.at_level(logging.WARNING, logger="sampledkf.filter_core"):
            x = _solve_gram(gram, rhs)
        assert "retrying with jitter" in caplog.text
        npt.assert_allclose(gram @ x, rhs, atol=1e-3)

    def test_hopeless_gram_raises(self):
        with pytest.raises(GramSingularError, match="observation gram matrix"):
            _solve_gram(np.zeros((2, 2)), np.ones(2))
