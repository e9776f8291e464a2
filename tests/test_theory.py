"""Output-energy constants, the five discrepancy bounds, and rate fits."""

import logging
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import quad

import sampledkf as sk


def heat(n=6, **kw):
    kw.setdefault("horizon", 1.0)
    return sk.build_heat_model(n, **kw)


def wave(n=6, **kw):
    kw.setdefault("horizon", 1.0)
    return sk.build_wave_model(n, **kw)


def zero_mode():
    return sk.ModalSystem(
        eigenvalues=np.array([0.0 + 0.0j]),
        output_coeffs=np.array([[1.0 + 0.0j]]),
        input_coeffs=np.zeros((1, 1), complex),
        prior_mean=np.zeros(1, complex),
        prior_var=np.array([1.0]),
        q_cov=np.zeros((1, 1)),
        r_cov=np.array([[1.0]]),
        horizon=1.0,
        pairing=np.array([0]),
        label="zero",
    )


class TestOutputEnergy:
    def test_zero_mode_has_sqrt_t(self):
        # int_0^T |1 * e^{0 t} * x|^2 dt = T x^2 exactly
        sysm = zero_mode()
        assert sk.admissibility_constant(sysm) == pytest.approx(1.0, rel=1e-14)
        assert sk.admissibility_constant(sysm, 4.0) == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("make", [heat, wave], ids=["heat", "wave"])
    def test_gram_quadratic_form_matches_quadrature(self, make):
        sysm = make(4)
        gram = sk.observability_gram(sysm)
        rng = np.random.default_rng(42)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x /= np.linalg.norm(x)

        def speed(t):
            signal = sysm.output_coeffs.T @ (np.exp(sysm.eigenvalues * t) * x)
            return float(np.sum(np.abs(signal) ** 2))

        want = quad(speed, 0.0, sysm.horizon, epsabs=1e-13, epsrel=1e-12)[0]
        got = float((x.conj() @ gram @ x).real)
        npt.assert_allclose(got, want, rtol=1e-8)

    def test_gram_is_hermitian_psd(self):
        gram = sk.observability_gram(wave(6))
        npt.assert_array_equal(gram, gram.conj().T)
        assert np.linalg.eigvalsh(gram).min() >= -1e-12

    def test_monotone_in_horizon_and_truncation(self):
        assert (sk.admissibility_constant(heat(6), 0.5)
                <= sk.admissibility_constant(heat(6), 1.0)
                <= sk.admissibility_constant(heat(6), 2.0))
        assert (sk.admissibility_constant(heat(3))
                <= sk.admissibility_constant(heat(6))
                <= sk.admissibility_constant(heat(12)))

    def test_horizon_validation(self):
        with pytest.raises(ValueError, match="horizon must be positive"):
            sk.observability_gram(heat(3), 0.0)


class TestAnalyticConstant:
    def test_known_points(self):
        assert sk.analytic_constant(0.0) == 1.0
        assert sk.analytic_constant(1.0) == pytest.approx(1.0 / np.e, rel=1e-15)

    def test_matches_numeric_supremum(self):
        # for a single mode, sup_t t^k |lam|^k e^{lam t} is attained at
        # t = k / |lam| regardless of the mode
        kappa, lam = 0.75, -3.0
        t = np.linspace(1e-6, 5.0, 400001)
        numeric = np.max(t ** kappa * abs(lam) ** kappa * np.exp(lam * t))
        npt.assert_allclose(sk.analytic_constant(kappa), numeric, rtol=1e-8)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError, match="non-negative"):
            sk.analytic_constant(-0.1)


class TestBoundExponents:
    def test_rate_exponents_per_variant(self):
        h = heat()
        assert sk.theorem1_bound(wave(), 8, gamma=0.0).exponent == pytest.approx(1.0)
        assert sk.theorem1_bound(h, 8, gamma=0.5).exponent == pytest.approx(0.5)
        assert sk.theorem2_bound(h, 8).exponent == pytest.approx(0.75)
        assert sk.theorem3_bound(h, 8).exponent == 1.0
        assert sk.theorem4_bound(h, 8, nu=0.8, eta=1.0).exponent == pytest.approx(1.4)

    def test_heat_variants_order_by_strength(self):
        h = heat()
        exps = [sk.theorem1_bound(h, 8, gamma=0.5).exponent,
                sk.theorem2_bound(h, 8).exponent,
                sk.theorem3_bound(h, 8).exponent,
                sk.theorem4_bound(h, 8, nu=0.8, eta=1.0).exponent]
        assert exps == sorted(exps)

    def test_horizon_powers(self):
        h = heat()
        b2 = sk.theorem2_bound(h, 8)
        assert b2.t_power == pytest.approx(b2.exponent + 1.0)
        b4 = sk.theorem4_bound(h, 8, nu=0.8, eta=1.0)
        assert b4.t_power == pytest.approx(b4.exponent)

    def test_value_at_follows_the_power_law(self):
        b = sk.theorem2_bound(heat(), 8)
        npt.assert_allclose(b.value_at(16) / b.value_at(8), 2.0 ** -b.exponent,
                            rtol=1e-12)
        vals = b.value_at(np.array([8, 16, 32]))
        assert vals.shape == (3,)
        with pytest.raises(ValueError, match="positive sample count"):
            b.value_at(0)


class TestBoundIngredients:
    def test_theorem1_wave_tail_constants(self):
        b = sk.theorem1_bound(wave(), 8, gamma=0.0)
        # observed tail ratio equals the limit pi/2, then the 0.9 safety
        # clamp engages
        npt.assert_allclose(b.ingredients["gamma_check"], 0.9 * np.pi / 2,
                            rtol=1e-12)
        assert b.ingredients["mu"] == 1.0

    def test_theorem2_scales_inversely_with_measurement_floor(self):
        quiet = sk.theorem2_bound(heat(r_scalar=1.0), 8)
        noisy = sk.theorem2_bound(heat(r_scalar=4.0), 8)
        assert noisy.ingredients["min_eig_r"] == 4.0
        # constant carries trace_n / min_eig_r; the rest ignores R
        npt.assert_allclose(
            noisy.constant * noisy.ingredients["min_eig_r"] / noisy.coarse_trace,
            quiet.constant * quiet.ingredients["min_eig_r"] / quiet.coarse_trace,
            rtol=1e-12)

    def test_theorem3_unit_stability_margin(self):
        b = sk.theorem3_bound(heat(), 8)
        assert b.ingredients["mu"] == 1.0
        npt.assert_allclose(b.ingredients["analytic_c1"], 1.0 / np.e, rtol=1e-15)

    def test_theorem4_output_norm_uses_fractional_weights(self):
        h = heat()
        b = sk.theorem4_bound(h, 8, nu=0.8, eta=1.0)
        want = np.linalg.norm(h.output_coeffs[:, 0]
                              / np.abs(h.eigenvalues) ** 0.8)
        npt.assert_allclose(b.ingredients["output_norm"], want, rtol=1e-12)

    def test_theorem4_equal_orders_first_point(self):
        b = sk.theorem4_bound(heat(), 8, nu=0.8, eta=0.8)
        assert b.ingredients["first_point"] == pytest.approx(4.0, rel=1e-14)

    def test_theorem5_constants_linear_in_input_trace(self):
        lo = sk.theorem5_bound(heat(q_scalar=0.4), 8)
        hi = sk.theorem5_bound(heat(q_scalar=0.8), 8)
        for a, b in zip(lo.input_constants, hi.input_constants):
            npt.assert_allclose(a / (lo.ingredients["trace_q"] * lo.coarse_trace),
                                b / (hi.ingredients["trace_q"] * hi.coarse_trace),
                                rtol=1e-12)

    def test_theorem5_decomposes_into_three_terms(self):
        b = sk.theorem5_bound(heat(q_scalar=0.4), 8)
        m1, m2 = b.input_constants
        assert b.err_x.variant == 2
        for n in (8, 16, 64):
            npt.assert_allclose(b.value_at(n),
                                m1 / n + m2 / n ** 2 + b.err_x.value_at(n),
                                rtol=1e-12)

    def test_theorem5_accepts_explicit_state_bound(self):
        sysm = heat(q_scalar=0.4)
        custom = sk.theorem3_bound(sysm, 8)
        b = sk.theorem5_bound(sysm, 8, err_x=custom)
        assert b.err_x is custom

    @pytest.mark.parametrize("explicit", [False, True],
                             ids=["default-err_x", "explicit-err_x"])
    def test_theorem5_runs_the_anchor_filter_once(self, monkeypatch, explicit):
        sysm = heat(q_scalar=0.4)
        err_x = sk.theorem3_bound(sysm, 8) if explicit else None
        calls = []
        traced = sk.theory._uniform_traces

        def counting(*args, **kwargs):
            calls.append(args)
            return traced(*args, **kwargs)

        monkeypatch.setattr(sk.theory, "_uniform_traces", counting)
        b = sk.theorem5_bound(sysm, 8, err_x=err_x)
        assert len(calls) == 1 and list(calls[0][1]) == [8]
        assert b.coarse_trace == b.err_x.coarse_trace


    def test_anchors_build_no_grid(self, no_large_grids):
        # an anchor of 2**20 samples takes the point count alone
        n = 2 ** 20
        driven = heat(20, q_scalar=0.5)
        assert sk.theorem2_bound(heat(20), n).coarse_trace > 0
        bound = sk.theorem5_bound(driven, n)
        assert bound.coarse_trace == bound.err_x.coarse_trace > 0


# variant -> (system, call(system, n, **kw)): each bound at its own model
BOUND_CALLS = {
    1: (lambda: wave(8), lambda m, n, **kw: sk.theorem1_bound(m, n, 0.0, **kw)),
    2: (heat, lambda m, n, **kw: sk.theorem2_bound(m, n, **kw)),
    3: (heat, lambda m, n, **kw: sk.theorem3_bound(m, n, "bounded", **kw)),
    4: (heat, lambda m, n, **kw: sk.theorem4_bound(m, n, 0.8, 1.0, **kw)),
    5: (lambda: heat(q_scalar=0.5),
        lambda m, n, **kw: sk.theorem5_bound(m, n, **kw)),
}


class TestCoarseTrace:
    """A bound given the anchor's trace is the bound that computes it."""

    @pytest.mark.parametrize("variant", BOUND_CALLS)
    def test_given_trace_gives_the_same_bound(self, monkeypatch, variant):
        make, call = BOUND_CALLS[variant]
        sysm = make()
        computed = call(sysm, 4)
        calls = []
        monkeypatch.setattr(sk.theory, "_uniform_traces",
                            lambda *args: calls.append(args))
        given = call(sysm, 4, coarse_trace=computed.coarse_trace)
        assert not calls  # no anchor filter ran
        # field for field, ingredients and err_x included
        assert given == computed

    @pytest.mark.parametrize("bad", [np.nan, -1e-30, np.inf],
                             ids=["nan", "negative", "inf"])
    @pytest.mark.parametrize("variant", BOUND_CALLS)
    def test_a_trace_that_is_no_posterior_trace_is_refused(self, variant, bad):
        make, call = BOUND_CALLS[variant]
        with pytest.raises(ValueError, match="coarse_trace"):
            call(make(), 4, coarse_trace=bad)

    def test_the_anchor_is_still_checked(self):
        with pytest.raises(ValueError, match="got n=2.5"):
            sk.theorem2_bound(heat(), 2.5, coarse_trace=1.0)

    def test_a_curve_holds_the_anchor_trace(self):
        sysm = heat(q_scalar=0.5)
        curve = sk.discrepancy_curve(sysm, [4, 8], reference_level=3)
        assert curve.coarse_traces[0] == sk.theorem5_bound(sysm, 4).coarse_trace


class TestStateBoundOfTheInputBound:
    """``theorem5_bound`` refuses an ``err_x`` that ``check_bound`` would."""

    def test_err_x_for_another_model_is_refused(self):
        other = sk.theorem1_bound(wave(8, horizon=2.0), 16, gamma=0.0)
        with pytest.raises(ValueError, match="err_x is for 'wave"):
            sk.theorem5_bound(heat(q_scalar=0.5), 4, err_x=other)

    def test_err_x_anchored_above_n_is_refused(self):
        sysm = heat(q_scalar=0.5)
        late = sk.theorem3_bound(sysm, 16)
        with pytest.raises(ValueError, match="anchored at n=16"):
            sk.theorem5_bound(sysm, 4, err_x=late)
        # at or below n it is taken
        assert sk.theorem5_bound(sysm, 16, err_x=late).err_x is late
        assert sk.theorem5_bound(sysm, 32, err_x=late).err_x is late

    def test_default_err_x_shares_the_admissibility(self):
        sysm = heat(q_scalar=0.5)
        bound = sk.theorem5_bound(sysm, 4)
        assert (bound.ingredients["admissibility"]
                == bound.err_x.ingredients["admissibility"]
                == sk.admissibility_constant(sysm))


class TestBoundValidation:
    def test_fractional_anchor_is_rejected(self):
        # anchoring on a 2.5-point "grid" while recording n_anchor = 2 would
        # misreport the bound
        with pytest.raises(ValueError, match="got n=2.5"):
            sk.theorem3_bound(heat(), 2.5)
        b = sk.theorem3_bound(heat(), np.int64(4))
        assert b.n_anchor == 4
        assert b.coarse_trace == sk.theorem3_bound(heat(), 4.0).coarse_trace

    @pytest.mark.parametrize("n", [np.nan, 0, 2.5, -1])
    @pytest.mark.parametrize("variant", [1, 2, 3, 4, 5])
    def test_bad_anchor_names_n(self, variant, n):
        bound = {
            1: lambda: sk.theorem1_bound(heat(), n, gamma=0.0),
            2: lambda: sk.theorem2_bound(heat(), n),
            3: lambda: sk.theorem3_bound(heat(), n),
            4: lambda: sk.theorem4_bound(heat(), n, nu=0.8, eta=1.0),
            5: lambda: sk.theorem5_bound(heat(q_scalar=0.5), n),
        }[variant]
        with pytest.raises(ValueError, match=f"got n={n!r}"):
            bound()

    def test_theorem1_parameter_window(self):
        with pytest.raises(ValueError, match="gamma in \\[0, 1\\)"):
            sk.theorem1_bound(wave(), 8, gamma=0.6)
        with pytest.raises(ValueError, match="non-negative"):
            sk.theorem1_bound(heat(), 8, gamma=-0.1)

    @pytest.mark.parametrize("num_modes", [20, 60, 400, 1600])
    def test_wave_at_the_gamma_edge_is_refused_at_every_size(self, monkeypatch,
                                                             num_modes):
        # 2 gamma + 1/delta = 2 exactly: the fitted exponent is exactly 1 at
        # every N, so no size slips into the class on a rounding of the fit
        monkeypatch.setattr(sk.theory, "_anchor_trace", lambda *args: 1.0)
        with pytest.raises(ValueError, match="2 gamma \\+ 1/delta < 2"):
            sk.theorem1_bound(wave(num_modes), 4, gamma=0.5)

    def test_slow_spectra_are_rejected(self):
        slow = sk.ModalSystem(
            eigenvalues=-np.arange(1, 7) ** 0.4 + 0.0j,
            output_coeffs=np.ones((6, 1), complex),
            input_coeffs=np.zeros((6, 1), complex),
            prior_mean=np.zeros(6, complex),
            prior_var=np.ones(6),
            q_cov=np.zeros((1, 1)),
            r_cov=np.array([[1.0]]),
            horizon=1.0,
            pairing=np.arange(6),
        )
        with pytest.raises(ValueError, match="exceed 1/2"):
            sk.theorem2_bound(slow, 8)

    def test_oscillatory_spectra_rejected_by_smoothing_bounds(self):
        with pytest.raises(ValueError, match="real .*spectrum"):
            sk.theorem3_bound(wave(), 8)
        with pytest.raises(ValueError, match="real .*spectrum"):
            sk.theorem4_bound(wave(), 8, nu=0.8, eta=1.0)

    def test_marginally_stable_mode_rejected_by_fractional_bound(self):
        with pytest.raises(ValueError, match="strictly negative"):
            sk.theorem4_bound(zero_mode(), 8, nu=0.8, eta=1.0)

    def test_fractional_order_window(self):
        with pytest.raises(ValueError, match=r"\|eta - nu\| < 1/2"):
            sk.theorem4_bound(heat(), 8, nu=0.25, eta=1.0)

    def test_theorem3_case_names(self):
        with pytest.raises(ValueError, match="'bounded' or 'domain'"):
            sk.theorem3_bound(heat(), 8, case="graph")

    def test_input_bound_needs_noise(self):
        with pytest.raises(ValueError, match="needs a driven system"):
            sk.theorem5_bound(heat(), 8)

    def test_truncated_tail_is_reported(self, caplog):
        # at n = 50 the tail is supposed to start at mode 10, past the
        # six retained modes
        with caplog.at_level(logging.WARNING):
            sk.theorem1_bound(heat(), 50, gamma=0.5)
        assert "beyond truncation" in caplog.text


class TestCheckBound:
    def test_heat_curve_sits_under_its_bounds(self):
        sysm = heat()
        curve = sk.discrepancy_curve(sysm, [4, 8, 16], reference_level=5)
        for bound in (sk.theorem2_bound(sysm, 4), sk.theorem3_bound(sysm, 4)):
            chk = sk.check_bound(curve, bound)
            assert chk.passed
            assert np.all(chk.margins >= 1.0)
            npt.assert_allclose(chk.bound_values,
                                chk.margins * chk.discrepancies, rtol=1e-12)

    def test_driven_curve_against_input_bound(self):
        sysm = heat(q_scalar=0.4)
        curve = sk.discrepancy_curve(sysm, [4, 8, 16], reference_level=5)
        chk = sk.check_bound(curve, sk.theorem5_bound(sysm, 4))
        assert chk.passed

    def test_label_mismatch_is_refused(self):
        curve = sk.discrepancy_curve(heat(), [4, 8], reference_level=4)
        bound = sk.theorem2_bound(heat(5), 4)
        with pytest.raises(ValueError, match="curve is for"):
            sk.check_bound(curve, bound)

    def test_anchor_must_cover_tested_range(self):
        sysm = heat()
        curve = sk.discrepancy_curve(sysm, [4, 8], reference_level=4)
        with pytest.raises(ValueError, match="cannot cover smaller"):
            sk.check_bound(curve, sk.theorem2_bound(sysm, 8))


class TestFitRate:
    def test_recovers_an_exact_power_law(self):
        n = np.array([2, 4, 8, 16, 32])
        fit = sk.fit_rate(n, 1000.0 * n ** -1.5)
        npt.assert_allclose(fit.slope, -1.5, rtol=1e-12)
        npt.assert_allclose(fit.intercept, 3.0, rtol=1e-12)
        npt.assert_allclose(fit.r_squared, 1.0, atol=1e-12)
        assert fit.n_used == 5

    def test_drops_nonpositive_points(self, caplog):
        with caplog.at_level(logging.WARNING):
            fit = sk.fit_rate([2, 4, 8], [4.0, 0.0, 1.0])
        assert fit.n_used == 2
        assert "nonpositive" in caplog.text

    @pytest.mark.parametrize("bad_n", [np.inf, np.nan])
    def test_drops_non_finite_n(self, bad_n, caplog, capfd):
        # a non-finite n would reach the log-log fit, where the SVD of
        # polyfit fails and LAPACK complains on stderr
        n = np.array([1.0, 2.0, 4.0, bad_n])
        with caplog.at_level(logging.WARNING):
            fit = sk.fit_rate(n, [1.0, 0.5, 0.25, 0.125])
        assert fit.n_used == 3
        npt.assert_allclose(fit.slope, -1.0, rtol=1e-12)
        assert "dropping 1 " in caplog.text
        assert capfd.readouterr().err == ""

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="at least two"):
            sk.fit_rate([2, 4], [1.0, 0.0])
        with pytest.raises(ValueError, match="matching length"):
            sk.fit_rate([2, 4], [1.0])

    @pytest.mark.parametrize("n_values, values", [
        ([4, 4, 4], [1.0, 2.0, 3.0]), ([4, 4.0], [1.0, 2.0]),
        ([4, 8, 4], [1.0, 0.0, 3.0])], ids=["repeated", "repeated-float",
                                            "repeated-after-drop"])
    def test_needs_two_distinct_n(self, n_values, values):
        # a line through one n has no slope; refused before numpy's fit
        # warns and returns one
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="at least two"):
                sk.fit_rate(n_values, values)
