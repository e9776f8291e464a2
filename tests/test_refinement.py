"""Dyadic grids, deterministic discrepancy curves, telescoping identities."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

import sampledkf as sk
from sampledkf import ReferenceUnconvergedError
from sampledkf import filter_core
from sampledkf.filter_core import (_accumulated_information, _condition,
                                   _telescope, _uniform_traces)


def single_mode(lam=-2.0, c=1.0, p=0.8):
    return sk.ModalSystem(
        eigenvalues=np.array([complex(lam)]),
        output_coeffs=np.array([[complex(c)]]),
        input_coeffs=np.zeros((1, 1), complex),
        prior_mean=np.zeros(1, complex),
        prior_var=np.array([p]),
        q_cov=np.zeros((1, 1)),
        r_cov=np.array([[1.0]]),
        horizon=1.0,
        pairing=np.array([0]),
        label="single",
    )


def _new_points(system, base_n, level):
    """Mesh width h and the (points, N) phi_h values of the points new at ``level``.

    Each point's phi_h(lambda, t, h) is taken directly at its time t, the odd
    j of ``dyadic_grid``'s (j T) / m.
    """
    m = base_n * 2 ** level
    points = (np.arange(1, m, 2) * system.horizon) / m
    h = system.horizon / m
    return h, sk.phi_h(system.eigenvalues[None, :], points[:, None], h)


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the arguments were checked")


class TestDyadicGrid:
    def test_two_point_base_one_level(self):
        npt.assert_array_equal(sk.dyadic_grid(2, 1, 1.0), [0.25, 0.5, 0.75, 1.0])

    def test_levels_nest_exactly(self):
        # membership must hold bitwise, not merely to rounding, including for
        # horizons with no finite binary expansion
        coarse = sk.dyadic_grid(3, 1, 0.7)
        fine = sk.dyadic_grid(3, 2, 0.7)
        assert set(coarse) <= set(fine)
        assert fine[-1] == 0.7

    @pytest.mark.parametrize("base_n, level", [(1, 0), (2, 3), (5, 2)])
    def test_shape_and_order(self, base_n, level):
        times = sk.dyadic_grid(base_n, level, 2.0)
        m = base_n * 2 ** level
        assert times.shape == (m,)
        assert np.all(np.diff(times) > 0)

    def test_times_are_frozen(self):
        times = sk.dyadic_grid(2, 1, 1.0)
        with pytest.raises(ValueError):
            times[0] = 0.1

    @pytest.mark.parametrize("horizon", [1.0, 0.7, 3.0, 2.0 / 3.0])
    def test_new_points_are_odd_multiples_of_the_mesh(self, horizon):
        # every other point of level L is new at L: (2 j + 1) T / m bitwise
        for base_n in range(1, 8):
            for level in range(1, 8):
                m = base_n * 2 ** level
                npt.assert_array_equal(
                    sk.dyadic_grid(base_n, level, horizon)[::2],
                    (np.arange(1, m, 2) * horizon) / m)

    def test_validation(self):
        with pytest.raises(ValueError, match="base_n >= 1 and level >= 0"):
            sk.dyadic_grid(0, 1)
        with pytest.raises(ValueError, match="base_n >= 1 and level >= 0"):
            sk.dyadic_grid(2, -1)
        with pytest.raises(ValueError, match="positive horizon"):
            sk.dyadic_grid(2, 1, 0.0)
        with pytest.raises(ValueError, match="positive horizon"):
            sk.dyadic_grid(4, 0, float("inf"))
        # 4 * 1e308 overflows: refused before the times are formed
        with pytest.raises(ValueError, match=r"horizon \* 4 finite"):
            sk.dyadic_grid(4, 0, 1e308)
        with pytest.raises(ValueError, match=r"horizon \* 8 finite"):
            sk.dyadic_grid(4, 1, np.float64(4.4e307))

    def test_a_large_finite_horizon_keeps_the_grid_formula(self):
        times = sk.dyadic_grid(4, 0, 4.4e307)
        npt.assert_array_equal(times, (np.arange(1, 5) * 4.4e307) / 4)
        assert times[-1] == 4.4e307

    @pytest.mark.parametrize("base_n, level", [(2.5, 0), (2, 1.5), (np.nan, 1),
                                               (2, np.inf), (np.inf, 0)])
    def test_non_integral_sizes_are_rejected(self, base_n, level):
        # a fractional size would give an uneven last gap
        with pytest.raises(ValueError, match="base_n >= 1 and level >= 0"):
            sk.dyadic_grid(base_n, level)

    def test_integral_sizes_of_any_type(self):
        expected = sk.dyadic_grid(3, 2, 0.7)
        for base_n, level in ((np.int64(3), np.int32(2)), (3.0, 2.0),
                              (np.float64(3.0), 2)):
            npt.assert_array_equal(sk.dyadic_grid(base_n, level, 0.7), expected)


class TestDiscrepancyCurve:
    def test_heat_curve_is_positive_and_decreasing(self):
        sysm = sk.build_heat_model(6, horizon=1.0)
        curve = sk.discrepancy_curve(sysm, [2, 4, 8], reference_level=6)
        assert curve.label == sysm.label
        npt.assert_array_equal(curve.n_values, [2, 4, 8])
        assert np.all(curve.values > 0)
        assert np.all(np.diff(curve.values) < 0)
        assert np.all(np.diff(curve.coarse_traces) < 0)
        # shared reference: one filter run on the refined largest grid
        assert curve.reference_points == 8 * 2 ** 6
        npt.assert_array_equal(curve.values,
                               curve.coarse_traces - curve.reference_trace)
        assert curve.reference_trace == _uniform_traces(sysm, [8 * 2 ** 6])[0]
        npt.assert_allclose(
            sk.information_filter(sysm, sk.dyadic_grid(8, 6)).trace_err,
            curve.reference_trace, rtol=1e-14)

    def test_discrepancy_equals_trace_difference(self):
        sysm = sk.build_heat_model(4, horizon=1.0)
        curve = sk.discrepancy_curve(sysm, [4], reference_level=5)
        coarse = sk.sequential_filter(sysm, sk.dyadic_grid(4, 0, 1.0)).trace_err
        ref = sk.sequential_filter(sysm, sk.dyadic_grid(4, 5, 1.0)).trace_err
        npt.assert_allclose(curve.values[0], coarse - ref, rtol=1e-12)

    def test_non_divisor_is_rejected(self):
        sysm = sk.build_heat_model(4, horizon=1.0)
        with pytest.raises(ValueError, match=r"n=3 does not divide the reference "
                           r"resolution 4 \* 2\*\*3; choose divisors$"):
            sk.discrepancy_curve(sysm, [3, 4], reference_level=3)
        # a common multiple as largest n nests every grid in the reference
        curve = sk.discrepancy_curve(sysm, [3, 4, 12], reference_level=3)
        assert np.all(curve.values > 0)

    @pytest.mark.parametrize("level", [2.5, np.nan, np.inf])
    def test_non_integral_reference_level_is_rejected(self, level):
        with pytest.raises(ValueError, match="reference_level must be a whole"):
            sk.discrepancy_curve(sk.build_heat_model(3, horizon=1.0), [2, 4],
                                 reference_level=level)

    @pytest.mark.parametrize("level", [51, 10 ** 30])
    def test_inexact_reference_is_refused_before_any_trace(self, monkeypatch,
                                                           level):
        # the check grid 4 * 2**(level + 1) passes 2**53 from level 51 on;
        # 10**30 is refused without forming 2**level
        monkeypatch.setattr(sk.refinement, "_coarse_trace", _no_work)
        with pytest.raises(ValueError, match=f"reference_level={level} is too "
                                             f"large for n=4"):
            sk.discrepancy_curve(sk.build_heat_model(3, horizon=1.0), [2, 4],
                                 reference_level=level)

    def test_integral_reference_level_of_any_type(self):
        sysm = sk.build_heat_model(3, horizon=1.0)
        expected = sk.discrepancy_curve(sysm, [2, 4], reference_level=3)
        for level in (3.0, np.int64(3)):
            curve = sk.discrepancy_curve(sysm, [2, 4], reference_level=level)
            npt.assert_array_equal(curve.values, expected.values)
            assert curve.reference_level == 3
            assert type(curve.reference_level) is int

    def test_shaky_reference_is_rejected(self):
        sysm = sk.build_wave_model(8, horizon=1.0)
        with pytest.raises(ReferenceUnconvergedError, match="increase reference_level"):
            sk.discrepancy_curve(sysm, [2, 4], reference_level=1)
        # the same call succeeds once told not to look
        curve = sk.discrepancy_curve(sysm, [2, 4], reference_level=1,
                                     check_reference=False)
        assert curve.values.shape == (2,)

    def test_n_values_validation(self):
        sysm = sk.build_heat_model(3, horizon=1.0)
        with pytest.raises(ValueError, match="positive integers"):
            sk.discrepancy_curve(sysm, [])
        with pytest.raises(ValueError, match="positive integers"):
            sk.discrepancy_curve(sysm, [0, 2])
        with pytest.raises(ValueError, match="distinct"):
            sk.discrepancy_curve(sysm, [2, 2])
        with pytest.raises(ValueError, match="at least 1"):
            sk.discrepancy_curve(sysm, [2], reference_level=0)

    def test_reference_past_two_to_the_53_is_named(self):
        # the check grid n_max 2**(level + 1) must keep (j T) / m exact
        sysm = sk.build_heat_model(3, horizon=1.0)
        with pytest.raises(ValueError, match=r"reference_level=47 is too large "
                           r"for n=64: .* 64 \* 2\*\*48 points, more than 2\*\*53"):
            sk.discrepancy_curve(sysm, [4, 64], reference_level=47)
        curve = sk.discrepancy_curve(sysm, [4, 64], reference_level=46)
        assert curve.reference_points == 2 ** 52

    @pytest.mark.parametrize("make", [
        lambda: sk.build_heat_model(20, horizon=1.0),
        lambda: sk.build_wave_model(8, horizon=1.0),
        lambda: sk.build_heat_model(20, horizon=1.0, q_scalar=0.5),
    ], ids=["heat", "wave", "driven-heat"])
    def test_deep_references_build_no_grid(self, no_large_grids, make):
        # 2**29 check points: the traces take the point count alone
        sysm = make()
        curve = sk.discrepancy_curve(sysm, [4, 8, 16, 32], reference_level=24)
        assert curve.reference_points == 32 * 2 ** 24
        assert np.all(curve.values > 0)
        shallow = sk.discrepancy_curve(sysm, [4, 8, 16, 32], reference_level=12)
        npt.assert_allclose(curve.values, shallow.values, rtol=1e-3)

    @pytest.mark.parametrize("n_values", [[2.5, 4], [2, 2.5], [np.nan, 4],
                                          [np.inf], np.array([2.0, 4.5])])
    def test_fractional_n_values_are_rejected(self, n_values):
        # truncating 2.5 to 2 would compute D(2) unasked, or report [2, 2.5]
        # as a duplicate
        with pytest.raises(ValueError, match="n_values must be positive integers"):
            sk.discrepancy_curve(sk.build_heat_model(3, horizon=1.0), n_values)

    def test_integral_floats_are_accepted(self):
        sysm = sk.build_heat_model(3, horizon=1.0)
        curve = sk.discrepancy_curve(sysm, np.array([2.0, 4.0]),
                                     reference_level=3)
        npt.assert_array_equal(curve.values,
                               sk.discrepancy_curve(sysm, [2, 4],
                                                    reference_level=3).values)


class TestTelescope:
    def test_heat_increments_telescope(self):
        report = sk.telescope_check(sk.build_heat_model(5, horizon=1.0), 2, 2)
        assert report.residual <= 1e-7
        npt.assert_allclose(report.increment_sum, report.trace_drop,
                            rtol=1e-6)
        assert report.level_sums.shape == (2,)
        assert [len(a) for a in report.increments] == [2, 4]
        npt.assert_allclose(report.level_sums,
                            [a.sum() for a in report.increments], rtol=1e-14)

    def test_two_output_increments_telescope(self, two_output_heat):
        # r = 2: each insertion gain solves a 2 x 2 interpolation block
        report = sk.telescope_check(two_output_heat(5), 2, 2)
        assert report.residual <= 1e-10
        assert np.all(np.concatenate(report.increments) > 0)

    def test_single_mode_is_essentially_exact(self):
        report = sk.telescope_check(single_mode(), 2, 1)
        assert report.residual <= 1e-10

    @pytest.mark.parametrize("kind", ["heat", "wave"])
    def test_deep_telescopes_build_no_grid(self, no_large_grids, kind):
        # level 11 has 4 * 2**11 points; only its 4096 new ones are formed
        sysm = getattr(sk, f"build_{kind}_model")(10, horizon=1.0)
        report = sk.telescope_check(sysm, 4, 11)
        assert len(report.increments[-1]) == 4 * 2 ** 10
        assert report.residual <= 1e-7

    def test_needs_a_level(self):
        with pytest.raises(ValueError, match="at least one level"):
            sk.telescope_check(single_mode(), 2, 0)

    @pytest.mark.parametrize("levels", [2.0, np.int64(2)])
    def test_whole_number_levels_are_accepted(self, levels):
        want = sk.telescope_check(single_mode(), 2, 2)
        got = sk.telescope_check(single_mode(), 2, levels)
        assert got.levels == 2 and type(got.levels) is int
        assert got.residual == want.residual
        npt.assert_array_equal(got.level_sums, want.level_sums)

    @pytest.mark.parametrize("base_n", [4.0, np.int64(4)])
    def test_whole_number_base_sizes_are_stored_as_int(self, base_n):
        want = sk.telescope_check(single_mode(), 4, 1)
        got = sk.telescope_check(single_mode(), base_n, 1)
        assert got.base_n == 4 and type(got.base_n) is int
        npt.assert_array_equal(got.level_sums, want.level_sums)

    @pytest.mark.parametrize("levels", [1.5, np.nan, np.inf, 0, -1])
    def test_bad_levels_are_named(self, levels):
        with pytest.raises(ValueError, match=f"got levels={levels!r}"):
            sk.telescope_check(single_mode(), 2, levels)

    @pytest.mark.parametrize("levels", [22, 45, 10 ** 30])
    def test_too_deep_levels_are_refused_before_any_trace(self, monkeypatch,
                                                          levels):
        # the rule the CLI applies to telescope_levels, in the API itself
        monkeypatch.setattr(sk.refinement, "_uniform_traces", _no_work)
        monkeypatch.setattr(sk.refinement, "_telescope", _no_work)
        heat = sk.build_heat_model(4, horizon=1.0)
        with pytest.raises(ValueError, match=f"levels={levels} is too deep"):
            sk.telescope_check(heat, 4, levels)

    def test_deepest_allowed_level_is_not_refused(self):
        # 4 * 2**20 points of 4 modes: exactly 2**24, the CLI's edge too
        assert not sk.refinement._too_deep(4, 21, 4)
        assert sk.refinement._too_deep(4, 22, 4)

    def test_rejects_driven_systems_up_front(self, monkeypatch):
        # refused before any trace is taken, under its own name
        def no_work(*args, **kwargs):
            raise AssertionError("telescope_check worked on a driven system")

        monkeypatch.setattr(sk.refinement, "_uniform_traces", no_work)
        monkeypatch.setattr(sk.refinement, "_telescope", no_work)
        with pytest.raises(ValueError,
                           match="telescope_check needs an undriven system"):
            sk.telescope_check(sk.build_heat_model(3, horizon=1.0, q_scalar=0.5),
                               2, 1)


_ZERO_TRACE_MODELS = {
    # every e^(lambda T) underflows to 0: so does every trace's weight
    "heat-T40": lambda: sk.build_heat_model(4, horizon=40.0),
    "no-prior-variance": lambda: dataclasses.replace(
        sk.build_wave_model(6, horizon=1.0), prior_var=np.zeros(6)),
}


class TestZeroTraces:
    """Models whose every trace is 0 take no division by a trace.

    A RuntimeWarning fails the test, so a 0/0 on the way would show too.
    """

    @pytest.mark.parametrize("model", _ZERO_TRACE_MODELS)
    def test_discrepancy_curve(self, model):
        # sizes 1 and 2 take the sample space, 4 and the reference J
        curve = sk.discrepancy_curve(_ZERO_TRACE_MODELS[model](), [1, 2, 4],
                                     reference_level=3)
        npt.assert_array_equal(curve.values, 0.0)
        assert curve.reference_trace == 0.0

    @pytest.mark.parametrize("model", _ZERO_TRACE_MODELS)
    def test_telescope_reports_the_absolute_mismatch(self, model):
        report = sk.telescope_check(_ZERO_TRACE_MODELS[model](), 4, 2)
        assert report.trace_drop == 0.0 and report.residual == 0.0


class TestCarriedPosterior:
    """The carried route against its one-insertion and whole-grid oracles."""

    @pytest.mark.parametrize("kind", ["heat", "wave", "two_outputs"])
    def test_every_gain_equals_increment_variance(self, kind, two_output_heat):
        if kind == "two_outputs":
            sysm = two_output_heat(5)
        else:
            sysm = getattr(sk, f"build_{kind}_model")(10, horizon=1.0)
        base_n = 4
        report = sk.telescope_check(sysm, base_n, 3)
        base = list(sk.dyadic_grid(base_n, 0))
        worst = 0.0
        for level, gains in enumerate(report.increments, start=1):
            h = 1.0 / (base_n * 2 ** level)
            points = sk.dyadic_grid(base_n, level)[::2]
            assert gains.shape == points.shape
            for t, gain in zip(points, gains):
                want = sk.increment_variance(sysm, base, float(t), h)
                worst = max(worst, abs(gain - want) / want)
                base.append(float(t))
        assert worst <= 1e-13

    def test_the_conditioning_is_left_to_filter_core(self):
        # refinement binds no name of the conditioning layer, so one spy in
        # filter_core sees every conditioning call a telescope makes
        for name in ("_condition", "_observe", "_dyadic_rows", "_batches",
                     "_trace", "_uniform_information", "_sample_space_traces"):
            assert not hasattr(sk.refinement, name), name

    def test_carried_posterior_equals_refined_grid_posterior(self):
        sysm = sk.build_heat_model(10, horizon=1.0)
        _, _, _, carried = _telescope(sysm, 4, 4 * 2 ** 8)
        # the carried P_rho against F^T F of the fine grid's summed J
        factor = _condition(
            sysm, _accumulated_information(sysm, sk.dyadic_grid(4, 8)))
        want = factor.T @ factor
        gap = np.linalg.norm(carried - want) / np.linalg.norm(want)
        assert gap <= 1e-12


class TestLevelSum:
    def test_reported_mesh_width(self):
        heat = sk.build_heat_model(4, horizon=1.0)
        _, h = sk.level_sum(heat, 4, 3, sk.domain_weights(heat))
        assert h == 1.0 / (4 * 2 ** 3)

    def test_wave_decay_is_cubic_in_the_mesh(self):
        # each resolved mode contributes ~ |lam|^2 h^3 / 16 per point; with the
        # whole spectrum resolved at these meshes the fit sits near the h^3
        # ceiling
        wave = sk.build_wave_model(8, horizon=1.0)
        weights = sk.domain_weights(wave)
        hs, vals = [], []
        for level in range(1, 6):
            v, h = sk.level_sum(wave, 4, level, weights)
            hs.append(h)
            vals.append(v)
        slope = np.polyfit(np.log10(hs), np.log10(vals), 1)[0]
        assert slope >= 2.7

    def test_heat_decay_blends_toward_the_saturated_floor(self):
        # heat modes with |lam_k| h >> 1 freeze at ~ 1/(4 |lam_k|^3), pulling
        # the windowed fit below the cubic ceiling; at this size it measures
        # ~2.38
        heat = sk.build_heat_model(10, horizon=1.0)
        weights = sk.domain_weights(heat)
        hs, vals = [], []
        for level in range(1, 6):
            v, h = sk.level_sum(heat, 4, level, weights)
            hs.append(h)
            vals.append(v)
        slope = np.polyfit(np.log10(hs), np.log10(vals), 1)[0]
        assert slope >= 2.3

    def test_unit_weights_never_below_weighted(self):
        # domain weights >= 1 shrink the normalised gram, so the unit-weight
        # value dominates
        wave = sk.build_wave_model(4, horizon=1.0)
        vu, _ = sk.level_sum(wave, 4, 2, sk.unit_weights(wave))
        vd, _ = sk.level_sum(wave, 4, 2, sk.domain_weights(wave))
        assert vu >= vd

    def test_validation(self):
        heat = sk.build_heat_model(3, horizon=1.0)
        with pytest.raises(ValueError, match="level >= 1"):
            sk.level_sum(heat, 4, 0, sk.unit_weights(heat))
        with pytest.raises(ValueError, match="positive and finite, one per mode"):
            sk.level_sum(heat, 4, 1, np.ones(2))
        with pytest.raises(ValueError, match="positive and finite, one per mode"):
            sk.level_sum(heat, 4, 1, np.array([1.0, -1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_are_rejected(self, bad):
        # NaN used to fail inside eigvalsh, inf to zero its mode's scale
        heat = sk.build_heat_model(3, horizon=1.0)
        with pytest.raises(ValueError, match="positive and finite, one per mode"):
            sk.level_sum(heat, 4, 1, np.array([1.0, bad, 1.0]))

    def test_deep_levels_build_no_grid(self, no_large_grids, monkeypatch):
        # level 51 of base 4 is a grid of 2**53 points; no point is formed
        monkeypatch.setattr(filter_core, "_dyadic_rows", _no_work)
        wave = sk.build_wave_model(8, horizon=1.0)
        weights = sk.unit_weights(wave)
        previous = sk.level_sum(wave, 4, 12, weights)[0]
        for level in (13, 20, 40, 51):
            value, h = sk.level_sum(wave, 4, level, weights)
            assert h == 1.0 / (4 * 2 ** level)
            assert 0 < value < previous
            previous = value

    @pytest.mark.parametrize("base_n", [1, 3, 4])
    @pytest.mark.parametrize("model", ["heat", "wave", "aliased-wave",
                                       "two-output-heat"])
    def test_closed_form_matches_the_direct_sum(self, two_output_heat, model,
                                                base_n):
        # the oracle sums phi_h over every new point of the level; the
        # aliased wave (L = 3, T = 0.7) puts reduced widths across 2 pi
        sysm = {"heat": lambda: sk.build_heat_model(60, horizon=1.0),
                "wave": lambda: sk.build_wave_model(60, horizon=1.0),
                "aliased-wave": lambda: sk.build_wave_model(
                    10, domain_length=3.0, horizon=0.7),
                "two-output-heat": lambda: two_output_heat(8)}[model]()
        outputs = sysm.output_coeffs.conj() @ sysm.output_coeffs.T
        for weights in (sk.unit_weights(sysm), sk.domain_weights(sysm)):
            scale = 1.0 / np.sqrt(weights)
            for level in range(1, 15):
                h, phis = _new_points(sysm, base_n, level)
                gram = (phis.conj().T @ phis) * outputs * np.outer(scale, scale)
                want = np.linalg.eigvalsh((gram + gram.conj().T) / 2)[-1]
                value, got_h = sk.level_sum(sysm, base_n, level, weights)
                assert got_h == h
                assert abs(value - want) <= 1e-14 * want

    @pytest.mark.parametrize("base_n, level", [(0, 1), (-2, 1), (2.5, 1)])
    def test_bad_grid_sizes_raise_the_grid_error(self, base_n, level):
        # not a ZeroDivisionError, nor phi_h's complaint about a negative mesh
        heat = sk.build_heat_model(3, horizon=1.0)
        with pytest.raises(ValueError, match="base_n >= 1 and level >= 0"):
            sk.level_sum(heat, base_n, level, sk.unit_weights(heat))

    @pytest.mark.parametrize("level", [1.5, np.nan, np.inf, 0, -1])
    def test_bad_levels_are_named(self, level):
        heat = sk.build_heat_model(3, horizon=1.0)
        with pytest.raises(ValueError, match=f"got level={level!r}") as err:
            sk.level_sum(heat, 4, level, sk.unit_weights(heat))
        assert "dyadic_grid" not in str(err.value)

    @pytest.mark.parametrize("level", [52, 53, 100, 10 ** 30])
    def test_too_deep_levels_are_refused_before_any_work(self, monkeypatch,
                                                         level):
        # a grid of 4 * 2**level points exceeds 2**53 from level 52 on, and
        # 10**30 is refused without forming 2**level
        monkeypatch.setattr(sk.refinement, "_geometric_sum", _no_work)
        monkeypatch.setattr(sk.refinement, "_mesh_phi_h", _no_work)
        heat = sk.build_heat_model(4, horizon=1.0)
        with pytest.raises(ValueError, match=f"level={level} is too deep"):
            sk.level_sum(heat, 4, level, sk.unit_weights(heat))
