import dataclasses
import warnings

import numpy as np
import numpy.testing as npt
import pytest

import sampledkf as sk
from sampledkf import ConfigError
from sampledkf.cli import _coerce


def custom_system(lam, c=None, **kw):
    """Small helper building a bare ModalSystem around a spectrum."""
    lam = np.asarray(lam, dtype=complex)
    n = lam.size
    defaults = dict(
        eigenvalues=lam,
        output_coeffs=np.ones((n, 1), complex) if c is None else np.asarray(c),
        input_coeffs=np.zeros((n, 1), complex),
        prior_mean=np.zeros(n, complex),
        prior_var=np.ones(n),
        q_cov=np.array([[0.0]]),
        r_cov=np.array([[1.0]]),
        horizon=1.0,
    )
    defaults.update(kw)
    return sk.ModalSystem(**defaults)


class TestHeatBuilder:
    def test_three_mode_coefficients(self):
        sysm = sk.build_heat_model(3, 1.0, prior_decay=6.0)
        npt.assert_array_equal(sysm.eigenvalues,
                               [-np.pi ** 2, -4 * np.pi ** 2, -9 * np.pi ** 2])
        npt.assert_array_equal(sysm.output_coeffs[:, 0],
                               [np.pi, 2 * np.pi, 3 * np.pi])
        npt.assert_array_equal(sysm.prior_var, [1.0, 2.0 ** -6, 3.0 ** -6])
        assert not sysm.has_input_noise
        assert sysm.num_outputs == 1

    def test_single_mode_reduces_to_scalar_ou(self):
        sysm = sk.build_heat_model(1, 1.0)
        assert sysm.num_modes == 1
        assert sysm.eigenvalues[0] == -np.pi ** 2

    def test_input_profile_switches_with_q(self):
        undriven = sk.build_heat_model(4, 1.0)
        npt.assert_array_equal(undriven.input_coeffs, np.zeros((4, 1)))
        driven = sk.build_heat_model(4, 1.0, q_scalar=0.5)
        npt.assert_allclose(driven.input_coeffs[:, 0],
                            [1.0, 2.0 ** -4, 3.0 ** -4, 4.0 ** -4])
        assert driven.has_input_noise and driven.q_cov[0, 0] == 0.5

    @pytest.mark.parametrize("kwargs, match", [
        (dict(num_modes=0), "num_modes"),
        (dict(prior_decay=5.0), "prior_decay"),
        (dict(q_scalar=-1.0), "q_scalar"),
        (dict(horizon=0.0), "horizon"),
        (dict(horizon=np.nan), "^horizon: must be positive and finite$"),
        (dict(horizon=np.inf), "^horizon: must be positive and finite$"),
        # named by the argument, not by the ModalSystem field it reaches
        (dict(prior_decay=np.nan), "^prior_decay: must be finite$"),
        (dict(q_scalar=np.nan), "^q_scalar: must be finite$"),
        (dict(r_scalar=np.nan), "^r_scalar: must be finite$"),
        (dict(r_scalar=np.inf), "^r_scalar: must be finite$"),
        (dict(r_scalar=0.0), "^r_scalar: must be positive$"),
        (dict(r_scalar=-1.0), "^r_scalar: must be positive$"),
        (dict(num_modes=4.5), "^num_modes: .* got 4.5$"),
        (dict(num_modes=np.nan), "^num_modes: .* got nan$"),
    ])
    def test_rejects_bad_parameters(self, kwargs, match):
        args = dict(num_modes=3, horizon=1.0)
        args.update(kwargs)
        with pytest.raises(ValueError, match=match):
            sk.build_heat_model(**args)


@pytest.mark.parametrize("num_modes", [4, 4.0, np.int64(4), np.float32(4)],
                         ids=["int", "float", "int64", "float32"])
@pytest.mark.parametrize("build", [
    lambda n: sk.build_heat_model(n, 1.0), lambda n: sk.build_wave_model(n)],
    ids=["heat", "wave"])
def test_builders_take_whole_mode_counts_of_any_type(build, num_modes):
    # the rule of spectral_model._is_whole, as discrepancy_curve applies it
    built, want = build(num_modes), build(4)
    assert built.label == want.label
    npt.assert_array_equal(built.eigenvalues, want.eigenvalues)
    npt.assert_array_equal(built.prior_var, want.prior_var)


class TestWaveBuilder:
    def test_pair_structure(self):
        sysm = sk.build_wave_model(6, domain_length=2.0, horizon=1.0)
        omega = np.pi * np.array([1, 2, 3]) / 2.0
        npt.assert_allclose(sysm.eigenvalues[0::2], 1j * omega)
        npt.assert_allclose(sysm.eigenvalues[1::2], -1j * omega)
        npt.assert_array_equal(sysm.pairing, [1, 0, 3, 2, 5, 4])
        # conjugate columns, uniformly bounded by 1/sqrt(L)
        npt.assert_array_equal(sysm.output_coeffs[0::2],
                               sysm.output_coeffs[1::2].conj())
        assert np.abs(sysm.output_coeffs).max() <= 1 / np.sqrt(2.0)

    def test_prior_shared_within_pairs(self):
        sysm = sk.build_wave_model(8, prior_decay=4.0)
        npt.assert_array_equal(sysm.prior_var[0::2], sysm.prior_var[1::2])
        npt.assert_allclose(sysm.prior_var[0::2],
                            np.arange(1, 5, dtype=float) ** -4)

    @pytest.mark.parametrize("num_modes", [1, 3, 7, 4.5])
    def test_odd_mode_counts_rejected(self, num_modes):
        with pytest.raises(ValueError, match="^num_modes: .*even"):
            sk.build_wave_model(num_modes)

    def test_shallow_prior_rejected(self):
        with pytest.raises(ValueError, match="prior_decay"):
            sk.build_wave_model(4, prior_decay=3.0)

    @pytest.mark.parametrize("kwargs, match", [
        (dict(prior_decay=np.nan), "^prior_decay: must be finite$"),
        (dict(domain_length=np.nan), "^domain_length: must be finite$"),
        (dict(r_scalar=np.inf), "^r_scalar: must be finite$"),
        (dict(r_scalar=0.0), "^r_scalar: must be positive$"),
    ])
    def test_rejects_bad_parameters(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            sk.build_wave_model(4, **kwargs)


class TestModalSystemValidation:
    @pytest.mark.parametrize("b, q", [(0.0, 0.5), (1.0, 0.0), (1.0, 0.5),
                                      (0.0, 0.0)],
                             ids=["b-zero", "q-zero", "both", "neither"])
    def test_input_noise_is_derived_once(self, b, q):
        # the flag is a field set in __post_init__, and replace re-derives it
        sysm = custom_system([-1.0, -4.0], input_coeffs=np.full((2, 1), b + 0j),
                             q_cov=np.array([[q]]))
        want = bool(np.any(sysm.input_coeffs != 0) and np.any(sysm.q_cov != 0))
        assert sysm.has_input_noise is want and sysm._input_noise is want
        flipped = dataclasses.replace(sysm, q_cov=np.array([[0.5 - q]]),
                                      input_coeffs=np.full((2, 1), 1.0 - b + 0j))
        assert flipped.has_input_noise is bool((1.0 - b) and (0.5 - q))

    def test_positive_real_part_rejected(self):
        with pytest.raises(ValueError, match="Re"):
            custom_system([0.5])

    def test_magnitude_ordering_enforced(self):
        with pytest.raises(ValueError, match="magnitude"):
            custom_system([-4.0, -1.0])

    def test_r_must_be_positive_definite(self):
        with pytest.raises(ValueError, match="r_cov"):
            custom_system([-1.0], r_cov=np.array([[0.0]]))

    def test_pairing_consistency(self):
        with pytest.raises(ValueError, match="conjugate pairs"):
            custom_system([1j, -1j], c=np.array([[1.0], [2.0]], dtype=complex),
                          pairing=np.array([1, 0]))
        with pytest.raises(ValueError, match="involution"):
            custom_system([1j, 1j, -2j], pairing=np.array([1, 2, 0]))

    @pytest.mark.parametrize("field", [
        "eigenvalues", "output_coeffs", "input_coeffs", "prior_mean",
        "prior_var", "q_cov", "r_cov"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_entries_rejected(self, field, bad):
        sysm = sk.build_heat_model(3, 1.0, q_scalar=0.5)
        values = np.array(getattr(sysm, field))
        values.flat[-1] = bad
        with pytest.raises(ValueError, match=f"^{field}: must be finite$"):
            dataclasses.replace(sysm, **{field: values})

    def test_infinite_string_is_not_blamed_on_the_pairing(self):
        # refused by its own name before any array, so numpy never warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^domain_length: must be finite$"):
                sk.build_wave_model(4, domain_length=np.inf)

    def test_real_models_carry_the_identity_pairing(self):
        npt.assert_array_equal(custom_system([-1.0, -2.0]).pairing, [0, 1])

    def test_complex_modes_need_a_declared_pairing(self):
        # conditioning runs in the real coordinates of the pairing only
        with pytest.raises(ValueError, match="^pairing: complex modes need a "
                                             "conjugate pairing$"):
            custom_system([1j, -1j])
        with pytest.raises(ValueError, match="complex modes need"):
            dataclasses.replace(sk.build_wave_model(4), pairing=None)

    @pytest.mark.parametrize("pairing", [[1.7, 0.2, 3.9, 2.0],
                                         [1.0, 0.0, np.nan, 2.0]],
                             ids=["fractional", "nan"])
    def test_pairing_entries_must_be_whole(self, pairing):
        # refused before the cast to int: 1.7 is not taken as 1, and NaN
        # raises no numpy cast warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^pairing: entries must be "
                                                 "whole numbers$"):
                dataclasses.replace(sk.build_wave_model(4),
                                    pairing=np.array(pairing))
        whole = dataclasses.replace(sk.build_wave_model(4),
                                    pairing=np.array([1.0, 0.0, 3.0, 2.0]))
        npt.assert_array_equal(whole.pairing, [1, 0, 3, 2])

    def test_arrays_frozen(self):
        sysm = sk.build_heat_model(3, 1.0)
        with pytest.raises(ValueError):
            sysm.eigenvalues[0] = 0.0

    def test_prior_energies(self):
        sysm = custom_system([-1.0, -2.0], prior_var=np.array([0.5, 0.25]),
                             prior_mean=np.array([1.0, 0.0], complex))
        npt.assert_allclose(
            sysm.weighted_prior_energy(sk.unit_weights(sysm)), 0.5 + 0.25 + 1.0)
        npt.assert_allclose(
            sysm.weighted_prior_energy(sk.domain_weights(sysm)),
            2.0 * 1.5 + 5.0 * 0.25)


class TestMapping:
    def test_heat_roundtrip(self):
        built = sk.model_from_mapping({
            "kind": "heat", "num_modes": "5", "horizon": "2.0",
            "prior_decay": "7", "q_scalar": "0.25",
        })
        direct = sk.build_heat_model(5, 2.0, prior_decay=7.0, q_scalar=0.25)
        npt.assert_array_equal(built.eigenvalues, direct.eigenvalues)
        npt.assert_array_equal(built.prior_var, direct.prior_var)
        assert built.label == direct.label

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            sk.model_from_mapping({"kind": "heat", "num_modes": "3",
                                   "horizon": "1", "colour": "blue"})

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="num_modes"):
            sk.model_from_mapping({"kind": "heat", "horizon": "1"})

    @pytest.mark.parametrize("key, raw", [("num_modes", "4.0"),
                                          ("horizon", "x")])
    def test_a_bad_number_is_reported_as_the_cli_reports_it(self, key, raw):
        # the mapping takes the CLI's rule and wording for the key, so both
        # routes refuse the same text with the same message
        mapping = {"kind": "heat", "num_modes": "4", "horizon": "1", key: raw}
        with pytest.raises(ConfigError, match=f"^model.{key}: ") as api:
            sk.model_from_mapping(mapping)
        with pytest.raises(ConfigError) as cli:
            _coerce(f"model.{key}", raw)
        assert str(api.value) == str(cli.value)

    def test_wave_rejects_input_noise(self):
        with pytest.raises(ConfigError, match="q_scalar"):
            sk.model_from_mapping({"kind": "wave", "num_modes": "4",
                                   "horizon": "1", "q_scalar": "0.1"})

    def test_heat_rejects_domain_length(self):
        # the key has no effect on a heat model, so it is refused rather
        # than recorded in a result header
        with pytest.raises(ConfigError, match="^model.domain_length: heat "
                                              "models take no domain length$"):
            sk.model_from_mapping({"kind": "heat", "num_modes": "4",
                                   "horizon": "1", "domain_length": "2"})

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            sk.model_from_mapping({"kind": "beam", "num_modes": "4",
                                   "horizon": "1"})


class TestWeights:
    def test_families(self):
        sysm = custom_system([-1.0, -3.0])
        npt.assert_array_equal(sk.unit_weights(sysm), [1.0, 1.0])
        npt.assert_array_equal(sk.domain_weights(sysm), [2.0, 10.0])
        npt.assert_allclose(sk.fractional_weights(sysm, 0.5), [1.0, 3.0])
        npt.assert_allclose(sk.index_weights(sysm, 2.0), [1.0, 16.0])

    def test_fractional_needs_invertible_spectrum(self):
        sysm = custom_system([0.0, -1.0])
        with pytest.raises(ValueError, match="away from zero"):
            sk.fractional_weights(sysm, 0.5)
        npt.assert_array_equal(sk.fractional_weights(sysm, 0.0), [1.0, 1.0])


class TestSpectralParameters:
    def test_heat_growth_exponent_exact(self):
        params = sk.spectral_parameters(sk.build_heat_model(40, 1.0), 0.5)
        npt.assert_allclose(params.delta_fit, 2.0, atol=1e-9)
        npt.assert_allclose(params.gamma_hat, np.pi ** 2, rtol=1e-9)
        npt.assert_allclose(params.gamma_tail, np.pi ** 2, rtol=1e-9)
        # ||c_k|| / |lambda_k|^(2 gamma) is identically 1/1 at gamma = 1/2
        npt.assert_allclose(params.sup_ratio, 1.0, rtol=1e-12)
        assert params.mu == 1.0

    def test_wave_growth_exponent_exact(self):
        sysm = sk.build_wave_model(30, domain_length=2.0)
        params = sk.spectral_parameters(sysm, 0.0)
        npt.assert_allclose(params.delta_fit, 1.0, atol=1e-9)
        # duplicated pair magnitudes push the per-index ratio down to pi/(2L)
        npt.assert_allclose(params.gamma_tail, np.pi / 4.0, rtol=1e-9)
        npt.assert_allclose(params.gamma_check, np.pi / 4.0, rtol=1e-9)
        assert params.gamma_hat >= params.gamma_check

    @pytest.mark.parametrize("num_modes", [20, 60, 400, 1600])
    def test_power_laws_fit_their_exact_exponent(self, num_modes):
        # the raw slopes miss 2 and 1 by a few ulps, on either side by N
        heat = sk.build_heat_model(num_modes, 1.0)
        wave = sk.build_wave_model(num_modes)
        assert sk.spectral_parameters(heat, 0.5).delta_fit == 2.0
        assert sk.spectral_parameters(wave, 0.0).delta_fit == 1.0
        # k0 = ceil((2n/T)^(1/delta)) is exact at powers of two, at every N
        assert [sk.spectral_parameters(heat, 0.5, n=n).tail_start
                for n in (2, 8, 32, 128)] == [2, 4, 8, 16]
        assert [sk.spectral_parameters(wave, 0.5, n=n).tail_start
                for n in (2, 4, 8)] == [4, 8, 16]

    def test_tail_start_grows_with_n(self):
        sysm = sk.build_heat_model(60, 1.0)
        coarse = sk.spectral_parameters(sysm, 0.5, n=4)
        fine = sk.spectral_parameters(sysm, 0.5, n=64)
        assert 0 < coarse.tail_start < fine.tail_start < 60

    def test_gamma_validation(self):
        sysm = sk.build_heat_model(4, 1.0)
        with pytest.raises(ValueError, match="gamma"):
            sk.spectral_parameters(sysm, -0.1)
        zero_mode = custom_system([0.0, -1.0])
        with pytest.raises(ValueError, match="away from zero"):
            sk.spectral_parameters(zero_mode, 0.5)
