"""Closed-form discretisation kernels against independent integral routes.

The closed forms in ``sampledkf.kernels`` are cross-checked three ways:

* the in-package adaptive-quadrature oracle (shares no code with the closed
  forms beyond numpy itself);
* a test-local one-dimensional quadrature oracle built from the defining
  covariance integrals written as single integrals over the shared noise past;
* hand closed forms for the zero-eigenvalue mode, where every integral is a
  polynomial.

The output covariances are checked on the blocks of
``filter_core._output_gram``, the one place that assembles them.
"""

import cmath
import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import quad

import sampledkf as sk
from sampledkf import NumericalError, _scalars, filter_core, kernels
from sampledkf.filter_core import _output_gram

# frozen mpmath references for the interpolation-residual kernel:
# Y(t) - (Y(t-h) + Y(t+h))/2 with Y(s) = int_0^s e^(lam r) dr
PHI_H_FROZEN = [
    (-1.0, 1.0, 0.25, 0.011556233629160082 + 0.0j),
    (-0.5 + 3.0j, 0.7, 0.1, 0.008192153300971937 + 0.006786779988358665j),
]


def driven_heat(n=3, q=0.5):
    return sk.build_heat_model(n, horizon=1.0, q_scalar=q)


def driven_oscillator():
    """Conjugate pair with input noise, exercising complex noise blocks."""
    return sk.ModalSystem(
        eigenvalues=np.array([-0.1 + 2.0j, -0.1 - 2.0j]),
        output_coeffs=np.array([[0.5j], [-0.5j]]),
        input_coeffs=np.array([[1.0], [1.0]], dtype=complex),
        prior_mean=np.zeros(2, complex),
        prior_var=np.array([0.3, 0.3]),
        q_cov=np.array([[0.8]]),
        r_cov=np.array([[1.0]]),
        horizon=2.0,
        pairing=np.array([1, 0]),
        label="osc",
    )


def single_zero_mode(c=2.0, b=1.5, q=0.7, p=0.3, horizon=2.0):
    return sk.ModalSystem(
        eigenvalues=np.array([0.0 + 0.0j]),
        output_coeffs=np.array([[complex(c)]]),
        input_coeffs=np.array([[complex(b)]]),
        prior_mean=np.zeros(1, complex),
        prior_var=np.array([p]),
        q_cov=np.array([[q]]),
        r_cov=np.array([[1.0]]),
        horizon=horizon,
        pairing=np.array([0]),
        label="zero-mode",
    )


def _cquad(f, lo, hi):
    re = quad(lambda s: f(s).real, lo, hi, epsabs=1e-13, epsrel=1e-12)[0]
    im = quad(lambda s: f(s).imag, lo, hi, epsabs=1e-13, epsrel=1e-12)[0]
    return re + 1j * im


def _i1(lam, s):
    """int_0^s e^(lam r) dr without the package's series helpers."""
    if abs(lam * s) < 1e-8:
        return s * (1.0 + lam * s / 2.0 + (lam * s) ** 2 / 6.0)
    return (cmath.exp(lam * s) - 1.0) / lam


def oracle_output_covariance(system, t, t2):
    """Cov(Y(t), Y(t2)) as single integrals over the shared noise past."""
    lam = system.eigenvalues
    cmat = system.output_coeffs
    mmat = system.input_coeffs @ system.q_cov @ system.input_coeffs.conj().T
    r = system.num_outputs
    out = np.zeros((r, r), dtype=complex)
    for i in range(r):
        for j in range(r):
            acc = 0.0 + 0.0j
            for k in range(system.num_modes):
                acc += (system.prior_var[k] * cmat[k, i] * np.conj(cmat[k, j])
                        * _cquad(lambda u: cmath.exp(lam[k] * u), 0, t)
                        * np.conj(_cquad(lambda v: cmath.exp(lam[k] * v), 0, t2)))
                for l in range(system.num_modes):
                    if mmat[k, l] == 0:
                        continue
                    acc += cmat[k, i] * np.conj(cmat[l, j]) * mmat[k, l] * _cquad(
                        lambda s: _i1(lam[k], t - s) * np.conj(_i1(lam[l], t2 - s)),
                        0, min(t, t2))
            out[i, j] = acc
    return out


def oracle_state_output_cross(system, t_state, t_obs):
    """Cov(z(t_state), Y(t_obs)) from the defining integrals."""
    lam = system.eigenvalues
    cmat = system.output_coeffs
    mmat = system.input_coeffs @ system.q_cov @ system.input_coeffs.conj().T
    out = np.zeros((system.num_modes, system.num_outputs), dtype=complex)
    for k in range(system.num_modes):
        for j in range(system.num_outputs):
            acc = (system.prior_var[k] * cmath.exp(lam[k] * t_state)
                   * np.conj(cmat[k, j]
                             * _cquad(lambda u: cmath.exp(lam[k] * u), 0, t_obs)))
            for l in range(system.num_modes):
                if mmat[k, l] == 0:
                    continue
                acc += mmat[k, l] * np.conj(cmat[l, j]) * _cquad(
                    lambda s: cmath.exp(lam[k] * (t_state - s))
                    * np.conj(_i1(lam[l], t_obs - s)),
                    0, min(t_state, t_obs))
            out[k, j] = acc
    return out


class TestPhiH:
    @pytest.mark.parametrize("lam, t, h, expected", PHI_H_FROZEN)
    def test_frozen_values(self, lam, t, h, expected):
        npt.assert_allclose(sk.phi_h(lam, t, h), expected, rtol=1e-12)

    def test_zero_mode_vanishes(self):
        assert sk.phi_h(0.0, 1.0, 0.25) == 0.0

    def test_array_arguments(self):
        lam = np.array([-1.0, -4.0, 2.0j])
        t = np.array([[0.5], [1.0]])
        out = sk.phi_h(lam, t, 0.25)
        assert out.shape == (2, 3)
        npt.assert_allclose(out[1, 0], sk.phi_h(-1.0, 1.0, 0.25), rtol=1e-15)

    def test_array_mesh_widths(self):
        # one width per row, as a dyadic chain takes a_l = phi_h(lam, h_l, h_l)
        lam = np.array([-1.0, -4.0, 2.0j])
        h = np.array([[0.25], [0.125]])
        out = sk.phi_h(lam, h, h)
        assert out.shape == (2, 3)
        for row, width in zip(out, h[:, 0]):
            npt.assert_array_equal(row, sk.phi_h(lam, width, width))

    @pytest.mark.parametrize("widths", [[0.25], [0.25, 0.125, 2.0 ** -20],
                                        [1.0, 1.0 / 3.0, 1e-9]])
    def test_the_mesh_point_form_is_phi_h_at_t_h(self, widths):
        # the unchecked form the dyadic rows and level sums take at t = h:
        # e^0 = 1 exactly, so the bits are those of phi_h(lam, h, h)
        lam = np.concatenate([sk.build_heat_model(8, 1.0).eigenvalues,
                              sk.build_wave_model(8).eigenvalues, [0.0]])
        h = np.array(widths)[:, None]
        npt.assert_array_equal(kernels._mesh_phi_h(lam, h),
                               sk.phi_h(lam, h, h))
        for width in widths:
            npt.assert_array_equal(kernels._mesh_phi_h(lam, width),
                                   sk.phi_h(lam, width, width))

    def test_needs_room_to_the_left(self):
        with pytest.raises(ValueError, match="0 < h <= t"):
            sk.phi_h(-1.0, 0.1, 0.25)
        for h in (np.array([0.1, 0.3]), np.array([0.1, -0.1]),
                  np.array([0.1, np.nan])):
            with pytest.raises(ValueError, match="0 < h <= t"):
                sk.phi_h(-1.0, 0.2, h)


class TestTransitionAgainstOracle:
    @pytest.mark.parametrize("h", [1e-3, 1e-1])
    @pytest.mark.parametrize("make", [driven_heat, driven_oscillator],
                             ids=["heat", "oscillator"])
    def test_entrywise_match(self, make, h):
        sysm = make()
        closed = sk.transition_block(sysm, h)
        oracle = sk.quadrature_oracle_transition(sysm, h)
        scale_f = np.abs(oracle.state_map).max()
        npt.assert_allclose(closed.state_map, oracle.state_map,
                            rtol=1e-10, atol=1e-13 * scale_f)
        scale_s = np.abs(oracle.noise_cov).max()
        npt.assert_allclose(closed.noise_cov, oracle.noise_cov,
                            rtol=1e-8, atol=1e-12 * scale_s)

    def test_wave_state_map(self):
        sysm = sk.build_wave_model(4, horizon=1.0)
        for h in (1e-3, 1e-1):
            closed = sk.transition_block(sysm, h)
            oracle = sk.quadrature_oracle_transition(sysm, h)
            npt.assert_allclose(closed.state_map, oracle.state_map,
                                rtol=1e-10, atol=1e-14)
            npt.assert_array_equal(closed.noise_cov, 0.0)


class TestTransitionStructure:
    def test_semigroup_composition(self):
        sysm = driven_heat()
        one = sk.transition_block(sysm, 0.3)
        two = sk.transition_block(sysm, 0.45)
        both = sk.transition_block(sysm, 0.75)
        npt.assert_allclose(two.state_map @ one.state_map, both.state_map,
                            rtol=1e-12, atol=1e-15)
        composed = (two.state_map @ one.noise_cov @ two.state_map.conj().T
                    + two.noise_cov)
        npt.assert_allclose(composed, both.noise_cov, rtol=1e-10,
                            atol=1e-15 * np.abs(both.noise_cov).max())

    def test_noise_cov_is_hermitian_psd(self):
        for sysm in (driven_heat(), driven_oscillator()):
            sig = sk.transition_block(sysm, 0.2).noise_cov
            npt.assert_array_equal(sig, sig.conj().T)
            eigs = np.linalg.eigvalsh(sig)
            assert eigs.min() >= -1e-13 * max(eigs.max(), 1e-30)

    def test_step_validation(self):
        sysm = driven_heat()
        for h in (0.0, -0.5, 2.0):
            with pytest.raises(ValueError, match="step"):
                sk.transition_block(sysm, h)

    def test_zero_mode_closed_forms(self):
        c, b, q, p, h = 2.0, 1.5, 0.7, 0.3, 0.4
        tr = sk.transition_block(single_zero_mode(c, b, q, p), h)
        npt.assert_allclose(tr.state_map, [[1.0, 0.0], [c * h, 1.0]], rtol=1e-14)
        qb = q * b * b
        expected = np.array([
            [qb * h, qb * c * h ** 2 / 2],
            [qb * c * h ** 2 / 2, qb * c ** 2 * h ** 3 / 3],
        ])
        npt.assert_allclose(tr.noise_cov, expected, rtol=1e-13)

    def test_dense_map_is_assembled_from_its_blocks(self):
        for sysm in (driven_heat(), driven_oscillator()):
            tr = sk.transition_block(sysm, 0.3)
            n, r = sysm.num_modes, sysm.num_outputs
            assert tr.decay.shape == (n,) and tr.output_map.shape == (r, n)
            expected = np.block([
                [np.diag(tr.decay), np.zeros((n, r))],
                [tr.output_map, np.eye(r)],
            ])
            npt.assert_array_equal(tr.state_map, expected)

    @pytest.mark.parametrize("make", [
        lambda: sk.build_heat_model(5, horizon=1.0, q_scalar=0.5),
        lambda: sk.build_wave_model(6),
    ], ids=["driven_heat", "wave"])
    def test_runtime_routes_never_assemble_the_dense_map(self, make, monkeypatch):
        def dense(self):
            raise AssertionError("state_map assembled on a runtime route")

        monkeypatch.setattr(sk.AugmentedTransition, "state_map", property(dense))
        sysm = make()
        times = np.arange(1, 8) / 8.0  # leaves a tail step
        _, outputs = sk.sample_path(sysm, times, seed=2)
        sk.sample_path(sysm, times, seed=2, trial=1)
        run = sk.sequential_filter(sysm, times, observations=outputs)
        assert run.final_mean.shape == (sysm.num_modes,)
        batch = sk.empirical_error(sysm, times, trials=50, seed=2)
        assert np.isfinite(batch.z_score)


def irregular_grid(points=32, seed=1):
    """The benchmark's seeded irregular grid on [0, 1], last point at 1."""
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.5, 1.5, points))
    times /= times[-1]
    times[-1] = 1.0
    return times


BATCH_MODELS = {
    "heat": lambda two: sk.build_heat_model(20, horizon=1.0),
    "wave": lambda two: sk.build_wave_model(12, horizon=1.0),
    "heat-driven": lambda two: sk.build_heat_model(20, horizon=1.0,
                                                   q_scalar=0.5),
    "two-outputs": lambda two: two(6, 0.5),
}


def assert_same_entry(stack, j, single):
    """Stack entry j's blocks equal, bit for bit, those of ``single``."""
    for name in ("decay", "output_map", "noise_cov"):
        npt.assert_array_equal(getattr(stack, name)[j], getattr(single, name))


def entry(stack, j):
    """Stack entry j as a transition of its own."""
    return kernels.AugmentedTransition(
        step=float(stack.step[j]), decay=stack.decay[j],
        output_map=stack.output_map[j], noise_cov=stack.noise_cov[j])


class TestBatchedTransitions:
    """``_transitions`` evaluates the kernels once per batch of widths."""

    @pytest.mark.parametrize("case", BATCH_MODELS)
    def test_agrees_with_per_width_evaluation(self, case, two_output_heat):
        sysm = BATCH_MODELS[case](two_output_heat)
        times = irregular_grid(12)[:-1]  # a tail step
        widths = np.concatenate([np.diff(times, prepend=0.0), [1.0 - times[-1]],
                                 np.diff(times, prepend=0.0)[:4]])  # repeats
        stack = kernels._transitions(sysm, widths)
        n, r = sysm.num_modes, sysm.num_outputs
        assert (stack.step.shape, stack.decay.shape, stack.output_map.shape,
                stack.noise_cov.shape) == ((widths.size,), (widths.size, n),
                                           (widths.size, r, n),
                                           (widths.size, n + r, n + r))
        for j, h in enumerate(widths):
            single = sk.transition_block(sysm, float(h))
            assert stack.step[j] == single.step == float(h)
            assert_same_entry(stack, j, single)

    def test_filter_plan_evaluates_once_per_batch(self, monkeypatch):
        sysm = sk.build_heat_model(20, horizon=1.0, q_scalar=0.5)
        times = irregular_grid()
        calls = {"batches": 0, "g3": 0}
        batch, g3 = kernels._transition_batch, kernels.coupled_g3

        def count(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        monkeypatch.setattr(kernels, "_transition_batch", count("batches", batch))
        monkeypatch.setattr(kernels, "coupled_g3", count("g3", g3))
        monkeypatch.setattr(kernels, "transition_block", None)
        run, stack, index, gains, tail = filter_core._filter_plan(sysm, times)
        # 32 distinct widths, no tail, one batch of at most 81 at N = 20
        assert stack.step.size == np.unique(index).size == 32 and tail is None
        assert gains.shape == (32, 20, 1)
        assert calls == {"batches": 1, "g3": 1}
        monkeypatch.setattr(kernels, "_KERNEL_ELEMENTS", 10 * 20 * 20)
        filter_core._filter_plan(sysm, times)
        assert calls == {"batches": 5, "g3": 5}  # 10 + 10 + 10 + 2 widths

    @pytest.mark.parametrize("case", BATCH_MODELS)
    def test_many_batches_give_the_same_transitions(self, case, two_output_heat,
                                                    monkeypatch):
        sysm = BATCH_MODELS[case](two_output_heat)
        times = irregular_grid()[:-1]
        run, stack, index, _, tail = filter_core._filter_plan(sysm, times)
        monkeypatch.setattr(kernels, "_KERNEL_ELEMENTS", 3 * sysm.num_modes ** 2)
        run3, stack3, index3, _, tail3 = filter_core._filter_plan(sysm, times)
        # every entry is read by a sample step or the tail
        assert tail == tail3 is not None
        npt.assert_array_equal(index3, index)
        assert set(index) | {tail} == set(range(stack.step.size))
        for j in range(stack.step.size):
            assert stack.step[j] == stack3.step[j]
            assert_same_entry(stack3, j, entry(stack, j))
        npt.assert_allclose(run3.trace_err, run.trace_err, rtol=1e-14)

    def test_equal_widths_share_one_transition(self):
        sysm = sk.build_heat_model(4, horizon=1.0, q_scalar=0.5)
        _, stack, index, _, tail = filter_core._filter_plan(
            sysm, np.array([0.25, 0.5, 0.75]))
        assert stack.step.size == 1 and tail == 0
        npt.assert_array_equal(index, [0, 0, 0])


def spy_kernels(monkeypatch):
    """Record (name, dtype, entries) of each scalar kernel call of the stack."""
    seen = []
    for name in ("phi1", "coupled_g2", "coupled_g3"):
        def spy(*args, name=name, fn=getattr(kernels, name)):
            seen.append((name, np.result_type(*args), np.broadcast(*args).size))
            return fn(*args)
        monkeypatch.setattr(kernels, name, spy)
    return seen


class TestKernelArguments:
    """What ``_transition_batch`` hands the scalar kernels, and what it makes.

    phi1(a + b) and G3(a, b) are Hermitian in the mode pair and evaluated on
    one triangle; G2 on all N^2.  A real spectrum passes float64 arguments;
    a complex one keeps them complex (``TestTransitionAgainstOracle`` holds
    the oscillator's stack to the quadrature oracle).
    """

    @pytest.mark.parametrize("make, dtype", [
        (lambda: driven_heat(20), np.float64),
        (driven_oscillator, np.complex128),
    ], ids=["heat", "oscillator"])
    def test_one_triangle_in_the_spectrum_dtype(self, make, dtype, monkeypatch):
        sysm = make()
        seen = spy_kernels(monkeypatch)
        widths = np.diff(irregular_grid(), prepend=0.0) * sysm.horizon
        kernels._transitions(sysm, widths)
        w, n = widths.size, sysm.num_modes
        assert seen == [("phi1", np.complex128, w * n),  # the output map
                        ("phi1", dtype, w * n * (n + 1) // 2),
                        ("coupled_g2", dtype, w * n * n),
                        ("coupled_g3", dtype, w * n * (n + 1) // 2)]

    def test_real_spectrum_matches_the_complex_formula(self):
        sysm = driven_heat(20)
        widths = np.concatenate([np.diff(irregular_grid(), prepend=0.0),
                                 2.0 ** -np.arange(2, 17)])
        stack = kernels._transitions(sysm, widths)
        # the kernels on complex arguments, over all N^2 entries
        lam, cmat = sysm.eigenvalues, sysm.output_coeffs
        assert lam.dtype == np.complex128
        h = widths[:, None, None]
        a, b = lam[:, None] * h, lam.conj() * h
        bq = sysm.input_coeffs @ sysm.q_cov @ sysm.input_coeffs.conj().T
        szy = (bq * h ** 2 * _scalars.coupled_g2(a, b)) @ cmat.conj()
        syy = cmat.T @ (bq * h ** 3 * _scalars.coupled_g3(a, b)) @ cmat.conj()
        sig = np.block([[bq * h * _scalars.phi1(a + b), szy],
                        [szy.conj().swapaxes(1, 2), syy]])
        sig = (sig + sig.conj().swapaxes(1, 2)) / 2
        col = widths[:, None]
        out = cmat.T * (col * _scalars.phi1(lam * col))[:, None, :]
        for j in range(widths.size):
            for got, want in ((stack.noise_cov[j], sig[j]),
                              (stack.output_map[j], out[j])):
                npt.assert_allclose(got, want, rtol=0,
                                    atol=1e-15 * np.abs(want).max())
            npt.assert_array_equal(stack.decay[j], np.exp(lam * widths[j]))


class TestUnconditionalCovariance:
    def test_matches_single_step_propagation(self):
        for sysm in (driven_heat(), driven_oscillator()):
            t = 0.7
            tr = sk.transition_block(sysm, t)
            base = np.zeros_like(tr.noise_cov)
            np.fill_diagonal(base[:sysm.num_modes, :sysm.num_modes],
                             sysm.prior_var)
            expected = tr.state_map @ base @ tr.state_map.conj().T + tr.noise_cov
            npt.assert_allclose(sk.augmented_covariance(sysm, t), expected,
                                rtol=1e-12, atol=1e-15)

    def test_zero_time_returns_prior(self):
        sysm = driven_heat()
        cov = sk.augmented_covariance(sysm, 0.0)
        npt.assert_array_equal(np.diag(cov),
                               np.concatenate([sysm.prior_var, [0.0]]))

    def test_zero_mode_growth(self):
        c, b, q, p, t = 2.0, 1.5, 0.7, 0.3, 1.3
        cov = sk.augmented_covariance(single_zero_mode(c, b, q, p), t)
        qb = q * b * b
        npt.assert_allclose(cov[0, 0], p + qb * t, rtol=1e-13)
        npt.assert_allclose(cov[0, 1], c * (p * t + qb * t ** 2 / 2), rtol=1e-13)
        npt.assert_allclose(cov[1, 1],
                            c ** 2 * (p * t ** 2 + qb * t ** 3 / 3), rtol=1e-13)


@pytest.fixture(params=["heat", "oscillator", "two_output_heat"])
def driven_model(request, two_output_heat):
    """Driven models for the quadrature checks, r = 2 included."""
    if request.param == "two_output_heat":
        return two_output_heat(3, 0.5)
    return {"heat": driven_heat, "oscillator": driven_oscillator}[request.param]()


def output_blocks(system, times):
    """Blocks of ``_output_gram`` on ``times``, less the noise R min(t, t').

    Returns (cov, cross): cov[i][j] is Cov(Y(t_i), Y(t_j)) and cross[i] is
    Cov(z(T), Y(t_i)), (r, r) and (N, r) each.
    """
    times = np.asarray(times, dtype=float)
    gram, cross = _output_gram(system, times)
    r = system.num_outputs
    cov = [[gram[i * r:(i + 1) * r, j * r:(j + 1) * r]
            - system.r_cov * min(ti, tj)
            for j, tj in enumerate(times)] for i, ti in enumerate(times)]
    return cov, [cross[:, i * r:(i + 1) * r] for i in range(times.size)]


class TestOutputKernels:
    def test_output_covariance_against_quadrature(self, driven_model):
        # both orders: the (0.7, 0.3) block is the conjugate transpose of
        # the (0.3, 0.7) one in the gram, and the oracle integrates it anew
        times = (0.3, 0.7)
        cov, _ = output_blocks(driven_model, times)
        for i, j in ((0, 1), (1, 0)):
            want = oracle_output_covariance(driven_model, times[i], times[j])
            npt.assert_allclose(cov[i][j], want, rtol=1e-8, atol=1e-13)

    def test_state_output_cross_against_quadrature(self, driven_model):
        _, cross = output_blocks(driven_model, [0.3, 0.7])
        want = oracle_state_output_cross(driven_model, driven_model.horizon, 0.7)
        npt.assert_allclose(cross[1], want, rtol=1e-8, atol=1e-13)

    def test_exchange_symmetry(self):
        cov, _ = output_blocks(driven_heat(), (0.3, 0.7))
        npt.assert_allclose(cov[0][1], cov[1][0].conj().T, rtol=1e-12)

    def test_equal_times_match_augmented_block(self):
        # with the horizon at the sample time, z(T) is z(t) itself
        sysm = dataclasses.replace(driven_oscillator(), horizon=0.6)
        n = sysm.num_modes
        aug = sk.augmented_covariance(sysm, 0.6)
        cov, cross = output_blocks(sysm, [0.6])
        npt.assert_allclose(cov[0][0], aug[n:, n:], rtol=1e-11, atol=1e-15)
        npt.assert_allclose(cross[0], aug[:n, n:], rtol=1e-11, atol=1e-15)

    def test_zero_mode_closed_forms(self):
        c, b, q, p = 2.0, 1.5, 0.7, 0.3
        sysm = single_zero_mode(c, b, q, p)
        t, t2 = 0.8, 1.3
        qb = q * b * b
        cov, cross = output_blocks(sysm, [t, t2])
        want_yy = c ** 2 * (p * t * t2 + qb * (t ** 2 * t2 / 2 - t ** 3 / 6))
        npt.assert_allclose(cov[0][1][0, 0], want_yy, rtol=1e-13)
        # the zero mode neither decays nor forgets: Cov(z(T), Y(t)) = Cov(z(t), Y(t))
        want_cross = c * (p * t + qb * t ** 2 / 2)
        npt.assert_allclose(cross[0][0, 0], want_cross, rtol=1e-13)


class TestOracleFailureReporting:
    def test_unresolvable_oscillation_names_the_entry(self):
        fast = sk.ModalSystem(
            eigenvalues=np.array([3e8j, -3e8j]),
            output_coeffs=np.array([[1.0j], [-1.0j]]),
            input_coeffs=np.zeros((2, 1), complex),
            prior_mean=np.zeros(2, complex),
            prior_var=np.ones(2),
            q_cov=np.array([[0.0]]),
            r_cov=np.array([[1.0]]),
            horizon=1.0,
            pairing=np.array([1, 0]),
        )
        with pytest.raises(NumericalError, match="state_map"):
            sk.quadrature_oracle_transition(fast, 1.0)
