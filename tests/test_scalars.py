"""Branch-accurate checks of the exponential moment integrals.

Reference values were computed once with mpmath (50 significant digits)
directly from the defining integrals and frozen below; the points are chosen
to land in each evaluation branch (double series, rearranged form for one
argument small against the other, direct closed form) and on the radius
boundaries between them.  ``TestAgainstMpmath`` evaluates mpmath at test time
on both sides of every seam, and ``TestRealArguments`` does the same for
float64 arguments, which the kernels evaluate in float64.
"""

import mpmath
import numpy as np
import numpy.testing as npt
import pytest

from sampledkf._scalars import _phi2, coupled_g2, coupled_g3, phi1

# int_0^1 e^(x s) ds
PHI1_TABLE = {
    0.4999: 1.2973722880903975,
    0.5000001: 1.2974426116560045,
    -0.3 + 0.2j: 0.8586170655764176 + 0.08181850990552883j,
    3.0 - 2.0j: 0.6501427791174936 - 5.654480494143926j,
    -40.0: 0.025,
    1e-6j: 0.9999999999998334 + 4.999999999999583e-07j,
}

# G2(a, b) = int_0^1 e^(a s)(e^(b s)-1)/b ds
G2_TABLE = {
    (0.3, -0.4): 0.5364255140323485,
    (5.0, 1e-5): 23.786206297653475,
    (3.0 + 1.0j, -2.0): 1.6338968071135165 + 1.5879310477468769j,
    (-8.0, 0.01): 0.01559711159266843,
    (-0.9999, 0.9999): 0.36788980523716736,
}

# G3(a, b) = int_0^1 (e^(a s)-1)/a (e^(b s)-1)/b ds
G3_TABLE = {
    (0.2, 0.9): 0.5176338181049635,
    (7.0, 1e-4): 19.115416771806537,
    (-3.0 + 2.0j, 5.0 - 1.0j): 1.5210205664058594 - 0.22611364912622184j,
    (40.0, -40.0): 3677894794328.436,
}


class TestPhi1:
    def test_removable_limit(self):
        assert phi1(0.0) == 1.0

    @pytest.mark.parametrize("x", sorted(PHI1_TABLE, key=str))
    def test_frozen_values(self, x):
        npt.assert_allclose(phi1(x), PHI1_TABLE[x], rtol=5e-14)

    def test_branch_seam_is_continuous(self):
        # series inside |x| < 0.5, direct outside; the function itself moves
        # by ~|phi1'| * 2e-13 between the probe points, so any branch jump
        # beyond that shows up against the tolerance
        left = phi1(0.5 * np.exp(1j * 0.3) * (1 - 1e-13))
        right = phi1(0.5 * np.exp(1j * 0.3) * (1 + 1e-13))
        npt.assert_allclose(left, right, rtol=1e-12)

    def test_seeded_sweep_within_1e15(self):
        # the tabled series inside |x| < 0.5, the closed form outside
        x = _annulus_sweep(0.4, 0.6, seed=31)
        assert np.any(np.abs(x) < 0.5) and np.any(np.abs(x) >= 0.5)
        npt.assert_allclose(phi1(x), [_mp_exact(_mp_phi1, v) for v in x],
                            rtol=1e-15, atol=0)

    def test_broadcasting(self):
        x = np.array([[0.0, -1.0], [2.0j, -30.0]])
        out = phi1(x)
        assert out.shape == x.shape
        npt.assert_allclose(out[0, 0], 1.0, rtol=1e-15)


class TestCoupledIntegrals:
    @pytest.mark.parametrize("ab", sorted(G2_TABLE, key=str))
    def test_g2_frozen(self, ab):
        npt.assert_allclose(coupled_g2(*ab), G2_TABLE[ab], rtol=5e-13)

    @pytest.mark.parametrize("ab", sorted(G3_TABLE, key=str))
    def test_g3_frozen(self, ab):
        npt.assert_allclose(coupled_g3(*ab), G3_TABLE[ab], rtol=5e-13)
        # G3 is symmetric in its arguments by definition
        npt.assert_allclose(coupled_g3(ab[1], ab[0]), G3_TABLE[ab], rtol=5e-13)

    def test_limits(self):
        npt.assert_allclose(coupled_g2(0.0, 0.0), 0.5, rtol=1e-13)
        npt.assert_allclose(coupled_g3(0.0, 0.0), 1 / 3, rtol=1e-13)
        # b -> 0 collapses G2 onto the first moment of e^(a s),
        # g1(a) = (e^a (a - 1) + 1)/a^2; the linear correction is ~3e-13 here
        npt.assert_allclose(coupled_g2(4.0, 1e-12), (3 * np.exp(4.0) + 1) / 16,
                            rtol=1e-11)

    def test_array_mix_of_branches(self):
        a = np.array([0.3, 5.0, 3.0 + 1.0j, -8.0])
        b = np.array([-0.4, 1e-5, -2.0, 0.01])
        expected = [G2_TABLE[(0.3, -0.4)], G2_TABLE[(5.0, 1e-5)],
                    G2_TABLE[(3.0 + 1.0j, -2.0)], G2_TABLE[(-8.0, 0.01)]]
        npt.assert_allclose(coupled_g2(a, b), expected, rtol=5e-13)


def _mp_phi1(x):
    return mpmath.mpf(1) if x == 0 else mpmath.expm1(x) / x


def _mp_phi2(x):
    return mpmath.mpf(1) / 2 if x == 0 else (mpmath.expm1(x) - x) / x ** 2


def _mp_exact(f, x):
    with mpmath.workdps(50):
        return complex(f(mpmath.mpc(x)))


def _annulus_sweep(r_lo, r_hi, count=400, seed=0):
    """Seeded points with modulus uniform in [r_lo, r_hi] and any argument."""
    rng = np.random.default_rng(seed)
    radius = rng.uniform(r_lo, r_hi, count)
    return radius * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, count))


def _mp_g2(a, b):
    with mpmath.workdps(50):
        a, b = mpmath.mpc(a), mpmath.mpc(b)
        return complex((_mp_phi1(a + b) - _mp_phi1(a)) / b)


def _mp_g3(a, b):
    with mpmath.workdps(50):
        a, b = mpmath.mpc(a), mpmath.mpc(b)
        return complex((_mp_phi1(a + b) - _mp_phi1(a) - _mp_phi1(b) + 1) / (a * b))


_HEAT_WAVE = -271.0 - 128.0j
# (a, b) pairs straddling every seam: |b| = 1e-3 (the old tiny-argument
# cutoff), the series radius |a| = 1 and |b| = 1, and the phi1 split at 0.5
# both in phi1(b) and in phi1(a + b); the first three are where the
# difference quotient (phi1(a+b) - phi1(a))/b lost up to 1e-10
SEAM_POINTS = [
    (_HEAT_WAVE, -1.1e-3 + 2e-4j),
    (_HEAT_WAVE, 1.1e-3),
    (-30.0, 1.2e-3),
    (_HEAT_WAVE, 0.999e-3j),
    (_HEAT_WAVE, 1.001e-3j),
    (-30.0, 0.999e-3),
    (22.0 - 20.0j, -1.001e-3),
    (40.0j, -0.999e-3 + 1e-5j),
    (0.999 * np.exp(0.7j), 0.3),
    (1.001 * np.exp(0.7j), 0.3),
    (0.8j, 0.999),
    (0.8j, 1.001),
    (-30.0, 0.4999j),
    (-30.0, 0.5001j),
    (1.5, -1.0001),
    (1.5, -0.9999),
    (5.0j, -5.0j),
]


class TestAgainstMpmath:
    @pytest.mark.parametrize("ab", SEAM_POINTS, ids=str)
    def test_g2_within_1e14(self, ab):
        npt.assert_allclose(coupled_g2(*ab), _mp_g2(*ab), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("ab", SEAM_POINTS, ids=str)
    def test_g3_within_1e14_both_orders(self, ab):
        want = _mp_g3(*ab)
        npt.assert_allclose(coupled_g3(*ab), want, rtol=1e-14, atol=0)
        npt.assert_allclose(coupled_g3(ab[1], ab[0]), want, rtol=1e-14, atol=0)

    def test_phi2_seeded_sweep_within_1e15(self):
        # phi2 = G2(0, x): the tabled series for |x| <= 1, (phi1 - 1)/x outside
        x = _annulus_sweep(0.9, 1.1, seed=32)
        assert np.any(np.abs(x) <= 1.0) and np.any(np.abs(x) > 1.0)
        npt.assert_allclose(_phi2(x), [_mp_exact(_mp_phi2, v) for v in x],
                            rtol=1e-15, atol=0)

    @pytest.mark.parametrize("delta", [1e-9, 3e-7, 1e-6, -1e-6])
    def test_phi1_next_to_its_zeros_within_1e15(self, delta):
        # e^x - 1 vanishes at x = 2 pi i k: wave widths near a whole number
        # of periods land there, and e^(iy) - 1 formed directly cancels
        x = 1j * (2 * np.pi * np.arange(1, 101) + delta)
        with mpmath.workdps(40):
            want = [complex(_mp_phi1(mpmath.mpc(v))) for v in x]
        npt.assert_allclose(phi1(x), want, rtol=1e-15, atol=0)


def _nudged(x, steps=(-3, -1, 1, 3)):
    """x moved by each number of ulps in ``steps`` (negative: towards -inf)."""
    out = []
    for step in steps:
        v = float(x)
        for _ in range(abs(step)):
            v = np.nextafter(v, np.copysign(np.inf, step))
        out.append(float(v))
    return out


def _real_seam_points():
    """Real (a, b) pairs of both signs a few ulp either side of every seam.

    |a| = 1 and |b| = 1 (the series radius), |b| = 0.5 |a| (the ratio; G3's
    |a| = 0.5 |b| follows by swapping) and |a + b| = 0.5 (the split inside
    ``_phi1_of_sum``, reached where the direct form applies).
    """
    points = []
    for sa in (1.0, -1.0):
        for sb in (1.0, -1.0):
            points += [(sa * v, sb * 0.3) for v in _nudged(1.0)]
            points += [(sa * 0.8, sb * v) for v in _nudged(1.0)]
            points += [(sa * 3.0, sb * v) for v in _nudged(1.5)]
            points += [(sa * 7.0, sb * v) for v in _nudged(3.5)]
        # a + b = +/-0.5 with |a|, |b| > 1 and within a factor two
        points += [(sa * 2.5, -sa * v) for v in _nudged(2.0)]
        points += [(sa * 1.3, -sa * v) for v in _nudged(1.8)]
    return points


def _heat_pairs():
    """(lambda_k h, lambda_l h) of the heat spectrum lambda = -(pi k)^2, h
    from T/4 to 2^-16 (T = 1), as two flat arrays."""
    lam = -(np.pi * np.array([1, 2, 3, 5, 8, 13, 20, 60])) ** 2
    h = 2.0 ** -np.arange(2, 17)
    a, b = np.broadcast_arrays(lam[:, None] * h[:, None, None],
                               lam * h[:, None, None])
    return a.ravel(), b.ravel()


def _mp_real(f, *args):
    with mpmath.workdps(50):
        return float(f(*[mpmath.mpf(float(v)) for v in args]))


def _mp_g2_real(a, b):
    return (_mp_phi1(a + b) - _mp_phi1(a)) / b


def _mp_g3_real(a, b):
    return (_mp_phi1(a + b) - _mp_phi1(a) - _mp_phi1(b) + 1) / (a * b)


REAL_SEAM_POINTS = _real_seam_points()


class TestRealArguments:
    """float64 arguments are evaluated in float64, to the complex accuracy."""

    @pytest.mark.parametrize("name", ["phi1", "phi2", "G2", "G3"])
    def test_float64_in_float64_out(self, name):
        a, b = np.array([-3.0, 0.2, 0.0, 40.0]), np.array([0.4, -0.9, 0.0, -39.0])
        assert KERNELS[name](a, b).dtype == np.float64
        assert KERNELS[name](a.astype(complex), b).dtype == np.complex128
        if name in ("G2", "G3"):
            assert KERNELS[name](a, b.astype(complex)).dtype == np.complex128

    @pytest.mark.parametrize("ab", REAL_SEAM_POINTS, ids=str)
    def test_g2_g3_at_the_seams_within_1e14(self, ab):
        a, b = np.array([ab[0]]), np.array([ab[1]])
        npt.assert_allclose(coupled_g2(a, b), _mp_real(_mp_g2_real, *ab),
                            rtol=1e-14, atol=0)
        want = _mp_real(_mp_g3_real, *ab)
        npt.assert_allclose(coupled_g3(a, b), want, rtol=1e-14, atol=0)
        npt.assert_allclose(coupled_g3(b, a), want, rtol=1e-14, atol=0)

    def test_phi1_and_phi2_at_the_seams_within_1e15(self):
        x = np.array(sorted({v for ab in REAL_SEAM_POINTS
                             for v in (ab[0], ab[1], ab[0] + ab[1])}))
        npt.assert_allclose(phi1(x), [_mp_real(_mp_phi1, v) for v in x],
                            rtol=1e-15, atol=0)
        npt.assert_allclose(_phi2(x), [_mp_real(_mp_phi2, v) for v in x],
                            rtol=1e-15, atol=0)

    def test_heat_arguments(self):
        a, b = _heat_pairs()
        for x in (a, a + b):
            npt.assert_allclose(phi1(x), [_mp_real(_mp_phi1, v) for v in x],
                                rtol=1e-15, atol=0)
        npt.assert_allclose(coupled_g2(a, b),
                            [_mp_real(_mp_g2_real, *p) for p in zip(a, b)],
                            rtol=1e-14, atol=0)
        want = [_mp_real(_mp_g3_real, *p) for p in zip(a, b)]
        npt.assert_allclose(coupled_g3(a, b), want, rtol=1e-14, atol=0)
        npt.assert_allclose(coupled_g3(b, a), want, rtol=1e-14, atol=0)


def _imaginary_axis_sweep(count=300, seed=20):
    rng = np.random.default_rng(seed)
    return [(1j * x, 1j * y) for x, y in rng.uniform(-500.0, 500.0, (count, 2))]


class TestImaginaryAxis:
    """Wave-like arguments far out on the imaginary axis.

    e^(a+b) of the rounded sum loses eps |a+b| relative, 6.0e-14 at the
    first point; the direct branch forms it as e^a e^b instead.
    """

    def test_g2_far_imaginary_point(self):
        a, b = 420.13j, 258.07j
        npt.assert_allclose(coupled_g2(a, b), _mp_g2(a, b), rtol=1e-14, atol=0)

    def test_seeded_sweep_within_1e14(self):
        points = _imaginary_axis_sweep()
        a = np.array([p[0] for p in points])
        b = np.array([p[1] for p in points])
        npt.assert_allclose(coupled_g2(a, b), [_mp_g2(*p) for p in points],
                            rtol=1e-14, atol=0)
        want = [_mp_g3(*p) for p in points]
        npt.assert_allclose(coupled_g3(a, b), want, rtol=1e-14, atol=0)
        npt.assert_allclose(coupled_g3(b, a), want, rtol=1e-14, atol=0)


def _branch_pool(rng, count=60):
    """Seeded (a, b) pairs in every branch of the kernels.

    Both inside the unit disc, one small against the other (either way
    round), both outside and within a factor two (the direct form), far out
    on the imaginary axis, and zeros.
    """
    def disc(lo, hi, size):
        return rng.uniform(lo, hi, size) * np.exp(2j * np.pi * rng.uniform(0, 1, size))

    big = disc(1.0, 50.0, count)
    small = big * rng.uniform(1e-9, 0.5, count) * np.exp(1j * rng.uniform(0, 6.3, count))
    a = np.concatenate([disc(0.0, 1.0, count), big, small, big,
                        1j * rng.uniform(-500.0, 500.0, count), [0.0, 0.0, 0.5]])
    b = np.concatenate([disc(0.0, 1.0, count), small, big,
                        big * rng.uniform(0.5, 2.0, count),
                        1j * rng.uniform(-500.0, 500.0, count), [0.0, 0.7, 0.0]])
    return a, b


def _real_branch_pool(rng, count=60):
    """Seeded real (a, b) pairs of both signs in every branch of the kernels,
    heat arguments and zeros among them."""
    def signed(lo, hi, size):
        return rng.uniform(lo, hi, size) * rng.choice([-1.0, 1.0], size)

    big = signed(1.0, 50.0, count)
    small = big * signed(1e-9, 0.5, count)
    ha, hb = _heat_pairs()
    heat = rng.integers(0, ha.size, count)
    a = np.concatenate([signed(0.0, 1.0, count), big, small, big, ha[heat],
                        [0.0, 0.0, 0.5]])
    b = np.concatenate([signed(0.0, 1.0, count), small, big,
                        big * signed(0.5, 2.0, count), hb[heat], [0.0, 0.7, 0.0]])
    return a, b


# each kernel as a function of (a, b); phi1 and phi2 read a alone
KERNELS = {
    "phi1": lambda a, b: phi1(a),
    "phi2": lambda a, b: _phi2(a),
    "G2": coupled_g2,
    "G3": coupled_g3,
}


class TestBatchIndependence:
    """Each kernel value is a function of its own arguments alone.

    Batches of every size from 1 to 1000 are drawn from a seeded pool of
    arguments, each at random positions, and every entry must equal, bit for
    bit, its value computed on that argument alone.  A table applied as a
    BLAS product, or an in-place complex product, rounds an entry
    differently depending on where it sits in the batch.
    """

    @pytest.mark.parametrize("name", KERNELS)
    def test_batch_entries_equal_lone_values(self, name):
        kernel = KERNELS[name]
        rng = np.random.default_rng(41)
        a, b = _branch_pool(rng)
        alone = np.array([kernel(a[i:i + 1], b[i:i + 1])[0] for i in range(a.size)])
        for size in range(1, 1001):
            pick = rng.integers(0, a.size, size)
            npt.assert_array_equal(kernel(a[pick], b[pick]), alone[pick],
                                   err_msg=f"batch of {size}")

    @pytest.mark.parametrize("name", KERNELS)
    def test_float64_batch_entries_equal_lone_values(self, name):
        kernel = KERNELS[name]
        rng = np.random.default_rng(42)
        a, b = _real_branch_pool(rng)
        alone = np.array([kernel(a[i:i + 1], b[i:i + 1])[0] for i in range(a.size)])
        assert alone.dtype == np.float64
        for size in range(1, 1001):
            pick = rng.integers(0, a.size, size)
            npt.assert_array_equal(kernel(a[pick], b[pick]), alone[pick],
                                   err_msg=f"batch of {size}")
