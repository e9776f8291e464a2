"""Cancellation-safe exponential moment integrals.

The closed-form transition and covariance kernels all reduce to three
dimensionless integrals (callers pass ``a = alpha*h``, ``b = beta*h`` and
scale by powers of the step ``h``):

    phi1(a)   = int_0^1 e^(a s) ds = (e^a - 1)/a
    G2(a, b)  = int_0^1 e^(a s) * (e^(b s) - 1)/b ds
    G3(a, b)  = int_0^1 (e^(a s) - 1)/a * (e^(b s) - 1)/b ds

phi1 is expm1(a)/a everywhere: numpy's complex expm1 forms its real part as
expm1(Re a) cos(Im a) - 2 sin^2(Im a / 2), which keeps relative accuracy
near a = 0 and near the zeros 2 pi i k of e^a - 1 alike.  G2 and G3 have
removable singularities (a -> 0, b -> 0) where the textbook closed forms
cancel catastrophically.  Branch layout, elementwise:

* both arguments inside the unit disc: truncated double power series (exact to
  ~1e-18 relative, no cancellation) over one coefficient table per kernel
  built at import, evaluated by Horner in b along each row, then in a; the
  row polynomials are evaluated once per distinct b of the batch and
  gathered, which changes no value, as each is still a function of its own b;
* one argument at most half the other in modulus: a rearranged closed form
  without the division by the small argument (the difference quotient
  (phi1(a+b) - phi1(a))/b loses a factor |a|/|b| to cancellation);
* otherwise: the direct closed form, which is then safe because the two
  arguments are within a factor two of each other and one exceeds 1; its
  e^(a+b) is formed as e^a e^b, since the exponential of the rounded sum
  loses eps |a+b| on the imaginary axis.

phi2(x) = G2(0, x) takes its single series by Horner for |x| <= 1.  Every
step is an elementwise numpy operation, so each value is a function of its
own arguments alone: an entry of a batch equals, bit for bit, the same
argument evaluated on its own.  All functions accept scalars or arrays and
broadcast.  Results take the kind of the arguments: real ones are evaluated
in float64, and complex if any argument is complex.  The real line needs no
complex arithmetic: every branch is a polynomial, a quotient or exp/expm1 of
its arguments, with no branch cut, and on real arguments it keeps the
accuracy it has off the axis.
"""

from __future__ import annotations

from math import factorial

import numpy as np

_SERIES_RADIUS = 1.0
_RATIO = 0.5
_SERIES_TERMS = 30
_DOUBLE_TERMS = 22

__all__ = ["phi1", "coupled_g2", "coupled_g3"]


def phi1(x):
    """(e^x - 1)/x with the removable limit 1 at x = 0, elementwise."""
    x = np.asarray(x)
    x = x.astype(np.promote_types(x.dtype, float), copy=False)
    return np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0)[()]


def _phi2(x):
    """(e^x - 1 - x)/x^2 = int_0^1 (e^(x s) - 1)/x ds = G2(0, x), elementwise."""
    out = np.empty_like(x)
    small = np.abs(x) <= _SERIES_RADIUS
    if np.any(small):
        out[small] = _horner(_PHI2_TABLE, x[small])
    big = ~small
    if np.any(big):
        out[big] = (phi1(x[big]) - 1.0) / x[big]
    return out


def _series_table(s_a: int, s_b: int, s: int, terms_b: int) -> np.ndarray:
    """c[i, j] = 1 / ((i + s_a)! (j + s_b)! (i + j + s)), exact to rounding."""
    return np.array([[1.0 / (factorial(i + s_a) * factorial(j + s_b) * (i + j + s))
                      for j in range(terms_b)] for i in range(_DOUBLE_TERMS)])


# G2 = sum_{i, j >= 0} a^i b^j / (i! (j+1)! (i+j+2))
_G2_TABLE = _series_table(0, 1, 2, _DOUBLE_TERMS - 1)
# G3 = sum_{i, j >= 0} a^i b^j / ((i+1)! (j+1)! (i+j+3))
_G3_TABLE = _series_table(1, 1, 3, _DOUBLE_TERMS)
# phi2 = sum_{m >= 0} x^m / (m+2)!
_PHI2_TABLE = np.array([1.0 / factorial(m + 2) for m in range(_SERIES_TERMS)])


def _horner(coeffs: np.ndarray, x):
    """sum_k coeffs[k] x^k by Horner over the leading axis of ``coeffs``."""
    out = coeffs[-1]
    for c in coeffs[-2::-1]:
        # the product out of place: numpy's in-place complex product rounds
        # an element differently depending on where it sits in the array.
        # A sum rounds alike anywhere; in place it holds one temporary less.
        out = out * x
        out += c
    return out


def _double_series(table: np.ndarray, a, b):
    """sum_{i, j} table[i, j] a^i b^j: each row's polynomial in b, then in a.

    The row polynomials are evaluated once per distinct b and gathered back,
    since a kernel batch holds each b for many a.
    """
    distinct, where = np.unique(b, return_inverse=True)
    rows = _horner(table.T[:, :, None], distinct)
    return _horner(rows[:, where], a)


def _phi1_of_sum(a, b):
    """phi1(a + b) with e^(a+b) formed as e^a e^b where |a + b| >= 0.5.

    e^(a+b) of the rounded sum is off by eps |a+b| relative; the product of
    the two exponentials is not.  Below 0.5, e^a e^b - 1 would cancel, so
    expm1 takes the sum itself (wave conjugate pairs give a + b = 0 exactly).
    """
    total = a + b
    out = np.empty_like(total)
    near = np.abs(total) < 0.5
    out[near] = phi1(total[near])
    far = ~near
    out[far] = (np.exp(a[far]) * np.exp(b[far]) - 1.0) / total[far]
    return out


def _flat_pair(a, b):
    """a and b in float64, or complex if either is, broadcast together and
    raveled, and their shape."""
    dtype = np.result_type(np.asarray(a), np.asarray(b), float)
    a, b = np.broadcast_arrays(np.asarray(a, dtype=dtype),
                               np.asarray(b, dtype=dtype))
    return a.ravel(), b.ravel(), a.shape


def coupled_g2(a, b):
    """G2(a, b) = int_0^1 e^(a s) (e^(b s) - 1)/b ds, elementwise."""
    a, b, shape = _flat_pair(a, b)
    out = np.empty_like(a)

    inside = (np.abs(a) <= _SERIES_RADIUS) & (np.abs(b) <= _SERIES_RADIUS)
    small_b = ~inside & (np.abs(b) <= _RATIO * np.abs(a))
    direct = ~inside & ~small_b

    if np.any(inside):
        out[inside] = _double_series(_G2_TABLE, a[inside], b[inside])
    if np.any(small_b):
        # (e^a (a phi1(b) - 1) + 1) / (a (a + b)): no 1/b, and |a + b| >= |a|/2
        asub, bsub = a[small_b], b[small_b]
        ea = np.exp(asub)
        out[small_b] = (ea * (asub * phi1(bsub) - 1.0) + 1.0) / (asub * (asub + bsub))
    if np.any(direct):
        asub, bsub = a[direct], b[direct]
        out[direct] = (_phi1_of_sum(asub, bsub) - phi1(asub)) / bsub
    return out.reshape(shape)[()]


def coupled_g3(a, b):
    """G3(a, b) = int_0^1 phi1(a s) s phi1(b s) s ds, symmetric, elementwise."""
    a, b, shape = _flat_pair(a, b)
    out = np.empty_like(a)

    inside = (np.abs(a) <= _SERIES_RADIUS) & (np.abs(b) <= _SERIES_RADIUS)
    small_b = ~inside & (np.abs(b) <= _RATIO * np.abs(a))
    small_a = ~inside & ~small_b & (np.abs(a) <= _RATIO * np.abs(b))
    direct = ~(inside | small_b | small_a)

    if np.any(inside):
        out[inside] = _double_series(_G3_TABLE, a[inside], b[inside])
    for mask, big, small in ((small_b, a, b), (small_a, b, a)):
        if np.any(mask):
            # G3(a, b) = (G2(a, b) - G2(0, b)) / a, both terms accurate here
            xbig, xsml = big[mask], small[mask]
            out[mask] = (coupled_g2(xbig, xsml) - _phi2(xsml)) / xbig
    if np.any(direct):
        asub, bsub = a[direct], b[direct]
        out[direct] = (_phi1_of_sum(asub, bsub) - phi1(asub) - phi1(bsub)
                       + 1.0) / (asub * bsub)
    return out.reshape(shape)[()]
