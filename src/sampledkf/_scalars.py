"""Cancellation-safe exponential moment integrals.

The closed-form transition and covariance kernels all reduce to three
dimensionless integrals (callers pass ``a = alpha*h``, ``b = beta*h`` and
scale by powers of the step ``h``):

    phi1(a)   = int_0^1 e^(a s) ds = (e^a - 1)/a
    G2(a, b)  = int_0^1 e^(a s) * (e^(b s) - 1)/b ds
    G3(a, b)  = int_0^1 (e^(a s) - 1)/a * (e^(b s) - 1)/b ds

Each has removable singularities (a -> 0, b -> 0) where the textbook closed
forms cancel catastrophically.  Branch layout, elementwise:

* both arguments inside the unit disc: truncated double power series (exact to
  ~1e-18 relative, no cancellation), one coefficient table per kernel built
  at import and applied to power matrices of a and b;
* one argument at most half the other in modulus: a rearranged closed form
  without the division by the small argument (the difference quotient
  (phi1(a+b) - phi1(a))/b loses a factor |a|/|b| to cancellation);
* otherwise: the direct closed form, which is then safe because the two
  arguments are within a factor two of each other and one exceeds 1; its
  e^(a+b) is formed as e^a e^b, since the exponential of the rounded sum
  loses eps |a+b| on the imaginary axis.

The single series of phi1 (|x| < 0.5) and of phi2(x) = G2(0, x) (|x| <= 1)
are coefficient tables too.  All functions accept scalars or arrays and
broadcast; results are complex.
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
    x = np.asarray(x, dtype=complex)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    small = np.abs(x) < 0.5
    if np.any(small):
        out[small] = _powers(x[small], _SERIES_TERMS) @ _PHI1_TABLE
    big = ~small
    if np.any(big):
        xb = x[big]
        out[big] = np.expm1(xb.real) * np.exp(1j * xb.imag) / xb \
            + (np.exp(1j * xb.imag) - 1.0) / xb
    return out[0] if scalar else out


def _phi2(x):
    """(e^x - 1 - x)/x^2 = int_0^1 (e^(x s) - 1)/x ds = G2(0, x), elementwise."""
    out = np.empty_like(x)
    small = np.abs(x) <= _SERIES_RADIUS
    if np.any(small):
        out[small] = _powers(x[small], _SERIES_TERMS) @ _PHI2_TABLE
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
# phi1 = sum_{m >= 0} x^m / (m+1)!,  phi2 = sum_{m >= 0} x^m / (m+2)!
_PHI1_TABLE = np.array([1.0 / factorial(m + 1) for m in range(_SERIES_TERMS)])
_PHI2_TABLE = np.array([1.0 / factorial(m + 2) for m in range(_SERIES_TERMS)])


def _powers(x, count: int) -> np.ndarray:
    """(x.size, count) matrix of x^0, x^1, ..., x^(count-1)."""
    out = np.empty((x.size, count), dtype=complex)
    out[:, 0] = 1.0
    out[:, 1:] = x[:, None]
    return np.cumprod(out, axis=1, out=out)


def _double_series(table: np.ndarray, a, b):
    return ((_powers(a, table.shape[0]) @ table)
            * _powers(b, table.shape[1])).sum(axis=1)


def _phi1_of_sum(a, b):
    """phi1(a + b) with e^(a+b) formed as e^a e^b where |a + b| >= 0.5.

    e^(a+b) of the rounded sum is off by eps |a+b| relative; the product of
    the two exponentials is not.  Below 0.5 the series of phi1 needs the sum
    itself (wave conjugate pairs give a + b = 0 exactly).
    """
    total = a + b
    out = np.empty_like(total)
    near = np.abs(total) < 0.5
    out[near] = phi1(total[near])
    far = ~near
    out[far] = (np.exp(a[far]) * np.exp(b[far]) - 1.0) / total[far]
    return out


def coupled_g2(a, b):
    """G2(a, b) = int_0^1 e^(a s) (e^(b s) - 1)/b ds, elementwise."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=complex),
                               np.asarray(b, dtype=complex))
    shape = a.shape
    a = np.atleast_1d(a).ravel()
    b = np.atleast_1d(b).ravel()
    out = np.empty(a.shape, dtype=complex)

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
    if shape == ():
        return out[0]
    return out.reshape(shape)


def coupled_g3(a, b):
    """G3(a, b) = int_0^1 phi1(a s) s phi1(b s) s ds, symmetric, elementwise."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=complex),
                               np.asarray(b, dtype=complex))
    shape = a.shape
    a = np.atleast_1d(a).ravel()
    b = np.atleast_1d(b).ravel()
    out = np.empty(a.shape, dtype=complex)

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
    if shape == ():
        return out[0]
    return out.reshape(shape)
