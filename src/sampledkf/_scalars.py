"""Cancellation-safe exponential moment integrals.

The closed-form transition and covariance kernels all reduce to three families
of dimensionless integrals (callers pass ``a = alpha*h``, ``b = beta*h`` and
scale by powers of the step ``h``):

    g_j(a)    = int_0^1 s^j e^(a s) ds                      j = 0..4
    G2(a, b)  = int_0^1 e^(a s) * (e^(b s) - 1)/b ds
    G3(a, b)  = int_0^1 (e^(a s) - 1)/a * (e^(b s) - 1)/b ds

Each has removable singularities (a -> 0, b -> 0) where the textbook closed
forms cancel catastrophically.  Branch layout, elementwise:

* both arguments inside the unit disc: truncated double power series (exact to
  ~1e-18 relative, no cancellation);
* one argument at most half the other in modulus: a rearranged closed form
  without the division by the small argument (the difference quotient
  (phi1(a+b) - phi1(a))/b loses a factor |a|/|b| to cancellation);
* otherwise: the direct closed form, which is then safe because the two
  arguments are within a factor two of each other and one exceeds 1.

All functions accept scalars or arrays and broadcast; results are complex.
"""

from __future__ import annotations

import numpy as np

_SERIES_RADIUS = 1.0
_RATIO = 0.5
_SERIES_TERMS = 30
_DOUBLE_TERMS = 22

__all__ = ["phi1", "exp_power_moments", "coupled_g2", "coupled_g3"]


def phi1(x):
    """(e^x - 1)/x with the removable limit 1 at x = 0, elementwise."""
    x = np.asarray(x, dtype=complex)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    small = np.abs(x) < 0.5
    if np.any(small):
        xs = x[small]
        term = np.ones_like(xs)
        acc = np.ones_like(xs)
        for m in range(1, _SERIES_TERMS):
            term = term * xs / (m + 1)
            acc = acc + term
        out[small] = acc
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
        xs = x[small]
        term = np.full_like(xs, 0.5)
        acc = term.copy()
        for m in range(3, _SERIES_TERMS):
            term = term * xs / m
            acc = acc + term
        out[small] = acc
    big = ~small
    if np.any(big):
        out[big] = (phi1(x[big]) - 1.0) / x[big]
    return out


def exp_power_moments(a, jmax: int = 4):
    """Moments g_j(a) = int_0^1 s^j e^(a s) ds, stacked along axis 0.

    Series inside |a| <= 1, upward recurrence g_j = (e^a - j g_{j-1})/a
    outside (stable there because |a| > 1).
    """
    a = np.asarray(a, dtype=complex)
    shape = a.shape
    a = a.ravel()
    out = np.empty((jmax + 1, a.size), dtype=complex)
    small = np.abs(a) <= _SERIES_RADIUS
    if np.any(small):
        asml = a[small]
        for j in range(jmax + 1):
            term = np.full(asml.shape, 1.0 / (j + 1), dtype=complex)
            acc = term.copy()
            for i in range(1, _SERIES_TERMS + 1):
                term = term * asml * (j + i) / (i * (j + i + 1.0))
                acc += term
            out[j, small] = acc
    big = ~small
    if np.any(big):
        ab = a[big]
        ea = np.exp(ab)
        g = (ea - 1.0) / ab
        out[0, big] = g
        for j in range(1, jmax + 1):
            g = (ea - j * g) / ab
            out[j, big] = g
    return out.reshape((jmax + 1,) + shape)


def _g2_series(a, b):
    # G2 = sum_{i>=0, j>=1} a^i b^(j-1) / (i! j! (i+j+1))
    acc = np.zeros_like(a)
    ci = np.ones_like(a)  # a^i / i!
    for i in range(_DOUBLE_TERMS):
        if i > 0:
            ci = ci * a / i
        dj = np.ones_like(b)  # b^(j-1) / j!
        inner = dj / (i + 2.0)
        for j in range(2, _DOUBLE_TERMS):
            dj = dj * b / j
            inner = inner + dj / (i + j + 1.0)
        acc = acc + ci * inner
    return acc


def _g3_series(a, b):
    # G3 = sum_{i, j >= 0} a^i b^j / ((i+1)! (j+1)! (i+j+3))
    acc = np.zeros_like(a)
    ci = np.ones_like(a)  # a^i / (i+1)!
    for i in range(_DOUBLE_TERMS):
        if i > 0:
            ci = ci * a / (i + 1)
        dj = np.ones_like(b)  # b^j / (j+1)!
        inner = dj / (i + 3.0)
        for j in range(1, _DOUBLE_TERMS):
            dj = dj * b / (j + 1)
            inner = inner + dj / (i + j + 3.0)
        acc = acc + ci * inner
    return acc


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
        out[inside] = _g2_series(a[inside], b[inside])
    if np.any(small_b):
        # (e^a (a phi1(b) - 1) + 1) / (a (a + b)): no 1/b, and |a + b| >= |a|/2
        asub, bsub = a[small_b], b[small_b]
        ea = np.exp(asub)
        out[small_b] = (ea * (asub * phi1(bsub) - 1.0) + 1.0) / (asub * (asub + bsub))
    if np.any(direct):
        asub, bsub = a[direct], b[direct]
        out[direct] = (phi1(asub + bsub) - phi1(asub)) / bsub
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
        out[inside] = _g3_series(a[inside], b[inside])
    for mask, big, small in ((small_b, a, b), (small_a, b, a)):
        if np.any(mask):
            # G3(a, b) = (G2(a, b) - G2(0, b)) / a, both terms accurate here
            xbig, xsml = big[mask], small[mask]
            out[mask] = (coupled_g2(xbig, xsml) - _phi2(xsml)) / xbig
    if np.any(direct):
        asub, bsub = a[direct], b[direct]
        out[direct] = (phi1(asub + bsub) - phi1(asub) - phi1(bsub) + 1.0) / (asub * bsub)
    if shape == ():
        return out[0]
    return out.reshape(shape)
