"""Exact Gaussian transition and covariance kernels for diagonal generators.

The filtering grid never forces a numerical ODE solve: for a diagonal
generator everything reduces to scalar exponential moments.  Augmenting the
state with the running output integral

    Y(t) = int_0^t C z(s) ds,        y(t) = Y(t) + w(t),

the pair (z, Y) is jointly Gaussian with block transition

    F_h = [ diag(e^(lambda_k h))            0   ]
          [ c_k (e^(lambda_k h)-1)/lambda_k  I_r ]

whose two non-trivial blocks are all an ``AugmentedTransition`` stores: the
decay e = e^(lambda h), shape (N,), and the output map G = C^T diag(I1(lambda, h)),
shape (r, N).  The filter recursion and the path simulator step on (e, G)
directly; the dense F_h is assembled on demand (``state_map``) only for
``augmented_covariance`` and the oracle comparisons.  The covariances of the
sampled outputs that the batch oracle needs are blocks of
``augmented_covariance`` pushed forward by ``_integrated_output_map``; they
are assembled in one place, ``filter_core._output_gram``.  The step also carries
its noise covariance Sigma_h, assembled from (with M = B Q B*)

    Sigma_zz[k,l] = M_kl (e^((lambda_k+conj(lambda_l))h) - 1)/(lambda_k+conj(lambda_l))
    Sigma_zY[k,j] = sum_l M_kl conj(c_lj) int_0^h e^(lambda_k s) I1(conj(lambda_l), s) ds
    Sigma_YY[i,j] = sum_kl c_ki conj(c_lj) M_kl int_0^h I1(lambda_k, s) I1(conj(lambda_l), s) ds

where I1(a, s) = (e^(a s) - 1)/a.  The removable singularities (any exponent
combination approaching zero) are handled in ``_scalars`` (expm1 for
phi1, series branches for G2 and G3).  Sigma_h is Hermitian to the last bit,
so conjugate paired models keep real traces: M is symmetrised once, the zz
block is M times a mirrored Hermitian kernel, the Yz block is the exact
conjugate transpose of zY, and only the r x r YY block, a product of three
matrices, is symmetrised after assembly.

``_transitions`` evaluates these kernels for many step widths at once, on
stacked (W, N, N) arguments, in batches of at most ``_KERNEL_ELEMENTS``
kernel entries (``_batches``, which ``filter_core`` also walks to form
step triples and to condition stacks), and returns one
``AugmentedTransition`` whose fields carry a leading width axis; the
filter recursion and the Monte Carlo take every transition of a grid from
one such stack and index it by step.
``transition_block`` is entry 0 of a stack of one width.  Every scalar
kernel value is a function of its argument alone, so an entry of a stack
equals, bit for bit, the same width's ``transition_block``.  With
a = lambda_k h and b = conj(lambda_l) h, phi1(a + b) and G3(a, b) are
Hermitian in (k, l) and are evaluated on the upper triangle of mode pairs
alone, then mirrored; G2 is not Hermitian and takes all N^2 pairs.  On a
real spectrum (heat) the noise kernels take float64 arguments, which
``_scalars`` evaluates in float64; the stack is complex either way.

``quadrature_oracle_transition`` rebuilds the same matrices from the defining
iterated integrals by adaptive quadrature (cmath + scipy.integrate.quad, no
shared code path) and exists purely to cross-check the closed forms.  It is
the package's only use of scipy, which it imports on its first call: importing
``sampledkf`` and every runtime route need numpy alone, and scipy comes with
the ``test`` extra, not with the package's dependencies.
"""

from __future__ import annotations

import cmath
import functools
import warnings
from dataclasses import dataclass

import numpy as np

from ._scalars import coupled_g2, coupled_g3, phi1
from .errors import NumericalError
from .spectral_model import ModalSystem

__all__ = [
    "AugmentedTransition",
    "phi_h",
    "transition_block",
    "augmented_covariance",
    "quadrature_oracle_transition",
]

#: Most kernel entries (widths x N x N) one batch of ``_transitions``
#: evaluates.  The double series' Horner steps hold two arrays of 22 row
#: polynomials per entry: a full batch in the series peaks near 26 MB on
#: complex arguments and 14 MB on float64 ones (tracemalloc, one width at
#: N = 180, h = 2^-22).  A batch holds at least one width, so past 2^15
#: entries (N > 181) the peak grows like N^2: one width at N = 400 and
#: h = 2^-22 peaks at 128 MB complex and 69 MB float64.
_KERNEL_ELEMENTS = 2 ** 15


@dataclass(frozen=True)
class AugmentedTransition:
    """One exact discretisation step of the augmented pair (z, Y).

    The transition F_h = [[diag(decay), 0], [output_map, I_r]] is stored as
    its two non-trivial blocks: ``decay`` (N,) holds e^(lambda_k h) and
    ``output_map`` (r, N) holds c_k I1(lambda_k, h).  ``noise_cov`` is the
    (N+r, N+r) complex Hermitian PSD covariance Sigma_h of the step's noise.
    A stack from ``_transitions`` holds many steps in the same fields, each
    with a leading width axis (``step`` an array of widths).
    """

    step: float
    decay: np.ndarray
    output_map: np.ndarray
    noise_cov: np.ndarray

    @property
    def state_map(self) -> np.ndarray:
        """The dense (N+r, N+r) F_h, assembled for the oracles."""
        r, n = self.output_map.shape
        fmat = np.zeros((n + r, n + r), dtype=complex)
        np.fill_diagonal(fmat[:n, :n], self.decay)
        fmat[n:, :n] = self.output_map
        fmat[n:, n:] = np.eye(r)
        return fmat


def _hermitize(mat: np.ndarray) -> np.ndarray:
    """(M + M*)/2 of a matrix, or of each matrix of a stack."""
    return (mat + mat.conj().swapaxes(-1, -2)) / 2.0


def phi_h(lam, t: float, h: float):
    """Interpolation-residual kernel of a single mode.

    phi_h(lambda, t, h) = (2 e^(lambda t) - e^(lambda (t-h)) - e^(lambda (t+h))) / (2 lambda)
    evaluated in the cancellation-free product form
    -(lambda/2) e^(lambda (t-h)) I1(lambda, h)^2, with phi_h(0, t, h) = 0.
    Requires 0 < h <= t so the backward exponential never grows; ``lam``,
    ``t`` and ``h`` may be arrays with broadcastable shapes.
    """
    t = np.asarray(t, dtype=float)
    if not np.all((h > 0) & (h <= t)):
        raise ValueError("phi_h: need 0 < h <= t")
    lam = np.asarray(lam, dtype=complex)
    i1 = h * phi1(lam * h)
    return -(lam / 2.0) * np.exp(lam * (t - h)) * i1 * i1


def _mesh_phi_h(lam: np.ndarray, h) -> np.ndarray:
    """phi_h(lambda, h, h), the kernel at the first mesh point, unchecked.

    ``lam`` is a complex array and ``h`` a positive width or an array of
    them that broadcasts against it.  At t = h the exponential of
    ``phi_h`` is e^0 = 1 exactly, so -(lambda/2) I1(lambda, h)^2, in the
    order of ``phi_h``'s products, has its bits.  A dyadic level's points
    are t_j = (2j + 1) h, and phi_h(lambda, t_j, h) = e^(2 j h lambda) times
    this (``filter_core._dyadic_rows``, ``refinement.level_sum``).
    """
    i1 = h * phi1(lam * h)
    return -(lam / 2.0) * i1 * i1


def transition_block(system: ModalSystem, h: float) -> AugmentedTransition:
    """Exact transition of (z, Y) over a step 0 < h <= T: the stack of one width."""
    stack = _transitions(system, [h])
    return AugmentedTransition(step=float(stack.step[0]), decay=stack.decay[0],
                               output_map=stack.output_map[0],
                               noise_cov=stack.noise_cov[0])


def _transitions(system: ModalSystem, widths) -> AugmentedTransition:
    """Exact transitions of (z, Y) over each of the step widths, as one stack.

    Every field of the result has a leading width axis, in the order of
    ``widths``: ``step`` (W,), ``decay`` (W, N), ``output_map`` (W, r, N)
    and ``noise_cov`` (W, N+r, N+r).  The kernels are evaluated on stacked
    arguments, one ``_transition_batch`` call per batch of widths;
    a batch holds at most ``_KERNEL_ELEMENTS`` kernel entries (at least one
    width), which bounds the series temporaries whatever the number of
    widths.
    """
    widths = np.array(widths, dtype=float).ravel()  # a copy: the stack's steps
    if not np.all((widths > 0) & (widths <= system.horizon * (1 + 1e-12))):
        raise ValueError("transition step must satisfy 0 < h <= horizon")
    n, r, count = system.num_modes, system.num_outputs, widths.size
    stack = AugmentedTransition(
        step=widths, decay=np.empty((count, n), dtype=complex),
        output_map=np.empty((count, r, n), dtype=complex),
        noise_cov=np.zeros((count, n + r, n + r), dtype=complex))
    for rows in _batches(system, count):
        _transition_batch(system, stack, rows)
    return stack


def _batches(system: ModalSystem, count: int) -> list[slice]:
    """The batches of ``_transitions`` over a stack of ``count`` widths.

    Each slice holds at most ``_KERNEL_ELEMENTS`` N x N entries, and at
    least one width.  ``filter_core`` walks its stacks of step triples and
    of matrices to condition in the same slices.
    """
    size = max(1, _KERNEL_ELEMENTS // system.num_modes ** 2)
    return [slice(lo, lo + size) for lo in range(0, count, size)]


def _transition_batch(system: ModalSystem, stack: AugmentedTransition,
                      rows: slice) -> None:
    """Fill the stack's ``rows`` from their widths ``stack.step[rows]``.

    On a real spectrum (heat) the noise kernels take float64 arguments; the
    stack stays complex.  With a = lambda_k h and b = conj(lambda_l) h,
    phi1(a + b) and G3(a, b) are Hermitian in (k, l), so they are evaluated
    on the upper triangle alone and mirrored; G2 is not, and takes all N^2.
    Only the YY block is symmetrised; the others are Hermitian as built.
    """
    lam = system.eigenvalues
    n = system.num_modes
    cmat = system.output_coeffs
    h = stack.step[rows]
    col = h[:, None]

    stack.decay[rows] = np.exp(lam * col)
    stack.output_map[rows] = cmat.T * (col * phi1(lam * col))[:, None, :]

    if system.has_input_noise:
        # Hermitian to the last bit, so the mirrored blocks below are too
        bq = _hermitize(system.input_coeffs @ system.q_cov
                        @ system.input_coeffs.conj().T)
        if not lam.imag.any():
            lam = lam.real
        a, b = lam * col, lam.conj() * col
        ik, il = _upper(n)
        step = h[:, None, None]
        sig = stack.noise_cov[rows]  # a view: written in place
        szz = bq * (step * _mirrored(phi1(a[:, ik] + b[:, il]), ik, il))
        g2 = coupled_g2(a[:, :, None], b[:, None, :])
        szy = (bq * (step * step * g2)) @ cmat.conj()
        g3 = _mirrored(coupled_g3(a[:, ik], b[:, il]), ik, il)
        syy = cmat.T @ (bq * (step ** 3 * g3)) @ cmat.conj()
        sig[:, :n, :n] = szz
        sig[:, :n, n:] = szy
        sig[:, n:, :n] = szy.conj().swapaxes(1, 2)
        sig[:, n:, n:] = _hermitize(syy)


@functools.cache
def _upper(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n)``, built once per N and read-only."""
    ik, il = np.triu_indices(n)
    ik.setflags(write=False)
    il.setflags(write=False)
    return ik, il


def _mirrored(upper: np.ndarray, ik: np.ndarray, il: np.ndarray) -> np.ndarray:
    """The (W, N, N) Hermitian stack whose entries (ik, il) are ``upper``."""
    n = ik[-1] + 1
    full = np.empty(upper.shape[:1] + (n, n), dtype=complex)
    full[:, il, ik] = upper.conj()
    full[:, ik, il] = upper  # last, so the diagonal keeps its own value
    return full


def augmented_covariance(system: ModalSystem, t: float) -> np.ndarray:
    """Unconditional covariance of (z(t), Y(t)) started from the diagonal prior."""
    n, r = system.num_modes, system.num_outputs
    base = np.zeros((n + r, n + r), dtype=complex)
    np.fill_diagonal(base[:n, :n], system.prior_var)
    if t == 0:
        return base
    tr = transition_block(system, t)
    fmat = tr.state_map
    return _hermitize(fmat @ base @ fmat.conj().T + tr.noise_cov)


def _integrated_output_map(system: ModalSystem, dt: float) -> np.ndarray:
    """(r, N) map z(t) -> E[Y(t+dt) - Y(t) | z(t)], rows c_k I1(lambda_k, dt)."""
    i1 = dt * phi1(system.eigenvalues * dt)
    return system.output_coeffs.T * i1[None, :]


# --------------------------------------------------------------------------
# independent adaptive-quadrature oracle

def _cquad(f, lo: float, hi: float, tol: float, entry: str = "integral"):
    # imported on the oracle's first call: no runtime route loads scipy
    from scipy.integrate import IntegrationWarning, quad

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            re = quad(lambda s: f(s).real, lo, hi,
                      epsabs=tol, epsrel=1e-11, limit=400)[0]
            im = quad(lambda s: f(s).imag, lo, hi,
                      epsabs=tol, epsrel=1e-11, limit=400)[0]
        except IntegrationWarning as exc:
            raise NumericalError(f"quadrature did not converge for {entry}: "
                                 f"{exc}") from exc
    return re + 1j * im


def quadrature_oracle_transition(system: ModalSystem, h: float,
                                 tol: float = 1e-13) -> AugmentedTransition:
    """Rebuild the transition from its defining iterated integrals.

    Every entry is evaluated by adaptive quadrature on the Ito-isometry form
    of the definitions; inner integrals are quadratures as well, so nothing is
    shared with the closed-form path.  ``tol`` is the absolute tolerance per
    entry (inner integrals are pushed one decade tighter).  Needs scipy,
    which comes with the ``test`` extra (``pip install -e '.[test]'``).
    """
    if not 0 < h <= system.horizon * (1 + 1e-12):
        raise ValueError("transition step must satisfy 0 < h <= horizon")
    lam = [complex(v) for v in system.eigenvalues]
    n, r = system.num_modes, system.num_outputs
    cmat = system.output_coeffs

    decay = np.array([cmath.exp(lk * h) for lk in lam], dtype=complex)
    gmat = np.zeros((r, n), dtype=complex)
    for j in range(r):
        for k in range(n):
            gmat[j, k] = cmat[k, j] * _cquad(lambda s, lk=lam[k]: cmath.exp(lk * s),
                                             0.0, h, tol / 10.0,
                                             entry=f"state_map[{n + j},{k}]")

    sig = np.zeros((n + r, n + r), dtype=complex)
    if system.has_input_noise:
        bq = system.input_coeffs @ system.q_cov @ system.input_coeffs.conj().T

        def tail(lk: complex, r0: float) -> complex:
            # int_r0^h e^(lk (s - r0)) ds by quadrature
            return _cquad(lambda s: cmath.exp(lk * (s - r0)), r0, h, tol / 10.0,
                          entry="inner output integral")

        for k in range(n):
            for l in range(n):
                if bq[k, l] == 0:
                    continue
                lk, llc = lam[k], lam[l].conjugate()
                szz = _cquad(lambda rr: cmath.exp((lk + llc) * (h - rr)), 0.0, h,
                             tol, entry=f"noise_cov zz[{k},{l}]")
                sig[k, l] += bq[k, l] * szz
        for k in range(n):
            for j in range(r):
                acc = 0.0 + 0.0j
                for l in range(n):
                    if bq[k, l] == 0 or cmat[l, j] == 0:
                        continue
                    lk, llc = lam[k], lam[l].conjugate()
                    acc += bq[k, l] * cmat[l, j].conjugate() * _cquad(
                        lambda rr: cmath.exp(lk * (h - rr)) * tail(llc, rr),
                        0.0, h, tol, entry=f"noise_cov zY[{k},{n + j}]")
                sig[k, n + j] = acc
                sig[n + j, k] = acc.conjugate()
        for i in range(r):
            for j in range(r):
                acc = 0.0 + 0.0j
                for k in range(n):
                    for l in range(n):
                        if bq[k, l] == 0 or cmat[k, i] == 0 or cmat[l, j] == 0:
                            continue
                        lk, llc = lam[k], lam[l].conjugate()
                        acc += cmat[k, i] * cmat[l, j].conjugate() * bq[k, l] * _cquad(
                            lambda rr: tail(lk, rr) * tail(llc, rr), 0.0, h,
                            tol, entry=f"noise_cov YY[{n + i},{n + j}]")
                sig[n + i, n + j] = acc
    return AugmentedTransition(step=float(h), decay=decay, output_map=gmat,
                               noise_cov=sig)
