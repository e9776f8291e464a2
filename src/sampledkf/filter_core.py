"""Discrete-time estimation of the sampled system.

Every posterior and trace outside the recursion and the batch oracle
conditions the diagonal prior P0 on an information matrix J, or on the Gam
of a stretch triple (Phi, Gam, H), and takes H + Phi P Phi* of the posterior
P of the state at the start.  ``_condition`` is the one N x N
factorisation, and ``_observe`` (below) the one update in observation
space.  ``_condition`` works in the real coordinates rho of
``spectral_model`` (x = A rho, A made of each conjugate pair's sums and
differences), where the prior stays diagonal, R^2 = P0 / D (p/2, p/2 on a
pair).  Every model is paired, so it
takes only a J_rho = A* J A that was built real: the closed form of a
uniform grid, the sum over samples and the Gam of a stretch triple are all
formed in rho.  It takes the Cholesky factor L of the whitened matrix

    I + R J_rho R = L L^T,

every eigenvalue >= 1 (exact for zero prior variances and rapidly decaying
ones), in float64, inverts it with no solve against L, and returns
F = Linv R, still lower triangular: the posterior of rho is P_rho = F^T F,
and the prior scale R (``_prior_scale``) is applied there.  ``_lower_inverse``
takes Linv by a recursion on halves: each half inverts itself, one pair of
gemms joins them, and a block of at most ``_INVERSE_LEAF`` rows takes
``np.linalg.inv``.  The posterior of x is A F^T F A*, and nothing more is
formed than a caller uses:

- a trace (``_trace``) needs no P.  Undriven, the decay e^(AT) has equal
  modulus on a pair, so tr(e^(AT) P e^(A*T)) = sum_k |e^(lambda_k T)|^2 D_k
  ||F[:, k]||^2 comes from the column norms of F (``_energy`` holds the
  weights); a stretch triple, real in rho, gives
  tr(D H_rho) + ||F Phi_rho^T D^(1/2)||_F^2;
- ``increment_variance`` and the telescope of ``refinement`` carry
  P_rho = F^T F and observe whitened real rows in float64 (``_observe``, a
  block of points per Cholesky factor);
- only ``information_filter``, which returns the covariance of z(T),
  takes F^T F back to modal coordinates through the pairs' sums and
  differences.

Undriven systems hand it J.  Without input noise z(T) = e^(AT) x, and each
increment observation

    y(t_i) - y(t_(i-1)) = H_i x + dw,    H_i = C diag(e^(lambda t_(i-1)) I1(lambda, d_i)),

with d_i = t_i - t_(i-1), I1(lambda, d) = d phi1(lambda d) and
dw ~ N(0, R d_i), is linear in the initial state x.  The increments are
independent given x, so the posterior of x needs only the N x N information
matrix J = sum_i H_i* (R d_i)^(-1) H_i: J alone gives the posterior of x
(``increment_variance``, the telescope of ``refinement``), and the triple
(diag(e^(AT)), J, None) that of z(T) (``information_filter``).  On the
uniform grid (j T) / m, j = 1..m, given by its size m, the sum over samples
is geometric and J has a closed form (``_uniform_information``): N^2 kernel
values whatever m is, built straight in real coordinates from the rows of
one mode per conjugate pair, in float64 on a real spectrum.  The geometric
sum itself (``_geometric_sum``, given the eigenvalues of its rows) also
gives ``refinement.level_sum`` in closed form.  Times handed in as an array
accumulate J_rho block by block (``_accumulated_information``), uniform or
not: a sample's whitened rows are conjugate on each pair, so rows A is real
(``_white_rows``, the one row builder of every observation of the initial
state, given a sample's weights by ``_information_rows``) and each block is
one float64 (rows A)^T (rows A).

Driven systems on the uniform grid hand it the m-step stretch triple, built
by structure-preserving doubling (``_doubled_triples``), since every step
repeats one transition.  If z has prior covariance P0 at the start of a
stretch, its posterior at the end is H + Phi P0 (I + Gam P0)^-1 Phi*.  One
step of width h, with S = Syy + R h and K0 = Szy S^-1 from the noise blocks
of Sigma_h, is

    Phi = diag(e) - K0 G,    Gam = G* S^-1 G,    H = Szz - K0 Syz,

and stretch 1 followed by stretch 2 joins into

    Phi = Phi2 (I + H1 Gam2)^-1 Phi1
    Gam = Gam1 + Phi1* (I + Gam2 H1)^-1 Gam2 Phi1
    H   = H2 + Phi2 (I + H1 Gam2)^-1 H1 Phi2*.

I + H1 Gam2 has every eigenvalue >= 1, so no join meets a singular matrix.
Squaring the one-step triple and joining the powers picked out by the binary
digits of m gives the m-step triple in about 2 log2(m) N x N joins instead
of m recursion steps.  Every size a caller asks for shares one doubling:
the one-step triples of all the widths T/m come from one
``kernels._transitions`` call and are formed in modal coordinates and taken
to rho on the stack's leading axis, kernel batch by kernel batch
(``_step_triples``): Phi_rho = A^-1 Phi A,
Gam_rho = A* Gam A and H_rho = A^-1 H A^-*, all real, so every join runs in
float64, the conjugate transposes above plain transposes.  ``_join`` joins
stacks of triples on their leading axis.  With the sizes taken largest
first, those still squaring are a leading slice of the stack, squared as a
view, and each stage joins its power into the totals of the sizes whose
binary digit is set, on that sub-stack: bit_length(max m) - 1 squaring
stages for all the sizes, and each size's triple has the bits it has
computed alone.  Without input noise H = 0 and Gam is the information
matrix J, so the undriven triple is the special case; the tests hold the
two to each other.

``_uniform_traces`` gives the traces of every uniform grid the package uses
(coarse grids, curve references and their checks, bound anchors, the fine
end of a telescope): it takes the grid sizes m, never the grids, and makes
no N x N posterior.  A driven system takes all its sizes from one
``_doubled_triples`` call and conditions each size's Gam once.  Each
undriven size takes one of two routes.
J_rho = B0^T B0 has rank at most m r, B0 the (m r, N) ``_information_rows``
of the m samples, so when m r is at most ``_SAMPLE_SPACE_SHARE`` N = 3N/4
it takes the observation-space form of the same update, Woodbury's
identity (the representer method, PSAS).  In the whitened coordinates
R^-1 rho the prior is I and the rows are B = B0 R, so

    P_rho = R (I + B^T B)^-1 R = R (I - U^T U) R,
    U = L^-1 B,    I + B B^T = L L^T,

an (m r) x (m r) factor in place of an N x N one.  That is ``_observe`` with
the identity for P, and the trace is tr_prior = ``_energy`` @ R^2 minus the
sum of its per-sample gains under the weights ``_energy`` R^2
(``_sample_space_trace``): m N exponentials and O((m r)^2 N) work against
N^2 kernel values and O(N^3) for the closed form, and no N x N matrix
(``BENCH_sample_space.json`` has per-call times by m and N).  The
difference loses about eps tr_prior / trace of its relative accuracy, so a
trace below ``_SAMPLE_SPACE_FLOOR`` = 1e-2 tr_prior (heat at a high
signal-to-noise ratio) falls back to the closed form.  Every larger m,
and every trace the guard sends back, conditions the closed-form J once.
Only the sample space forms the m sample starts, at most 3N/4 of them.
Times that callers pass in take ``information_filter``, which sums J over
them, or ``sequential_filter``; this module never checks whether times
form a uniform grid (``refinement.dyadic_grid`` builds one).

``sequential_filter`` is the route for driven systems on every grid but the
uniform one, and the only route for filtered means: a Kalman recursion on
the augmented pair (z, Y_partial) where Y_partial accumulates int C z dt
since the previous sample, each observation is the increment
y(t_i) - y(t_{i-1}) = Y_partial + dw, and Y_partial is reset to zero after
every update.  The augmented transition F = [[diag(e), 0], [G, I]] comes
from ``kernels`` as the two blocks of an ``AugmentedTransition``, the decay
e = e^(lambda h) and the output map G = C^T diag(I1(lambda, h)), so the
recursion carries only the N x N covariance of z: an elementwise prediction
plus a rank-r update per sample, O(N^2 r) instead of dense (N+r) x (N+r)
products.  Covariances never depend on the data, so ``_filter_plan`` runs
them once and keeps the per-sample gains as one (m, N, r) array; it takes
the transitions of the grid's sorted distinct step widths, tail included,
as one stack from one batched ``kernels._transitions`` call, and keeps each
sample step's index into that stack.  The filtered mean is linear in
the data, mean_T = B_0 m0 + sum_i L_i inc_i.  ``_backward_maps`` folds
those gains into the maps L_i and B_i in one backward pass, O(N^2 r) a
step.  ``_filtered_means`` applies them to a batch of output paths in one
gemm, the mean update of ``sequential_filter(observations=...)``; the Monte
Carlo of ``montecarlo`` builds its map from trial normals to the error
zhat(T) - z(T) from the same pass.

``batch_condition`` is the oracle route: one Gaussian conditioning of z(T) on
the whole vector (y(t_1), ..., y(t_m)).  ``_output_gram`` builds both
covariances it needs from ``kernels.augmented_covariance``: the gram

    Cov(y(t_i), y(t_j)) = Cov(Y(t_i), Y(t_j)) + R min(t_i, t_j)

and the cross-covariance of the stacked outputs with z(T).

The conditioning, the recursion and the batch regression must agree to
floating-point accuracy; the tests hold them to it (increment versus
cumulative bookkeeping, state versus initial-state form, J versus doubling).

``increment_variance`` evaluates the one-insertion refinement gain

    E||ztilde_{j+1} - ztilde_j||^2
        = tr( e^(AT) P C_h* G^(-1) C_h P e^(A*T) ),    G = C_h P C_h* + (h/2) R,

where P conditions the initial state on the coarse observation set and C_h
has modal columns c_k phi_h(lambda_k, t, h).  The interpolated observation
y(t) - (y(t-h) + y(t+h))/2 = C_h x + noise carries exactly (h/2) R of
measurement noise, independent of the coarse set, so the insertion also
downdates P by the rank-r term P C_h* G^(-1) C_h P.  Read through
C diag(phi_h / sqrt(h/2)), the observation carries unit noise once whitened
by R's Cholesky factor, and its rows in rho are real (``_insertion_rows``,
through ``_white_rows``).  So an insertion is one more observation for
``_observe``, which takes a block of B points in float64 on P_rho: with C
the stack of their rows, G = C P_rho C^T + I = L L^T and U = L^-1 C P_rho,
one Cholesky factor, whose elimination order is the order of insertion,
gives each point's gain, weighted by ``_energy``, and P_rho - U^T U is the
posterior after the whole block.  ``increment_variance`` conditions P_rho
on the summed J of the given base set and observes a block of one point,
the one-insertion oracle;
``refinement.telescope_check`` carries one P_rho through every block
instead.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from ._scalars import phi1
from .errors import GramSingularError
from .kernels import (augmented_covariance, _batches, _hermitize,
                      _integrated_output_map, phi_h, _transitions)
from .spectral_model import (ModalSystem, _from_real, _real_covariance,
                             _times_a, _to_real)

logger = logging.getLogger(__name__)

__all__ = ["FilterRun", "information_filter", "sequential_filter",
           "batch_condition", "increment_variance"]

#: Samples per gemm when accumulating the information matrix on a
#: non-uniform grid; bounds the work array at (256 r) x N whatever its size.
_INFO_BLOCK = 256
#: Largest diagonal block ``_lower_inverse`` hands to ``np.linalg.inv``.
_INVERSE_LEAF = 32
#: Ones on and below the diagonal: clears a leaf inverse's upper triangle.
_LEAF_LOWER = np.tri(_INVERSE_LEAF)
#: Undriven uniform traces with at most this share of N sample rows (m r)
#: take the sample space; the routes cross at m r of about 3N/4 on heat and
#: wave at N = 20, 60 and 200 (``BENCH_sample_space.json``).
_SAMPLE_SPACE_SHARE = 0.75
#: Smallest trace / tr_prior the sample space keeps: its trace is tr_prior
#: minus a nearly equal term, and below this share it loses more digits
#: than the closed form (high signal-to-noise heat, ``BENCH_sample_space.json``).
_SAMPLE_SPACE_FLOOR = 1e-2


@dataclass(frozen=True)
class FilterRun:
    """Result of conditioning z(T) on sampled outputs.

    trace_err is the posterior trace E||z(T) - zhat||^2; final_mean is filled
    only when observations were supplied.
    """

    grid: np.ndarray
    final_cov: np.ndarray
    trace_err: float
    final_mean: np.ndarray | None = None


def _validate_times(system: ModalSystem, times) -> np.ndarray:
    times = np.asarray(times, dtype=float).ravel()
    # asked as "all inside" rather than "none outside", so a NaN time fails
    if not np.all((times > 0) & (times <= system.horizon * (1 + 1e-12))):
        raise ValueError("sample times must lie in (0, horizon]")
    if times.size > 1 and np.any(np.diff(times) <= 0):
        raise ValueError("sample times must be strictly increasing")
    return times


def _filter_plan(system: ModalSystem, times: np.ndarray):
    """Run the covariance recursion; return (run, stack, index, gains, tail).

    Y_partial is zero after every update, so only the N x N covariance P of z
    is carried: the prediction needs only the transition's decay e and output
    map G, and the update is the rank-r downdate P - K Pzy* with K = Pzy S^-1.
    ``stack`` holds the transitions of the sorted distinct step widths, tail
    included, from one ``kernels._transitions`` call.  Sample step i moves
    by entry ``index[i]`` of it (the inverse of ``np.unique``), and the tail,
    if the last sample precedes the horizon, by entry ``tail`` (else None).
    ``gains`` is (m, N, r): gain i maps the innovation on the i-th increment
    observation into z.
    """
    n, r = system.num_modes, system.num_outputs
    cov = np.diag(system.prior_var.astype(complex))
    widths = np.diff(times, prepend=0.0)
    span = system.horizon - (times[-1] if times.size else 0.0)
    has_tail = span > 1e-12 * system.horizon
    distinct, which = np.unique(np.append(widths, span) if has_tail else widths,
                                return_inverse=True)
    tail = int(which[-1]) if has_tail else None
    stack = _transitions(system, distinct)
    gains = np.empty((widths.size, n, r), dtype=complex)
    for i, (delta, j) in enumerate(zip(widths, which)):
        e, g, sig = stack.decay[j], stack.output_map[j], stack.noise_cov[j]
        pg = cov @ g.conj().T
        pzy = e[:, None] * pg + sig[:n, n:]
        s = g @ pg + sig[n:, n:] + system.r_cov * delta
        gains[i] = np.linalg.solve(s, pzy.conj().T).conj().T
        cov = _hermitize(cov * np.outer(e, e.conj()) + sig[:n, :n]
                         - gains[i] @ pzy.conj().T)
    if tail is not None:
        e = stack.decay[tail]
        cov = _hermitize(cov * np.outer(e, e.conj())
                         + stack.noise_cov[tail, :n, :n])
    run = FilterRun(grid=times, final_cov=cov,
                    trace_err=float(np.trace(cov).real))
    return run, stack, which[:widths.size], gains, tail


def _backward_maps(system: ModalSystem, plan):
    """The backward pass over the steps of a ``_filter_plan``, last step first.

    With e_i and G_i the decay and output map of the stack's entry
    ``index[i - 1]`` and K_i = ``gains[i - 1]``, B_m = diag(tail decay),
    L_i = B_i K_i and B_(i-1) = B_i diag(e_i) - L_i G_i, yields (i, B_i, L_i)
    for i = m..1 and then (0, B_0, None).  L_i maps the i-th increment into
    the filtered mean at the horizon, and -B_i is the derivative of the error
    zhat(T) - z(T) in z just after sample i (z(0) for B_0).  Only the
    current B is held.
    """
    _, stack, index, gains, tail = plan
    back = np.diag(stack.decay[tail] if tail is not None
                   else np.ones(system.num_modes, dtype=complex))
    for i in range(index.size, 0, -1):
        j = index[i - 1]
        lmap = back @ gains[i - 1]
        yield i, back, lmap
        back = back * stack.decay[j] - lmap @ stack.output_map[j]
    yield 0, back, None


def _filtered_means(system: ModalSystem, plan,
                    increments: np.ndarray) -> np.ndarray:
    """Filtered means of z(T), one per path, from a ``_filter_plan``.

    ``increments`` is (paths, m, r): the increments y(t_i) - y(t_(i-1)) of
    each path's sampled output.  Returns the (paths, num_modes) means.  The
    mean is linear in the data, mean_T = B_0 m0 + sum_i L_i inc_i, with the
    maps of ``_backward_maps``; one gemm applies them to every path.
    """
    paths, m, r = increments.shape
    maps = np.empty((m * r, system.num_modes), dtype=complex)
    for i, back, lmap in _backward_maps(system, plan):
        if i:  # row block i - 1 is L_i^T
            maps[(i - 1) * r:i * r] = lmap.T
    return increments.reshape(paths, m * r) @ maps + back @ system.prior_mean


def sequential_filter(system: ModalSystem, times, observations=None) -> FilterRun:
    """Kalman recursion over the sample times, exact between samples.

    Parameters
    ----------
    times : strictly increasing times in (0, horizon]; may be empty, in which
        case the prior is just propagated to the horizon.
    observations : optional (m, r) array of cumulative sampled outputs y(t_i);
        increments are formed internally.  Enables the returned final_mean.
    """
    times = _validate_times(system, times)
    plan = _filter_plan(system, times)
    if observations is None:
        return plan[0]

    obs = np.asarray(observations)
    r = system.num_outputs
    if obs.ndim == 1:
        obs = obs[:, None]
    if obs.shape != (times.size, r):
        raise ValueError("observations must have shape (len(times), num_outputs)")
    increments = np.diff(obs, axis=0, prepend=np.zeros((1, r)))
    mean = _filtered_means(system, plan, increments[None])[0]
    return replace(plan[0], final_mean=mean)


def _white_rows(system: ModalSystem, weights: np.ndarray) -> np.ndarray:
    """The real (P, r, N) rows L^-1 C diag(w_p) A of P observations of rho.

    Observation p reads the initial state through C diag(w_p), ``weights``
    (P, N), with noise of covariance R = L L^T, so its rows carry unit
    noise.  They are conjugate on each pair, so rows A is real
    (``spectral_model._times_a``).  The one row builder: ``_information_rows``
    gives the weights of samples, ``_insertion_rows`` those of midpoints.
    """
    rows = weights[:, None, :] * system._white_outputs[None, :, :]
    return np.ascontiguousarray(_times_a(rows, system._pair_index).real)


def _information_rows(system: ModalSystem, starts: np.ndarray,
                      widths: np.ndarray, which: np.ndarray) -> np.ndarray:
    """The ``_white_rows`` of a set of samples: J_rho = sum of rows^T rows.

    Sample i starts at ``starts[i]`` and has width d = ``widths[which[i]]``;
    its increment, noise R d, reads x through C diag(e^(lambda starts[i])
    I1(lambda, d)), so its weights are e^(lambda starts[i]) phi1(lambda d)
    sqrt(d).  phi1 is taken once per entry of ``widths``.
    """
    lam = system.eigenvalues
    step = phi1(lam * widths[:, None]) * np.sqrt(widths)[:, None]
    return _white_rows(system, np.exp(lam * starts[:, None]) * step[which])


def _insertion_rows(system: ModalSystem, phis: np.ndarray,
                    h: float) -> np.ndarray:
    """The ``_white_rows`` of midpoints inserted at mesh width h.

    ``phis`` is (P, N): phi_h(lambda, t, h) of each new point t.  Its
    interpolated observation y(t) - (y(t-h) + y(t+h))/2 = C_h x + noise
    reads x through C diag(phi_h) with (h/2) R of noise, so its weights are
    phi_h / sqrt(h/2).
    """
    return _white_rows(system, phis / np.sqrt(h / 2.0))


def _accumulated_information(system: ModalSystem,
                             times: np.ndarray) -> np.ndarray:
    """J_rho = A* J A of the initial state on any grid, summed over samples.

    Each block of ``_INFO_BLOCK`` samples adds one float64 (rows A)^T (rows A)
    of its ``_information_rows``, phi1 taken once per distinct width.
    """
    n = system.num_modes
    starts = np.concatenate([[0.0], times[:-1]])
    widths = times - starts
    info = np.zeros((n, n))
    for lo in range(0, times.size, _INFO_BLOCK):
        block = slice(lo, lo + _INFO_BLOCK)
        rows = _information_rows(system, starts[block], *np.unique(
            widths[block], return_inverse=True)).reshape(-1, n)
        info += rows.T @ rows
    return info


def _geometric_sum(system: ModalSystem, rows: np.ndarray,
                   count: int) -> np.ndarray:
    """S[k, l] = sum_(j<count) e^(j x) for x = (conj(rows_k) + lambda_l) d.

    ``rows`` are the eigenvalues of the rows: the whole spectrum for
    ``refinement.level_sum``, one member per pair and every self-conjugate
    mode for ``_uniform_information``.  With d = T / count the sum is one
    quotient over the whole array,

        S = expm1(count x) / expm1(x),   S = count at x = 0,

    N^2 entries and no sum over j, whatever count is.  A real spectrum
    takes the real parts of rows d and lambda d, so x is float64.  On a
    complex spectrum S depends on x only through e^x, so Im x is first
    reduced into (-pi, pi], where e^x = 1 only at x = 0 (wave pairs alias to
    x = 2 pi i j); the reduction is odd in x, so S keeps the conjugate-mate
    structure.  ``np.expm1`` keeps full relative accuracy as x nears 0, so
    the error is set by the rounding of x and of count x, near x = 0 as far
    from it.
    """
    lam, d = system.eigenvalues, system.horizon / count
    if lam.imag.any():
        x = (rows * d).conj()[:, None] + lam * d
        x -= 2j * np.pi * np.round(x.imag / (2 * np.pi))
    else:
        x = (rows * d).real[:, None] + (lam * d).real
    return np.divide(np.expm1(count * x), np.expm1(x),
                     out=np.full_like(x, count), where=x != 0)


def _uniform_information(system: ModalSystem, m: int) -> np.ndarray:
    """Closed-form J_rho = A* J A of the initial state on the uniform grid.

    On the m-point grid (j T) / m, j = 1..m, every width is d = T/m and
    sample j starts at j d, so the sum over samples is geometric:

        J[k, l] = W[k, l] d conj(phi1(lambda_k d)) phi1(lambda_l d) S[k, l],

    with W = C* R^-1 C and S = ``_geometric_sum``.  N^2 kernel values and no
    sum over samples, whatever m is.  J_rho is the matrix ``_condition``
    takes, in the real coordinates x = A rho of ``spectral_model``.
    J[mate k, mate l] = conj(J[k, l]) by construction, so only the rows of
    one member per pair and of each self-conjugate mode are evaluated.
    Their columns take A through each pair's sums and differences
    (``spectral_model._times_a``), and the row of a pair gives the real
    rows 2 Re and 2 Im of both members, that of a self-conjugate mode its
    real part.  On the identity pairing (heat) every number is real, so
    J_rho = J is formed in float64.
    """
    d = system.horizon / m
    lam = system.eigenvalues
    shape = phi1(lam * d)
    white = system._white_outputs
    pairs = system._pair_index
    if not pairs.first.size:
        shape, white = shape.real, white.real
    rows = np.concatenate([pairs.first, pairs.single])
    block = ((white[:, rows].conj().T @ white)
             * (d * np.outer(shape[rows].conj(), shape))
             * _geometric_sum(system, lam[rows], m))
    if not pairs.first.size:
        return block
    block = _times_a(block, pairs)
    lead = pairs.first.size
    info = np.empty((system.num_modes, system.num_modes))
    info[pairs.first] = 2.0 * block[:lead].real
    info[pairs.mate] = 2.0 * block[:lead].imag
    info[pairs.single] = block[lead:].real
    # J is Hermitian only to rounding, so the two triangles can differ in
    # the last bit; _real_covariance symmetrises the same way
    return (info + info.T) / 2.0


def _lower_inverse(low: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The inverse of a nonsingular lower-triangular matrix, lower triangular too.

    A recursion on halves: low = [[L11, 0], [L21, L22]], upper half of n // 2
    rows, has the inverse [[L11^-1, 0], [-L22^-1 L21 L11^-1, L22^-1]], so
    each half inverts itself into its diagonal block of ``out`` and the join
    costs one pair of gemms.  A block of at most ``_INVERSE_LEAF`` rows takes
    ``np.linalg.inv``, whose rounding above the diagonal (LU pivots rows) is
    cleared.  numpy alone, in the dtype of ``low``.  ``out`` is allocated
    once, by the outermost call, and every block writes into a view of it.
    """
    n = low.shape[0]
    if n <= _INVERSE_LEAF:
        return np.multiply(np.linalg.inv(low), _LEAF_LOWER[:n, :n], out=out)
    if out is None:
        out = np.zeros_like(low)
    mid = n // 2
    _lower_inverse(low[:mid, :mid], out[:mid, :mid])
    _lower_inverse(low[mid:, mid:], out[mid:, mid:])
    out[mid:, :mid] = -(out[mid:, mid:] @ (low[mid:, :mid] @ out[:mid, :mid]))
    return out


def _prior_scale(system: ModalSystem) -> np.ndarray:
    """R = P0_rho^(1/2), the prior scale of rho: P0 / D is (p/2, p/2) on a pair."""
    return np.sqrt(system.prior_var / system._pair_index.weights)


def _condition(system: ModalSystem, info: np.ndarray) -> np.ndarray:
    """The factor F of the posterior of rho, P_rho = F^T F, lower triangular.

    The one N x N conditioning of the package: the diagonal prior P0
    conditioned on the information ``info`` = J_rho = A* J A, a float64
    matrix built in the real coordinates rho of ``spectral_model`` (x = A rho) by
    ``_uniform_information``, ``_accumulated_information`` or
    ``_step_triples``.  There the prior is diagonal too, P0_rho = P0 / D
    (p/2, p/2 on a pair), and with R = P0_rho^(1/2) the whitened matrix
    I + R J_rho R has every eigenvalue >= 1 (exact for zero prior variances
    and rapidly decaying ones).  Its Cholesky factor L is inverted by
    ``_lower_inverse``, and F = Linv R (``_prior_scale``) scales its
    columns, so the posterior of x is A F^T F A*.
    """
    scale = _prior_scale(system)
    whitened = info * np.outer(scale, scale)
    whitened.flat[::info.shape[0] + 1] += 1.0
    return _lower_inverse(np.linalg.cholesky(whitened)) * scale[None, :]


def _energy(system: ModalSystem) -> np.ndarray:
    """|e^(lambda_k T)|^2 D_k: tr(e^(AT) A X A* e^(A*T)) = energy @ diag(X).

    The modulus of e^(lambda T) is equal on a pair, so for a real symmetric
    X in rho the trace of the undriven decay's image of x = A rho takes the
    diagonal of X alone.
    """
    decay = np.abs(np.exp(system.eigenvalues * system.horizon))
    return decay ** 2 * system._pair_index.weights


def _trace(system: ModalSystem, factor: np.ndarray, phi=None,
           noise=None) -> float:
    """tr(H + Phi P Phi*) for the posterior P of x that ``factor`` gives.

    ``phi`` None stands for the undriven decay diag(e^(AT)): the trace is
    ``_energy`` weighting the column norms ||F[:, k]||^2.  A stretch triple's
    Phi_rho and H_rho = ``noise``, real, give the trace of x = A rho through
    A* A = D: tr(D H_rho) + ||F Phi_rho^T D^(1/2)||_F^2, one real gemm.  No
    N x N posterior is formed.
    """
    if phi is None:
        return float(_energy(system) @ np.einsum("ij,ij->j", factor, factor))
    weights = system._pair_index.weights
    half = factor @ (phi.T * np.sqrt(weights)[None, :])
    return float((weights * noise.diagonal()).sum() + np.vdot(half, half))


def information_filter(system: ModalSystem, times) -> FilterRun:
    """Posterior of z(T) for an undriven system, via the initial state.

    Gives the covariance ``sequential_filter`` gives, at the cost of one
    N x N information matrix and one Cholesky factor.  The matrix is
    accumulated over the given times in blocks of ``_INFO_BLOCK`` samples,
    one gemm each, whatever the grid; a uniform grid known by its size takes
    ``_uniform_traces`` instead.
    """
    if system.has_input_noise:
        raise ValueError("information_filter needs an undriven system; "
                         "use sequential_filter")
    times = _validate_times(system, times)
    factor = _condition(system, _accumulated_information(system, times))
    pairs = system._pair_index
    # A P_rho = (P_rho A^T)^T on the rows, then x A* = conj(conj(x) A^T)
    rows = _from_real(factor.T @ factor, pairs).T
    decay = np.exp(system.eigenvalues * system.horizon)
    final_cov = _hermitize(_from_real(rows.conj(), pairs).conj()
                           * np.outer(decay, decay.conj()))
    return FilterRun(grid=times, final_cov=final_cov,
                     trace_err=float(np.trace(final_cov).real))


def _step_triples(system: ModalSystem, widths: np.ndarray):
    """The stretch triples of one sample step of each width, in real coordinates.

    Three (W, N, N) stacks in the order of ``widths``, from one
    ``kernels._transitions`` call.  Phi, Gam and H are formed in modal
    coordinates and returned as Phi_rho = A^-1 Phi A,
    Gam_rho = A* Gam A = D (A^-1 Gam A^-*) D and H_rho = A^-1 H A^-*, all
    real; ``_real_covariance`` refuses a Gam or H off the pairing.  The
    solves and the maps to rho run on the leading axis, one of the stack's
    kernel batches (``kernels._batches``) at a time, so their complex
    temporaries keep the kernels' bound: the whole stack at N = 20, one
    width at N = 200, where maps of the whole stack lost 9 of 10 driven
    wave curves to the parent (``BENCH_stacked_doubling.json``).
    """
    n = system.num_modes
    pairs = system._pair_index
    tr = _transitions(system, widths)
    phi, gam, noise = (np.empty((tr.step.size, n, n)) for _ in range(3))
    for rows in _batches(system, tr.step.size):
        g, sig = tr.output_map[rows], tr.noise_cov[rows]
        count = g.shape[0]
        s = sig[:, n:, n:] + system.r_cov * tr.step[rows, None, None]
        # Szy S^-1, S Hermitian
        k0 = np.linalg.solve(s, sig[:, n:, :n]).conj().swapaxes(-1, -2)
        modal = np.zeros((count, n, n), dtype=complex)
        modal[:, np.arange(n), np.arange(n)] = tr.decay[rows]
        modal -= k0 @ g
        forms = _real_covariance(np.concatenate([
            g.conj().swapaxes(-1, -2) @ np.linalg.solve(s, g),
            sig[:, :n, :n] - k0 @ sig[:, n:, :n]]), pairs, "stretch triple")
        modal = _to_real(modal.swapaxes(-1, -2), pairs).swapaxes(-1, -2)
        phi[rows] = _times_a(modal, pairs).real
        gam[rows] = forms[:count] * np.outer(pairs.weights, pairs.weights)
        noise[rows] = forms[count:]
    return phi, gam, noise


def _join(first, second):
    """The triples of stretches ``first`` followed by stretches ``second``.

    Each is a triple of (W, N, N) stacks; stretch i of ``first`` is joined
    to stretch i of ``second``.
    """
    phi1, gam1, h1 = first
    phi2, gam2, h2 = second
    n = phi1.shape[-1]
    # I + H1 Gam2 has every eigenvalue >= 1; one solve serves Phi and H, and
    # (I + Gam2 H1)^-1 Gam2 = Gam2 (I + H1 Gam2)^-1 reuses it for Gam
    x = np.linalg.solve(np.eye(n) + h1 @ gam2, np.concatenate(
        [phi1, h1 @ phi2.swapaxes(-1, -2)], axis=-1))
    return (phi2 @ x[..., :n],
            _hermitize(gam1 + phi1.swapaxes(-1, -2) @ gam2 @ x[..., :n]),
            _hermitize(h2 + phi2 @ x[..., n:]))


def _doubled_triples(system: ModalSystem, sizes):
    """The stretch triples (Phi, Gam, H) of the samples (j T) / m, j = 1..m.

    One triple per size m of ``sizes``: three (W, N, N) stacks in the order
    of ``sizes``, real, in the coordinates rho of ``_step_triples``.  Each
    one-step triple is squared repeatedly and the powers picked out by the
    binary digits of its m are joined, about 2 log2(m) N x N joins in place
    of m recursion steps, all sizes in one doubling.  Taken largest first,
    the sizes of at least 2^k are a leading slice of the stack: stage k
    squares that slice, as a view, into the powers 2^k, and joins each into
    the totals of the sizes whose bit k is set, on the sub-stack of those
    sizes (a size's lowest set bit starts its total).  The largest m takes
    bit_length(m) - 1 squaring stages, and so do all the sizes together.
    A size's triple has the bits it has when computed alone.  No prior
    enters; ``_condition`` applies it.
    """
    sizes = [int(m) for m in sizes]
    order = sorted(range(len(sizes)), key=lambda i: -sizes[i])
    ranked = [sizes[i] for i in order]
    step = _step_triples(system, system.horizon / np.array(ranked))
    total = tuple(np.empty_like(part) for part in step)
    for bit in range(max(ranked, default=0).bit_length()):
        if bit:  # the sizes of at least 2^bit are a leading slice
            live = tuple(part[:sum(m >> bit > 0 for m in ranked)]
                         for part in step)
            step = _join(live, live)
        # a size's lowest set bit starts its total, a higher one joins it
        low = (1 << bit) - 1
        digit = [i for i, m in enumerate(ranked) if m >> bit & 1]
        join = [i for i in digit if ranked[i] & low]
        for i in digit:
            if not ranked[i] & low:
                for part, power in zip(total, step):
                    part[order[i]] = power[i]
        if join:
            where = [order[i] for i in join]
            joined = _join(tuple(part[where] for part in total),
                           tuple(part[join] for part in step))
            for part, value in zip(total, joined):
                part[where] = value
    return total


def _sample_space_trace(system: ModalSystem, m: int) -> tuple[float, float]:
    """The undriven trace on the m-point uniform grid in sample space, and tr_prior.

    Sample j starts at ((j - 1) T) / m and has width T / m.  In the whitened
    coordinates R^-1 rho, R = ``_prior_scale``, the prior is I and the
    samples' rows are B = (``_information_rows``) R, so ``_observe`` with
    the identity for P and weights ``_energy`` R^2 gives the drop from
    tr_prior = ``_energy`` @ R^2: an (m r) x (m r) factorisation in place of
    an N x N one, O((m r)^2 N).  tr_prior is returned too: the difference
    loses about eps tr_prior / trace of its relative accuracy.
    """
    scale = _prior_scale(system)
    rows = _information_rows(system, (np.arange(m) * system.horizon) / m,
                             np.array([system.horizon / m]),
                             np.zeros(m, dtype=int)) * scale
    energy = _energy(system) * scale ** 2
    gains, _ = _observe(None, rows, energy)
    prior = float(energy.sum())
    return prior - float(gains.sum()), prior


def _uniform_traces(system: ModalSystem, sizes) -> np.ndarray:
    """Posterior error traces E||z(T) - zhat||^2 on the samples (j T) / m, j = 1..m.

    One trace per size m of ``sizes``, in their order; takes the grid sizes,
    never the grids.  A driven system takes the triples of every size from
    one ``_doubled_triples`` call, one kernel call and one squaring chain,
    and conditions each size's Gam once.  An undriven size with m r at most
    ``_SAMPLE_SPACE_SHARE`` N takes the sample space
    (``_sample_space_trace``): one (m r) x (m r) factor, O((m r)^2 N).  It
    keeps that trace unless it is below ``_SAMPLE_SPACE_FLOOR`` tr_prior,
    where the subtraction has cancelled too many digits; then, as for every
    larger m, it conditions the closed-form J (``_uniform_information``):
    N^2 kernel values and one N x N factor, O(N^3), whatever m is.  A trace
    the guard sends back pays for both routes.
    """
    sizes = [int(m) for m in sizes]
    if system.has_input_noise:
        return np.array([_trace(system, _condition(system, info), phi, noise)
                         for phi, info, noise in zip(
                             *_doubled_triples(system, sizes))])
    traces = np.empty(len(sizes))
    for i, m in enumerate(sizes):
        if m * system.num_outputs <= _SAMPLE_SPACE_SHARE * system.num_modes:
            trace, prior = _sample_space_trace(system, m)
            if trace >= _SAMPLE_SPACE_FLOOR * prior:
                traces[i] = trace
                continue
        traces[i] = _trace(system, _condition(
            system, _uniform_information(system, m)))
    return traces


def _output_gram(system: ModalSystem, times: np.ndarray):
    """Covariances of the stacked sampled outputs (y(t_1), ..., y(t_m)).

    Returns (gram, cross): the (m r, m r) covariance of the stacked outputs,
    R min(t_i, t_j) included, and their (N, m r) covariance with z(T).  For
    t_i <= t_j the later output integral is D(t_j - t_i) z(t_i) plus noise
    independent of the past (D the ``_integrated_output_map``), so every
    block comes from the augmented covariance at t_i.
    """
    n, r = system.num_modes, system.num_outputs
    m = times.size
    augs = [augmented_covariance(system, float(t)) for t in times]
    gram = np.empty((m * r, m * r), dtype=complex)
    for i in range(m):
        cyy = augs[i][n:, n:]
        cyz = augs[i][n:, :n]
        for j in range(i, m):
            block = cyy if j == i else cyy + cyz @ _integrated_output_map(
                system, float(times[j] - times[i])).conj().T
            block = block + system.r_cov * times[i]
            gram[i * r:(i + 1) * r, j * r:(j + 1) * r] = block
            if j != i:
                gram[j * r:(j + 1) * r, i * r:(i + 1) * r] = block.conj().T
    decay = np.exp(np.outer(system.eigenvalues, system.horizon - times))  # (n, m)
    cross = np.hstack([decay[:, i:i + 1] * augs[i][:n, n:] for i in range(m)])
    return _hermitize(gram), cross


def _cholesky_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """gram^-1 rhs through gram = L L*: two solves, with L then with L*."""
    chol = np.linalg.cholesky(gram)
    return np.linalg.solve(chol.conj().T, np.linalg.solve(chol, rhs))


def _solve_gram(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Cholesky solve with a single logged jitter retry before giving up."""
    try:
        return _cholesky_solve(gram, rhs)
    except np.linalg.LinAlgError:
        eps = 1e-12 * np.trace(gram).real / gram.shape[0]
        logger.warning("gram factorization failed; retrying with jitter %.3e", eps)
        try:
            return _cholesky_solve(gram + eps * np.eye(gram.shape[0]), rhs)
        except np.linalg.LinAlgError as exc:
            cond = np.linalg.cond(gram)
            raise GramSingularError(
                f"observation gram matrix singular (cond ~ {cond:.3e})") from exc


def batch_condition(system: ModalSystem, times) -> FilterRun:
    """Condition z(T) on all sampled outputs in one Gaussian regression."""
    times = _validate_times(system, times)
    n = system.num_modes
    prior = augmented_covariance(system, system.horizon)[:n, :n]
    if times.size == 0:
        return FilterRun(grid=times, final_cov=prior,
                         trace_err=float(np.trace(prior).real))
    gram, cross = _output_gram(system, times)
    post = _hermitize(prior - cross @ _solve_gram(gram, cross.conj().T))
    return FilterRun(grid=times, final_cov=post,
                     trace_err=float(np.trace(post).real))


def increment_variance(system: ModalSystem, base_times, new_time: float,
                       h: float) -> float:
    """Expected squared move of the z(T) estimate when one sample is inserted.

    ``new_time`` must sit in the middle of a gap of width 2 h of the base set
    (the left neighbour may be the origin, where y = 0 is known for free).
    Only driftless-input systems are supported; with input noise the move is
    available as a difference of filter traces instead.
    """
    if system.has_input_noise:
        raise ValueError("increment_variance needs an undriven system; "
                         "use trace differences of sequential_filter runs")
    base = _validate_times(system, np.sort(np.asarray(base_times, dtype=float)))
    tol = 1e-9 * system.horizon
    t = float(new_time)
    if not (h > 0 and t - h >= 0 and t + h <= system.horizon * (1 + 1e-12)):
        raise ValueError(f"insertion stencil must satisfy 0 <= new_time - h "
                         f"and new_time + h <= horizon, got "
                         f"new_time={new_time!r}, h={h!r}")
    if np.any(np.abs(base - t) <= tol):
        raise ValueError("new_time already belongs to the base set")

    def contains(v: float) -> bool:
        return bool(np.any(np.abs(base - v) <= tol)) or abs(v) <= tol

    if not (contains(t - h) and np.any(np.abs(base - (t + h)) <= tol)):
        raise ValueError("base set must contain new_time - h (or 0) and new_time + h")
    inside = (base > t - h + tol) & (base < t + h - tol)
    if np.any(inside):
        raise ValueError("base set intrudes into the insertion stencil")

    factor = _condition(system, _accumulated_information(system, base))
    rows = _insertion_rows(system, phi_h(system.eigenvalues, t, h)[None], h)
    gains, _ = _observe(factor.T @ factor, rows, _energy(system))
    return float(gains[0])


def _observe(post: np.ndarray | None, rows: np.ndarray,
             energy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gains of observing a block of points in order, and U of the drop U^T U.

    ``post`` is the error covariance P of the initial state in real
    coordinates, or None for the identity, ``rows`` the (B, r, N)
    ``_white_rows`` of B observations in the order they are taken, each of
    unit noise, independent of the set before and of each other, and
    ``energy`` the weights of the trace; all float64.  With C the (B r, N)
    stack of the rows, Woodbury's identity in observation space gives the
    posterior P - U^T U, U = L^-1 C P for G = C P C^T + I = L L^T.  The rows
    of point j in U give exactly the rank-r drop of observing it after the
    points before it: Cholesky's elimination order is the order of the
    rows, its pivots the Schur complements of one point at a time.  Point
    j's gain is ``energy`` @ the column sums of its rows of U squared.
    Returns the (B,) gains and U; O(B r N^2 + (B r)^2 N + (B r)^3), the
    first term absent for the identity.
    """
    points, r, n = rows.shape
    stacked = rows.reshape(points * r, n)
    cpost = stacked if post is None else stacked @ post
    gram = cpost @ stacked.T
    gram.flat[::gram.shape[0] + 1] += 1.0
    half = _lower_inverse(np.linalg.cholesky(gram)) @ cpost
    return (half * half).reshape(points, r, n).sum(axis=1) @ energy, half
