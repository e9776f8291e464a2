"""Path sampling and empirical validation of the deterministic error traces.

The modal coordinates are complex but describe a real-valued random field:
conjugate mode pairs carry conjugate coefficients.  Sampling therefore runs
through the real recomposition eta = A rho of ``spectral_model``: the
covariance S = A^-1 Sigma A^-* of the real Gaussians rho is real symmetric
whenever Sigma respects the pairing (``spectral_model._real_covariance``); a
factor of S drives the draws and A maps them back to modal coordinates
(``spectral_model._from_real``).  The map eta -> real field is then
norm-preserving, so squared errors computed in modal coordinates are the
physical ones.

Each seed has one stream, the SFC64 stream of ``SeedSequence([seed])``,
and a batch reads trial j as its j-th flat block of standard normals.  A
path of ``sample_path`` takes its block in a fixed documented order:

    [ initial state (the initial factor's width, at most num_modes) ]
    for each sample step: [ process noise (width w), driven only ]
                          [ measurement noise (num_outputs) ]
    [ tail process noise (width w), driven only, if the last sample
      precedes the horizon ]

which makes paths bitwise reproducible and leaves trial j the same
whatever the batch size.  The stream is read in order from its start, since
a ziggurat normal takes a variable number of words and a counter could not
find trial j's block; so the stream need not be counter-based, and SFC64 is
numpy's fastest.  A factor has one column per pivot of its pivoted Cholesky,
so its width is the numerical rank of its covariance.  The prior's real
form is the diagonal P0 / D, whose pivoted Cholesky is its own entries,
largest first, so ``_prior_factor`` writes that factor down in closed form;
``_real_factor`` runs the pivot loop for the step covariances alone.
``filter_core._filter_plan`` gives the grid's transitions as one stack, an
entry per distinct step width (tail included), and each step's index into
it.  The stack's process-noise covariances are factored in one
``_real_factor`` call, each matrix with its own pivots and stop, and a step
or the tail reads its entry's factor by that index.  w is the widest
factor's width; narrower factors are zero-padded to it, so every sample step
takes a block of the same width and the simulator reads the steps as one
(trials, steps, width) view.  A path takes at most N + m (N + 2r) + N + r normals on m samples
(``_most_normals``), and a simulator whose block of ``_TRIAL_BLOCK`` paths
would hold more than ``_BLOCK_NORMALS`` is refused before anything is drawn;
the same count is the row count of the error map below.

``sample_path`` runs the simulator: between samples every path moves
elementwise (z *= e) with the output integral a rank-r map of z, as in the
filter recursion, and the output increments are summed.  ``empirical_error``
runs no path.  A trial's error zhat(T) - z(T) is an exact linear function of
its normals, ``_Simulator.error_map``, built in the backward pass that also
gives ``filter_core._filtered_means`` its maps.  So the map is built once, in
O(m N^2 (w + r)), and taken to the real coordinates of the pairs: on a pair
the two errors are conjugate, so the real M A^{-T} has N columns and a
squared error is their weighted sum of squares, weight 2 on each member of
a pair (``_real_error_map``).  With the weights' square roots folded into its
columns, M_w, a squared error is ||xi M_w||^2, and M_w = Q R, Q with
orthonormal columns and R the k x N triangle of its QR, k = min(total, N),
gives xi M_w = (xi Q) R with xi Q itself k standard normals.  So the squared
error has exactly the law of ||g R||^2 for k standard normals g, and
``empirical_error`` factors the map once (``_Simulator.error_factor``) and
reads k normals a trial, not a path's total: the seed's stream is read
``_TRIAL_BLOCK`` trials of k normals at a time, one real gemm of N columns
and one sum of squares a block.  R comes from the simulator's own map, not
from the filter's posterior covariance, so the check stays independent of
the recursion it validates; ||R||_F^2 = ||M||_F^2 is the trace in exact
algebra, and the batch reports it as ``map_trace``.  A short last block is
zero-padded to the full ``_TRIAL_BLOCK`` rows before the products, so every
product has one shape, and a trial's error is the same bit for bit whatever
the trial count (BLAS picks its kernel by shape, and a kernel for few rows
rounds differently).
``run_paths`` followed by ``_filtered_means`` is the oracle the tests hold
the map to.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .filter_core import _backward_maps, _filter_plan, _validate_times
from .spectral_model import (ModalSystem, _from_real, _is_whole, _pairs,
                             _real_covariance, _to_real)

logger = logging.getLogger(__name__)

__all__ = ["SimulationBatch", "sample_path", "empirical_error"]

#: Trials per block of normals read from a seed's stream; bounds the normals
#: held at ``_TRIAL_BLOCK`` x (normals per trial) whatever the trial count.
_TRIAL_BLOCK = 1024
#: Most normals one block of ``_TRIAL_BLOCK`` trials may hold (16 GB).
_BLOCK_NORMALS = 2 ** 31


def _most_normals(num_modes: int, num_outputs: int, samples: int) -> int:
    """Most normals one trial on a grid of ``samples`` sample times can take.

    The initial state takes at most N; a sample step at most N + r process
    normals, since its factor is of the (N+r) x (N+r) covariance of (z, Y),
    and r measurement normals; the tail at most N + r process normals.
    """
    n, r = num_modes, num_outputs
    return n + samples * (n + 2 * r) + n + r


def _real_factor(cov: np.ndarray, pairing: np.ndarray) -> np.ndarray:
    """Complex factors L with L L^H = cov and L xi pairing-compatible, xi real.

    ``cov`` is one (d, d) covariance or a stack (..., d, d) of them.  The
    real recomposed matrices S = A^-1 cov A^-H, formed through each pair's
    sums and differences, are factored together by a diagonally pivoted
    Cholesky: each column of a matrix's factor takes the largest remaining
    diagonal entry of that matrix as its pivot (ties to the lower index),
    and the matrix stops once that entry is at most 1e-16 of its largest
    diagonal entry.  The pivot order is fixed by the diagonal, so a factor
    has no freedom of basis in the near-null space, and it has one column
    per pivot taken.  The result is (..., d, w), w the most pivots any
    matrix took; a factor with fewer is zero-padded to w columns.
    """
    d = cov.shape[-1]
    lead = cov.shape[:-2]
    pairs = _pairs(pairing)
    s = _real_covariance(cov.reshape(-1, d, d), pairs)
    count = s.shape[0]
    rest = np.diagonal(s, axis1=1, axis2=2).copy()  # diagonals not yet factored
    top = np.maximum(rest.max(axis=1, initial=-np.inf), np.finfo(float).tiny)
    free = np.ones((count, d), dtype=bool)
    factor = np.zeros((count, d, d))
    # ``live`` are the matrices still taking pivots, ``rank`` each; the
    # working arrays (w*) hold their rows alone, at positions ``at``, and are
    # re-indexed only when a matrix stops, whose rows are then written back
    live = at = np.arange(count)
    ws, wrest, wfree, wtop, wfactor = s, rest, free, top, factor
    rank = 0
    while live.size and rank < d:
        j = np.argmax(np.where(wfree, wrest, -np.inf), axis=1)
        keep = wrest[at, j] > 1e-16 * wtop
        if not keep.all():
            stop = live[~keep]
            rest[stop], free[stop] = wrest[~keep], wfree[~keep]
            factor[stop] = wfactor[~keep]
            ws, wrest, wfree, wtop, wfactor = (
                x[keep] for x in (ws, wrest, wfree, wtop, wfactor))
            live, j = live[keep], j[keep]
            at = at[:live.size]
            if not live.size:
                break
        pivot = np.sqrt(wrest[at, j])
        col = (ws[at, :, j] - np.matmul(wfactor[:, :, :rank],
                                        wfactor[at, j, :rank, None])[..., 0])
        col /= pivot[:, None]
        col[~wfree] = 0.0
        col[at, j] = pivot
        wfree[at, j] = False
        wrest -= col ** 2
        wfactor[:, :, rank] = col
        rank += 1
    if wfactor is not factor:
        rest[live], free[live], factor[live] = wrest, wfree, wfactor
    left = np.where(free, rest, 0.0)  # the mass below each matrix's floor
    low = left.min(axis=1, initial=0.0)
    bad = np.flatnonzero(low < -1e-12 * top)
    if bad.size:
        raise NumericalError(f"sampling covariance has remaining pivot "
                             f"{low[bad[0]]:.3e}")
    if logger.isEnabledFor(logging.DEBUG):
        for m in np.flatnonzero(left.any(axis=1)):
            logger.debug("clipping %.3e of pivot mass below the factor's floor",
                         float(np.abs(rest[m, free[m]]).sum()))
    rows = _from_real(factor[:, :, :rank].swapaxes(1, 2), pairs)
    return rows.swapaxes(1, 2).reshape(*lead, d, rank)


def _prior_factor(system: ModalSystem) -> np.ndarray:
    """The initial state's (N, w) factor: ``_real_factor`` of diag(P0) in closed form.

    The real recomposed prior is the diagonal P0 / D, so its pivoted
    Cholesky takes the diagonal entries themselves, largest first with ties
    to the lower index, while an entry exceeds 1e-16 of the largest: column
    i is sqrt(P0 / D)_j e_j for the i-th pivot j, mapped back to modal
    coordinates.  The entries cut are logged as ``_real_factor`` logs them.
    """
    pairs = system._pair_index
    var = system.prior_var / pairs.weights
    top = max(var.max(initial=-np.inf), np.finfo(float).tiny)
    order = np.argsort(-var, kind="stable")
    taken = order[:np.count_nonzero(var > 1e-16 * top)]
    cut = np.delete(var, taken)  # in index order, as the pivot loop leaves it
    if cut.any():
        logger.debug("clipping %.3e of pivot mass below the factor's floor",
                     float(np.abs(cut).sum()))
    real = np.zeros((taken.size, var.size))
    real[np.arange(taken.size), taken] = np.sqrt(var[taken])
    return _from_real(real, pairs).T


def _trial_rng(seed: int) -> np.random.Generator:
    """The one stream of ``seed``, SFC64 seeded by ``SeedSequence([seed])``.

    Trial j reads its j-th block of normals.  The stream is only ever read
    in order: a ziggurat normal takes a variable number of words, so no
    trial's block starts at a known counter, and SFC64, numpy's fastest bit
    generator, serves as well as a counter-based one would.
    """
    entropy = np.random.SeedSequence([int(seed)])
    return np.random.Generator(np.random.SFC64(entropy))


def _whole(name: str, value, low: int) -> int:
    """``value`` as an int; ValueError naming ``name`` unless whole and >= low."""
    if not _is_whole(value) or value < low:
        raise ValueError(f"{name} must be >= {low} and a whole number, "
                         f"got {name}={value!r}")
    return int(value)


class _Simulator:
    """Shared precomputation for exact joint draws of states and outputs."""

    def __init__(self, system: ModalSystem, times: np.ndarray):
        self.system = system
        self.times = times
        self.plan = _filter_plan(system, times)
        self.run, self.stack, self.index, _, self.tail = self.plan
        n, r = system.num_modes, system.num_outputs
        self.n, self.r = n, r
        self.pairing = system.pairing
        self.initial_factor = _prior_factor(system)
        # per entry of the stack, the real (width, 2(N+r)) matrix whose
        # product with real normals is the complex process noise, viewed as
        # complex; all are factored in one call, each zero-padded to the
        # widest one's width
        self.noise_maps = None
        width = 0
        if system.has_input_noise:
            aug_pairing = np.concatenate([self.pairing, n + np.arange(r)])
            factors = _real_factor(self.stack.noise_cov, aug_pairing)
            width = factors.shape[-1]
            self.noise_maps = np.ascontiguousarray(
                factors.swapaxes(1, 2)).view(float)
        self.meas_chol = np.linalg.cholesky(system.r_cov)
        # widths in the documented draw order: the initial state, one sample
        # step's normals, then a trial's whole block
        self.head = self.initial_factor.shape[1]
        self.width = width
        self.stride = width + r
        tail = width if self.tail is not None else 0
        self.total = self.head + times.size * self.stride + tail
        if _TRIAL_BLOCK * self.total > _BLOCK_NORMALS:
            raise ValueError(f"one block of {_TRIAL_BLOCK} trials would hold "
                             f"{_TRIAL_BLOCK * self.total} normals; at most "
                             f"{_BLOCK_NORMALS} are allowed")

    def draw(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """Fill ``out``, (trials, width), with the next trials of ``rng``.

        Kept a method of its own: ``perfbench/spans.py`` hooks it by name.
        """
        return rng.standard_normal(out=out)

    def blocks(self, seed: int, trials: int, width: int | None = None):
        """The normals of trials 0..trials-1 of ``seed``, ``_TRIAL_BLOCK`` at a time.

        A trial reads ``width`` normals of the stream, by default a path's
        ``total``.  Each block is one reused (``_TRIAL_BLOCK``, width)
        buffer, so it holds only until the next block is drawn; the rows of
        the last block past trial ``trials - 1`` are zero.  Every block has
        the same shape, so a product over the whole block runs the same BLAS
        kernel, and rounds a trial's row the same way, whatever the trial
        count; a product of fewer rows may not.
        """
        rng = _trial_rng(seed)
        buf = np.empty((_TRIAL_BLOCK, self.total if width is None else width))
        for lo in range(0, trials, _TRIAL_BLOCK):
            count = min(trials - lo, _TRIAL_BLOCK)
            self.draw(rng, buf[:count])
            buf[count:] = 0.0
            yield buf

    def error_map(self) -> np.ndarray:
        """The (total, N) map M with zhat(T) - z(T) = xi M for a trial's normals xi.

        The error is linear in the normals with no affine part: the prior
        mean reaches z(T) and the filtered mean through the same B_0 of
        ``filter_core._backward_maps`` and cancels.  With the B_i and L_i of
        that pass, the error moves by -B_i per unit of z just after sample i
        and by L_i per unit of its increment, so M's row blocks, in the draw
        order, are

            initial state            -F_0^T B_0^T
            process noise of step i  -F_i[:, :N] B_i^T + F_i[:, N:] L_i^T
            measurement of step i    sqrt(d_i) R_chol^T L_i^T
            tail process noise       -F_tail[:, :N]

        with F_0 the (N, head) initial factor (z(0) = m0 + F_0 xi) and F_i the
        padded (w, N+r) process-noise map of step i (noise = xi F_i).
        O(m N^2 (w + r)) work, whatever the number of trials.
        """
        n, w, m = self.n, self.width, self.times.size
        emap = np.empty((self.total, n), dtype=complex)
        per_step = emap[self.head:self.head + m * self.stride].reshape(
            m, self.stride, n)
        for i, back, lmap in _backward_maps(self.system, self.plan):
            if not i:
                break
            j = self.index[i - 1]
            block = per_step[i - 1]
            if w:
                factor = self.noise_maps[j].view(complex)
                block[:w] = factor[:, n:] @ lmap.T - factor[:, :n] @ back.T
            block[w:] = (np.sqrt(self.stack.step[j])
                         * (self.meas_chol.T @ lmap.T))
        emap[:self.head] = -self.initial_factor.T @ back.T  # back is B_0
        if w and self.tail is not None:
            tail = self.noise_maps[self.tail].view(complex)
            emap[self.total - w:] = -tail[:, :n]
        return emap

    def error_factor(self) -> np.ndarray:
        """The (k, N) triangle R of the weighted error map's QR.

        k = min(total, N).  M_w is the real map of ``_real_error_map`` times
        the square roots of its weights, so a trial's squared error is
        ||xi M_w||^2; with M_w = Q R it is distributed as ||g R||^2 for k
        standard normals g.  QR, not a Cholesky of M_w^T M_w, which would
        square M_w's condition number.
        """
        emap, weights = _real_error_map(self.error_map(), self.pairing)
        return np.linalg.qr(emap * np.sqrt(weights), mode="r")

    def run_paths(self, normals: np.ndarray):
        """Propagate all trials; return (final states, output increments).

        States are (trials, num_modes); increments are the sampled outputs'
        y(t_i) - y(t_(i-1)), (trials, num_steps, num_outputs).  Between
        samples z moves by z *= e and the output integral is Y = z G^T, with
        e and G the decay and output map of the step's transition, both in
        place.
        """
        sysm = self.system
        n, r = self.n, self.r
        trials, m = normals.shape[0], self.times.size
        driven = sysm.has_input_noise
        head = self.head
        state = normals[:, :head] @ self.initial_factor.T
        state += sysm.prior_mean
        # each sample step's [ process | measurement ] normals, as a view
        per_step = normals[:, head:head + m * self.stride].reshape(
            trials, m, self.stride)
        process, measure = per_step[:, :, :-r], per_step[:, :, -r:]
        increments = np.empty((trials, m, r))
        noise_buf = np.empty((trials, 2 * (n + r))) if driven else None
        noise = noise_buf.view(complex) if driven else None
        for i, j in enumerate(self.index):
            out_int = state @ self.stack.output_map[j].T
            state *= self.stack.decay[j]
            if driven:
                np.matmul(process[:, i], self.noise_maps[j], out=noise_buf)
                state += noise[:, :n]
                out_int += noise[:, n:]
            y_inc = increments[:, i, :]
            np.matmul(measure[:, i], self.meas_chol.T, out=y_inc)
            y_inc *= np.sqrt(self.stack.step[j])
            y_inc += out_int.real
        if self.tail is not None:
            state *= self.stack.decay[self.tail]
            if driven:
                np.matmul(normals[:, head + m * self.stride:],
                          self.noise_maps[self.tail], out=noise_buf)
                state += noise[:, :n]
        return state, increments


def sample_path(system: ModalSystem, times, seed: int, trial: int = 0):
    """Draw one exact joint sample of (z(horizon), sampled outputs).

    Returns (state, outputs) with state (num_modes,) complex in modal
    coordinates and outputs (len(times), num_outputs) the cumulative sampled
    output values.  The draw is trial ``trial`` of ``seed``'s stream read a
    path's ``total`` normals a trial, in the order of the module docstring:
    the stream is read up to that trial's block, ``_TRIAL_BLOCK`` trials at
    a time.
    """
    trial = _whole("trial", trial, 0)
    seed = _whole("seed", seed, 0)
    times = _validate_times(system, times)
    sim = _Simulator(system, times)
    *_, normals = sim.blocks(seed, trial + 1)  # the last block holds the trial
    row = trial % _TRIAL_BLOCK
    state, increments = sim.run_paths(normals[row:row + 1])
    return state[0], np.cumsum(increments[0], axis=0)


@dataclass(frozen=True)
class SimulationBatch:
    """Monte Carlo squared-error sample versus the deterministic trace.

    ``map_trace`` is ||R||_F^2 of the simulator's error factor, equal to
    ``trace_err`` in exact algebra: their gap is the deterministic half of
    the check, so ``z_score`` tests the draw alone.
    """

    label: str
    grid: np.ndarray
    trials: int
    seed: int
    errors: np.ndarray
    empirical_mean: float
    std_error: float
    trace_err: float
    z_score: float
    map_trace: float


def _real_error_map(emap: np.ndarray, pairing: np.ndarray):
    """The real (total, N) map M A^-T and the weights of its N columns.

    A trial's error e = xi M has e_mate = conj(e_k) on a pair, so its real
    coordinates rho = e A^-T = xi M A^-T are (Re e_k, Im e_k) there and
    ||e||^2 = sum_k w_k rho_k^2, with weight 1 on a self-conjugate mode and
    2 on each member of a pair.  A map whose real coordinates keep an
    imaginary part does not respect the pairing, and is refused.
    """
    pairs = _pairs(pairing)
    rho = _to_real(emap, pairs)
    scale = float(np.abs(rho).max(initial=0.0)) or 1.0
    if np.abs(rho.imag).max(initial=0.0) > 1e-8 * scale:
        raise ValueError("error map does not respect the conjugate pairing")
    return np.ascontiguousarray(rho.real), pairs.weights


def empirical_error(system: ModalSystem, times, trials: int,
                    seed: int) -> SimulationBatch:
    """Monte Carlo estimate of E||zhat(horizon) - z(horizon)||^2.

    Draws ``trials`` independent exact samples of the error and compares
    their mean squared norm against the deterministic ``trace_err`` of the
    same grid.  A trial's squared error is ||g R||^2 for the simulator's
    (k, N) ``error_factor`` R, k = min(normals of a path, N), and g the
    trial's k normals of the seed's stream, which is read ``_TRIAL_BLOCK``
    trials at a time, one real gemm a block.  The z-score should be O(1);
    |z| > 3 flags disagreement.
    """
    trials = _whole("trials", trials, 2)
    seed = _whole("seed", seed, 0)
    times = _validate_times(system, times)
    if times.size == 0:
        raise ValueError("need at least one sample time")
    sim = _Simulator(system, times)
    factor = sim.error_factor()
    errors = np.concatenate([
        np.square(normals @ factor).sum(axis=1)
        for normals in sim.blocks(seed, trials, factor.shape[0])])[:trials]
    empirical = float(errors.mean())
    sdev = float(errors.std(ddof=1) / np.sqrt(trials))
    trace = sim.run.trace_err
    z = (empirical - trace) / sdev if sdev > 0 else 0.0
    return SimulationBatch(label=system.label, grid=times, trials=trials,
                           seed=seed, errors=errors,
                           empirical_mean=empirical, std_error=sdev,
                           trace_err=trace, z_score=float(z),
                           map_trace=float(np.square(factor).sum()))
