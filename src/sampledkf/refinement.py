"""Dyadic grid refinement: discrepancy curves, telescoping, level sums.

The object of study is the squared estimator discrepancy

    D(n) = E || zhat_T,n - zhat(T) ||^2

between the filter run on the uniform grid {j T / n} and the continuous-data
limit.  For nested observation sets the two estimators form a martingale pair,
so the discrepancy is computable without sampling as a difference of error
traces: D(n) = trace_err(coarse) - trace_err(reference).  Every n of a curve
shares one reference, the dyadic refinement of the largest n, which each
coarse grid nests inside.  Each trace is taken from its grid size alone
(``filter_core._uniform_traces``): no grid array is built for it.  Undriven,
a reference costs N^2 kernel values and one N x N factor for any number of
points, and the coarse grids of n points with n r <= 3N/4 rows are
observed in sample space, those of one odd part as one dyadic chain: one
O(n^2 r^2 N) update for the largest such n gives every smaller one as a
prefix.  The reference, its check and every coarse size the sample space
does not keep are conditioned as one stack (one call at N = 60, one per
size from N = 182).  Driven, the coarse grids, the reference and its check come from
one stacked doubling: one kernel call and bit_length(m) - 1 squaring
stages for the largest m, plus each size's digit joins.

Refining one level at a time and one point at a time telescopes that same
difference into a sum of one-insertion increments, each in closed form
(``filter_core.increment_variance``).  ``telescope_check`` verifies the
identity numerically.  It checks its arguments, bounds the depth
(``_too_deep``), splits by level the gains that ``filter_core._telescope``
returns in chain order, and reports the residual against the trace drop;
how the chain is observed and conditioned is ``filter_core``'s alone (see
its docstring).
``level_sum`` isolates the per-level interpolation operator whose weighted
norm drives every rate bound.  Its sum over a level's new points is
geometric, the sum ``filter_core._geometric_sum`` also takes for the
closed-form J, so a level sum costs N^2 kernel values at any level.

Grid convention: ``dyadic_grid(n, k)`` is the uniform (n 2**k)-point grid
(j T) / (n 2**k), j = 1..n 2**k, including the horizon, so level k adds the
midpoints of level k-1, and the points new at level k are its odd j.
``_dyadic_size`` checks n and k and forms the size for ``dyadic_grid``,
``telescope_check`` and ``level_sum``.  Only ``dyadic_grid`` builds a whole
grid, for callers that want the array: traces and level sums take the size,
and the telescope forms the rows of its new points (the odd j) one block at
a time, never a whole level.  All
times are constructed as (integer * horizon) / denominator with
denominators that double per level, which keeps membership across levels
exact in floating point.  That needs the integers exact as doubles, so a
curve's finest grid, the reference check at ``reference_level + 1``, and the
grid of a level sum may have at most 2**53 points (``_inexact``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ReferenceUnconvergedError
from .filter_core import _geometric_sum, _telescope, _uniform_traces
from .kernels import _hermitize, _mesh_phi_h
from .spectral_model import ModalSystem, _is_whole

__all__ = ["dyadic_grid", "DiscrepancyCurve", "discrepancy_curve",
           "TelescopeReport", "telescope_check", "level_sum"]

#: Tolerated relative undershoot before a negative discrepancy is an error.
_NEGATIVE_SLACK = 1e-10
#: Maximal admissible relative shift of the curve when the reference gains a level.
_REFERENCE_TOLERANCE = 0.05
#: Most points x modes of the deepest telescope level: a bound on its run time.
_DEEPEST_LEVEL_CELLS = 2 ** 24


def _dyadic_size(base_n: int, level: int) -> int:
    """The point count base_n 2**level of a dyadic grid, both whole and in range."""
    if not (_is_whole(base_n) and _is_whole(level)) or base_n < 1 or level < 0:
        raise ValueError(f"dyadic_grid needs base_n >= 1 and level >= 0 as whole "
                         f"numbers, got base_n={base_n!r}, level={level!r}")
    return int(base_n) * 2 ** int(level)


def _too_deep(base_n: int, level: int, num_modes: int) -> bool:
    """True when a telescope level's new points times the modes exceed 2**24.

    Level k of a base_n-point grid adds base_n 2**(k - 1) points.  The
    telescope forms their rows one block at a time, so the bound sizes no
    work array: it bounds the run time, about (points x modes) r N for the
    deepest level, and with it the one gain per point the report holds.
    From 26 levels on any base and N exceed it, so the power is capped
    there and never grows without bound.
    """
    return base_n * num_modes * 2 ** (min(level, 26) - 1) > _DEEPEST_LEVEL_CELLS


def _inexact(base_n: int, level: int) -> bool:
    """True when the grid of base_n 2**level points has more than 2**53.

    Past that the integers j of its times (j T) / m are no longer exact
    doubles.  The level is compared first, so no huge power is formed.
    """
    return level > 53 or base_n * 2 ** level > 2 ** 53


def dyadic_grid(base_n: int, level: int, horizon: float = 1.0) -> np.ndarray:
    """Read-only times of the uniform ``base_n * 2**level``-point grid on (0, T].

    The times are (j T) / m, j = 1..m, for m = base_n 2**level, the last set
    to T exactly: the package's one definition of the dyadic grid.  The
    largest product m T must be finite, so a horizon within a factor m of
    the largest double is refused.
    """
    m = _dyadic_size(base_n, level)
    if not 0 < horizon < np.inf:
        raise ValueError("dyadic_grid needs a finite, positive horizon")
    if not math.isfinite(m * float(horizon)):
        raise ValueError(f"dyadic_grid needs horizon * {m} finite, got "
                         f"horizon={horizon!r}")
    times = (np.arange(1, m + 1) * horizon) / m
    times[-1] = horizon  # (m * horizon) / m need not round back to horizon
    times.setflags(write=False)
    return times


@dataclass(frozen=True)
class DiscrepancyCurve:
    """Discrepancies D(n) against one shared refined reference grid."""

    label: str
    horizon: float
    n_values: np.ndarray
    values: np.ndarray
    coarse_traces: np.ndarray
    reference_trace: float
    reference_points: int
    reference_level: int

    def __post_init__(self):
        for arr in (self.n_values, self.values, self.coarse_traces):
            arr.setflags(write=False)


def _coarse_trace(system: ModalSystem, sizes) -> np.ndarray:
    """``_uniform_traces`` under its own name: ``perfbench/spans.py`` hooks it.

    A curve hands it every size at once, its coarse grids, reference and
    reference check, so a driven curve takes them from one doubling.
    """
    return _uniform_traces(system, sizes)


def discrepancy_curve(system: ModalSystem, n_values, reference_level: int = 6,
                      check_reference: bool = True) -> DiscrepancyCurve:
    """Deterministic discrepancy curve n -> D(n).

    The reference is ``dyadic_grid(max(n_values), reference_level)``, shared
    by every n, so each n has to divide max(n_values) * 2**reference_level
    for its grid to nest inside the reference, and the grid one level finer
    may have at most 2**53 points.  Every trace is taken from its grid size
    alone, so no grid of the reference's size is ever built.

    ``check_reference`` re-runs the reference one level finer and rejects the
    result if any D(n) moves by more than 5 percent.
    """
    requested = np.atleast_1d(n_values)
    if requested.size == 0 or not all(_is_whole(n) and n >= 1 for n in requested):
        raise ValueError("n_values must be positive integers")
    n_values = np.asarray(sorted(int(n) for n in requested))
    if np.unique(n_values).size != n_values.size:
        raise ValueError("n_values must be distinct")
    if not _is_whole(reference_level) or reference_level < 1:
        raise ValueError(f"reference_level must be a whole number at least 1, "
                         f"got {reference_level!r}")
    reference_level = int(reference_level)
    n_max = int(n_values[-1])
    if _inexact(n_max, reference_level + 1):
        raise ValueError(f"reference_level={reference_level} is too large for "
                         f"n={n_max}: the reference check needs {n_max} * "
                         f"2**{reference_level + 1} points, more than 2**53")
    resolution = n_max * 2 ** reference_level
    for n in n_values:
        if resolution % int(n):
            raise ValueError(
                f"n={int(n)} does not divide the reference resolution "
                f"{n_max} * 2**{reference_level}; choose divisors")

    sizes = [*n_values.tolist(), resolution]
    if check_reference:
        sizes.append(2 * resolution)
    traces = _coarse_trace(system, sizes)
    coarse, reference = traces[:n_values.size], traces[n_values.size]
    values = coarse - reference

    if check_reference:
        finer = traces[-1]
        finer_values = coarse - finer
        floor = 1e-14 * reference
        for n, d_ref, d_fine in zip(n_values, values, finer_values):
            if abs(d_ref - d_fine) > _REFERENCE_TOLERANCE * max(abs(d_fine), floor):
                raise ReferenceUnconvergedError(
                    f"D({int(n)}) shifts from {d_ref:.6e} to {d_fine:.6e} when "
                    f"the reference is refined past level {reference_level}; "
                    f"increase reference_level")

    if np.any(values < -_NEGATIVE_SLACK * reference):
        worst = float(np.min(values))
        raise NumericalError(
            f"discrepancy came out negative ({worst:.3e}); grids are not "
            f"nested or the filter lost positivity")

    return DiscrepancyCurve(
        label=system.label, horizon=system.horizon, n_values=n_values,
        values=values.astype(float), coarse_traces=coarse,
        reference_trace=float(reference), reference_points=resolution,
        reference_level=reference_level)


@dataclass(frozen=True)
class TelescopeReport:
    """Outcome of summing one-insertion increments across dyadic levels."""

    base_n: int
    levels: int
    horizon: float
    trace_drop: float
    increment_sum: float
    residual: float
    level_sums: np.ndarray
    increments: tuple[np.ndarray, ...]


def telescope_check(system: ModalSystem, base_n: int, levels: int) -> TelescopeReport:
    """Verify that per-point increments telescope to the trace drop.

    Inserts every midpoint in order (levels in order, points left to
    right) on the dyadic chain of ``filter_core._telescope``; each gain
    equals ``increment_variance`` on the set inserted so far.  The gains
    are split by level, and the trace drop they should sum to is taken
    between the uniform grids of base_n and base_n 2**levels points, from
    the two sizes alone.  The residual is the absolute mismatch relative to
    the coarse trace, or the absolute mismatch itself when the coarse trace
    is 0.  Undriven systems only.
    """
    if system.has_input_noise:
        raise ValueError("telescope_check needs an undriven system; with input "
                         "noise take trace differences of sequential_filter runs")
    if not _is_whole(levels) or levels < 1:
        raise ValueError(f"telescope_check needs at least one level: levels "
                         f"must be a whole number >= 1, got levels={levels!r}")
    levels = int(levels)
    horizon = system.horizon
    base_n = _dyadic_size(base_n, 0)
    if _too_deep(base_n, levels, system.num_modes):
        raise ValueError(
            f"levels={levels} is too deep: level {levels} of {base_n} base "
            f"points puts {base_n} * 2**{levels - 1} points of "
            f"{system.num_modes} modes in one level; at most 2**24 points "
            f"x modes are allowed")
    top = base_n * 2 ** levels
    coarse, fine, gains, _ = _telescope(system, base_n, top)
    # level l holds positions base_n 2**(l-1) .. base_n 2**l - 1
    per_level = np.split(gains, [base_n * (2 ** level - 1)
                                 for level in range(1, levels)])
    total = float(sum(arr.sum() for arr in per_level))
    drop = coarse - fine
    # a coarse trace of 0 (e^(lambda T) underflowed, or no prior variance)
    # leaves nothing to be relative to: the mismatch stays absolute
    residual = abs(total - drop) / coarse if coarse else abs(total - drop)
    return TelescopeReport(base_n=base_n, levels=levels, horizon=horizon,
                           trace_drop=drop, increment_sum=total,
                           residual=residual,
                           level_sums=np.array([arr.sum() for arr in per_level]),
                           increments=tuple(per_level))


def level_sum(system: ModalSystem, base_n: int, level: int,
              weights: np.ndarray) -> tuple[float, float]:
    """Weighted norm of the stacked interpolation residual maps at one level.

    Over the points t_j new at ``level`` (mesh width h), forms

        G[k, l] = sum_j conj(phi_h(lam_k, t_j, h)) phi_h(lam_l, t_j, h)
                  * <c_k, c_l>

    and returns (lambda_max(W^{-1/2} G W^{-1/2}), h) for W = diag(weights).
    This is the sharp constant in  sum_j ||C_h(t_j) x||^2 <= value * ||x||_W^2
    and its decay in the level is what the convergence theorems quantify.

    The sum is taken in closed form.  With m = base_n 2**level and h = T/m
    the new points are t_j = (2j + 1) h, j < M = m/2, and
    phi_h(lam, t_j, h) = a(lam) e^(2 j h lam) with a = phi_h(lam, h, h) =
    -(lam/2) I1(lam, h)^2, so

        G = <c_k, c_l> conj(a_k) a_l S[k, l],

    S = ``filter_core._geometric_sum`` over every row, at width 2h and count
    M: N^2 kernel values at any level, and no point is formed.  A grid finer
    than 2**53 points is refused, as for ``discrepancy_curve``.
    """
    if not _is_whole(level) or level < 1:
        raise ValueError(f"level_sum needs level >= 1 as a whole number, "
                         f"got level={level!r}")
    level = int(level)
    base_n = _dyadic_size(base_n, 0)
    if _inexact(base_n, level):
        raise ValueError(f"level={level} is too deep: {base_n} * 2**{level} "
                         f"grid points are more than 2**53")
    weights = np.asarray(weights, dtype=float).ravel()
    if (weights.shape != (system.num_modes,)
            or not np.all(np.isfinite(weights) & (weights > 0))):
        raise ValueError("weights must be positive and finite, one per mode")
    m = base_n * 2 ** level
    h = system.horizon / m
    a = _mesh_phi_h(system.eigenvalues, h)
    gram = ((system.output_coeffs.conj() @ system.output_coeffs.T)
            * np.outer(a.conj(), a)
            * _geometric_sum(system, system.eigenvalues, [m // 2])[0])
    scale = 1.0 / np.sqrt(weights)
    gram = gram * scale[:, None] * scale[None, :]
    value = float(np.linalg.eigvalsh(_hermitize(gram))[-1])
    return value, h
