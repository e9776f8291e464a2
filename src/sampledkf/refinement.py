"""Dyadic grid refinement: discrepancy curves, telescoping, level sums.

The object of study is the squared estimator discrepancy

    D(n) = E || zhat_T,n - zhat(T) ||^2

between the filter run on the uniform grid {j T / n} and the continuous-data
limit.  For nested observation sets the two estimators form a martingale pair,
so the discrepancy is computable without sampling as a difference of error
traces: D(n) = trace_err(coarse) - trace_err(reference), with the reference a
dyadically refined superset of the coarse grid.

Refining one level at a time and one point at a time telescopes that same
difference into a sum of one-insertion increments, each available in closed
form through ``increment_variance``.  ``telescope_check`` verifies the
identity numerically; ``level_sum`` isolates the per-level interpolation
operator whose weighted norm drives every rate bound.

Grid convention: level 0 of ``dyadic_grid(n, k)`` is the uniform n-point grid
including the horizon; level j adds the midpoints of level j-1.  All times are
constructed as (integer * horizon) / denominator with denominators that double
per level, which keeps membership across levels exact in floating point.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ReferenceUnconvergedError
from .filter_core import _uniform_grid, increment_variance, posterior_trace
from .kernels import phi_h
from .spectral_model import ModalSystem

logger = logging.getLogger(__name__)

__all__ = ["DyadicGrid", "dyadic_grid", "DiscrepancyCurve", "discrepancy_curve",
           "TelescopeReport", "telescope_check", "level_sum"]

#: Tolerated relative undershoot before a negative discrepancy is an error.
_NEGATIVE_SLACK = 1e-10
#: Maximal admissible relative shift of the curve when the reference gains a level.
_REFERENCE_TOLERANCE = 0.05


@dataclass(frozen=True)
class DyadicGrid:
    """A uniform base grid together with ``level`` rounds of midpoints."""

    base_n: int
    level: int
    horizon: float
    times: np.ndarray

    def __post_init__(self):
        self.times.setflags(write=False)


def _level_points(base_n: int, level: int, horizon: float) -> np.ndarray:
    """The points new at ``level``: odd multiples of the level's mesh width."""
    m = base_n * 2 ** level
    odd = np.arange(1, m, 2)
    return (odd * horizon) / m


def dyadic_grid(base_n: int, level: int, horizon: float = 1.0) -> DyadicGrid:
    if base_n < 1 or level < 0:
        raise ValueError("dyadic_grid needs base_n >= 1 and level >= 0")
    if not horizon > 0:
        raise ValueError("dyadic_grid needs a positive horizon")
    times = _uniform_grid(horizon, base_n * 2 ** level)
    return DyadicGrid(base_n=base_n, level=level, horizon=horizon, times=times)


@dataclass(frozen=True)
class DiscrepancyCurve:
    """Discrepancies D(n) against a common refined reference grid."""

    label: str
    horizon: float
    n_values: np.ndarray
    values: np.ndarray
    coarse_traces: np.ndarray
    reference_traces: np.ndarray
    reference_trace: float
    reference_points: int
    reference_level: int

    def __post_init__(self):
        for arr in (self.n_values, self.values, self.coarse_traces,
                    self.reference_traces):
            arr.setflags(write=False)


def _coarse_trace(system: ModalSystem, n: int) -> float:
    return posterior_trace(system, dyadic_grid(n, 0, system.horizon).times)


def discrepancy_curve(system: ModalSystem, n_values, reference_level: int = 6,
                      check_reference: bool = True,
                      per_n_reference: bool = False) -> DiscrepancyCurve:
    """Deterministic discrepancy curve n -> D(n).

    Every requested grid must nest inside the reference; with the default
    shared reference (built over max(n_values)) this means each n has to
    divide max(n_values) * 2**reference_level.

    ``check_reference`` re-runs the reference one level finer and rejects the
    result if any D(n) moves by more than 5 percent.  ``per_n_reference``
    refines each coarse grid separately instead of sharing one reference.
    """
    requested = np.atleast_1d(n_values)
    if requested.size == 0 or not all(float(n).is_integer() and n >= 1
                                      for n in requested):
        raise ValueError("n_values must be positive integers")
    n_values = np.asarray(sorted(int(n) for n in requested))
    if np.unique(n_values).size != n_values.size:
        raise ValueError("n_values must be distinct")
    if reference_level < 1:
        raise ValueError("reference_level must be at least 1")
    n_max = int(n_values[-1])
    if not per_n_reference:
        resolution = n_max * 2 ** reference_level
        for n in n_values:
            if resolution % int(n):
                raise ValueError(
                    f"n={int(n)} does not divide the reference resolution "
                    f"{n_max} * 2**{reference_level}; choose divisors or "
                    f"pass per_n_reference=True")

    def ref_trace(level: int) -> float | np.ndarray:
        if per_n_reference:
            grids = [dyadic_grid(int(n), level, system.horizon) for n in n_values]
        else:
            grids = [dyadic_grid(n_max, level, system.horizon)]
        traces = [posterior_trace(system, g.times) for g in grids]
        return np.array(traces) if per_n_reference else traces[0]

    coarse = np.array([_coarse_trace(system, int(n)) for n in n_values])

    reference = ref_trace(reference_level)
    values = coarse - reference

    if check_reference:
        finer = ref_trace(reference_level + 1)
        finer_values = coarse - finer
        floor = 1e-14 * float(np.max(np.atleast_1d(reference)))
        for n, d_ref, d_fine in zip(n_values, values, finer_values):
            if abs(d_ref - d_fine) > _REFERENCE_TOLERANCE * max(abs(d_fine), floor):
                raise ReferenceUnconvergedError(
                    f"D({int(n)}) shifts from {d_ref:.6e} to {d_fine:.6e} when "
                    f"the reference is refined past level {reference_level}; "
                    f"increase reference_level")

    ref_scale = float(np.max(np.atleast_1d(reference)))
    if np.any(values < -_NEGATIVE_SLACK * ref_scale):
        worst = float(np.min(values))
        raise NumericalError(
            f"discrepancy came out negative ({worst:.3e}); grids are not "
            f"nested or the filter lost positivity")

    ref_array = np.atleast_1d(np.asarray(reference, dtype=float))
    if ref_array.size == 1:
        ref_array = np.full(n_values.size, float(ref_array[0]))
    return DiscrepancyCurve(
        label=system.label, horizon=system.horizon, n_values=n_values,
        values=values.astype(float), coarse_traces=coarse,
        reference_traces=ref_array,
        reference_trace=float(ref_array[-1]),
        reference_points=n_max * 2 ** reference_level,
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

    Runs the filter on ``dyadic_grid(base_n, 0)`` and on the fully refined
    grid, then inserts every midpoint one at a time (levels in order, points
    left to right) accumulating ``increment_variance``.  The residual is the
    absolute mismatch relative to the coarse trace.  Undriven systems only.
    """
    if levels < 1:
        raise ValueError("telescope_check needs at least one level")
    horizon = system.horizon
    coarse = posterior_trace(system, dyadic_grid(base_n, 0, horizon).times)
    fine = posterior_trace(system, dyadic_grid(base_n, levels, horizon).times)
    per_level: list[np.ndarray] = []
    base = list(dyadic_grid(base_n, 0, horizon).times)
    for level in range(1, levels + 1):
        h = horizon / (base_n * 2 ** level)
        points = _level_points(base_n, level, horizon)
        gains = []
        for t in points:
            gains.append(increment_variance(system, base, float(t), h))
            base.append(float(t))
        per_level.append(np.asarray(gains))
    total = float(sum(arr.sum() for arr in per_level))
    drop = coarse - fine
    residual = abs(total - drop) / coarse
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
    """
    if level < 1:
        raise ValueError("level_sum needs level >= 1")
    weights = np.asarray(weights, dtype=float).ravel()
    if weights.shape != (system.num_modes,) or np.any(weights <= 0):
        raise ValueError("weights must be positive, one per mode")
    h = system.horizon / (base_n * 2 ** level)
    points = _level_points(base_n, level, system.horizon)
    phis = phi_h(system.eigenvalues[None, :], points[:, None], h)
    gram = (phis.conj().T @ phis) * (system.output_coeffs.conj()
                                     @ system.output_coeffs.T)
    scale = 1.0 / np.sqrt(weights)
    gram = gram * scale[:, None] * scale[None, :]
    value = float(np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)[-1])
    return value, h
