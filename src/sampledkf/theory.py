"""A-priori rate bounds for the sampling discrepancy, and rate fitting.

Each ``theorem*_bound`` function evaluates one closed-form constant M under a
particular assumption regime and packages it as ``bound(n) = M T^a / n^b``:

1. diagonalizable generator with modal output growth ||C e_k|| <~ |lam_k|^gamma
   and polynomial spectrum |lam_k| ~ Gamma k^delta  -> b = 2 - 2 gamma - 1/delta;
2. admissible output operator plus the k^delta spectral scale -> b = 1 - 1/(2 delta);
3. self-adjoint (real-spectrum) dissipative generator, output bounded either on
   the state space or on the domain of the generator                  -> b = 1;
4. strictly negative spectrum with fractional smoothing: output bounded on the
   nu-power domain, initial state in the eta-power domain  -> b = 1 + 2(eta - nu);
5. driven systems: input noise adds M1/n + M2/n^2 on top of the initial-state
   term of one of the regimes above.

All constants contain the coarse filter error E||zhat_{T,n} - z(T)||^2, a
decreasing function of n, so a bound anchored at the smallest tested n stays
valid for every larger n.  That error is the posterior trace on the n-point
uniform grid; each bound takes it as ``coarse_trace`` when the caller already
has it (a discrepancy curve holds it in ``coarse_traces``) and otherwise runs
the anchor filter itself, with the same result to the bit.  ``check_bound``
verifies a discrepancy curve pointwise against a bound; ``fit_rate`` extracts
the empirical log-log slope.

Norm conventions, fixed by the assumption regime of each variant: variants 1,
3 (domain case) and 5 use the graph weight 1 + |lam_k|^2; variant 2 uses the
index weight k^(2 delta); variant 4 uses the homogeneous weight |lam_k|^(2 nu)
or |lam_k|^(2 eta).  Operator norms of C and B are spectral norms of the
correspondingly rescaled coefficient matrices.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from ._scalars import phi1
from .filter_core import _uniform_traces
from .kernels import _hermitize
from .refinement import DiscrepancyCurve
from .spectral_model import (ModalSystem, _is_whole, domain_weights,
                             fractional_weights, index_weights,
                             spectral_parameters, unit_weights)

logger = logging.getLogger(__name__)

__all__ = ["TheoremBound", "BoundCheck", "RateFit", "analytic_constant",
           "admissibility_constant", "observability_gram", "theorem1_bound",
           "theorem2_bound", "theorem3_bound", "theorem4_bound",
           "theorem5_bound", "check_bound", "fit_rate"]


@dataclass(frozen=True)
class TheoremBound:
    """bound(n) = constant * horizon**t_power / n**exponent, anchored at n_anchor.

    Variant 5 stores (M1, M2) in input_constants instead and composes with the
    nested initial-state bound err_x:  M1/n + M2/n^2 + err_x(n).
    """

    variant: int
    description: str
    system_label: str
    horizon: float
    n_anchor: int
    coarse_trace: float
    constant: float
    exponent: float
    t_power: float
    ingredients: dict = field(default_factory=dict)
    input_constants: tuple[float, float] | None = None
    err_x: "TheoremBound | None" = None

    def value_at(self, n):
        """Evaluate the bound at sample count(s) n >= n_anchor."""
        narr = np.asarray(n, dtype=float)
        if np.any(narr <= 0):
            raise ValueError("n must be a positive sample count")
        if self.input_constants is not None:
            m1, m2 = self.input_constants
            out = m1 / narr + m2 / narr ** 2
            if self.err_x is not None:
                out = out + self.err_x.value_at(narr)
        else:
            out = self.constant * self.horizon ** self.t_power / narr ** self.exponent
        return out if out.shape else float(out)


def _anchor_trace(system: ModalSystem, n: int,
                  trace: float | None = None) -> float:
    """The posterior trace on the n-point uniform grid: ``trace`` if given,
    else the anchor's ``_uniform_traces``.

    ``perfbench/spans.py`` hooks it by name.  A given trace must be finite
    and non-negative, as every posterior trace is.
    """
    if not _is_whole(n) or n < 1:
        raise ValueError(f"n must be a positive sample count (a whole number "
                         f">= 1), got n={n!r}")
    if trace is None:
        return float(_uniform_traces(system, [int(n)])[0])
    trace = float(trace)
    if not (np.isfinite(trace) and trace >= 0):
        raise ValueError(f"coarse_trace must be a finite posterior trace >= 0, "
                         f"got coarse_trace={trace!r}")
    return trace


def _min_eig_r(system: ModalSystem) -> float:
    return float(np.linalg.eigvalsh(system.r_cov).min())


def _output_norm(system: ModalSystem, weights: np.ndarray) -> float:
    """Spectral norm of C as a map from the weighted mode space to outputs."""
    scaled = system.output_coeffs.T / np.sqrt(weights)[None, :]
    return float(np.linalg.svd(scaled, compute_uv=False)[0])


def _input_norm(system: ModalSystem, weights: np.ndarray) -> float:
    """Spectral norm of B as a map from inputs to the weighted mode space."""
    scaled = np.sqrt(weights)[:, None] * system.input_coeffs
    return float(np.linalg.svd(scaled, compute_uv=False)[0])


def analytic_constant(kappa: float) -> float:
    """Smallest c with ||(-A)^kappa e^{At}|| <= c / t^kappa over negative spectra.

    sup_{x >= 0} x^kappa e^{-x} = (kappa / e)^kappa, attained at x = kappa.
    """
    if kappa < 0:
        raise ValueError("kappa must be non-negative")
    return 1.0 if kappa == 0 else float((kappa / np.e) ** kappa)


def observability_gram(system: ModalSystem, horizon: float | None = None) -> np.ndarray:
    """Observability gramian G with x^H G x = integral_0^T ||C e^{At} x||^2 dt.

    Entrywise G[k, l] = <c_k, c_l> integral_0^T e^{(conj(lam_k)+lam_l)t} dt; the
    integral is T * phi1((conj(lam_k)+lam_l) T), which covers the removable
    lam_k + conj(lam_l) -> 0 case (equal wave frequencies).
    """
    t = system.horizon if horizon is None else float(horizon)
    if not t > 0:
        raise ValueError("horizon must be positive")
    lam = system.eigenvalues
    a = lam.conj()[:, None] + lam[None, :]
    gram = (system.output_coeffs.conj() @ system.output_coeffs.T) * (t * phi1(a * t))
    return _hermitize(gram)


def admissibility_constant(system: ModalSystem, horizon: float | None = None) -> float:
    """Output-energy constant H_T: integral_0^T ||C e^{At} x||^2 dt <= H_T^2 ||x||^2.

    The sharp value is the square root of the largest eigenvalue of the
    observability gramian.
    """
    gram = observability_gram(system, horizon)
    top = float(np.linalg.eigvalsh(gram)[-1])
    return float(np.sqrt(max(top, 0.0)))


def _require_real_spectrum(system: ModalSystem, what: str) -> None:
    lam = system.eigenvalues
    if np.any(np.abs(lam.imag) > 1e-12 * np.maximum(1.0, np.abs(lam))):
        raise ValueError(f"{what} needs a real (self-adjoint, dissipative) spectrum")


def theorem1_bound(system: ModalSystem, n: int, gamma: float, *,
                   coarse_trace: float | None = None) -> TheoremBound:
    """Rate bound for polynomially growing spectra with modal output control.

    Requires delta > 1/2 from the spectral fit, gamma in [0, 1) with
    2 gamma + 1/delta < 2, and a spectrum tail obeying |lam_k| >= Gamma_check k^delta.
    ``coarse_trace``, as in every bound, is the posterior trace on the
    n-point uniform grid if the caller has it; without it the anchor filter
    is run.
    """
    trace_n = _anchor_trace(system, n, coarse_trace)
    params = spectral_parameters(system, gamma, n=n)
    delta = params.delta_fit
    if not np.isfinite(delta) or delta <= 0.5:
        raise ValueError("spectral growth exponent must exceed 1/2")
    if not (0 <= gamma < 1 and 2 * gamma + 1 / delta < 2):
        raise ValueError("need gamma in [0, 1) with 2 gamma + 1/delta < 2")
    gamma_check = min(0.9 * params.gamma_tail, params.gamma_check)
    if params.gamma_check < 0.9 * params.gamma_tail:
        logger.warning("spectrum tail ratio %.4g dips below 0.9 * limit %.4g; "
                       "using the observed minimum", params.gamma_check,
                       params.gamma_tail)
    b = 2.0 - 2.0 * gamma - 1.0 / delta
    energy = system.weighted_prior_energy(domain_weights(system))
    min_r = _min_eig_r(system)
    shape = max(9.0 ** delta * params.gamma_hat ** (2 * gamma) / 4.0,
                4.0 / gamma_check ** (4.0 - 2.0 * gamma))
    constant = (2.0 * params.mu * trace_n * energy / ((2.0 ** b - 1.0) * min_r)
                * params.sup_ratio ** 2 * shape)
    return TheoremBound(
        variant=1, description="modal-growth spectrum bound",
        system_label=system.label, horizon=system.horizon, n_anchor=int(n),
        coarse_trace=trace_n, constant=constant, exponent=b, t_power=b + 1.0,
        ingredients={"gamma": float(gamma), "delta": delta,
                     "gamma_hat": params.gamma_hat, "gamma_check": gamma_check,
                     "sup_ratio": params.sup_ratio, "mu": params.mu,
                     "prior_domain_energy": energy, "min_eig_r": min_r})


def theorem2_bound(system: ModalSystem, n: int, *,
                   coarse_trace: float | None = None) -> TheoremBound:
    """Rate bound under output admissibility plus the k^delta spectral scale.

    For the heat family the ``admissibility`` ingredient is the truncation's
    H_T(N), which grows like N^(1/2) (the boundary-derivative output is not
    admissible), so the bound holds for the truncated model only.
    ``coarse_trace``: the n-point posterior trace, as in ``theorem1_bound``.
    """
    trace_n = _anchor_trace(system, n, coarse_trace)
    params = spectral_parameters(system, 0.0, n=n)
    delta = params.delta_fit
    if not np.isfinite(delta) or delta <= 0.5:
        raise ValueError("spectral growth exponent must exceed 1/2")
    b = 1.0 - 1.0 / (2.0 * delta)
    k_weights = index_weights(system, delta)
    energy = system.weighted_prior_energy(k_weights)
    c_norm = _output_norm(system, k_weights)
    h_t = admissibility_constant(system)
    min_r = _min_eig_r(system)
    shape = max(3.0 ** (2 * delta + 1) * system.horizon * params.mu * c_norm ** 2
                / (8 * delta + 4), h_t / (2 * delta - 1))
    constant = 2.0 * trace_n * energy / ((2.0 ** b - 1.0) * min_r) * shape
    return TheoremBound(
        variant=2, description="admissible-output spectrum bound",
        system_label=system.label, horizon=system.horizon, n_anchor=int(n),
        coarse_trace=trace_n, constant=constant, exponent=b, t_power=b + 1.0,
        ingredients={"delta": delta, "output_norm": c_norm,
                     "admissibility": h_t, "mu": params.mu,
                     "prior_energy": energy, "min_eig_r": min_r})


def theorem3_bound(system: ModalSystem, n: int, case: str = "domain", *,
                   coarse_trace: float | None = None) -> TheoremBound:
    """First-order bound for smoothing (real-spectrum) dynamics.

    ``case`` selects where the output operator is bounded: "bounded" uses the
    plain state norm, "domain" the graph norm of the generator.
    ``coarse_trace``: the n-point posterior trace, as in ``theorem1_bound``.
    """
    _require_real_spectrum(system, "the smoothing-dynamics bound")
    if case not in ("bounded", "domain"):
        raise ValueError("case must be 'bounded' or 'domain'")
    weights = unit_weights(system) if case == "bounded" else domain_weights(system)
    trace_n = _anchor_trace(system, n, coarse_trace)
    c_norm = _output_norm(system, weights)
    energy = system.weighted_prior_energy(weights)
    min_r = _min_eig_r(system)
    mu = float(max(1.0, np.exp(system.eigenvalues.real.max() * system.horizon)))
    c1 = analytic_constant(1.0)
    constant = (2.0 * c_norm ** 2 / min_r * (mu ** 2 + c1 ** 2 * np.pi ** 2 / 96.0)
                * trace_n * energy)
    return TheoremBound(
        variant=3, description=f"smoothing-dynamics bound ({case} output)",
        system_label=system.label, horizon=system.horizon, n_anchor=int(n),
        coarse_trace=trace_n, constant=constant, exponent=1.0, t_power=1.0,
        ingredients={"case": case, "output_norm": c_norm, "mu": mu,
                     "analytic_c1": c1, "prior_energy": energy,
                     "min_eig_r": min_r})


def theorem4_bound(system: ModalSystem, n: int, nu: float, eta: float, *,
                   coarse_trace: float | None = None) -> TheoremBound:
    """Fractional-smoothing bound: output on the nu-domain, state in the eta-domain.

    Needs a strictly negative real spectrum and |eta - nu| < 1/2; the rate
    exponent is 1 + 2 (eta - nu).  ``coarse_trace``: the n-point posterior
    trace, as in ``theorem1_bound``.
    """
    _require_real_spectrum(system, "the fractional-smoothing bound")
    if np.any(system.eigenvalues.real >= 0):
        raise ValueError("the fractional-smoothing bound needs a strictly "
                         "negative spectrum")
    if not abs(eta - nu) < 0.5:
        raise ValueError("need |eta - nu| < 1/2")
    b = 1.0 + 2.0 * (eta - nu)
    trace_n = _anchor_trace(system, n, coarse_trace)
    c_norm = _output_norm(system, fractional_weights(system, nu))
    energy = system.weighted_prior_energy(fractional_weights(system, eta))
    min_r = _min_eig_r(system)
    c_smooth = analytic_constant(1.0 - eta + nu)
    if eta > nu:
        first_point = 4.0 * np.log(2.0) ** 2 * c_smooth ** 2 / (1.0 + eta - nu) ** 2
    else:
        first_point = (2.0 ** (2.0 + 2.0 * (eta - nu))
                       * analytic_constant(nu - eta) ** 2 / (1.0 + eta - nu) ** 2)
    tail = (c_smooth ** 2 / 2.0 ** (4.0 - 2.0 * (nu - eta))
            * (2.0 - 2.0 * (eta - nu)) / (1.0 - 2.0 * (eta - nu)))
    constant = (2.0 * c_norm ** 2 * trace_n * energy
                / ((2.0 ** b - 1.0) * min_r) * (first_point + tail))
    return TheoremBound(
        variant=4, description=f"fractional-smoothing bound (nu={nu}, eta={eta})",
        system_label=system.label, horizon=system.horizon, n_anchor=int(n),
        coarse_trace=trace_n, constant=constant, exponent=b, t_power=b,
        ingredients={"nu": float(nu), "eta": float(eta), "output_norm": c_norm,
                     "first_point": first_point, "tail": tail,
                     "prior_energy": energy, "min_eig_r": min_r})


def theorem5_bound(system: ModalSystem, n: int,
                   err_x: TheoremBound | None = None, *,
                   coarse_trace: float | None = None) -> TheoremBound:
    """Bound for driven systems: input noise adds M1/n + M2/n^2.

    ``err_x`` supplies the initial-state contribution; by default the
    admissible-output bound is used for it, anchored at n with the same
    ``coarse_trace`` (the n-point posterior trace, as in ``theorem1_bound``).
    A given ``err_x`` must be for the same model and anchored at or below n,
    by the rules of ``check_bound``.  For the heat family the
    ``admissibility`` ingredient is the truncation's H_T(N), which grows like
    N^(1/2); it enters M2 and, with the default ``err_x``, the initial-state
    term, so the bound holds for the truncated model only.
    """
    if not system.has_input_noise:
        raise ValueError("the input-noise bound needs a driven system "
                         "(nonzero input covariance)")
    if err_x is None:
        err_x = theorem2_bound(system, n, coarse_trace=coarse_trace)
        trace_n = err_x.coarse_trace  # the same anchor filter, run once
        h_t = err_x.ingredients["admissibility"]
    else:
        if err_x.system_label != system.label:
            raise ValueError(f"err_x is for {err_x.system_label!r} but the "
                             f"system is {system.label!r}")
        trace_n = _anchor_trace(system, n, coarse_trace)
        if err_x.n_anchor > n:
            raise ValueError(f"err_x anchored at n={err_x.n_anchor} cannot "
                             f"cover n={int(n)}")
        h_t = admissibility_constant(system)
    graph = domain_weights(system)
    c_norm = _output_norm(system, graph)
    b_norm = _input_norm(system, graph)
    tr_q = float(np.trace(system.q_cov).real)
    min_r = _min_eig_r(system)
    t = system.horizon
    m1 = t ** 2 * tr_q / (2.0 * min_r) * c_norm ** 2 * b_norm ** 2 * trace_n
    m2 = t ** 3 * tr_q / (3.0 * min_r) * h_t ** 2 * b_norm ** 2 * trace_n
    return TheoremBound(
        variant=5, description="input-noise bound",
        system_label=system.label, horizon=t, n_anchor=int(n),
        coarse_trace=trace_n, constant=m1, exponent=1.0, t_power=0.0,
        ingredients={"output_norm": c_norm, "input_norm": b_norm,
                     "admissibility": h_t, "trace_q": tr_q, "min_eig_r": min_r},
        input_constants=(m1, m2), err_x=err_x)


@dataclass(frozen=True)
class BoundCheck:
    """Pointwise comparison of a discrepancy curve against one bound."""

    system_label: str
    variant: int
    n_values: np.ndarray
    discrepancies: np.ndarray
    bound_values: np.ndarray
    margins: np.ndarray
    passes: np.ndarray
    passed: bool


def check_bound(curve: DiscrepancyCurve, bound: TheoremBound) -> BoundCheck:
    """Verify D(n) <= bound(n) for every tested n.

    The bound must have been computed for the same model (labels must match)
    and anchored at or below the smallest tested n, since its constant freezes
    the coarse filter error of the anchor grid.
    """
    if curve.label != bound.system_label:
        raise ValueError(f"curve is for {curve.label!r} but the bound is for "
                         f"{bound.system_label!r}")
    if bound.n_anchor > int(curve.n_values.min()):
        raise ValueError("bound anchored at n=%d cannot cover smaller tested n"
                         % bound.n_anchor)
    values = np.asarray(bound.value_at(curve.n_values), dtype=float)
    tiny = np.finfo(float).tiny
    margins = values / np.maximum(curve.values, tiny)
    passes = curve.values <= values * (1.0 + 1e-12)
    return BoundCheck(system_label=curve.label, variant=bound.variant,
                      n_values=curve.n_values, discrepancies=curve.values,
                      bound_values=values, margins=margins, passes=passes,
                      passed=bool(passes.all()))


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log10(value) against log10(n)."""

    slope: float
    intercept: float
    r_squared: float
    n_used: int


def fit_rate(n_values, values) -> RateFit:
    """Fit value ~ 10^intercept * n^slope, ignoring nonpositive entries.

    The points kept need at least two distinct n: a line through one n has
    no slope.
    """
    n_values = np.asarray(n_values, dtype=float).ravel()
    values = np.asarray(values, dtype=float).ravel()
    if n_values.shape != values.shape:
        raise ValueError("n_values and values must have matching length")
    keep = (values > 0) & np.isfinite(values) & (n_values > 0)
    if np.count_nonzero(~keep):
        logger.warning("fit_rate: dropping %d nonpositive/invalid points",
                       int(np.count_nonzero(~keep)))
    if np.unique(n_values[keep]).size < 2:
        raise ValueError("fit_rate needs at least two distinct positive n")
    x = np.log10(n_values[keep])
    y = np.log10(values[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = y - y.mean()
    denom = float(total @ total)
    r2 = 1.0 - float(resid @ resid) / denom if denom > 0 else 1.0
    return RateFit(slope=float(slope), intercept=float(intercept),
                   r_squared=r2, n_used=int(np.count_nonzero(keep)))
