"""Modal diagonal state-space models and their spectral summaries.

A model is a finite modal truncation of the continuous-time system

    dz_k = lambda_k z_k dt + (B du)_k,     k = 1..N,
    dy   = C z dt + dw,                    y(0) = 0,

driven by Brownian motions u (incremental covariance Q) and w (incremental
covariance R), with a Gaussian initial state z(0) = x ~ N(m, diag(p)) in the
modal coordinates.  The generator is diagonal with Re(lambda_k) <= 0 and the
modes are ordered by non-decreasing magnitude; the observation operator is
described by its modal columns c_k = C e_k and the input operator by its modal
rows b_k.

Two concrete constructions ship with the package:

``build_heat_model``
    One-dimensional diffusion on the unit interval with a boundary heat-flux
    reading: lambda_k = -pi^2 k^2 and c_k = pi k, so the observation is
    unbounded on the state space but bounded from D((-A)^nu) for nu > 3/4.
    An optional distributed input with smooth modal profile b_k = k^(-4)
    drives the Theorem-5-style experiments.

``build_wave_model``
    The undamped string of length L in energy coordinates, observed through a
    velocity reading at an interior point.  Eigenvalues come in conjugate
    pairs +/- i pi m / L, counted as two consecutive indices, and the paired
    output coefficients +/- i sin(m pi x0 / L)/sqrt(L) are uniformly bounded.
    The pairing map is recorded so downstream covariances stay real-traced and
    trajectories can be sampled in real coordinates.

Every model is paired.  Purely real systems (the heat chain) carry the
identity pairing: a model whose eigenvalues, coefficients and prior mean are
all real is given it when none is declared, and a model with complex modes
and no declared pairing is refused.

The pairing gives real coordinates, and this module is their one home.  A
paired model describes a real-valued field: for a self-conjugate mode k the
coordinate is real, and for a pair (a, b) the coordinates are
eta_a = rho_a + i rho_b, eta_b = conj(eta_a) with real rho.  Stacking the
rho's gives the recomposition eta = A rho, and a covariance Sigma that
respects the pairing has the real symmetric recomposed form
A^-1 Sigma A^-* (``_real_covariance``).  A and A^-1 act only through each
pair's sums and differences, spelled once for A (``_times_a``) and once for
A^T (``_from_real``); A^-1 = D^-1 A* takes A's (``_to_real``,
``_real_covariance``).  No dense A is formed, and on a model without pairs
they are the identity.  They read the pairing's index arrays (``_pairs``),
which a model derives once and holds.  On a pair A* A = 2 I, so with D (2
on a pair, 1 on a real mode) ||A rho||^2 = sum_k D_k rho_k^2 and an
information matrix J takes the real form A* J A = D (A^-1 J A^-*) D.  The
Monte Carlo samples in these coordinates, and ``filter_core._condition``
conditions in them and only in them: every information matrix it takes is built there (the closed form of
a uniform grid, the sum over samples as (rows A)^T (rows A), the Gam of a
stretch triple), and the doubling of driven stretches runs there.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from .errors import ConfigError

logger = logging.getLogger(__name__)

__all__ = [
    "ModalSystem",
    "SpectralParams",
    "build_heat_model",
    "build_wave_model",
    "model_from_mapping",
    "spectral_parameters",
    "domain_weights",
    "fractional_weights",
    "index_weights",
    "unit_weights",
]

_MODEL_KEYS = {
    "kind", "num_modes", "horizon", "prior_decay", "q_scalar", "r_scalar",
    "domain_length",
}


@dataclass(frozen=True)
class ModalSystem:
    """Finite modal truncation of a diagonal linear-Gaussian system.

    Every number must be finite; a non-finite one is refused, naming its
    field.

    Attributes
    ----------
    eigenvalues : (N,) complex, Re <= 0, non-decreasing in magnitude.
    output_coeffs : (N, r) complex, column k is c_k = C e_k read per channel.
    input_coeffs : (N, q) complex modal rows of B (zeros if undriven).
    prior_mean, prior_var : modal mean m and diagonal prior variances p >= 0.
    q_cov, r_cov : input covariance Q (PSD) and output covariance R (PD).
    horizon : experiment end time T > 0.
    pairing : involution i -> partner(i), of whole numbers, asserting that
        eigenvalues, coefficients, means and variances occur in exact
        conjugate pairs (identity entries mean "real mode").  Every model
        holds one: a model with every eigenvalue, coefficient and mean real
        gets the identity when none is given, and one with complex modes
        must declare it.
    label : short human-readable model id used in reports and CSV files.

    Two private fields are derived once per model: ``_pair_index``, the
    pairing's index arrays (``_pairs``), and ``_white_outputs``, the (r, N)
    rows of L^-1 C with L L^T = R, the output coefficients with whitened
    noise.
    """

    eigenvalues: np.ndarray
    output_coeffs: np.ndarray
    input_coeffs: np.ndarray
    prior_mean: np.ndarray
    prior_var: np.ndarray
    q_cov: np.ndarray
    r_cov: np.ndarray
    horizon: float
    pairing: np.ndarray | None = None
    label: str = "modal"
    _pair_index: _Pairs = field(init=False, repr=False, compare=False)
    _white_outputs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=complex).ravel()
        n = lam.size
        if n == 0:
            raise ValueError("eigenvalues: need at least one mode")
        cmat = np.asarray(self.output_coeffs, dtype=complex)
        if cmat.ndim == 1:
            cmat = cmat[:, None]
        bmat = np.asarray(self.input_coeffs, dtype=complex)
        if bmat.ndim == 1:
            bmat = bmat[:, None]
        mean = np.asarray(self.prior_mean, dtype=complex).ravel()
        pvar = np.asarray(self.prior_var, dtype=float).ravel()
        qc = np.atleast_2d(np.asarray(self.q_cov, dtype=float))
        rc = np.atleast_2d(np.asarray(self.r_cov, dtype=float))

        if cmat.shape[0] != n or bmat.shape[0] != n:
            raise ValueError("output_coeffs/input_coeffs: first axis must match modes")
        if mean.size != n or pvar.size != n:
            raise ValueError("prior_mean/prior_var: length must match modes")
        for name, arr in (("eigenvalues", lam), ("output_coeffs", cmat),
                          ("input_coeffs", bmat), ("prior_mean", mean),
                          ("prior_var", pvar), ("q_cov", qc), ("r_cov", rc)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name}: must be finite")
        if not 0 < self.horizon < np.inf:
            raise ValueError("horizon: must be positive and finite")
        if np.any(lam.real > 1e-12):
            raise ValueError("eigenvalues: Re(lambda) must be <= 0")
        mags = np.abs(lam)
        if np.any(np.diff(mags) < -1e-9 * (1.0 + mags[:-1])):
            raise ValueError("eigenvalues: order by non-decreasing magnitude")
        if np.any(pvar < 0):
            raise ValueError("prior_var: variances must be non-negative")
        if qc.shape != (bmat.shape[1], bmat.shape[1]):
            raise ValueError("q_cov: shape must match input dimension")
        if rc.shape != (cmat.shape[1], cmat.shape[1]):
            raise ValueError("r_cov: shape must match output dimension")
        if qc.size and np.min(np.linalg.eigvalsh((qc + qc.T) / 2.0)) \
                < -1e-12 * max(1.0, np.abs(qc).max()):
            raise ValueError("q_cov: must be positive semi-definite")
        if np.min(np.linalg.eigvalsh((rc + rc.T) / 2.0)) <= 0.0:
            raise ValueError("r_cov: must be positive definite")

        pairing = self.pairing
        if pairing is None:
            if any(np.any(arr.imag != 0) for arr in (lam, cmat, bmat, mean)):
                raise ValueError("pairing: complex modes need a conjugate pairing")
            pairing = np.arange(n)
        # checked before the cast to int, which would take 1.7 to 1 and warn
        # on NaN
        entries = np.asarray(pairing, dtype=float).ravel()
        if not np.all(np.isfinite(entries) & (entries == np.round(entries))):
            raise ValueError("pairing: entries must be whole numbers")
        pairing = entries.astype(int)
        if pairing.size != n or np.any(np.sort(pairing) != np.arange(n)):
            raise ValueError("pairing: must be a permutation of 0..N-1")
        if np.any(pairing[pairing] != np.arange(n)):
            raise ValueError("pairing: must be an involution")
        for name, arr in (("eigenvalues", lam), ("prior_mean", mean)):
            if not np.array_equal(arr[pairing], arr.conj()):
                raise ValueError(f"pairing: {name} must occur in exact conjugate pairs")
        if not np.array_equal(cmat[pairing], cmat.conj()):
            raise ValueError("pairing: output_coeffs must occur in exact conjugate pairs")
        if not np.array_equal(bmat[pairing], bmat.conj()):
            raise ValueError("pairing: input_coeffs must occur in exact conjugate pairs")
        if not np.array_equal(pvar[pairing], pvar):
            raise ValueError("pairing: prior_var must be pair-symmetric")
        pairing.setflags(write=False)

        for arr in (lam, cmat, bmat, mean, pvar, qc, rc):
            arr.setflags(write=False)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "output_coeffs", cmat)
        object.__setattr__(self, "input_coeffs", bmat)
        object.__setattr__(self, "prior_mean", mean)
        object.__setattr__(self, "prior_var", pvar)
        object.__setattr__(self, "q_cov", qc)
        object.__setattr__(self, "r_cov", rc)
        object.__setattr__(self, "pairing", pairing)
        object.__setattr__(self, "_pair_index", _pairs(pairing))
        white = np.linalg.solve(np.linalg.cholesky(rc), cmat.T)
        white.setflags(write=False)
        object.__setattr__(self, "_white_outputs", white)

    @property
    def num_modes(self) -> int:
        return self.eigenvalues.size

    @property
    def num_outputs(self) -> int:
        return self.output_coeffs.shape[1]

    @property
    def has_input_noise(self) -> bool:
        return bool(np.any(self.input_coeffs != 0) and np.any(self.q_cov != 0))

    def weighted_prior_energy(self, weights) -> float:
        """E||x||^2 in the modal norm with the given positive weights."""
        w = np.asarray(weights, dtype=float)
        return float(np.sum(w * (self.prior_var + np.abs(self.prior_mean) ** 2)))


def unit_weights(system: ModalSystem) -> np.ndarray:
    return np.ones(system.num_modes)


def domain_weights(system: ModalSystem) -> np.ndarray:
    """Graph-norm weights 1 + |lambda_k|^2 of the generator domain."""
    return 1.0 + np.abs(system.eigenvalues) ** 2


def fractional_weights(system: ModalSystem, power: float) -> np.ndarray:
    """Homogeneous fractional-domain weights |lambda_k|^(2 power)."""
    mags = np.abs(system.eigenvalues)
    if power != 0 and np.any(mags == 0):
        raise ValueError("fractional weights need a spectrum bounded away from zero")
    return mags ** (2.0 * power)


def index_weights(system: ModalSystem, exponent: float) -> np.ndarray:
    """Index-based weights k^(2 exponent), the norm behind growth assumption (ii)."""
    return np.arange(1, system.num_modes + 1, dtype=float) ** (2.0 * exponent)


def _is_whole(value) -> bool:
    """True for finite whole numbers of any numeric type (2, 2.0, np.int64(2)).

    Integers are whole without a float conversion, which would overflow
    beyond about 1.8e308 (a seed may be larger).
    """
    return isinstance(value, numbers.Integral) or float(value).is_integer()


def _check_scalars(**scalars) -> None:
    """ValueError naming the builder argument: every scalar finite, r_scalar > 0.

    Run before any array is built, so a bad value is reported under the key
    that was written, not under the ``ModalSystem`` field it would reach.
    """
    for key, value in scalars.items():
        if not np.isfinite(value):
            raise ValueError(f"{key}: must be finite")
    if scalars["r_scalar"] <= 0:
        raise ValueError("r_scalar: must be positive")


def build_heat_model(num_modes: int, horizon: float, prior_decay: float = 6.0,
                     q_scalar: float = 0.0, r_scalar: float = 1.0) -> ModalSystem:
    """Diffusion chain lambda_k = -pi^2 k^2 with boundary-flux observation c_k = pi k.

    The diagonal prior p_k = k^(-prior_decay) needs prior_decay > 5 so that
    sum k^4 p_k stays summable under refinement (the initial state must remain
    a D(A)-valued random variable as modes are added).  A positive ``q_scalar``
    switches on a scalar distributed input with smooth profile b_k = k^(-4).
    """
    if not _is_whole(num_modes) or num_modes < 1:
        raise ValueError(f"num_modes: need a whole number >= 1, got {num_modes!r}")
    num_modes = int(num_modes)
    _check_scalars(prior_decay=prior_decay, q_scalar=q_scalar,
                   r_scalar=r_scalar)
    if prior_decay <= 5.0:
        raise ValueError(
            "prior_decay: must exceed 5; otherwise sum k^4 p_k diverges and the "
            "initial state stops being generator-domain valued under refinement")
    if q_scalar < 0:
        raise ValueError("q_scalar: must be non-negative")
    k = np.arange(1, num_modes + 1, dtype=float)
    lam = -np.pi ** 2 * k ** 2 + 0j
    c = (np.pi * k).astype(complex)[:, None]
    b = (k ** -4.0).astype(complex)[:, None] if q_scalar > 0 else np.zeros((num_modes, 1), complex)
    label = (f"heat(N={num_modes},T={horizon:g},decay={prior_decay:g},"
             f"q={q_scalar:g},r={r_scalar:g})")
    return ModalSystem(
        eigenvalues=lam,
        output_coeffs=c,
        input_coeffs=b,
        prior_mean=np.zeros(num_modes, complex),
        prior_var=k ** -prior_decay,
        q_cov=np.array([[float(q_scalar)]]),
        r_cov=np.array([[float(r_scalar)]]),
        horizon=float(horizon),
        pairing=np.arange(num_modes),
        label=label,
    )


def build_wave_model(num_modes: int, domain_length: float = 1.0, horizon: float = 1.0,
                     prior_decay: float = 4.0, r_scalar: float = 1.0) -> ModalSystem:
    """Undamped string of length L with a pointwise velocity reading.

    Modes come in conjugate pairs +/- i pi m / L occupying indices (2m-1, 2m),
    so |lambda_k| = pi ceil(k/2) / L and the growth ratio |lambda_k|/k settles
    at pi/(2L) along even indices.  The observation reads the velocity at
    x0 = L/sqrt(2) in energy coordinates, giving paired coefficients
    +/- i sin(m pi x0/L)/sqrt(L) with |c_k| <= 1/sqrt(L); the irrational
    position keeps every mode visible.  Prior variances are shared inside each
    pair and need prior_decay > 3 for D(A)-membership under refinement.
    """
    if not _is_whole(num_modes) or num_modes < 2 or num_modes % 2:
        raise ValueError("num_modes: wave models need an even mode count >= 2")
    num_modes = int(num_modes)
    _check_scalars(prior_decay=prior_decay, domain_length=domain_length,
                   r_scalar=r_scalar)
    if prior_decay <= 3.0:
        raise ValueError(
            "prior_decay: must exceed 3; otherwise sum m^2 p_m diverges and the "
            "initial state stops being generator-domain valued under refinement")
    if domain_length <= 0:
        raise ValueError("domain_length: must be positive")
    pairs = num_modes // 2
    m = np.arange(1, pairs + 1, dtype=float)
    omega = np.pi * m / domain_length
    lam = np.empty(num_modes, dtype=complex)
    lam[0::2] = 1j * omega
    lam[1::2] = -1j * omega
    x0 = domain_length / np.sqrt(2.0)
    amp = np.sin(m * np.pi * x0 / domain_length) / np.sqrt(domain_length)
    c = np.empty((num_modes, 1), dtype=complex)
    c[0::2, 0] = 1j * amp
    c[1::2, 0] = -1j * amp
    p = np.repeat(m ** -prior_decay, 2)
    pairing = np.arange(num_modes)
    pairing[0::2] += 1
    pairing[1::2] -= 1
    label = (f"wave(N={num_modes},L={domain_length:g},T={horizon:g},"
             f"decay={prior_decay:g},r={r_scalar:g})")
    return ModalSystem(
        eigenvalues=lam,
        output_coeffs=c,
        input_coeffs=np.zeros((num_modes, 1), complex),
        prior_mean=np.zeros(num_modes, complex),
        prior_var=p,
        q_cov=np.array([[0.0]]),
        r_cov=np.array([[float(r_scalar)]]),
        horizon=float(horizon),
        pairing=pairing,
        label=label,
    )


def model_from_mapping(mapping: Mapping[str, str]) -> ModalSystem:
    """Build a model from flat ``key = value`` text entries (strict keys).

    Recognised keys: kind (heat|wave), num_modes, horizon, prior_decay,
    q_scalar (heat only), r_scalar, domain_length (wave only).  Unknown
    keys are rejected, and so is a key the kind takes no value for.
    """
    unknown = set(mapping) - _MODEL_KEYS
    if unknown:
        raise ConfigError(f"model: unknown keys {sorted(unknown)}")

    def required(key, parse):
        # the CLI's rule and wording for the key: int() or float(), and the
        # parser's message after the key's name
        try:
            return parse(mapping[key])
        except KeyError:
            raise ConfigError(f"model.{key}: required") from None
        except ValueError as exc:
            raise ConfigError(f"model.{key}: {exc}") from None

    kind = required("kind", str)
    num_modes = required("num_modes", int)
    horizon = required("horizon", float)

    def fget(key, default):
        try:
            return float(mapping.get(key, default))
        except ValueError:
            raise ConfigError(f"model.{key}: not a number ({mapping[key]!r})") from None

    try:
        if kind == "heat":
            if "domain_length" in mapping:
                raise ConfigError("model.domain_length: heat models take no "
                                  "domain length")
            return build_heat_model(num_modes, horizon,
                                    prior_decay=fget("prior_decay", 6.0),
                                    q_scalar=fget("q_scalar", 0.0),
                                    r_scalar=fget("r_scalar", 1.0))
        if kind == "wave":
            if "q_scalar" in mapping:
                raise ConfigError("model.q_scalar: wave models take no input noise")
            return build_wave_model(num_modes,
                                    domain_length=fget("domain_length", 1.0),
                                    horizon=horizon,
                                    prior_decay=fget("prior_decay", 4.0),
                                    r_scalar=fget("r_scalar", 1.0))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"model.{exc}") from None
    raise ConfigError(f"model.kind: unknown kind {kind!r} (expected heat or wave)")


@dataclass(frozen=True)
class SpectralParams:
    """Spectral growth summary used by the rate-bound constants.

    delta_fit is the log-log regression slope of distinct eigenvalue
    magnitudes against their rank, rounded to 12 decimal places so that a
    power law gives its exponent exactly (2 for the heat chain, 1 for the
    wave pairs, at every N): which bounds apply and where the tail starts
    never turn on the last bit of the fit.  gamma_hat / gamma_check are the
    max / tail-min of |lambda_k| / k^delta over the full multiplicity-counted
    index, gamma_tail the ratio at the last mode (the truncation's best limit
    estimate), and sup_ratio = max_k ||c_k|| / |lambda_k|^gamma.  mu bounds
    the semigroup norm on [0, T]; it is 1 for every dissipative model here.
    """

    gamma: float
    delta_fit: float
    gamma_hat: float
    gamma_check: float
    gamma_tail: float
    sup_ratio: float
    mu: float
    tail_start: int


def spectral_parameters(system: ModalSystem, gamma: float,
                        n: int | None = None) -> SpectralParams:
    """Fit the growth exponent and compute the ratio extremes.

    When the sampling count ``n`` is given, the tail minimum gamma_check is
    taken over indices beyond k0 = ceil((2n/T)^(1/delta)), the coarsest index
    the proof treats asymptotically at step T/(2n); otherwise over all modes.
    """
    if gamma < 0:
        raise ValueError("gamma: must be non-negative")
    lam = system.eigenvalues
    mags = np.abs(lam)
    if np.any(mags == 0) and gamma > 0:
        raise ValueError("gamma > 0 needs a spectrum bounded away from zero")

    distinct = [mags[0]]
    for v in mags[1:]:
        if v > distinct[-1] * (1.0 + 1e-9):
            distinct.append(v)
    if len(distinct) >= 2:
        ranks = np.arange(1, len(distinct) + 1, dtype=float)
        slope = np.polyfit(np.log(ranks), np.log(distinct), 1)[0]
        delta_fit = round(float(slope), 12)
    else:
        delta_fit = float("nan")

    k = np.arange(1, system.num_modes + 1, dtype=float)
    if np.isfinite(delta_fit):
        ratio = mags / k ** delta_fit
        gamma_hat = float(ratio.max())
        gamma_tail = float(ratio[-1])
        if n is None:
            k0 = 0
        else:
            h = system.horizon / (2.0 * n)
            k0 = int(np.ceil(h ** (-1.0 / delta_fit)))
        if k0 >= system.num_modes:
            logger.warning("spectral tail start %d beyond truncation %d; using last mode",
                           k0, system.num_modes)
            k0 = system.num_modes - 1
        gamma_check = float(ratio[k0:].min())
    else:
        gamma_hat = gamma_check = gamma_tail = float("nan")
        k0 = 0

    denom = mags ** gamma if gamma > 0 else np.ones_like(mags)
    channel_norms = np.linalg.norm(system.output_coeffs, axis=1)
    sup_ratio = float((channel_norms / denom).max())
    mu = float(max(1.0, np.exp(lam.real.max() * system.horizon)))
    return SpectralParams(gamma=float(gamma), delta_fit=delta_fit,
                          gamma_hat=gamma_hat, gamma_check=gamma_check,
                          gamma_tail=gamma_tail, sup_ratio=sup_ratio,
                          mu=mu, tail_start=k0)


class _Pairs(NamedTuple):
    """A pairing's index arrays, derived once (``_pairs``).

    ``first`` and ``mate`` are the members of each conjugate pair, first <
    mate; ``single`` the self-conjugate (real) modes; ``weights`` is D of
    the module docstring, 2 on each member of a pair and 1 on a real mode.
    """

    first: np.ndarray
    mate: np.ndarray
    single: np.ndarray
    weights: np.ndarray


def _pairs(pairing: np.ndarray) -> _Pairs:
    """The index arrays of ``pairing``; a model holds its own as ``_pair_index``."""
    modes = np.arange(pairing.size)
    first = np.flatnonzero(pairing > modes)
    return _Pairs(first, pairing[first], np.flatnonzero(pairing == modes),
                  np.where(pairing == modes, 1.0, 2.0))


def _to_real(x: np.ndarray, pairs: _Pairs) -> np.ndarray:
    """x A^-T along the last axis: paired modal coordinates to real ones.

    A is the recomposition eta = A rho of the module docstring, with
    A^-T = conj(A) D^-1, so x A^-T = conj(conj(x) A) / D: a pair
    (k, mate) maps to ((x_k + x_mate)/2, (x_k - x_mate)/2i) and a
    self-conjugate coordinate is copied.
    """
    return _times_a(x.conj(), pairs).conj() / pairs.weights


def _from_real(x: np.ndarray, pairs: _Pairs) -> np.ndarray:
    """x A^T along the last axis: a pair (k, mate) maps to (x_k + i x_mate, x_k - i x_mate)."""
    k, mate = pairs.first, pairs.mate
    out = x.astype(complex)
    first, second = x[..., k], 1.0j * x[..., mate]
    out[..., k] = first + second
    out[..., mate] = first - second
    return out


def _times_a(x: np.ndarray, pairs: _Pairs) -> np.ndarray:
    """x A along the last axis, A the recomposition eta = A rho.

    A pair (k, mate) maps to (x_k + x_mate, i (x_k - x_mate)) and a
    self-conjugate coordinate is copied.  On rows that are conjugate on each
    pair, x_mate = conj(x_k), the result is real: 2 Re x_k and -2 Im x_k.
    """
    k, mate = pairs.first, pairs.mate
    out = x.astype(complex)
    first, second = x[..., k], x[..., mate]
    out[..., k] = first + second
    out[..., mate] = (first - second) * 1j
    return out


def _real_covariance(cov: np.ndarray, pairs: _Pairs,
                     what: str = "covariance") -> np.ndarray:
    """The real symmetric recomposed forms A^-1 cov A^-* of a stack (k, d, d).

    With A^-1 = D^-1 A*, the form is D^-1 (A* cov A) D^-1, formed through
    ``_times_a``: the rows first, A* cov = (cov* A)*, then the columns, each
    divided by D, an exact power of two.  A matrix whose recomposed form
    keeps an imaginary part above 1e-8 of its largest entry does not respect
    the pairing, and is refused with a ValueError naming ``what``.
    """
    weights = pairs.weights
    rows = _times_a(cov.conj().swapaxes(1, 2), pairs).conj().swapaxes(1, 2)
    s = _times_a(rows / weights[:, None], pairs) / weights
    scale = np.abs(s).max(axis=(1, 2), initial=0.0)
    if np.any(np.abs(s.imag).max(axis=(1, 2), initial=0.0)
              > 1e-8 * np.where(scale > 0, scale, 1.0)):
        raise ValueError(f"{what} does not respect the conjugate pairing")
    return (s.real + s.real.swapaxes(1, 2)) / 2.0
