"""Experiment runner: config files in, deterministic CSV / plot data out.

Configuration is a flat text file of ``key = value`` lines ('#' starts a
comment).  Parsing is strict: unknown keys, duplicate keys, or missing
required keys for the chosen experiment abort before any computation.  Every
output embeds the fully resolved configuration (defaults applied, command-line
overrides folded in) as '#'-prefixed header lines, so any result file can be
re-run byte-for-byte from its own header.  Wall-clock timing goes to stderr
only, never into artifacts, keeping outputs bitwise reproducible.

Exit codes: 0 success, 2 configuration/validation failure, 3 numerical
failure (unconverged reference grid, negative discrepancy, indefinite
sampling covariance), 1 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import ConfigError, NumericalError
from .montecarlo import (_BLOCK_NORMALS, _TRIAL_BLOCK, _most_normals,
                         empirical_error)
from .refinement import (DiscrepancyCurve, _inexact, _too_deep,
                         discrepancy_curve, dyadic_grid, level_sum,
                         telescope_check)
from .spectral_model import (ModalSystem, domain_weights, fractional_weights,
                             model_from_mapping, unit_weights)
from .theory import (TheoremBound, check_bound, fit_rate, theorem1_bound,
                     theorem2_bound, theorem3_bound, theorem4_bound,
                     theorem5_bound)

EXPERIMENTS = ("converge", "bounds", "telescope", "levelsum", "simulate", "fit")

#: key -> (parser, help); None values mean "not set".
_SCHEMA = {
    "experiment": ("choice:" + "|".join(EXPERIMENTS), "experiment kind"),
    "model.kind": ("choice:heat|wave", "spectral model family"),
    "model.num_modes": ("int", "number of retained modes"),
    "model.horizon": ("float", "estimation horizon T"),
    "model.prior_decay": ("float", "prior variance decay exponent"),
    "model.q_scalar": ("float", "input noise intensity (heat only)"),
    "model.r_scalar": ("float", "output noise intensity"),
    "model.domain_length": ("float", "spatial length (wave only)"),
    "n_values": ("intlist", "sample counts, comma separated"),
    "k_ref": ("int", "reference refinement level"),
    "check_reference": ("bool", "verify reference stability"),
    "theorems": ("intlist", "bound variants to evaluate (subset of 1..5)"),
    "gamma": ("float", "modal output growth exponent (variant 1)"),
    "nu": ("float", "output smoothing order (variant 4)"),
    "eta": ("float", "state smoothing order (variant 4)"),
    "theorem3_case": ("choice:bounded|domain", "variant-3 output norm"),
    "telescope_n": ("int", "base grid size for the telescope run"),
    "telescope_levels": ("int", "refinement levels for the telescope run"),
    "levelsum_n": ("int", "base grid size for level sums"),
    "levelsum_levels": ("int", "deepest level for level sums"),
    "levelsum_weights": ("choice:unit|domain|fractional", "level-sum weight family"),
    "levelsum_weight_power": ("float", "power for fractional weights"),
    "simulate_n": ("int", "uniform grid size for simulation"),
    "trials": ("int", "Monte Carlo trials"),
    "seed": ("int", "root seed for trial streams"),
    "out": ("str", "CSV output path (stdout when omitted)"),
    "plot_out": ("str", "plot-data output path (converge and bounds)"),
}

_MODEL_KEYS = tuple(key for key in _SCHEMA if key.startswith("model."))

#: Bound variant -> (its bound, the config keys it takes, in call order).
_VARIANTS = {1: (theorem1_bound, ("gamma",)), 2: (theorem2_bound, ()),
             3: (theorem3_bound, ("theorem3_case",)),
             4: (theorem4_bound, ("nu", "eta")), 5: (theorem5_bound, ())}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; strict about syntax and duplicates."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        values[key] = value
    return values


def _coerce(key: str, raw: str):
    kind = _SCHEMA[key][0]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError("expected true/false")
        if kind == "intlist":
            return tuple(int(p) for p in raw.replace(",", " ").split())
        if kind.startswith("choice:"):
            options = kind.split(":", 1)[1].split("|")
            if raw not in options:
                raise ValueError(f"expected one of {', '.join(options)}")
            return raw
        return raw
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Typed, validated experiment description with defaults applied."""

    experiment: str
    values: dict = field(default_factory=dict)

    def resolved_lines(self) -> list[str]:
        # Output paths are I/O disposition, not part of the experiment
        # definition; keeping them out of the header makes reruns of the
        # same config byte-identical regardless of where they are written.
        lines = []
        for key in sorted(self.values):
            if key in ("out", "plot_out"):
                continue
            lines.append(f"{key} = {_format_value(self.values[key])}")
        return lines


def _format_value(value) -> str:
    """The one spelling of a value in header lines and CSV cells."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def build_config(raw: dict[str, str],
                 overrides: dict | None = None) -> ExperimentConfig:
    """Coerce raw strings, apply defaults and overrides, cross-validate."""
    values = {key: _coerce(key, raw_value) for key, raw_value in raw.items()}
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})

    if "experiment" not in values:
        raise ConfigError("experiment: required key is missing")
    experiment = values["experiment"]
    if "model.kind" not in values:
        raise ConfigError("model.kind: required key is missing")
    values.setdefault("model.horizon", 1.0)
    values.setdefault("model.r_scalar", 1.0)
    values.setdefault("model.prior_decay",
                      6.0 if values["model.kind"] == "heat" else 4.0)
    if values["model.kind"] == "wave":
        values.setdefault("model.domain_length", 1.0)
    values.setdefault("seed", 0)
    if values["seed"] < 0:
        raise ConfigError("seed: must be non-negative")
    if "plot_out" in values and experiment not in ("converge", "bounds"):
        raise ConfigError(f"plot_out: experiment '{experiment}' writes no "
                          f"plot data")

    if experiment in ("converge", "bounds", "fit"):
        values.setdefault("k_ref", 6)
        values.setdefault("check_reference", True)
        n_values = values.get("n_values")
        if not n_values:
            raise ConfigError("n_values: required for experiment "
                              f"'{experiment}'")
        if any(n < 1 for n in n_values):
            raise ConfigError("n_values: entries must be positive integers")
        if values["k_ref"] < 1:
            raise ConfigError("k_ref: must be at least 1")
    if experiment == "bounds":
        theorems = values.get("theorems")
        if not theorems:
            raise ConfigError("theorems: required for experiment 'bounds'")
        bad = [t for t in theorems if t not in _VARIANTS]
        if bad:
            raise ConfigError(f"theorems: invalid variant(s) {bad}")
        if 3 in theorems:
            values.setdefault("theorem3_case", "domain")
        for variant in sorted(set(theorems)):
            for key in _VARIANTS[variant][1]:
                if key not in values:
                    raise ConfigError(f"{key}: required when theorems "
                                      f"includes {variant}")
    if experiment in ("telescope", "levelsum"):
        base_key, levels_key = f"{experiment}_n", f"{experiment}_levels"
        for key in (base_key, levels_key):
            if key not in values:
                raise ConfigError(f"{key}: required for experiment "
                                  f"'{experiment}'")
            if values[key] < 1:
                raise ConfigError(f"{key}: must be at least 1")
        # the rules of telescope_check and level_sum, checked before any
        # model is built
        base, levels = values[base_key], values[levels_key]
        if experiment == "levelsum" and _inexact(base, levels):
            raise ConfigError(
                f"{levels_key}: {levels} levels over {base} base points need "
                f"{base} * 2**{levels} grid points; at most 2**53 are allowed")
        modes = max(values.get("model.num_modes", 1), 1)
        if experiment == "telescope" and _too_deep(base, levels, modes):
            raise ConfigError(
                f"{levels_key}: {levels} levels over {base} base points of a "
                f"{modes}-mode model put {base} * 2**{levels - 1} points of "
                f"{modes} modes in the deepest level; at most 2**24 points "
                f"x modes are allowed")
    if experiment == "levelsum":
        values.setdefault("levelsum_weights", "domain")
        if values["levelsum_weights"] == "fractional" \
                and "levelsum_weight_power" not in values:
            raise ConfigError("levelsum_weight_power: required for "
                              "fractional weights")
    if experiment == "simulate":
        for key in ("simulate_n", "trials"):
            if key not in values:
                raise ConfigError(f"{key}: required for experiment 'simulate'")
        if values["simulate_n"] < 1:
            raise ConfigError("simulate_n: must be at least 1")
        # the command's models have one output
        modes = max(values.get("model.num_modes", 0), 0)
        block = _TRIAL_BLOCK * _most_normals(modes, 1, values["simulate_n"])
        if block > _BLOCK_NORMALS:
            raise ConfigError(
                f"simulate_n: {values['simulate_n']} samples of a {modes}-mode "
                f"model need up to {block} normals in one block of "
                f"{_TRIAL_BLOCK} trials; at most 2**31 are allowed")
        if values["trials"] < 2:
            raise ConfigError("trials: must be at least 2")
        if values["trials"] > _BLOCK_NORMALS:  # one float64 error a trial
            raise ConfigError("trials: must be at most 2**31")
    return ExperimentConfig(experiment=experiment, values=values)


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = parse_config_text(fh.read())
    return build_config(raw, overrides)


def _build_model(config: ExperimentConfig) -> ModalSystem:
    mapping = {key.split(".", 1)[1]: config.values[key]
               for key in _MODEL_KEYS if key in config.values}
    return model_from_mapping(mapping)


def _header(config: ExperimentConfig) -> list[str]:
    lines = [f"# sampledkf {__version__}", "# config:"]
    lines.extend(f"# {line}" for line in config.resolved_lines())
    lines.append("#")
    return lines


def _csv(config: ExperimentConfig, columns: list[str],
         rows: list[list]) -> str:
    lines = _header(config)
    lines.append(",".join(columns))
    lines.extend(",".join(_format_value(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def emit_plot_data(curve: DiscrepancyCurve,
                   bounds: list[TheoremBound] | None = None) -> str:
    """log10-log10 series blocks: the curve, then one block per bound."""
    if curve.n_values.size == 0:
        raise ValueError("cannot emit plot data for an empty curve")
    bounds = bounds or []
    blocks = []
    logn = np.log10(curve.n_values.astype(float))

    def series(name: str, y: np.ndarray) -> str:
        rows = [f"# series: {name}"]
        for xv, yv in zip(logn, y):
            if not np.isfinite(yv):
                continue
            rows.append(f"{xv:.17g} {yv:.17g}")
        return "\n".join(rows)

    with np.errstate(divide="ignore", invalid="ignore"):
        blocks.append(series("discrepancy",
                             np.log10(np.maximum(curve.values, 0.0))))
        for bound in bounds:
            vals = np.asarray(bound.value_at(curve.n_values), dtype=float)
            blocks.append(series(f"theorem{bound.variant}-bound",
                                 np.log10(vals)))
    return "\n\n".join(blocks) + "\n"


def _curve_from_config(config: ExperimentConfig,
                       model: ModalSystem) -> DiscrepancyCurve:
    return discrepancy_curve(
        model, list(config.values["n_values"]),
        reference_level=config.values["k_ref"],
        check_reference=config.values["check_reference"])


def _make_bounds(config: ExperimentConfig, model: ModalSystem,
                 curve: DiscrepancyCurve) -> list[TheoremBound]:
    """The configured bounds, anchored at the curve's smallest n.

    Each takes that n's posterior trace from the curve, which already holds
    it, so no anchor filter is run.
    """
    first = int(np.argmin(curve.n_values))
    n_anchor = int(curve.n_values[first])
    trace = float(curve.coarse_traces[first])
    return [bound(model, n_anchor, *(config.values[key] for key in keys),
                  coarse_trace=trace)
            for bound, keys in (_VARIANTS[variant]
                                for variant in config.values["theorems"])]


def run_experiment(config: ExperimentConfig) -> tuple[str, str | None]:
    """Execute the configured experiment; return (csv_text, plot_text)."""
    model = _build_model(config)
    kind = config.values["model.kind"]
    plot_text = None

    if config.experiment == "converge":
        curve = _curve_from_config(config, model)
        rows = [[kind, int(n), curve.reference_level, tc,
                 curve.reference_trace, d]
                for n, tc, d in zip(curve.n_values, curve.coarse_traces,
                                    curve.values)]
        text = _csv(config, ["model", "n", "K_ref", "trace_n", "trace_ref",
                             "discrepancy"], rows)
        if config.values.get("plot_out"):
            plot_text = emit_plot_data(curve)
        return text, plot_text

    if config.experiment == "bounds":
        curve = _curve_from_config(config, model)
        bounds = _make_bounds(config, model, curve)
        rows = []
        for bound in bounds:
            report = check_bound(curve, bound)
            rows.extend([bound.variant, int(n), value, measured, ok]
                        for n, value, measured, ok in zip(
                            report.n_values, report.bound_values,
                            report.discrepancies, report.passes))
        text = _csv(config, ["theorem", "n", "bound", "measured", "pass"], rows)
        if config.values.get("plot_out"):
            plot_text = emit_plot_data(curve, bounds)
        return text, plot_text

    if config.experiment == "telescope":
        report = telescope_check(model, config.values["telescope_n"],
                                 config.values["telescope_levels"])
        rows = [[kind, report.base_n, report.levels, report.trace_drop,
                 report.increment_sum, report.residual]]
        return _csv(config, ["model", "n", "levels", "trace_drop",
                             "increment_sum", "residual"], rows), None

    if config.experiment == "levelsum":
        weights_kind = config.values["levelsum_weights"]
        if weights_kind == "unit":
            weights = unit_weights(model)
        elif weights_kind == "domain":
            weights = domain_weights(model)
        else:
            weights = fractional_weights(model,
                                         config.values["levelsum_weight_power"])
        rows = []
        for level in range(1, config.values["levelsum_levels"] + 1):
            value, h = level_sum(model, config.values["levelsum_n"],
                                 level, weights)
            rows.append([kind, config.values["levelsum_n"], level, h, value])
        return _csv(config, ["model", "n", "level", "h", "value"], rows), None

    if config.experiment == "simulate":
        n = config.values["simulate_n"]
        times = dyadic_grid(n, 0, model.horizon)
        batch = empirical_error(model, times, config.values["trials"],
                                config.values["seed"])
        rows = [[kind, n, batch.trials, batch.seed, batch.empirical_mean,
                 batch.std_error, batch.trace_err, batch.z_score]]
        return _csv(config, ["model", "n", "trials", "seed", "empirical_mean",
                             "std_error", "trace_err", "z_score"], rows), None

    if config.experiment == "fit":
        curve = _curve_from_config(config, model)
        fit = fit_rate(curve.n_values, curve.values)
        rows = [[kind, int(curve.n_values.min()), int(curve.n_values.max()),
                 fit.slope, fit.intercept, fit.r_squared, fit.n_used]]
        return _csv(config, ["model", "n_min", "n_max", "slope", "intercept",
                             "r_squared", "points"], rows), None

    raise ConfigError(f"experiment: unsupported kind {config.experiment!r}")


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command's parser, built once per process; each parse is independent."""
    parser = argparse.ArgumentParser(
        prog="sampledkf",
        description="Sampled-data Kalman filtering experiments on modal "
                    "truncations of PDE models.")
    parser.add_argument("--version", action="version",
                        version=f"sampledkf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
            ("converge", "discrepancy curve D(n) against a refined reference"),
            ("bounds", "compare the curve with closed-form rate bounds"),
            ("telescope", "verify increment telescoping against trace drop"),
            ("levelsum", "per-level interpolation operator norms"),
            ("simulate", "Monte Carlo check of the deterministic trace"),
            ("fit", "log-log rate fit of the discrepancy curve"),
            ("validate-config", "parse and validate a config file")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to config file")
        if name != "validate-config":
            p.add_argument("--out", help="override output path")
            p.add_argument("--seed", type=int, help="override root seed")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate-config":
            config = load_config(args.config)
            _build_model(config)
            sys.stderr.write(f"ok: {args.config} "
                             f"(experiment {config.experiment})\n")
            return 0
        overrides = {"seed": args.seed}
        if args.out is not None:
            overrides["out"] = args.out
        config = load_config(args.config, overrides)
        if config.experiment != args.command:
            raise ConfigError(
                f"experiment: config requests {config.experiment!r} but the "
                f"subcommand is {args.command!r}")
        started = time.perf_counter()
        text, plot_text = run_experiment(config)
        _write(config.values.get("out"), text)
        if plot_text is not None:
            _write(config.values["plot_out"], plot_text)
        sys.stderr.write(f"elapsed {time.perf_counter() - started:.3f}s\n")
        return 0
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except NumericalError as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
