"""Per-layer spans recorded from outside the package.

The package has no instrumentation of its own, so the tracer replaces, for
the duration of a ``with Tracer():`` block, the module attributes through
which one layer calls the next.  A function is patched in every
``sampledkf`` namespace that binds it (``kernels.phi1``, ``theory.phi1`` and
``_scalars.phi1`` are the same object), and in each binding the wrapper
knows its call site, so calls can be split by caller where that matters
(transition blocks built by the filter recursion versus by the covariance
kernels).  Leaving the block puts every original object back and verifies
that nothing wrapped is left behind.

Two kinds of hook:

* ``span``: pushed on a stack; its self time is its duration minus the
  duration of the spans it encloses.
* ``probe``: counts calls and inclusive time but is not pushed, so its time
  stays in the enclosing span's self time (used for helpers whose caller
  should keep the time, such as the filter recursion inside
  ``sequential_filter``).

Each hook may also add a work count computed from the call's arguments.
Numerical safeguards are counted by a filter on the package loggers, which
counts every record and drops the DEBUG ones it enabled, so the traced run
prints nothing the untraced run would not.
"""

from __future__ import annotations

import importlib
import logging
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Hook:
    module: str          # module that defines the attribute
    attr: str            # attribute name, "Class.method" for methods
    name: str            # span name; several hooks may share one
    kind: str = "span"   # "span" or "probe"
    work: Callable | None = None  # (args, kwargs) -> count added to name.work


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _size_of(index: int, name: str):
    return lambda args, kwargs: int(np.size(_arg(args, kwargs, index, name)))


def _text_bytes(args, kwargs):
    return len(_arg(args, kwargs, 1, "text").encode("utf-8"))


HOOKS = (
    Hook("sampledkf._scalars", "phi1", "_scalars.phi1", work=_size_of(0, "x")),
    Hook("sampledkf._scalars", "coupled_g2", "_scalars.coupled"),
    Hook("sampledkf._scalars", "coupled_g3", "_scalars.coupled"),
    Hook("sampledkf.kernels", "transition_block", "kernels.transition_block"),
    Hook("sampledkf.kernels", "augmented_covariance",
         "kernels.augmented_covariance"),
    Hook("sampledkf.kernels", "_integrated_output_map", "kernels.output_map"),
    Hook("sampledkf.filter_core", "sequential_filter",
         "filter_core.sequential_filter"),
    Hook("sampledkf.filter_core", "_filter_plan", "filter_core.recursion",
         kind="probe", work=_size_of(1, "times")),
    Hook("sampledkf.filter_core", "increment_variance",
         "filter_core.increment_variance", work=_size_of(1, "base_times")),
    Hook("sampledkf.refinement", "discrepancy_curve",
         "refinement.discrepancy_curve"),
    Hook("sampledkf.refinement", "_coarse_trace", "refinement.coarse"),
    Hook("sampledkf.refinement", "telescope_check",
         "refinement.telescope_check"),
    Hook("sampledkf.theory", "theorem1_bound", "theory.bounds"),
    Hook("sampledkf.theory", "theorem2_bound", "theory.bounds"),
    Hook("sampledkf.theory", "theorem3_bound", "theory.bounds"),
    Hook("sampledkf.theory", "theorem4_bound", "theory.bounds"),
    Hook("sampledkf.theory", "theorem5_bound", "theory.bounds"),
    Hook("sampledkf.theory", "_anchor_trace", "theory.anchor"),
    Hook("sampledkf.theory", "check_bound", "theory.check_bound"),
    Hook("sampledkf.theory", "fit_rate", "theory.fit_rate"),
    Hook("sampledkf.montecarlo", "empirical_error",
         "montecarlo.empirical_error"),
    Hook("sampledkf.montecarlo", "_Simulator.__init__", "montecarlo.plan"),
    Hook("sampledkf.montecarlo", "_Simulator.draw", "montecarlo.draw"),
    Hook("sampledkf.montecarlo", "_Simulator.run_paths",
         "montecarlo.run_paths"),
    Hook("sampledkf.montecarlo", "_trial_rng", "montecarlo.rng", kind="probe"),
    Hook("sampledkf.montecarlo", "_real_factor", "montecarlo.real_factor"),
    Hook("sampledkf.cli", "main", "cli.main"),
    Hook("sampledkf.cli", "load_config", "cli.load_config"),
    Hook("sampledkf.cli", "_write", "cli.write", kind="probe", work=_text_bytes),
    Hook("sampledkf.spectral_model", "build_heat_model", "spectral_model.build"),
    Hook("sampledkf.spectral_model", "build_wave_model", "spectral_model.build"),
    Hook("sampledkf.spectral_model", "model_from_mapping",
         "spectral_model.build"),
    Hook("sampledkf.spectral_model", "spectral_parameters",
         "spectral_model.spectral_parameters"),
)

#: Loggers whose records count as fired safeguards.
LOGGERS = ("sampledkf.filter_core", "sampledkf.montecarlo", "sampledkf.theory")


class _Stat:
    __slots__ = ("calls", "incl", "self_time", "work")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_time = 0.0
        self.work = 0


class _CountingFilter(logging.Filter):
    """Counts records per logger and message kind; drops what it enabled."""

    def __init__(self, counts, passthrough_level):
        super().__init__()
        self.counts = counts
        self.passthrough_level = passthrough_level

    def filter(self, record):
        self.counts[_record_kind(record)] += 1
        return record.levelno >= self.passthrough_level


def _record_kind(record) -> str:
    msg = str(record.msg)
    if record.name.endswith("filter_core"):
        if msg.startswith("gram factorization failed"):
            return "filter_core.jitter_retries"
        if "imaginary residue" in msg:
            return "filter_core.imag_trace_warnings"
    elif record.name.endswith("montecarlo") and msg.startswith("clipping"):
        return "montecarlo.clip_events"
    elif record.name.endswith("theory") and record.levelno >= logging.WARNING:
        return "theory.warnings"
    return f"{record.name}.other_{record.levelname.lower()}"


class Tracer:
    """Patch the layer boundaries on entry, restore them on exit."""

    def __init__(self):
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.site_calls: dict[tuple[str, str], int] = defaultdict(int)
        self.parent_incl: dict[tuple[str, str], float] = defaultdict(float)
        self.log_counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._logger_state: list[tuple[logging.Logger, int, logging.Filter]] = []

    # -- patching -----------------------------------------------------------

    def _wrap(self, fn, hook: Hook, site: str):
        stat = self.stats[hook.name]
        stack, parent_incl = self._stack, self.parent_incl
        site_calls, site_key = self.site_calls, (hook.name, site)
        name, is_span, work = hook.name, hook.kind == "span", hook.work
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if work is not None:
                stat.work += work(args, kwargs)
            site_calls[site_key] += 1
            frame = [name, 0.0]
            if is_span:
                stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                if is_span:
                    stack.pop()
                    stat.self_time += elapsed - frame[1]
                stat.calls += 1
                stat.incl += elapsed
                if stack:
                    parent = stack[-1]
                    parent_incl[name, parent[0]] += elapsed
                    if is_span:
                        parent[1] += elapsed

        wrapper.__wrapped__ = fn
        wrapper.__perfbench_hook__ = True
        return wrapper

    def _install(self, hook: Hook) -> None:
        module = sys.modules[hook.module]
        if "." in hook.attr:
            cls_name, meth = hook.attr.split(".", 1)
            owner = getattr(module, cls_name, None)
            original = vars(owner).get(meth) if isinstance(owner, type) else None
            if original is None:
                self.missing.append(f"{hook.module}:{hook.attr}")
                return
            self._patches.append((owner, meth, original))
            setattr(owner, meth, self._wrap(original, hook, hook.module))
            return
        original = getattr(module, hook.attr, None)
        if original is None:
            self.missing.append(f"{hook.module}:{hook.attr}")
            return
        for mod_name, mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, self._wrap(original, hook, mod_name))

    def __enter__(self):
        try:
            # Import every hooked module before patching anything, so no
            # module imported later binds a wrapper that restore cannot see.
            hooks = []
            for hook in HOOKS:
                try:
                    importlib.import_module(hook.module)
                except ImportError:
                    self.missing.append(f"{hook.module}:{hook.attr}")
                else:
                    hooks.append(hook)
            for hook in hooks:
                self._install(hook)
            for name in LOGGERS:
                logger = logging.getLogger(name)
                filt = _CountingFilter(self.log_counts,
                                       logger.getEffectiveLevel())
                self._logger_state.append((logger, logger.level, filt))
                logger.addFilter(filt)
                logger.setLevel(logging.DEBUG)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        while self._logger_state:
            logger, level, filt = self._logger_state.pop()
            logger.removeFilter(filt)
            logger.setLevel(level)

    # -- results ------------------------------------------------------------

    def spans(self) -> dict:
        """Every recorded span and probe, for the run's trace dump."""
        return {name: {"calls": s.calls, "incl_s": s.incl,
                       "self_s": s.self_time, "work": s.work}
                for name, s in sorted(self.stats.items())}


def _package_modules():
    return [(name, mod) for name, mod in list(sys.modules.items())
            if mod is not None and (name == "sampledkf"
                                    or name.startswith("sampledkf."))]


def leftover_wrappers() -> list[str]:
    """Names of package attributes that are still tracer wrappers."""
    found = []
    for mod_name, mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if getattr(value, "__perfbench_hook__", False):
                found.append(f"{mod_name}.{attr}")
            if isinstance(value, type):
                for meth, fn in list(vars(value).items()):
                    if getattr(fn, "__perfbench_hook__", False):
                        found.append(f"{mod_name}.{attr}.{meth}")
    return found


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass layer metrics from the spans of ``passes`` traced passes."""
    s = tracer.stats
    per = 1.0 / max(passes, 1)

    def calls(name):
        return s[name].calls * per if name in s else 0.0

    def self_s(name):
        return s[name].self_time * per if name in s else 0.0

    def incl(name):
        return s[name].incl * per if name in s else 0.0

    def work(name):
        return s[name].work * per if name in s else 0.0

    steps = work("filter_core.recursion")
    plan_blocks = (tracer.site_calls.get(("kernels.transition_block",
                                          "sampledkf.filter_core"), 0) * per)
    ref_s = (tracer.parent_incl.get(("filter_core.sequential_filter",
                                     "refinement.discrepancy_curve"), 0.0) * per)
    logs = tracer.log_counts
    return {
        "scalars.phi1.calls": calls("_scalars.phi1"),
        "scalars.phi1.elements": work("_scalars.phi1"),
        "scalars.phi1.self_s": self_s("_scalars.phi1"),
        "scalars.coupled.calls": calls("_scalars.coupled"),
        "scalars.coupled.self_s": self_s("_scalars.coupled"),
        "kernels.transition_block.calls": calls("kernels.transition_block"),
        "kernels.transition_block.self_s": self_s("kernels.transition_block"),
        "kernels.augmented_covariance.calls":
            calls("kernels.augmented_covariance"),
        "kernels.augmented_covariance.self_s":
            self_s("kernels.augmented_covariance"),
        "kernels.output_map.calls": calls("kernels.output_map"),
        "kernels.transition_cache_hit_ratio":
            1.0 - plan_blocks / steps if steps else 0.0,
        "filter_core.sequential_filter.calls":
            calls("filter_core.sequential_filter"),
        "filter_core.sequential_filter.steps": steps,
        "filter_core.sequential_filter.self_s":
            self_s("filter_core.sequential_filter"),
        "filter_core.step_us":
            1e6 * incl("filter_core.recursion") / steps if steps else 0.0,
        "filter_core.increment_variance.calls":
            calls("filter_core.increment_variance"),
        "filter_core.increment_variance.base_points":
            work("filter_core.increment_variance"),
        "filter_core.increment_variance.self_s":
            self_s("filter_core.increment_variance"),
        "filter_core.jitter_retries": logs["filter_core.jitter_retries"] * per,
        "filter_core.imag_trace_warnings":
            logs["filter_core.imag_trace_warnings"] * per,
        "refinement.discrepancy_curve.self_s":
            self_s("refinement.discrepancy_curve"),
        "refinement.coarse_s": incl("refinement.coarse"),
        "refinement.reference_s": ref_s,
        "refinement.telescope_check.self_s":
            self_s("refinement.telescope_check"),
        "theory.bounds.calls": calls("theory.bounds"),
        "theory.bounds.self_s": self_s("theory.bounds"),
        "theory.anchor_filter_s": incl("theory.anchor"),
        "theory.check_bound.self_s": self_s("theory.check_bound"),
        "theory.fit_rate.self_s": self_s("theory.fit_rate"),
        "theory.warnings": logs["theory.warnings"] * per,
        "montecarlo.empirical_error.self_s":
            self_s("montecarlo.empirical_error"),
        "montecarlo.plan_s": incl("montecarlo.plan"),
        "montecarlo.draw_s": incl("montecarlo.draw"),
        "montecarlo.run_paths_s": incl("montecarlo.run_paths"),
        "montecarlo.rng_streams": calls("montecarlo.rng"),
        "montecarlo.real_factor.calls": calls("montecarlo.real_factor"),
        "montecarlo.real_factor.self_s": self_s("montecarlo.real_factor"),
        "montecarlo.clip_events": logs["montecarlo.clip_events"] * per,
        "cli.main.calls": calls("cli.main"),
        "cli.self_s": self_s("cli.main"),
        "cli.load_config_s": incl("cli.load_config"),
        "cli.csv_bytes": work("cli.write"),
        "spectral_model.build_s": self_s("spectral_model.build"),
        "spectral_model.spectral_parameters.self_s":
            self_s("spectral_model.spectral_parameters"),
    }
