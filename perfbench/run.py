"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload rate_curves --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from ``src/`` next
to this directory, never from an installed copy, and the run exits with
code 2 when that source is missing.  BLAS runs on one thread.

Each workload is a closed loop: one caller runs one pass after another until
the next pass would overrun ``--seconds``.  With ``--trace 0`` the last line
holds the end-to-end metrics of ``BENCHMARK.json``; set-up is timed in fresh
processes first.  With ``--trace 1`` half the time runs untraced passes, the
other half traced passes (spans patched in by ``spans.Tracer``), and the last
line holds the per-layer metrics.  The lines before it are the run manifest
and, when traced, the span table.  ``--smoke`` runs the small sizes.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("rate_curves", "telescope", "driven_validation")
#: Fresh processes whose set-up time feeds the median ``setup_s``.
SETUP_REPEATS = 5


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes, for the benchmark's own tests")
    return parser.parse_args(argv)


def _pin_fastest_cpu(calibrator):
    """Pin this process, and so every process it starts, to the CPU that
    runs the calibration kernel fastest.

    On the shared host one CPU is often slowed by a neighbour for minutes
    while the other is not; a process the scheduler moves between them
    shows that as noise.  Returns the chosen CPU and the timings.
    """
    cpus = sorted(os.sched_getaffinity(0))[:8]
    timings = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timings[cpu] = calibrator.sample()
    best = min(timings, key=timings.get)
    os.sched_setaffinity(0, {best})
    return best, timings


def _setup_times(args, calibrator) -> tuple[list[float], list[float]]:
    """Raw and reference-speed seconds of each fresh-process set-up."""
    raw, scaled = [], []
    before = calibrator.sample()
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), args.workload,
             str(args.seed), "1" if args.smoke else "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        raw.append(float(out.stdout.strip().splitlines()[-1]))
        after = calibrator.sample()
        scaled.append(raw[-1] * calibrator.factor(before, after))
        before = after
    return raw, scaled


def _git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "sampledkf").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            getter = getattr(dll, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _measure(budget: float, run, build, calibrator=None):
    """Passes until the next one would overrun ``budget``; at least one.

    ``build`` runs before each pass, outside its clock.  With a calibrator,
    a calibration sample is taken before the first pass and after each
    pass, and each pass gets the factor that turns its seconds into
    reference-speed seconds.
    """
    walls, factors, results = [], [], []
    start = time.perf_counter()
    before = calibrator.sample() if calibrator else None
    while True:
        inputs = build()
        t0 = time.perf_counter()
        results.append(run(inputs))
        walls.append(time.perf_counter() - t0)
        if calibrator:
            after = calibrator.sample()
            factors.append(calibrator.factor(before, after))
            before = after
        if time.perf_counter() - start + statistics.median(walls) > budget:
            return walls, factors, results


def _check_passes(workload, inputs, results, reference, checks) -> None:
    first = results[0]
    for index, result in enumerate(results):
        workload.check(inputs, result, checks, reference)
        if index:
            checks.expect(result.same_as(first),
                          f"pass {index + 1} outputs differ from pass 1")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "sampledkf" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no package source under {SRC}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import calibration

    setup_cal = calibration.Calibrator("mixed")
    cpu, cpu_timings = _pin_fastest_cpu(setup_cal)
    setup_cal.samples.clear()
    setup_raw, setup_scaled = ([], []) if args.trace else _setup_times(args, setup_cal)

    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    mode = "smoke" if args.smoke else "full"
    reference = json.loads((HERE / "reference.json").read_text(
        encoding="utf-8"))[args.workload][mode]
    checks = workloads.Checks()
    tracer, traced_walls, traced = None, [], []
    # Traced runs report raw seconds; only the end-to-end run is calibrated.
    calibrator = None if args.trace else calibration.Calibrator(workload.calibration)

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        workdir = Path(tmp)
        if not args.smoke:
            # Warm-up: one small pass through the same code, not timed or counted.
            workload.run(workload.build(args.seed, True, workdir))
        inputs = workload.build(args.seed, args.smoke, workdir)
        budget = args.seconds / 2 if args.trace else args.seconds
        walls, factors, results = _measure(budget, workload.run,
                                           lambda: inputs, calibrator)
        if args.trace:
            tracer = spans.Tracer()
            with tracer:
                traced_walls, _, traced = _measure(
                    args.seconds / 2, workload.run,
                    lambda: workload.build(args.seed, args.smoke, workdir))
            leftover = spans.leftover_wrappers()
            checks.expect(not leftover, f"wrappers left in place: {leftover}")
        all_results = results + traced
        _check_passes(workload, inputs, all_results, reference, checks)

    factors = factors or [1.0] * len(walls)
    wall = statistics.median(w * f for w, f in zip(walls, factors))
    samples = {"setup_s": len(setup_scaled), "wall_s": len(walls),
               "throughput_per_s": len(walls)}
    if args.workload == "driven_validation":
        mc_s = statistics.median(r.info["mc_s"] * f
                                 for r, f in zip(results, factors))
        throughput = workload.work_units(inputs) / mc_s
    else:
        throughput = workload.work_units(inputs) / wall

    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            "wall_s": wall,
            "throughput_per_s": throughput,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        declared = spec["end_to_end"]
    else:
        samples["traced_wall_s"] = len(traced_walls)
        samples["demo_s"] = len(results)
        metrics = spans.layer_metrics(tracer, len(traced))
        name = args.workload
        metrics.update({
            "trace_overhead_s": statistics.median(traced_walls) - wall,
            "grid_points_per_s": throughput if name == "rate_curves" else 0.0,
            "insertions_per_s": throughput if name == "telescope" else 0.0,
            "trials_per_s": throughput if name == "driven_validation" else 0.0,
            "demo_s": (statistics.median(r.info["demo_s"] for r in results)
                       if name == "driven_validation" else 0.0),
            "telescope_residual": (max(r.info["residual"] for r in all_results)
                                   if name == "telescope" else 0.0),
            "max_rel_dev": checks.max_rel_dev,
            "error_rate": checks.failed / max(checks.attempted, 1),
        })
        declared = spec["per_layer"]

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are "
                           f"not both computed and declared in BENCHMARK.json")

    manifest = {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": mode,
        "repeats": len(all_results),
        "samples": samples,
        "cpu": cpu,
        "cpu_calibration_s": cpu_timings,
        "raw_setup_s": setup_raw,
        "raw_pass_walls_s": walls,
        "raw_traced_pass_walls_s": traced_walls,
        "calibration": {
            "kernel": workload.calibration if calibrator else None,
            "reference_s": calibrator.reference if calibrator else None,
            "samples_s": calibrator.samples if calibrator else [],
            "setup_samples_s": setup_cal.samples,
        },
        "failures": checks.messages,
    }
    print(json.dumps({"manifest": manifest}))
    if tracer is not None:
        print(json.dumps({"spans": tracer.spans(), "missing_hooks": tracer.missing}))
    print(json.dumps({
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
