"""Time one workload's set-up in a fresh process and print the seconds.

    python3 perfbench/setup_probe.py <workload> <seed> <smoke 0|1>

The clock starts before anything is imported, so the figure covers importing
``sampledkf`` (with numpy and scipy) and building the workload's models,
grids and configs: what a command-line user pays on every run.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main(argv) -> int:
    name, seed, smoke = argv[0], int(argv[1]), argv[2] == "1"
    with tempfile.TemporaryDirectory(dir=HERE.parent, prefix=".perfbench-") as tmp:
        workloads.WORKLOADS[name].build(seed, smoke, Path(tmp))
        elapsed = time.perf_counter() - START
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
