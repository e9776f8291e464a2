"""Record the numbers each workload computes, for the ``max_rel_dev`` check.

    python3 perfbench/record_reference.py

Runs one pass of every workload at the full and the smoke size and writes
``perfbench/reference.json``.  Run it only at a commit whose numbers are
trusted.  Numbers that depend on the workload seed (the Monte Carlo ones,
named ``mc.*``) are not recorded; their checks use independent oracles.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    recorded = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent, prefix=".perfbench-") as tmp:
        for name, workload in workloads.WORKLOADS.items():
            recorded[name] = {}
            for mode in ("full", "smoke"):
                inputs = workload.build(0, mode == "smoke", Path(tmp))
                result = workload.run(inputs)
                if result.errors:
                    raise SystemExit(f"{name} ({mode}) raised: {result.errors}")
                recorded[name][mode] = {key: value for key, value
                                        in sorted(result.numbers.items())
                                        if not key.startswith("mc.")}
    (HERE / "reference.json").write_text(json.dumps(recorded, indent=1) + "\n",
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
