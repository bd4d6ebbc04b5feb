"""Benchmark of the QuCLEAR compiler and its serving path.

Run from the repository root::

    python3 qbench/run.py --workload compile-cold --seed 1 --seconds 16 --trace 0

Workloads: ``compile-cold`` (library compile loop), ``serve-hits`` and
``serve-mixed`` (open-loop HTTP traffic against ``python -m repro.service``).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
breakdown.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it carries the run's details (tail percentile, sample counts, phases,
environment).  The exit code is non-zero when any output was wrong.
"""

from __future__ import annotations

import time

LAUNCHED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("compile-cold", "serve-hits", "serve-mixed")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops the server it started (``finally`` blocks)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"qbench: no repro sources under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy  # noqa: F401
    import repro  # noqa: F401

    import common

    import_s = time.perf_counter() - LAUNCHED
    if args.workload == "compile-cold":
        import compile_cold

        outcome = compile_cold.run(args.seed, args.seconds, import_s, bool(args.trace))
    else:
        import serve

        outcome = serve.run(args.workload, args.seed, args.seconds, import_s, bool(args.trace))

    detail = dict(outcome["detail"])
    detail["environment"] = common.environment()
    detail["trace"] = args.trace
    print(json.dumps({"detail": detail}, default=float))
    failed = int(outcome["failed"])
    attempted = max(1, int(outcome["attempted"]))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome["metrics"].items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
