#!/usr/bin/env python3
"""The quatnil benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py                                   # all workloads, one process each
    python3 perfbench/run.py --workload mixed-algebras --seed 3 --seconds 20
    python3 perfbench/run.py --workload check-large --trace 1  # per-layer metrics

Each workload is a closed loop with one client over instances made from
`--seed`. `--trace 0` runs whole cycles of instances until `--seconds` have
passed and prints the end-to-end metrics. `--trace 1` runs one cycle, then set-up and that cycle again under
the tracer, and prints the per-layer metrics (see README.md). The last line
of standard output is one JSON object; a fuller record, with the
environment and the certificate fingerprint, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("roundtrip-hamilton", "mixed-algebras", "check-large")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    src = ROOT / "src"
    if not (src / "quatnil" / "__init__.py").is_file():
        print(f"error: the quatnil sources are missing ({src})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import quatnil.cli  # noqa: F401  (imports every library module)
    import_s = time.perf_counter() - start
    import bench

    return bench.run_workload(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
