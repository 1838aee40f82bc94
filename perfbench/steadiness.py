#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as bounds are judged.

    python3 perfbench/steadiness.py --runs 10 [--workload grid ...]

Runs the benchmark --runs times per workload, one seed per run, and
prints per metric the median and the quartile spread
(Q3 - Q1) / median of the values, next to the metric's bound in
BENCHMARK.json. One run at a time; nothing runs in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=100)
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in spec["workloads"]])
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict = {}
        for k in range(args.runs):
            seed = args.first_seed + k
            out = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect result {result}", file=sys.stderr)
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload} ({args.runs} runs)")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if name == "setup_s" or spread <= bounds[name] / 3 else "  > bound/3"
            print(f"{name:16s} median {med:12.6g}  spread {spread:6.3f}  "
                  f"bound {bounds[name]:.2f}{flag}")
            print(f"{'':16s} values " + " ".join(f"{v:.4g}" for v in vals))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
