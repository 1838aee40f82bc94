#!/usr/bin/env python3
"""Benchmark entry point: run one workload and print its result.

    python3 perfbench/run.py --workload grid --seed 0 --seconds 15 --trace 0

Workloads: grid, serve-warm, serve-cold (see perfbench/README.md).
Human-readable metric lines go to stdout first; the last stdout line is
one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end metrics listed in
BENCHMARK.json, with --trace 1 the per-layer ones.

The library is imported from src/ of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("grid", "serve-warm", "serve-cold")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "artok" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: {src / 'artok'} or {spec_path} is missing; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import artok
    if Path(artok.__file__).resolve().parent != (src / "artok").resolve():
        print(f"perfbench: imported artok from {artok.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import harness

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    result = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        work_root=ROOT / ".bench_build" / "perfbench",
    )
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in result.metrics:
            print(f"perfbench: workload produced no metric {m['name']!r}", file=sys.stderr)
            return 3
        value, unit, _ = result.metrics[m["name"]]
        if unit != m["unit"]:
            print(f"perfbench: metric {m['name']!r} has unit {unit!r}, "
                  f"BENCHMARK.json says {m['unit']!r}", file=sys.stderr)
            return 3
        metrics[m["name"]] = {"value": value, "unit": unit}
    for line in result.report_lines():
        print(line)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
