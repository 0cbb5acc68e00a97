"""Repository benchmark: one workload per run, one JSON result line.

Usage::

    python3 perfbench/run.py --workload korean_e2e --seed 1 --seconds 10 --trace 0

Workloads (see :mod:`workloads`): ``korean_e2e``, ``paper_restudy``.
``--trace 0`` reports the end-to-end metrics; ``--trace
1`` runs the timed part untraced and then traced (layer wrappers
installed from :mod:`tracing`) and reports the per-layer metrics,
including ``trace.overhead_pct`` on the workload's primary figure.

Standard output ends with a ``report`` line (seed, host, the
workload-specific figures with sample counts) followed by the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Run it from the root of a checkout; it builds nothing, writes only under
``.bench_work/`` there, and removes what it wrote.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, BenchmarkError, WorkDir, require_program  # noqa: E402


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace: int) -> list[str] | None:
    """Metric names ``BENCHMARK.json`` declares for this mode, if present."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    try:
        require_program()
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = WorkDir()
    try:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds, work).run(
            bool(args.trace))
    finally:
        work.close()

    figures = outcome.layers if args.trace else outcome.metrics
    declared = declared_metrics(args.trace)
    if declared is not None and sorted(declared) != sorted(figures):
        print(f"error: measured {sorted(figures)} but BENCHMARK.json "
              f"declares {sorted(declared)}", file=sys.stderr)
        return 3
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "error_ratio": outcome.failed / outcome.attempted,
        **outcome.report,
    }
    for name, (value, unit) in figures.items():
        print(f"{name} {value:.6g} {unit}", file=sys.stderr)
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in figures.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
