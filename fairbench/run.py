"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 fairbench/run.py --workload fit_exact --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. ``--trace 0`` prints the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` runs the workload once more with
every layer wrapped and prints the per-layer metrics. The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``;
lines before it give the host facts (``host {...}``), run details
(``detail {...}``) and a readable metric table. Check failures are
printed to standard error with their reason.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

# Pin every BLAS/OpenMP pool to one thread before numpy loads: the
# workloads are serial by design and the host facts record this setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# Run this process and every process it starts (the fleet's proxy and
# worker) on one CPU. A closed-loop request hops client -> proxy ->
# worker and back; across CPUs each hop waits for an idle virtual CPU to
# wake, which made small-request p50 swing by 30% between runs on a
# 2-vCPU VM. On one CPU the same runs agree within a few percent.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

WORKLOADS = ("fit_exact", "fit_minibatch", "serve_mix")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="shrunken data and request mix (the self-test's scale)",
    )
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"fairbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    from common import Run

    # SIGTERM unwinds like Ctrl-C, so the fleet is torn down on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    run = Run(args.workload, args.seed, bool(args.trace))
    if args.workload == "serve_mix":
        import serve as workload
    else:
        import fits as workload
    try:
        workload.run(run, args.seconds, args.smoke)
    except Exception as exc:  # a set-up failure is a failed run, never a result
        print(f"fairbench: {args.workload} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    measured = run.metrics
    run.metrics = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        if name in measured:
            run.check(measured[name]["unit"] == unit,
                      f"{name} measured in {measured[name]['unit']}, declared {unit}")
            run.metrics[name] = measured[name]
        elif args.trace:
            # A layer this workload never enters did no work in it.
            run.metric(name, 0.0, unit)
        else:
            run.check(False, f"end-to-end metric {name} was not measured")
    other = spec["end_to_end"] if args.trace else spec["per_layer"]
    # A traced run also measures the end-to-end metrics (they carry its
    # checks); they are reported as details, never as results.
    run.details["other_metrics"] = {
        e["name"]: measured[e["name"]]["value"] for e in other if e["name"] in measured
    }
    extra = sorted(set(measured) - set(run.metrics) - set(run.details["other_metrics"]))
    run.check(not extra, f"measured metrics not declared in BENCHMARK.json: {extra}")
    run.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
