"""Self-test of the benchmark at a shrunken scale (about two minutes).

    python3 fairbench/selftest.py

Checks that BENCHMARK.json follows the name and unit grammar, that every
workload runs (``--smoke``) and prints every metric it declares, that
quality numbers and engine counts repeat exactly across runs of one
seed, and that a traced run's layer self times fit inside the operation
wall. Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = 3
SECONDS = "2"


def fail(message: str) -> None:
    print(f"selftest FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def check_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        fail(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] + spec["per_layer"]
    for name in names + [m["name"] for m in metrics]:
        if not NAME.match(name):
            fail(f"bad name {name!r}")
    if len(set(names)) != len(names) or len({m["name"] for m in metrics}) != len(metrics):
        fail("a workload or metric name is used twice")
    for m in metrics:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            fail(f"bad unit or direction in {m}")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            fail(f"bad end-to-end entry {m}")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            fail(f"bad per-layer entry {m}")
    setup = next((m for m in spec["end_to_end"] if m["name"] == "setup_s"), None)
    if setup is None or setup["unit"] != "s" or setup["better"] != "lower":
        fail("setup_s must be declared in s, lower is better")
    if setup["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        fail("setup_s must carry the largest bound")
    return spec


def run(workload: str, trace: int) -> tuple[dict, dict]:
    """One smoke run: (result line, detail line)."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace), "--smoke"]
    out = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=180)
    if out.returncode != 0:
        fail(f"{workload} trace={trace} exited {out.returncode}:\n{out.stderr[-3000:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(next(line for line in lines if line.startswith("detail "))[7:])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload} trace={trace} incorrect:\n{out.stderr[-3000:]}")
    return result, detail


def main() -> None:
    spec = check_spec()
    for workload in (w["name"] for w in spec["workloads"]):
        plain, _ = run(workload, 0)
        traced = [run(workload, 1) for _ in range(2 if workload.startswith("fit") else 1)]
        for declared, result in [(spec["end_to_end"], plain)] + [
            (spec["per_layer"], r) for r, _ in traced
        ]:
            for m in declared:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    fail(f"{workload}: metric {m['name']} missing or not in {m['unit']}")
            if len(result["metrics"]) != len(declared):
                fail(f"{workload}: prints undeclared metrics")
        for r, detail in traced:
            for name in ("co", "fairness_ae"):
                if detail["other_metrics"][name] != plain["metrics"][name]["value"]:
                    fail(f"{workload}: {name} differs between two runs of seed {SEED}")
            layers = sum(detail["layer_self_s"].values())
            if layers > detail["traced_op_wall_s"]:
                fail(f"{workload}: layer self times {layers} exceed operation wall")
            if r["metrics"]["trace.unattributed_frac"]["value"] > 0.10 and workload.startswith("fit"):
                fail(f"{workload}: more than 10% of the fit wall is unattributed")
        counts = [
            {k: v["value"] for k, v in r["metrics"].items()
             if k.startswith("engine.") and not k.endswith("_s")}
            for r, _ in traced
        ]
        if any(c != counts[0] for c in counts):
            fail(f"{workload}: engine counts differ between two runs of seed {SEED}: {counts}")
        print(f"selftest: {workload} ok", flush=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
