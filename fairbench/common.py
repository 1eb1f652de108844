"""Shared pieces of the benchmark: data, statistics, host facts, output."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

#: Root of the checkout the benchmark runs from (the directory above ours).
ROOT = Path(__file__).resolve().parent.parent
#: Throwaway files (registries, fleet logs, trace dumps); listed in .gitignore.
WORK_DIR = ROOT / ".fairbench"


def median(values: list[float]) -> float:
    return float(statistics.median(values))


#: Seconds ``calibrate()`` takes on the reference host (2-vCPU x86_64
#: VM, Python 3.11, numpy 2.4, OpenBLAS pinned to one thread) in its fast
#: state. Timings are reported in reference-host seconds: the measured
#: wall times this constant over the calibration measured around it.
REFERENCE_CALIBRATION_S = 0.004

#: Kernel repeats per calibration; the median damps a single disturbed one.
CALIBRATION_SAMPLES = 3

_CAL_RNG = np.random.default_rng(0)
_CAL_X = _CAL_RNG.random((256, 28))
_CAL_C = _CAL_RNG.random((28, 5))
_CAL_IDX = _CAL_RNG.integers(0, 256, 64)
_CAL_BIG = _CAL_RNG.random((2600, 28))
_CAL_LABELS = _CAL_RNG.integers(0, 15, 2600)


def calibrate() -> float:
    """Time a fixed mix of interpreted Python, small numpy calls, a small
    GEMM, a fancy-indexed gather and per-column label sums over a
    fit-sized matrix: the instruction mix of the fit and serve paths,
    without calling any code of the program.

    A shared virtual host can drift between a fast state and one about
    1.45x slower (5-30 s each on the 2-vCPU VM this was built on), so the
    share of a run spent slow, and any raw wall time, changes from run to
    run. Timed next to each operation,
    the kernel says how fast the host was at that moment, and dividing it
    out removes the drift the operation shared with it.
    """
    samples = []
    for _ in range(CALIBRATION_SAMPLES):
        start = time.perf_counter()
        for _ in range(30):
            d = _CAL_X @ _CAL_C
            d *= -2.0
            d += (_CAL_X * _CAL_X).sum(axis=1)[:, None]
            d.argmin(axis=1)
            d[_CAL_IDX].min(axis=1)
            for j in range(64):
                row = _CAL_X[j]
                float(row @ _CAL_C[:, j % 5])
        for c in range(28):
            np.bincount(_CAL_LABELS, weights=_CAL_BIG[:, c], minlength=15)
        samples.append(time.perf_counter() - start)
    return median(samples)


class RefClock:
    """Converts wall times to reference-host seconds.

    Call :meth:`factor` right after each timed operation: it calibrates
    and returns ``REFERENCE_CALIBRATION_S`` over the mean of the
    calibrations before and after the operation. Multiply the operation's
    wall time by it.
    """

    def __init__(self) -> None:
        self._last = calibrate()
        self.factors: list[float] = []

    def factor(self) -> float:
        after = calibrate()
        factor = 2 * REFERENCE_CALIBRATION_S / (self._last + after)
        self._last = after
        self.factors.append(factor)
        return factor


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive interpolation; needs 2+ samples)."""
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def labels_digest(labels: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(labels, dtype=np.int64).tobytes()).hexdigest()[:16]


def adult(raw_n: int, seed: int):
    """Synthetic Adult at the paper's schema: five categorical sensitive
    attributes (7/6/5/2/41 values) and 28 one-hot/z-scored feature columns.

    Returns ``(dataset, points, categorical_specs, numeric_specs)``.
    """
    from repro.experiments.paper import build_adult

    dataset = build_adult(raw_n, seed=seed)
    points = dataset.feature_matrix()
    cats, nums = dataset.sensitive_specs()
    return dataset, points, cats, nums


def _blas() -> dict[str, Any]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return {"name": "unknown"}
    return {"name": blas.get("name"), "version": blas.get("version")}


def _source_digest() -> str:
    """Hash of every file under src/: names the code a result measured
    even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def host_facts() -> dict[str, Any]:
    """Facts that say which host and which code recorded a number."""
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "src_digest": _source_digest(),
    }


class Run:
    """Collects one run's operations, failures, metrics and details."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.setup_ok = True
        self.metrics: dict[str, dict[str, Any]] = {}
        self.details: dict[str, Any] = {}
        self.load_before = os.getloadavg()
        self.started = time.perf_counter()

    def op(self, ok: bool, reason: str = "") -> None:
        """Count one attempted operation; print the reason if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAIL [{self.workload}] {reason}", file=sys.stderr, flush=True)

    def check(self, ok: bool, reason: str) -> bool:
        """A run-level check (not an operation); a failure fails the run."""
        if not ok:
            self.setup_ok = False
            print(f"FAIL [{self.workload}] {reason}", file=sys.stderr, flush=True)
        return ok

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def emit(self) -> None:
        facts = host_facts()
        facts["loadavg_before"] = list(self.load_before)
        facts["loadavg_after"] = list(os.getloadavg())
        facts["run_wall_s"] = round(time.perf_counter() - self.started, 3)
        print("host " + json.dumps(facts, sort_keys=True))
        print("detail " + json.dumps(self.details, sort_keys=True, default=float))
        for name, m in self.metrics.items():
            print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
        print(
            json.dumps(
                {
                    "correct": self.setup_ok and self.failed == 0,
                    "attempted": max(self.attempted, 1),
                    "failed": self.failed if self.attempted else 1,
                    "metrics": self.metrics,
                }
            ),
            flush=True,
        )
