"""The ``serve_mix`` workload: one client against a one-worker fleet.

Set-up fits a FairKM model on synthetic Adult, publishes it to a
throwaway registry and starts ``repro fleet up --workers 1`` (the proxy
plus one worker) as a subprocess. One client on one keep-alive
connection then runs a closed loop over a fixed, seeded cycle of
requests on held-out Adult rows; whole cycles repeat until ``--seconds``
have elapsed. With one waiting caller at most two of the three processes
(client, proxy, worker) are busy at a time, which fits a 2-core host.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from common import (
    ROOT, WORK_DIR, RefClock, Run, adult, median, peak_rss_mb, percentile,
)
from tracer import Tracer

#: Request mix of one cycle: (kind, rows per request, requests per cycle).
#: Small npy requests are 85% of the cycle, so p50 is their latency.
MIX = (
    ("small_npy", 32, 170),
    ("small_json", 32, 10),
    ("bulk_npy", 2048, 10),  # >= proxy.MIN_SCATTER_ROWS: the buffered scatter path
    ("stream", 2048, 10),  # RSW1 stream in 512-row frames: the dealer path
)
SMOKE_MIX = (("small_npy", 32, 17), ("small_json", 32, 1), ("bulk_npy", 2048, 1), ("stream", 2048, 1))
STREAM_FRAME_ROWS = 512
K = 15
TRAIN_RAW_N = 4000
HELD_OUT_RAW_N = 12000
SETUP_REPEATS = 3
#: Interleaved samples per payload size for the direct/proxy/in-process comparison.
COMPARE_SMALL = 200
COMPARE_BULK = 30
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


class SetupError(RuntimeError):
    pass


class Fleet:
    """One ``repro fleet up --workers 1`` subprocess and its state file."""

    def __init__(self, registry: Path, state_dir: Path) -> None:
        self.state_dir = state_dir
        self.log_path = state_dir.parent / (state_dir.name + "-up.log")
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        self._log = self.log_path.open("wb")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "fleet", "up", "--registry", str(registry),
             "--workers", "1", "--port", "0", "--state-dir", str(state_dir)],
            stdout=self._log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
        )
        self.state: dict[str, Any] = {}

    def wait_ready(self, version: str) -> None:
        from repro.serving.client import ServingClient, ServingClientError

        deadline = time.monotonic() + START_TIMEOUT_S
        state_path = self.state_dir / "fleet.json"
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise SetupError(f"fleet exited with code {self.proc.returncode}")
            try:
                self.state = json.loads(state_path.read_text())
            except (OSError, ValueError):
                time.sleep(0.02)
                continue
            if self.state.get("proxy_url") and self.state.get("version") == version:
                try:
                    with ServingClient(url=self.state["proxy_url"], timeout=5.0) as client:
                        client.healthz()
                    return
                except (ServingClientError, OSError):
                    pass
            time.sleep(0.02)
        raise SetupError(f"fleet not healthy within {START_TIMEOUT_S:.0f}s")

    @property
    def proxy_url(self) -> str:
        return self.state["proxy_url"]

    @property
    def worker_url(self) -> str:
        return self.state["workers"][0]["url"]

    def pids(self) -> list[int]:
        return [self.proc.pid] + [w["pid"] for w in self.state.get("workers", []) if w.get("pid")]

    def peak_rss_mb(self) -> float:
        """Summed VmHWM (peak RSS) of the proxy and worker processes."""
        total = 0.0
        for pid in self.pids():
            try:
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
            except OSError:
                pass
        return total

    def log_tail(self, lines: int = 30) -> str:
        parts = []
        for path in [self.log_path, *sorted(self.state_dir.glob("*.log"))]:
            try:
                text = path.read_text(errors="replace").splitlines()[-lines:]
            except OSError:
                continue
            parts.append(f"--- {path.name} ---\n" + "\n".join(text))
        return "\n".join(parts)

    def stop(self) -> list[int]:
        """SIGTERM the fleet, wait for it, and return any pid that outlived it."""
        pids = self.pids()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        alive = [p for p in pids if _alive(p)]
        while alive and time.monotonic() < deadline:
            time.sleep(0.05)
            alive = [p for p in alive if _alive(p)]
        for pid in alive:  # never leave a process behind, but report it
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        return alive


def _alive(pid: int) -> bool:
    """True while *pid* exists and is not a zombie awaiting its reaper."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


@dataclass
class Served:
    model: Any
    version: str
    fleet: Fleet
    #: Held-out feature rows and their sensitive attributes (name -> (codes, values)).
    rows: np.ndarray
    sensitive: dict[str, tuple[np.ndarray, int]]
    times: dict[str, float]
    centers_digest: str


def _setup(work: Path) -> Served:
    """Data, fit, publish, fleet up, timed as one set-up."""
    from repro import api
    from repro.experiments.paper import dataset_lambda

    # Each phase is reported in reference-host seconds.
    clock = RefClock()
    raw: dict[str, float] = {}
    times: dict[str, float] = {}
    start = time.perf_counter()
    dataset, points, cats, nums = adult(TRAIN_RAW_N, 100)
    held_out, rows, _, _ = adult(HELD_OUT_RAW_N, 101)
    raw["data"] = time.perf_counter() - start
    times["data"] = raw["data"] * clock.factor()

    start = time.perf_counter()
    config = api.RunConfig(
        method="fairkm", k=K, lambda_=dataset_lambda(dataset.n), engine="chunked", seed=0,
    )
    model = api.fit(config, points, sensitive=[*cats, *nums])
    if work.exists():
        shutil.rmtree(work)
    version = model.publish(work / "registry")
    raw["fit_publish"] = time.perf_counter() - start
    times["fit_publish"] = raw["fit_publish"] * clock.factor()

    start = time.perf_counter()
    fleet = Fleet(work / "registry", work / "fleet")
    try:
        fleet.wait_ready(version)
    except SetupError as exc:
        tail = fleet.log_tail()
        fleet.stop()
        raise SetupError(f"{exc}\n{tail}") from None
    except BaseException:
        fleet.stop()
        raise
    raw["fleet_up"] = time.perf_counter() - start
    times["fleet_up"] = raw["fleet_up"] * clock.factor()

    times["setup"] = sum(times.values())
    times["raw_setup"] = sum(raw.values())
    digest = hashlib.sha256(model.centers.tobytes()).hexdigest()
    return Served(model, version, fleet, rows, held_out.sensitive_categorical(), times, digest)


#: Seed of the request rows. Fixed, so every run serves the same rows and
#: the served-quality numbers repeat exactly; ``--seed`` orders the cycle.
ROWS_SEED = 7


def _cycle(served: Served, seed: int, mix: tuple) -> list[tuple[str, np.ndarray, np.ndarray, np.ndarray]]:
    """The fixed request cycle in *seed*'s order: (kind, row indices, rows, expected labels)."""
    rows_rng = np.random.default_rng(ROWS_SEED)
    cycle = []
    for kind, size, count in mix:
        for _ in range(count):
            start = int(rows_rng.integers(0, served.rows.shape[0] - size))
            index = np.arange(start, start + size)
            points = np.ascontiguousarray(served.rows[index])
            cycle.append((kind, index, points, served.model.predict(points)))
    return [cycle[i] for i in np.random.default_rng(seed).permutation(len(cycle))]


def _send(client: Any, kind: str, points: np.ndarray) -> Any:
    if kind == "small_json":
        return client.assign(points, npy=False)
    if kind == "stream":
        return client.assign_stream(points, chunk_size=STREAM_FRAME_ROWS)
    return client.assign(points)


def _loop(run: Run, client: Any, served: Served, cycle: list, *, seconds: float | None,
          cycles: int | None, tracer: Tracer | None = None) -> list[tuple[float, list[float]]]:
    """Closed loop over whole cycles; returns (cycle wall, request latencies)
    per cycle, in reference-host seconds."""
    from repro.serving.client import ServingClientError

    done: list[tuple[float, list[float]]] = []
    start = time.perf_counter()
    clock = RefClock()
    while True:
        first_span = len(tracer.spans) if tracer is not None else 0
        cycle_start = time.perf_counter()
        latencies = []
        for kind, _, points, expected in cycle:
            reason = ""
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    response = _send(client, kind, points)
                else:
                    with tracer.span("op.request"):
                        response = _send(client, kind, points)
            except (ServingClientError, OSError, ValueError) as exc:
                reason = f"{kind}: {type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            if not reason:
                if response.version != served.version:
                    reason = f"{kind}: served version {response.version!r} != {served.version!r}"
                elif not np.array_equal(response.labels, expected):
                    reason = f"{kind}: labels differ from in-process predict"
            run.op(not reason, reason)
        cycle_wall = time.perf_counter() - cycle_start
        factor = clock.factor()
        if tracer is not None:
            tracer.set_scale(first_span, factor)
        done.append((cycle_wall * factor, [t * factor for t in latencies]))
        if (cycles is not None and len(done) >= cycles) or (
            seconds is not None and time.perf_counter() - start >= seconds
        ):
            return done


def _scrape(url: str) -> dict[tuple[str, tuple], float]:
    from repro.obs.prometheus import parse_text
    from repro.serving.client import ServingClient

    with ServingClient(url=url, timeout=10.0) as client:
        status, _, payload = client.request_raw("GET", "/metrics")
    if status != 200:
        raise SetupError(f"GET {url}/metrics answered {status}")
    return {
        (s.name, tuple(sorted(s.labels.items()))): s.value
        for family in parse_text(payload.decode("utf-8"))
        for s in family.samples
    }


def _sum(before: dict, after: dict, name: str, **match: str) -> float:
    total = 0.0
    for (sample, labels), value in after.items():
        d = dict(labels)
        if sample == name and all(d.get(k) == v for k, v in match.items()):
            total += value - before.get((sample, labels), 0.0)
    return total


def _instrument_client(tracer: Tracer) -> None:
    """Client-side layers: the HTTP exchange and the body encode/decode."""
    from repro.serving import client as client_mod
    from repro.serving import wire

    # Stand-ins for the client module's ``np`` and ``json`` globals whose
    # encode/decode functions are traced; everything else is the module's own.
    encode = types.SimpleNamespace(**vars(np))
    codec = types.SimpleNamespace(**vars(json))
    tracer.patch(encode, "save", "wire.client_encode")
    tracer.patch(codec, "dumps", "wire.client_encode")
    tracer.patch(codec, "loads", "wire.client_decode")
    tracer.replace(client_mod, "np", encode)
    tracer.replace(client_mod, "json", codec)
    tracer.patch_generator(wire, "iter_encode", "wire.client_encode")
    tracer.patch(wire, "decode_npy", "wire.client_decode")
    tracer.patch(client_mod.ServingClient, "request_raw", "client.http")
    tracer.patch(client_mod.ServingClient, "_exchange", "client.http")
    tracer.patch_generator(wire.StreamReader, "frames", "client.http")


def _compare(served: Served, cycle: list, smoke: bool) -> dict[str, dict[str, float]]:
    """p50 ms (reference host) of the same payloads in-process, straight to
    the worker, and via the proxy, interleaved so host drift hits all three
    alike."""
    from repro.serving.client import ServingClient

    fleet = served.fleet
    out = {}
    with ServingClient(url=fleet.worker_url) as direct, ServingClient(url=fleet.proxy_url) as via:
        for size, kind, count in (("small", "small_npy", COMPARE_SMALL), ("bulk", "bulk_npy", COMPARE_BULK)):
            points = next(p for k, _, p, _ in cycle if k == kind)
            times: dict[str, list[float]] = {"api": [], "direct": [], "proxy": []}
            clock = RefClock()
            for _ in range(max(3, count // 10) if smoke else count):
                t0 = time.perf_counter()
                served.model.assigner.assign(points)
                t1 = time.perf_counter()
                direct.assign(points)
                t2 = time.perf_counter()
                via.assign(points)
                t3 = time.perf_counter()
                times["api"].append(t1 - t0)
                times["direct"].append(t2 - t1)
                times["proxy"].append(t3 - t2)
            factor = clock.factor()
            out[size] = {k: 1e3 * factor * median(v) for k, v in times.items()}
    return out


def _served_ae(served: Served, cycle: list) -> float:
    """Paper AE (mean over sensitive attributes) of the labels served in
    one cycle, over the held-out rows the requests carried."""
    from repro.metrics.fairness import fairness_report

    index = np.concatenate([i for _, i, _, _ in cycle])
    labels = np.concatenate([e for _, _, _, e in cycle])
    attrs = {name: (codes[index], n) for name, (codes, n) in served.sensitive.items()}
    return float(fairness_report(attrs, labels, K).mean.ae)


def run(run: Run, seconds: float, smoke: bool) -> None:
    from repro.metrics.quality import clustering_objective
    from repro.serving.client import ServingClient

    work = WORK_DIR / f"serve-{os.getpid()}"
    setups: list[dict[str, float]] = []
    cycles: list[tuple[float, list[float]]] = []
    mix = SMOKE_MIX if smoke else MIX
    # The loop is split into one segment per set-up, so the set-up repeats
    # are spread over the run like the cycles are.
    budget = (seconds / 2 if run.trace else seconds) / SETUP_REPEATS
    served = None
    try:
        for _ in range(SETUP_REPEATS):
            if served is not None:
                stale = served.fleet.stop()
                run.check(not stale, f"fleet pids {stale} outlived SIGTERM")
            previous = served
            served = _setup(work)
            setups.append(served.times)
            run.check(
                previous is None or served.centers_digest == previous.centers_digest,
                "set-up fits differ: the served model is not deterministic",
            )
            cycle = _cycle(served, run.seed, mix)
            fleet = served.fleet
            with ServingClient(url=fleet.proxy_url, timeout=30.0) as client:
                before = (_scrape(fleet.proxy_url), _scrape(fleet.worker_url))
                cycles += _loop(run, client, served, cycle, seconds=budget, cycles=None)
        if run.trace:
            tracer = Tracer()
            _instrument_client(tracer)
            try:
                with ServingClient(url=fleet.proxy_url, timeout=30.0) as client:
                    traced = _loop(run, client, served, cycle, seconds=None,
                                   cycles=len(cycles), tracer=tracer)
            finally:
                tracer.unpatch()
            after = (_scrape(fleet.proxy_url), _scrape(fleet.worker_url))
            compare = _compare(served, cycle, smoke)
        rss = peak_rss_mb() + fleet.peak_rss_mb()
    finally:
        if served is not None:
            stale = served.fleet.stop()
            run.check(not stale, f"fleet pids {stale} outlived SIGTERM")
        shutil.rmtree(work, ignore_errors=True)

    latencies = [t for _, lat in cycles for t in lat]
    cycle_rows = sum(p.shape[0] for _, _, p, _ in cycle)
    loop_wall = sum(w for w, _ in cycles)
    run.metric("setup_s", median([t["setup"] for t in setups]), "s")
    run.metric("latency_p50_ms", 1e3 * median(latencies), "ms")
    run.metric("latency_p99_ms", 1e3 * percentile(latencies, 99), "ms")
    run.metric("rows_per_s", cycle_rows * len(cycles) / loop_wall, "1/s")
    # Quality of what was served (served labels equal predict, checked per
    # request): CO and AE of one cycle's labels over its held-out rows.
    points = np.vstack([p for _, _, p, _ in cycle])
    labels = np.concatenate([e for _, _, _, e in cycle])
    run.metric("co", clustering_objective(points, labels, K), "sse")
    run.metric("fairness_ae", _served_ae(served, cycle), "score")
    run.metric("peak_rss_mb", rss, "MB")
    run.metric("ok_frac", (run.attempted - run.failed) / max(run.attempted, 1), "frac")
    run.details.update(
        cycles=len(cycles), requests=len(latencies), loop_wall_s=loop_wall,
        setup_s=[t["setup"] for t in setups], fleet_up_s=[t["fleet_up"] for t in setups],
        raw_setup_s=median([t["raw_setup"] for t in setups]),
        version=served.version,
    )
    if run.trace:
        _per_layer(run, setups, cycles, traced, tracer, compare, before, after)


def _per_layer(run: Run, setups: list, untraced: list, traced: list, tracer: Tracer,
               compare: dict, before: tuple, after: tuple) -> None:
    s = tracer.summary()
    get = lambda name, key: s.get(name, {}).get(key, 0)  # noqa: E731
    op_wall = get("op.request", "total_s")
    layer_self = {n: e["self_s"] for n, e in s.items() if n != "op.request"}
    run.check(
        all(v >= -1e-9 for v in tracer.self_times())
        and sum(layer_self.values()) <= op_wall * (1 + 1e-9),
        f"traced layer self times {sum(layer_self.values())} exceed operation wall {op_wall}",
    )
    tracer.write(WORK_DIR / f"trace-{run.workload}-seed{run.seed}.jsonl")
    (p0, w0), (p1, w1) = before, after
    lane_requests = _sum(p0, p1, "repro_proxy_lane_requests_total")
    server_requests = _sum(w0, w1, "repro_assign_latency_seconds_count")
    failures = _sum(p0, p1, "repro_proxy_lane_failures_total")
    replays = _sum(p0, p1, "repro_proxy_lane_replays_total")
    run.check(failures == 0 and replays == 0,
              f"proxy lane failures {failures}, replays {replays}; both must be 0")
    run.check(server_requests == lane_requests,
              f"worker served {server_requests} /assign requests, proxy forwarded {lane_requests}")

    m = run.metric
    m("data.build_s", median([t["data"] for t in setups]), "s")
    m("fleet.up_s", median([t["fleet_up"] for t in setups]), "s")
    m("api.assign_small_p50_ms", compare["small"]["api"], "ms")
    m("api.assign_bulk_p50_ms", compare["bulk"]["api"], "ms")
    m("wire.client_encode_s", get("wire.client_encode", "self_s"), "s")
    m("wire.client_decode_s", get("wire.client_decode", "self_s"), "s")
    m("server.direct_small_p50_ms", compare["small"]["direct"], "ms")
    m("server.direct_bulk_p50_ms", compare["bulk"]["direct"], "ms")
    m("proxy.hop_small_p50_ms", compare["small"]["proxy"] - compare["small"]["direct"], "ms")
    m("proxy.hop_bulk_p50_ms", compare["bulk"]["proxy"] - compare["bulk"]["direct"], "ms")
    for mode, name in (("npy", "busy_npy_s"), ("stream", "busy_stream_s"), ("forward", "busy_forward_s")):
        m(f"proxy.{name}", _sum(p0, p1, "repro_assign_latency_seconds_sum", mode=mode), "s")
    m("proxy.lane_requests", lane_requests, "count")
    m("proxy.lane_failures", failures, "count")
    m("proxy.replays", replays, "count")
    m("server.requests", server_requests, "count")
    m("trace.unattributed_frac", get("op.request", "self_s") / op_wall, "frac")
    m("trace.overhead_frac",
      sum(w for w, _ in traced) / sum(w for w, _ in untraced) - 1.0, "frac")
    run.details.update(
        traced_op_wall_s=op_wall, layer_self_s=layer_self,
        shares={n: v / op_wall for n, v in sorted(layer_self.items())}, compare_ms=compare,
    )
