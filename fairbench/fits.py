"""The two fit workloads: exact chunked FairKM and mini-batch FairKM.

Each run fits the same fixed list of (dataset seed, init seed) pairs, so
every quality number and every engine count repeats exactly and only
timings carry noise. ``--seed`` only permutes the order of the list.
Whole passes over the list repeat until ``--seconds`` have elapsed; a
run always completes at least one pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from common import (
    WORK_DIR, RefClock, Run, adult, labels_digest, median, peak_rss_mb, percentile,
)
from tracer import Tracer

#: Timed data set-ups per pass over the fit list.
SETUP_PER_PASS = 3

#: Relative tolerance between the fit's objective and the objective
#: recomputed from its final labels (both are exact resyncs, so only
#: summation-order noise separates them).
OBJECTIVE_RTOL = 1e-9


@dataclass(frozen=True)
class FitWorkload:
    k: int
    raw_n: int
    pairs: tuple[tuple[int, int], ...]
    #: ``(k, lambda_, init_seed) -> estimator``.
    make: Callable[[int, float, int], Any]
    #: Exact Algorithm 1 never increases its objective between sweeps.
    monotone: bool


def _fairkm(k: int, lam: float, seed: int) -> Any:
    from repro import FairKM

    return FairKM(k, lambda_=lam, engine="chunked", max_iter=30, n_jobs=1, seed=seed)


def _minibatch(k: int, lam: float, seed: int) -> Any:
    from repro import MiniBatchFairKM

    return MiniBatchFairKM(k, batch_size=256, lambda_=lam, max_iter=30, n_jobs=1, seed=seed)


WORKLOADS = {
    "fit_exact": FitWorkload(
        k=5, raw_n=4000,
        pairs=((0, 0), (0, 1), (1, 0), (1, 1)), make=_fairkm, monotone=True,
    ),
    "fit_minibatch": FitWorkload(
        k=15, raw_n=4000,
        pairs=((2, 0), (2, 1), (3, 0), (3, 1)), make=_minibatch, monotone=False,
    ),
}

#: Shrunken variants for the self-test (same code paths, smaller data).
SMOKE = {
    name: FitWorkload(w.k, 1500, w.pairs[:2], w.make, w.monotone)
    for name, w in WORKLOADS.items()
}


def _build(spec: FitWorkload) -> dict[int, tuple]:
    return {s: adult(spec.raw_n, s) for s in sorted({d for d, _ in spec.pairs})}


def _fit(spec: FitWorkload, data: dict[int, tuple], pair: tuple[int, int]) -> tuple[Any, float]:
    from repro.experiments.paper import dataset_lambda

    dataset, points, cats, nums = data[pair[0]]
    estimator = spec.make(spec.k, dataset_lambda(dataset.n), pair[1])
    start = time.perf_counter()
    result = estimator.fit(points, cats, nums)
    return result, time.perf_counter() - start


def _check(spec: FitWorkload, data: dict[int, tuple], pair: tuple[int, int], result: Any) -> str:
    """Empty string when the fit passes its checks, else the reason."""
    from repro.core.state import ClusterState

    _, points, cats, nums = data[pair[0]]
    if not np.isfinite(result.objective):
        return f"{pair}: objective {result.objective} is not finite"
    fresh = ClusterState(points, result.labels, spec.k, cats, nums).objective(result.lambda_)
    if abs(fresh - result.objective) > OBJECTIVE_RTOL * abs(fresh):
        return f"{pair}: objective {result.objective!r} != recomputed {fresh!r}"
    history = np.asarray(result.objective_history)
    if spec.monotone and np.any(np.diff(history) > OBJECTIVE_RTOL * np.abs(history[1:])):
        return f"{pair}: objective_history increases: {history.tolist()}"
    return ""


def _quality(spec: FitWorkload, data: dict[int, tuple], pair: tuple[int, int], result: Any) -> dict:
    from repro.metrics.fairness import fairness_report
    from repro.metrics.quality import clustering_objective

    dataset, points, _, _ = data[pair[0]]
    return {
        "co": clustering_objective(points, result.labels, spec.k),
        "ae": fairness_report(dataset.sensitive_categorical(), result.labels, spec.k).mean.ae,
        "visits": points.shape[0] * result.n_iter,
        "sweeps": result.n_iter,
        "moves": int(sum(result.moves_per_iter)),
        "digest": labels_digest(result.labels),
    }


def _instrument(tracer: Tracer) -> None:
    from repro.core import engine
    from repro.core.state import ClusterState

    tracer.patch(engine, "initial_labels", "init.initial_labels")
    tracer.patch(engine, "record_fit_sweep", "obs.record_fit_sweep")
    tracer.patch(engine.OptimizerEngine, "fit", "engine.fit")
    tracer.patch(engine.SequentialSweep, "sweep", "engine.dense_sweep")
    tracer.patch(engine.ChunkedSweep, "sweep", "engine.chunked_sweep")
    tracer.patch(engine.MiniBatchSweep, "sweep", "engine.minibatch_sweep")
    tracer.patch(ClusterState, "move_deltas", "state.move_deltas")
    tracer.patch(
        ClusterState, "batch_move_deltas", "state.batch_move_deltas",
        rows=lambda _state, indices, *a, **kw: len(indices),
    )
    tracer.patch(
        ClusterState, "batch_move_deltas_cols", "state.batch_move_deltas_cols",
        rows=lambda _state, indices, *a, **kw: len(indices),
    )
    tracer.patch(ClusterState, "apply_move", "state.apply_move")
    tracer.patch(ClusterState, "resync", "state.resync")
    tracer.patch(ClusterState, "objective", "state.objective")


def run(run: Run, seconds: float, smoke: bool) -> None:
    spec = (SMOKE if smoke else WORKLOADS)[run.workload]
    data = _build(spec)  # untimed: pays the one-off imports
    order = [spec.pairs[i] for i in np.random.default_rng(run.seed).permutation(len(spec.pairs))]
    walls: dict[tuple[int, int], list[float]] = {pair: [] for pair in order}
    quality: dict[tuple[int, int], dict] = {}

    # Every set-up and every fit is reported in reference-host seconds.
    clock = RefClock()
    setup_times: list[float] = []
    loop_start = time.perf_counter()
    while True:
        for _ in range(SETUP_PER_PASS):
            start = time.perf_counter()
            data = _build(spec)
            setup_times.append((time.perf_counter() - start) * clock.factor())
        for pair in order:
            result, wall = _fit(spec, data, pair)
            walls[pair].append(wall * clock.factor())
            reason = _check(spec, data, pair, result)
            q = _quality(spec, data, pair, result)
            first = quality.setdefault(pair, q)
            if not reason and first["digest"] != q["digest"]:
                reason = f"{pair}: labels differ between passes ({first['digest']} vs {q['digest']})"
            run.op(not reason, reason)
        if run.trace or time.perf_counter() - loop_start >= seconds:
            break

    # Each fit of the list is timed by the median of its repeats; the
    # list's fits differ in length, so the latency is the median over the
    # list of those per-fit times.
    fit_wall = {pair: median(w) for pair, w in walls.items()}
    run.metric("setup_s", median(setup_times), "s")
    run.metric("latency_p50_ms", 1e3 * median(list(fit_wall.values())), "ms")
    run.metric("latency_p99_ms", 1e3 * percentile(list(fit_wall.values()), 99), "ms")
    run.metric(
        "rows_per_s", sum(quality[p]["visits"] for p in order) / sum(fit_wall.values()), "1/s"
    )
    run.metric("co", float(np.mean([quality[p]["co"] for p in spec.pairs])), "sse")
    run.metric("fairness_ae", float(np.mean([quality[p]["ae"] for p in spec.pairs])), "score")
    run.metric("peak_rss_mb", peak_rss_mb(), "MB")
    run.metric("ok_frac", (run.attempted - run.failed) / max(run.attempted, 1), "frac")
    run.details.update(
        fit_list=[list(p) for p in order],
        n={str(s): d[1].shape[0] for s, d in data.items()},
        fit_walls_s={f"{d}/{i}": walls[(d, i)] for d, i in spec.pairs},
        host_speed=median(clock.factors),
        digests={f"{d}/{i}": quality[(d, i)]["digest"] for d, i in spec.pairs},
        sweeps=sum(quality[p]["sweeps"] for p in spec.pairs),
        moves=sum(quality[p]["moves"] for p in spec.pairs),
    )
    if run.trace:
        _traced_pass(run, spec, data, order, quality, fit_wall, setup_times)


def _traced_pass(
    run: Run,
    spec: FitWorkload,
    data: dict[int, tuple],
    order: list[tuple[int, int]],
    quality: dict[tuple[int, int], dict],
    untraced: dict[tuple[int, int], float],
    setup_times: list[float],
) -> None:
    """One more pass with every layer wrapped; checks run after unpatching."""
    tracer = Tracer()
    _instrument(tracer)
    results = []
    traced = []
    clock = RefClock()
    try:
        for pair in order:
            first_span = len(tracer.spans)
            with tracer.span("op.fit"):
                result, wall = _fit(spec, data, pair)
            factor = clock.factor()
            tracer.set_scale(first_span, factor)
            traced.append(wall * factor)
            results.append((pair, result))
    finally:
        tracer.unpatch()
    for pair, result in results:
        reason = _check(spec, data, pair, result)
        digest = labels_digest(result.labels)
        if not reason and digest != quality[pair]["digest"]:
            reason = f"{pair}: traced labels {digest} != untraced {quality[pair]['digest']}"
        run.op(not reason, reason)
    tracer.write(WORK_DIR / f"trace-{run.workload}-seed{run.seed}.jsonl")

    s = tracer.summary()
    get = lambda name, key: s.get(name, {}).get(key, 0)  # noqa: E731
    op_wall = get("op.fit", "total_s")
    visits = sum(quality[p]["visits"] for p in order)
    sweeps = sum(quality[p]["sweeps"] for p in order)
    moves = sum(quality[p]["moves"] for p in order)
    layer_self = {n: e["self_s"] for n, e in s.items() if n != "op.fit"}
    run.check(
        all(v >= -1e-9 for v in tracer.self_times())
        and sum(layer_self.values()) <= op_wall * (1 + 1e-9),
        f"traced layer self times {sum(layer_self.values())} exceed operation wall {op_wall}",
    )

    m = run.metric
    m("data.build_s", median(setup_times), "s")
    m("init.initial_labels_s", get("init.initial_labels", "total_s"), "s")
    m("engine.sweeps", sweeps, "count")
    m("engine.moves", moves, "count")
    m("engine.move_rate", moves / visits, "frac")
    m("engine.dense_sweeps", get("engine.dense_sweep", "calls"), "count")
    m("engine.dense_sweep_s", get("engine.dense_sweep", "self_s"), "s")
    m("engine.dense_sweep_total_s", get("engine.dense_sweep", "total_s"), "s")
    m("engine.chunked_sweep_self_s", get("engine.chunked_sweep", "self_s"), "s")
    m("engine.minibatch_sweep_self_s", get("engine.minibatch_sweep", "self_s"), "s")
    for layer in ("move_deltas", "batch_move_deltas", "batch_move_deltas_cols",
                  "apply_move", "resync"):
        m(f"state.{layer}_calls", get(f"state.{layer}", "calls"), "count")
        m(f"state.{layer}_s", get(f"state.{layer}", "self_s"), "s")
    m("state.batch_move_deltas_rows", get("state.batch_move_deltas", "rows"), "rows")
    m("state.batch_move_deltas_cols_rows", get("state.batch_move_deltas_cols", "rows"), "rows")
    m(
        "state.rescored_rows_per_visit",
        (get("state.batch_move_deltas", "rows") + get("state.batch_move_deltas_cols", "rows"))
        / visits,
        "rows/visit",
    )
    m("state.objective_s", get("state.objective", "self_s"), "s")
    m("obs.record_fit_sweep_s", get("obs.record_fit_sweep", "self_s"), "s")
    unattributed = get("op.fit", "self_s") + get("engine.fit", "self_s")
    m("trace.unattributed_frac", unattributed / op_wall, "frac")
    m("trace.overhead_frac", sum(traced) / sum(untraced.values()) - 1.0, "frac")
    run.details.update(
        traced_op_wall_s=op_wall,
        layer_self_s=layer_self,
        share_dense_sweep_total=get("engine.dense_sweep", "total_s") / op_wall,
        share_apply_move_resync=(get("state.apply_move", "self_s") + get("state.resync", "self_s"))
        / op_wall,
        shares={n: v / op_wall for n, v in sorted(layer_self.items())},
    )
