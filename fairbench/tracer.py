"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into each layer's public functions by
patching the owning module or class attribute for the duration of a
traced run; nothing under ``src/`` knows about this file. Spans are kept
in a list and only written to disk (JSONL) when the run ends.

A span is ``[name, start, end, parent, rows]``: ``parent`` is the index
of the enclosing span (``-1`` for a root) and ``rows`` an optional work
count (rows scored by a batch call). Spans nest strictly because every
traced call runs on the benchmark's single driving thread, so a span's
self time is its duration minus the summed durations of its direct
children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

NAME, START, END, PARENT, ROWS = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        #: Root span index -> factor its subtree's durations are scaled by
        #: (reference-host seconds; see ``common.calibrate``).
        self.scale: dict[int, float] = {}

    # -- recording -------------------------------------------------- #

    def _open(self, name: str, rows: int | None = None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, rows])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span nesting broken: closed {index}, top was {popped}")

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    # -- patching --------------------------------------------------- #

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        rows: Callable[..., int] | None = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = tracer._open(name, rows(*args, **kwargs) if rows else None)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(index)

        self.replace(owner, attr, traced)

    def patch_generator(self, owner: Any, attr: str, name: str) -> None:
        """Record one span per ``next()`` of the generator ``owner.attr``
        returns, so lazily produced work is timed where it is consumed."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            iterator = iter(original(*args, **kwargs))
            while True:
                index = tracer._open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer._close(index)
                yield item

        self.replace(owner, attr, traced)

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` until :meth:`unpatch` restores the original."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def set_scale(self, since: int, factor: float) -> None:
        """Scale the root spans recorded from index *since* on by *factor*."""
        for i in range(since, len(self.spans)):
            if self.spans[i][PARENT] < 0:
                self.scale[i] = factor

    # -- analysis --------------------------------------------------- #

    def durations(self) -> list[float]:
        """Span durations, scaled by their root span's factor."""
        root: list[int] = []
        out = []
        for i, s in enumerate(self.spans):
            root.append(i if s[PARENT] < 0 else root[s[PARENT]])
            out.append((s[END] - s[START]) * self.scale.get(root[i], 1.0))
        return out

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        dur = self.durations()
        own = list(dur)
        for i, s in enumerate(self.spans):
            if s[PARENT] >= 0:
                own[s[PARENT]] -= dur[i]
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self seconds, rows."""
        dur = self.durations()
        own = self.self_times()
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "rows": 0}
        )
        for i, s in enumerate(self.spans):
            entry = out[s[NAME]]
            entry["calls"] += 1
            entry["total_s"] += dur[i]
            entry["self_s"] += own[i]
            entry["rows"] += s[ROWS] or 0
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s[NAME],
                            "start": s[START],
                            "end": s[END],
                            "parent": s[PARENT],
                            "rows": s[ROWS],
                        }
                    )
                    + "\n"
                )
