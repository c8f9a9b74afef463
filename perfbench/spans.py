"""Spans around the program's layer boundaries, for the traced run only.

:func:`installed` swaps public functions and methods of each layer for
wrappers that record a span (name, start, end, parent span, op id) and,
for a few calls, a count taken from the arguments or the result.  The
originals are restored when the ``with`` block ends, so the timed runs
never execute a wrapper.  Spans stay in memory; :meth:`Tracer.totals`
reduces them to per-name duration and self time, where self time is a
span's duration minus the part of it its child spans cover, and
:meth:`Tracer.dump` writes them out when the run ends.

Worker processes of the sharded backend inherit the wrappers through
``fork`` but their spans stay in the worker, so the sharded workload
takes its layer breakdown from an in-process run of its largest shard.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

Span = tuple[str, float, float, int, int]


class Tracer:
    """In-memory span store plus per-name counters."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []

    def span(
        self,
        name: str,
        fn: Callable[..., Any],
        count: Callable[["Tracer", tuple, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped so each call records a span named ``name``."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if count is not None:
                count(self, args, result)
            return result

        return wrapper

    def numbered(self, run: Callable[[], Any]) -> Callable[[], Any]:
        """``run`` with each call's spans tagged by a fresh op id."""

        def op() -> Any:
            self.op += 1
            return run()

        return op

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def dump(self, path: Path) -> None:
        """Write the spans as JSON rows: name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([s for s in self.spans if s is not None]))

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict]:
        """``(duration, self_time, calls)`` per span name, in seconds."""
        dur: dict[str, float] = defaultdict(float)
        covered: dict[int, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span in self.spans:
            if span is None:
                continue
            name, start, end, parent, _ = span
            dur[name] += end - start
            calls[name] += 1
            if parent >= 0:
                covered[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for idx, span in enumerate(self.spans):
            if span is not None:
                own[span[0]] += span[2] - span[1] - covered.get(idx, 0.0)
        return dict(dur), dict(own), dict(calls)


def _add(key: str, value: Callable[[tuple, Any], float]) -> Callable:
    def count(tracer: Tracer, args: tuple, result: Any) -> None:
        tracer.counts[key] += value(args, result)

    return count


def _targets() -> list[tuple[Any, str, str, Callable | None]]:
    """``(owner, attribute, span name, counter)`` for every wrapper."""
    # the packages re-export functions named like these modules, so
    # ``import a.b as c`` would bind the function, not the module
    replay_mod = importlib.import_module("repro.router.replay")
    study_mod = importlib.import_module("repro.study.study")
    from repro.core.batch import BatchState
    from repro.core.protocols.resource_controlled import (
        ResourceControlledProtocol,
    )
    from repro.core.protocols.user_controlled import UserControlledProtocol
    from repro.core.state import SystemState
    from repro.graphs.implicit import TorusNeighbors
    from repro.graphs.random_walk import RandomWalk
    from repro.router.core import Router
    from repro.study.setups import (
        ResourceControlledSetup,
        UserControlledSetup,
    )
    from repro.workloads.dynamics import PoissonDynamics

    batch_counts = _add("batch.live_rows", lambda a, r: a[1].A)
    batch_movers = _add("batch.movers", lambda a, r: int(r.movers.sum()))

    def batch_count(tracer: Tracer, args: tuple, result: Any) -> None:
        batch_counts(tracer, args, result)
        batch_movers(tracer, args, result)

    def fallback(tracer: Tracer, args: tuple, result: Any) -> None:
        tracer.counts["router.decisions"] += len(result)
        if args[0].last_bulk_fallback is not None:
            tracer.counts["router.bulk_fallbacks"] += 1

    dense_movers = _add("dense.movers", lambda a, r: int(r.movers))
    return [
        (study_mod, "run_trials", "study.run_trials", None),
        (UserControlledSetup, "__call__", "setup.state", None),
        (ResourceControlledSetup, "__call__", "setup.state", None),
        (PoissonDynamics, "compile", "setup.schedule", None),
        (Router, "from_setup", "router.from_setup", None),
        (BatchState, "__init__", "batch.stack", None),
        (BatchState, "fresh_loads", "batch.fresh_loads", None),
        (BatchState, "apply_moves", "batch.apply_moves", None),
        (BatchState, "compact", "batch.compact", None),
        (UserControlledProtocol, "step_batch", "batch.step", batch_count),
        (ResourceControlledProtocol, "step_batch", "batch.step", batch_count),
        (TorusNeighbors, "neighbor", "graphs.neighbor", None),
        (RandomWalk, "step", "graphs.walk_step", None),
        (UserControlledProtocol, "step", "dense.step", dense_movers),
        (ResourceControlledProtocol, "step", "dense.step", dense_movers),
        (SystemState, "partition", "dense.partition", None),
        (SystemState, "move_tasks", "dense.move", None),
        (Router, "choose_many", "router.choose_many", fallback),
        (Router, "tick", "router.tick", None),
        (Router, "flush", "router.flush", None),
        (
            Router,
            "depart",
            "router.depart",
            _add("router.depart_ids", lambda a, r: len(a[1])),
        ),
        (
            Router,
            "submit_many",
            "router.submit_many",
            _add("router.submitted", lambda a, r: len(a[1])),
        ),
        (replay_mod, "replay", "replay", None),
    ]


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer boundary for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, count in _targets():
            raw = owner.__dict__[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(
                    tracer.span(name, raw.__func__, count)
                )
            else:
                wrapped = tracer.span(name, raw, count)
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
