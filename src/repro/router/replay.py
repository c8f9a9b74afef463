"""Replay a compiled dynamics schedule through a :class:`Router`.

The router's correctness story: feed the *same* compiled
:class:`~repro.workloads.dynamics.DynamicsSchedule` through the router
that :func:`~repro.core.simulator.simulate` would consume, with the
same protocol RNG stream, and the placements, round count and final
loads come out bit-for-bit identical.  :func:`replay` repeats the
round loop of :func:`~repro.core.simulator.simulate` on a state with a
schedule operation for operation — departures, then arrivals, then an
optional rethreshold, then exactly one protocol round — but every
population mutation goes through the router's ingestion verbs
(:meth:`~repro.router.core.Router.depart`,
:meth:`~repro.router.core.Router.submit`,
:meth:`~repro.router.core.Router.tick`), so the equivalence gate
exercises the same code paths live traffic does.

The protocol RNG is consumed *only* inside
:meth:`~repro.core.protocols.base.Protocol.step`, exactly like the
engine; mixing live :meth:`~repro.router.core.Router.choose_resource`
calls (which draw probe candidates from that stream) into a replay
breaks the bit-equality contract by design.

One-shot states (``dynamics=None``) replay too: the loop degenerates
to the one-shot termination rule with an empty schedule, the same
degeneration the dynamics equivalence suite already gates on the
engine side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from ..core.simulator import RunResult, _TraceBuffer
from ..workloads.dynamics import INFINITE_LIFETIME, DynamicsSchedule
from .core import Router, RouterMetrics

if TYPE_CHECKING:
    from ..core.backends import TrialSetup

__all__ = ["ReplayReport", "replay", "replay_setup"]


@dataclass
class ReplayReport:
    """Outcome of one schedule replay through a router.

    Mirrors :class:`~repro.core.simulator.RunResult` (see
    :meth:`to_run_result`) and adds the router's view: the final
    placement of every live task (``placements``/``seq``/``task_ids``,
    aligned) and a :class:`~repro.router.core.RouterMetrics` snapshot.
    """

    balanced: bool
    rounds: int
    final_loads: np.ndarray
    threshold: float | np.ndarray
    total_migrations: int
    total_migrated_weight: float
    placements: np.ndarray
    seq: np.ndarray
    task_ids: np.ndarray
    live_tasks_trace: np.ndarray
    total_weight_trace: np.ndarray
    makespan_trace: np.ndarray
    violation_trace: np.ndarray
    metrics: RouterMetrics
    protocol_name: str = ""
    speeds: np.ndarray | None = None

    @property
    def final_makespan(self) -> float:
        if self.speeds is None:
            norm = self.final_loads
        else:
            norm = self.final_loads / self.speeds
        return float(norm.max()) if norm.size else 0.0

    def to_run_result(self) -> RunResult:
        """The engine-shaped view, so ``summarize_dynamics`` and the
        analysis helpers consume replays unchanged."""
        return RunResult(
            balanced=self.balanced,
            rounds=self.rounds,
            final_loads=self.final_loads,
            threshold=self.threshold,
            total_migrations=self.total_migrations,
            total_migrated_weight=self.total_migrated_weight,
            protocol_name=self.protocol_name,
            speeds=self.speeds,
            live_tasks_trace=self.live_tasks_trace,
            total_weight_trace=self.total_weight_trace,
            makespan_trace=self.makespan_trace,
            violation_trace=self.violation_trace,
        )


def _empty_schedule(m0: int) -> DynamicsSchedule:
    """The trivial schedule of a one-shot state (no events ever)."""
    empty_i = np.empty(0, dtype=np.int64)
    return DynamicsSchedule(
        horizon=0,
        arrive_round=empty_i,
        arrive_weight=np.empty(0, dtype=np.float64),
        arrive_place=empty_i,
        arrive_depart=empty_i,
        initial_depart=np.full(m0, INFINITE_LIFETIME, dtype=np.int64),
    )


def replay(
    router: Router, max_rounds: int = 100_000, bulk: bool = True
) -> ReplayReport:
    """Drive the router's schedule to completion; return the report.

    The schedule is ``router.state.dynamics`` (or the trivial empty
    schedule when the state is one-shot).  Each round ``t``: retire
    tasks departing at ``t`` through :meth:`Router.depart`, ingest the
    round's arrivals through :meth:`Router.submit_many` (``bulk=True``,
    the default) or a scalar :meth:`Router.submit` loop, rethreshold
    from the live workload when the schedule asks for it, then run one
    :meth:`Router.tick`.  The two ingestion modes are state-identical
    (``submit_many`` is bit-equal to the loop by construction); the
    scalar mode remains as the reference path the equivalence suite
    compares against.  Terminates once the schedule is exhausted and
    the system is balanced, or when ``max_rounds`` is hit (reported as
    censored, like the engine).
    """
    if max_rounds < 0:
        raise ValueError("max_rounds must be non-negative")
    state = router.state
    protocol = router.protocol
    protocol.validate_state(state)
    router.flush()

    sched = state.dynamics
    if sched is None:
        sched = _empty_schedule(state.m)

    live_buf = _TraceBuffer()
    weight_buf = _TraceBuffer()
    span_buf = _TraceBuffer()
    viol_buf = _TraceBuffer()

    arrive_round = sched.arrive_round
    ptr = 0  # arrivals consumed so far
    if bulk:
        # Departure buckets: round -> (ids, weights) of the tasks that
        # leave then.  The engine re-scans an O(m) departure array every
        # round; the router's id-based verbs let replay pre-bucket the
        # schedule instead and retire each round's batch with one dict
        # pop.  Ids are appended in ascending order (initial population
        # first, arrivals as they are ingested), which matches the
        # engine's position-ascending removal order, so the per-round
        # weight sums below are bit-identical to the scan's.  Round
        # ``t``'s bucket is popped before round ``t``'s arrivals are
        # ingested, so a degenerate depart-at-arrival-round task never
        # departs — exactly the scan's behaviour too.
        buckets: dict[int, tuple[list[int], list[float]]] = {}

        def _bucket_departures(
            ids_new: np.ndarray, departs: np.ndarray, weights: np.ndarray
        ) -> None:
            triples = zip(
                ids_new.tolist(), departs.tolist(), weights.tolist()
            )
            for tid, td, tw in triples:
                if td == INFINITE_LIFETIME:
                    continue
                entry = buckets.get(td)
                if entry is None:
                    buckets[td] = ([tid], [tw])
                else:
                    entry[0].append(tid)
                    entry[1].append(tw)

        _bucket_departures(
            router._ids, sched.initial_depart, state.weights
        )
    else:
        # scalar reference path: mirror the engine's departure-round
        # array, aligned with task order
        depart = sched.initial_depart.copy()

    total_weight = float(state.weights.sum())
    rounds = 0
    last_event = sched.last_event_round
    n_arrivals = int(arrive_round.shape[0])
    policy = sched.policy
    router.refresh_capacity()
    balanced = router.is_balanced()
    # violation bound, hoisted like the engine's (re-derived only when
    # the schedule rethresholds); ``_bound`` is exactly cap + atol
    bound = router._bound
    speeds = state.speeds

    while rounds < max_rounds:
        t = rounds + 1
        if balanced and t > last_event:
            break

        changed = False
        if bulk:
            entry = buckets.pop(t, None)
            if entry is not None:
                dep_ids, dep_w = entry
                total_weight -= float(np.asarray(dep_w).sum())
                router.depart(np.asarray(dep_ids, dtype=np.int64))
                changed = True
        else:
            dep = np.flatnonzero(depart == t)
            if dep.size:
                total_weight -= float(state.weights[dep].sum())
                # state is synced here (tick flushed last round), so
                # the router's id array is aligned with the positions
                router.depart(router._ids[dep])
                depart = np.delete(depart, dep)
                changed = True
        if ptr < n_arrivals:
            hi = int(np.searchsorted(arrive_round, t, side="right"))
        else:  # arrival stream exhausted — skip the bisect
            hi = ptr
        if hi > ptr:
            w_new = sched.arrive_weight[ptr:hi]
            total_weight += float(w_new.sum())
            places = sched.arrive_place[ptr:hi]
            if bulk:
                ids_new = router.submit_many(w_new, places)
                _bucket_departures(
                    ids_new, sched.arrive_depart[ptr:hi], w_new
                )
            else:
                # scalar reference path, kept so the equivalence gate
                # can compare bulk ingestion against per-task submits
                for w, r in zip(w_new, places):  # lint: allow-bulk
                    router.submit(float(w), int(r))
                depart = np.concatenate(
                    [depart, sched.arrive_depart[ptr:hi]]
                )
            ptr = hi
            changed = True
        if changed and policy is not None:
            router.flush()
            if state.m:
                state.threshold = policy.compute_for(
                    state.weights, state.n, speeds=speeds
                )
                router.refresh_capacity()
                bound = router._bound

        router.tick()
        rounds += 1

        loads = router._loads
        # one comparison serves both: balanced iff no violations
        viol = int((loads > bound).sum())
        balanced = viol == 0
        live_buf.append(state.m)
        weight_buf.append(total_weight)
        norm = loads if speeds is None else loads / speeds
        span_buf.append(float(norm.max()) if state.n else 0.0)
        viol_buf.append(viol)

    snapshot = router.metrics_snapshot()
    return ReplayReport(
        balanced=balanced,
        rounds=rounds,
        final_loads=router.loads(),
        threshold=state.threshold,
        total_migrations=snapshot.migrations,
        total_migrated_weight=snapshot.migrated_weight,
        placements=state.resource.copy(),
        seq=state.seq.copy(),
        task_ids=router.task_ids(),
        live_tasks_trace=live_buf.array(),
        total_weight_trace=weight_buf.array(),
        makespan_trace=span_buf.array(),
        violation_trace=viol_buf.array(),
        metrics=snapshot,
        protocol_name=protocol.name,
        speeds=state.speeds,
    )


def replay_setup(
    setup: TrialSetup,
    seed: int | np.random.SeedSequence | None = None,
    max_rounds: int = 100_000,
    bulk: bool = True,
    **router_kwargs: Any,
) -> ReplayReport:
    """Build a router from a trial setup and replay its schedule.

    Seed handling matches :func:`~repro.core.backends.run_single_trial`
    (``seed_seq.spawn(2)`` → setup stream, protocol stream), so
    ``replay_setup(setup, seq)`` is directly comparable to the engine's
    trial on the same ``SeedSequence``.
    """
    router = Router.from_setup(setup, seed, **router_kwargs)
    return replay(router, max_rounds=max_rounds, bulk=bulk)
