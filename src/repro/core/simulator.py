"""Round-based simulator for threshold load-balancing protocols.

Drives a :class:`~repro.core.protocols.base.Protocol` against a
:class:`~repro.core.state.SystemState` until the state is balanced (the
paper's *balancing time*) or a round budget is exhausted, recording the
trajectories that the analysis module consumes (potential, overload
count, migration volume, maximum load).

The paper's one-shot model, every task present at round 0, is the
empty-stream case of the online regime, so one loop serves both.  A
state carrying a compiled :class:`~repro.workloads.dynamics.\
DynamicsSchedule` adds an event step to each round: departures, then
arrivals, then (if the schedule carries a policy) a threshold
recomputed from the live workload, before the protocol round.  Such a
run ends once the schedule has no further events and the system is
balanced, and it always records the online time series
(``live_tasks_trace``, ``total_weight_trace``, ``makespan_trace``,
``violation_trace``) — they are the point of the regime.  With an empty
schedule the event step does nothing, so the run matches the one-shot
run exactly (same protocol RNG stream, same round count, same traces),
which is the bit-for-bit equivalence the dynamics property suite gates
on.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .protocols.base import Protocol, StepStats
from .state import SystemState

__all__ = ["RunResult", "simulate"]


@dataclass
class RunResult:
    """Outcome of one simulation run.

    ``rounds`` is the balancing time when ``balanced`` is True; when the
    round budget ran out first, ``rounds`` equals the budget and
    ``balanced`` is False (callers decide how to treat censored runs).

    Trajectories have one entry per executed round and describe the
    state *at the start* of that round; ``potential_trace[0]`` is the
    initial potential.
    """

    balanced: bool
    rounds: int
    final_loads: np.ndarray
    threshold: float | np.ndarray
    total_migrations: int
    total_migrated_weight: float
    potential_trace: np.ndarray | None = None
    overloaded_trace: np.ndarray | None = None
    movers_trace: np.ndarray | None = None
    max_load_trace: np.ndarray | None = None
    protocol_name: str = ""
    #: Per-resource speeds of the simulated state (``None`` when the
    #: system was homogeneous) — carried so downstream metrics can
    #: normalise loads without re-plumbing the setup.
    speeds: np.ndarray | None = None
    #: Online-regime time series (``None`` for one-shot runs); one entry
    #: per executed round, describing the state *after* that round.
    live_tasks_trace: np.ndarray | None = None
    total_weight_trace: np.ndarray | None = None
    makespan_trace: np.ndarray | None = None
    violation_trace: np.ndarray | None = None

    @property
    def balancing_time(self) -> float:
        """Rounds to balance, or ``inf`` for censored runs."""
        return float(self.rounds) if self.balanced else float("inf")

    # ------------------------------------------------------------------
    # Online-regime metrics (dynamic runs only)
    # ------------------------------------------------------------------
    @property
    def dynamic(self) -> bool:
        """Whether this run executed the online (arrival/departure)
        regime."""
        return self.violation_trace is not None

    @property
    def load_over_time(self) -> np.ndarray | None:
        """Total live weight after each round (the ``W(t)`` series)."""
        return self.total_weight_trace

    @property
    def time_in_violation(self) -> float:
        """Fraction of executed rounds that ended with at least one
        resource above its capacity — how often the system was *not* in
        a balanced configuration while absorbing the stream."""
        if self.violation_trace is None or self.violation_trace.size == 0:
            return 0.0
        return float((self.violation_trace > 0).mean())

    @property
    def rebalance_churn(self) -> float:
        """Mean migrations per executed round — the rebalancing work
        the stream forced."""
        if self.rounds == 0:
            return 0.0
        return self.total_migrations / self.rounds

    def steady_state_makespan(self, tail_frac: float = 0.25) -> float:
        """Mean makespan over the trailing ``tail_frac`` of the run.

        Averages the post-round maximum normalised load over the last
        rounds, once the stream has (presumably) reached steady state.
        Falls back to the final makespan for one-shot runs.
        """
        if not 0.0 < tail_frac <= 1.0:
            raise ValueError("tail_frac must be in (0, 1]")
        if self.makespan_trace is None or self.makespan_trace.size == 0:
            return self.final_makespan
        tail = max(1, int(np.ceil(tail_frac * self.makespan_trace.size)))
        return float(self.makespan_trace[-tail:].mean())

    @property
    def final_max_load(self) -> float:
        return float(self.final_loads.max())

    @property
    def final_normalized_loads(self) -> np.ndarray:
        """``x_r / s_r`` at the end of the run (= raw loads when
        homogeneous)."""
        if self.speeds is None:
            return self.final_loads
        return self.final_loads / self.speeds

    @property
    def final_makespan(self) -> float:
        """Maximum normalised load — the heterogeneous makespan."""
        return float(self.final_normalized_loads.max())

    def summary(self) -> dict[str, float | int | bool | str]:
        """Flat dict for tables / CSV export."""
        return {
            "protocol": self.protocol_name,
            "balanced": self.balanced,
            "rounds": self.rounds,
            "final_max_load": self.final_max_load,
            "total_migrations": self.total_migrations,
            "total_migrated_weight": self.total_migrated_weight,
        }


@dataclass
class _TraceBuffer:
    """Append-only float buffer that grows geometrically."""

    data: np.ndarray = field(default_factory=lambda: np.empty(64))
    size: int = 0

    def append(self, value: float) -> None:
        if self.size == self.data.shape[0]:
            self.data = np.resize(self.data, self.data.shape[0] * 2)
        self.data[self.size] = value
        self.size += 1

    def array(self) -> np.ndarray:
        return self.data[: self.size].copy()


#: :class:`RunResult` fields of the protocol-round trajectories and of
#: the online time series, in the order the engines buffer them.
_TRACE_FIELDS = (
    "potential_trace",
    "overloaded_trace",
    "movers_trace",
    "max_load_trace",
)
_SERIES_FIELDS = (
    "live_tasks_trace",
    "total_weight_trace",
    "makespan_trace",
    "violation_trace",
)


def _buffer_fields(
    names: tuple[str, ...], buffers: list[_TraceBuffer] | None
) -> dict[str, Any]:
    """:class:`RunResult` keyword arguments from a run's buffers (none
    when the run did not record them)."""
    if buffers is None:
        return {}
    return {name: buf.array() for name, buf in zip(names, buffers)}


def simulate(
    protocol: Protocol,
    state: SystemState,
    rng: np.random.Generator,
    max_rounds: int = 100_000,
    record_traces: bool = False,
    check_invariants: bool = False,
    on_round: Callable[[int, SystemState, StepStats], object] | None = None,
) -> RunResult:
    """Run ``protocol`` on ``state`` (mutated in place) until balanced.

    Parameters
    ----------
    max_rounds:
        Safety budget; runs that exhaust it are returned with
        ``balanced=False`` rather than raising, so experiment sweeps can
        report censored points honestly.  A dynamic run cut off before
        its schedule ends reports whether its last loads were in bound.
    record_traces:
        Record per-round potential / overload / migration / max-load
        trajectories (costs one stack partition per round — the
        protocols already compute it, so the overhead is small).
    check_invariants:
        Re-verify state bookkeeping after every round (tests only).
    on_round:
        Optional callback ``on_round(round_index, state, stats)``
        invoked after every executed round — custom instrumentation
        (e.g. snapshotting load histograms) without forking the loop.
        Returning ``False`` stops the loop after the current round; a
        run stopped while still unbalanced is reported as censored.
    """
    if max_rounds < 0:
        raise ValueError("max_rounds must be non-negative")
    protocol.validate_state(state)

    traces = [_TraceBuffer() for _ in range(4)] if record_traces else None
    events = _EventStep(state) if state.dynamics is not None else None
    last_event = events.last_event if events is not None else 0

    total_migrations = 0
    total_weight_moved = 0.0
    rounds = 0
    # The protocols carry post-round load vectors in StepStats, so the
    # balance test only recomputes loads from scratch before round one
    # and for protocols that do not provide the aggregate.  The bound is
    # the effective capacity s_r * T_r (= the threshold when uniform).
    bound = state.capacity_vector() + state.atol
    loads = state.loads()
    balanced = bool(np.all(loads <= bound))

    while rounds < max_rounds and not (balanced and rounds >= last_event):
        if events is not None and events.apply(state, rounds + 1):
            bound = state.capacity_vector() + state.atol
        stats = protocol.step(state, rng)
        rounds += 1
        total_migrations += stats.movers
        total_weight_moved += stats.moved_weight
        if traces is not None:
            traces[0].append(stats.potential_before)
            traces[1].append(stats.overloaded_before)
            traces[2].append(stats.movers)
            traces[3].append(stats.max_load_before)
        if check_invariants:
            state.check_invariants()
        loads = (
            stats.loads_after
            if stats.loads_after is not None
            else state.loads()
        )
        balanced = bool(np.all(loads <= bound))
        if events is not None:
            events.record(state, loads, bound)
        if on_round is not None and on_round(rounds, state, stats) is False:
            break

    return RunResult(
        balanced=balanced,
        rounds=rounds,
        final_loads=loads,
        threshold=state.threshold,
        total_migrations=total_migrations,
        total_migrated_weight=total_weight_moved,
        protocol_name=protocol.name,
        speeds=state.speeds,
        **_buffer_fields(_TRACE_FIELDS, traces),
        **_buffer_fields(_SERIES_FIELDS, events.series if events else None),
    )


class _EventStep:
    """The event step of a dense run on a state with a schedule.

    Round ``t`` (1-based) removes the tasks departing at ``t``, inserts
    the schedule's round-``t`` arrivals and, if the population changed
    and the schedule carries a policy, recomputes the threshold from the
    live workload.  :meth:`record` then appends the round's online time
    series entries, which describe the state *after* the protocol round.
    """

    def __init__(self, state: SystemState) -> None:
        sched = state.dynamics
        assert sched is not None
        self.sched = sched
        self.last_event = sched.last_event_round
        # departure rounds of the *live* population, aligned with task order
        self.depart = sched.initial_depart.copy()
        self.ptr = 0  # arrivals consumed so far
        self.total_weight = float(state.weights.sum())
        self.series = [_TraceBuffer() for _ in range(4)]

    def apply(self, state: SystemState, t: int) -> bool:
        """Apply round ``t``'s events; True if the threshold changed."""
        sched = self.sched
        changed = False
        dep = np.flatnonzero(self.depart == t)
        if dep.size:
            self.total_weight -= float(state.weights[dep].sum())
            state.remove_tasks(dep)
            self.depart = np.delete(self.depart, dep)
            changed = True
        lo = self.ptr
        hi = int(np.searchsorted(sched.arrive_round, t, side="right"))
        if hi > lo:
            w_new = sched.arrive_weight[lo:hi]
            self.total_weight += float(w_new.sum())
            state.add_tasks(w_new, sched.arrive_place[lo:hi])
            self.depart = np.concatenate(
                [self.depart, sched.arrive_depart[lo:hi]]
            )
            self.ptr = hi
            changed = True
        if not (changed and sched.policy is not None and state.m):
            return False
        state.threshold = sched.policy.compute_for(
            state.weights, state.n, speeds=state.speeds
        )
        return True

    def record(
        self, state: SystemState, loads: np.ndarray, bound: np.ndarray
    ) -> None:
        """Append the post-round online series entries."""
        live, weight, span, viol = self.series
        live.append(state.m)
        weight.append(self.total_weight)
        norm = loads if state.speeds is None else loads / state.speeds
        span.append(float(norm.max()) if state.n else 0.0)
        viol.append(int((loads > bound).sum()))
