"""The four benchmark workloads.

Every workload builds its inputs from the seed alone, and every op of a
run repeats exactly the same work on exactly the same inputs, so the
work counts of an op (rounds, migrations, decisions, ticks, overflows)
must repeat exactly: from op to op, and from run to run on one seed.

Each workload provides:

``build()``
    Build one op's inputs through the program's public constructors;
    timed (in blocks of ``setup_block``) for ``setup_s``.
``op(check=False)``
    One op of fixed work, returned as an :class:`Op`.  With ``check``
    it also keeps what the correctness check compares.
``check()``
    Untimed comparisons against the repository's reference paths, as
    ``(label, ok)`` pairs.
``traced(tracer, seconds)``
    The traced part of a ``--trace 1`` run: the traced work's round
    count plus the per-layer values that come from the benchmark side.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np
from repro import (
    BatchedBackend,
    DenseBackend,
    Router,
    ShardedBackend,
    SimulationBackend,
    run_study,
    theorem3_rounds,
)
from repro.core.backends import run_single_trial
from repro.experiments.figure1 import Figure1Config, build_study
from repro.graphs.builders import torus_graph
from repro.graphs.implicit import TorusNeighbors
from repro.router.replay import replay_setup
from repro.study.setups import ResourceControlledSetup, UserControlledSetup
from repro.workloads.dynamics import ExponentialLifetimes, PoissonDynamics
from repro.workloads.weights import UniformRangeWeights

from spans import Tracer, installed

DEFAULT_SEED = 2015


@dataclass
class Op:
    """One op's wall time, exact work counts and latency samples."""

    wall: float
    rounds: int
    decisions: int
    latencies_us: np.ndarray
    counts: dict
    #: Per-layer values measured on the benchmark side.
    extra: dict = field(default_factory=dict)
    #: ``getrusage`` deltas around the op, self plus children.
    os: dict = field(default_factory=dict)


def fresh(seq: np.random.SeedSequence) -> np.random.SeedSequence:
    """An unspawned copy: ``spawn`` mutates, so reuse needs copies."""
    return np.random.SeedSequence(
        entropy=seq.entropy, spawn_key=seq.spawn_key, pool_size=seq.pool_size
    )


def same_run(a, b) -> bool:
    """Bit-for-bit equality of two engine-shaped results."""
    for name in (
        "balanced",
        "rounds",
        "final_loads",
        "threshold",
        "total_migrations",
        "total_migrated_weight",
        "live_tasks_trace",
        "total_weight_trace",
        "makespan_trace",
        "violation_trace",
    ):
        x, y = getattr(a, name), getattr(b, name)
        if (x is None) != (y is None):
            return False
        if x is not None and not np.array_equal(x, y):
            return False
    return True


def _rusage() -> tuple[float, float, float]:
    """Minor faults, user and system seconds of self plus children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        own.ru_minflt + kids.ru_minflt,
        own.ru_utime + kids.ru_utime,
        own.ru_stime + kids.ru_stime,
    )


def measured(run: Callable[[], Op | None]) -> Op | None:
    """``run()`` after a collection, with its OS counters attached."""
    gc.collect()
    before = _rusage()
    op = run()
    after = _rusage()
    if op is None:  # the op raised; the caller counted the failure
        return op
    op.os = {
        key: b - a
        for key, a, b in zip(("minflt", "user_s", "sys_s"), before, after)
    }
    return op


def timed_loop(
    seconds: float,
    run: Callable[[], Op],
    min_ops: int,
    between: Callable[[Op], None] | None = None,
) -> list[Op]:
    """Repeat ``run`` for ``seconds`` (at least ``min_ops`` times),
    calling ``between`` with each op outside its measurement."""
    ops: list[Op] = []
    start = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - start < seconds:
        ops.append(measured(run))
        if between is not None:
            between(ops[-1])
    return ops


def median_wall(ops: list[Op]) -> float:
    return statistics.median(op.wall for op in ops)


class Workload:
    name = ""
    #: ``build()`` calls per ``setup_s`` sample (for sub-ms set-ups).
    setup_block = 1
    #: Trials per op.
    trials = 1
    #: Take latency percentiles over the units of all ops together
    #: instead of per op (then the median over ops).
    pooled_latency = False

    def build(self) -> None:
        raise NotImplementedError

    def op(self, check: bool = False) -> Op:
        raise NotImplementedError

    def check(self) -> list[tuple[str, bool]]:
        raise NotImplementedError

    def traced(self, tracer: Tracer, seconds: float) -> tuple[list, int, dict]:
        """Untraced ops, then traced ops, each for half of ``seconds``.

        Returns ``(untraced ops, traced rounds, per-layer extras)``;
        the extras include ``trace.overhead_frac``.
        """
        plain = timed_loop(seconds / 2, self.op, 3)
        with installed(tracer):
            traced = timed_loop(seconds / 2, tracer.numbered(self.op), 1)
        extra = self.layer_extras(plain)
        extra["trace.overhead_frac"] = (
            median_wall(traced) / median_wall(plain) - 1.0
        )
        return plain, sum(self.rounds_done(op) for op in traced), extra

    def rounds_done(self, op: Op) -> int:
        """Every protocol round the op ran (the per-round denominator)."""
        return op.rounds

    def layer_extras(self, ops: list[Op]) -> dict:
        """Per-layer values of the untraced ops (medians over ops)."""
        extra = {"algo.rounds_per_trial": ops[0].rounds / self.trials}
        for key in ops[0].extra:
            extra[key] = statistics.median(op.extra[key] for op in ops)
        return extra


# ----------------------------------------------------------------------
# e1-batched: the paper's Figure 1 quick grid through the Study API
# ----------------------------------------------------------------------
class _FirstTrials(SimulationBackend):
    """The batched engine, keeping each call's first trials for the
    serial comparison (unspawned seed copies, inputs and results)."""

    name = "batched"

    def __init__(self, keep: int) -> None:
        self.keep = keep
        self.kept: list = []

    def run_trials(self, setup, seed_seqs, max_rounds=100_000, **kw):
        seeds = [fresh(s) for s in seed_seqs[: self.keep]]
        results = BatchedBackend().run_trials(
            setup, seed_seqs, max_rounds=max_rounds, **kw
        )
        self.kept.append((setup, seeds, results[: self.keep], max_rounds))
        return results


class E1Batched(Workload):
    name = "e1-batched"
    #: Trials per grid point: four keeps one sweep near 1.7 s on a
    #: 2-CPU x86 box, so a 10 s window holds five or six sweeps.
    per_point = 4

    def __init__(self, seed: int) -> None:
        self.config = replace(
            Figure1Config(backend="batched", seed=seed).quick(),
            trials=self.per_point,
        )
        self.study = build_study(self.config)
        points = list(self.study.sweep.points())
        self.scenarios = [
            self.study.bind(self.study.scenario, p) for p in points
        ]
        executed = sum(s is not None for s in self.scenarios)
        self.trials = executed * self.per_point
        self.recorder: _FirstTrials | None = None

    def build(self) -> None:
        children = np.random.SeedSequence(self.config.seed).spawn(
            self.study.sweep.n_seeds
        )
        for point, scenario in zip(self.study.sweep.points(), self.scenarios):
            trial_seeds = children[point.seed_index].spawn(self.per_point)
            if scenario is None:
                continue
            setup = scenario.compile()
            for child in trial_seeds:
                setup(np.random.default_rng(child.spawn(2)[0]))

    def op(self, check: bool = False) -> Op:
        study = self.study
        if check:
            self.recorder = _FirstTrials(keep=1)
            study = replace(study, backend=self.recorder)
        latencies: list[float] = []

        def progress(p) -> None:
            if p.executed:
                trial_rounds = p.row["mean_rounds"] * p.row["trials"]
                latencies.append(p.seconds * 1e6 / trial_rounds)

        start = time.perf_counter()
        result = run_study(study, progress=progress)
        wall = time.perf_counter() - start
        rounds = [
            round(o.summary.mean_rounds * o.summary.trials)
            for o in result.outcomes
            if o.summary is not None
        ]
        migrations = sum(
            round(o.summary.mean_migrations * o.summary.trials)
            for o in result.outcomes
            if o.summary is not None
        )
        balanced = sum(
            o.summary.balanced_trials
            for o in result.outcomes
            if o.summary is not None
        )
        # the complete graph's uniform walk mixes in one step (tau = 1)
        over_bound = statistics.fmean(
            o.summary.mean_rounds
            / theorem3_rounds(1.0, o.scenario.m, self.config.eps)
            for o in result.outcomes
            if o.summary is not None
        )
        return Op(
            wall=wall,
            rounds=sum(rounds),
            decisions=migrations,
            latencies_us=np.asarray(latencies),
            counts={
                "rounds_per_point": rounds,
                "migrations": migrations,
                "balanced_trials": balanced,
            },
            extra={"algo.rounds_over_theorem3": over_bound},
        )

    def check(self) -> list[tuple[str, bool]]:
        out = []
        serial = DenseBackend()
        for i, (setup, seeds, batched, max_rounds) in enumerate(
            self.recorder.kept
        ):
            ref = serial.run_trials(setup, seeds, max_rounds=max_rounds)
            for t, (a, b) in enumerate(zip(batched, ref)):
                label = f"point {i} trial {t} batched==serial"
                out.append((label, same_run(a, b)))
        return out

    def traced(self, tracer: Tracer, seconds: float) -> tuple[list, int, dict]:
        study = self.study
        timed_study = tracer.span("study", run_study)

        def traced_op() -> Op:
            start = time.perf_counter()
            timed_study(study)
            wall = time.perf_counter() - start
            return Op(wall, 0, 0, np.empty(0), {})

        plain = timed_loop(seconds / 2, self.op, 3)
        with installed(tracer):
            traced = timed_loop(seconds / 2, tracer.numbered(traced_op), 1)
        extra = self.layer_extras(plain)
        extra["trace.overhead_frac"] = (
            median_wall(traced) / median_wall(plain) - 1.0
        )
        return plain, plain[0].rounds * len(traced), extra


# ----------------------------------------------------------------------
# torus-sharded: resource-controlled on an implicit 100x100 torus
# ----------------------------------------------------------------------
class TorusSharded(Workload):
    name = "torus-sharded"
    trials = 8
    max_rounds = 25

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.setup = ResourceControlledSetup(
            graph=TorusNeighbors(100, 100),
            m=100_000,
            distribution=UniformRangeWeights(1.0, 10.0),
        )
        self.workers = min(2, os.cpu_count() or 1)
        self.backend = ShardedBackend(workers=self.workers)
        self.kept: list = []

    def children(self) -> list[np.random.SeedSequence]:
        return np.random.SeedSequence(self.seed).spawn(self.trials)

    def build(self) -> None:
        for child in self.children():
            self.setup(np.random.default_rng(child.spawn(2)[0]))

    def _run(self, backend: SimulationBackend, seeds: list) -> Op:
        start = time.perf_counter()
        results = backend.run_trials(
            self.setup, seeds, max_rounds=self.max_rounds
        )
        wall = time.perf_counter() - start
        rounds = sum(r.rounds for r in results)
        self.kept = results[:1]
        return Op(
            wall=wall,
            rounds=rounds,
            decisions=sum(r.total_migrations for r in results),
            latencies_us=np.asarray([wall * 1e6 / rounds]),
            counts={
                "rounds": rounds,
                "migrations": [r.total_migrations for r in results],
                "balanced_trials": sum(r.balanced for r in results),
            },
        )

    def op(self, check: bool = False) -> Op:
        return self._run(self.backend, self.children())

    def shard_op(self) -> Op:
        """The largest shard of :meth:`op`, in-process and batched."""
        largest = -(-self.trials // self.workers)
        return self._run(BatchedBackend(), self.children()[:largest])

    def check(self) -> list[tuple[str, bool]]:
        ref = run_single_trial(
            self.setup, self.children()[0], max_rounds=self.max_rounds
        )
        return [("trial 0 sharded==serial", same_run(self.kept[0], ref))]

    def traced(self, tracer: Tracer, seconds: float) -> tuple[list, int, dict]:
        quarter = seconds / 4
        plain = timed_loop(quarter, self.op, 3)
        shard = timed_loop(quarter, self.shard_op, 3)
        with installed(tracer):
            traced = timed_loop(quarter, tracer.numbered(self.op), 1)
            # worker spans stay in the workers: take the breakdown from
            # the in-process shard run instead
            tracer.reset()
            shard_traced = timed_loop(
                quarter, tracer.numbered(self.shard_op), 1
            )
        extra = self.layer_extras(plain)
        extra.update(
            {
                "trace.overhead_frac": median_wall(traced)
                / median_wall(plain)
                - 1.0,
                "sharded.pool_overhead_s": median_wall(plain)
                - median_wall(shard),
                "sharded.result_bytes": self.trials
                * self.setup.graph.n
                * 8,
                "sharded.children_peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_CHILDREN
                ).ru_maxrss
                / 1024,
            }
        )
        return plain, sum(op.rounds for op in shard_traced), extra


# ----------------------------------------------------------------------
# router-replay: a Poisson stream replayed through the router's verbs
# ----------------------------------------------------------------------
class RouterReplay(Workload):
    name = "router-replay"
    #: Forty trials average out how much of each trial is its cheap
    #: drain phase, which otherwise moves the rates from seed to seed.
    trials = 40
    #: Trials the serial reference replays for the check.
    checked = 10

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.setup = ResourceControlledSetup(
            graph=torus_graph(16, 16),
            m=512,
            distribution=UniformRangeWeights(1.0, 10.0),
            dynamics=PoissonDynamics(
                rate=4.0, horizon=150, lifetimes=ExponentialLifetimes(80.0)
            ),
        )
        self.kept: list = []

    def children(self) -> list[np.random.SeedSequence]:
        return np.random.SeedSequence(self.seed).spawn(self.trials)

    def build(self) -> None:
        for child in self.children():
            self.setup(np.random.default_rng(child.spawn(2)[0]))

    def op(self, check: bool = False) -> Op:
        latencies = []
        reports = []
        start = time.perf_counter()
        for child in self.children():
            t0 = time.perf_counter()
            report = replay_setup(self.setup, child)
            latencies.append((time.perf_counter() - t0) * 1e6 / report.rounds)
            reports.append(report)
        wall = time.perf_counter() - start
        if check:
            self.kept = reports
        rounds = [r.rounds for r in reports]
        arrivals = sum(r.metrics.ingested for r in reports)
        migrations = sum(r.total_migrations for r in reports)
        return Op(
            wall=wall,
            rounds=sum(rounds),
            decisions=arrivals + migrations,
            latencies_us=np.asarray(latencies),
            counts={
                "rounds": rounds,
                "arrivals": arrivals,
                "migrations": migrations,
                "departed": sum(r.metrics.departed for r in reports),
            },
        )

    def check(self) -> list[tuple[str, bool]]:
        ref = DenseBackend().run_trials(
            self.setup, self.children()[: self.checked]
        )
        return [
            (f"trial {t} replay==serial", same_run(a.to_run_result(), b))
            for t, (a, b) in enumerate(zip(self.kept, ref))
        ]


# ----------------------------------------------------------------------
# router-serve: admission decisions, open and closed loop
# ----------------------------------------------------------------------
class RouterServe(Workload):
    name = "router-serve"
    #: Offered rate of the open loop, arrivals per second: a quarter of
    #: the small-batch capacity on a 2-CPU x86 box when it runs slow,
    #: so the open-loop queue stays short.
    rate = 50_000.0
    #: Decisions per segment (each segment on a fresh router).
    decisions = 100 * 512
    #: Decisions between FIFO departs and ticks; closed-loop batch size.
    cadence = 512
    #: Live tasks the FIFO departs trim to at each tick.
    live = 600
    #: Decisions the scalar reference loop replays.
    prefix = 16 * 512
    setup_block = 64
    #: A host stall of a few ms delays a few hundred arrivals at once;
    #: pooling the run's arrivals keeps one stalled op from setting
    #: the run's percentiles.
    pooled_latency = True

    def __init__(self, seed: int) -> None:
        router_seed, stream_seed = np.random.SeedSequence(seed).spawn(2)
        self.router_seed = router_seed
        self.setup = UserControlledSetup(
            n=500,
            m=1000,
            distribution=UniformRangeWeights(1.0, 10.0),
            eps=4.0,
        )
        rng = np.random.default_rng(stream_seed)
        self.weights = rng.uniform(1.0, 10.0, self.decisions)
        self.offsets = np.cumsum(
            rng.exponential(1.0 / self.rate, self.decisions)
        )
        self.placements: list[np.ndarray] = []

    def build(self) -> Router:
        return Router.from_setup(self.setup, fresh(self.router_seed))

    def _boundary(self, router: Router, fifo: list) -> None:
        excess = len(fifo) - self.live
        if excess > 0:
            router.depart(fifo[:excess])
            del fifo[:excess]
        router.tick()

    def closed(self) -> tuple[float, Router, np.ndarray]:
        router = self.build()
        fifo: list[int] = []
        placed = np.empty(self.decisions, dtype=np.int64)
        w, step = self.weights, self.cadence
        start = time.perf_counter()
        for lo in range(0, self.decisions, step):
            served = router.choose_many(w[lo : lo + step])
            placed[lo : lo + step] = [d.resource for d in served]
            fifo.extend([d.task_id for d in served])
            self._boundary(router, fifo)
        return time.perf_counter() - start, router, placed

    def open(self) -> tuple[Router, np.ndarray, np.ndarray, np.ndarray, list]:
        """Serve every due arrival in one batch, split at the cadence."""
        router = self.build()
        fifo: list[int] = []
        total, step, w = self.decisions, self.cadence, self.weights
        placed = np.empty(total, dtype=np.int64)
        latency = np.empty(total)
        lag = np.empty(total)
        sizes = []
        clock = time.perf_counter
        due = self.offsets + clock()
        ptr = 0
        while ptr < total:
            now = clock()
            hi = int(np.searchsorted(due, now, side="right"))
            if hi <= ptr:
                continue
            hi = min(hi, (ptr // step + 1) * step)
            served = router.choose_many(w[ptr:hi])
            done = clock()
            latency[ptr:hi] = done - due[ptr:hi]
            lag[ptr:hi] = now - due[ptr:hi]
            placed[ptr:hi] = [d.resource for d in served]
            fifo.extend([d.task_id for d in served])
            sizes.append(hi - ptr)
            ptr = hi
            if ptr % step == 0:
                self._boundary(router, fifo)
        return router, placed, latency * 1e6, lag * 1e6, sizes

    def op(self, check: bool = False) -> Op:
        wall, closed_router, closed_placed = self.closed()
        gc.collect()
        router, placed, latency, lag, sizes = self.open()
        snap = router.metrics_snapshot()
        self.placements = [closed_placed, placed]
        closed_snap = closed_router.metrics_snapshot()
        counts = {
            key: [getattr(s, key) for s in (closed_snap, snap)]
            for key in (
                "decisions",
                "accepted",
                "overflowed",
                "probes",
                "ticks",
                "departed",
                "migrations",
            )
        }
        return Op(
            wall=wall,
            rounds=closed_snap.ticks,
            decisions=closed_snap.decisions,
            latencies_us=latency,
            counts=counts,
            extra={
                "router.mean_probes": snap.probes / snap.decisions,
                "router.overflow_frac": snap.overflowed / snap.decisions,
                "serve.pickup_lag_p99_us": float(np.percentile(lag, 99)),
                "serve.batch_size_p50": float(np.median(sizes)),
            },
        )

    def check(self) -> list[tuple[str, bool]]:
        router = self.build()
        fifo: list[int] = []
        placed = []
        for k in range(self.prefix):
            decision = router.choose_resource(float(self.weights[k]))
            placed.append(decision.resource)
            fifo.append(decision.task_id)
            if (k + 1) % self.cadence == 0:
                self._boundary(router, fifo)
        closed, opened = self.placements
        return [
            (
                "open-loop prefix == scalar choose_resource loop",
                np.array_equal(opened[: self.prefix], placed),
            ),
            ("open loop == closed loop", np.array_equal(opened, closed)),
        ]

    def rounds_done(self, op: Op) -> int:
        # an op's rates come from its closed-loop segment; its open-loop
        # segment ticks as often
        return sum(op.counts["ticks"])


WORKLOADS = {
    w.name: w for w in (E1Batched, TorusSharded, RouterReplay, RouterServe)
}
