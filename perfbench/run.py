"""The repository's benchmark: four workloads, end to end or traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload e1-batched --seed 2015 \\
        --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``e1-batched``
    The paper's Figure 1 (E1) quick grid through
    ``run_study(build_study(Figure1Config(backend="batched").quick()))``
    at four trials per grid point.
``torus-sharded``
    Resource-controlled on an implicit 100x100 torus, m = 10^5, eight
    trials of exactly 25 rounds through ``ShardedBackend`` (two workers
    where the machine has two cores).
``router-replay``
    A Poisson arrival stream with exponential lifetimes on an explicit
    16x16 torus, forty trials through ``replay_setup``.
``router-serve``
    Admission decisions through ``Router.choose_many``: a closed loop
    of back-to-back batches of 512, then an open loop at 50k arrivals/s
    on a seeded Poisson schedule, FIFO departs to 600 live tasks and one
    tick at every 512th decision.

A run builds the inputs from ``--seed``, runs one warm-up op (which also
keeps what the correctness check compares), then repeats the workload's
fixed op for ``--seconds`` seconds, timing ``setup_s`` for a tenth of
each op's wall time after it.  The correctness checks run after the
timed window.  Every op must repeat the work counts of the warm-up op
exactly; on the default seed they must also equal
``expected_counts.json``.

With ``--trace 0`` the metrics are the end-to-end ones:

``rounds_per_s``
    Protocol rounds per wall second, median over ops: trial-rounds for
    the engines and replay, ticks of the closed loop for serve.
``decisions_per_s``
    Placement decisions per wall second, median over ops: admissions
    of the closed loop for serve; arrivals placed plus migrations for
    replay; migrations (the engines' placement decisions) otherwise.
``decision_p50_us`` / ``decision_p75_us``
    The 50th/75th percentile of the latency of the units of response.
    The 75th is the highest percentile of serve's open loop that
    repeated within about a tenth from run to run on a shared 2-CPU
    host whose vCPUs stall for milliseconds at a time; its p90 to p99
    moved by 27% to 105% there, as they measure those stalls.
    For serve a unit is an arrival, timed from its due time to the
    return of its ``choose_many``, and the percentiles are over all
    the run's arrivals (51200 per op).  For the others a unit is a
    grid point (e1, 14 per op), a sweep (torus, 1 per op) or a trial
    (replay, 40 per op), its latency is its wall time per trial-round
    it ran, and the median over ops of each op's percentile is
    reported.
``setup_s``
    Median over samples of the time to build one op's inputs through
    the public constructors (``setup(child)`` per trial; for serve one
    ``Router.from_setup``, timed in blocks of 64).
``peak_rss_mb``
    ``ru_maxrss`` of the run, the larger of self and children.

With ``--trace 1`` the run wraps each layer's public functions
(``spans.py``), times a few untraced ops and then traced ones, and
reports the per-layer metrics of ``layers.json``, which also names the
end-to-end metric and workload each should move.  Layers a workload
bypasses read 0.  The spans are written to
``.perfbench/<workload>-seed<seed>.json`` when the run ends.

The last line of standard output is the JSON result; the line before
it holds the run's details (op walls, OS counters per op, work counts,
sample counts, check labels).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
#: Where a traced run writes its spans (ignored by git).
SPANS = ROOT / ".perfbench"


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


class Ledger:
    """Attempted and failed operations of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def run(self, label: str, fn, *args):
        """Call ``fn``; an exception counts as one failed operation."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            self.notes.append(f"{label}: exception")
            traceback.print_exc()
            return None

    def expect(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"{label}: mismatch")
            print(f"FAILED: {label}", file=sys.stderr)


def _setup_seconds(workload, seconds: float) -> list[float]:
    """Per-build set-up times for about ``seconds`` (at least one),
    each sample a block of ``setup_block`` builds."""
    samples: list[float] = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        for _ in range(workload.setup_block):
            workload.build()
        samples.append((time.perf_counter() - t0) / workload.setup_block)
    return samples


def end_to_end(ops, setup_samples, pooled: bool) -> dict:
    med = statistics.median

    def latency(q: float) -> float:
        if pooled:
            units = np.concatenate([op.latencies_us for op in ops])
            return float(np.percentile(units, q))
        return med(float(np.percentile(op.latencies_us, q)) for op in ops)

    return {
        "rounds_per_s": med(op.rounds / op.wall for op in ops),
        "decisions_per_s": med(op.decisions / op.wall for op in ops),
        "decision_p50_us": latency(50),
        "decision_p75_us": latency(75),
        "setup_s": med(setup_samples),
        "peak_rss_mb": _peak_rss_mb(),
    }


def per_layer(tracer, rounds: int, plain, extra: dict) -> dict:
    """Per-layer metrics from the traced spans and the untraced ops."""
    dur, own, calls = tracer.totals()
    counts = tracer.counts

    def per(x: float, d: float) -> float:
        return x / d if d else 0.0

    def mean_ms(name: str) -> float:
        return per(dur.get(name, 0.0), calls.get(name, 0)) * 1e3

    def us_per_round(seconds: float) -> float:
        return per(seconds, rounds) * 1e6

    study = dur.get("study", 0.0)
    minflt = sum(op.os["minflt"] for op in plain)
    cpu = sum(op.os["user_s"] + op.os["sys_s"] for op in plain)
    metrics = {
        "study.overhead_frac": per(
            study - dur.get("study.run_trials", 0.0), study
        ),
        "setup.state_ms_per_trial": mean_ms("setup.state"),
        "setup.schedule_ms_per_trial": mean_ms("setup.schedule"),
        "router.from_setup_ms": mean_ms("router.from_setup"),
        "batch.stack_ms": mean_ms("batch.stack"),
        "batch.step_us_per_round": us_per_round(own.get("batch.step", 0.0)),
        "batch.apply_moves_us_per_round": us_per_round(
            dur.get("batch.apply_moves", 0.0)
        ),
        "batch.fresh_loads_us_per_round": us_per_round(
            dur.get("batch.fresh_loads", 0.0)
        ),
        "batch.compact_us_per_round": us_per_round(
            dur.get("batch.compact", 0.0)
        ),
        "batch.live_rows_per_round": per(
            counts["batch.live_rows"], calls.get("batch.step", 0)
        ),
        "batch.movers_per_round": per(counts["batch.movers"], rounds),
        "graphs.neighbor_us_per_round": us_per_round(
            dur.get("graphs.neighbor", 0.0)
        ),
        "graphs.walk_step_us_per_round": us_per_round(
            dur.get("graphs.walk_step", 0.0)
        ),
        "sharded.pool_overhead_s": 0.0,
        "sharded.result_bytes": 0.0,
        "sharded.children_peak_rss_mb": 0.0,
        "dense.step_us_per_round": us_per_round(own.get("dense.step", 0.0)),
        "dense.partition_us_per_round": us_per_round(
            dur.get("dense.partition", 0.0)
        ),
        "dense.move_us_per_round": us_per_round(dur.get("dense.move", 0.0)),
        "dense.movers_per_round": per(counts["dense.movers"], rounds),
        "router.choose_many_us_per_decision": per(
            dur.get("router.choose_many", 0.0), counts["router.decisions"]
        )
        * 1e6,
        "router.mean_probes": 0.0,
        "router.overflow_frac": 0.0,
        "router.bulk_fallbacks": counts["router.bulk_fallbacks"],
        "serve.pickup_lag_p99_us": 0.0,
        "serve.batch_size_p50": 0.0,
        "router.tick_us": mean_ms("router.tick") * 1e3,
        "router.flush_us": mean_ms("router.flush") * 1e3,
        "router.depart_us_per_id": per(
            dur.get("router.depart", 0.0), counts["router.depart_ids"]
        )
        * 1e6,
        "router.submit_many_us_per_task": per(
            dur.get("router.submit_many", 0.0), counts["router.submitted"]
        )
        * 1e6,
        "replay.self_us_per_round": us_per_round(own.get("replay", 0.0)),
        "os.minor_faults_per_round": per(
            minflt, sum(op.rounds for op in plain)
        ),
        "os.sys_frac": per(sum(op.os["sys_s"] for op in plain), cpu),
        "algo.rounds_per_trial": 0.0,
        "algo.rounds_over_theorem3": 0.0,
        "trace.overhead_frac": 0.0,
    }
    unknown = set(extra) - set(metrics)
    if unknown:
        raise KeyError(f"per-layer extras not in the metric list: {unknown}")
    metrics.update(extra)
    return metrics


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"no program sources under {ROOT / 'src'}; run the benchmark "
            "from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from spans import Tracer
    from workloads import DEFAULT_SEED, WORKLOADS, timed_loop

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    ledger = Ledger()
    workload = ledger.run("inputs", WORKLOADS[args.workload], args.seed)
    if workload is None:
        return 1
    first = ledger.run("warm-up op", workload.op, True)
    if first is None:
        return 1

    setup_samples: list[float] = []
    if args.trace:
        tracer = Tracer()
        traced = ledger.run(
            "traced ops", workload.traced, tracer, args.seconds
        )
        if traced is None:
            return 1
        ops, rounds, extra = traced
        values = per_layer(tracer, rounds, ops, extra)
        tracer.dump(SPANS / f"{args.workload}-seed{args.seed}.json")
    else:
        # set-up samples follow every op, so they see the same machine
        # state as the ops do
        ops = timed_loop(
            args.seconds,
            lambda: ledger.run("op", workload.op),
            3,
            lambda op: setup_samples.extend(
                _setup_seconds(workload, 0.1 * op.wall if op else 0.0)
            ),
        )
        ops = [op for op in ops if op is not None]
        if not ops:
            return 1
        values = end_to_end(ops, setup_samples, workload.pooled_latency)

    for i, op in enumerate(ops):
        ledger.expect(f"op {i} work counts", op.counts == first.counts)
    expected = json.loads((HERE / "expected_counts.json").read_text())
    if args.seed == DEFAULT_SEED and args.workload in expected:
        ledger.expect(
            "default-seed work counts",
            json.loads(json.dumps(first.counts)) == expected[args.workload],
        )
    checks = ledger.run("correctness check", workload.check) or []
    for label, ok in checks:
        ledger.expect(label, ok)
    _stop_resource_tracker()

    if set(values) != set(units):
        raise KeyError(
            f"{section} metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}"
        )
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": len(ops),
        "op_wall_s": [op.wall for op in ops],
        "op_os": [op.os for op in ops],
        "latency_samples_per_op": len(ops[0].latencies_us),
        "setup_samples": len(setup_samples),
        "work_counts": first.counts,
        "checks": [label for label, _ in checks],
        "failures": ledger.notes,
    }
    if args.trace:
        layers = json.loads((HERE / "layers.json").read_text())
        if set(layers) != set(units):
            raise KeyError("layers.json and BENCHMARK.json per_layer differ")
        details["layers"] = layers
    print(json.dumps(details))
    for i, op in enumerate(ops):
        print(
            f"op {i}: wall {op.wall:.4f} s, "
            f"minor faults {op.os['minflt']:.0f}, "
            f"user {op.os['user_s']:.3f} s, sys {op.os['sys_s']:.3f} s",
            file=sys.stderr,
        )
    for name, value in values.items():
        print(f"{name:>36} {value:>16.6g} {units[name]}", file=sys.stderr)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(result))
    return 0


def _stop_resource_tracker() -> None:
    """Stop and reap the tracker that shared-memory segments start."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    sys.exit(main())
