"""Unit tests for the online router (`repro.router.core`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    AboveAverageThreshold,
    FixedThreshold,
    HybridProtocol,
    ResourceControlledProtocol,
    Router,
    TwoClassSpeeds,
    UniformRangeWeights,
    UserControlledProtocol,
    torus_graph,
)
from repro.router.core import OVERFLOW_MODES
from repro.study.setups import UserControlledSetup


def make_state(weights, placement, n, threshold, speeds=None):
    from repro.core.state import SystemState

    return SystemState.from_workload(
        np.asarray(weights, dtype=np.float64),
        np.asarray(placement, dtype=np.int64),
        n,
        threshold,
        speeds=speeds,
    )


def make_router(threshold=10.0, seed=0, **kwargs):
    state = make_state([1.0, 2.0, 3.0], [0, 1, 2], 4, threshold)
    protocol = UserControlledProtocol(alpha=1.0)
    rng = np.random.default_rng(seed)
    return Router(protocol, state, rng, **kwargs)


class FakeClock:
    """Deterministic clock: each reading advances by `step` seconds."""

    def __init__(self, step=0.001):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


class TestConstruction:
    def test_rejects_nonpositive_max_probes(self):
        with pytest.raises(ValueError, match="max_probes"):
            make_router(max_probes=0)

    def test_rejects_unknown_overflow_mode(self):
        with pytest.raises(ValueError, match="overflow mode"):
            make_router(overflow="drop")

    def test_overflow_modes_constant(self):
        assert OVERFLOW_MODES == ("place", "reject")

    def test_initial_view_matches_state(self):
        router = make_router(threshold=10.0)
        assert np.array_equal(router.loads(), [1.0, 2.0, 3.0, 0.0])
        assert np.array_equal(router._cap, [10.0] * 4)
        assert router.live_tasks == 3
        assert np.array_equal(router.task_ids(), [0, 1, 2])

    def test_from_setup_matches_manual_seed_contract(self):
        setup = UserControlledSetup(
            n=10, m=30, distribution=UniformRangeWeights(1.0, 4.0)
        )
        seq = np.random.SeedSequence(7)
        router = Router.from_setup(setup, np.random.SeedSequence(7))
        setup_seed, _ = seq.spawn(2)
        _, state = setup(np.random.default_rng(setup_seed))
        assert np.array_equal(router.state.weights, state.weights)
        assert np.array_equal(router.state.resource, state.resource)

    def test_scalar_capacity_broadcasts_to_vector(self):
        router = make_router(threshold=7.5)
        assert router._cap.shape == (4,)
        assert np.all(router._cap == 7.5)

    def test_speeds_scale_capacity(self):
        speeds = np.array([1.0, 2.0, 1.0, 4.0])
        state = make_state(
            [1.0], [0], 4, FixedThreshold(3.0), speeds=speeds
        )
        router = Router(
            UserControlledProtocol(alpha=1.0),
            state,
            np.random.default_rng(0),
        )
        assert np.array_equal(router._cap, 3.0 * speeds)


class TestChooseResource:
    def test_rejects_nonpositive_weight(self):
        router = make_router()
        with pytest.raises(ValueError, match="weight"):
            router.choose_resource(0.0)
        with pytest.raises(ValueError, match="weight"):
            router.choose_resource(-1.0)

    def test_rejects_origin_out_of_range(self):
        router = make_router()
        with pytest.raises(ValueError, match="origin"):
            router.choose_resource(1.0, origin=4)
        with pytest.raises(ValueError, match="origin"):
            router.choose_resource(1.0, origin=-1)

    def test_accepts_when_headroom_exists(self):
        router = make_router(threshold=100.0)
        decision = router.choose_resource(5.0)
        assert decision.accepted
        assert decision.placed
        assert not decision.overflow
        assert decision.probes == 1
        assert decision.task_id == 3
        assert router.loads()[decision.resource] >= 5.0

    def test_decision_updates_live_loads_before_flush(self):
        router = make_router(threshold=100.0)
        before = router.loads().sum()
        router.choose_resource(5.0)
        assert router.loads().sum() == pytest.approx(before + 5.0)
        # state arrays still untouched until the next flush/tick
        assert router.state.m == 3

    def test_overflow_place_picks_best_headroom(self):
        # threshold 1.6 is feasible (4*1.6 >= 6) but no resource can
        # absorb a 2.0 task: loads [1, 2, 3, 0] all end above 1.6
        router = make_router(threshold=FixedThreshold(1.6), max_probes=8)
        decision = router.choose_resource(2.0)
        assert not decision.accepted
        assert decision.overflow
        assert decision.placed
        assert decision.probes == 8

    def test_overflow_reject_refuses_task(self):
        router = make_router(
            threshold=FixedThreshold(1.6),
            overflow="reject",
            max_probes=3,
        )
        decision = router.choose_resource(2.0)
        assert not decision.accepted
        assert not decision.overflow
        assert not decision.placed
        assert decision.resource is None
        assert decision.task_id is None
        assert router.metrics_snapshot().rejected == 1
        assert router.live_tasks == 3

    def test_origin_seeds_resource_probe_sequence(self):
        graph = torus_graph(4, 4)
        state = make_state([1.0], [0], 16, FixedThreshold(50.0))
        protocol = ResourceControlledProtocol(graph)
        router = Router(protocol, state, np.random.default_rng(0))
        decision = router.choose_resource(1.0, origin=5)
        # resource-controlled admission examines the origin first
        assert decision.resource == 5
        assert decision.probes == 1

    def test_latency_uses_injected_clock(self):
        clock = FakeClock(step=0.25)
        router = make_router(threshold=100.0, clock=clock)
        decision = router.choose_resource(1.0)
        assert decision.latency == pytest.approx(0.25)

    def test_hybrid_alternate_flips_family(self):
        graph = torus_graph(3, 3)
        state = make_state([1.0], [4], 9, FixedThreshold(50.0))
        protocol = HybridProtocol(
            ResourceControlledProtocol(graph),
            UserControlledProtocol(alpha=1.0),
            mode="alternate",
        )
        router = Router(protocol, state, np.random.default_rng(0))
        first = router.choose_resource(1.0, origin=4)
        # first decision uses resource semantics: origin wins probe 1
        assert first.resource == 4


class TestSubmitAndDepart:
    def test_submit_forces_placement(self):
        router = make_router(threshold=FixedThreshold(1.6))
        tid = router.submit(9.0, 1)
        assert tid == 3
        assert router.loads()[1] == pytest.approx(11.0)
        assert router.metrics_snapshot().ingested == 1

    def test_submit_validates_inputs(self):
        router = make_router()
        with pytest.raises(ValueError, match="weight"):
            router.submit(0.0, 0)
        with pytest.raises(ValueError, match="out of range"):
            router.submit(1.0, 9)

    def test_depart_releases_capacity_immediately(self):
        router = make_router()
        found = router.depart([2])
        assert found == 1
        assert router.loads()[2] == pytest.approx(0.0)
        assert router.live_tasks == 2
        # arrays compact at flush, not before
        assert router.state.m == 3
        router.flush()
        assert router.state.m == 2
        assert np.array_equal(router.task_ids(), [0, 1])

    def test_depart_unknown_id_is_ignored(self):
        router = make_router()
        assert router.depart([99]) == 0
        assert router.live_tasks == 3

    def test_depart_twice_counts_once(self):
        router = make_router()
        assert router.depart([1]) == 1
        assert router.depart([1]) == 0
        router.flush()
        assert router.depart([1]) == 0
        assert router.metrics_snapshot().departed == 1

    def test_depart_cancels_buffered_arrival(self):
        router = make_router(threshold=100.0)
        tid = router.submit(4.0, 3)
        assert router.loads()[3] == pytest.approx(4.0)
        assert router.depart([tid]) == 1
        assert router.loads()[3] == pytest.approx(0.0)
        router.flush()
        assert router.state.m == 3

    def test_depart_batch_mixed_known_unknown(self):
        router = make_router()
        assert router.depart([0, 2, 41]) == 2
        assert router.loads().sum() == pytest.approx(2.0)

    def test_ids_stay_stable_across_churn(self):
        router = make_router(threshold=100.0)
        a = router.submit(1.0, 0)
        router.flush()
        router.depart([0, 1])
        b = router.submit(1.0, 1)
        router.flush()
        ids = router.task_ids()
        assert a in ids and b in ids
        assert b == a + 1


def router_state(router):
    """Everything a rejected call must leave untouched: live loads,
    task arrays, the arrival buffer, every integer counter and the
    generator state."""
    return (
        router.loads().tolist(),
        router.state.weights.tolist(),
        router.state.resource.tolist(),
        list(router._pend_ids),
        {k: v for k, v in vars(router).items() if isinstance(v, int)},
        router.rng.bit_generator.state,
    )


BAD_WEIGHTS = [np.nan, np.inf, -np.inf, 0.0, -1.0]


class TestBoundaryValidation:
    """Invalid input raises before any verb mutates the router."""

    @pytest.mark.parametrize("bad", BAD_WEIGHTS)
    @pytest.mark.parametrize(
        "call",
        [
            lambda r, w: r.choose_resource(w),
            lambda r, w: r.choose_resource(w, origin=1),
            lambda r, w: r.submit(w, 0),
            lambda r, w: r.choose_many([1.0, w, 1.0]),
            lambda r, w: r.choose_many([1.0, w], origins=[0, 1]),
            lambda r, w: r.submit_many([1.0, w, 1.0], [0, 1, 2]),
        ],
        ids=[
            "choose_resource",
            "choose_resource-origin",
            "submit",
            "choose_many",
            "choose_many-origins",
            "submit_many",
        ],
    )
    def test_rejects_bad_weight_untouched(self, call, bad):
        router = make_router(threshold=100.0)
        router.choose_resource(1.0)  # some history to preserve
        before = router_state(router)
        with pytest.raises(ValueError, match="weight"):
            call(router, bad)
        assert router_state(router) == before
        assert np.isfinite(router.metrics_snapshot().makespan)

    @pytest.mark.parametrize("ids", [[1.7], [0, 2.5], [np.nan], [np.inf]])
    def test_depart_rejects_non_integral_ids(self, ids):
        router = make_router()
        router.submit(1.0, 3)
        before = router_state(router)
        with pytest.raises(ValueError, match="integer"):
            router.depart(ids)
        assert router_state(router) == before

    def test_depart_accepts_integral_floats_and_empty(self):
        router = make_router()
        assert router.depart([]) == 0
        assert router.depart(np.array([1.0])) == 1
        assert router.loads().sum() == pytest.approx(4.0)


class TestTickAndThreshold:
    def test_tick_flushes_and_steps(self):
        router = make_router(threshold=100.0)
        router.submit(2.0, 0)
        stats = router.tick()
        assert router.state.m == 4
        assert router.metrics_snapshot().ticks == 1
        assert stats is not None
        assert np.array_equal(router.loads(), router.state.loads())

    def test_tick_accumulates_migrations(self):
        # force imbalance so the protocol actually migrates
        state = make_state(
            [5.0, 5.0, 5.0, 5.0], [0, 0, 0, 0], 4, FixedThreshold(6.0)
        )
        router = Router(
            UserControlledProtocol(alpha=1.0),
            state,
            np.random.default_rng(1),
        )
        for _ in range(20):
            router.tick()
            if router.is_balanced():
                break
        snap = router.metrics_snapshot()
        assert snap.migrations > 0
        assert snap.migrated_weight > 0.0
        assert router.is_balanced()

    def test_rethreshold_recomputes_capacity(self):
        router = make_router(threshold=100.0)
        router.rethreshold(AboveAverageThreshold(eps=0.2))
        # T = (1 + eps) W/n + wmax
        w = router.state.weights
        expected = 1.2 * w.sum() / router.state.n + w.max()
        assert np.allclose(router._cap, expected)

    def test_rethreshold_empty_population_is_noop(self):
        state = make_state(
            np.empty(0), np.empty(0, dtype=np.int64), 4, 5.0
        )
        router = Router(
            UserControlledProtocol(alpha=1.0),
            state,
            np.random.default_rng(0),
        )
        router.rethreshold(AboveAverageThreshold())
        assert np.array_equal(router._cap, [5.0] * 4)

    def test_refresh_capacity_tracks_manual_threshold(self):
        router = make_router(threshold=10.0)
        router.state.threshold = 3.0
        router.refresh_capacity()
        assert np.array_equal(router._cap, [3.0] * 4)

    def test_is_balanced(self):
        router = make_router(threshold=FixedThreshold(3.0))
        assert router.is_balanced()
        router.submit(50.0, 0)
        assert not router.is_balanced()


class TestMetrics:
    def test_snapshot_counts_decisions(self):
        router = make_router(threshold=100.0, clock=FakeClock())
        router.choose_resource(1.0)
        router.choose_resource(2.0)
        snap = router.metrics_snapshot()
        assert snap.decisions == 2
        assert snap.accepted == 2
        assert snap.overflowed == 0
        assert snap.probes == 2
        assert snap.retries == 0
        assert snap.latency_p50 is not None
        assert snap.latency_p50 <= snap.latency_p99

    def test_snapshot_retries_count_extra_probes(self):
        router = make_router(
            threshold=FixedThreshold(1.6), max_probes=4
        )
        router.choose_resource(5.0)
        snap = router.metrics_snapshot()
        assert snap.probes == 4
        assert snap.retries == 3

    def test_snapshot_latency_none_before_decisions(self):
        snap = make_router().metrics_snapshot()
        assert snap.latency_p50 is None
        assert snap.latency_p90 is None
        assert snap.latency_p99 is None

    def test_snapshot_loads_include_pending(self):
        router = make_router(threshold=100.0)
        router.submit(7.0, 3)
        snap = router.metrics_snapshot()
        assert snap.loads[3] == pytest.approx(7.0)
        assert snap.live_tasks == 4
        assert snap.total_weight == pytest.approx(13.0)

    def test_snapshot_normalizes_by_speeds(self):
        speeds = TwoClassSpeeds(slow=1.0, fast=4.0, fast_count=1).sample(
            4, np.random.default_rng(0)
        )
        state = make_state(
            [8.0, 1.0, 1.0, 1.0],
            [0, 1, 2, 3],
            4,
            FixedThreshold(20.0),
            speeds=speeds,
        )
        router = Router(
            UserControlledProtocol(alpha=1.0),
            state,
            np.random.default_rng(0),
        )
        snap = router.metrics_snapshot()
        assert np.allclose(snap.normalized_loads, snap.loads / speeds)
        assert snap.makespan == pytest.approx(
            (snap.loads / speeds).max()
        )

    def test_as_dict_is_json_friendly(self):
        import json

        router = make_router(threshold=100.0)
        router.choose_resource(1.0)
        payload = router.metrics_snapshot().as_dict()
        text = json.dumps(payload)
        assert "decisions" in json.loads(text)

    def test_overloaded_counts_violations(self):
        router = make_router(threshold=FixedThreshold(2.5))
        snap = router.metrics_snapshot()
        assert snap.overloaded == 1  # resource 2 holds 3.0 > 2.5
