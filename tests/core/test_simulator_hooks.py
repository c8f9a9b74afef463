"""Unit tests for simulator round hooks and arrival-order options."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    AboveAverageThreshold,
    ResourceControlledProtocol,
    SystemState,
    UserControlledProtocol,
    complete_graph,
    simulate,
)


def mk_state(m=60, n=10) -> SystemState:
    return SystemState.from_workload(
        np.ones(m),
        np.zeros(m, dtype=np.int64),
        n,
        AboveAverageThreshold(0.2),
    )


class TestOnRoundHook:
    def test_called_every_round(self):
        calls = []

        def hook(round_index, state, stats):
            calls.append((round_index, stats.movers))

        res = simulate(
            UserControlledProtocol(), mk_state(), np.random.default_rng(0),
            on_round=hook,
        )
        assert len(calls) == res.rounds
        assert [c[0] for c in calls] == list(range(1, res.rounds + 1))

    def test_hook_sees_live_state(self):
        max_loads = []

        def hook(round_index, state, stats):
            max_loads.append(state.loads().max())

        simulate(
            UserControlledProtocol(), mk_state(), np.random.default_rng(1),
            on_round=hook,
        )
        # load spreads out: the final snapshot is below the initial pile
        assert max_loads[-1] < 60.0

    @pytest.mark.parametrize("dynamic", [False, True])
    def test_early_stop(self, dynamic, add_stream):
        def hook(round_index, state, stats):
            return round_index < 3

        state = mk_state(200, 4)
        res = simulate(
            UserControlledProtocol(alpha=0.05),
            add_stream(state) if dynamic else state,
            np.random.default_rng(2),
            on_round=hook,
        )
        assert res.rounds == 3
        assert not res.balanced  # stopped while unbalanced -> censored
        assert res.dynamic is dynamic

    def test_stop_after_balancing_still_balanced(self):
        def hook(round_index, state, stats):
            return None  # never stops

        res = simulate(
            UserControlledProtocol(), mk_state(), np.random.default_rng(3),
            on_round=hook,
        )
        assert res.balanced

    def test_not_called_when_already_balanced(self):
        balanced = SystemState.from_workload(
            np.ones(4), np.arange(4, dtype=np.int64), 4, 2.0
        )
        calls = []
        simulate(
            UserControlledProtocol(), balanced, np.random.default_rng(4),
            on_round=lambda *a: calls.append(a),
        )
        assert calls == []


class TestArrivalOrder:
    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError, match="arrival_order"):
            UserControlledProtocol(arrival_order="lifo")
        with pytest.raises(ValueError, match="arrival_order"):
            ResourceControlledProtocol(
                complete_graph(4), arrival_order="lifo"
            )

    def test_fifo_stacks_in_task_index_order(self):
        st = mk_state(m=30, n=5)
        proto = UserControlledProtocol(alpha=1.0, arrival_order="fifo")
        proto.step(st, np.random.default_rng(5))
        # among tasks that moved in this round, seq order == index order
        moved = np.flatnonzero(st.seq >= 30)
        assert np.all(np.diff(st.seq[moved]) > 0)

    def test_both_orders_balance(self):
        for order in ("random", "fifo"):
            st = mk_state()
            res = simulate(
                ResourceControlledProtocol(
                    complete_graph(10), arrival_order=order
                ),
                st,
                np.random.default_rng(6),
                max_rounds=10_000,
            )
            assert res.balanced, order

    def test_orders_statistically_similar(self):
        """The paper's 'arbitrary order' assumption: the arrival order
        must not change balancing times materially."""
        def mean_time(order: str) -> float:
            times = []
            for seed in range(10):
                st = mk_state(m=120, n=12)
                res = simulate(
                    UserControlledProtocol(alpha=1.0, arrival_order=order),
                    st,
                    np.random.default_rng(seed),
                    max_rounds=100_000,
                )
                times.append(res.rounds)
            return float(np.mean(times))

        t_random = mean_time("random")
        t_fifo = mean_time("fifo")
        assert max(t_random, t_fifo) / min(t_random, t_fifo) < 1.5
