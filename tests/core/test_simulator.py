"""Unit tests for the round-based simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    AboveAverageThreshold,
    SystemState,
    UserControlledProtocol,
    simulate,
    total_potential,
)


def mk_state(m=40, n=8) -> SystemState:
    return SystemState.from_workload(
        np.ones(m),
        np.zeros(m, dtype=np.int64),
        n,
        AboveAverageThreshold(0.2),
    )


def balanced_state() -> SystemState:
    return SystemState.from_workload(
        np.ones(4), np.arange(4, dtype=np.int64), 4, 2.0
    )


class TestTermination:
    def test_already_balanced_zero_rounds(self, rng):
        res = simulate(UserControlledProtocol(), balanced_state(), rng)
        assert res.balanced and res.rounds == 0
        assert res.balancing_time == 0.0

    def test_balances_and_reports_rounds(self):
        res = simulate(
            UserControlledProtocol(), mk_state(), np.random.default_rng(0)
        )
        assert res.balanced
        assert res.rounds > 0
        assert res.balancing_time == float(res.rounds)

    def test_budget_censoring(self):
        res = simulate(
            UserControlledProtocol(alpha=0.01),
            mk_state(200, 4),
            np.random.default_rng(1),
            max_rounds=2,
        )
        assert not res.balanced
        assert res.rounds == 2
        assert res.balancing_time == float("inf")

    def test_zero_budget(self, rng):
        res = simulate(UserControlledProtocol(), mk_state(), rng, max_rounds=0)
        assert not res.balanced and res.rounds == 0

    def test_negative_budget_rejected(self, rng):
        with pytest.raises(ValueError):
            simulate(UserControlledProtocol(), mk_state(), rng, max_rounds=-1)


class TestTraces:
    def test_traces_off_by_default(self):
        res = simulate(
            UserControlledProtocol(), mk_state(), np.random.default_rng(2)
        )
        assert res.potential_trace is None
        assert res.overloaded_trace is None
        assert res.movers_trace is None
        assert res.max_load_trace is None

    def test_trace_lengths_match_rounds(self):
        res = simulate(
            UserControlledProtocol(),
            mk_state(),
            np.random.default_rng(3),
            record_traces=True,
        )
        assert res.potential_trace.shape == (res.rounds,)
        assert res.overloaded_trace.shape == (res.rounds,)
        assert res.movers_trace.shape == (res.rounds,)
        assert res.max_load_trace.shape == (res.rounds,)

    def test_first_trace_entry_is_initial_state(self):
        st = mk_state()
        initial_pot = total_potential(st)
        res = simulate(
            UserControlledProtocol(),
            st,
            np.random.default_rng(4),
            record_traces=True,
        )
        assert res.potential_trace[0] == pytest.approx(initial_pot)
        assert res.max_load_trace[0] == pytest.approx(40.0)
        assert res.overloaded_trace[0] == 1

    def test_movers_trace_sums_to_total(self):
        res = simulate(
            UserControlledProtocol(),
            mk_state(),
            np.random.default_rng(5),
            record_traces=True,
        )
        assert res.movers_trace.sum() == res.total_migrations


class TestAccounting:
    def test_migration_totals_positive(self):
        res = simulate(
            UserControlledProtocol(), mk_state(), np.random.default_rng(6)
        )
        assert res.total_migrations > 0
        assert res.total_migrated_weight >= res.total_migrations  # wmin = 1

    def test_final_loads_below_threshold(self):
        st = mk_state()
        res = simulate(UserControlledProtocol(), st, np.random.default_rng(7))
        threshold = float(np.asarray(st.threshold))
        assert res.final_max_load <= threshold + 1e-9

    def test_summary_keys(self):
        res = simulate(
            UserControlledProtocol(), mk_state(), np.random.default_rng(8)
        )
        s = res.summary()
        assert set(s) == {
            "protocol", "balanced", "rounds", "final_max_load",
            "total_migrations", "total_migrated_weight",
        }
        assert s["balanced"] is True

    @pytest.mark.parametrize("dynamic", [False, True])
    def test_invariant_checking_mode(self, dynamic, add_stream):
        res = simulate(
            UserControlledProtocol(),
            add_stream(mk_state()) if dynamic else mk_state(),
            np.random.default_rng(9),
            check_invariants=True,
        )
        assert res.balanced
        assert res.dynamic is dynamic

    def test_state_mutated_in_place(self):
        st = mk_state()
        simulate(UserControlledProtocol(), st, np.random.default_rng(10))
        assert st.is_balanced()

    def test_protocol_name_recorded(self):
        res = simulate(
            UserControlledProtocol(alpha=0.5),
            mk_state(),
            np.random.default_rng(11),
        )
        assert "user_controlled" in res.protocol_name
