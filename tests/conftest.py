"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    AboveAverageThreshold,
    SystemState,
    TraceDynamics,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    single_source_placement,
    star_graph,
)


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def k5():
    return complete_graph(5)


@pytest.fixture
def c8():
    return cycle_graph(8)


@pytest.fixture
def p6():
    return path_graph(6)


@pytest.fixture
def star7():
    return star_graph(7)


@pytest.fixture
def grid4x4():
    return grid_graph(4, 4)


@pytest.fixture
def small_state() -> SystemState:
    """10 unit tasks piled on resource 0 of a 4-resource system,
    above-average threshold with eps=0.2 (T = 1.2*2.5 + 1 = 4)."""
    weights = np.ones(10)
    return SystemState.from_workload(
        weights,
        single_source_placement(10, 4),
        4,
        AboveAverageThreshold(eps=0.2),
    )


@pytest.fixture
def add_stream():
    """Turn a one-shot state into a dynamic one: a trace piles four
    tasks onto resource 0 in rounds 1-4, two of which depart again, and
    recomputes the above-average threshold (eps=0.2) on every change."""
    trace = TraceDynamics(
        arrivals=((1, 2.0, 0), (2, 1.0, 0, 3), (3, 2.0, 0), (4, 1.0, 0, 2)),
        rethreshold=True,
    )

    def attach(state: SystemState) -> SystemState:
        state.dynamics = trace.compile(
            state.n,
            state.m,
            np.random.default_rng(0),
            None,
            AboveAverageThreshold(eps=0.2),
        )
        return state

    return attach
