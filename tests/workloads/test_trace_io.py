"""Tests for the JSONL trace loader (`repro.workloads.trace_io`) and
its `parse_dynamics` surface (`trace:FILE[:rethreshold]`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import TraceDynamics, simulate
from repro.study.parse import parse_dynamics
from repro.study.setups import UserControlledSetup
from repro.workloads import (
    UniformRangeWeights,
    dump_trace_jsonl,
    load_trace_jsonl,
)


def write(tmp_path, text, name="trace.jsonl"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoad:
    def test_loads_arrivals_in_file_order(self, tmp_path):
        p = write(
            tmp_path,
            '{"round": 3, "weight": 2.0, "resource": 1}\n'
            '{"round": 1, "weight": 5, "resource": 0, "lifetime": 4}\n',
        )
        spec = load_trace_jsonl(p)
        assert isinstance(spec, TraceDynamics)
        assert spec.arrivals == ((3, 2.0, 1, None), (1, 5.0, 0, 4))
        assert spec.rethreshold is False

    def test_rethreshold_flag_passes_through(self, tmp_path):
        p = write(
            tmp_path, '{"round": 1, "weight": 1, "resource": 0}\n'
        )
        assert load_trace_jsonl(p, rethreshold=True).rethreshold is True

    def test_skips_blank_and_comment_lines(self, tmp_path):
        p = write(
            tmp_path,
            "# a recorded trace\n"
            "\n"
            '{"round": 1, "weight": 1, "resource": 0}\n'
            "   \n"
            "# trailing comment\n",
        )
        assert len(load_trace_jsonl(p).arrivals) == 1

    def test_departure_event_sets_lifetime(self, tmp_path):
        p = write(
            tmp_path,
            '{"round": 2, "weight": 1, "resource": 0, "id": "a"}\n'
            '{"depart": "a", "round": 7}\n',
        )
        spec = load_trace_jsonl(p)
        assert spec.arrivals == ((2, 1.0, 0, 5),)

    def test_departure_may_precede_arrival_in_file(self, tmp_path):
        p = write(
            tmp_path,
            '{"depart": 9, "round": 4}\n'
            '{"round": 1, "weight": 3, "resource": 2, "id": 9}\n',
        )
        assert load_trace_jsonl(p).arrivals == ((1, 3.0, 2, 3),)


class TestErrors:
    def test_bad_json_reports_line(self, tmp_path):
        p = write(tmp_path, '{"round": 1,\n')
        with pytest.raises(ValueError, match=r"trace\.jsonl:1: not valid"):
            load_trace_jsonl(p)

    def test_non_object_line(self, tmp_path):
        p = write(tmp_path, "[1, 2, 3]\n")
        with pytest.raises(ValueError, match="expected a JSON object"):
            load_trace_jsonl(p)

    def test_missing_arrival_field(self, tmp_path):
        p = write(tmp_path, '{"round": 1, "weight": 1}\n')
        with pytest.raises(ValueError, match="missing 'resource'"):
            load_trace_jsonl(p)

    def test_unknown_arrival_field(self, tmp_path):
        p = write(
            tmp_path,
            '{"round": 1, "weight": 1, "resource": 0, "prio": 3}\n',
        )
        with pytest.raises(ValueError, match="unknown arrival field"):
            load_trace_jsonl(p)

    @pytest.mark.parametrize(
        "line,match",
        [
            (
                '{"round": 0, "weight": 1, "resource": 0}',
                "round must be an integer >= 1",
            ),
            (
                '{"round": 1, "weight": -2, "resource": 0}',
                "weight must be a positive number",
            ),
            (
                '{"round": 1, "weight": 1, "resource": -1}',
                "resource must be a non-negative integer",
            ),
            (
                '{"round": 1, "weight": 1, "resource": 0, "lifetime": 0}',
                "lifetime must be an integer >= 1",
            ),
        ],
    )
    def test_bad_arrival_values(self, tmp_path, line, match):
        p = write(tmp_path, line + "\n")
        with pytest.raises(ValueError, match=match):
            load_trace_jsonl(p)

    @pytest.mark.parametrize("weight", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_weight_reports_line(self, tmp_path, weight):
        # Python's json accepts these literals; the loader must not
        p = write(
            tmp_path,
            '{"round": 1, "weight": 1, "resource": 0}\n'
            f'{{"round": 2, "weight": {weight}, "resource": 0}}\n',
        )
        with pytest.raises(
            ValueError, match=r"trace\.jsonl:2: weight must be a positive"
        ):
            load_trace_jsonl(p)

    @pytest.mark.parametrize(
        "weight", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0]
    )
    def test_trace_dynamics_rejects_bad_weight(self, weight):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            TraceDynamics(arrivals=((1, 1.0, 0), (2, weight, 0)))

    def test_duplicate_task_id(self, tmp_path):
        p = write(
            tmp_path,
            '{"round": 1, "weight": 1, "resource": 0, "id": "x"}\n'
            '{"round": 2, "weight": 1, "resource": 0, "id": "x"}\n',
        )
        with pytest.raises(ValueError, match="duplicate task id 'x'"):
            load_trace_jsonl(p)

    def test_departure_unknown_id(self, tmp_path):
        p = write(tmp_path, '{"depart": "ghost", "round": 5}\n')
        with pytest.raises(ValueError, match="unknown task id 'ghost'"):
            load_trace_jsonl(p)

    def test_departure_missing_round(self, tmp_path):
        p = write(
            tmp_path,
            '{"round": 1, "weight": 1, "resource": 0, "id": 1}\n'
            '{"depart": 1}\n',
        )
        with pytest.raises(ValueError, match="missing 'round'"):
            load_trace_jsonl(p)

    def test_departure_conflicts_with_lifetime(self, tmp_path):
        p = write(
            tmp_path,
            '{"round": 1, "weight": 1, "resource": 0, "id": 1,'
            ' "lifetime": 3}\n'
            '{"depart": 1, "round": 9}\n',
        )
        with pytest.raises(ValueError, match="already has a lifetime"):
            load_trace_jsonl(p)

    def test_departure_not_after_arrival(self, tmp_path):
        p = write(
            tmp_path,
            '{"round": 5, "weight": 1, "resource": 0, "id": 1}\n'
            '{"depart": 1, "round": 5}\n',
        )
        with pytest.raises(ValueError, match="must be later"):
            load_trace_jsonl(p)

    def test_unknown_departure_field(self, tmp_path):
        p = write(
            tmp_path,
            '{"round": 1, "weight": 1, "resource": 0, "id": 1}\n'
            '{"depart": 1, "round": 3, "grace": 2}\n',
        )
        with pytest.raises(ValueError, match="unknown departure field"):
            load_trace_jsonl(p)


class TestRoundTrip:
    def test_dump_then_load_preserves_events(self, tmp_path):
        spec = TraceDynamics(
            arrivals=((1, 2.5, 0, None), (3, 1.0, 4, 7)),
            rethreshold=True,
        )
        p = tmp_path / "out.jsonl"
        dump_trace_jsonl(spec, p)
        loaded = load_trace_jsonl(p, rethreshold=True)
        assert loaded.arrivals == spec.arrivals
        assert loaded.rethreshold == spec.rethreshold


class TestParseDynamics:
    def test_trace_head_loads_file(self, tmp_path):
        p = write(
            tmp_path, '{"round": 1, "weight": 2, "resource": 0}\n'
        )
        spec = parse_dynamics(f"trace:{p}")
        assert isinstance(spec, TraceDynamics)
        assert spec.arrivals == ((1, 2.0, 0, None),)
        assert spec.rethreshold is False

    def test_trace_rethreshold_suffix(self, tmp_path):
        p = write(
            tmp_path, '{"round": 1, "weight": 2, "resource": 0}\n'
        )
        assert parse_dynamics(f"trace:{p}:rethreshold").rethreshold
        assert parse_dynamics(f"trace:{p}:RETHRESHOLD").rethreshold

    def test_trace_empty_path_errors(self):
        with pytest.raises(ValueError, match="path"):
            parse_dynamics("trace:")

    def test_unknown_head_mentions_trace(self):
        with pytest.raises(ValueError, match="poisson or trace"):
            parse_dynamics("bursty:3")

    def test_none_still_parses(self):
        assert parse_dynamics("none") is None


class TestEndToEnd:
    def test_loaded_trace_drives_simulation(self, tmp_path):
        p = write(
            tmp_path,
            '{"round": 1, "weight": 4, "resource": 0, "id": "a"}\n'
            '{"round": 2, "weight": 2, "resource": 0}\n'
            '{"depart": "a", "round": 6}\n',
        )
        setup = UserControlledSetup(
            n=4,
            m=6,
            distribution=UniformRangeWeights(1.0, 3.0),
            dynamics=load_trace_jsonl(p, rethreshold=True),
        )
        seed_seq = np.random.SeedSequence(3)
        setup_seed, sim_seed = seed_seq.spawn(2)
        protocol, state = setup(np.random.default_rng(setup_seed))
        result = simulate(
            protocol, state, np.random.default_rng(sim_seed)
        )
        assert result.rounds >= 6  # the departure event must elapse
        assert result.balanced
        # task "a" departed: 6 initial + 2 arrivals - 1 departure
        assert state.m == 7
