from __future__ import annotations

import json

import pytest

import comsat
from comsat.generate import GenParams, generate
from comsat.instance import parse_instance
from comsat.pipeline import SolverConfig, SolveStatus, solve
from comsat.validation import validate

from conftest import make_instance


def test_plant21_solves_and_validates(plant21):
    result = solve(plant21, SolverConfig())
    assert result.status == SolveStatus.SAT
    report = validate(plant21, result.schedule, result.assignment)
    assert report.ok
    # Each job rides an eligible vehicle.
    for trace in result.schedule.traces:
        jobs = {job for _pos, job, _task in trace.trace.serves}
        for job in jobs:
            assert trace.trace.vehicle in plant21.job(job).eligible


def test_provably_late_job_unsat_on_first_call():
    inst = make_instance(
        nodes=[0, 1, 2],
        depot=0,
        segments=[(0, 1, 5, 1), (1, 2, 5, 1), (2, 0, 5, 1)],
        jobs={"J": {"tasks": {"1": (1, 0, 4)}}},
        horizon=30,
    )
    result = solve(inst, SolverConfig())
    assert result.status == SolveStatus.UNSAT
    assert result.stats["router_calls"] == 1
    assert result.stats["router_solutions"] == 0


def _always_unassignable_instance():
    # Directed 7-cycle: exactly one simple path per ordered pair, so there is
    # a single path combination.  Three mutually exclusive jobs whose eligible
    # vehicles are not in the fleet make every assignment infeasible.
    doc = {
        "nodes": list(range(7)),
        "depot": 0,
        "edges": [
            {"u": i, "v": (i + 1) % 7, "len": 1, "cap": 1, "directed": True}
            for i in range(7)
        ],
        "horizon": 80,
        "vehicles": ["R1"],
        "operating_range": 1000,
        "charge_coeff": 0,
        "discharge_coeff": 1,
        "jobs": {
            "A": {"eligible": ["X1"], "tasks": {
                "1": {"location": 1, "window": [0, None], "precedes": []},
                "2": {"location": 2, "window": [0, None], "precedes": ["1"]},
            }},
            "B": {"eligible": ["X2"], "tasks": {
                "1": {"location": 3, "window": [0, None], "precedes": []},
                "2": {"location": 4, "window": [0, None], "precedes": ["1"]},
            }},
            "C": {"eligible": ["X3"], "tasks": {
                "1": {"location": 5, "window": [0, None], "precedes": []},
                "2": {"location": 6, "window": [0, None], "precedes": ["1"]},
            }},
        },
    }
    return parse_instance(json.dumps(doc))


def test_unknown_after_exactly_max_route_iters():
    inst = _always_unassignable_instance()
    cfg = SolverConfig(max_route_iters=10, total_timeout=120, stage_timeout=30)
    result = solve(inst, cfg)
    assert result.status == SolveStatus.UNKNOWN
    assert result.stats["router_solutions"] == cfg.max_route_iters
    assert result.stats["truncated"] is True
    assert result.stats["assign_calls"] == cfg.max_route_iters
    assert result.stats["scheduler_calls"] == 0


def test_backend_timeout_in_a_stage_is_unknown_not_unsat():
    # The router on the shortest combination cannot prove its minimum in
    # half a second here.  Read as infeasible, a failed first routing
    # attempt would end the solve as unsat.
    inst = generate(GenParams(nodes=25, vehicles=4, jobs=10, edge_reduction=0, horizon=50, seed=0))
    result = solve(inst, SolverConfig(total_timeout=1.0, stage_timeout=0.5))
    assert result.status == SolveStatus.UNKNOWN
    assert result.stats["truncated"] is True
    assert result.stats["router_calls"] == 1
    assert result.stats["router_solutions"] == 0


def test_zero_jobs_solves_trivially():
    inst = make_instance(nodes=[0, 1], depot=0, segments=[(0, 1, 1, 1)], jobs={}, horizon=5)
    result = solve(inst, SolverConfig())
    assert result.status == SolveStatus.SAT
    assert result.schedule.makespan == 0
    assert result.schedule.traces == ()


def test_loop_bookkeeping_counters(plant21):
    result = solve(plant21, SolverConfig())
    stats = result.stats
    assert stats["pathfinder_calls"] == stats["combinations"]
    assert stats["router_calls"] <= stats["combinations"] * (10 + 1)
    assert stats["assign_calls"] == stats["router_solutions"]
    assert stats["scheduler_calls"] <= stats["assign_calls"]


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_paths=0)
    with pytest.raises(ValueError):
        SolverConfig(total_timeout=0)
    # NaN compares false with every bound; accepted, it would switch every
    # deadline off.  Infinity stays allowed and means no limit.
    with pytest.raises(ValueError):
        SolverConfig(stage_timeout=float("nan"))
    with pytest.raises(ValueError):
        SolverConfig(total_timeout=float("nan"))
    assert SolverConfig(stage_timeout=float("inf")).stage_timeout == float("inf")
