from __future__ import annotations

import math

import pytest

from comsat.assignment import Assignment, assign, assignment_from_json
from comsat.instance import END_JOB, START_JOB
from comsat.paths import enumerate_paths, pathfinder
from comsat.routing import Route, RouteSearch, RouteSet, Visit, router

from conftest import make_instance


def _route(job_visits, length, latest_start) -> Route:
    visits = (
        (Visit(START_JOB, "0", 0, 0, 0, 100),)
        + tuple(job_visits)
        + (Visit(END_JOB, "0", 0, 0, 0, 100),)
    )
    return Route(visits=visits, length=length, latest_start=latest_start)


def test_single_route_forced_match():
    inst = make_instance(
        nodes=[0, 1],
        depot=0,
        segments=[(0, 1, 1, 1)],
        vehicles=["R1"],
        jobs={"J": {"eligible": ["R1"], "tasks": {"1": (1, 0, None)}}},
        horizon=10,
    )
    routes = RouteSet(routes=(_route([Visit("J", "1", 1, 1, 0, 10)], 2, 8),))
    asg = assign(inst, routes)
    assert asg == Assignment(vehicles=("R1",), starts=(0,), ends=(2,))


def test_same_vehicle_deadline_clash_infeasible():
    inst = make_instance(
        nodes=[0, 1],
        depot=0,
        segments=[(0, 1, 5, 1)],
        vehicles=["R1"],
        jobs={
            "A": {"eligible": ["R1"], "tasks": {"1": (1, 0, None)}},
            "B": {"eligible": ["R1"], "tasks": {"1": (1, 0, None)}},
        },
        horizon=40,
    )
    routes = RouteSet(
        routes=(
            _route([Visit("A", "1", 1, 5, 0, 40)], 10, 0),
            _route([Visit("B", "1", 1, 5, 0, 40)], 10, 0),
        ),
    )
    assert assign(inst, routes) is None


def test_empty_eligibility_short_circuits():
    inst = make_instance(
        nodes=[0, 1],
        depot=0,
        segments=[(0, 1, 1, 1)],
        vehicles=["R1"],
        jobs={"J": {"eligible": ["GHOST"], "tasks": {"1": (1, 0, None)}}},
        horizon=10,
    )
    routes = RouteSet(routes=(_route([Visit("J", "1", 1, 1, 0, 10)], 2, 8),))
    assert assign(inst, routes) is None


def test_plant21_single_job_routes_admit_paper_style_assignment(plant21):
    table = enumerate_paths(plant21, 10)
    combo = pathfinder(table)

    def single_route(job_name):
        job = plant21.job(job_name)
        depot = plant21.graph.depot
        visits = [Visit(START_JOB, "0", depot, 0, 0, plant21.horizon)]
        here, time, total = depot, 0, 0
        for t in job.tasks:
            d = combo.distance(here, t.location)
            time = max(time + d, t.window_lo)
            total += d
            visits.append(Visit(job.name, t.name, t.location, time, t.window_lo, t.window_hi))
            here = t.location
        back = combo.distance(here, depot)
        total += back
        visits.append(Visit(END_JOB, "0", depot, time + back, 0, plant21.horizon))
        cumulative = 0
        late = plant21.horizon - total
        prev = depot
        dist_so_far = 0
        for v in visits[1:-1]:
            dist_so_far += combo.distance(prev, v.location)
            late = min(late, v.window_hi - dist_so_far)
            prev = v.location
        return Route(visits=tuple(visits), length=total, latest_start=late)

    routes = RouteSet(routes=tuple(single_route(j) for j in "ABCD"))
    asg = assign(plant21, routes)
    assert asg is not None
    for i, job_name in enumerate("ABCD"):
        assert asg.vehicles[i] in plant21.job(job_name).eligible
        assert asg.starts[i] <= routes.routes[i].latest_start
        assert asg.ends[i] == asg.starts[i] + routes.routes[i].length

    # The published assignment (A->R1, B->R2, C->R4, D->R3) respects
    # eligibility, deadlines and the recharge separation rule.
    witness = {"A": "R1", "B": "R2", "C": "R4", "D": "R3"}
    for i, job_name in enumerate("ABCD"):
        assert witness[job_name] in plant21.job(job_name).eligible
        assert routes.routes[i].latest_start >= 0  # starting at 0 meets deadlines
    assert len(set(witness.values())) == 4  # distinct vehicles: no overlap terms


def test_assignment_properties_on_solver_output(plant21):
    search = RouteSearch(plant21, pathfinder(enumerate_paths(plant21, 10)))
    asg = None
    while asg is None:
        routes = router(search)
        assert routes is not None
        asg = assign(plant21, routes)
    rs = routes.routes
    charge = plant21.fleet.charge_coeff
    for i, route in enumerate(rs):
        assert all(asg.vehicles[i] in plant21.job(name).eligible for name in route.jobs)
        assert 0 <= asg.starts[i] <= route.latest_start
        assert asg.ends[i] == asg.starts[i] + route.length
    for i in range(len(rs)):
        for j in range(i + 1, len(rs)):
            if asg.vehicles[i] != asg.vehicles[j]:
                continue
            gap_i = math.ceil(charge * rs[i].length)
            gap_j = math.ceil(charge * rs[j].length)
            assert (
                asg.starts[i] >= asg.ends[j] + gap_i
                or asg.starts[j] >= asg.ends[i] + gap_j
            )


def test_assignment_json_round_trip():
    asg = Assignment(vehicles=("R1", "R2"), starts=(0, 3), ends=(5, 9))
    text = asg.to_json()
    assert assignment_from_json(text) == asg
    assert '"route": 0' in text and '"vehicle": "R1"' in text
