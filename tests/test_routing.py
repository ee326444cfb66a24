from __future__ import annotations

import itertools
import math

import pytest

from comsat.generate import GenParams, generate
from comsat.instance import END_JOB, START_JOB
from comsat.paths import UsedPaths, enumerate_paths, pathfinder
from comsat.routing import router

from conftest import make_instance


def _solve_routes(inst, prev=()):
    table = enumerate_paths(inst, 10)
    combo = pathfinder(table, UsedPaths())
    return combo, router(inst, combo, list(prev))


def test_degenerate_route_at_depot():
    inst = make_instance(
        nodes=[0, 1],
        depot=0,
        segments=[(0, 1, 1, 1)],
        jobs={"J": {"tasks": {"1": (0, 0, None)}}},
        horizon=10,
    )
    _combo, routes = _solve_routes(inst)
    assert routes is not None and len(routes.routes) == 1
    route = routes.routes[0]
    assert [v.job for v in route.visits] == [START_JOB, "J", END_JOB]
    assert route.visits[1].arrival == 0
    assert route.length == 0


def test_unreachable_window_is_infeasible():
    inst = make_instance(
        nodes=[0, 1, 2],
        depot=0,
        segments=[(0, 1, 5, 1), (1, 2, 5, 1), (2, 0, 5, 1)],
        jobs={"J": {"tasks": {"1": (1, 0, 4)}}},
        horizon=30,
    )
    _combo, routes = _solve_routes(inst)
    assert routes is None


def test_plant21_has_feasible_routes_with_at_most_four(plant21):
    _combo, routes = _solve_routes(plant21)
    assert routes is not None
    assert 1 <= len(routes.routes) <= 4
    served = [v for r in routes.routes for v in r.task_visits()]
    assert {(v.job, v.task) for v in served} == {
        (j.name, t.name) for j in plant21.customer_jobs() for t in j.tasks
    }


def test_route_structure_and_charge_audit(plant21):
    combo, routes = _solve_routes(plant21)
    discharge = plant21.fleet.discharge_coeff
    cap = plant21.fleet.operating_range
    for route in routes.routes:
        assert route.visits[0].job == START_JOB
        assert route.visits[-1].job == END_JOB
        # Arrivals are consistent with the pairwise distances, and the total
        # discharge stays within the operating range.
        used = 0
        for a, b in zip(route.visits, route.visits[1:]):
            d = combo.distance(a.location, b.location)
            assert b.arrival >= a.arrival + d
            used += math.ceil(discharge * d)
        assert used <= cap
        assert route.length == sum(
            combo.distance(a.location, b.location) for a, b in zip(route.visits, route.visits[1:])
        )


def test_within_job_tasks_are_consecutive_and_ordered(plant21):
    _combo, routes = _solve_routes(plant21)
    for route in routes.routes:
        jobs_stream = [v.job for v in route.task_visits()]
        blocks = [j for j, _group in itertools.groupby(jobs_stream)]
        assert len(blocks) == len(set(blocks))  # each job forms one block
    for job in plant21.customer_jobs():
        arrivals = {}
        for route in routes.routes:
            for v in route.task_visits():
                if v.job == job.name:
                    arrivals[v.task] = v.arrival
        for task in job.tasks:
            for p in task.predecessors:
                assert arrivals[p] <= arrivals[task.name]


def test_blocking_returns_different_dir_model(plant21):
    combo, first = _solve_routes(plant21)
    second = router(plant21, combo, [first])
    assert second is not None
    assert set(second.chosen_dirs) != set(first.chosen_dirs)


def test_out_of_range_job_is_infeasible():
    # The only task sits 10 units away; round trip 20 exceeds the range 15.
    inst = make_instance(
        nodes=[0, 1],
        depot=0,
        segments=[(0, 1, 10, 1)],
        jobs={"J": {"tasks": {"1": (1, 0, None)}}},
        horizon=40,
        operating_range=15,
    )
    _combo, routes = _solve_routes(inst)
    assert routes is None


# -- minimality against exhaustive ordering search -------------------------


def _earliest_feasible(inst, combo, sequence) -> bool:
    """Simulate one route serving `sequence` of tasks at earliest arrivals."""
    depot = inst.graph.depot
    discharge = inst.fleet.discharge_coeff
    time = 0
    charge = inst.fleet.operating_range
    here = depot
    for task in sequence:
        d = combo.distance(here, task.location)
        time = max(time + d, task.window_lo)
        if time > task.window_hi:
            return False
        charge -= math.ceil(discharge * d)
        if charge < 0:
            return False
        here = task.location
    charge -= math.ceil(discharge * combo.distance(here, depot))
    return charge >= 0 and time + combo.distance(here, depot) <= inst.horizon


def _orderings(job):
    names = [t.name for t in job.tasks]
    preds = {t.name: t.predecessors for t in job.tasks}
    for perm in itertools.permutations(names):
        pos = {n: i for i, n in enumerate(perm)}
        if all(pos[p] < pos[n] for n in names for p in preds[n]):
            yield perm


def _ordered_partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for split in _ordered_partitions(rest):
        for i, block in enumerate(split):
            for pos in range(len(block) + 1):
                yield split[:i] + [block[:pos] + [head] + block[pos:]] + split[i + 1 :]
        yield [[head]] + split


def _min_vehicles_brute(inst, combo):
    jobs = inst.customer_jobs()
    best = None
    for partition in _ordered_partitions(list(jobs)):
        if best is not None and len(partition) >= best:
            continue
        ok = True
        for block in partition:
            block_ok = False
            for orders in itertools.product(*[list(_orderings(j)) for j in block]):
                sequence = [
                    j.task(name) for j, order in zip(block, orders) for name in order
                ]
                if _earliest_feasible(inst, combo, sequence):
                    block_ok = True
                    break
            if not block_ok:
                ok = False
                break
        if ok:
            best = len(partition) if best is None else min(best, len(partition))
    return best


@pytest.mark.parametrize("seed", range(8))
def test_route_count_minimal_vs_brute_force(seed):
    inst = generate(GenParams(nodes=8, vehicles=3, jobs=3, edge_reduction=0, horizon=25, seed=seed))
    table = enumerate_paths(inst, 10)
    combo = pathfinder(table, UsedPaths())
    routes = router(inst, combo, [])
    expected = _min_vehicles_brute(inst, combo)
    if expected is None:
        assert routes is None
    else:
        assert routes is not None
        assert len(routes.routes) == expected
