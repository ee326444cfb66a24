from __future__ import annotations

import itertools

import pytest

from comsat.generate import GenParams, generate
from comsat.instance import END_JOB, START_JOB
from comsat.oracle import brute_oracle
from comsat.paths import enumerate_paths, pathfinder
from comsat.pipeline import SolverConfig, SolveStatus, solve
from comsat.routing import RouteSearch, router
from comsat.validation import validate

from conftest import make_instance


def _solve_routes(inst):
    combo = pathfinder(enumerate_paths(inst, 10))
    return combo, router(RouteSearch(inst, combo))


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
            used += discharge * d
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


def _ring(n):
    return [(i, (i + 1) % n, 1, 1) for i in range(n)]


def _three_task_job_instance():
    # Two pickups with no order between them, then a delivery.  Serving K
    # between p1 and p2 would fit everything on one route; keeping J in one
    # block needs a second route.
    return make_instance(
        nodes=range(5),
        depot=0,
        segments=_ring(5),
        vehicles=["R1", "R2"],
        jobs={
            "J": {"tasks": {"p1": (1, 0, 1), "p2": (3, 0, None), "d": (4, 0, None, ["p1", "p2"])}},
            "K": {"tasks": {"1": (2, 0, 3)}},
        },
        horizon=30,
    )


def _five_task_job_instance():
    # As above, with a five-task job whose first task must come first.
    return make_instance(
        nodes=range(7),
        depot=0,
        segments=_ring(7),
        vehicles=["R1", "R2"],
        jobs={
            "J": {
                "tasks": {
                    "a": (1, 0, 1),
                    "b": (5, 0, None),
                    "c": (4, 0, None, ["a"]),
                    "d": (3, 0, None),
                    "e": (6, 0, None, ["b", "c", "d"]),
                }
            },
            "K": {"tasks": {"1": (2, 0, 3)}},
        },
        horizon=40,
    )


@pytest.mark.parametrize("build", [_three_task_job_instance, _five_task_job_instance])
def test_multi_task_job_is_one_ordered_block(build):
    inst = build()
    job = inst.job("J")
    _combo, routes = _solve_routes(inst)
    assert routes is not None
    (route,) = [r for r in routes.routes if "J" in r.jobs]
    stream = [v.job for v in route.task_visits()]
    first = stream.index("J")
    assert stream[first : first + len(job.tasks)] == ["J"] * len(job.tasks)
    assert stream.count("J") == len(job.tasks)
    position = {v.task: i for i, v in enumerate(route.task_visits()) if v.job == "J"}
    for task in job.tasks:
        for p in task.predecessors:
            assert position[p] < position[task.name]

    result = solve(inst, SolverConfig(total_timeout=60))
    assert result.status == SolveStatus.SAT
    assert validate(inst, result.schedule, result.assignment).ok


def _sequences(routes):
    """The task sequences of a route set, which its arc set determines."""
    return frozenset(tuple((v.job, v.task) for v in r.visits) for r in routes.routes)


def test_blocking_returns_different_dir_model(plant21):
    search = RouteSearch(plant21, pathfinder(enumerate_paths(plant21, 10)))
    first, second = router(search), router(search)
    assert second is not None
    assert _sequences(second) != _sequences(first)


@pytest.mark.parametrize("first, second", [
    (("a.b", "c"), ("a", "b.c")),
    (("a_b", "c"), ("a", "b_c")),
], ids=["dot", "underscore"])
def test_tasks_whose_joined_names_coincide(first, second):
    inst = make_instance(
        nodes=[0, 1, 2],
        depot=0,
        segments=[(0, 1, 1, 1), (1, 2, 1, 1)],
        jobs={first[0]: {"tasks": {first[1]: (1, 0, None)}},
              second[0]: {"tasks": {second[1]: (2, 0, None)}}},
        horizon=20,
    )
    result = solve(inst, SolverConfig(total_timeout=30.0, stage_timeout=30.0))
    assert result.status == SolveStatus.SAT
    assert validate(inst, result.schedule, result.assignment).ok


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


def test_fractional_discharge_is_not_rounded_up():
    # Out to 1, on to 2 and back: arcs of 1, 1 and 2 drain 0.5 + 0.5 + 1,
    # exactly the range 2.  Rounding each arc up drained 3 and made the
    # shortest-distance router declare the instance infeasible.
    inst = make_instance(
        nodes=[0, 1, 2],
        depot=0,
        segments=[(0, 1, 1, 1), (1, 2, 1, 1)],
        jobs={"J": {"tasks": {"1": (1, 0, None), "2": (2, 0, None, ["1"])}}},
        horizon=10,
        operating_range=2,
        discharge_coeff=0.5,
    )
    assert brute_oracle(inst) is True
    result = solve(inst, SolverConfig(total_timeout=10.0))
    assert result.status == SolveStatus.SAT
    assert validate(inst, result.schedule, result.assignment).ok


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
        charge -= discharge * d
        if charge < 0:
            return False
        here = task.location
    charge -= discharge * combo.distance(here, depot)
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
    combo = pathfinder(table)
    routes = router(RouteSearch(inst, combo))
    expected = _min_vehicles_brute(inst, combo)
    if expected is None:
        assert routes is None
    else:
        assert routes is not None
        assert len(routes.routes) == expected


def _route_set_count_brute(inst, combo):
    """How many route sets the router admits: each is a set of feasible
    routes that serves every job once, in one block of precedence order."""
    count = 0
    for partition in _ordered_partitions(list(inst.customer_jobs())):
        sets = 1
        for block in partition:
            sets *= sum(
                _earliest_feasible(inst, combo, [j.task(name) for j, order in zip(block, orders) for name in order])
                for orders in itertools.product(*[list(_orderings(j)) for j in block])
            )
        count += sets
    return count


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("jobs", [2, 3])
def test_one_search_lists_every_route_set_once(jobs, seed):
    inst = generate(GenParams(nodes=8, vehicles=3, jobs=jobs, edge_reduction=0, horizon=25, seed=seed))
    combo = pathfinder(enumerate_paths(inst, 10))
    search = RouteSearch(inst, combo)
    listed = []
    while (routes := router(search)) is not None:
        listed.append(routes)
    assert len(set(map(_sequences, listed))) == len(listed)
    sizes = [len(rs.routes) for rs in listed]
    assert sizes == sorted(sizes)
    assert len(listed) == _route_set_count_brute(inst, combo)
