from __future__ import annotations

import itertools

import pytest

from comsat.assignment import Assignment, assign
from comsat.paths import enumerate_paths, pathfinder
from comsat.routing import RouteSearch, router
from comsat.scheduling import expand_routes, schedule_from_json, scheduler

from conftest import make_instance


def _pipeline(inst, max_paths=10):
    table = enumerate_paths(inst, max_paths)
    combo = pathfinder(table)
    search = RouteSearch(inst, combo)
    while True:
        routes = router(search)
        assert routes is not None, "fixture should be routable"
        asg = assign(inst, routes)
        if asg is not None:
            return combo, routes, asg


def test_expand_depot_only_route():
    inst = make_instance(
        nodes=[0, 1],
        depot=0,
        segments=[(0, 1, 1, 1)],
        jobs={"J": {"tasks": {"1": (0, 0, None)}}},
        horizon=10,
    )
    combo, routes, asg = _pipeline(inst)
    traces = expand_routes(routes, combo, asg)
    assert len(traces) == 1
    assert traces[0].nodes == (0,)
    assert traces[0].edges == ()


def test_expand_line_trace_out_and_back(line3):
    combo, routes, asg = _pipeline(line3)
    traces = expand_routes(routes, combo, asg)
    assert len(traces) == 1
    t = traces[0]
    assert t.nodes == (0, 1, 2, 1, 0)
    assert len(t.edges) == 4
    assert [(e.source, e.sink) for e in t.edges] == [(0, 1), (1, 2), (2, 1), (1, 0)]
    # Serve marks point at the task locations.
    assert [(pos, job) for pos, job, _task in t.serves] == [(1, "J"), (2, "J")]


def test_expand_plant21_job_d_follows_selected_paths(plant21):
    combo, routes, asg = _pipeline(plant21)
    traces = expand_routes(routes, combo, asg)
    for route, trace in zip(routes.routes, traces):
        rebuilt = [route.visits[0].location]
        for a, b in zip(route.visits, route.visits[1:]):
            rebuilt.extend(combo.path(a.location, b.location).nodes[1:])
        assert list(trace.nodes) == rebuilt


def test_single_route_earliest_times(line3):
    combo, routes, asg = _pipeline(line3)
    traces = expand_routes(routes, combo, asg)
    sched = scheduler(line3, traces)
    assert sched is not None
    st = sched.traces[0]
    # No contention: node/edge entries hug the start and travel times.
    assert st.node_times == (0, 1, 2, 3, 4)
    assert st.edge_times == (0, 1, 2, 3)
    assert sched.makespan == 4


def test_edge_and_node_precedence_invariants(plant21):
    combo, routes, asg = _pipeline(plant21)
    traces = expand_routes(routes, combo, asg)
    sched = scheduler(plant21, traces)
    assert sched is not None
    for st in sched.traces:
        for p, edge in enumerate(st.trace.edges):
            assert st.edge_times[p] >= st.node_times[p]
            assert st.node_times[p + 1] == st.edge_times[p] + edge.length
        for (pos, job, task) in st.trace.serves:
            t = plant21.task(job, task)
            assert t.window_lo <= st.node_times[pos] <= t.window_hi


def test_head_on_micro_fixture_matches_exhaustive_enumeration():
    # Two hand-built traces cross one unit-capacity segment of length 2 in
    # opposite directions, both wanting to enter at time 0.
    from comsat.instance import Edge
    from comsat.scheduling import RouteTrace

    inst = make_instance(
        nodes=[0, 1],
        depot=0,
        segments=[(0, 1, 2, 1)],
        vehicles=["R1", "R2"],
        jobs={},
        horizon=12,
    )
    out_edge = Edge(0, 1, 2, 1)
    back_edge = Edge(1, 0, 2, 1)
    tx = RouteTrace(0, "R1", 0, (0, 1), ((0, None), (0, None)), (out_edge,))
    ty = RouteTrace(1, "R2", 0, (1, 0), ((0, None), (0, None)), (back_edge,))
    asg = Assignment(vehicles=("R1", "R2"), starts=(0, 0), ends=(2, 2))
    sched = scheduler(inst, [tx, ty])
    assert sched is not None
    (ex,) = sched.traces[0].edge_times
    (ey,) = sched.traces[1].edge_times

    # Exhaustive oracle: all integer entry pairs; overlapping transits of
    # opposite directions are conflicts, so the best completion of the later
    # vehicle is len(e) after the other's entry.
    feasible_pairs = [
        (a, b)
        for a, b in itertools.product(range(10), repeat=2)
        if a + 2 <= b or b + 2 <= a
    ]
    assert min(max(a, b) for a, b in feasible_pairs) == 2
    assert ex + 2 <= ey or ey + 2 <= ex
    assert max(ex, ey) == 2 and min(ex, ey) == 0


def test_head_on_through_pipeline_corridor():
    # A single corridor (1)-(2) of length 3: one vehicle's return transit
    # must not overlap the other's outbound transit.
    inst = make_instance(
        nodes=[0, 1, 2],
        depot=0,
        segments=[(0, 1, 1, 1), (1, 2, 3, 1)],
        vehicles=["R1", "R2"],
        jobs={
            "A": {"eligible": ["R1"], "tasks": {"1": (2, 0, None)}},
            "B": {"eligible": ["R2"], "tasks": {"1": (2, 7, 9)}},
        },
        horizon=30,
    )
    combo, routes, asg = _pipeline(inst)
    traces = expand_routes(routes, combo, asg)
    sched = scheduler(inst, traces)
    assert sched is not None
    spans = {"out": [], "back": []}
    for st in sched.traces:
        for p, e in enumerate(st.trace.edges):
            if {e.source, e.sink} == {1, 2}:
                kind = "out" if e.source == 1 else "back"
                spans[kind].append((st.edge_times[p], st.edge_times[p] + 3))
    for (a0, a1), (b0, b1) in itertools.product(spans["out"], spans["back"]):
        assert a1 <= b0 or b1 <= a0


def test_same_instant_node_entries_are_separated():
    inst = make_instance(
        nodes=[0, 1, 2, 3],
        depot=0,
        segments=[(0, 1, 1, 1), (1, 2, 1, 1), (2, 3, 1, 1), (3, 0, 1, 1)],
        vehicles=["R1", "R2"],
        jobs={
            "A": {"eligible": ["R1"], "tasks": {"1": (2, 0, None)}},
            "B": {"eligible": ["R2"], "tasks": {"1": (2, 5, None)}},
        },
        horizon=30,
    )
    combo, routes, asg = _pipeline(inst)
    traces = expand_routes(routes, combo, asg)
    sched = scheduler(inst, traces)
    assert sched is not None
    visits = []  # (arrive, depart) at node 2 per trace
    for st in sched.traces:
        for p, node in enumerate(st.trace.nodes):
            if node == 2:
                depart = st.edge_times[p] if p < len(st.trace.edges) else st.node_times[p]
                visits.append((st.node_times[p], depart, st.trace.route_index))
    for (a0, d0, r0), (a1, d1, r1) in itertools.combinations(visits, 2):
        if r0 != r1:
            assert a0 >= d1 + 1 or a1 >= d0 + 1


def test_schedule_json_round_trip(plant21):
    combo, routes, asg = _pipeline(plant21)
    traces = expand_routes(routes, combo, asg)
    sched = scheduler(plant21, traces)
    assert any(st.trace.serves for st in sched.traces)
    text = sched.to_json()
    again = schedule_from_json(text, plant21)
    assert again.makespan == sched.makespan
    assert [st.node_times for st in again.traces] == [st.node_times for st in sched.traces]
    assert [st.edge_times for st in again.traces] == [st.edge_times for st in sched.traces]
    assert [st.trace.nodes for st in again.traces] == [st.trace.nodes for st in sched.traces]
    assert [st.trace.serves for st in again.traces] == [st.trace.serves for st in sched.traces]


@pytest.mark.parametrize("capacity", [2, 1])
def test_capacity_two_segment_overlaps_transits(capacity):
    # Two vehicles run 0 -> 1 -> 2 -> 0 from the depot; only (0, 1) is long
    # and wide.  Entering it together would put both on node 1 at once, so
    # the second enters one step later and the transits overlap; one lane
    # cannot fit both runs in the horizon.
    from comsat.instance import Edge
    from comsat.scheduling import RouteTrace
    from comsat.validation import validate

    inst = make_instance(
        nodes=[0, 1, 2],
        depot=0,
        segments=[(0, 1, 3, capacity), (1, 2, 1, 1), (2, 0, 1, 1)],
        vehicles=["R1", "R2"],
        jobs={},
        horizon=6,
        directed=True,
    )
    edges = (Edge(0, 1, 3, capacity), Edge(1, 2, 1, 1), Edge(2, 0, 1, 1))
    windows = ((0, None),) * 4
    traces = [RouteTrace(i, v, 0, (0, 1, 2, 0), windows, edges) for i, v in enumerate(["R1", "R2"])]
    asg = Assignment(vehicles=("R1", "R2"), starts=(0, 0), ends=(5, 5))
    sched = scheduler(inst, traces)
    if capacity == 1:
        assert sched is None
        return
    assert sched is not None
    assert sorted(st.edge_times[0] for st in sched.traces) == [0, 1]
    assert validate(inst, sched, asg).ok
