from __future__ import annotations

from dataclasses import replace

import pytest

import comsat
from comsat.assignment import Assignment
from comsat.instance import Edge
from comsat.scheduling import RouteTrace, Schedule, ScheduledTrace, schedule_from_json
from comsat.validation import ValidationInputError, validate

from conftest import make_instance


@pytest.fixture(scope="module")
def solved_plant21(plant21):
    result = comsat.solve(plant21, comsat.SolverConfig())
    assert result.status == comsat.pipeline.SolveStatus.SAT
    return result


def test_solved_schedule_validates(plant21, solved_plant21):
    report = validate(plant21, solved_plant21.schedule, solved_plant21.assignment)
    assert report.ok and not report.violations


def test_late_arrival_is_window_violation(plant21, solved_plant21):
    sched = solved_plant21.schedule
    target = None
    for ti, st in enumerate(sched.traces):
        for pos, job, task in st.trace.serves:
            t = plant21.task(job, task)
            target = (ti, pos, t)
            break
        if target:
            break
    ti, pos, task = target
    st = sched.traces[ti]
    # Shift the serving arrival past the deadline, keeping shape intact.
    delta = task.window_hi + 1 - st.node_times[pos]
    node_times = tuple(t + delta for t in st.node_times)
    edge_times = tuple(t + delta for t in st.edge_times)
    tampered = Schedule(
        traces=sched.traces[:ti]
        + (ScheduledTrace(st.trace, node_times, edge_times),)
        + sched.traces[ti + 1 :],
        makespan=max(sched.makespan, node_times[-1]),
    )
    report = validate(plant21, tampered, solved_plant21.assignment)
    assert not report.ok
    assert "window" in report.kinds()


def _two_node_instance():
    return make_instance(
        nodes=[0, 1],
        depot=0,
        segments=[(0, 1, 2, 1)],
        vehicles=["R1", "R2"],
        jobs={},
        horizon=12,
    )


def _trace(idx, vehicle, nodes, edges, node_times, edge_times):
    trace = RouteTrace(
        route_index=idx,
        vehicle=vehicle,
        start=node_times[0],
        nodes=nodes,
        windows=tuple((0, None) for _ in nodes),
        edges=edges,
    )
    return ScheduledTrace(trace=trace, node_times=node_times, edge_times=edge_times)


def test_head_on_overlap_reports_edge_capacity():
    inst = _two_node_instance()
    out_e = Edge(0, 1, 2, 1)
    back_e = Edge(1, 0, 2, 1)
    a = _trace(0, "R1", (0, 1), (out_e,), (0, 2), (0,))
    b = _trace(1, "R2", (1, 0), (back_e,), (1, 3), (1,))
    sched = Schedule(traces=(a, b), makespan=3)
    asg = Assignment(vehicles=("R1", "R2"), starts=(0, 1), ends=(2, 3))
    report = validate(inst, sched, asg)
    assert not report.ok
    assert "edge-capacity" in report.kinds()


def test_same_direction_over_capacity_detected():
    inst = _two_node_instance()
    out_e = Edge(0, 1, 2, 1)
    a = _trace(0, "R1", (0, 1), (out_e,), (0, 2), (0,))
    b = _trace(1, "R2", (0, 1), (out_e,), (1, 3), (1,))
    sched = Schedule(traces=(a, b), makespan=3)
    asg = Assignment(vehicles=("R1", "R2"), starts=(0, 1), ends=(2, 3))
    report = validate(inst, sched, asg)
    assert "edge-capacity" in report.kinds()


def test_node_handoff_instant_is_swap():
    inst = make_instance(
        nodes=[0, 1, 2],
        depot=0,
        segments=[(0, 1, 1, 1), (1, 2, 1, 1), (2, 0, 1, 1)],
        vehicles=["R1", "R2"],
        jobs={},
        horizon=12,
    )
    e01, e12 = Edge(0, 1, 1, 1), Edge(1, 2, 1, 1)
    e20 = Edge(2, 0, 1, 1)
    # R1 leaves node 1 at t=2; R2 arrives at node 1 at t=2: boundary handoff.
    a = _trace(0, "R1", (0, 1, 2), (e01, e12), (0, 1, 3), (0, 2))
    b = _trace(1, "R2", (0, 1, 2, 0), (e01, e12, e20), (1, 2, 4, 5), (1, 3, 4))
    sched = Schedule(traces=(a, b), makespan=5)
    asg = Assignment(vehicles=("R1", "R2"), starts=(0, 1), ends=(3, 5))
    report = validate(inst, sched, asg)
    assert "swap" in report.kinds() or "node-capacity" in report.kinds()


def test_unknown_vehicle_is_structural_error():
    inst = _two_node_instance()
    a = _trace(0, "GHOST", (0,), (), (0,), ())
    sched = Schedule(traces=(a,), makespan=0)
    asg = Assignment(vehicles=("GHOST",), starts=(0,), ends=(0,))
    with pytest.raises(ValidationInputError):
        validate(inst, sched, asg)


def test_broken_travel_time_is_continuity_violation():
    inst = _two_node_instance()
    out_e = Edge(0, 1, 2, 1)
    back_e = Edge(1, 0, 2, 1)
    a = _trace(0, "R1", (0, 1, 0), (out_e, back_e), (0, 1, 4), (0, 2))
    sched = Schedule(traces=(a,), makespan=4)
    asg = Assignment(vehicles=("R1",), starts=(0,), ends=(4,))
    report = validate(inst, sched, asg)
    assert "continuity" in report.kinds()


def test_unserved_task_reported():
    inst = make_instance(
        nodes=[0, 1],
        depot=0,
        segments=[(0, 1, 1, 1)],
        vehicles=["R1"],
        jobs={"J": {"eligible": ["R1"], "tasks": {"1": (1, 0, None)}}},
        horizon=12,
    )
    sched = Schedule(traces=(), makespan=0)
    asg = Assignment(vehicles=(), starts=(), ends=())
    report = validate(inst, sched, asg)
    assert not report.ok
    assert "window" in report.kinds()


def test_recharge_gap_enforced():
    inst = make_instance(
        nodes=[0, 1],
        depot=0,
        segments=[(0, 1, 2, 1)],
        vehicles=["R1"],
        jobs={},
        horizon=20,
        charge_coeff=1,
    )
    out_e, back_e = Edge(0, 1, 2, 1), Edge(1, 0, 2, 1)
    # Two back-to-back tours with zero gap; recharge needs 4 time units.
    a = _trace(0, "R1", (0, 1, 0), (out_e, back_e), (0, 2, 4), (0, 2))
    b = _trace(1, "R1", (0, 1, 0), (out_e, back_e), (4, 6, 8), (4, 6))
    sched = Schedule(traces=(a, b), makespan=8)
    asg = Assignment(vehicles=("R1", "R1"), starts=(0, 4), ends=(4, 8))
    report = validate(inst, sched, asg)
    assert "charge" in report.kinds()


def test_discharge_beyond_range_detected():
    inst = make_instance(
        nodes=[0, 1],
        depot=0,
        segments=[(0, 1, 2, 1)],
        vehicles=["R1"],
        jobs={},
        horizon=20,
        operating_range=3,
    )
    out_e, back_e = Edge(0, 1, 2, 1), Edge(1, 0, 2, 1)
    a = _trace(0, "R1", (0, 1, 0), (out_e, back_e), (0, 2, 4), (0, 2))
    sched = Schedule(traces=(a,), makespan=4)
    asg = Assignment(vehicles=("R1",), starts=(0,), ends=(4,))
    report = validate(inst, sched, asg)
    assert "charge" in report.kinds()


def test_json_round_trip_schedule_still_validates(plant21, solved_plant21):
    # The JSON carries the serve marks, so the re-read schedule is checked
    # against exactly the marks the solver set.
    text = solved_plant21.schedule.to_json()
    sched = schedule_from_json(text, plant21)
    assert [st.trace.serves for st in sched.traces] == [
        st.trace.serves for st in solved_plant21.schedule.traces
    ]
    report = validate(plant21, sched, solved_plant21.assignment)
    assert report.ok, report.violations


def _with_serves(sched, ti, serves):
    st = sched.traces[ti]
    moved = ScheduledTrace(replace(st.trace, serves=serves), st.node_times, st.edge_times)
    return replace(sched, traces=sched.traces[:ti] + (moved,) + sched.traces[ti + 1 :])


def test_mark_moved_off_task_location_is_reported(plant21, solved_plant21):
    sched = solved_plant21.schedule
    for ti, st in enumerate(sched.traces):
        for k, (pos, job, task) in enumerate(st.trace.serves):
            if pos > 0 and st.trace.nodes[pos - 1] != plant21.task(job, task).location:
                # Claim the task was served one position earlier, on another node.
                serves = st.trace.serves[:k] + ((pos - 1, job, task),) + st.trace.serves[k + 1 :]
                report = validate(plant21, _with_serves(sched, ti, serves), solved_plant21.assignment)
                assert "location" in report.kinds(), report.violations
                return
    pytest.fail("no serve mark has a neighbour on another node")


@pytest.mark.parametrize(
    "bad_mark",
    [lambda pos, job, task: (-1, job, task), lambda pos, job, task: (pos, job, "no-such-task")],
    ids=["negative-position", "unknown-task"],
)
def test_bad_mark_is_structural_error(plant21, solved_plant21, bad_mark):
    sched = solved_plant21.schedule
    ti = next(ti for ti, st in enumerate(sched.traces) if st.trace.serves)
    first, *rest = sched.traces[ti].trace.serves
    with pytest.raises(ValidationInputError):
        validate(plant21, _with_serves(sched, ti, (bad_mark(*first), *rest)), solved_plant21.assignment)
