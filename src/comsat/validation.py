"""Independent schedule validation by discrete replay.

The validator re-checks a finished schedule against the ground rules only:
task windows, one vehicle per job with job blocks executed back to back,
precedence inside jobs, linear battery discharge with recharge gaps between
routes, depot return, unit occupancy of non-depot nodes, edge capacities,
and no head-on or position-swap events.  It shares no code with the
constraint models, so it serves as the soundness oracle for everything the
solver emits.

Which task each trace position serves comes from the trace's serve marks,
which the solver sets and the Schedule JSON carries; the validator checks
the marks themselves (the node is the task's location, each task is served
once) and never guesses them.

Structurally broken inputs (unknown vehicles, tasks or edges, mismatched
trace shapes, a trace on another vehicle than its route's assignment row,
serve marks outside their trace) raise
:class:`ValidationInputError`; rule violations are reported, not raised.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .assignment import Assignment
from .instance import Instance, ValidationInputError
from .scheduling import Schedule, ScheduledTrace


@dataclass(frozen=True)
class Violation:
    kind: str  # window | location | node-capacity | edge-capacity | swap |
    #            charge | eligibility | continuity | precedence
    time: int | None
    entities: tuple[str, ...]


@dataclass
class ValidationReport:
    ok: bool
    violations: list[Violation] = field(default_factory=list)

    def kinds(self) -> set[str]:
        return {v.kind for v in self.violations}


def _structure_check(inst: Instance, sched: Schedule, asg: Assignment) -> None:
    n_routes = len(asg.vehicles)
    if not (len(asg.starts) == len(asg.ends) == n_routes):
        raise ValidationInputError("assignment columns have inconsistent lengths")
    for v in asg.vehicles:
        if v not in inst.fleet.vehicles:
            raise ValidationInputError(f"unknown vehicle {v!r} in assignment")
    edge_map = inst.graph.edge_map()
    customer_tasks = {(t.job, t.name) for t in inst.customer_tasks()}
    for st in sched.traces:
        t = st.trace
        if not 0 <= t.route_index < n_routes:
            raise ValidationInputError(f"trace references unknown route {t.route_index}")
        if t.vehicle != asg.vehicles[t.route_index]:
            raise ValidationInputError(f"trace of route {t.route_index} runs on {t.vehicle!r}, "
                                       f"its assignment row on {asg.vehicles[t.route_index]!r}")
        if not t.nodes:
            raise ValidationInputError(f"trace of route {t.route_index} has no nodes")
        if len(t.edges) != len(t.nodes) - 1:
            raise ValidationInputError("trace edge list length must be node list length - 1")
        if len(st.node_times) != len(t.nodes) or len(st.edge_times) != len(t.edges):
            raise ValidationInputError("trace timing arrays do not match its shape")
        for n in t.nodes:
            if n not in inst.graph.nodes:
                raise ValidationInputError(f"unknown node {n} in trace")
        for p, e in enumerate(t.edges):
            if (e.source, e.sink) not in edge_map:
                raise ValidationInputError(f"unknown edge ({e.source}, {e.sink}) in trace")
            if e.source != t.nodes[p] or e.sink != t.nodes[p + 1]:
                raise ValidationInputError("trace edges do not connect consecutive nodes")
        for (pos, job, task) in t.serves:
            if (job, task) not in customer_tasks:
                raise ValidationInputError(f"serve mark for unknown task {job}/{task}")
            if not 0 <= pos < len(t.nodes):
                raise ValidationInputError(f"serve mark of {job}/{task} outside its trace")


def _node_intervals(st: ScheduledTrace) -> list[tuple[int, int, int]]:
    """(node, arrival, departure) per position; the last position departs never."""
    out = []
    for p, node in enumerate(st.trace.nodes):
        arrive = st.node_times[p]
        depart = st.edge_times[p] if p < len(st.trace.edges) else arrive
        out.append((node, arrive, depart))
    return out


def validate(inst: Instance, sched: Schedule, asg: Assignment) -> ValidationReport:
    """Replay the schedule and report every broken requirement."""
    _structure_check(inst, sched, asg)
    violations: list[Violation] = []
    depot = inst.graph.depot
    horizon = inst.horizon

    # Continuity of each trace: times fit travel, routes anchor at the depot.
    for st in sched.traces:
        t = st.trace
        name = f"route{t.route_index}"
        if t.nodes[0] != depot or t.nodes[-1] != depot:
            violations.append(Violation("continuity", None, (name, "not depot-anchored")))
        for p, edge in enumerate(t.edges):
            if st.edge_times[p] < st.node_times[p]:
                violations.append(Violation("continuity", st.edge_times[p], (name, f"edge {p} before node")))
            if st.node_times[p + 1] != st.edge_times[p] + edge.length:
                violations.append(Violation("continuity", st.node_times[p + 1], (name, f"arrival {p + 1} off travel time")))
        if st.node_times[0] < 0 or st.node_times[-1] > horizon:
            violations.append(Violation("window", st.node_times[-1], (name, "outside horizon")))

    marks, streams = _collect_marks(sched, violations)

    _check_windows_and_sequencing(inst, sched, marks, streams, violations)
    _check_charge(inst, sched, violations)
    _check_eligibility(inst, sched, marks, violations)
    _check_node_occupancy(inst, sched, violations)
    _check_edges(inst, sched, violations)

    return ValidationReport(ok=not violations, violations=violations)


def _collect_marks(sched, violations):
    """Marks (job, task) -> (trace, position, time) plus per-vehicle streams.

    The marks are the ones the traces carry.  A stream lists the job of
    every serve in execution order, used for the job-block discipline check;
    it follows the traces' start times and the marks' positions, so that
    zero-duration ties cannot reshuffle it.
    """
    marks: dict[tuple[str, str], tuple[int, int, int]] = {}
    streams: dict[str, list[str]] = {}
    order = sorted(range(len(sched.traces)), key=lambda ti: (sched.traces[ti].node_times[0], ti))
    for ti in order:
        st = sched.traces[ti]
        for pos, job, task in sorted(st.trace.serves, key=lambda mark: mark[0]):
            if (job, task) in marks:
                violations.append(Violation("precedence", None, (job, task, "served twice")))
            marks[(job, task)] = (ti, pos, st.node_times[pos])
            streams.setdefault(st.trace.vehicle, []).append(job)
    return marks, streams


def _check_windows_and_sequencing(inst, sched, marks, streams, violations) -> None:
    for job in inst.customer_jobs():
        closure = {t.name: t.predecessors for t in job.tasks}
        vehicles = set()
        for task in job.tasks:
            mark = marks.get((job.name, task.name))
            if mark is None:
                violations.append(Violation("window", None, (job.name, task.name, "never served")))
                continue
            ti, pos, t = mark
            trace = sched.traces[ti].trace
            vehicles.add(trace.vehicle)
            if trace.nodes[pos] != task.location:
                where = f"served at node {trace.nodes[pos]}"
                violations.append(Violation("location", t, (job.name, task.name, where)))
            if not (task.window_lo <= t <= task.window_hi):
                violations.append(Violation("window", t, (job.name, task.name)))
            for p in closure[task.name]:
                pm = marks.get((job.name, p))
                if pm is not None and pm[2] > t:
                    violations.append(Violation("precedence", t, (job.name, p, task.name)))
        if len(vehicles) > 1:
            violations.append(Violation("precedence", None, (job.name, "split across vehicles")))

    # Job blocks must not interleave on a vehicle.
    for vehicle, stream in streams.items():
        seen_blocks: list[str] = []
        for job in stream:
            if seen_blocks and seen_blocks[-1] == job:
                continue
            if job in seen_blocks:
                violations.append(Violation("precedence", None, (vehicle, job, "job block interleaved")))
            seen_blocks.append(job)


def _check_charge(inst, sched, violations) -> None:
    discharge = inst.fleet.discharge_coeff
    charge = inst.fleet.charge_coeff
    cap = Fraction(inst.fleet.operating_range)
    by_vehicle: dict[str, list[ScheduledTrace]] = {}
    for st in sched.traces:
        by_vehicle.setdefault(st.trace.vehicle, []).append(st)
    for vehicle, sts in by_vehicle.items():
        sts.sort(key=lambda st: st.node_times[0])
        for st in sts:
            length = sum(e.length for e in st.trace.edges)
            if discharge * length > cap:
                violations.append(
                    Violation("charge", st.node_times[0], (vehicle, f"route{st.trace.route_index} exceeds range"))
                )
        for prev, nxt in zip(sts, sts[1:]):
            gap = nxt.node_times[0] - prev.node_times[-1]
            if gap < 0:
                violations.append(Violation("continuity", nxt.node_times[0], (vehicle, "overlapping routes")))
            need = charge * sum(e.length for e in nxt.trace.edges)
            if Fraction(gap) < need:
                violations.append(Violation("charge", nxt.node_times[0], (vehicle, "recharge gap too short")))


def _check_eligibility(inst, sched, marks, violations) -> None:
    for (job_name, _task), (ti, _pos, _t) in marks.items():
        vehicle = sched.traces[ti].trace.vehicle
        if vehicle not in inst.job(job_name).eligible:
            violations.append(Violation("eligibility", None, (vehicle, job_name)))


def _check_node_occupancy(inst, sched, violations) -> None:
    depot = inst.graph.depot
    per_node: dict[int, list[tuple[int, int, int]]] = {}
    for ti, st in enumerate(sched.traces):
        for node, arrive, depart in _node_intervals(st):
            if node == depot:
                continue
            per_node.setdefault(node, []).append((arrive, depart, ti))
    for node, intervals in per_node.items():
        for (a1, d1, t1), (a2, d2, t2) in itertools.combinations(intervals, 2):
            if t1 == t2:
                continue
            lo, hi = max(a1, a2), min(d1, d2)
            if lo < hi:
                violations.append(Violation("node-capacity", lo, (f"node {node}", f"trace{t1}", f"trace{t2}")))
            elif lo == hi:
                # Boundary handoff: one enters the instant the other leaves.
                violations.append(Violation("swap", lo, (f"node {node}", f"trace{t1}", f"trace{t2}")))


def _check_edges(inst, sched, violations) -> None:
    edge_map = inst.graph.edge_map()
    occupancy: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for ti, st in enumerate(sched.traces):
        for p, edge in enumerate(st.trace.edges):
            t0 = st.edge_times[p]
            occupancy.setdefault((edge.source, edge.sink), []).append((t0, t0 + edge.length, ti))
    for (u, v), intervals in occupancy.items():
        cap = edge_map[(u, v)].capacity
        times = sorted({t for t0, t1, _ in intervals for t in (t0, t1)})
        for t in times:
            active = [ti for t0, t1, ti in intervals if t0 <= t < t1]
            if len(active) > cap:
                violations.append(
                    Violation("edge-capacity", t, (f"edge ({u}, {v})",) + tuple(f"trace{t}" for t in active))
                )
                break
        reverse = occupancy.get((v, u))
        if reverse and (u, v) < (v, u):
            # Opposite directions share the physical segment: any overlap
            # exceeds what the segment can carry.
            for (a0, a1, ta), (b0, b1, tb) in itertools.product(intervals, reverse):
                if ta != tb and max(a0, b0) < min(a1, b1):
                    violations.append(
                        Violation("edge-capacity", max(a0, b0), (f"edge ({u}, {v})", f"trace{ta}", f"trace{tb}"))
                    )
