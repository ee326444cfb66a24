"""Conflict-free timing of assigned routes over nodes and edges.

Each route expands into the full node/edge sequence induced by the selected
paths between its visits.  Entry times then have to respect travel times,
task windows, single occupancy of non-depot nodes (with one-step margins
that also rule out position swaps), simultaneous same-direction edge
occupancy up to the edge capacity, head-on exclusion on opposite
directions, and per-vehicle turnaround: a vehicle starts its next route
only after finishing the previous one plus the recharge gap.

Each trace carries serve marks: which of its positions serve which task.
The Schedule JSON keeps them, so a schedule read back from a file is
validated against exactly what the solver claimed.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

from . import backend as B
from .assignment import Assignment
from .instance import END_JOB, START_JOB, Edge, Instance, ValidationInputError, json_fields
from .paths import PathCombination
from .routing import RouteSet


@dataclass(frozen=True)
class RouteTrace:
    route_index: int
    vehicle: str
    start: int
    nodes: tuple[int, ...]
    windows: tuple[tuple[int, int | None], ...]
    edges: tuple[Edge, ...]
    serves: tuple[tuple[int, str, str], ...] = ()  # (position, job, task)


@dataclass(frozen=True)
class ScheduledTrace:
    trace: RouteTrace
    node_times: tuple[int, ...]
    edge_times: tuple[int, ...]


@dataclass(frozen=True)
class Schedule:
    traces: tuple[ScheduledTrace, ...]
    makespan: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "traces": [
                    {
                        "route": st.trace.route_index,
                        "vehicle": st.trace.vehicle,
                        "nodes": [
                            {"node": n, "t": t} for n, t in zip(st.trace.nodes, st.node_times)
                        ],
                        "edges": [
                            {"u": e.source, "v": e.sink, "t": t}
                            for e, t in zip(st.trace.edges, st.edge_times)
                        ],
                        "serves": [
                            {"pos": pos, "job": job, "task": task} for pos, job, task in st.trace.serves
                        ],
                    }
                    for st in self.traces
                ],
                "makespan": self.makespan,
            },
            indent=2,
        )


def schedule_from_json(text: str, inst: Instance) -> Schedule:
    """Rebuild a Schedule from its JSON form (windows default to the horizon).

    Raises ValidationInputError on a missing or mistyped field and on an
    edge the plant does not have.
    """
    traces_json, makespan = json_fields(json.loads(text), "schedule file", traces=list, makespan=int)
    edge_map = inst.graph.edge_map()
    traces = []
    for body in traces_json:
        route, vehicle, nodes_json, edges_json, serves_json = json_fields(
            body, "trace", route=int, vehicle=str, nodes=list, edges=list, serves=list
        )
        node_items = [json_fields(item, "trace node", node=int, t=int) for item in nodes_json]
        edge_items = [json_fields(item, "trace edge", u=int, v=int, t=int) for item in edges_json]
        for u, v, _t in edge_items:
            if (u, v) not in edge_map:
                raise ValidationInputError(f"unknown edge ({u}, {v}) in trace")
        node_times = tuple(t for _node, t in node_items)
        edge_times = tuple(t for _u, _v, t in edge_items)
        trace = RouteTrace(
            route_index=route,
            vehicle=vehicle,
            start=node_times[0] if node_times else 0,
            nodes=tuple(node for node, _t in node_items),
            windows=tuple((0, None) for _ in node_items),
            edges=tuple(edge_map[(u, v)] for u, v, _t in edge_items),
            serves=tuple(json_fields(item, "serve mark", pos=int, job=str, task=str) for item in serves_json),
        )
        traces.append(ScheduledTrace(trace=trace, node_times=node_times, edge_times=edge_times))
    return Schedule(traces=tuple(traces), makespan=makespan)


def expand_routes(routes: RouteSet, paths: PathCombination, asg: Assignment) -> list[RouteTrace]:
    """Concatenate the selected paths between consecutive visits of each route.

    Task-location positions carry the task windows (intersected when several
    visits collapse onto one position); intermediate nodes are unconstrained.
    """
    traces = []
    for index, route in enumerate(routes.routes):
        first = route.visits[0]
        nodes: list[int] = [first.location]
        windows: list[tuple[int, int | None]] = [(first.window_lo, first.window_hi)]
        edges: list[Edge] = []
        serves: list[tuple[int, str, str]] = []
        for a, b in zip(route.visits, route.visits[1:]):
            hop = paths.path(a.location, b.location)
            if hop.edges:
                for edge, node in zip(hop.edges, hop.nodes[1:]):
                    edges.append(edge)
                    nodes.append(node)
                    windows.append((0, None))
                windows[-1] = (b.window_lo, b.window_hi)
            else:
                # Consecutive visits at one location share a position; their
                # windows intersect there.
                lo, hi = windows[-1]
                merged_hi = b.window_hi if hi is None else min(hi, b.window_hi)
                windows[-1] = (max(lo, b.window_lo), merged_hi)
            if b.job not in (START_JOB, END_JOB):
                serves.append((len(nodes) - 1, b.job, b.task))
        traces.append(
            RouteTrace(
                route_index=index,
                vehicle=asg.vehicles[index],
                start=asg.starts[index],
                nodes=tuple(nodes),
                windows=tuple(windows),
                edges=tuple(edges),
                serves=tuple(serves),
            )
        )
    return traces


def scheduler(
    inst: Instance,
    traces: list[RouteTrace],
    timeout: float | None = None,
) -> Schedule | None:
    """Solve entry times for all traces, or None when conflicts cannot resolve."""
    if not traces:
        return Schedule(traces=(), makespan=0)
    horizon = inst.horizon
    depot = inst.graph.depot
    charge = inst.fleet.charge_coeff
    ctx = B.SolverContext()

    node_vars: list[list[B.IntRef]] = []
    edge_vars: list[list[B.IntRef]] = []
    for trace in traces:
        nv = []
        for p, (node, (lo, hi)) in enumerate(zip(trace.nodes, trace.windows)):
            lower = max(lo, trace.start) if p == 0 else lo
            upper = horizon if hi is None else hi
            if lower > upper:
                return None
            nv.append(ctx.int_var(lower, upper))
        ev = [ctx.int_var(0, horizon) for _ in trace.edges]
        node_vars.append(nv)
        edge_vars.append(ev)
        for p, edge in enumerate(trace.edges):
            ctx.clause(ev[p] - nv[p] >= 0)
            # Arrival is exactly the edge entry plus its travel time, so the
            # replayed occupancy has no gaps; waiting happens at nodes.
            ctx.clause(nv[p + 1] - ev[p] >= edge.length)
            ctx.clause(nv[p + 1] - ev[p] <= edge.length)

    # Non-depot nodes hold one vehicle at a time; the one-step margin keeps
    # a vehicle from entering the instant another leaves (no swaps).
    occupancy: dict[int, list[tuple[int, int]]] = {}
    for ti, trace in enumerate(traces):
        for p, node in enumerate(trace.nodes):
            if node == depot:
                continue
            occupancy.setdefault(node, []).append((ti, p))
    def departure_var(ti: int, p: int):
        # A vehicle holds a node from arrival until it enters the next edge;
        # a trace's final position is occupied for the arrival instant only.
        return edge_vars[ti][p] if p < len(edge_vars[ti]) else node_vars[ti][p]

    for node, occurrences in occupancy.items():
        for (ta, pa), (tb, pb) in itertools.combinations(occurrences, 2):
            if ta == tb:
                continue
            ctx.clause(
                node_vars[ta][pa] - departure_var(tb, pb) >= 1,
                node_vars[tb][pb] - departure_var(ta, pa) >= 1,
            )

    by_edge: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for ti, trace in enumerate(traces):
        for p, edge in enumerate(trace.edges):
            by_edge.setdefault((edge.source, edge.sink), []).append((ti, p))
    edge_map = inst.graph.edge_map()

    for (u, v), occurrences in by_edge.items():
        length = edge_map[(u, v)].length
        capacity = edge_map[(u, v)].capacity
        # At most `capacity` simultaneous same-direction occupants: in every
        # group of capacity+1 traversals, some pair must be a full travel
        # time apart.  Two entries at one instant need no rule of their own:
        # they would reach the sink together, or, when the sink is the
        # depot, leave the (non-depot) source together, and node occupancy
        # forbids both.
        if len(occurrences) > capacity:
            for subset in itertools.combinations(occurrences, capacity + 1):
                if len({o[0] for o in subset}) < 2:
                    continue
                lits = [
                    edge_vars[ta][pa] - edge_vars[tb][pb] >= length
                    for (ta, pa), (tb, pb) in itertools.permutations(subset, 2)
                    if ta != tb
                ]
                ctx.clause(*lits)

        reverse = by_edge.get((v, u))
        if reverse and (u, v) < (v, u):
            rev_length = edge_map[(v, u)].length
            for (ta, pa), (tb, pb) in itertools.product(occurrences, reverse):
                if ta == tb:
                    continue
                # Head-on: one vehicle must be done transiting before the
                # opposite one starts, regardless of capacity.
                ctx.clause(
                    edge_vars[ta][pa] - edge_vars[tb][pb] >= rev_length,
                    edge_vars[tb][pb] - edge_vars[ta][pa] >= length,
                )

    # A vehicle turns around: next route starts only after the previous one
    # finished plus the recharge gap for the upcoming length.
    per_vehicle: dict[str, list[int]] = {}
    for ti, trace in enumerate(traces):
        per_vehicle.setdefault(trace.vehicle, []).append(ti)
    route_lengths = {ti: sum(e.length for e in trace.edges) for ti, trace in enumerate(traces)}
    for items in per_vehicle.values():
        items.sort(key=lambda ti: (traces[ti].start, traces[ti].route_index))
        for earlier, later in zip(items, items[1:]):
            gap = math.ceil(charge * route_lengths[later])
            ctx.clause(node_vars[later][0] - node_vars[earlier][-1] >= gap)

    model = ctx.check_minimize(timeout=timeout)
    if model is None:
        return None
    scheduled = []
    makespan = 0
    for ti, trace in enumerate(traces):
        node_times = tuple(model[v] for v in node_vars[ti])
        edge_times = tuple(model[v] for v in edge_vars[ti])
        makespan = max(makespan, node_times[-1] if node_times else 0)
        scheduled.append(ScheduledTrace(trace=trace, node_times=node_times, edge_times=edge_times))
    return Schedule(traces=tuple(scheduled), makespan=makespan)
