"""Vehicle-to-route matching with deadlines and recharge separation.

Routes become jobs of a small shop problem: each needs exactly one vehicle
drawn from the intersection of its jobs' eligibility sets, must start
early enough to meet its strictest deadline, and two routes on the same
vehicle must be separated by the recharge gap proportional to the length
of the route about to start.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import backend as B
from .instance import Instance
from .routing import Route, RouteSet


@dataclass(frozen=True)
class RouteMeta:
    route: Route
    eligible: tuple[str, ...]
    length: int
    latest_start: int


@dataclass(frozen=True)
class Assignment:
    vehicles: tuple[str, ...]
    starts: tuple[int, ...]
    ends: tuple[int, ...]

    def to_json(self) -> str:
        return json.dumps(
            {
                "assignments": [
                    {"route": i, "vehicle": v, "start": s, "end": e}
                    for i, (v, s, e) in enumerate(zip(self.vehicles, self.starts, self.ends))
                ]
            },
            indent=2,
        )


def assignment_from_json(text: str) -> Assignment:
    data = json.loads(text)
    rows = sorted(data["assignments"], key=lambda r: r["route"])
    return Assignment(
        vehicles=tuple(r["vehicle"] for r in rows),
        starts=tuple(r["start"] for r in rows),
        ends=tuple(r["end"] for r in rows),
    )


def route_meta(inst: Instance, route: Route) -> RouteMeta:
    eligible = set(inst.fleet.vehicles)
    for job_name in route.jobs:
        eligible &= inst.job(job_name).eligible
    ordered = tuple(v for v in inst.fleet.vehicles if v in eligible)
    return RouteMeta(route=route, eligible=ordered, length=route.length, latest_start=route.latest_start)


def assign(
    inst: Instance,
    routes: RouteSet,
    timeout: float | None = None,
) -> Assignment | None:
    """Feasible vehicle allocation with start times, or None.

    Empty eligibility or an impossible deadline short-circuits to
    infeasible without invoking the backend.  Raises TimeoutError when the
    backend gives up.
    """
    metas = [route_meta(inst, r) for r in routes.routes]
    if not metas:
        return Assignment(vehicles=(), starts=(), ends=())
    for meta in metas:
        if not meta.eligible or meta.latest_start < 0:
            return None

    ctx = B.SolverContext()
    horizon = inst.horizon
    charge = inst.fleet.charge_coeff
    starts = [
        ctx.int_var(f"start_{i}", 0, min(meta.latest_start, horizon))
        for i, meta in enumerate(metas)
    ]
    ends = [ctx.int_var(f"end_{i}", 0, horizon) for i in range(len(metas))]
    allo = [
        {v: ctx.bool_var(f"allo_{v}_{i}") for v in inst.fleet.vehicles}
        for i in range(len(metas))
    ]
    for i, meta in enumerate(metas):
        ctx.add(ends[i] - starts[i] <= meta.length)
        ctx.add(ends[i] - starts[i] >= meta.length)
        ctx.add(B.exactly_one(list(allo[i].values())))
        ctx.add(B.clause(*[allo[i][v] for v in meta.eligible]))
    for i, meta_i in enumerate(metas):
        for j in range(i + 1, len(metas)):
            meta_j = metas[j]
            gap_i = math.ceil(charge * meta_i.length)
            gap_j = math.ceil(charge * meta_j.length)
            for v in inst.fleet.vehicles:
                ctx.add(
                    B.implies(
                        [allo[i][v], allo[j][v]],
                        [starts[i] - ends[j] >= gap_i, starts[j] - ends[i] >= gap_j],
                    )
                )

    result = ctx.check_minimize(timeout=timeout)
    if result.status == B.Status.TIMEOUT:
        raise TimeoutError("assignment timed out")
    if result.status == B.Status.UNSAT:
        return None
    model = result.model
    chosen = []
    for i in range(len(metas)):
        chosen.append(next(v for v in inst.fleet.vehicles if model[allo[i][v]]))
    return Assignment(
        vehicles=tuple(chosen),
        starts=tuple(model[s] for s in starts),
        ends=tuple(model[e] for e in ends),
    )
