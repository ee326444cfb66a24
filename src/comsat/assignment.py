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
from .instance import Instance, ValidationInputError, json_fields
from .routing import Route, RouteSet


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
    """Rebuild an Assignment; ValidationInputError on a missing or mistyped
    field, or unless the rows name the routes ``0..n-1`` once each."""
    (rows,) = json_fields(json.loads(text), "assignment file", assignments=list)
    # (route, vehicle, start, end) per row, in route order.
    fields = sorted(
        json_fields(row, "assignment row", route=int, vehicle=str, start=int, end=int) for row in rows
    )
    if [f[0] for f in fields] != list(range(len(fields))):
        raise ValidationInputError("assignment rows must name the routes 0..n-1, each once")
    return Assignment(
        vehicles=tuple(f[1] for f in fields),
        starts=tuple(f[2] for f in fields),
        ends=tuple(f[3] for f in fields),
    )


def _eligible_vehicles(inst: Instance, route: Route) -> list[str]:
    """The vehicles every job of ``route`` accepts, in fleet order."""
    accepted = [inst.job(name).eligible for name in route.jobs]
    return [v for v in inst.fleet.vehicles if all(v in eligible for eligible in accepted)]


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
    rs = routes.routes
    if not rs:
        return Assignment(vehicles=(), starts=(), ends=())
    eligible = [_eligible_vehicles(inst, r) for r in rs]
    if not all(eligible) or any(r.latest_start < 0 for r in rs):
        return None

    ctx = B.SolverContext()
    horizon = inst.horizon
    charge = inst.fleet.charge_coeff
    starts = [ctx.int_var(0, min(r.latest_start, horizon)) for r in rs]
    ends = [ctx.int_var(0, horizon) for _ in rs]
    allo = [{v: ctx.bool_var() for v in inst.fleet.vehicles} for _ in rs]
    for i, r in enumerate(rs):
        ctx.clause(ends[i] - starts[i] <= r.length)
        ctx.clause(ends[i] - starts[i] >= r.length)
        ctx.exactly(allo[i].values(), 1)
        ctx.clause(*[allo[i][v] for v in eligible[i]])
    for i, r_i in enumerate(rs):
        for j in range(i + 1, len(rs)):
            gap_i = math.ceil(charge * r_i.length)
            gap_j = math.ceil(charge * rs[j].length)
            for v in inst.fleet.vehicles:
                ctx.implies(
                    [allo[i][v], allo[j][v]],
                    [starts[i] - ends[j] >= gap_i, starts[j] - ends[i] >= gap_j],
                )

    model = ctx.check_minimize(timeout=timeout)
    if model is None:
        return None
    return Assignment(
        vehicles=tuple(next(v for v in inst.fleet.vehicles if model[a[v]]) for a in allo),
        starts=tuple(model[s] for s in starts),
        ends=tuple(model[e] for e in ends),
    )
