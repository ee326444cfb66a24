"""The compositional solve loop with backtracking.

Path selection feeds routing, routing feeds assignment, assignment feeds
scheduling.  Whenever a stage comes back infeasible the loop backtracks:
assignment or scheduling failures ask the router for a different route set
(previous ones are blocked); a routing failure asks for a new path
combination -- unless no route set was ever produced for the current
combination, in which case the instance is declared infeasible outright,
because any remaining combination only has longer paths.  Iteration caps
and timeouts surface as "unknown", never as a false "unsat".

Every stage call goes through one stage runner, which hands the stage its
share of the remaining time, counts and times the call, and turns an
exhausted deadline into the same ``TimeoutError`` a stage raises when its
own budget runs out; ``solve`` maps that to "unknown".
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field

from .assignment import Assignment, assign
from .instance import Instance
from .paths import PathCombination, UsedPaths, enumerate_paths, pathfinder
from .routing import RouteSet, router
from .scheduling import Schedule, expand_routes, scheduler
from .validation import validate


class SolveStatus(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class SolverConfig:
    max_paths: int = 10
    max_route_iters: int = 10
    stage_timeout: float = 60.0
    total_timeout: float = 300.0
    strict_pairwise_edges: bool = False

    def __post_init__(self) -> None:
        if min(self.max_paths, self.max_route_iters) < 1:
            raise ValueError("iteration limits must be positive")
        if min(self.stage_timeout, self.total_timeout) <= 0:
            raise ValueError("timeouts must be positive")


@dataclass
class SolveResult:
    status: SolveStatus
    schedule: Schedule | None = None
    assignment: Assignment | None = None
    routes: RouteSet | None = None
    paths: PathCombination | None = None
    stats: dict = field(default_factory=dict)


def solve(inst: Instance, cfg: SolverConfig | None = None) -> SolveResult:
    """Run the full loop until a validated schedule, infeasibility, or a cap."""
    cfg = cfg or SolverConfig()
    started = time.monotonic()
    deadline = started + cfg.total_timeout
    stats = {
        "pathfinder_calls": 0,
        "router_calls": 0,
        "router_solutions": 0,
        "assign_calls": 0,
        "scheduler_calls": 0,
        "combinations": 0,
        "truncated": False,
        "time_paths": 0.0,
        "time_router": 0.0,
        "time_assign": 0.0,
        "time_scheduler": 0.0,
    }

    def out(status: SolveStatus, **kw) -> SolveResult:
        stats["wall_time"] = time.monotonic() - started
        return SolveResult(status=status, stats=stats, **kw)

    def stage(calls: str, clock: str, call):
        """Count and time ``call(budget)`` with this stage's share of the time left.

        Raises TimeoutError when no time is left, as the stages do when
        their budget runs out.
        """
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("solve deadline reached")
        stats[calls] += 1
        t0 = time.monotonic()
        try:
            return call(min(cfg.stage_timeout, remaining))
        finally:
            stats[clock] += time.monotonic() - t0

    t0 = time.monotonic()
    table = enumerate_paths(inst, cfg.max_paths)
    stats["time_paths"] += time.monotonic() - t0
    used = UsedPaths()
    truncated = False

    def exhausted() -> SolveResult:
        # No combination is left to try: infeasible unless a cap cut the search short.
        if truncated:
            stats["truncated"] = True
            return out(SolveStatus.UNKNOWN)
        return out(SolveStatus.UNSAT)

    try:
        while True:
            combo = stage("pathfinder_calls", "time_paths", lambda _budget: pathfinder(table, used))
            if combo is None:
                return exhausted()
            used.add(combo)
            stats["combinations"] += 1
            previous_routes: list[RouteSet] = []

            while True:
                routes = stage("router_calls", "time_router",
                               lambda budget: router(inst, combo, previous_routes, timeout=budget))
                if routes is None:
                    if not previous_routes:
                        # First routing attempt failed: longer paths cannot help.
                        return exhausted()
                    break  # try the next path combination
                previous_routes.append(routes)
                stats["router_solutions"] += 1

                asg = stage("assign_calls", "time_assign",
                            lambda budget: assign(inst, routes, timeout=budget))
                sched = None if asg is None else stage(
                    "scheduler_calls", "time_scheduler",
                    lambda budget: scheduler(
                        inst, expand_routes(routes, combo, asg), asg,
                        strict_pairwise=cfg.strict_pairwise_edges,
                        timeout=budget,
                    ),
                )
                if sched is None:
                    if len(previous_routes) >= cfg.max_route_iters:
                        truncated = True
                        break
                    continue

                report = validate(inst, sched, asg)
                if not report.ok:
                    raise RuntimeError(
                        "internal error: emitted schedule failed validation: "
                        + "; ".join(f"{v.kind}{v.entities}" for v in report.violations[:5])
                    )
                return out(SolveStatus.SAT, schedule=sched, assignment=asg, routes=routes, paths=combo)
    except TimeoutError:
        stats["truncated"] = True
        return out(SolveStatus.UNKNOWN)
