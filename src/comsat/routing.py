"""Route construction: a time-window VRP over the selected paths.

Builds depot-to-depot visit sequences covering every task exactly once,
with arrival times consistent with the pairwise distances fixed by the
current path combination, battery charge tracked along each sequence, and
the number of sequences (vehicles) minimized.  Previously produced route
sets are excluded through blocking clauses so that backtracking can
enumerate alternatives.

Vehicle eligibility and fleet size are deliberately not enforced here;
they belong to the assignment stage, which knows the actual vehicles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import backend as B
from .instance import END_JOB, START_JOB, Instance, Job, transitive_predecessors
from .paths import PathCombination


class RouterError(RuntimeError):
    """Model extraction failed (e.g. a successor cycle detached from start)."""


TaskKey = tuple[str, str]


@dataclass(frozen=True)
class Visit:
    job: str
    task: str
    location: int
    arrival: int
    window_lo: int
    window_hi: int


@dataclass(frozen=True)
class Route:
    visits: tuple[Visit, ...]
    length: int
    latest_start: int

    @property
    def jobs(self) -> frozenset[str]:
        return frozenset(v.job for v in self.visits if v.job not in (START_JOB, END_JOB))

    def task_visits(self) -> tuple[Visit, ...]:
        return tuple(v for v in self.visits if v.job not in (START_JOB, END_JOB))


@dataclass(frozen=True)
class RouteSet:
    routes: tuple[Route, ...]
    chosen_dirs: tuple[tuple[TaskKey, TaskKey], ...]


def _precedence_orderings(job: Job) -> list[tuple[str, ...]]:
    closure = transitive_predecessors(job)
    names = [t.name for t in job.tasks]
    out = []
    for perm in itertools.permutations(names):
        position = {name: i for i, name in enumerate(perm)}
        if all(position[p] < position[n] for n in names for p in closure[n]):
            out.append(perm)
    return out


def router(
    inst: Instance,
    paths: PathCombination,
    prev: list[RouteSet],
    timeout: float | None = None,
) -> RouteSet | None:
    """Minimum-vehicle route set over the given distances, or None if spent.

    ``prev`` lists route sets to exclude.  Raises TimeoutError when the
    backend cannot finish in time and RouterError when a returned model
    cannot be turned into depot-anchored routes.
    """
    customers: list[TaskKey] = [(j.name, t.name) for j in inst.customer_jobs() for t in j.tasks]
    if not customers:
        return RouteSet(routes=(), chosen_dirs=())
    start_key: TaskKey = (START_JOB, inst.job(START_JOB).tasks[0].name)
    end_key: TaskKey = (END_JOB, inst.job(END_JOB).tasks[0].name)
    task_of = {(j.name, t.name): t for j in inst.jobs for t in j.tasks}

    ctx = B.SolverContext()
    horizon = inst.horizon
    cap = inst.fleet.operating_range
    discharge = inst.fleet.discharge_coeff

    cs = {
        key: ctx.int_var(f"cs_{key[0]}_{key[1]}", task_of[key].window_lo, task_of[key].window_hi)
        for key in [start_key, *customers, end_key]
    }
    rc = {key: ctx.int_var(f"rc_{key[0]}_{key[1]}", 0, cap) for key in [start_key, *customers, end_key]}
    # Full charge at dispatch: every route leaves the depot with the whole
    # operating range available.
    ctx.add(rc[start_key] >= cap)

    def dist(a: TaskKey, b: TaskKey) -> int:
        return paths.distance(task_of[a].location, task_of[b].location)

    arcs: dict[tuple[TaskKey, TaskKey], B.BoolRef] = {}

    def arc(a: TaskKey, b: TaskKey) -> B.BoolRef:
        var = arcs.get((a, b))
        if var is None:
            var = ctx.bool_var(f"dir_{a[0]}.{a[1]}_{b[0]}.{b[1]}")
            arcs[(a, b)] = var
            d = dist(a, b)
            ctx.add(B.implies(var, cs[b] - cs[a] >= d))
            drop = math.ceil(discharge * d)
            ctx.add(B.implies(var, rc[a] - rc[b] >= drop))
        return var

    # Every task has exactly one successor (toward another task or the end)
    # and exactly one predecessor (from another task or the start).
    for t1 in customers:
        ctx.add(B.exactly_one([arc(t1, t2) for t2 in customers if t2 != t1] + [arc(t1, end_key)]))
    for t2 in customers:
        ctx.add(B.exactly_one([arc(t1, t2) for t1 in customers if t1 != t2] + [arc(start_key, t2)]))

    # Any successor cycle has zero total distance, which only co-located
    # tasks can produce (the arrival chain kills everything longer).  A
    # strict order inside each co-located group rules those out, so that
    # minimizing the vehicle count cannot "serve" tasks on a detached loop.
    by_location: dict[int, list[TaskKey]] = {}
    for key in customers:
        by_location.setdefault(task_of[key].location, []).append(key)
    for group in by_location.values():
        if len(group) < 2:
            continue
        order: dict[tuple[TaskKey, TaskKey], B.Literal] = {}
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                var = ctx.bool_var(f"colo_{a[0]}.{a[1]}__{b[0]}.{b[1]}")
                order[(a, b)] = B.Literal(var, True)
                order[(b, a)] = B.Literal(var, False)
        for a in group:
            for b in group:
                if a == b:
                    continue
                ctx.add(B.implies(arc(a, b), order[(a, b)]))
                for c in group:
                    if c not in (a, b):
                        ctx.add(B.clause(~order[(a, b)], ~order[(b, c)], order[(a, c)]))

    # Tasks of one job ride together: they form one consecutive block, in
    # some order compatible with the job's precedence relation.
    for job in inst.customer_jobs():
        keys = [(job.name, t.name) for t in job.tasks]
        if len(keys) < 2:
            continue
        if len(keys) <= 4:
            orderings = _precedence_orderings(job)
            chains = [
                [arc((job.name, a), (job.name, b)) for a, b in zip(ord_, ord_[1:])]
                for ord_ in orderings
            ]
            if len(chains) == 1:
                for lit in chains[0]:
                    ctx.add(B.clause(lit))
            else:
                selectors = [ctx.bool_var(f"ord_{job.name}_{i}") for i in range(len(chains))]
                ctx.add(B.exactly_one(selectors))
                for sel, chain in zip(selectors, chains):
                    for lit in chain:
                        ctx.add(B.implies(sel, lit))
        else:
            _chain_by_order_bools(ctx, job, keys, arc)

    # Deliveries happen no earlier than their pickups.
    for job in inst.customer_jobs():
        for t in job.tasks:
            for p in t.predecessors:
                ctx.add(cs[(job.name, t.name)] - cs[(job.name, p)] >= 0)

    for old in prev:
        ctx.add(B.clause(*[~arcs[pair] for pair in old.chosen_dirs if pair in arcs]))

    ctx.minimize(B.LinExpr({arc(start_key, t): 1 for t in customers}, 0))

    result = ctx.check_minimize(timeout=timeout)
    if result.status == B.Status.TIMEOUT:
        raise TimeoutError("routing timed out")
    if result.status == B.Status.UNSAT:
        return None
    return _extract_routes(inst, paths, result.model, arcs, cs, customers, start_key, end_key, task_of)


def _chain_by_order_bools(ctx: B.SolverContext, job: Job, keys: list[TaskKey], arc) -> None:
    """Consecutive-block encoding for jobs too large to enumerate orderings."""
    closure = transitive_predecessors(job)
    before: dict[tuple[TaskKey, TaskKey], B.Literal] = {}
    for i, a in enumerate(keys):
        for b in keys[i + 1 :]:
            var = ctx.bool_var(f"before_{job.name}_{a[1]}_{b[1]}")
            before[(a, b)] = B.Literal(var, True)
            before[(b, a)] = B.Literal(var, False)
    for a in keys:
        for b in keys:
            if a == b:
                continue
            if b[1] in closure[a[1]]:
                ctx.add(B.clause(before[(b, a)]))
            ctx.add(B.implies(arc(a, b), before[(a, b)]))
            for c in keys:
                if c in (a, b):
                    continue
                ctx.add(B.clause(~before[(a, b)], ~before[(b, c)], before[(a, c)]))
    within = [arc(a, b) for a in keys for b in keys if a != b]
    ctx.add(B.exactly_n(within, len(keys) - 1))


def _extract_routes(inst, paths, model, arcs, cs, customers, start_key, end_key, task_of) -> RouteSet:
    succ: dict[TaskKey, TaskKey] = {}
    heads: list[TaskKey] = []
    chosen: list[tuple[TaskKey, TaskKey]] = []
    for (a, b), var in arcs.items():
        if model[var]:
            chosen.append((a, b))
            if a == start_key:
                heads.append(b)
            else:
                if a in succ:
                    raise RouterError(f"task {a} has two successors in the model")
                succ[a] = b

    def visit(key: TaskKey, arrival: int) -> Visit:
        t = task_of[key]
        return Visit(t.job, t.name, t.location, arrival, t.window_lo, t.window_hi)

    routes = []
    covered: set[TaskKey] = set()
    for head in heads:
        sequence = [start_key]
        node = head
        while node != end_key:
            if node in covered or node == start_key:
                raise RouterError(f"route through {node} revisits a task")
            covered.add(node)
            sequence.append(node)
            node = succ.pop(node, None)
            if node is None:
                raise RouterError("route does not reach the end anchor")
        sequence.append(end_key)
        length = 0
        cumulative = [0]
        for a, b in zip(sequence, sequence[1:]):
            length += paths.distance(task_of[a].location, task_of[b].location)
            cumulative.append(length)
        latest = min(
            task_of[key].window_hi - cumulative[i] for i, key in enumerate(sequence)
        )
        visits = tuple(
            visit(key, model[cs[key]] if i > 0 else model[cs[start_key]])
            for i, key in enumerate(sequence)
        )
        routes.append(Route(visits=visits, length=length, latest_start=latest))
    leftover = set(customers) - covered
    if leftover:
        raise RouterError(f"tasks {sorted(leftover)} form a cycle unreachable from the start anchor")
    return RouteSet(routes=tuple(routes), chosen_dirs=tuple(chosen))
