"""Route construction: a time-window VRP over the selected paths.

Builds depot-to-depot visit sequences covering every task exactly once,
with arrival times consistent with the pairwise distances fixed by the
current path combination, battery charge tracked along each sequence, and
the number of sequences (vehicles) minimized.

A :class:`RouteSearch` keeps one model per path combination, and each
:func:`router` call blocks the arc set it returns in that model, so every
route set comes exactly once, fewest vehicles first.

Vehicle eligibility and fleet size are deliberately not enforced here;
they belong to the assignment stage, which knows the actual vehicles.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import backend as B
from .instance import END_JOB, START_JOB, Instance, transitive_predecessors
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


class RouteSearch:
    """The route sets of one path combination; the first :func:`router` call builds its model."""

    def __init__(self, inst: Instance, paths: PathCombination):
        self.inst, self.paths = inst, paths
        self.task_of = {(j.name, t.name): t for j in inst.jobs for t in j.tasks}
        self.customers: list[TaskKey] = [(j.name, t.name) for j in inst.customer_jobs() for t in j.tasks]
        self.start: TaskKey = (START_JOB, inst.job(START_JOB).tasks[0].name)
        self.end: TaskKey = (END_JOB, inst.job(END_JOB).tasks[0].name)
        self.ctx: B.SolverContext | None = None
        self.cs: dict[TaskKey, B.IntRef] = {}
        self.arcs: dict[tuple[TaskKey, TaskKey], B.BoolRef] = {}


def router(search: RouteSearch, timeout: float | None = None) -> RouteSet | None:
    """The next minimum-vehicle route set of ``search``, or None when it is spent.

    Raises TimeoutError when the backend cannot finish in time and
    RouterError when a returned model cannot be turned into depot-anchored
    routes.
    """
    if not search.customers:
        return RouteSet(routes=())  # the one route set, with no arc to block
    if search.ctx is None:
        _build(search)
    model = search.ctx.check_minimize(timeout=timeout)
    if model is None:
        return None
    chosen = [pair for pair, var in search.arcs.items() if model[var]]
    search.ctx.clause(*[~search.arcs[pair] for pair in chosen])
    return _extract_routes(search, model, chosen)


def _build(search: RouteSearch) -> None:
    inst, task_of, customers = search.inst, search.task_of, search.customers
    start_key, end_key = search.start, search.end
    search.ctx = ctx = B.SolverContext()
    # Charge counts in units of 1/q for a discharge coefficient p/q, so an
    # arc of length d drains exactly p*d units, with no rounding.
    discharge = inst.fleet.discharge_coeff
    cap = inst.fleet.operating_range * discharge.denominator

    keys = [start_key, *customers, end_key]
    cs = search.cs = {key: ctx.int_var(task_of[key].window_lo, task_of[key].window_hi) for key in keys}
    rc = {key: ctx.int_var(0, cap) for key in keys}
    # Full charge at dispatch: every route leaves the depot with the whole
    # operating range available.
    ctx.clause(rc[start_key] >= cap)

    def dist(a: TaskKey, b: TaskKey) -> int:
        return search.paths.distance(task_of[a].location, task_of[b].location)

    arcs = search.arcs

    def arc(a: TaskKey, b: TaskKey) -> B.BoolRef:
        var = arcs.get((a, b))
        if var is None:
            var = ctx.bool_var()
            arcs[(a, b)] = var
            d = dist(a, b)
            ctx.implies(var, cs[b] - cs[a] >= d)
            ctx.implies(var, rc[a] - rc[b] >= discharge.numerator * d)
        return var

    # Every task has exactly one successor (toward another task or the end)
    # and exactly one predecessor (from another task or the start).
    for t1 in customers:
        ctx.exactly([arc(t1, t2) for t2 in customers if t2 != t1] + [arc(t1, end_key)], 1)
    for t2 in customers:
        ctx.exactly([arc(t1, t2) for t1 in customers if t1 != t2] + [arc(start_key, t2)], 1)

    # Any successor cycle has zero total distance, which only co-located
    # tasks can produce (the arrival chain kills everything longer).  A
    # strict order inside each co-located group rules those out, so that
    # minimizing the vehicle count cannot "serve" tasks on a detached loop.
    by_location: dict[int, list[TaskKey]] = {}
    for key in customers:
        by_location.setdefault(task_of[key].location, []).append(key)
    for group in by_location.values():
        _strict_order(ctx, group, arc)

    # Tasks of one job ride together: they form one consecutive block, in
    # some order compatible with the job's precedence relation.  The order
    # agrees with every arc chosen inside the job, so exactly ``n - 1`` such
    # arcs chain all ``n`` tasks into one block.
    for job in inst.customer_jobs():
        block = [(job.name, t.name) for t in job.tasks]
        if len(block) >= 2:
            _strict_order(ctx, block, arc, transitive_predecessors(job))
            ctx.exactly([arc(a, b) for a in block for b in block if a != b], len(block) - 1)

    # Deliveries happen no earlier than their pickups.
    for job in inst.customer_jobs():
        for t in job.tasks:
            for p in t.predecessors:
                ctx.clause(cs[(job.name, t.name)] - cs[(job.name, p)] >= 0)

    ctx.minimize(arc(start_key, t) for t in customers)


def _strict_order(ctx: B.SolverContext, keys: list[TaskKey], arc, closure=None) -> None:
    """One order variable per pair of ``keys``, kept transitive.

    Every arc chosen between two keys follows the order.  ``closure`` maps
    a task name to the names of the tasks it must follow (keys of one job
    only).
    """
    before: dict[tuple[TaskKey, TaskKey], B.LiteralLike] = {}
    for i, a in enumerate(keys):
        for b in keys[i + 1 :]:
            var = ctx.bool_var()
            before[(a, b)] = var
            before[(b, a)] = ~var
    for a in keys:
        for b in keys:
            if a == b:
                continue
            if closure is not None and b[1] in closure[a[1]]:
                ctx.clause(before[(b, a)])
            ctx.implies(arc(a, b), before[(a, b)])
            for c in keys:
                if c not in (a, b):
                    ctx.clause(~before[(a, b)], ~before[(b, c)], before[(a, c)])


def _extract_routes(search: RouteSearch, model: B.Model, chosen: list[tuple[TaskKey, TaskKey]]) -> RouteSet:
    """The routes that the arcs ``chosen`` in ``model`` chain together."""
    paths, cs, task_of = search.paths, search.cs, search.task_of
    start_key, end_key = search.start, search.end
    succ: dict[TaskKey, TaskKey] = {}
    heads: list[TaskKey] = []
    for a, b in chosen:
        if a == start_key:
            heads.append(b)
        else:
            if a in succ:
                raise RouterError(f"task {a} has two successors in the model")
            succ[a] = b

    def visit(key: TaskKey) -> Visit:
        t = task_of[key]
        return Visit(t.job, t.name, t.location, model[cs[key]], t.window_lo, t.window_hi)

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
        length, latest = 0, task_of[start_key].window_hi
        for a, b in zip(sequence, sequence[1:]):
            length += paths.distance(task_of[a].location, task_of[b].location)
            latest = min(latest, task_of[b].window_hi - length)
        routes.append(Route(visits=tuple(map(visit, sequence)), length=length, latest_start=latest))
    leftover = set(search.customers) - covered
    if leftover:
        raise RouterError(f"tasks {sorted(leftover)} form a cycle unreachable from the start anchor")
    return RouteSet(routes=tuple(routes))
