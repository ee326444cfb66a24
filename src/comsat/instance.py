"""Problem instance model: plant graph, jobs, fleet, and the JSON format.

An instance describes a plant as a strongly connected directed graph whose
edges carry a length (in distance units, one unit per time step) and a
capacity (how many vehicles may travel the segment simultaneously).  Jobs
bundle pickup tasks and a delivery task, each pinned to a node with a time
window.  A fleet of battery-powered vehicles starts at the depot, which is
also the only charging station.

Two synthetic single-task jobs, ``start`` and ``end``, both located at the
depot with the full-horizon window, are part of every instance; they anchor
route construction.  They are injected automatically when a file does not
declare them.

Instances are immutable after construction and safe to share between
concurrently running solves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

START_JOB = "start"
END_JOB = "end"


class InstanceError(ValueError):
    """Base class for malformed instance input."""


class InstanceSyntaxError(InstanceError):
    """The input is not well-formed JSON."""


class InstanceSemanticError(InstanceError):
    """The input parses but violates a structural invariant."""


class ValidationInputError(ValueError):
    """A schedule or assignment does not structurally fit the instance."""


def json_fields(obj: Any, what: str, **kinds: type) -> tuple:
    """The values of the keyword-named keys of the JSON object ``obj``.

    Raises :class:`ValidationInputError` naming ``what`` when ``obj`` is not
    an object, lacks one of the keys, or holds a value of another type than
    the keyword gives (a boolean is not an integer).
    """
    if not isinstance(obj, dict):
        raise ValidationInputError(f"{what} must be an object, got {obj!r}")
    values = []
    for key, kind in kinds.items():
        if key not in obj:
            raise ValidationInputError(f"{what} is missing {key!r}")
        value = obj[key]
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise ValidationInputError(f"{what} {key!r} must be {kind.__name__}, got {value!r}")
        values.append(value)
    return tuple(values)


@dataclass(frozen=True)
class Edge:
    source: int
    sink: int
    length: int
    capacity: int


@dataclass(frozen=True)
class Graph:
    nodes: frozenset[int]
    edges: tuple[Edge, ...]
    depot: int

    def successors(self) -> dict[int, list[Edge]]:
        """Adjacency as a fresh mapping node -> outgoing edges."""
        adj: dict[int, list[Edge]] = {n: [] for n in self.nodes}
        for e in self.edges:
            adj[e.source].append(e)
        return adj

    def edge_map(self) -> dict[tuple[int, int], Edge]:
        return {(e.source, e.sink): e for e in self.edges}


@dataclass(frozen=True)
class Task:
    job: str
    name: str
    location: int
    window_lo: int
    window_hi: int
    predecessors: frozenset[str]


@dataclass(frozen=True)
class Job:
    name: str
    tasks: tuple[Task, ...]
    eligible: frozenset[str]

    def task(self, name: str) -> Task:
        for t in self.tasks:
            if t.name == name:
                return t
        raise KeyError(name)


@dataclass(frozen=True)
class Fleet:
    vehicles: tuple[str, ...]
    operating_range: int
    charge_coeff: Fraction
    discharge_coeff: Fraction


@dataclass(frozen=True)
class Instance:
    graph: Graph
    jobs: tuple[Job, ...]
    fleet: Fleet
    horizon: int

    def job(self, name: str) -> Job:
        for j in self.jobs:
            if j.name == name:
                return j
        raise KeyError(name)

    def customer_jobs(self) -> tuple[Job, ...]:
        """All jobs except the synthetic start/end anchors."""
        return tuple(j for j in self.jobs if j.name not in (START_JOB, END_JOB))

    def customer_tasks(self) -> tuple[Task, ...]:
        return tuple(t for j in self.customer_jobs() for t in j.tasks)

    def task(self, job: str, name: str) -> Task:
        return self.job(job).task(name)

    def task_locations(self) -> tuple[int, ...]:
        """Distinct task locations including the depot, in first-seen order."""
        seen: dict[int, None] = {self.graph.depot: None}
        for t in self.customer_tasks():
            seen.setdefault(t.location, None)
        return tuple(seen)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InstanceSemanticError(message)


def _as_list(value: Any, what: str) -> list:
    if not isinstance(value, list):
        raise InstanceSemanticError(f"{what} must be a list, got {value!r}")
    return value


def _as_int(value: Any, what: str) -> int:
    # Fractional distances/times are rejected: the model works in whole
    # distance units, one unit per time step.
    if isinstance(value, bool) or not isinstance(value, int):
        raise InstanceSemanticError(f"{what} must be an integer, got {value!r}")
    return value


def _as_fraction(value: Any, what: str) -> Fraction:
    if isinstance(value, bool):
        raise InstanceSemanticError(f"{what} must be a number, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (float, str)):
        try:
            return Fraction(str(value))  # a float by its decimal text; nan and inf fail
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceSemanticError(f"{what} is not a valid rational: {value!r}") from exc
    raise InstanceSemanticError(f"{what} must be a number, got {value!r}")


def _reject_duplicate_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for key, value in pairs:
        if key in out:
            raise InstanceSemanticError(f"duplicate key {key!r}")
        out[key] = value
    return out


def strongly_connected(graph: Graph) -> bool:
    """Forward and backward reachability from the depot cover all nodes."""
    fwd: dict[int, list[int]] = {n: [] for n in graph.nodes}
    bwd: dict[int, list[int]] = {n: [] for n in graph.nodes}
    for e in graph.edges:
        fwd[e.source].append(e.sink)
        bwd[e.sink].append(e.source)

    def sweep(adj: dict[int, list[int]]) -> set[int]:
        seen = {graph.depot}
        stack = [graph.depot]
        while stack:
            for m in adj[stack.pop()]:
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        return seen

    return sweep(fwd) == graph.nodes and sweep(bwd) == graph.nodes


def _validate_job_structure(job: Job, graph: Graph, horizon: int) -> None:
    names = [t.name for t in job.tasks]
    _require(len(job.tasks) >= 1, f"job {job.name!r} has no tasks")
    _require(len(set(names)) == len(names), f"job {job.name!r} has duplicate task names")
    _require(bool(job.eligible), f"job {job.name!r} has an empty eligible vehicle set")
    for t in job.tasks:
        _require(
            t.location in graph.nodes,
            f"task location {t.location} not a node (job {job.name!r}, task {t.name!r})",
        )
        _require(
            0 <= t.window_lo <= t.window_hi,
            f"invalid window [{t.window_lo}, {t.window_hi}] for task {job.name!r}/{t.name!r}",
        )
        _require(
            t.window_hi <= horizon,
            f"window upper bound {t.window_hi} exceeds horizon (task {job.name!r}/{t.name!r})",
        )
        unknown = t.predecessors - set(names)
        _require(not unknown, f"task {job.name!r}/{t.name!r} references unknown predecessors {sorted(unknown)}")
        _require(t.name not in t.predecessors, f"task {job.name!r}/{t.name!r} precedes itself")

    # Precedence must be acyclic, and some task (the delivery) must come
    # after every other task of the job, transitively.
    pending = {t.name: set(t.predecessors) for t in job.tasks}
    while pending:
        ready = [n for n, p in pending.items() if not (p & pending.keys())]
        _require(bool(ready), f"job {job.name!r} has a precedence cycle")
        for n in ready:
            del pending[n]
    if len(job.tasks) > 1:
        closure = transitive_predecessors(job)
        _require(
            any(closure[n] == set(names) - {n} for n in names),
            f"job {job.name!r} has no delivery task preceded by all of its pickups",
        )


def transitive_predecessors(job: Job) -> dict[str, frozenset[str]]:
    """Task name -> transitive predecessor closure within the job."""
    preds = {t.name: set(t.predecessors) for t in job.tasks}
    closure: dict[str, frozenset[str]] = {}

    def walk(name: str) -> frozenset[str]:
        if name not in closure:
            acc = set(preds[name])
            for p in preds[name]:
                acc |= walk(p)
            closure[name] = frozenset(acc)
        return closure[name]

    for t in job.tasks:
        walk(t.name)
    return closure


def validate_instance(inst: Instance) -> None:
    """Check every structural invariant; raise InstanceSemanticError if broken."""
    g = inst.graph
    _require(bool(g.nodes), "graph has no nodes")
    for n in g.nodes:
        _require(isinstance(n, int) and n >= 0, f"node {n!r} is not a non-negative integer")
    _require(g.depot in g.nodes, f"unknown node: depot {g.depot}")
    seen_pairs: set[tuple[int, int]] = set()
    for e in g.edges:
        _require(e.source in g.nodes, f"unknown node {e.source} in edge ({e.source}, {e.sink})")
        _require(e.sink in g.nodes, f"unknown node {e.sink} in edge ({e.source}, {e.sink})")
        _require(e.source != e.sink, f"self-loop edge at node {e.source}")
        _require(e.length >= 1, f"edge ({e.source}, {e.sink}) has non-positive length")
        _require(e.capacity >= 1, f"edge ({e.source}, {e.sink}) has non-positive capacity")
        _require((e.source, e.sink) not in seen_pairs, f"duplicate edge ({e.source}, {e.sink})")
        seen_pairs.add((e.source, e.sink))
    _require(strongly_connected(g), "graph not strongly connected")

    _require(inst.horizon >= 0, "horizon must be non-negative")
    _require(len(inst.fleet.vehicles) >= 1, "fleet is empty")
    _require(len(set(inst.fleet.vehicles)) == len(inst.fleet.vehicles), "duplicate vehicle names")
    _require(inst.fleet.operating_range >= 1, "operating range must be at least 1")
    _require(inst.fleet.charge_coeff >= 0, "charge coefficient must be non-negative")
    _require(inst.fleet.discharge_coeff > 0, "discharge coefficient must be positive")

    names = [j.name for j in inst.jobs]
    _require(len(set(names)) == len(names), "duplicate job names")
    for j in inst.jobs:
        _validate_job_structure(j, g, inst.horizon)
    for anchor in (START_JOB, END_JOB):
        _require(anchor in names, f"missing synthetic job {anchor!r}")
        j = inst.job(anchor)
        _require(len(j.tasks) == 1, f"synthetic job {anchor!r} must have exactly one task")
        t = j.tasks[0]
        _require(t.location == g.depot, f"synthetic job {anchor!r} must be located at the depot")
        _require(
            t.window_lo == 0 and t.window_hi == inst.horizon,
            f"synthetic job {anchor!r} must carry the full-horizon window",
        )


def _synthetic_job(name: str, depot: int, horizon: int, fleet: tuple[str, ...]) -> Job:
    task = Task(job=name, name="0", location=depot, window_lo=0, window_hi=horizon, predecessors=frozenset())
    return Job(name=name, tasks=(task,), eligible=frozenset(fleet))


def parse_instance(text: str | bytes) -> Instance:
    """Parse the instance JSON format and verify all invariants.

    Synthetic ``start``/``end`` jobs are injected when absent.  Syntax errors
    report the position; semantic errors name the violated invariant.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        raw = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise InstanceSyntaxError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise InstanceSemanticError("top-level value must be an object")

    required = {
        "nodes", "depot", "edges", "horizon", "vehicles",
        "operating_range", "charge_coeff", "discharge_coeff", "jobs",
    }
    missing = required - raw.keys()
    _require(not missing, f"missing keys: {sorted(missing)}")
    unknown = raw.keys() - required
    _require(not unknown, f"unknown keys: {sorted(unknown)}")

    node_ids = _as_list(raw["nodes"], "'nodes'")
    nodes = frozenset(_as_int(n, "node id") for n in node_ids)
    _require(len(nodes) == len(node_ids), "duplicate node ids")
    depot = _as_int(raw["depot"], "depot")
    horizon = _as_int(raw["horizon"], "horizon")

    edges: list[Edge] = []
    for item in _as_list(raw["edges"], "'edges'"):
        _require(isinstance(item, dict), "edge entries must be objects")
        extra = item.keys() - {"u", "v", "len", "cap", "directed"}
        _require(not extra, f"unknown edge keys: {sorted(extra)}")
        missing = {"u", "v", "len", "cap"} - item.keys()
        _require(not missing, f"edge is missing keys: {sorted(missing)}")
        u = _as_int(item["u"], "edge endpoint")
        v = _as_int(item["v"], "edge endpoint")
        length = _as_int(item["len"], "edge length")
        cap = _as_int(item["cap"], "edge capacity")
        directed = item.get("directed", False)
        _require(isinstance(directed, bool), "edge 'directed' must be a boolean")
        edges.append(Edge(u, v, length, cap))
        if not directed:
            # Undirected road segments expand into both travel directions
            # with equal length and capacity.
            edges.append(Edge(v, u, length, cap))

    vehicles = tuple(str(v) for v in _as_list(raw["vehicles"], "'vehicles'"))
    fleet = Fleet(
        vehicles=vehicles,
        operating_range=_as_int(raw["operating_range"], "operating_range"),
        charge_coeff=_as_fraction(raw["charge_coeff"], "charge_coeff"),
        discharge_coeff=_as_fraction(raw["discharge_coeff"], "discharge_coeff"),
    )

    jobs: list[Job] = []
    _require(isinstance(raw["jobs"], dict), "'jobs' must be an object")
    for job_name, body in raw["jobs"].items():
        _require(isinstance(body, dict), f"job {job_name!r} must be an object")
        extra = body.keys() - {"eligible", "tasks"}
        _require(not extra, f"unknown job keys for {job_name!r}: {sorted(extra)}")
        if job_name in (START_JOB, END_JOB):
            # Synthetic anchors may appear in files; their eligibility is
            # always the whole fleet.
            eligible = frozenset(vehicles)
        else:
            listed = _as_list(body.get("eligible", []), f"job {job_name!r} 'eligible'")
            eligible = frozenset(str(v) for v in listed)
        tasks: list[Task] = []
        _require(isinstance(body.get("tasks"), dict), f"job {job_name!r} is missing tasks")
        for task_name, spec in body["tasks"].items():
            what = f"task {job_name!r}/{task_name!r}"
            _require(isinstance(spec, dict), f"{what} must be an object")
            extra = spec.keys() - {"location", "window", "precedes"}
            _require(not extra, f"unknown task keys for {job_name!r}/{task_name!r}: {sorted(extra)}")
            _require("location" in spec, f"{what} is missing 'location'")
            window = spec.get("window", [0, None])
            _require(isinstance(window, list) and len(window) == 2, f"{what} window must be a two-element list")
            lo = _as_int(window[0], "window lower bound")
            hi = horizon if window[1] is None else _as_int(window[1], "window upper bound")
            tasks.append(
                Task(
                    job=job_name,
                    name=str(task_name),
                    location=_as_int(spec["location"], "task location"),
                    window_lo=lo,
                    window_hi=hi,
                    predecessors=frozenset(str(p) for p in _as_list(spec.get("precedes", []), f"{what} 'precedes'")),
                )
            )
        jobs.append(Job(name=job_name, tasks=tuple(tasks), eligible=eligible))

    present = {j.name for j in jobs}
    if START_JOB not in present:
        jobs.append(_synthetic_job(START_JOB, depot, horizon, vehicles))
    if END_JOB not in present:
        jobs.append(_synthetic_job(END_JOB, depot, horizon, vehicles))

    inst = Instance(
        graph=Graph(nodes=nodes, edges=tuple(edges), depot=depot),
        jobs=tuple(jobs),
        fleet=fleet,
        horizon=horizon,
    )
    validate_instance(inst)
    return inst


def _fraction_json(f: Fraction) -> int | float | str:
    if f.denominator == 1:
        return int(f)
    as_float = float(f)
    if Fraction(str(as_float)) == f:
        return as_float
    return f"{f.numerator}/{f.denominator}"


def serialize_instance(inst: Instance) -> str:
    """Render an Instance back into the JSON format, round-trip clean."""
    jobs: dict[str, Any] = {}
    for j in inst.jobs:
        if j.name in (START_JOB, END_JOB):
            continue
        jobs[j.name] = {
            "eligible": sorted(j.eligible),
            "tasks": {
                t.name: {
                    "location": t.location,
                    "window": [t.window_lo, None if t.window_hi == inst.horizon else t.window_hi],
                    "precedes": sorted(t.predecessors),
                }
                for t in j.tasks
            },
        }
    doc = {
        "nodes": sorted(inst.graph.nodes),
        "depot": inst.graph.depot,
        "edges": [
            {"u": e.source, "v": e.sink, "len": e.length, "cap": e.capacity, "directed": True}
            for e in inst.graph.edges
        ],
        "horizon": inst.horizon,
        "vehicles": list(inst.fleet.vehicles),
        "operating_range": inst.fleet.operating_range,
        "charge_coeff": _fraction_json(inst.fleet.charge_coeff),
        "discharge_coeff": _fraction_json(inst.fleet.discharge_coeff),
        "jobs": jobs,
    }
    return json.dumps(doc, indent=2)
