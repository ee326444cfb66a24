"""Spans around the calls into each layer, installed from outside the program.

``Tracer.install`` swaps wrappers in for the stage functions that
``comsat.pipeline`` calls, for ``SolverContext.check_minimize`` and for
``Engine.__init__`` / ``Engine.solve``; ``uninstall`` restores the
originals.  Spans live in memory as (id, parent, layer, start, end,
outcome) and are written out when the run ends; sizes (candidates,
clauses, atoms) and path selections are kept per span, so that metrics
over a prefix of the spans count only that prefix.  Nothing in ``src/``
is edited.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# Layer name -> (module, attribute) of the wrapped callable.
LAYERS = {
    "paths.enumerate": ("comsat.pipeline", "enumerate_paths"),
    "paths.pathfinder": ("comsat.pipeline", "pathfinder"),
    "routing.router": ("comsat.pipeline", "router"),
    "assignment.assign": ("comsat.pipeline", "assign"),
    "scheduling.expand": ("comsat.pipeline", "expand_routes"),
    "scheduling.scheduler": ("comsat.pipeline", "scheduler"),
    "validation.validate": ("comsat.pipeline", "validate"),
    "backend.check_minimize": ("comsat.backend", "SolverContext.check_minimize"),
    "engine.init": ("comsat.engine", "Engine.__init__"),
    "engine.solve": ("comsat.engine", "Engine.solve"),
}
ROOT = "pipeline.solve"


def _outcome(layer: str, result) -> str:
    if layer in ("paths.pathfinder", "routing.router"):
        return "exhausted" if result is None else "found"
    if layer in ("assignment.assign", "scheduling.scheduler"):
        return "rejected" if result is None else "ok"
    if layer == "validation.validate":
        return "ok" if result.ok else "invalid"
    if layer == "engine.solve":
        return result
    if layer == ROOT:
        return result.status.value
    return "ok"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.labels: dict[int, str] = {}  # root span id -> instance label
        self.sizes: dict[int, Counter] = {}  # span id -> candidates / clauses / atoms
        self.selected: set[tuple] = set()  # (root span, pair, candidate index)
        self._originals: dict[str, object] = {}

    def _owner(self, layer: str):
        module, attr = LAYERS[layer]
        owner = sys.modules[module]
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, name

    def _wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.spans.append(None)
            tracer.stack.append(sid)
            outcome = "error"
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                outcome = _outcome(layer, result)
                tracer._count(sid, layer, args, result)
                return result
            except TimeoutError:
                outcome = "timeout"
                raise
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[sid] = (sid, parent, layer, start, end, outcome)

        return wrapper

    def _count(self, sid: int, layer: str, args, result) -> None:
        if layer == "paths.enumerate":
            self.sizes[sid] = Counter(candidates=sum(len(c) for c in result.candidates.values()))
        elif layer == "paths.pathfinder" and result is not None:
            root = self.stack[0]
            self.selected.update((root, pair, idx) for pair, idx in result.selection.items())
        elif layer == "engine.init":
            spec = args[1]
            self.sizes[sid] = Counter(clauses=len(spec.clauses), atoms=len(spec.atoms))

    def install(self) -> None:
        if self._originals:
            return
        for layer in LAYERS:
            owner, name = self._owner(layer)
            original = getattr(owner, name)
            self._originals[layer] = original
            setattr(owner, name, self._wrap(layer, original))

    def uninstall(self) -> None:
        for layer, original in self._originals.items():
            owner, name = self._owner(layer)
            setattr(owner, name, original)
        self._originals.clear()

    def solve(self, solve_fn, label: str, *args):
        """Call ``solve_fn`` under a root span tagged with the instance label."""
        self.labels[len(self.spans)] = label
        return self._wrap(ROOT, solve_fn)(*args)

    def write(self, path, upto: int) -> None:
        """Write the first ``upto`` spans as JSON lines."""
        roots = {}
        with open(path, "w") as out:
            for sid, parent, layer, start, end, outcome in self.spans[:upto]:
                roots[sid] = sid if parent is None else roots[parent]
                out.write(json.dumps({
                    "id": sid, "parent": parent, "layer": layer, "instance": self.labels[roots[sid]],
                    "start": start, "end": end, "outcome": outcome,
                }) + "\n")

    def layer_metrics(self, upto: int, stats_rows: list[dict]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over the first ``upto`` spans: name -> (value, unit).

        ``time_s`` is a layer's total span time, children included; a ratio
        over a layer that was never called reads 0.
        """
        spans = self.spans[:upto]
        calls: Counter = Counter()
        busy: Counter = Counter()
        outcomes: Counter = Counter()
        child_time: Counter = Counter()
        for _sid, parent, layer, start, end, outcome in spans:
            calls[layer] += 1
            busy[layer] += end - start
            outcomes[layer, outcome] += 1
            if parent is not None:
                child_time[parent] += end - start
        root_self = sum(end - start - child_time[sid]
                        for sid, parent, _layer, start, end, _outcome in spans if parent is None)
        sizes = sum((c for sid, c in self.sizes.items() if sid < upto), Counter())
        selected = sum(1 for root, _pair, _idx in self.selected if root < upto)

        def ratio(layer: str, good: str) -> float:
            return outcomes[layer, good] / calls[layer] if calls[layer] else 0.0

        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.time_s"] = (busy[layer], "s")
        out["paths.enumerate.candidates"] = (sizes["candidates"], "count")
        out["paths.enumerate.useful_ratio"] = (
            selected / sizes["candidates"] if sizes["candidates"] else 0.0, "ratio")
        out["paths.pathfinder.timeouts"] = (outcomes["paths.pathfinder", "timeout"], "count")
        out["paths.pathfinder.useful_ratio"] = (ratio("paths.pathfinder", "found"), "ratio")
        for outcome in ("found", "exhausted", "timeout"):
            name = "timeouts" if outcome == "timeout" else outcome
            out[f"routing.router.{name}"] = (outcomes["routing.router", outcome], "count")
        out["routing.router.useful_ratio"] = (ratio("routing.router", "found"), "ratio")
        out["assignment.assign.useful_ratio"] = (ratio("assignment.assign", "ok"), "ratio")
        out["scheduling.scheduler.useful_ratio"] = (ratio("scheduling.scheduler", "ok"), "ratio")
        out["validation.validate.useful_ratio"] = (ratio("validation.validate", "ok"), "ratio")
        out["engine.spec.clauses"] = (sizes["clauses"], "count")
        out["engine.spec.atoms"] = (sizes["atoms"], "count")
        out["engine.bb_rounds"] = (calls["engine.solve"] - calls["backend.check_minimize"], "count")
        out["pipeline.solve.calls"] = (calls[ROOT], "count")
        out["pipeline.solve.time_s"] = (busy[ROOT], "s")
        out["pipeline.self_s"] = (root_self, "s")
        out["pipeline.combinations"] = (sum(r.get("combinations", 0) for r in stats_rows), "count")
        out["pipeline.router_solutions"] = (sum(r.get("router_solutions", 0) for r in stats_rows), "count")
        out["trace.spans"] = (len(spans), "count")
        return out
