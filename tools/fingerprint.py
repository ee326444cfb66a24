"""Print one JSON line per instance that pins down what the solver did.

    python3 tools/fingerprint.py [--src DIR] > fingerprint.jsonl

Each line holds the instance label, the verdict, the six loop counters,
how many times ``Engine.solve`` ran, a hash of every engine input (the
``atom_at``, ``int_bounds``, ``clauses``, ``cards`` and ``objective`` that
each ``Engine(ctx)`` reads, in call order) and a hash of the schedule and
assignment JSON (null unless sat).  The instances are every entry of
``perfbench/tiny_oracle.json`` and the ``perfbench/sweep_pool.json``
entries recorded as decided within ``FAST_S``, solved at the caps those
files were recorded with; together they take a few seconds.  ``--src``
picks the ``comsat`` sources to import (default: this checkout's
``src``), so that two trees can be compared by diffing their output with
the same instance list.  The pool files are only read.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TINY = ROOT / "perfbench" / "tiny_oracle.json"
SWEEP = ROOT / "perfbench" / "sweep_pool.json"
FAST_S = 0.5
COUNTERS = ("pathfinder_calls", "router_calls", "router_solutions",
            "assign_calls", "scheduler_calls", "combinations")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from comsat import SolverConfig, parse_instance, solve
    from comsat.engine import Engine
    from comsat.generate import GenParams, generate

    solves = 0
    inputs = hashlib.sha256()
    original_init, original_solve = Engine.__init__, Engine.solve

    def hashed(self, ctx, *args, **kwargs):
        inputs.update(repr((ctx.atom_at, ctx.int_bounds, ctx.clauses, ctx.cards, ctx.objective)).encode())
        original_init(self, ctx, *args, **kwargs)

    def counted(self):
        nonlocal solves
        solves += 1
        return original_solve(self)

    Engine.__init__, Engine.solve = hashed, counted

    items = []
    for entry in json.loads(TINY.read_text())["entries"]:
        items.append((f"tiny#{entry['seed']}", parse_instance(json.dumps(entry["instance"])),
                      SolverConfig(total_timeout=4.0, stage_timeout=4.0)))
    sweep = json.loads(SWEEP.read_text())
    cfg = SolverConfig(**sweep["solver"])
    for entry in sweep["entries"]:
        if entry["verdict"] == "unknown" or entry["seconds"] > FAST_S:
            continue
        nodes, vehicles, jobs, red, horizon = entry["shape"]
        params = GenParams(nodes=nodes, vehicles=vehicles, jobs=jobs, edge_reduction=red,
                           horizon=horizon, seed=entry["seed"])
        items.append((f"{params.class_label()}#{entry['seed']}", generate(params), cfg))

    for label, inst, cfg in items:
        solves = 0
        inputs = hashlib.sha256()
        result = solve(inst, cfg)
        digest = None
        if result.schedule is not None:
            text = result.schedule.to_json() + result.assignment.to_json()
            digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        print(json.dumps({
            "instance": label,
            "verdict": result.status.value,
            **{name: result.stats[name] for name in COUNTERS},
            "engine_solves": solves,
            "engine_inputs": inputs.hexdigest()[:16],
            "schedule": digest,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
