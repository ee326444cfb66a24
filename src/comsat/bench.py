"""Benchmark harness: sweep generated instance classes and tabulate results.

Each grid entry names an instance class (nodes-vehicles-jobs, edge
reduction, horizon) and the seeds to run.  Per-instance rows record the
verdict, stage times, and iteration counts; per-class aggregate rows count
feasible and infeasible instances with their average solving times.
Failures of single instances are recorded as rows, never abort the sweep.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field

from .generate import GenParams, generate
from .pipeline import SolverConfig, solve

ROW_FIELDS = [
    "class", "nodes", "vehicles", "jobs", "edge_reduction", "horizon", "seed",
    "status", "total_time", "time_paths", "time_router", "time_assign",
    "time_scheduler", "router_solutions", "combinations",
]

AGGREGATE_FIELDS = [
    "class", "instances", "feasible", "avg_feasible_time",
    "infeasible", "avg_infeasible_time", "unknown", "avg_generation_time",
]


@dataclass
class BenchResults:
    rows: list[dict] = field(default_factory=list)
    aggregates: list[dict] = field(default_factory=list)

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=ROW_FIELDS)
        writer.writeheader()
        for row in self.rows:
            writer.writerow({k: row.get(k, "") for k in ROW_FIELDS})
        buffer.write("\n")
        agg = csv.DictWriter(buffer, fieldnames=AGGREGATE_FIELDS)
        agg.writeheader()
        for row in self.aggregates:
            agg.writerow({k: row.get(k, "") for k in AGGREGATE_FIELDS})
        return buffer.getvalue()


def bench(grid: list[GenParams], cfg: SolverConfig | None = None) -> BenchResults:
    cfg = cfg or SolverConfig()
    results = BenchResults()
    by_class: dict[str, list[dict]] = {}
    gen_times: dict[str, list[float]] = {}
    for params in grid:
        label = params.class_label()
        row = {
            "class": label,
            "nodes": params.nodes,
            "vehicles": params.vehicles,
            "jobs": params.jobs,
            "edge_reduction": params.edge_reduction,
            "horizon": params.horizon,
            "seed": params.seed,
        }
        t0 = time.monotonic()
        try:
            inst = generate(params)
            gen_times.setdefault(label, []).append(time.monotonic() - t0)
            result = solve(inst, cfg)
            row["status"] = result.status.value
            row["total_time"] = round(result.stats.get("wall_time", 0.0), 3)
            for key in ("time_paths", "time_router", "time_assign", "time_scheduler"):
                row[key] = round(result.stats.get(key, 0.0), 3)
            row["router_solutions"] = result.stats.get("router_solutions", 0)
            row["combinations"] = result.stats.get("combinations", 0)
        except Exception as exc:  # recorded, not raised: the sweep continues
            row["status"] = "error"
            row["total_time"] = round(time.monotonic() - t0, 3)
            row["error"] = str(exc)
        results.rows.append(row)
        by_class.setdefault(label, []).append(row)

    for label, rows in by_class.items():
        feasible = [r for r in rows if r["status"] == "sat"]
        infeasible = [r for r in rows if r["status"] == "unsat"]
        unknown = [r for r in rows if r["status"] in ("unknown", "error")]

        def avg(rows_: list[dict]) -> str:
            if not rows_:
                return "-"
            return str(round(sum(r["total_time"] for r in rows_) / len(rows_), 3))

        gen = gen_times.get(label, [])
        results.aggregates.append(
            {
                "class": label,
                "instances": len(rows),
                "feasible": f"{len(feasible)}/{len(rows)}",
                "avg_feasible_time": avg(feasible),
                "infeasible": f"{len(infeasible)}/{len(rows)}",
                "avg_infeasible_time": avg(infeasible),
                "unknown": len(unknown),
                "avg_generation_time": str(round(sum(gen) / len(gen), 3)) if gen else "-",
            }
        )
    return results
