"""Command line interface: solve, gen, validate, bench.

Exit codes for ``solve``: 0 feasible, 1 infeasible, 2 unknown, 3 error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .assignment import assignment_from_json
from .bench import bench
from .generate import GenParams, generate
from .instance import InstanceError, json_fields, parse_instance, serialize_instance
from .pipeline import SolverConfig, SolveStatus, solve
from .scheduling import schedule_from_json
from .validation import ValidationInputError, validate


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="comsat", description=__doc__)
    defaults = SolverConfig()
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("--instance", required=True, type=Path)
    p_solve.add_argument("--max-paths", type=int, default=defaults.max_paths)
    p_solve.add_argument("--max-route-iters", type=int, default=defaults.max_route_iters)
    p_solve.add_argument("--timeout", type=float, default=defaults.total_timeout)
    p_solve.add_argument("--stage-timeout", type=float, default=defaults.stage_timeout)
    p_solve.add_argument("--output", type=Path, help="write the schedule JSON here")
    p_solve.add_argument("--assignment-output", type=Path, help="write the assignment JSON here")
    p_solve.add_argument("--stats", type=Path, help="write run statistics JSON here")

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("--nodes", type=int, required=True)
    p_gen.add_argument("--vehicles", type=int, required=True)
    p_gen.add_argument("--jobs", type=int, required=True)
    p_gen.add_argument("--edge-reduction", type=int, default=0, choices=(0, 25, 50))
    p_gen.add_argument("--horizon", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("-o", "--output", type=Path, required=True)

    p_val = sub.add_parser("validate", help="replay-check a schedule")
    p_val.add_argument("--instance", required=True, type=Path)
    p_val.add_argument("--schedule", required=True, type=Path)
    p_val.add_argument("--assignment", required=True, type=Path)

    p_bench = sub.add_parser("bench", help="run a benchmark grid")
    p_bench.add_argument("--grid", required=True, type=Path)
    p_bench.add_argument("--out", required=True, type=Path)
    return parser


def _cmd_solve(args) -> int:
    inst = parse_instance(args.instance.read_text())
    cfg = SolverConfig(
        max_paths=args.max_paths,
        max_route_iters=args.max_route_iters,
        stage_timeout=args.stage_timeout,
        total_timeout=args.timeout,
    )
    result = solve(inst, cfg)
    if args.stats:
        args.stats.write_text(json.dumps(result.stats, indent=2))
    print(result.status.value)
    if result.status == SolveStatus.SAT:
        if args.output:
            args.output.write_text(result.schedule.to_json())
        if args.assignment_output:
            args.assignment_output.write_text(result.assignment.to_json())
        return 0
    return 1 if result.status == SolveStatus.UNSAT else 2


def _cmd_gen(args) -> int:
    params = GenParams(
        nodes=args.nodes,
        vehicles=args.vehicles,
        jobs=args.jobs,
        edge_reduction=args.edge_reduction,
        horizon=args.horizon,
        seed=args.seed,
    )
    inst = generate(params)
    args.output.write_text(serialize_instance(inst))
    print(f"wrote {args.output}")
    return 0


def _cmd_validate(args) -> int:
    inst = parse_instance(args.instance.read_text())
    sched = schedule_from_json(args.schedule.read_text(), inst)
    asg = assignment_from_json(args.assignment.read_text())
    report = validate(inst, sched, asg)
    if report.ok:
        print("ok: no violations")
        return 0
    for v in report.violations:
        at = f" at t={v.time}" if v.time is not None else ""
        print(f"{v.kind}{at}: {', '.join(v.entities)}")
    return 1


def _read_grid(doc) -> tuple[list[GenParams], SolverConfig]:
    """Instance classes and solver caps of a ``comsat bench`` grid document."""
    base = SolverConfig()
    defaults = {"max_paths": base.max_paths, "max_route_iters": base.max_route_iters,
                "stage_timeout": base.stage_timeout, "timeout": base.total_timeout}
    classes, max_paths, max_route_iters = json_fields(
        {**defaults, **doc} if isinstance(doc, dict) else doc, "grid",
        classes=list, max_paths=int, max_route_iters=int,
    )
    timeouts = []
    for key in ("stage_timeout", "timeout"):
        value = doc.get(key, defaults[key])
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationInputError(f"grid {key!r} must be a number, got {value!r}")
        timeouts.append(float(value))
    grid = []
    for entry in classes:
        nodes, vehicles, jobs, edge_reduction, horizon, seeds = json_fields(
            {"edge_reduction": 0, **entry} if isinstance(entry, dict) else entry, "grid class",
            nodes=int, vehicles=int, jobs=int, edge_reduction=int, horizon=int, seeds=list,
        )
        for seed in seeds:
            if isinstance(seed, bool) or not isinstance(seed, int):
                raise ValidationInputError(f"grid class seeds must be integers, got {seed!r}")
            grid.append(GenParams(nodes=nodes, vehicles=vehicles, jobs=jobs,
                                  edge_reduction=edge_reduction, horizon=horizon, seed=seed))
    cfg = SolverConfig(max_paths=max_paths, max_route_iters=max_route_iters,
                       stage_timeout=timeouts[0], total_timeout=timeouts[1])
    return grid, cfg


def _cmd_bench(args) -> int:
    grid, cfg = _read_grid(json.loads(args.grid.read_text()))
    results = bench(grid, cfg)
    args.out.write_text(results.to_csv())
    for row in results.aggregates:
        print(
            f"{row['class']}: feasible {row['feasible']} (avg {row['avg_feasible_time']}s), "
            f"infeasible {row['infeasible']} (avg {row['avg_infeasible_time']}s), "
            f"unknown {row['unknown']}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return 3
    except (InstanceError, ValidationInputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
