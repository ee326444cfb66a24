"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
"""

from __future__ import annotations

import itertools
import random
import statistics
import time

import pytest

import comsat
from comsat.bench import bench
from comsat.generate import GenParams, generate, tiny_params
from comsat.oracle import brute_oracle
from comsat.paths import Path, PathTable, enumerate_paths, pathfinder
from comsat.pipeline import SolverConfig, SolveStatus, solve
from comsat.routing import RouteSearch, router
from comsat.validation import validate

from test_routing import _min_vehicles_brute

SWEEP_CFG = SolverConfig(total_timeout=4.0, stage_timeout=2.0)


def _sweep_grid(seeds_per_class: int) -> list[GenParams]:
    return [
        GenParams(nodes=15, vehicles=3, jobs=5, edge_reduction=red, horizon=T, seed=seed)
        for T in (20, 25)
        for red in (0, 25, 50)
        for seed in range(seeds_per_class)
    ]


def test_criterion_1_plant_example_end_to_end(plant21):
    started = time.monotonic()
    result = solve(plant21, SolverConfig())
    elapsed = time.monotonic() - started
    assert result.status == SolveStatus.SAT
    assert elapsed < 60.0
    report = validate(plant21, result.schedule, result.assignment)
    assert report.ok, report.violations
    for trace in result.schedule.traces:
        for _pos, job, _task in trace.trace.serves:
            assert trace.trace.vehicle in plant21.job(job).eligible
    served = {
        (job, task) for st in result.schedule.traces for _p, job, task in st.trace.serves
    }
    assert served == {(j.name, t.name) for j in plant21.customer_jobs() for t in j.tasks}
    print(f"\nACCEPTANCE 1 PASS: plant example solved and validated in {elapsed:.2f}s")


def test_criterion_2_soundness_sweep_200():
    grid = _sweep_grid(34)  # 6 classes x 34 seeds = 204 instances
    statuses = {"sat": 0, "unsat": 0, "unknown": 0}
    for params in grid:
        inst = generate(params)
        result = solve(inst, SWEEP_CFG)
        statuses[result.status.value] += 1
        if result.status == SolveStatus.SAT:
            report = validate(inst, result.schedule, result.assignment)
            assert report.ok, (params, report.violations)
    assert sum(statuses.values()) == 204
    assert statuses["sat"] > 0
    print(f"\nACCEPTANCE 2 PASS: {sum(statuses.values())} instances, "
          f"all {statuses['sat']} sat results validated cleanly ({statuses})")


def test_criterion_3_oracle_equivalence_100():
    disagreements = []
    unknowns = 0
    feasible = 0
    total = 110
    for seed in range(total):
        inst = generate(tiny_params(seed))
        truth = brute_oracle(inst)
        feasible += truth
        result = solve(inst, SolverConfig(total_timeout=20, stage_timeout=10))
        if result.status == SolveStatus.UNKNOWN:
            unknowns += 1
        elif (result.status == SolveStatus.SAT) != truth:
            disagreements.append((seed, truth, result.status.value))
    assert not disagreements, disagreements
    print(f"\nACCEPTANCE 3 PASS: {total} tiny instances "
          f"({feasible} feasible), 0 disagreements, unknown rate {unknowns}/{total}")


def _random_table(rng: random.Random) -> PathTable:
    n_pairs = rng.randint(2, 6)
    pairs = tuple((100 + i, 200 + i) for i in range(n_pairs))
    candidates = {}
    for pair in pairs:
        cands = []
        for _ in range(rng.randint(1, 3)):
            hops = rng.randint(2, 7)
            nodes = tuple(range(hops))
            cands.append(Path(nodes=nodes, edges=(), length=hops - 1))
        cands.sort(key=lambda p: (p.length, p.nodes))
        candidates[pair] = tuple(cands)
    return PathTable(pairs=pairs, candidates=candidates, max_paths=3)


def test_criterion_4_pathfinder_optimality_50_tables():
    rng = random.Random(20260809)
    checked = enumerated = 0
    for _ in range(50):
        table = _random_table(rng)
        space = 1
        for pair in table.pairs:
            space *= len(table.candidates[pair])
        brute = sorted(
            sum(table.candidates[p][i].hops for p, i in zip(table.pairs, choice))
            for choice in itertools.product(
                *[range(len(table.candidates[p])) for p in table.pairs]
            )
        )
        first = pathfinder(table)
        assert first is not None and first.total_hops == brute[0]
        checked += 1
        # Enumerate the entire space on the smaller tables.
        if space <= 60:
            seen = {first.key()}
            last = first.total_hops
            while True:
                combo = pathfinder(table)
                if combo is None:
                    break
                assert combo.key() not in seen
                assert combo.total_hops >= last
                seen.add(combo.key())
                last = combo.total_hops
            assert len(seen) == space
            enumerated += 1
    print(f"\nACCEPTANCE 4 PASS: 50 tables optimal first pick; "
          f"{enumerated} fully enumerated, all distinct and non-decreasing")


def test_criterion_5_router_minimality_exact():
    checked = 0
    for jobs, seeds in ((1, range(4)), (2, range(4)), (3, range(6))):
        for seed in seeds:
            inst = generate(
                GenParams(nodes=8, vehicles=3, jobs=jobs, edge_reduction=0, horizon=25, seed=seed)
            )
            table = enumerate_paths(inst, 10)
            combo = pathfinder(table)
            routes = router(RouteSearch(inst, combo))
            expected = _min_vehicles_brute(inst, combo)
            if expected is None:
                assert routes is None
            else:
                assert routes is not None and len(routes.routes) == expected
            checked += 1
    print(f"\nACCEPTANCE 5 PASS: route count matches exhaustive minimum on {checked} instances")


def test_criterion_6_conflict_audit_zero_tolerance(plant21):
    audited = 0
    bad_kinds = {"node-capacity", "edge-capacity", "swap"}
    schedules = []
    result = solve(plant21, SolverConfig())
    schedules.append((plant21, result))
    for params in _sweep_grid(5):
        inst = generate(params)
        r = solve(inst, SWEEP_CFG)
        if r.status == SolveStatus.SAT:
            schedules.append((inst, r))
    for inst, r in schedules:
        report = validate(inst, r.schedule, r.assignment)
        assert report.ok
        assert not (report.kinds() & bad_kinds)
        audited += 1
    assert audited >= 10
    print(f"\nACCEPTANCE 6 PASS: replay audit clean on {audited} emitted schedules")


def test_criterion_7_desk_benchmark_shape_and_median():
    grid = _sweep_grid(5)  # 6 classes x 5 seeds
    results = bench(grid, SWEEP_CFG)
    assert len(results.rows) == 30
    by_class = {agg["class"]: agg for agg in results.aggregates}
    assert len(by_class) == 6
    for agg in results.aggregates:
        assert "/" in agg["feasible"] and "/" in agg["infeasible"]
        assert "avg_feasible_time" in agg and "avg_infeasible_time" in agg
    sat_times = [row["total_time"] for row in results.rows if row["status"] == "sat"]
    assert sat_times, "expected feasible instances in the desk grid"
    median = statistics.median(sat_times)
    assert median < 30.0
    csv_text = results.to_csv()
    assert "class,instances,feasible" in csv_text
    print(f"\nACCEPTANCE 7 PASS: desk benchmark median sat time {median:.2f}s < 30s, "
          f"aggregates emitted for {len(by_class)} classes")


def test_criterion_8_unknown_after_exact_iteration_cap():
    from test_pipeline import _always_unassignable_instance

    inst = _always_unassignable_instance()
    cfg = SolverConfig(max_route_iters=10, total_timeout=120, stage_timeout=30)
    result = solve(inst, cfg)
    assert result.status == SolveStatus.UNKNOWN
    assert result.stats["router_solutions"] == cfg.max_route_iters
    assert result.stats["truncated"] is True
    assert result.stats["pathfinder_calls"] == result.stats["combinations"] + 1
    assert result.stats["router_calls"] <= result.stats["combinations"] * (cfg.max_route_iters + 1)
    print("\nACCEPTANCE 8 PASS: unknown verdict after exactly "
          f"{cfg.max_route_iters} routing iterations")
