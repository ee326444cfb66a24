from __future__ import annotations

import itertools
import json

import pytest

from comsat.generate import GenParams, tiny_params, generate
from comsat.instance import parse_instance
from comsat.paths import (
    Path,
    PathTable,
    enumerate_paths,
    pathfinder,
)

from conftest import make_instance


def _cycle3(bidirectional: bool):
    doc = {
        "nodes": [0, 1, 2],
        "depot": 0,
        "edges": [
            {"u": 0, "v": 1, "len": 1, "cap": 1, "directed": not bidirectional},
            {"u": 1, "v": 2, "len": 1, "cap": 1, "directed": not bidirectional},
            {"u": 2, "v": 0, "len": 1, "cap": 1, "directed": not bidirectional},
        ],
        "horizon": 10,
        "vehicles": ["R1"],
        "operating_range": 10,
        "charge_coeff": 0,
        "discharge_coeff": 1,
        "jobs": {"J": {"eligible": ["R1"], "tasks": {"1": {"location": 1, "window": [0, 10], "precedes": []}}}},
    }
    return parse_instance(json.dumps(doc))


def _completed(inst, max_paths):
    table = enumerate_paths(inst, max_paths)
    table.complete()
    return table


def test_one_way_cycle_has_single_path():
    paths = _completed(_cycle3(bidirectional=False), 2).candidates[(0, 1)]
    assert [p.nodes for p in paths] == [(0, 1)]


def test_bidirectional_triangle_has_two_paths():
    paths = _completed(_cycle3(bidirectional=True), 2).candidates[(0, 1)]
    assert [p.nodes for p in paths] == [(0, 1), (0, 2, 1)]
    assert [p.length for p in paths] == [1, 2]


def test_plant21_depot_to_18_single_hop(plant21):
    paths = _completed(plant21, 1).candidates[(19, 18)]
    assert [p.nodes for p in paths] == [(19, 18)]


def _all_simple_paths(graph, source, target):
    adj = graph.successors()
    out = []

    def walk(node, seen, nodes, length):
        if node == target:
            out.append((length, tuple(nodes)))
            return
        for e in adj[node]:
            if e.sink not in seen:
                seen.add(e.sink)
                nodes.append(e.sink)
                walk(e.sink, seen, nodes, length + e.length)
                nodes.pop()
                seen.remove(e.sink)

    walk(source, {source}, [source], 0)
    return sorted(out)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("k", [1, 3, 5])
def test_k_shortest_matches_exhaustive(seed, k):
    inst = generate(tiny_params(seed))
    table = _completed(inst, k)
    for source, target in table.pairs:
        got = table.candidates[(source, target)]
        assert [(p.length, p.nodes) for p in got] == _all_simple_paths(inst.graph, source, target)[:k]


def test_enumerate_paths_pairs_exclude_identical(plant21):
    table = enumerate_paths(plant21, 3)
    table.complete()
    assert all(a != b for a, b in table.pairs)
    locations = set(plant21.task_locations())
    assert {a for a, _ in table.pairs} == locations
    for pair, cands in table.candidates.items():
        assert 1 <= len(cands) <= 3
        assert list(cands) == sorted(cands, key=lambda p: (p.length, p.nodes))
        for p in cands:
            assert len(set(p.nodes)) == len(p.nodes)  # simple
            for e, (u, v) in zip(p.edges, zip(p.nodes, p.nodes[1:])):
                assert (e.source, e.sink) == (u, v)
            assert p.length == sum(e.length for e in p.edges)


def test_enumerate_paths_requires_positive_k(plant21):
    with pytest.raises(ValueError):
        enumerate_paths(plant21, 0)


def test_pathfinder_forced_selection_then_exhausted(line3):
    table = enumerate_paths(line3, 1)
    combo = pathfinder(table)
    assert combo is not None
    assert all(idx == 0 for idx in combo.selection.values())
    assert pathfinder(table) is None


def test_pathfinder_first_call_is_pairwise_minimal(plant21):
    table = enumerate_paths(plant21, 10)
    combo = pathfinder(table)
    table.complete()
    best = sum(min(p.hops for p in table.candidates[pair]) for pair in table.pairs)
    assert combo.total_hops == best


def test_pathfinder_successive_calls_distinct_non_decreasing(line3):
    table = enumerate_paths(line3, 4)
    table.complete()
    seen = set()
    last = -1
    while True:
        combo = pathfinder(table)
        if combo is None:
            break
        key = combo.key()
        assert key not in seen
        seen.add(key)
        assert combo.total_hops >= last
        last = combo.total_hops
    total = 1
    for pair in table.pairs:
        total *= len(table.candidates[pair])
    assert len(seen) == total


def test_pathfinder_two_pairs_derived_sequence():
    # Pair X has candidates with 3 and 5 nodes, pair Y with 2 and 4; the
    # optimum is 5, the runner-up 7 (brute force over the 4 combinations).
    inst = make_instance(
        nodes=[0, 1, 2, 3],
        depot=0,
        segments=[(0, 1, 1, 1), (1, 2, 1, 1), (2, 3, 1, 1), (3, 0, 1, 1), (0, 2, 5, 1)],
        jobs={"J": {"tasks": {"1": (2, 0, None)}}},
        horizon=20,
    )
    table = enumerate_paths(inst, 2)
    combo = pathfinder(table)
    hops = {pair: len(combo.path(*pair).nodes) for pair in table.pairs}
    table.complete()
    brute = []
    for choice in itertools.product(*[range(len(table.candidates[p])) for p in table.pairs]):
        total = sum(
            table.candidates[p][i].hops for p, i in zip(table.pairs, choice)
        )
        brute.append(total)
    assert combo.total_hops == min(brute)
    second = pathfinder(table)
    assert second.total_hops == sorted(brute)[1]


def _hops_table(hops_by_pair: list[list[int]]) -> PathTable:
    """Synthetic table whose candidates have the given node counts, in order."""
    pairs = tuple((100 + i, 200 + i) for i in range(len(hops_by_pair)))
    candidates = {
        pair: tuple(Path(nodes=tuple(range(h)), edges=(), length=h - 1) for h in hops)
        for pair, hops in zip(pairs, hops_by_pair)
    }
    return PathTable(pairs=pairs, candidates=candidates, max_paths=4)


# Hop ties within and across pairs, candidates out of hop order, and uneven
# candidate counts (4 x 1 x 3 x 2 = 24 combinations).
UNEVEN_TIES = [[3, 2, 2, 4], [2], [3, 3, 5], [4, 2]]


def _all_keys(table: PathTable) -> dict[tuple[int, ...], int]:
    return {
        choice: sum(table.candidates[p][i].hops for p, i in zip(table.pairs, choice))
        for choice in itertools.product(*[range(len(table.candidates[p])) for p in table.pairs])
    }


def test_pathfinder_full_sequence_on_ties_and_uneven_counts():
    table = _hops_table(UNEVEN_TIES)
    sequence = []
    while (combo := pathfinder(table)) is not None:
        sequence.append(combo)
    totals = [c.total_hops for c in sequence]
    assert totals == sorted(totals)
    assert sorted(c.key() for c in sequence) == sorted(_all_keys(table))
    assert sorted(totals) == sorted(_all_keys(table).values())


def test_tables_from_one_instance_walk_independently(plant21):
    first, second = enumerate_paths(plant21, 10), enumerate_paths(plant21, 10)
    walked = [pathfinder(first).key() for _ in range(3)]
    assert len(set(walked)) == 3
    # The second table starts at the root however far the first has walked.
    assert [pathfinder(second).key() for _ in range(3)] == walked
    assert pathfinder(first).key() not in walked


def _argmin_selection(table: PathTable) -> dict[tuple[int, int], int]:
    return {
        pair: min(range(len(cands)), key=lambda r: (cands[r].hops, r))
        for pair, cands in table.candidates.items()
    }


def test_pathfinder_first_selection_is_pairwise_argmin(plant21):
    generated = generate(GenParams(nodes=15, vehicles=3, jobs=5, edge_reduction=25, horizon=20, seed=3))
    for inst in (plant21, generated):
        table = enumerate_paths(inst, 10)
        combo = pathfinder(table)
        table.complete()
        assert combo.selection == _argmin_selection(table)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("k", [1, 3, 10])
def test_completed_table_matches_exhaustive(seed, k):
    inst = generate(tiny_params(seed))
    table = enumerate_paths(inst, k)
    prefixes = dict(table.candidates)
    table.complete()
    for source, target in table.pairs:
        got = table.candidates[(source, target)]
        assert got[: len(prefixes[(source, target)])] == prefixes[(source, target)]
        assert [(p.length, p.nodes) for p in got] == _all_simple_paths(inst.graph, source, target)[:k]


def test_lazy_table_gives_the_same_combinations():
    # 22 of this instance's 110 pairs pick away from candidate 0.
    inst = generate(GenParams(nodes=15, vehicles=3, jobs=5, edge_reduction=25, horizon=20, seed=3))
    lazy, eager = enumerate_paths(inst, 10), enumerate_paths(inst, 10)
    eager.complete()
    sequences = []
    for table in (lazy, eager):
        sequences.append([pathfinder(table).key() for _ in range(60)])
    assert sequences[0] == sequences[1]
    assert lazy.candidates == eager.candidates


def test_enumerate_paths_lists_only_what_the_first_pick_needs(plant21):
    table = enumerate_paths(plant21, 10)
    listed = sum(len(c) for c in table.candidates.values())
    assert listed < len(table.pairs) * 10
    combo = pathfinder(table)
    assert sum(len(c) for c in table.candidates.values()) == listed
    table.complete()
    assert sum(len(c) for c in table.candidates.values()) > listed
    for source, target in table.pairs:
        got = table.candidates[(source, target)]
        assert [(p.length, p.nodes) for p in got] == _all_simple_paths(plant21.graph, source, target)[:10]
    assert combo.selection == _argmin_selection(table)
