from __future__ import annotations

import itertools
import json
import random

import pytest

from comsat.generate import GenParams, tiny_params, generate
from comsat.instance import parse_instance
from comsat.paths import (
    Path,
    PathCombination,
    PathTable,
    UsedPaths,
    enumerate_paths,
    k_shortest_paths,
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
        "jobs": {},
    }
    return parse_instance(json.dumps(doc))


def test_one_way_cycle_has_single_path():
    inst = _cycle3(bidirectional=False)
    paths = k_shortest_paths(inst.graph, 0, 1, 2)
    assert [p.nodes for p in paths] == [(0, 1)]


def test_bidirectional_triangle_has_two_paths():
    inst = _cycle3(bidirectional=True)
    paths = k_shortest_paths(inst.graph, 0, 1, 2)
    assert [p.nodes for p in paths] == [(0, 1), (0, 2, 1)]
    assert [p.length for p in paths] == [1, 2]


def test_plant21_depot_to_18_single_hop(plant21):
    paths = k_shortest_paths(plant21.graph, 19, 18, 1)
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
    nodes = sorted(inst.graph.nodes)
    source, target = nodes[0], nodes[-1]
    expected = _all_simple_paths(inst.graph, source, target)[:k]
    got = k_shortest_paths(inst.graph, source, target, k)
    assert [(p.length, p.nodes) for p in got] == expected


def test_enumerate_paths_pairs_exclude_identical(plant21):
    table = enumerate_paths(plant21, 3)
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
    used = UsedPaths()
    combo = pathfinder(table, used)
    assert combo is not None
    assert all(idx == 0 for idx in combo.selection.values())
    used.add(combo)
    assert pathfinder(table, used) is None


def test_pathfinder_first_call_is_pairwise_minimal(plant21):
    table = enumerate_paths(plant21, 10)
    combo = pathfinder(table, UsedPaths())
    best = sum(min(p.hops for p in table.candidates[pair]) for pair in table.pairs)
    assert combo.total_hops == best


def test_pathfinder_successive_calls_distinct_non_decreasing(line3):
    table = enumerate_paths(line3, 4)
    used = UsedPaths()
    seen = set()
    last = -1
    while True:
        combo = pathfinder(table, used)
        if combo is None:
            break
        key = combo.key()
        assert key not in seen
        seen.add(key)
        assert combo.total_hops >= last
        last = combo.total_hops
        used.add(combo)
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
    combo = pathfinder(table, UsedPaths())
    hops = {pair: len(combo.path(*pair).nodes) for pair in table.pairs}
    brute = []
    for choice in itertools.product(*[range(len(table.candidates[p])) for p in table.pairs]):
        total = sum(
            table.candidates[p][i].hops for p, i in zip(table.pairs, choice)
        )
        brute.append(total)
    assert combo.total_hops == min(brute)
    used = UsedPaths()
    used.add(combo)
    second = pathfinder(table, used)
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
    used = UsedPaths()
    sequence = []
    while (combo := pathfinder(table, used)) is not None:
        sequence.append(combo)
        used.add(combo)
    totals = [c.total_hops for c in sequence]
    assert totals == sorted(totals)
    assert sorted(c.key() for c in sequence) == sorted(_all_keys(table))
    assert sorted(totals) == sorted(_all_keys(table).values())


def test_pathfinder_skips_combinations_it_never_returned():
    table = _hops_table(UNEVEN_TIES)
    costs = _all_keys(table)
    rng = random.Random(5)
    used = UsedPaths()
    while True:
        # Record combinations the pathfinder did not hand out, some of them
        # cheaper than anything left on its frontier.
        for key in rng.sample(sorted(costs), 2):
            if key not in used.keys:
                used.add(PathCombination(selection=dict(zip(table.pairs, key)), table=table))
        unused = [cost for key, cost in costs.items() if key not in used.keys]
        combo = pathfinder(table, used)
        if not unused:
            assert combo is None
            break
        assert combo.key() not in used.keys
        assert combo.total_hops == min(unused)
        used.add(combo)


def _argmin_selection(table: PathTable) -> dict[tuple[int, int], int]:
    return {
        pair: min(range(len(cands)), key=lambda r: (cands[r].hops, r))
        for pair, cands in table.candidates.items()
    }


def test_pathfinder_first_selection_is_pairwise_argmin(plant21):
    generated = generate(GenParams(nodes=15, vehicles=3, jobs=5, edge_reduction=25, horizon=20, seed=3))
    for inst in (plant21, generated):
        table = enumerate_paths(inst, 10)
        combo = pathfinder(table, UsedPaths())
        assert combo.selection == _argmin_selection(table)
