"""Candidate path enumeration and the path-selection optimization.

Pre-processing enumerates, for every ordered pair of distinct task
locations (the depot included), the K shortest simple paths by metric
length, ties broken lexicographically by node sequence.  The selection
problem then picks exactly one candidate per pair, minimizing the total
number of nodes to visit, while excluding combinations already tried in
earlier iterations.

The objective is a sum of independent per-pair costs, so selection needs
no search: ranking each pair's candidates by cost and walking the rank
vectors in order of total cost (Lawler's k-best scheme with a heap)
yields every combination exactly once, cheapest first.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .instance import Edge, Graph, Instance


@dataclass(frozen=True)
class Path:
    nodes: tuple[int, ...]
    edges: tuple[Edge, ...]
    length: int

    @property
    def hops(self) -> int:
        """Number of nodes on the path (the selection objective weight)."""
        return len(self.nodes)


@dataclass(frozen=True)
class PathTable:
    pairs: tuple[tuple[int, int], ...]
    candidates: dict[tuple[int, int], tuple[Path, ...]]
    max_paths: int


@dataclass(frozen=True)
class PathCombination:
    """Exactly one chosen candidate per ordered location pair."""

    selection: dict[tuple[int, int], int]
    table: PathTable

    def path(self, a: int, b: int) -> Path:
        if a == b:
            return Path(nodes=(a,), edges=(), length=0)
        return self.table.candidates[(a, b)][self.selection[(a, b)]]

    def distance(self, a: int, b: int) -> int:
        return 0 if a == b else self.path(a, b).length

    @property
    def total_hops(self) -> int:
        return sum(self.path(a, b).hops for a, b in self.table.pairs)

    def key(self) -> tuple[int, ...]:
        return tuple(self.selection[p] for p in self.table.pairs)


@dataclass
class UsedPaths:
    """Append-only history of combinations already handed downstream.

    It also carries the pathfinder's enumeration frontier for ``table``, so
    that successive calls resume where the previous one stopped.
    """

    history: list[PathCombination] = field(default_factory=list)
    keys: set[tuple[int, ...]] = field(default_factory=set)
    table: PathTable | None = None
    frontier: list[tuple[int, tuple[int, ...], int]] = field(default_factory=list)

    def add(self, combo: PathCombination) -> None:
        self.history.append(combo)
        self.keys.add(combo.key())

    def __len__(self) -> int:
        return len(self.history)

    def __iter__(self):
        return iter(self.history)


def _dijkstra_lex(adj: dict[int, list[Edge]], source: int, target: int,
                  banned_nodes: set[int], banned_edges: set[tuple[int, int]]) -> Path | None:
    """Shortest path by length, ties by lexicographic node sequence."""
    heap: list[tuple[int, tuple[int, ...]]] = [(0, (source,))]
    settled: set[int] = set()
    while heap:
        dist, nodes = heapq.heappop(heap)
        tail = nodes[-1]
        if tail == target:
            edges = tuple(_edge_between(adj, nodes[i], nodes[i + 1]) for i in range(len(nodes) - 1))
            return Path(nodes=nodes, edges=edges, length=dist)
        if tail in settled:
            continue
        settled.add(tail)
        for e in adj.get(tail, ()):
            if e.sink in settled or e.sink in banned_nodes:
                continue
            if (e.source, e.sink) in banned_edges:
                continue
            heapq.heappush(heap, (dist + e.length, nodes + (e.sink,)))
    return None


def _edge_between(adj: dict[int, list[Edge]], u: int, v: int) -> Edge:
    for e in adj[u]:
        if e.sink == v:
            return e
    raise KeyError((u, v))


def k_shortest_paths(graph: Graph, source: int, target: int, k: int) -> list[Path]:
    """Yen-style deviation search for the K shortest simple paths."""
    adj = graph.successors()
    first = _dijkstra_lex(adj, source, target, set(), set())
    if first is None:
        return []
    found = [first]
    candidates: list[tuple[int, tuple[int, ...], Path]] = []
    seen = {first.nodes}
    while len(found) < k:
        prev = found[-1]
        for i in range(len(prev.nodes) - 1):
            spur = prev.nodes[i]
            root_nodes = prev.nodes[: i + 1]
            banned_edges = {
                (p.nodes[i], p.nodes[i + 1]) for p in found if p.nodes[: i + 1] == root_nodes
            }
            banned_nodes = set(root_nodes[:-1])
            tail = _dijkstra_lex(adj, spur, target, banned_nodes, banned_edges)
            if tail is None:
                continue
            nodes = root_nodes[:-1] + tail.nodes
            if nodes in seen:
                continue
            seen.add(nodes)
            root_len = sum(_edge_between(adj, root_nodes[j], root_nodes[j + 1]).length for j in range(i))
            edges = tuple(_edge_between(adj, nodes[j], nodes[j + 1]) for j in range(len(nodes) - 1))
            heapq.heappush(candidates, (root_len + tail.length, nodes, Path(nodes, edges, root_len + tail.length)))
        if not candidates:
            break
        _, _, best = heapq.heappop(candidates)
        found.append(best)
    return found


def enumerate_paths(inst: Instance, max_paths: int = 10) -> PathTable:
    """Candidate table for every ordered pair of distinct task locations."""
    if max_paths < 1:
        raise ValueError("max_paths must be at least 1")
    locations = inst.task_locations()
    pairs = tuple((a, b) for a in locations for b in locations if a != b)
    candidates = {
        pair: tuple(k_shortest_paths(inst.graph, pair[0], pair[1], max_paths))
        for pair in pairs
    }
    return PathTable(pairs=pairs, candidates=candidates, max_paths=max_paths)


def pathfinder(table: PathTable, used: UsedPaths) -> PathCombination | None:
    """Cheapest unused combination of one path per pair, or None when spent.

    The cost of a combination is the total node count of its paths.  Each
    pair's candidates are ranked by ``(hops, index)``, and rank vectors are
    popped from a heap in non-decreasing total cost.  A vector's successors
    raise one rank at or after the position its parent raised, so every
    vector is pushed exactly once.  The cheapest entry is returned without
    being popped: it is popped on a later call, once ``used`` holds it.
    """
    ranked: list[list[int]] = []
    costs: list[list[int]] = []
    for pair in table.pairs:
        cands = table.candidates[pair]
        ranked.append(sorted(range(len(cands)), key=lambda r: (cands[r].hops, r)))
        costs.append([cands[r].hops for r in ranked[-1]])
    heap = used.frontier
    if used.table is not table:
        used.table = table
        heap.clear()
        if all(ranked):
            heap.append((sum(c[0] for c in costs), (0,) * len(ranked), 0))
    while heap:
        total, ranks, last = heap[0]
        selection = tuple(order[r] for order, r in zip(ranked, ranks))
        if selection not in used.keys:
            return PathCombination(selection=dict(zip(table.pairs, selection)), table=table)
        heapq.heappop(heap)
        for i in range(last, len(ranks)):
            r = ranks[i] + 1
            if r < len(ranked[i]):
                step = costs[i][r] - costs[i][r - 1]
                heapq.heappush(heap, (total + step, ranks[:i] + (r,) + ranks[i + 1 :], i))
    return None
