"""Candidate path enumeration and the path-selection optimization.

Pre-processing lists, for every ordered pair of distinct task locations
(the depot included), the K shortest simple paths by metric length, ties
broken lexicographically by node sequence: Yen's deviation search whose
spur search returns the lexicographically smallest shortest tail, with
Lawler's rule of spurring only at and after the index where the last path
deviated.  The selection problem then picks exactly one candidate per
pair, minimizing the total number of nodes to visit; each call of the
pathfinder resumes the table's own walk and hands out the next cheapest
combination, so no combination is returned twice.

The lists are built lazily.  ``enumerate_paths`` finds every pair's first
candidate from one reverse Dijkstra tree per location and every pair's
fewest possible nodes from one breadth-first search per location, then
runs Yen's search only as far as the first candidate with that fewest
count.  That prefix certifies the pair's cheapest pick, the first
candidate of minimum node count: any candidate not yet listed comes later
and has at least as many nodes.  The first combination needs nothing more;
the rest of each list is generated by ``PathTable.complete`` when the
pathfinder first has to look past the cheapest picks.

The objective is a sum of independent per-pair costs, so selection needs
no search: ranking each pair's candidates by cost and walking the rank
vectors in order of total cost (Lawler's k-best scheme with a heap)
yields every combination exactly once, cheapest first.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from collections.abc import Iterator
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


@dataclass
class PathTable:
    """Each pair's K shortest paths, in order, as far as generated so far.

    A table from ``enumerate_paths`` lists every pair at least up to its
    first candidate of minimum node count; ``complete`` extends every pair
    to its full list.  The table also carries the pathfinder's walk: its
    frontier of ``(total, ranks, last)`` rank vectors, None before the
    first call, and each pair's candidates ranked by ``(hops, index)``
    once the walk has moved past its root.
    """

    pairs: tuple[tuple[int, int], ...]
    candidates: dict[tuple[int, int], tuple[Path, ...]]
    max_paths: int
    _rest: dict[tuple[int, int], Iterator[Path]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _frontier: list[tuple[int, tuple[int, ...], int]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _ranked: list[list[tuple[int, int]]] | None = field(default=None, init=False, repr=False, compare=False)

    def complete(self) -> None:
        """Extend every pair's candidates to the first ``max_paths`` paths."""
        for pair, rest in self._rest.items():
            listed = self.candidates[pair]
            self.candidates[pair] = listed + tuple(itertools.islice(rest, self.max_paths - len(listed)))
        self._rest.clear()


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


Adjacency = dict[int, list[Edge]]
EdgeMap = dict[tuple[int, int], Edge]


def _sorted_successors(graph: Graph) -> Adjacency:
    adj = graph.successors()
    for edges in adj.values():
        edges.sort(key=lambda e: e.sink)
    return adj


def _path(edge_map: EdgeMap, nodes: tuple[int, ...], length: int) -> Path:
    return Path(nodes=nodes, edges=tuple(edge_map[uv] for uv in zip(nodes, nodes[1:])), length=length)


def _lex_shortest(adj: Adjacency, source: int, target: int, banned: set[int],
                  banned_first: set[int]) -> tuple[int, tuple[int, ...]] | None:
    """Shortest ``(length, nodes)`` from ``source`` to ``target``, ties by
    lexicographic node sequence, avoiding the ``banned`` nodes and a first
    step into any of ``banned_first``."""
    heap: list[tuple[int, tuple[int, ...]]] = [(0, (source,))]
    settled = set(banned)
    while heap:
        dist, nodes = heapq.heappop(heap)
        tail = nodes[-1]
        if tail == target:
            return dist, nodes
        if tail in settled:
            continue
        settled.add(tail)
        for e in adj[tail]:
            if e.sink in settled or (tail == source and e.sink in banned_first):
                continue
            heapq.heappush(heap, (dist + e.length, nodes + (e.sink,)))
    return None


def _yen(adj: Adjacency, edge_map: EdgeMap, first: Path) -> Iterator[Path]:
    """Simple paths from ``first``'s source to its target in ``(length,
    nodes)`` order, beginning with ``first``, the smallest of them.

    A spur before the index where the last path deviated from its parent
    has the banned set it had when the last path to change that set spurred
    there, so it would only rebuild a path already seen (Lawler's rule).
    """
    target = first.nodes[-1]
    found = [first]
    seen = {first.nodes}
    candidates: list[tuple[int, tuple[int, ...], int]] = []
    deviation = 0
    yield first
    while True:
        prev = found[-1]
        for i in range(deviation, len(prev.nodes) - 1):
            root = prev.nodes[: i + 1]
            banned_first = {p.nodes[i + 1] for p in found if p.nodes[: i + 1] == root}
            tail = _lex_shortest(adj, root[-1], target, set(root[:-1]), banned_first)
            if tail is None:
                continue
            nodes = root[:-1] + tail[1]
            if nodes in seen:
                continue
            seen.add(nodes)
            root_length = sum(e.length for e in prev.edges[:i])
            heapq.heappush(candidates, (root_length + tail[0], nodes, i))
        if not candidates:
            return
        length, nodes, deviation = heapq.heappop(candidates)
        found.append(_path(edge_map, nodes, length))
        yield found[-1]


def _distances_to(graph: Graph, target: int) -> dict[int, int]:
    """Shortest distance from every node that reaches ``target``."""
    into: Adjacency = {n: [] for n in graph.nodes}
    for e in graph.edges:
        into[e.sink].append(e)
    dist = {target: 0}
    heap = [(0, target)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for e in into[v]:
            reach = d + e.length
            if e.source not in dist or reach < dist[e.source]:
                dist[e.source] = reach
                heapq.heappush(heap, (reach, e.source))
    return dist


def _first_path(adj: Adjacency, edge_map: EdgeMap, dist: dict[int, int], source: int, target: int) -> Path | None:
    """The lexicographically smallest shortest path, given every node's
    distance ``dist`` to ``target``, or None when there is no path.

    Every shortest path is simple, because lengths are positive, so taking
    the smallest sink that stays on a shortest path at each step gives it.
    """
    if source not in dist:
        return None
    nodes = [source]
    while nodes[-1] != target:
        here = dist[nodes[-1]]
        nodes.append(next(e.sink for e in adj[nodes[-1]] if e.sink in dist and dist[e.sink] + e.length == here))
    return _path(edge_map, tuple(nodes), dist[source])


def _fewest_nodes_from(adj: Adjacency, source: int) -> dict[int, int]:
    """Node count of a path with the fewest nodes to every reachable node."""
    count = {source: 1}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for e in adj[u]:
            if e.sink not in count:
                count[e.sink] = count[u] + 1
                queue.append(e.sink)
    return count


def enumerate_paths(inst: Instance, max_paths: int = 10) -> PathTable:
    """Candidate table for every ordered pair of distinct task locations.

    Each pair is listed up to its first candidate of minimum node count
    (or to ``max_paths``); ``PathTable.complete`` lists the rest.
    """
    if max_paths < 1:
        raise ValueError("max_paths must be at least 1")
    graph = inst.graph
    adj = _sorted_successors(graph)
    edge_map = graph.edge_map()
    locations = inst.task_locations()
    pairs = tuple((a, b) for a in locations for b in locations if a != b)
    dist_to = {t: _distances_to(graph, t) for t in locations}
    fewest_from = {s: _fewest_nodes_from(adj, s) for s in locations}
    table = PathTable(pairs=pairs, candidates={}, max_paths=max_paths)
    for source, target in pairs:
        first = _first_path(adj, edge_map, dist_to[target], source, target)
        if first is None:
            table.candidates[(source, target)] = ()
            continue
        paths = _yen(adj, edge_map, first)
        listed = []
        for path in paths:
            listed.append(path)
            if path.hops == fewest_from[source][target] or len(listed) == max_paths:
                break
        table.candidates[(source, target)] = tuple(listed)
        if len(listed) < max_paths:
            table._rest[(source, target)] = paths
    return table


def pathfinder(table: PathTable) -> PathCombination | None:
    """The next combination of one path per pair in the table's walk, or
    None when every combination has been returned.

    The cost of a combination is the total node count of its paths, and
    successive calls return every combination once, cheapest first.  Each
    pair's candidates are ranked by ``(hops, index)``, and rank vectors are
    popped from a heap in non-decreasing total cost.  A vector's successors
    raise one rank at or after the position its parent raised, so every
    vector is pushed exactly once.  The vector a call returns stays on the
    heap until the next call pops it.

    The root vector, every pair's cheapest pick, needs only the listed
    prefix of each pair, so a solve decided on its first combination never
    completes the table; the table is completed and ranked at the first pop.
    """
    heap = table._frontier
    if heap is None:
        heap = table._frontier = []
        if all(table.candidates[pair] for pair in table.pairs):
            heap.append((sum(hops for hops, _ in _cheapest_picks(table)), (0,) * len(table.pairs), 0))
    elif heap:
        total, ranks, last = heapq.heappop(heap)
        if table._ranked is None:
            table.complete()
            table._ranked = [
                sorted((c.hops, r) for r, c in enumerate(table.candidates[pair])) for pair in table.pairs
            ]
        for i in range(last, len(ranks)):
            order = table._ranked[i]
            r = ranks[i] + 1
            if r < len(order):
                step = order[r][0] - order[r - 1][0]
                heapq.heappush(heap, (total + step, ranks[:i] + (r,) + ranks[i + 1 :], i))
    if not heap:
        return None
    if table._ranked is None:
        selection = tuple(r for _, r in _cheapest_picks(table))
    else:
        selection = tuple(order[r][1] for order, r in zip(table._ranked, heap[0][1]))
    return PathCombination(selection=dict(zip(table.pairs, selection)), table=table)


def _cheapest_picks(table: PathTable) -> list[tuple[int, int]]:
    """Each pair's first candidate of fewest nodes, as ``(hops, index)``.

    The listed prefix suffices: a later candidate has a larger index and
    no fewer nodes than the prefix's first candidate of minimum count.
    """
    return [min((c.hops, r) for r, c in enumerate(table.candidates[pair])) for pair in table.pairs]
