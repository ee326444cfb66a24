"""Seeded random instance generator for benchmark sweeps.

Instances are built as JSON documents and run through the parser, so a
generated instance is exactly what a file round-trip would produce and is
byte-identical across calls with the same parameters.  The graph is a
random spanning tree plus extra undirected segments; the edge-reduction
percentage scales the extra-segment budget down (more reduction, fewer
segments).  Jobs are pickup/delivery pairs; delivery windows are anchored
randomly with widths between a quarter and half of the horizon.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass

from .instance import Instance, parse_instance

# Attempts, each from its own seeded stream, before generation gives up.
MAX_RETRIES = 20


class GenerationError(RuntimeError):
    pass


@dataclass(frozen=True)
class GenParams:
    nodes: int
    vehicles: int
    jobs: int
    edge_reduction: int
    horizon: int
    seed: int
    # Distribution knobs (defaults follow the benchmark setup; the tiny
    # oracle-comparison suite uses unit lengths and capacities).
    length_range: tuple[int, int] = (1, 4)
    capacity_choices: tuple[int, ...] = (1, 2)
    range_slack: int = 2
    window_width_range: tuple[int, int] | None = None  # default: [T/4, T/2]

    def class_label(self) -> str:
        return f"{self.nodes}-{self.vehicles}-{self.jobs}/r{self.edge_reduction}/T{self.horizon}"


def _shortest_distances(n_nodes: int, segments, source: int) -> list[float]:
    adj: dict[int, list[tuple[int, int]]] = {i: [] for i in range(n_nodes)}
    for u, v, length, _cap in segments:
        adj[u].append((v, length))
        adj[v].append((u, length))
    dist = [float("inf")] * n_nodes
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            if d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return dist


def generate(params: GenParams) -> Instance:
    """Build a reproducible random instance within the given class."""
    if params.nodes < 2 or params.vehicles < 1 or params.jobs < 1:
        raise GenerationError("need at least 2 nodes, 1 vehicle, and 1 job")
    if params.edge_reduction not in (0, 25, 50):
        raise GenerationError("edge_reduction must be one of 0, 25, 50")
    if params.horizon < 1:
        raise GenerationError("horizon must be positive")

    failures: list[str] = []
    for attempt in range(MAX_RETRIES):
        rng = random.Random(f"{params.seed}:{attempt}")
        try:
            return _generate_once(params, rng)
        except (GenerationError, ValueError) as exc:
            failures.append(f"attempt {attempt}: {exc}")
    raise GenerationError("generation kept failing: " + "; ".join(failures))


def _generate_once(params: GenParams, rng: random.Random) -> Instance:
    n = params.nodes
    depot = 0
    order = list(range(1, n))
    rng.shuffle(order)

    segments: list[tuple[int, int, int, int]] = []
    present: set[tuple[int, int]] = set()

    def add_segment(u: int, v: int) -> None:
        length = rng.randint(*params.length_range)
        capacity = rng.choice(params.capacity_choices)
        segments.append((u, v, length, capacity))
        present.add((min(u, v), max(u, v)))

    # Random spanning tree keeps the (undirected, hence strongly connected)
    # graph connected at any reduction level.
    connected = [depot]
    for node in order:
        add_segment(node, rng.choice(connected))
        connected.append(node)

    base_budget = min(3 * n, n * (n - 1) // 2)
    target = max(n - 1, round(base_budget * (1 - params.edge_reduction / 100)))
    candidates = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present
    ]
    rng.shuffle(candidates)
    for u, v in candidates[: max(0, target - len(segments))]:
        add_segment(u, v)

    vehicles = [f"R{i + 1}" for i in range(params.vehicles)]

    pool = [node for node in range(n) if node != depot]
    rng.shuffle(pool)
    locations: list[tuple[int, int]] = []
    for _ in range(params.jobs):
        if len(pool) >= 2:
            locations.append((pool.pop(), pool.pop()))
        else:
            spots = [node for node in range(n) if node != depot]
            locations.append((rng.choice(spots), rng.choice(spots)))

    horizon = params.horizon
    width_lo, width_hi = params.window_width_range or (horizon // 4, horizon // 2)
    jobs: dict[str, dict] = {}
    for ji, (pick, drop) in enumerate(locations):
        width = rng.randint(width_lo, max(width_lo, width_hi))
        anchor = rng.randint(0, max(0, horizon - width))
        elig = [v for v in vehicles if rng.random() < 0.5]
        while not elig:
            elig = [v for v in vehicles if rng.random() < 0.5]
        jobs[f"J{ji + 1}"] = {
            "eligible": elig,
            "tasks": {
                "1": {"location": pick, "window": [0, None], "precedes": []},
                "2": {"location": drop, "window": [anchor, min(horizon, anchor + width)], "precedes": ["1"]},
            },
        }

    dist = _shortest_distances(n, segments, depot)
    worst = 0
    for (pick, drop) in locations:
        among = _shortest_distances(n, segments, pick)
        round_trip = dist[pick] + among[drop] + dist[drop]
        if round_trip == float("inf"):
            raise GenerationError("graph not connected")
        worst = max(worst, int(round_trip))
    operating_range = max(1, params.range_slack * worst)

    doc = {
        "nodes": list(range(n)),
        "depot": depot,
        "edges": [
            {"u": u, "v": v, "len": length, "cap": capacity, "directed": False}
            for u, v, length, capacity in segments
        ],
        "horizon": horizon,
        "vehicles": vehicles,
        "operating_range": operating_range,
        "charge_coeff": 1,
        "discharge_coeff": 1,
        "jobs": jobs,
    }
    return parse_instance(json.dumps(doc))


def tiny_params(seed: int) -> GenParams:
    """Parameters for the oracle-comparison suite: unit geometry, small caps.

    Horizons are kept short so that a fair share of the instances is
    infeasible and both verdicts get exercised.
    """
    rng = random.Random(f"tiny:{seed}")
    horizon = rng.randint(5, 11)
    return GenParams(
        nodes=rng.randint(4, 6),
        vehicles=rng.randint(1, 2),
        jobs=rng.randint(1, 2),
        edge_reduction=0,
        horizon=horizon,
        seed=seed,
        length_range=(1, 1),
        capacity_choices=(1,),
        range_slack=4,
        window_width_range=(0, max(1, horizon // 3)),
    )
