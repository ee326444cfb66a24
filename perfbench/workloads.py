"""The benchmark's workloads: which instances a run solves, and under which caps.

Every workload turns ``--seed`` into a list of instance JSON texts before
anything is timed.  The solver sees them only through ``parse_instance``.

* ``sweep`` draws from the tier-1 sweep pool (classes 15-3-5 x r{0,25,50} x
  T{20,25}, generator seeds 0-33) and ``ladder`` from the scale-rung pool
  (20-4-8/T40, 25-4-10/T50, 30-5-12/T60, generator seeds 0-7).  Each pool
  file records every instance's verdict and solve time when the pool was
  recorded, and a run draws a stratified sample on them.  A sweep run takes
  ``SWEEP_CAPPED`` instances that were capped plus one instance from each
  of ``SWEEP_TIME_BINS`` equal bins of the decided instances ordered by
  solve time.  A ladder run takes one capped instance per rung plus one
  decided instance, so that it also times a first validated schedule at
  scale.  The strata fix the mix of fast, slow and capped instances, so
  that the spread between seeds measures the program rather than the luck
  of the draw.  The recorded verdicts only steer the draw; every run
  judges the verdicts it gets.
* ``tiny-oracle`` solves every instance of ``tiny_oracle.json``, the only
  set with ground truth for ``unsat``; the seed orders them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
TINY_REFS = HERE / "tiny_oracle.json"
POOLS = {"sweep": HERE / "sweep_pool.json", "ladder": HERE / "ladder_pool.json"}
# Pool instances decided in more than this share of the cap are left out of
# the draw: a slower host could push them past the cap and flip the mix.
BORDERLINE = 0.25

SWEEP_CLASSES = tuple((15, 3, 5, red, T) for T in (20, 25) for red in (0, 25, 50))
SWEEP_POOL_SEEDS = range(34)
# 46 of the 204 pool instances were capped; 6 of 28 keeps that share.
SWEEP_CAPPED = 6
SWEEP_TIME_BINS = 22
LADDER_RUNGS = ((20, 4, 8, 0, 40), (25, 4, 10, 0, 50), (30, 5, 12, 0, 60))
LADDER_POOL_SEEDS = range(8)
TINY_SEEDS = range(60)
TINY_LENGTH_RANGE = (1, 3)


@dataclass(frozen=True)
class Item:
    label: str
    text: str
    reference: bool | None = None  # ground-truth feasibility, when known


@dataclass(frozen=True)
class Workload:
    name: str
    total_timeout: float
    stage_timeout: float

    def solver_config(self, comsat):
        return comsat.SolverConfig(total_timeout=self.total_timeout, stage_timeout=self.stage_timeout)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", total_timeout=4.0, stage_timeout=2.0),
        Workload("ladder", total_timeout=10.0, stage_timeout=10.0),
        Workload("tiny-oracle", total_timeout=4.0, stage_timeout=4.0),
    )
}


def load_comsat(root: Path):
    """Import comsat from ``root/src`` only; exit non-zero when it is absent."""
    src = root / "src"
    if not (src / "comsat" / "__init__.py").is_file():
        sys.exit(f"comsat sources not found under {src}")
    sys.path.insert(0, str(src))
    import comsat

    if Path(comsat.__file__).resolve().parent != (src / "comsat").resolve():
        sys.exit(f"comsat was imported from {comsat.__file__}, not from {src}")
    return comsat


def gen_params(shape: tuple[int, int, int, int, int], seed: int):
    from comsat.generate import GenParams

    nodes, vehicles, jobs, red, horizon = shape
    return GenParams(nodes=nodes, vehicles=vehicles, jobs=jobs, edge_reduction=red, horizon=horizon, seed=seed)


def tiny_oracle_params(seed: int):
    from comsat.generate import tiny_params

    return dataclasses.replace(tiny_params(seed), length_range=TINY_LENGTH_RANGE)


def instance_text(params) -> str:
    from comsat.generate import generate
    from comsat.instance import serialize_instance

    return serialize_instance(generate(params))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def label(params) -> str:
    return f"{params.class_label()}#{params.seed}"


def build(workload: str, seed: int) -> tuple[list[Item], list[str]]:
    """Instances for one run, and the labels of those whose JSON no longer
    matches the digest recorded in the pool."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "tiny-oracle":
        entries = json.loads(TINY_REFS.read_text())["entries"]
        rng.shuffle(entries)
        items = [Item(f"tiny#{e['seed']}", json.dumps(e["instance"]), e["feasible"]) for e in entries]
        return items, []

    entries = json.loads(POOLS[workload].read_text())["entries"]
    capped = [e for e in entries if e["verdict"] == "unknown"]
    limit = BORDERLINE * WORKLOADS[workload].total_timeout
    decided = sorted((e for e in entries if e["verdict"] != "unknown" and e["seconds"] <= limit),
                     key=lambda e: e["seconds"])
    if workload == "sweep":
        bins = [decided[i * len(decided) // SWEEP_TIME_BINS:(i + 1) * len(decided) // SWEEP_TIME_BINS]
                for i in range(SWEEP_TIME_BINS)]
        chosen = rng.sample(capped, SWEEP_CAPPED) + [rng.choice(b) for b in bins]
    else:
        chosen = [rng.choice([e for e in capped if tuple(e["shape"]) == rung]) for rung in LADDER_RUNGS]
        chosen.append(rng.choice(decided))
    rng.shuffle(chosen)
    items, drift = [], []
    for entry in chosen:
        params = gen_params(tuple(entry["shape"]), entry["seed"])
        text = instance_text(params)
        if digest(text) != entry["digest"]:
            drift.append(label(params))
        items.append(Item(label(params), text))
    return items, drift
