"""Build and check the committed data the workloads draw from.

``tiny_oracle.json`` holds the tiny-oracle reference answers.  They come
from the exhaustive ``brute_oracle``, never from ``solve``, and are
committed with the generator parameters and the instance JSON that was
judged, because the oracle needs about 100 s for the whole set.

``sweep_pool.json`` and ``ladder_pool.json`` hold the pools the sweep and
ladder workloads draw from: every instance's generator parameters, a
digest of its JSON, and the verdict and solve time it had when the pool
was recorded.  The draw is stratified on those, and a run reports any
drawn instance that the generator no longer reproduces.

    python3 perfbench/refs.py oracle         # recompute the reference answers (~2 min)
    python3 perfbench/refs.py pool sweep     # re-record the sweep pool (~4 min)
    python3 perfbench/refs.py pool ladder    # re-record the ladder pool (~4 min)
    python3 perfbench/refs.py check 5        # self-test: recompute the 5 cheapest answers

``check`` also regenerates every tiny-oracle instance from its recorded
parameters and reports entries whose JSON no longer matches.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

import workloads as W


def oracle_verdict(text: str) -> tuple[bool, float]:
    from comsat.instance import parse_instance
    from comsat.oracle import brute_oracle

    inst = parse_instance(text)
    t0 = time.perf_counter()
    feasible = brute_oracle(inst)
    return feasible, time.perf_counter() - t0


def write_lines(path, header: dict, entries: list[dict]) -> None:
    """JSON with one entry per line, so that diffs stay readable."""
    head = json.dumps(header)[:-1]
    body = ",\n".join(json.dumps(e, separators=(",", ":")) for e in entries)
    path.write_text(f'{head}, "entries": [\n{body}\n]}}\n')


def write_oracle() -> None:
    entries = []
    for seed in W.TINY_SEEDS:
        params = W.tiny_oracle_params(seed)
        text = W.instance_text(params)
        feasible, seconds = oracle_verdict(text)
        entries.append({
            "seed": seed,
            "params": dataclasses.asdict(params),
            "feasible": feasible,
            "oracle_s": round(seconds, 4),
            "instance": json.loads(text),
        })
        print(f"seed {seed}: feasible={feasible} ({seconds:.2f}s)", file=sys.stderr, flush=True)
    header = {
        "generator": f"comsat.generate.tiny_params(seed) with length_range={W.TINY_LENGTH_RANGE}",
        "verdicts_from": "comsat.oracle.brute_oracle",
    }
    write_lines(W.TINY_REFS, header, entries)


def write_pool(workload: str) -> None:
    import comsat

    cfg = W.WORKLOADS[workload].solver_config(comsat)
    shapes, seeds = {"sweep": (W.SWEEP_CLASSES, W.SWEEP_POOL_SEEDS),
                     "ladder": (W.LADDER_RUNGS, W.LADDER_POOL_SEEDS)}[workload]
    entries = []
    for shape in shapes:
        for seed in seeds:
            text = W.instance_text(W.gen_params(shape, seed))
            inst = comsat.parse_instance(text)
            t0 = time.perf_counter()
            verdict = comsat.solve(inst, cfg).status.value
            seconds = time.perf_counter() - t0
            entries.append({"shape": shape, "seed": seed, "digest": W.digest(text),
                            "verdict": verdict, "seconds": round(seconds, 4)})
            print(f"{shape} seed {seed}: {verdict} ({seconds:.2f}s)", file=sys.stderr, flush=True)
    header = {"solver": {"total_timeout": cfg.total_timeout, "stage_timeout": cfg.stage_timeout}}
    write_lines(W.POOLS[workload], header, entries)


def check_oracle(count: int) -> list[str]:
    """Problems found: generator drift on any entry, or a wrong answer among
    the ``count`` cheapest entries."""
    problems = []
    entries = json.loads(W.TINY_REFS.read_text())["entries"]
    for entry in entries:
        committed = json.dumps(entry["instance"], indent=2)
        if W.instance_text(W.tiny_oracle_params(entry["seed"])) != committed:
            problems.append(f"tiny#{entry['seed']}: generator output differs from the committed instance")
    for entry in sorted(entries, key=lambda e: e["oracle_s"])[:count]:
        feasible, _ = oracle_verdict(json.dumps(entry["instance"]))
        if feasible != entry["feasible"]:
            problems.append(f"tiny#{entry['seed']}: oracle says {feasible}, committed {entry['feasible']}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("oracle", help="recompute every tiny-oracle reference answer")
    p_pool = sub.add_parser("pool", help="re-record a workload's pool")
    p_pool.add_argument("workload", choices=sorted(W.POOLS))
    p_check = sub.add_parser("check", help="recompute the N cheapest reference answers")
    p_check.add_argument("count", type=int)
    args = parser.parse_args()
    W.load_comsat(W.HERE.parent)
    if args.command == "oracle":
        write_oracle()
    elif args.command == "pool":
        write_pool(args.workload)
    else:
        problems = check_oracle(args.count)
        for line in problems:
            print(line)
        print("ok" if not problems else f"{len(problems)} problem(s)")
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
