"""The comsat benchmark: verdict share and time to verdict, one workload per run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 0

A run builds its instances from ``--seed`` (see ``workloads.py``), then
measures set-up: a fresh ``import comsat`` plus ``parse_instance`` of every
instance, ``SETUP_REPEATS`` times before the solves and as many times
after them, so that the rounds sample the host's speed at both ends of
the run.  The verdict pass solves each instance once, in one process and
one thread, and checks every outcome.
Until ``--seconds`` have passed since the verdict pass began, further
passes re-solve the decided instances, so that each decided instance's
time to verdict is the median of several solves; a capped instance is
solved once and counted at the time it spent.  Afterwards a child process
with another ``PYTHONHASHSEED`` re-solves the decided instances, and their
verdicts and stage counters must match exactly.

End-to-end metrics (``--trace 0``):

* ``decided_share``: (sat + unsat) / attempted.
* ``ok_share``: 1 - failed_share.  An instance fails when ``solve``
  raises, when a sat schedule fails ``validate`` or leaves a customer task
  unserved, or when a verdict contradicts the reference answer.
* ``time_to_verdict_p50_s`` and ``time_to_verdict_tail_s``: the median and
  the highest percentile with ten instances beyond it (the maximum when
  there are ten or fewer); the percentile used is in the summary line.
* ``setup_s``: the median of the set-up rounds.
* ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` the verdict pass runs under the spans of
``tracing.py`` and the run prints the per-layer metrics instead.  Its
repeat passes alternate untraced and traced solves of the decided
instances, and ``trace.overhead_ratio`` is the traced total over the
untraced total, minus one.

``correct`` is false when the run itself cannot be trusted: a generated
instance differs from its recorded digest, the oracle self-test disagrees
with a committed answer, a verdict or counter changes between solves of
one instance, or the determinism child does not finish.  Wrong answers are counted in ``failed`` instead.  The
lines before the last one record the environment and a summary; the full
report, and the spans of a traced run, go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import refs
import workloads as W
from tracing import Tracer

ROOT = W.HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 8
ORACLE_SELF_TEST = 2
# The verdict pass starts no instance after this many seconds, so that a
# run that has become very slow still ends within 180 s.
RUN_BUDGET_S = 120.0
COUNTERS = ("pathfinder_calls", "router_calls", "router_solutions",
            "assign_calls", "scheduler_calls", "combinations")


def fresh_import():
    for name in [m for m in sys.modules if m == "comsat" or m.startswith("comsat.")]:
        del sys.modules[name]
    return importlib.import_module("comsat")


def setup(items: list[W.Item]):
    """Import comsat afresh and parse every instance; return the last round
    and the time of each round."""
    rounds = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # the modules the last round dropped are not collected on the clock
        t0 = time.perf_counter()
        comsat = fresh_import()
        insts = [comsat.parse_instance(item.text) for item in items]
        rounds.append(time.perf_counter() - t0)
    return comsat, insts, rounds


def judge(comsat, inst, item: W.Item, result) -> str | None:
    """Why this outcome counts as failed, or None."""
    from comsat.validation import ValidationInputError

    status = result.status.value
    if status == "sat":
        try:
            report = comsat.validate(inst, result.schedule, result.assignment)
        except ValidationInputError as exc:
            return f"sat schedule rejected by validate: {exc}"
        if not report.ok:
            kinds = sorted({v.kind for v in report.violations})
            return f"sat schedule fails validate: {kinds}"
        served = {(job, task) for st in result.schedule.traces for _pos, job, task in st.trace.serves}
        if served != {(j.name, t.name) for j in inst.customer_jobs() for t in j.tasks}:
            return "sat schedule leaves customer tasks unserved"
    if item.reference is not None and status != "unknown" and (status == "sat") != item.reference:
        truth = "feasible" if item.reference else "infeasible"
        return f"{status} contradicts the reference ({truth})"
    return None


def run_instance(comsat, call, inst, item: W.Item, cfg, check: bool = True) -> dict:
    row = {"instance": item.label}
    t0 = time.perf_counter()
    try:
        result = call(inst, cfg)
    except Exception as exc:  # a failed row; one bad instance never aborts the run
        row.update(seconds=time.perf_counter() - t0, status="error",
                   failure=f"{type(exc).__name__}: {exc}", traceback=traceback.format_exc())
        return row
    row["seconds"] = time.perf_counter() - t0
    row["status"] = result.status.value
    row.update({k: result.stats.get(k, 0) for k in COUNTERS})
    row["failure"] = judge(comsat, inst, item, result) if check else None
    return row


def fingerprint(row: dict) -> list:
    return [row["status"], *(row.get(k, 0) for k in COUNTERS)]


def replay(payload: dict) -> list[list]:
    """Solve the given instance texts once each; the determinism check's child."""
    comsat = W.load_comsat(ROOT)
    cfg = W.WORKLOADS[payload["workload"]].solver_config(comsat)
    out = []
    for text in payload["texts"]:
        item = W.Item("replay", text)
        inst = comsat.parse_instance(text)
        out.append(fingerprint(run_instance(comsat, comsat.solve, inst, item, cfg, check=False)))
    return out


def replay_elsewhere(workload: str, items: list[W.Item], timeout: float):
    """(hash seed, fingerprints) from a child process with another hash seed;
    the fingerprints are None when the child did not finish cleanly."""
    if not items:
        return None, []
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    payload = json.dumps({"workload": workload, "texts": [item.text for item in items]})
    try:
        proc = subprocess.run(
            [sys.executable, str(W.HERE / "run.py"), "--replay"],
            input=payload, capture_output=True, text=True, timeout=timeout, cwd=ROOT,
            env=dict(os.environ, PYTHONHASHSEED=hash_seed), check=True,
        )
    except (subprocess.TimeoutExpired, subprocess.CalledProcessError) as exc:
        print(f"determinism replay did not finish: {exc}", file=sys.stderr)
        return hash_seed, None
    return hash_seed, json.loads(proc.stdout.splitlines()[-1])


def environment(args, workload: W.Workload) -> dict:
    commit = source_sha256 = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    if commit is None:
        digest = hashlib.sha256()
        for path in sorted((ROOT / "src").rglob("*.py")):
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
        source_sha256 = digest.hexdigest()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "commit": commit,
        "source_sha256": source_sha256,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "total_timeout": workload.total_timeout,
        "stage_timeout": workload.stage_timeout,
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
    }


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten instances beyond it."""
    n = len(times)
    if n <= 10:
        return times[-1], 100.0
    return times[n - 11], 100.0 * (n - 10) / n


def repeat_passes(comsat, tracer, call_for, items, insts, rows, decided, cfg, until: float):
    """Re-solve the decided instances until ``until``.

    Returns the solve times per instance (the verdict pass's first), the
    (untraced, traced) times of a traced run's pairs, the labels whose
    verdict or counters changed, and the number of passes begun.
    """
    samples = {i: [rows[i]["seconds"]] for i in decided}
    paired = {i: ([], []) for i in decided}
    unstable = set()
    passes = 0
    while decided and time.perf_counter() < until:
        passes += 1
        # A traced run alternates which side of each pair goes first, so drift cancels.
        sides = (passes % 2 == 0, passes % 2 == 1) if tracer else (False,)
        for i in decided:
            if time.perf_counter() >= until:
                break
            for traced in sides:
                if tracer:
                    tracer.install() if traced else tracer.uninstall()
                call = call_for(items[i]) if traced else comsat.solve
                row = run_instance(comsat, call, insts[i], items[i], cfg, check=False)
                if fingerprint(row) != fingerprint(rows[i]):
                    unstable.add(items[i].label)
                if tracer:
                    paired[i][traced].append(row["seconds"])
                if traced == bool(tracer):
                    samples[i].append(row["seconds"])
    if tracer:
        tracer.uninstall()
    return samples, paired, unstable, passes


def measure(args) -> int:
    began = time.perf_counter()
    W.load_comsat(ROOT)
    workload = W.WORKLOADS[args.workload]
    env = environment(args, workload)
    items, drift = W.build(args.workload, args.seed)
    comsat, insts, setup_rounds = setup(items)
    cfg = workload.solver_config(comsat)
    tracer = Tracer() if args.trace else None

    def call_for(item):
        return functools.partial(tracer.solve, comsat.solve, item.label) if tracer else comsat.solve

    if tracer:
        tracer.install()
    start = time.perf_counter()
    rows = []
    for item, inst in zip(items, insts):
        if time.perf_counter() - start > RUN_BUDGET_S:
            rows.append({"instance": item.label, "status": "skipped", "seconds": workload.total_timeout,
                         "failure": "not started: run budget exhausted"})
            continue
        rows.append(run_instance(comsat, call_for(item), inst, item, cfg))
    verdict_pass_s = time.perf_counter() - start
    n_spans = len(tracer.spans) if tracer else 0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    decided = [i for i, row in enumerate(rows) if row["status"] in ("sat", "unsat")]
    samples, paired, unstable, passes = repeat_passes(
        comsat, tracer, call_for, items, insts, rows, decided, cfg, start + args.seconds)
    measured_s = time.perf_counter() - start
    setup_rounds += setup(items)[2]
    for i in decided:
        rows[i]["seconds"] = statistics.median(samples[i])
        rows[i]["samples"] = samples[i]

    remaining = 170.0 - (time.perf_counter() - began)
    replay_seed, replayed = replay_elsewhere(args.workload, [items[i] for i in decided], max(1.0, remaining))
    mismatched = [] if replayed is None else [
        items[i].label for i, theirs in zip(decided, replayed) if theirs != fingerprint(rows[i])
    ]
    self_test = []
    if args.workload == "tiny-oracle":
        self_test = refs.check_oracle(ORACLE_SELF_TEST)

    n = len(rows)
    times = sorted(row["seconds"] for row in rows)
    tail_s, tail_pct = tail(times)
    counts = {s: sum(row["status"] == s for row in rows) for s in ("sat", "unsat", "unknown", "error", "skipped")}
    failures = [(row["instance"], row["failure"]) for row in rows if row["failure"]]
    correct = not (drift or unstable or mismatched or self_test or replayed is None)
    end_to_end = {
        "decided_share": ((counts["sat"] + counts["unsat"]) / n, "ratio"),
        "ok_share": (1 - len(failures) / n, "ratio"),
        "time_to_verdict_p50_s": (statistics.median(times), "s"),
        "time_to_verdict_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(setup_rounds), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    summary = {
        "attempted": n,
        "counts": counts,
        "failed_share": len(failures) / n,
        "failures": failures,
        "tail_percentile": tail_pct,
        "verdict_pass_s": verdict_pass_s,
        "measured_s": measured_s,
        "repeat_passes": passes,
        "setup_rounds_s": setup_rounds,
        "determinism": {"hash_seeds": [env["hash_seed"], replay_seed], "checked": len(decided),
                        "completed": replayed is not None, "mismatched": mismatched},
        "unstable_across_repeats": sorted(unstable),
        "generator_drift": drift,
        "oracle_self_test": (self_test or "ok") if args.workload == "tiny-oracle" else None,
        "end_to_end": {k: v for k, (v, _u) in end_to_end.items()},
    }
    metrics = end_to_end
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    if tracer:
        metrics = tracer.layer_metrics(n_spans, rows)
        pairs = [i for i in decided if all(paired[i])]
        base = sum(statistics.median(paired[i][0]) for i in pairs)
        with_spans = sum(statistics.median(paired[i][1]) for i in pairs)
        metrics["trace.overhead_ratio"] = (with_spans / base - 1 if base else 0.0, "ratio")
        summary["trace_overhead_pairs"] = len(pairs)
        # Share of solve time that the stage spans account for; the rest is pipeline.self_s.
        solve_s = metrics["pipeline.solve.time_s"][0]
        summary["span_coverage"] = 1 - metrics["pipeline.self_s"][0] / solve_s if solve_s else None
        tracer.write(OUT / f"{stem}-spans.jsonl", n_spans)
    env["loadavg_end"] = os.getloadavg()
    report = {"env": env, "summary": summary, "rows": rows,
              "metrics": {k: v for k, (v, _u) in metrics.items()}}
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    print("env " + json.dumps(env))
    print("summary " + json.dumps(summary))
    print(json.dumps({
        "correct": correct,
        "attempted": n,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main() -> int:
    if sys.argv[1:] == ["--replay"]:
        print(json.dumps(replay(json.loads(sys.stdin.read()))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return measure(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
