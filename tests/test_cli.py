from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import comsat
from comsat.cli import _read_grid, main


def test_gen_solve_validate_round_trip(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    sched_path = tmp_path / "sched.json"
    asg_path = tmp_path / "asg.json"
    stats_path = tmp_path / "stats.json"

    assert main([
        "gen", "--nodes", "10", "--vehicles", "2", "--jobs", "3",
        "--edge-reduction", "0", "--horizon", "25", "--seed", "4",
        "-o", str(inst_path),
    ]) == 0
    assert inst_path.exists()

    code = main([
        "solve", "--instance", str(inst_path),
        "--max-paths", "10", "--max-route-iters", "10",
        "--timeout", "60", "--stage-timeout", "30",
        "--output", str(sched_path),
        "--assignment-output", str(asg_path),
        "--stats", str(stats_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().splitlines()[-1] == "sat"
    stats = json.loads(stats_path.read_text())
    assert "router_calls" in stats

    sched = json.loads(sched_path.read_text())
    assert "traces" in sched and "makespan" in sched
    # Every trace carries its serve marks.
    assert all("serves" in trace for trace in sched["traces"])
    assert any(trace["serves"] for trace in sched["traces"])
    assert main([
        "validate",
        "--instance", str(inst_path),
        "--schedule", str(sched_path),
        "--assignment", str(asg_path),
    ]) == 0


def test_solve_unsat_exit_code(tmp_path):
    doc = {
        "nodes": [0, 1],
        "depot": 0,
        "edges": [{"u": 0, "v": 1, "len": 9, "cap": 1, "directed": False}],
        "horizon": 30,
        "vehicles": ["R1"],
        "operating_range": 100,
        "charge_coeff": 0,
        "discharge_coeff": 1,
        "jobs": {"J": {"eligible": ["R1"], "tasks": {"1": {"location": 1, "window": [0, 5], "precedes": []}}}},
    }
    path = tmp_path / "late.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--instance", str(path)]) == 1


def test_solve_without_flags_uses_solver_config_defaults(tmp_path, monkeypatch):
    seen = []

    def record(inst, cfg):
        seen.append(cfg)
        return comsat.SolveResult(status=comsat.pipeline.SolveStatus.UNKNOWN)

    monkeypatch.setattr("comsat.cli.solve", record)
    path = tmp_path / "plant.json"
    path.write_text(comsat.serialize_instance(comsat.example_instance()))
    assert main(["solve", "--instance", str(path)]) == 2
    assert seen == [comsat.SolverConfig()]
    # A bench grid that names no cap gets the same defaults.
    assert _read_grid({"classes": []}) == ([], comsat.SolverConfig())


def test_error_exit_code_on_bad_instance(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["solve", "--instance", str(path)]) == 3
    assert "error" in capsys.readouterr().err


def _three_node_instance() -> dict:
    return {
        "nodes": [0, 1, 2],
        "depot": 0,
        "edges": [
            {"u": 0, "v": 1, "len": 1, "cap": 1, "directed": False},
            {"u": 1, "v": 2, "len": 1, "cap": 1, "directed": False},
        ],
        "horizon": 20,
        "vehicles": ["R1"],
        "operating_range": 100,
        "charge_coeff": 0,
        "discharge_coeff": 1,
        "jobs": {"J": {"eligible": ["R1"], "tasks": {
            "a": {"location": 1, "window": [0, 10], "precedes": []},
            "b": {"location": 2, "window": [0, 15], "precedes": ["a"]},
        }}},
    }


def _task(doc: dict, name: str) -> dict:
    return doc["jobs"]["J"]["tasks"][name]


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["edges"][0].pop("u"),
        lambda d: d["edges"][0].pop("len"),
        lambda d: _task(d, "a").pop("location"),
        lambda d: d.update(nodes=5),
        lambda d: d["jobs"]["J"].update(eligible=3),
        lambda d: d.update(vehicles="R1"),
        lambda d: d["jobs"]["J"].update(eligible="R1"),
        lambda d: _task(d, "b").update(precedes="a"),
    ],
    ids=["edge-without-u", "edge-without-len", "task-without-location", "nodes-not-a-list",
         "eligible-number", "vehicles-string", "eligible-string", "precedes-string"],
)
def test_malformed_instance_exit_3(tmp_path, capsys, edit):
    doc = _three_node_instance()
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--instance", str(path)]) == 0
    edit(doc)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["solve", "--instance", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error:")


def _validate_files(tmp_path, *, schedule_edit=None, assignment_edit=None):
    """Run ``comsat validate`` on a hand-built, valid one-job solution after
    applying the given edits to its schedule and assignment documents."""
    inst = {
        "nodes": [0, 1],
        "depot": 0,
        "edges": [{"u": 0, "v": 1, "len": 2, "cap": 1, "directed": False}],
        "horizon": 20,
        "vehicles": ["R1", "R2"],
        "operating_range": 100,
        "charge_coeff": 0,
        "discharge_coeff": 1,
        "jobs": {"J": {"eligible": ["R1"], "tasks": {"1": {"location": 1, "window": [0, 10], "precedes": []}}}},
    }
    sched = {
        "traces": [{
            "route": 0,
            "vehicle": "R1",
            "nodes": [{"node": 0, "t": 0}, {"node": 1, "t": 2}, {"node": 0, "t": 4}],
            "edges": [{"u": 0, "v": 1, "t": 0}, {"u": 1, "v": 0, "t": 2}],
            "serves": [{"pos": 1, "job": "J", "task": "1"}],
        }],
        "makespan": 4,
    }
    asg = {"assignments": [{"route": 0, "vehicle": "R1", "start": 0, "end": 4}]}
    if schedule_edit:
        schedule_edit(sched)
    if assignment_edit:
        assignment_edit(asg)
    paths = {}
    for name, doc in (("instance", inst), ("schedule", sched), ("assignment", asg)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return main([
        "validate",
        "--instance", str(paths["instance"]),
        "--schedule", str(paths["schedule"]),
        "--assignment", str(paths["assignment"]),
    ])


def test_validate_hand_built_solution(tmp_path, capsys):
    assert _validate_files(tmp_path) == 0
    assert capsys.readouterr().out.startswith("ok")


def _trace(sched):
    return sched["traces"][0]


def _row(asg):
    return asg["assignments"][0]


@pytest.mark.parametrize(
    "schedule_edit, assignment_edit",
    [
        (lambda s: _trace(s)["nodes"][1].pop("t"), None),
        (lambda s: _trace(s)["edges"][0].update(v=999), None),
        (None, lambda a: a["assignments"][0].pop("vehicle")),
        (lambda s: _trace(s).pop("serves"), None),
        (lambda s: _trace(s)["serves"].append("J/1"), None),
        (lambda s: _trace(s).update(nodes=[], edges=[], serves=[]), None),
        (None, lambda a: _row(a).update(vehicle="R2")),
        (None, lambda a: a["assignments"].append(dict(_row(a)))),
    ],
    ids=[
        "node-without-time",
        "edge-to-unknown-node",
        "row-without-vehicle",
        "trace-without-serves",
        "serve-mark-not-an-object",
        "trace-without-nodes",
        "row-names-another-vehicle",
        "two-rows-for-route-0",
    ],
)
def test_validate_malformed_files_exit_3(tmp_path, capsys, schedule_edit, assignment_edit):
    assert _validate_files(tmp_path, schedule_edit=schedule_edit, assignment_edit=assignment_edit) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_bench_writes_csv_with_aggregates(tmp_path, capsys):
    grid = {
        "classes": [
            {"nodes": 8, "vehicles": 2, "jobs": 2, "edge_reduction": 0, "horizon": 20, "seeds": [1, 2, 3]}
        ],
        "timeout": 20,
        "stage_timeout": 10,
    }
    grid_path = tmp_path / "grid.json"
    out_path = tmp_path / "results.csv"
    grid_path.write_text(json.dumps(grid))
    assert main(["bench", "--grid", str(grid_path), "--out", str(out_path)]) == 0
    text = out_path.read_text()
    assert "class,nodes,vehicles,jobs" in text
    assert "feasible" in text
    stdout = capsys.readouterr().out
    assert "feasible" in stdout


GRID_CLASS = {"nodes": 8, "vehicles": 2, "jobs": 2, "horizon": 20, "seeds": [1]}


@pytest.mark.parametrize(
    "grid",
    [
        {},
        {"classes": [{"nodes": 15}]},
        [1],
        {"classes": [1]},
        {"classes": [{**GRID_CLASS, "seeds": ["1"]}]},
        {"classes": [{**GRID_CLASS, "edge_reduction": None}]},
        {"classes": [GRID_CLASS], "max_paths": 2.5},
        {"classes": [GRID_CLASS], "timeout": "20"},
        {"classes": [GRID_CLASS], "timeout": float("nan")},
    ],
    ids=["empty", "class-without-seeds", "not-an-object", "class-not-an-object",
         "seed-not-int", "reduction-not-int", "max-paths-not-int", "timeout-not-number",
         "timeout-nan"],
)
def test_bench_malformed_grid_exit_3(tmp_path, capsys, grid):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    assert main(["bench", "--grid", str(grid_path), "--out", str(tmp_path / "out.csv")]) == 3
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out.csv").exists()


def test_python_m_comsat_runs_the_cli(tmp_path):
    out = tmp_path / "inst.json"
    src = Path(comsat.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "comsat", "gen", "--nodes", "6", "--vehicles", "1", "--jobs", "1",
         "--horizon", "20", "--seed", "0", "-o", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["nodes"]
