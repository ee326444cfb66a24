from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from comsat.generate import GenParams, generate
from comsat.instance import (
    END_JOB,
    START_JOB,
    InstanceSemanticError,
    InstanceSyntaxError,
    parse_instance,
    serialize_instance,
    strongly_connected,
)

from conftest import make_instance


def test_plant21_shape(plant21):
    assert len(plant21.graph.nodes) == 21
    assert plant21.graph.depot == 19
    assert len(plant21.jobs) == 4 + 2
    assert {j.name for j in plant21.jobs} >= {START_JOB, END_JOB, "A", "B", "C", "D"}
    assert plant21.fleet.operating_range == 50
    # 24 undirected segments expand into 48 directed edges.
    assert len(plant21.graph.edges) == 48


def test_zero_jobs_instance_gets_synthetic_anchors():
    inst = make_instance(
        nodes=[0, 1], depot=0, segments=[(0, 1, 1, 1)], jobs={}, horizon=5
    )
    assert [j.name for j in inst.jobs] == [START_JOB, END_JOB]
    assert all(j.tasks[0].location == 0 for j in inst.jobs)
    assert all(j.tasks[0].window_hi == 5 for j in inst.jobs)


def test_dangling_edge_reference_is_semantic_error():
    doc = {
        "nodes": [1, 2],
        "depot": 1,
        "edges": [{"u": 1, "v": 22, "len": 1, "cap": 1, "directed": False}],
        "horizon": 5,
        "vehicles": ["R1"],
        "operating_range": 10,
        "charge_coeff": 0,
        "discharge_coeff": 1,
        "jobs": {},
    }
    with pytest.raises(InstanceSemanticError, match="unknown node"):
        parse_instance(json.dumps(doc))


def test_syntax_error_reports_position():
    with pytest.raises(InstanceSyntaxError, match=r"line \d+, column \d+"):
        parse_instance('{"nodes": [1, 2,}')


def test_not_strongly_connected_rejected():
    doc = {
        "nodes": [0, 1, 2],
        "depot": 0,
        "edges": [
            {"u": 0, "v": 1, "len": 1, "cap": 1, "directed": False},
            {"u": 1, "v": 2, "len": 1, "cap": 1, "directed": True},
        ],
        "horizon": 5,
        "vehicles": ["R1"],
        "operating_range": 10,
        "charge_coeff": 0,
        "discharge_coeff": 1,
        "jobs": {},
    }
    with pytest.raises(InstanceSemanticError, match="strongly connected"):
        parse_instance(json.dumps(doc))


def test_fractional_lengths_rejected():
    doc = {
        "nodes": [0, 1],
        "depot": 0,
        "edges": [{"u": 0, "v": 1, "len": 1.5, "cap": 1, "directed": False}],
        "horizon": 5,
        "vehicles": ["R1"],
        "operating_range": 10,
        "charge_coeff": 0,
        "discharge_coeff": 1,
        "jobs": {},
    }
    with pytest.raises(InstanceSemanticError, match="integer"):
        parse_instance(json.dumps(doc))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["charge_coeff", "discharge_coeff"])
def test_non_finite_coefficient_is_semantic_error(field, value):
    # json.loads accepts NaN and Infinity; the parser must turn them away
    # with its own error, not a bare ValueError from Fraction.
    doc = {
        "nodes": [0, 1],
        "depot": 0,
        "edges": [{"u": 0, "v": 1, "len": 1, "cap": 1, "directed": False}],
        "horizon": 5,
        "vehicles": ["R1"],
        "operating_range": 10,
        "charge_coeff": 0,
        "discharge_coeff": 1,
        "jobs": {},
    }
    parse_instance(json.dumps(doc))
    with pytest.raises(InstanceSemanticError, match=field):
        parse_instance(json.dumps({**doc, field: value}))


def test_duplicate_job_keys_rejected():
    text = (
        '{"nodes": [0, 1], "depot": 0,'
        ' "edges": [{"u": 0, "v": 1, "len": 1, "cap": 1, "directed": false}],'
        ' "horizon": 5, "vehicles": ["R1"], "operating_range": 10,'
        ' "charge_coeff": 0, "discharge_coeff": 1,'
        ' "jobs": {"A": {"eligible": ["R1"], "tasks": {"1": {"location": 1, "window": [0, null], "precedes": []}}},'
        '          "A": {"eligible": ["R1"], "tasks": {"1": {"location": 1, "window": [0, null], "precedes": []}}}}}'
    )
    with pytest.raises(InstanceSemanticError, match="duplicate key"):
        parse_instance(text)


def test_window_must_fit_horizon():
    with pytest.raises(InstanceSemanticError, match="exceeds horizon"):
        make_instance(
            nodes=[0, 1],
            depot=0,
            segments=[(0, 1, 1, 1)],
            jobs={"J": {"tasks": {"1": (1, 0, 99)}}},
            horizon=5,
        )


def test_precedence_cycle_rejected():
    with pytest.raises(InstanceSemanticError, match="cycle"):
        make_instance(
            nodes=[0, 1],
            depot=0,
            segments=[(0, 1, 1, 1)],
            jobs={
                "J": {
                    "tasks": {
                        "1": (1, 0, None, ["2"]),
                        "2": (1, 0, None, ["1"]),
                    }
                }
            },
        )


def test_round_trip_fixed_point(plant21):
    text = serialize_instance(plant21)
    again = parse_instance(text)
    assert again == plant21
    assert serialize_instance(again) == text


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_round_trip_generated(seed):
    inst = generate(GenParams(nodes=8, vehicles=2, jobs=3, edge_reduction=25, horizon=20, seed=seed))
    assert parse_instance(serialize_instance(inst)) == inst


def _reachability_oracle(graph) -> bool:
    """Independent check: every node reaches every other node."""
    adj = {n: set() for n in graph.nodes}
    for e in graph.edges:
        adj[e.source].add(e.sink)
    for source in graph.nodes:
        seen = {source}
        stack = [source]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if seen != graph.nodes:
            return False
    return True


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_connectivity_agrees_with_reachability_sweep(seed):
    inst = generate(GenParams(nodes=7, vehicles=1, jobs=1, edge_reduction=50, horizon=10, seed=seed))
    assert strongly_connected(inst.graph) == _reachability_oracle(inst.graph)
