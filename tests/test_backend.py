from __future__ import annotations

import itertools
import random

import pytest

from comsat import backend as B


def all_bool_assignments(ctx):
    names = list(ctx.bools)
    for bits in itertools.product([False, True], repeat=len(names)):
        yield dict(zip(names, bits))


def count_satisfying(ctx):
    total = 0
    for assignment in all_bool_assignments(ctx):
        if all(B.evaluate_constraint(c, assignment) for c in ctx.constraints):
            total += 1
    return total


def test_exactly_one_singleton():
    ctx = B.SolverContext()
    x = ctx.bool_var("x")
    ctx.add(B.exactly_one([x]))
    res = ctx.check_minimize()
    assert res.status == B.Status.SAT and res.model[x] is True


def test_exactly_one_two_true_violates():
    ctx = B.SolverContext()
    x, y = ctx.bool_var("x"), ctx.bool_var("y")
    constraint = B.exactly_one([x, y])
    assert not B.evaluate_constraint(constraint, {x: True, y: True})


def test_exactly_one_three_vars_has_three_models():
    # Oracle: enumerate all 8 assignments.
    ctx = B.SolverContext()
    for name in "xyz":
        ctx.bool_var(name)
    ctx.add(B.exactly_one(ctx.bools))
    assert count_satisfying(ctx) == 3


def test_exactly_n_zero_means_all_false():
    ctx = B.SolverContext()
    x, y = ctx.bool_var("x"), ctx.bool_var("y")
    ctx.add(B.exactly_n([x, y], 0))
    res = ctx.check_minimize()
    assert res.status == B.Status.SAT
    assert res.model[x] is False and res.model[y] is False


def test_exactly_n_two_of_three_has_three_models():
    ctx = B.SolverContext()
    for name in "xyz":
        ctx.bool_var(name)
    ctx.add(B.exactly_n(ctx.bools, 2))
    assert count_satisfying(ctx) == 3


def test_exactly_n_one_is_exactly_one():
    ctx = B.SolverContext()
    x = ctx.bool_var("x")
    ctx.add(B.exactly_n([x], 1))
    res = ctx.check_minimize()
    assert res.status == B.Status.SAT and res.model[x] is True


def test_exactly_one_empty_rejected():
    with pytest.raises(B.BackendError):
        B.exactly_one([])


def test_exactly_n_out_of_range_rejected():
    ctx = B.SolverContext()
    x = ctx.bool_var("x")
    with pytest.raises(B.BackendError):
        B.exactly_n([x], 2)


def test_ite_constant_arms():
    ctx = B.SolverContext()
    c = ctx.bool_var("c")
    expr = 5 * c
    assert B.evaluate_expr(expr, {c: True}) == 5
    assert B.evaluate_expr(expr, {c: False}) == 0


def test_ite_objective_semantics_hand_model():
    # Two pairs, two candidates each, costs (3, 5) and (2, 4); selecting the
    # first candidate of each pair must price the combination at 5.
    ctx = B.SolverContext()
    picks = [ctx.bool_var(f"p{i}") for i in range(4)]
    objective = 3 * picks[0] + 5 * picks[1] + 2 * picks[2] + 4 * picks[3]
    model = {picks[0]: True, picks[1]: False, picks[2]: True, picks[3]: False}
    assert B.evaluate_expr(objective, model) == 5


def test_minimize_rejects_integer_objective():
    ctx = B.SolverContext()
    x = ctx.int_var("x", 0, 50)
    ctx.add(x >= 3)
    with pytest.raises(B.UnsupportedExpression):
        ctx.minimize(B.LinExpr({x: 1}, 0))
    assert ctx.objective is None


def test_minimize_rejects_mixed_objective():
    # Minimizing 10*b + x subject to b or x >= 5 used to loop forever:
    # only the integer term was bounded, so branch-and-bound kept
    # re-finding the same model.
    ctx = B.SolverContext()
    b = ctx.bool_var("b")
    x = ctx.int_var("x", 0, 50)
    ctx.add(B.clause(b, x >= 5))
    with pytest.raises(B.UnsupportedExpression):
        ctx.minimize(10 * b + x)
    res = ctx.check_minimize()
    assert res.status == B.Status.SAT and (res.model[b] or res.model[x] >= 5)


def test_check_minimize_contradiction():
    ctx = B.SolverContext()
    x = ctx.int_var("x", 0, 50)
    ctx.add(x >= 1)
    ctx.add(x <= 0)
    assert ctx.check_minimize().status == B.Status.UNSAT


def test_check_minimize_two_pairs_objective_five():
    ctx = B.SolverContext()
    p1 = [ctx.bool_var("p1a"), ctx.bool_var("p1b")]
    p2 = [ctx.bool_var("p2a"), ctx.bool_var("p2b")]
    ctx.add(B.exactly_one(p1))
    ctx.add(B.exactly_one(p2))
    ctx.minimize(3 * p1[0] + 5 * p1[1] + 2 * p2[0] + 4 * p2[1])
    res = ctx.check_minimize()
    assert res.status == B.Status.SAT and res.objective == 5


def test_timeout_is_distinguished():
    ctx = B.SolverContext()
    vars_ = [ctx.bool_var(f"x{i}") for i in range(600)]
    for a, b in zip(vars_, vars_[1:]):
        ctx.add(B.clause(a, b))
    res = ctx.check_minimize(timeout=0.0)
    assert res.status == B.Status.TIMEOUT


def _random_context(rng: random.Random):
    ctx = B.SolverContext()
    n = rng.randint(3, 10)
    vars_ = [ctx.bool_var(f"v{i}") for i in range(n)]
    for _ in range(rng.randint(1, 4)):
        kind = rng.random()
        members = rng.sample(vars_, rng.randint(1, min(4, n)))
        if kind < 0.45:
            ctx.add(B.exactly_n(members, rng.randint(0, len(members))))
        else:
            lits = [m if rng.random() < 0.5 else ~m for m in members]
            ctx.add(B.clause(*lits))
    objective = B.LinExpr({}, 0)
    for v in rng.sample(vars_, rng.randint(1, n)):
        objective = objective + rng.randint(1, 9) * v
    return ctx, objective


def test_soundness_models_satisfy_constraints():
    rng = random.Random(7)
    for _ in range(60):
        ctx, _obj = _random_context(rng)
        res = ctx.check_minimize()
        if res.status == B.Status.SAT:
            for c in ctx.constraints:
                assert B.evaluate_constraint(c, res.model)


def test_optimality_matches_brute_force():
    rng = random.Random(11)
    for _ in range(40):
        ctx, objective = _random_context(rng)
        ctx.minimize(objective)
        res = ctx.check_minimize()
        best = None
        for assignment in all_bool_assignments(ctx):
            if all(B.evaluate_constraint(c, assignment) for c in ctx.constraints):
                value = B.evaluate_expr(objective, assignment)
                best = value if best is None else min(best, value)
        if best is None:
            assert res.status == B.Status.UNSAT
        else:
            assert res.status == B.Status.SAT
            assert res.objective == best


def test_difference_chain_and_model_values():
    ctx = B.SolverContext()
    a = ctx.int_var("a", 0, 100)
    b = ctx.int_var("b", 0, 100)
    c = ctx.int_var("c", 0, 100)
    ctx.add(b - a >= 4)
    ctx.add(c - b >= 2)
    ctx.add(a >= 1)
    res = ctx.check_minimize()
    assert res.status == B.Status.SAT
    m = res.model
    assert m[a] >= 1 and m[b] - m[a] >= 4 and m[c] - m[b] >= 2
    # Minimal (earliest) values are returned.
    assert (m[a], m[b], m[c]) == (1, 5, 7)


def test_negated_atom_in_clause():
    ctx = B.SolverContext()
    x = ctx.int_var("x", 0, 10)
    ctx.add(B.clause(~(x <= 4)))
    res = ctx.check_minimize()
    assert res.status == B.Status.SAT and res.model[x] >= 5


def test_duplicate_names_rejected():
    ctx = B.SolverContext()
    ctx.bool_var("x")
    with pytest.raises(B.BackendError):
        ctx.int_var("x", 0, 1)
