from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from comsat import backend as B


def all_bool_assignments(ctx):
    for bits in itertools.product([False, True], repeat=len(ctx.bools)):
        yield dict(zip(ctx.bools, bits))


def count_true(model, bools):
    return sum(1 for b in bools if model[b])


def count_satisfying(ctx):
    total = 0
    for assignment in all_bool_assignments(ctx):
        if all(B.evaluate_constraint(c, assignment) for c in ctx.constraints):
            total += 1
    return total


def test_exactly_one_singleton():
    ctx = B.SolverContext()
    x = ctx.bool_var()
    ctx.add(B.exactly_one([x]))
    model = ctx.check_minimize()
    assert model is not None and model[x] is True


def test_exactly_one_two_true_violates():
    ctx = B.SolverContext()
    x, y = ctx.bool_var(), ctx.bool_var()
    constraint = B.exactly_one([x, y])
    assert not B.evaluate_constraint(constraint, {x: True, y: True})


def test_exactly_one_three_vars_has_three_models():
    # Oracle: enumerate all 8 assignments.
    ctx = B.SolverContext()
    for _ in range(3):
        ctx.bool_var()
    ctx.add(B.exactly_one(ctx.bools))
    assert count_satisfying(ctx) == 3


def test_exactly_n_zero_means_all_false():
    ctx = B.SolverContext()
    x, y = ctx.bool_var(), ctx.bool_var()
    ctx.add(B.exactly_n([x, y], 0))
    model = ctx.check_minimize()
    assert model is not None
    assert model[x] is False and model[y] is False


def test_exactly_n_two_of_three_has_three_models():
    ctx = B.SolverContext()
    for _ in range(3):
        ctx.bool_var()
    ctx.add(B.exactly_n(ctx.bools, 2))
    assert count_satisfying(ctx) == 3


def test_exactly_n_one_is_exactly_one():
    ctx = B.SolverContext()
    x = ctx.bool_var()
    ctx.add(B.exactly_n([x], 1))
    model = ctx.check_minimize()
    assert model is not None and model[x] is True


def test_exactly_one_empty_rejected():
    with pytest.raises(B.BackendError):
        B.exactly_one([])


def test_exactly_n_out_of_range_rejected():
    ctx = B.SolverContext()
    x = ctx.bool_var()
    with pytest.raises(B.BackendError):
        B.exactly_n([x], 2)


def test_minimize_rejects_integer_objective():
    ctx = B.SolverContext()
    x = ctx.int_var(0, 50)
    ctx.add(x >= 3)
    with pytest.raises(B.UnsupportedExpression):
        ctx.minimize([x])
    assert ctx.objective is None


def test_minimize_rejects_mixed_objective():
    # Minimizing a weighted b plus x subject to b or x >= 5 used to loop
    # forever: only the integer term was bounded, so branch-and-bound kept
    # re-finding the same model.
    ctx = B.SolverContext()
    b = ctx.bool_var()
    x = ctx.int_var(0, 50)
    ctx.add(B.clause(b, x >= 5))
    with pytest.raises(B.UnsupportedExpression):
        ctx.minimize([b, x])
    assert ctx.objective is None
    model = ctx.check_minimize()
    assert model is not None and (model[b] or model[x] >= 5)


def test_check_minimize_contradiction():
    ctx = B.SolverContext()
    x = ctx.int_var(0, 50)
    ctx.add(x >= 1)
    ctx.add(x <= 0)
    assert ctx.check_minimize() is None


def test_check_minimize_counts_true_objective_booleans():
    # Two pairs, one pick from each; counting the first pick of pair 1 and
    # both picks of pair 2, the minimum is one: the second pick of pair 1.
    ctx = B.SolverContext()
    p1 = [ctx.bool_var(), ctx.bool_var()]
    p2 = [ctx.bool_var(), ctx.bool_var()]
    ctx.add(B.exactly_one(p1))
    ctx.add(B.exactly_one(p2))
    objective = [p1[0], p2[0], p2[1]]
    ctx.minimize(objective)
    model = ctx.check_minimize()
    assert model is not None and count_true(model, objective) == 1
    assert model[p1[1]] and not model[p1[0]]


def test_minimize_counts_a_repeated_boolean_once():
    # Counted twice, the forced b would leave branch-and-bound bounding the
    # objective at 1 and re-finding the model worth 2 until the timeout.
    ctx = B.SolverContext()
    b = ctx.bool_var()
    ctx.add(B.clause(b))
    ctx.minimize([b, b])
    model = ctx.check_minimize(timeout=5.0)
    assert model is not None and count_true(model, [b]) == 1


def test_timeout_is_distinguished():
    ctx = B.SolverContext()
    vars_ = [ctx.bool_var() for _ in range(600)]
    for a, b in zip(vars_, vars_[1:]):
        ctx.add(B.clause(a, b))
    with pytest.raises(TimeoutError):
        ctx.check_minimize(timeout=0.0)


def _random_context(rng: random.Random):
    ctx = B.SolverContext()
    n = rng.randint(3, 10)
    vars_ = [ctx.bool_var() for _ in range(n)]
    for _ in range(rng.randint(1, 4)):
        kind = rng.random()
        members = rng.sample(vars_, rng.randint(1, min(4, n)))
        if kind < 0.45:
            ctx.add(B.exactly_n(members, rng.randint(0, len(members))))
        else:
            lits = [m if rng.random() < 0.5 else ~m for m in members]
            ctx.add(B.clause(*lits))
    return ctx, rng.sample(vars_, rng.randint(1, n))


def test_soundness_models_satisfy_constraints():
    rng = random.Random(7)
    for _ in range(60):
        ctx, _obj = _random_context(rng)
        model = ctx.check_minimize()
        if model is not None:
            for c in ctx.constraints:
                assert B.evaluate_constraint(c, model)


def test_optimality_matches_brute_force():
    rng = random.Random(11)
    for _ in range(40):
        ctx, objective = _random_context(rng)
        ctx.minimize(objective)
        model = ctx.check_minimize()
        best = None
        for assignment in all_bool_assignments(ctx):
            if all(B.evaluate_constraint(c, assignment) for c in ctx.constraints):
                value = sum(assignment[v] for v in objective)
                best = value if best is None else min(best, value)
        if best is None:
            assert model is None
        else:
            assert model is not None
            assert count_true(model, objective) == best


def _random_difference_context(rng: random.Random):
    ctx = B.SolverContext()
    bools = [ctx.bool_var() for _ in range(rng.randint(2, 5))]
    ints = [ctx.int_var(0, rng.randint(1, 3)) for _ in range(rng.randint(2, 3))]

    def atom():
        x, y = rng.sample(ints, 2)
        k = rng.randint(-3, 3)
        return rng.choice([x - y <= k, x - y >= k, x <= k, x >= k])

    def literal():
        base = rng.choice(bools) if rng.random() < 0.5 else atom()
        return base if rng.random() < 0.5 else ~base

    for _ in range(rng.randint(1, 5)):
        kind = rng.random()
        if kind < 0.3:
            members = rng.sample(bools, rng.randint(1, len(bools)))
            ctx.add(B.exactly_n(members, rng.randint(0, len(members))))
        elif kind < 0.5:
            ctx.add(atom())
        else:
            ctx.add(B.clause(*(literal() for _ in range(rng.randint(1, 3)))))
    return ctx, bools


def test_difference_contexts_match_brute_force():
    # Conflicts whose reasons and learned clauses carry difference atoms,
    # checked on feasibility, optimum and model against every assignment.
    rng = random.Random(5)
    verdicts = []
    for i in range(150):
        ctx, bools = _random_difference_context(rng)
        objective = rng.sample(bools, rng.randint(1, len(bools))) if i % 2 else None
        if objective is not None:
            ctx.minimize(objective)
        model = ctx.check_minimize()
        best = None
        domains = [range(ref.lo, ref.hi + 1) for ref in ctx.ints]
        for bits in itertools.product([False, True], repeat=len(ctx.bools)):
            for values in itertools.product(*domains):
                assignment = {**dict(zip(ctx.bools, bits)), **dict(zip(ctx.ints, values))}
                if all(B.evaluate_constraint(c, assignment) for c in ctx.constraints):
                    value = count_true(assignment, objective or [])
                    best = value if best is None else min(best, value)
        verdicts.append(model is not None)
        assert (model is not None) == (best is not None)
        if model is not None:
            assert all(B.evaluate_constraint(c, model) for c in ctx.constraints)
            assert all(ref.lo <= model[ref] <= ref.hi for ref in ctx.ints)
            assert count_true(model, objective or []) == best
    assert 0 < sum(verdicts) < len(verdicts)


def test_contradicting_root_units_are_infeasible():
    ctx = B.SolverContext()
    x, y = ctx.bool_var(), ctx.bool_var()
    ctx.add(B.clause(x))
    ctx.add(B.clause(y))
    ctx.add(B.exactly_n([x, y], 1))
    assert ctx.check_minimize() is None


def test_difference_chain_and_model_values():
    ctx = B.SolverContext()
    a = ctx.int_var(0, 100)
    b = ctx.int_var(0, 100)
    c = ctx.int_var(0, 100)
    ctx.add(b - a >= 4)
    ctx.add(c - b >= 2)
    ctx.add(a >= 1)
    m = ctx.check_minimize()
    assert m is not None
    assert m[a] >= 1 and m[b] - m[a] >= 4 and m[c] - m[b] >= 2
    # Minimal (earliest) values are returned.
    assert (m[a], m[b], m[c]) == (1, 5, 7)


def test_atoms_are_differences_and_bounds():
    ctx = B.SolverContext()
    x = ctx.int_var(0, 10)
    y = ctx.int_var(0, 10)
    for atom, expected in [
        (x - y <= 3, (x, y, 3)),
        (x - y >= 3, (y, x, -3)),
        (x <= 4, (x, None, 4)),
        (x >= 4, (None, x, -4)),
    ]:
        assert (atom.x, atom.y, atom.k) == expected


@pytest.mark.parametrize(
    "build",
    [
        lambda x, y: x <= Fraction(1, 2),
        lambda x, y: x - y >= Fraction(3, 2),
        lambda x, y: x - y <= 1.0,
        lambda x, y: x - 1,
    ],
    ids=["bound", "difference", "float", "minus-constant"],
)
def test_expression_outside_differences_rejected(build):
    ctx = B.SolverContext()
    x = ctx.int_var(0, 10)
    y = ctx.int_var(0, 10)
    with pytest.raises(B.UnsupportedExpression):
        build(x, y)


def test_negated_atom_in_clause():
    ctx = B.SolverContext()
    x = ctx.int_var(0, 10)
    ctx.add(B.clause(~(x <= 4)))
    model = ctx.check_minimize()
    assert model is not None and model[x] >= 5


def test_variables_are_known_by_index():
    ctx = B.SolverContext()
    b0, b1 = ctx.bool_var(), ctx.bool_var()
    x = ctx.int_var(0, 3)
    assert (b0.index, b1.index, x.index) == (0, 1, 0)
    assert repr(~b1) == "not Bool(1)"
    assert repr(x <= 2) == "(Int(0) - 0 <= 2)"
    with pytest.raises(B.BackendError):
        ctx.int_var(3, 2)
