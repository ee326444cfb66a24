from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from comsat import backend as B


class Recorded:
    """A context that also records its variables and constraints as written.

    The brute-force oracle below evaluates these records, not the engine
    literals the context stores, so an encoding bug (a wrong sign, a
    misnumbered atom) shows up as a disagreement.
    """

    def __init__(self):
        self.ctx = B.SolverContext()
        self.bools = []
        self.ints = []  # (ref, lo, hi)
        self.constraints = []  # ("clause", literals) or ("exactly", bools, n)

    def bool_var(self):
        ref = self.ctx.bool_var()
        self.bools.append(ref)
        return ref

    def int_var(self, lo, hi):
        ref = self.ctx.int_var(lo, hi)
        self.ints.append((ref, lo, hi))
        return ref

    def clause(self, *literals):
        self.ctx.clause(*literals)
        self.constraints.append(("clause", literals))

    def exactly(self, bools, n):
        bools = list(bools)
        self.ctx.exactly(bools, n)
        self.constraints.append(("exactly", bools, n))

    def satisfied(self, model) -> bool:
        return all(evaluate_constraint(c, model) for c in self.constraints)


def evaluate_literal(lit, model) -> bool:
    positive = True
    if isinstance(lit, B.Literal):
        lit, positive = lit.base, lit.positive
    if isinstance(lit, B.BoolRef):
        value = bool(model[lit])
    else:
        x = model[lit.x] if lit.x is not None else 0
        y = model[lit.y] if lit.y is not None else 0
        value = (x - y) <= lit.k
    return value == positive


def evaluate_constraint(constraint, model) -> bool:
    kind, *args = constraint
    if kind == "clause":
        return any(evaluate_literal(l, model) for l in args[0])
    bools, n = args
    return sum(1 for v in set(bools) if model[v]) == n


def all_bool_assignments(rec):
    for bits in itertools.product([False, True], repeat=len(rec.bools)):
        yield dict(zip(rec.bools, bits))


def count_true(model, bools):
    return sum(1 for b in bools if model[b])


def count_satisfying(rec):
    return sum(1 for assignment in all_bool_assignments(rec) if rec.satisfied(assignment))


def test_exactly_one_singleton():
    ctx = B.SolverContext()
    x = ctx.bool_var()
    ctx.exactly([x], 1)
    model = ctx.check_minimize()
    assert model is not None and model[x] is True


def test_exactly_one_two_true_violates():
    rec = Recorded()
    x, y = rec.bool_var(), rec.bool_var()
    rec.exactly([x, y], 1)
    assert not rec.satisfied({x: True, y: True})
    assert rec.satisfied({x: False, y: True})


def test_exactly_one_three_vars_has_three_models():
    # Oracle: enumerate all 8 assignments.
    rec = Recorded()
    for _ in range(3):
        rec.bool_var()
    rec.exactly(rec.bools, 1)
    assert count_satisfying(rec) == 3


def test_exactly_n_zero_means_all_false():
    ctx = B.SolverContext()
    x, y = ctx.bool_var(), ctx.bool_var()
    ctx.exactly([x, y], 0)
    model = ctx.check_minimize()
    assert model is not None
    assert model[x] is False and model[y] is False


def test_exactly_n_two_of_three_has_three_models():
    rec = Recorded()
    for _ in range(3):
        rec.bool_var()
    rec.exactly(rec.bools, 2)
    assert count_satisfying(rec) == 3


def test_exactly_one_empty_rejected():
    ctx = B.SolverContext()
    for n in (0, 1):
        with pytest.raises(B.BackendError):
            ctx.exactly([], n)
    assert ctx.cards == []


def test_exactly_n_out_of_range_rejected():
    ctx = B.SolverContext()
    x = ctx.bool_var()
    # A repeated member counts once, so two of [x, x] is out of range too.
    for members, n in (([x], 2), ([x], -1), ([x, x], 2)):
        with pytest.raises(B.BackendError):
            ctx.exactly(members, n)
    with pytest.raises(B.UnsupportedExpression):
        ctx.exactly([x, ctx.int_var(0, 1)], 1)
    assert ctx.cards == []


def test_minimize_rejects_integer_objective():
    ctx = B.SolverContext()
    x = ctx.int_var(0, 50)
    ctx.clause(x >= 3)
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
    ctx.clause(b, x >= 5)
    with pytest.raises(B.UnsupportedExpression):
        ctx.minimize([b, x])
    assert ctx.objective is None
    model = ctx.check_minimize()
    assert model is not None and (model[b] or model[x] >= 5)


def test_check_minimize_contradiction():
    ctx = B.SolverContext()
    x = ctx.int_var(0, 50)
    ctx.clause(x >= 1)
    ctx.clause(x <= 0)
    assert ctx.check_minimize() is None


def test_check_minimize_counts_true_objective_booleans():
    # Two pairs, one pick from each; counting the first pick of pair 1 and
    # both picks of pair 2, the minimum is one: the second pick of pair 1.
    ctx = B.SolverContext()
    p1 = [ctx.bool_var(), ctx.bool_var()]
    p2 = [ctx.bool_var(), ctx.bool_var()]
    ctx.exactly(p1, 1)
    ctx.exactly(p2, 1)
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
    ctx.clause(b)
    ctx.minimize([b, b])
    model = ctx.check_minimize(timeout=5.0)
    assert model is not None and count_true(model, [b]) == 1


def test_timeout_is_distinguished():
    ctx = B.SolverContext()
    vars_ = [ctx.bool_var() for _ in range(600)]
    for a, b in zip(vars_, vars_[1:]):
        ctx.clause(a, b)
    with pytest.raises(TimeoutError):
        ctx.check_minimize(timeout=0.0)


def _random_context(rng: random.Random):
    rec = Recorded()
    n = rng.randint(3, 10)
    vars_ = [rec.bool_var() for _ in range(n)]
    for _ in range(rng.randint(1, 4)):
        kind = rng.random()
        members = rng.sample(vars_, rng.randint(1, min(4, n)))
        if kind < 0.45:
            rec.exactly(members, rng.randint(0, len(members)))
        else:
            lits = [m if rng.random() < 0.5 else ~m for m in members]
            rec.clause(*lits)
    return rec, rng.sample(vars_, rng.randint(1, n))


def test_soundness_models_satisfy_constraints():
    rng = random.Random(7)
    for _ in range(60):
        rec, _obj = _random_context(rng)
        model = rec.ctx.check_minimize()
        if model is not None:
            assert rec.satisfied(model)


def test_optimality_matches_brute_force():
    rng = random.Random(11)
    for _ in range(40):
        rec, objective = _random_context(rng)
        rec.ctx.minimize(objective)
        model = rec.ctx.check_minimize()
        best = None
        for assignment in all_bool_assignments(rec):
            if rec.satisfied(assignment):
                value = sum(assignment[v] for v in objective)
                best = value if best is None else min(best, value)
        if best is None:
            assert model is None
        else:
            assert model is not None
            assert count_true(model, objective) == best


def _random_difference_context(rng: random.Random):
    rec = Recorded()
    bools = [rec.bool_var() for _ in range(rng.randint(2, 5))]
    ints = [rec.int_var(0, rng.randint(1, 3)) for _ in range(rng.randint(2, 3))]

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
            rec.exactly(members, rng.randint(0, len(members)))
        elif kind < 0.5:
            rec.clause(atom())
        else:
            rec.clause(*(literal() for _ in range(rng.randint(1, 3))))
    return rec, bools


def test_difference_contexts_match_brute_force():
    # Conflicts whose reasons and learned clauses carry difference atoms,
    # checked on feasibility, optimum and model against every assignment.
    rng = random.Random(5)
    verdicts = []
    for i in range(150):
        rec, bools = _random_difference_context(rng)
        objective = rng.sample(bools, rng.randint(1, len(bools))) if i % 2 else None
        if objective is not None:
            rec.ctx.minimize(objective)
        model = rec.ctx.check_minimize()
        best = None
        refs = [ref for ref, _lo, _hi in rec.ints]
        domains = [range(lo, hi + 1) for _ref, lo, hi in rec.ints]
        for bits in itertools.product([False, True], repeat=len(rec.bools)):
            for values in itertools.product(*domains):
                assignment = {**dict(zip(rec.bools, bits)), **dict(zip(refs, values))}
                if rec.satisfied(assignment):
                    value = count_true(assignment, objective or [])
                    best = value if best is None else min(best, value)
        verdicts.append(model is not None)
        assert (model is not None) == (best is not None)
        if model is not None:
            assert rec.satisfied(model)
            assert all(lo <= model[ref] <= hi for ref, lo, hi in rec.ints)
            assert count_true(model, objective or []) == best
    assert 0 < sum(verdicts) < len(verdicts)


def test_contradicting_root_units_are_infeasible():
    ctx = B.SolverContext()
    x, y = ctx.bool_var(), ctx.bool_var()
    ctx.clause(x)
    ctx.clause(y)
    ctx.exactly([x, y], 1)
    assert ctx.check_minimize() is None


def test_difference_chain_and_model_values():
    ctx = B.SolverContext()
    a = ctx.int_var(0, 100)
    b = ctx.int_var(0, 100)
    c = ctx.int_var(0, 100)
    ctx.clause(b - a >= 4)
    ctx.clause(c - b >= 2)
    ctx.clause(a >= 1)
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
    ctx.clause(~(x <= 4))
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


def test_tautology_stores_no_clause():
    ctx = B.SolverContext()
    b = ctx.bool_var()
    x = ctx.int_var(0, 5)
    ctx.clause(b, ~b)
    ctx.implies(b, b)
    ctx.clause(x <= 3, ~(x <= 3))
    # The atom still takes its engine variable, as if the clause were kept.
    ctx.clause(b, x <= 4, ~b)
    assert ctx.clauses == []
    assert ctx.atom_at == [None, (1, 0, 3), (1, 0, 4)]


def test_repeated_literal_and_member_are_kept_once():
    ctx = B.SolverContext()
    b, c = ctx.bool_var(), ctx.bool_var()
    ctx.clause(b, ~c, b, ~c)
    ctx.exactly([c, b, c], 1)
    assert ctx.clauses == [[0, 3]]
    assert ctx.cards == [([1, 0], 1)]
    model = ctx.check_minimize()
    assert model is not None and (model[b], model[c]) == (True, False)


def test_same_atom_is_one_engine_variable():
    ctx = B.SolverContext()
    b0 = ctx.bool_var()
    x, y = ctx.int_var(0, 5), ctx.int_var(0, 5)
    ctx.clause(x - y <= 2)
    b1 = ctx.bool_var()
    # y - x >= -2 is x - y <= 2 again.
    ctx.implies(b1, y - x >= -2)
    ctx.clause(b0, ~(x - y <= 2))
    assert (b0.index, b1.index) == (0, 2)
    assert ctx.atom_at == [None, (1, 2, 2), None]
    assert ctx.atoms == {(1, 2, 2): 1}
    assert ctx.clauses == [[2], [5, 2], [0, 3]]
