"""Decision-procedure backend: booleans, bounded integers, and minimization.

The constraint language deliberately covers exactly what the routing,
assignment, and scheduling models need:

* boolean variables, usable as literals in clauses;
* bounded integer variables with *difference* atoms ``x - y <= k`` (either
  side may be absent, giving unary bounds);
* clauses over boolean and difference literals;
* cardinality constraints ``exactly_n`` over boolean sets;
* minimization of a linear objective over booleans (``k * b`` weighs a
  boolean ``b`` by ``k``); integer terms are rejected.

The engine behind :meth:`SolverContext.check_minimize` is a DPLL-style
search with cardinality propagation and an incremental difference-logic
theory; optimization is branch-and-bound over objective bounds.  Timeouts
are a first-class result so callers can report ``unknown`` instead of
mislabelling a truncated search as infeasible.

A context is single-threaded; distinct contexts may be used concurrently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

from .engine import Engine, EngineSpec

Number = int


class BackendError(ValueError):
    """Raised for constraint-language misuse (empty sets, bad bounds...)."""


class UnsupportedExpression(BackendError):
    """The expression leaves the supported linear/difference fragment."""


class BoolRef:
    """Boolean decision variable."""

    __slots__ = ("ctx", "index", "name")

    def __init__(self, ctx: "SolverContext", index: int, name: str):
        self.ctx = ctx
        self.index = index
        self.name = name

    def __invert__(self) -> "Literal":
        return Literal(self, False)

    def __repr__(self) -> str:
        return f"Bool({self.name})"

    # Booleans embed into linear expressions as 0/1 terms.
    def _expr(self) -> "LinExpr":
        return LinExpr({self: 1}, 0)

    def __mul__(self, other: int) -> "LinExpr":
        return self._expr() * other

    __rmul__ = __mul__

    def __add__(self, other):
        return self._expr() + other

    __radd__ = __add__


class IntRef:
    """Bounded integer decision variable."""

    __slots__ = ("ctx", "index", "name", "lo", "hi")

    def __init__(self, ctx: "SolverContext", index: int, name: str, lo: int, hi: int):
        self.ctx = ctx
        self.index = index
        self.name = name
        self.lo = lo
        self.hi = hi

    def __repr__(self) -> str:
        return f"Int({self.name})"

    def _expr(self) -> "LinExpr":
        return LinExpr({self: 1}, 0)

    def __add__(self, other):
        return self._expr() + other

    __radd__ = __add__

    def __sub__(self, other):
        return self._expr() - other

    def __rsub__(self, other):
        return (-1 * self._expr()) + other

    def __mul__(self, other: int) -> "LinExpr":
        return self._expr() * other

    __rmul__ = __mul__

    def __ge__(self, other) -> "Atom":
        return self._expr() >= other

    def __le__(self, other) -> "Atom":
        return self._expr() <= other


@dataclass(frozen=True)
class LinExpr:
    """Affine expression over boolean (0/1) and integer variables."""

    terms: Mapping[Union[BoolRef, IntRef], int]
    const: int

    @staticmethod
    def of(value) -> "LinExpr":
        if isinstance(value, LinExpr):
            return value
        if isinstance(value, (BoolRef, IntRef)):
            return value._expr()
        if isinstance(value, int):
            return LinExpr({}, value)
        raise UnsupportedExpression(f"cannot treat {value!r} as a linear expression")

    def _combine(self, other, sign: int) -> "LinExpr":
        other = LinExpr.of(other)
        terms = dict(self.terms)
        for var, coeff in other.terms.items():
            terms[var] = terms.get(var, 0) + sign * coeff
            if terms[var] == 0:
                del terms[var]
        return LinExpr(terms, self.const + sign * other.const)

    def __add__(self, other) -> "LinExpr":
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "LinExpr":
        return self._combine(other, -1)

    def __rsub__(self, other) -> "LinExpr":
        return (self * -1) + other

    def __mul__(self, factor: int) -> "LinExpr":
        if not isinstance(factor, int):
            raise UnsupportedExpression("only integer coefficients are supported")
        if factor == 0:
            return LinExpr({}, 0)
        return LinExpr({v: c * factor for v, c in self.terms.items()}, self.const * factor)

    __rmul__ = __mul__

    def _difference(self) -> tuple[IntRef | None, IntRef | None, int]:
        """Split into (plus_var, minus_var, const); difference form only."""
        plus = minus = None
        for var, coeff in self.terms.items():
            if isinstance(var, BoolRef):
                raise UnsupportedExpression("boolean terms are not allowed in comparisons")
            if coeff == 1 and plus is None:
                plus = var
            elif coeff == -1 and minus is None:
                minus = var
            else:
                raise UnsupportedExpression(
                    "comparisons must be difference-shaped: x - y and unit coefficients"
                )
        return plus, minus, self.const

    def __le__(self, other) -> "Atom":
        diff = self - other
        plus, minus, const = diff._difference()
        # plus - minus + const <= 0
        return Atom(plus, minus, -const)

    def __ge__(self, other) -> "Atom":
        return LinExpr.of(other) <= self


class Atom:
    """Difference constraint ``x - y <= k``; either side may be None (zero).

    Atoms double as literals inside clauses: ``~atom`` denies it.
    """

    __slots__ = ("x", "y", "k")

    def __init__(self, x: IntRef | None, y: IntRef | None, k: int):
        self.x = x
        self.y = y
        self.k = k

    def __invert__(self) -> "Literal":
        return Literal(self, False)

    def negated(self) -> "Atom":
        # not(x - y <= k)  <=>  y - x <= -k - 1 over the integers
        return Atom(self.y, self.x, -self.k - 1)

    def __repr__(self) -> str:
        lhs = self.x.name if self.x else "0"
        rhs = self.y.name if self.y else "0"
        return f"({lhs} - {rhs} <= {self.k})"


class Literal:
    __slots__ = ("base", "positive")

    def __init__(self, base: Union[BoolRef, Atom], positive: bool):
        self.base = base
        self.positive = positive

    def __invert__(self) -> "Literal":
        return Literal(self.base, not self.positive)

    def __repr__(self) -> str:
        return repr(self.base) if self.positive else f"not {self.base!r}"


LiteralLike = Union[BoolRef, Atom, Literal]


def _as_literal(x: LiteralLike) -> Literal:
    if isinstance(x, Literal):
        return x
    if isinstance(x, (BoolRef, Atom)):
        return Literal(x, True)
    raise BackendError(f"not a literal: {x!r}")


@dataclass(frozen=True)
class Clause:
    literals: tuple[Literal, ...]


@dataclass(frozen=True)
class Cardinality:
    """Exactly ``n`` of ``vars`` are true."""

    vars: tuple[BoolRef, ...]
    n: int


Constraint = Union[Clause, Cardinality, Atom]


def clause(*literals: LiteralLike) -> Clause:
    if not literals:
        raise BackendError("empty clause")
    return Clause(tuple(_as_literal(l) for l in literals))


def implies(antecedents: LiteralLike | Sequence[LiteralLike],
            consequents: LiteralLike | Sequence[LiteralLike]) -> Clause:
    """(a1 and a2 ...) -> (c1 or c2 ...), as a clause."""
    if isinstance(antecedents, (BoolRef, Atom, Literal)):
        antecedents = [antecedents]
    if isinstance(consequents, (BoolRef, Atom, Literal)):
        consequents = [consequents]
    lits = [~_as_literal(a) for a in antecedents] + [_as_literal(c) for c in consequents]
    return Clause(tuple(lits))


def exactly_one(vars: Iterable[BoolRef]) -> Cardinality:
    vs = tuple(vars)
    if not vs:
        raise BackendError("exactly_one over an empty set")
    return Cardinality(vs, 1)


def exactly_n(vars: Iterable[BoolRef], n: int) -> Cardinality:
    vs = tuple(vars)
    if not 0 <= n <= len(vs):
        raise BackendError(f"exactly_n out of range: n={n}, |vars|={len(vs)}")
    return Cardinality(vs, n)


class Status(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    TIMEOUT = "timeout"


class Model:
    """Value assignment for every variable of a context after a SAT check."""

    def __init__(self, bools: Sequence[bool], ints: Sequence[int]):
        self._bools = list(bools)
        self._ints = list(ints)

    def __getitem__(self, ref: Union[BoolRef, IntRef]):
        if isinstance(ref, BoolRef):
            return self._bools[ref.index]
        if isinstance(ref, IntRef):
            return self._ints[ref.index]
        raise KeyError(ref)


@dataclass
class CheckResult:
    status: Status
    model: Model | None = None
    objective: int | None = None


class SolverContext:
    """Declarative store of variables, constraints, and an optional objective."""

    def __init__(self) -> None:
        self.bools: list[BoolRef] = []
        self.ints: list[IntRef] = []
        self.constraints: list[Constraint] = []
        self.objective: LinExpr | None = None
        self._names: set[str] = set()

    def _register(self, name: str) -> None:
        if name in self._names:
            raise BackendError(f"duplicate variable name {name!r}")
        self._names.add(name)

    def bool_var(self, name: str) -> BoolRef:
        self._register(name)
        ref = BoolRef(self, len(self.bools), name)
        self.bools.append(ref)
        return ref

    def int_var(self, name: str, lo: int, hi: int) -> IntRef:
        if lo > hi:
            raise BackendError(f"empty domain for {name!r}: [{lo}, {hi}]")
        self._register(name)
        ref = IntRef(self, len(self.ints), name, lo, hi)
        self.ints.append(ref)
        return ref

    def add(self, constraint: Constraint) -> None:
        if isinstance(constraint, (Clause, Cardinality, Atom)):
            self.constraints.append(constraint)
        else:
            raise BackendError(f"not a constraint: {constraint!r}")

    def minimize(self, expr) -> None:
        objective = LinExpr.of(expr)
        if any(isinstance(var, IntRef) for var in objective.terms):
            raise UnsupportedExpression("objectives may weigh booleans only, not integers")
        self.objective = objective

    # -- solving ---------------------------------------------------------

    def check_minimize(self, timeout: float | None = None) -> CheckResult:
        """Decide the context; with an objective, prove the minimum.

        Returns SAT with an optimal model, UNSAT, or TIMEOUT (never a
        silent UNSAT on resource exhaustion).
        """
        spec = self._compile()
        engine = Engine(spec, timeout=timeout)
        status = engine.solve()
        if status == "timeout":
            return CheckResult(Status.TIMEOUT)
        if status == "unsat":
            return CheckResult(Status.UNSAT)
        model = self._extract(engine)
        if self.objective is None:
            return CheckResult(Status.SAT, model)

        best = model
        best_value = evaluate_expr(self.objective, model)
        while True:
            if not engine.bound_objective(best_value - 1):
                break
            status = engine.solve()
            if status == "timeout":
                return CheckResult(Status.TIMEOUT)
            if status == "unsat":
                break
            best = self._extract(engine)
            best_value = evaluate_expr(self.objective, best)
        return CheckResult(Status.SAT, best, best_value)

    def _compile(self) -> EngineSpec:
        spec = EngineSpec(n_bools=len(self.bools))
        for ref in self.ints:
            spec.add_int(ref.lo, ref.hi)
        for c in self.constraints:
            if isinstance(c, Atom):
                spec.add_clause([self._engine_lit(Literal(c, True), spec)])
            elif isinstance(c, Clause):
                spec.add_clause([self._engine_lit(l, spec) for l in c.literals])
            elif isinstance(c, Cardinality):
                spec.add_cardinality([v.index for v in c.vars], c.n)
        if self.objective is not None:
            self._compile_objective(spec)
        return spec

    def _engine_lit(self, lit: Literal, spec: EngineSpec) -> int:
        if isinstance(lit.base, BoolRef):
            var = lit.base.index
        else:
            atom = lit.base
            xi = atom.x.index + 1 if atom.x is not None else 0
            yi = atom.y.index + 1 if atom.y is not None else 0
            var = spec.intern_atom(xi, yi, atom.k)
        return var * 2 + (0 if lit.positive else 1)

    def _compile_objective(self, spec: EngineSpec) -> None:
        assert self.objective is not None
        bool_terms: list[tuple[int, int]] = []
        shift = self.objective.const
        for var, coeff in self.objective.terms.items():
            # Negative coefficients flip to the negated literal.
            if coeff > 0:
                bool_terms.append((var.index * 2, coeff))
            else:
                bool_terms.append((var.index * 2 + 1, -coeff))
                shift += coeff
        spec.set_objective(bool_terms, shift)

    def _extract(self, engine: Engine) -> Model:
        bools, ints = engine.model()
        return Model(bools, ints[1 : len(self.ints) + 1])


# -- independent evaluation (used by tests as the soundness oracle) -------


def evaluate_expr(expr, model) -> int:
    expr = LinExpr.of(expr)
    total = expr.const
    for var, coeff in expr.terms.items():
        value = model[var]
        total += coeff * (int(value) if isinstance(var, BoolRef) else value)
    return total


def evaluate_literal(lit: LiteralLike, model) -> bool:
    lit = _as_literal(lit)
    if isinstance(lit.base, BoolRef):
        value = bool(model[lit.base])
    else:
        atom = lit.base
        x = model[atom.x] if atom.x is not None else 0
        y = model[atom.y] if atom.y is not None else 0
        value = (x - y) <= atom.k
    return value if lit.positive else not value


def evaluate_constraint(constraint: Constraint, model) -> bool:
    if isinstance(constraint, Atom):
        return evaluate_literal(constraint, model)
    if isinstance(constraint, Clause):
        return any(evaluate_literal(l, model) for l in constraint.literals)
    if isinstance(constraint, Cardinality):
        return sum(1 for v in constraint.vars if model[v]) == constraint.n
    raise BackendError(f"not a constraint: {constraint!r}")
