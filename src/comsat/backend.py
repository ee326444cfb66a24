"""Decision-procedure backend: booleans, bounded integers, and minimization.

The constraint language deliberately covers exactly what the routing,
assignment, and scheduling models need:

* boolean variables, usable as literals in clauses;
* bounded integer variables ``x``, ``y`` and the atoms ``x - y <= k``,
  ``x - y >= k``, ``x <= k`` and ``x >= k`` for an integer constant ``k``;
* clauses over boolean and difference literals;
* cardinality constraints ``exactly_n`` over boolean sets;
* minimization of how many of a set of booleans are true.

The engine behind :meth:`SolverContext.check_minimize` is a DPLL-style
search with cardinality propagation and an incremental difference-logic
theory; optimization is branch-and-bound over objective bounds.  A check
returns a model or None (infeasible); when the engine runs out of time it
raises ``TimeoutError``, so a truncated search is never mislabelled as
infeasible.  Variables are anonymous: each is known by its object and its
index in the context.

A context is single-threaded; distinct contexts may be used concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .engine import Engine, EngineSpec


class BackendError(ValueError):
    """Raised for constraint-language misuse (empty sets, bad bounds...)."""


class UnsupportedExpression(BackendError):
    """The expression leaves the supported difference fragment."""


class BoolRef:
    """Boolean decision variable."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def __invert__(self) -> "Literal":
        return Literal(self, False)

    def __repr__(self) -> str:
        return f"Bool({self.index})"


def _constant(k) -> int:
    if isinstance(k, bool) or not isinstance(k, int):
        raise UnsupportedExpression(f"bounds must be integer constants, got {k!r}")
    return k


class IntRef:
    """Bounded integer decision variable."""

    __slots__ = ("index", "lo", "hi")

    def __init__(self, index: int, lo: int, hi: int):
        self.index = index
        self.lo = lo
        self.hi = hi

    def __repr__(self) -> str:
        return f"Int({self.index})"

    def __sub__(self, other: "IntRef") -> "Difference":
        if not isinstance(other, IntRef):
            raise UnsupportedExpression(f"only an integer variable can be subtracted, not {other!r}")
        return Difference(self, other)

    def __le__(self, k: int) -> "Atom":
        return Atom(self, None, _constant(k))

    def __ge__(self, k: int) -> "Atom":
        return Atom(None, self, -_constant(k))


class Difference:
    """``x - y``, to be compared with an integer constant."""

    __slots__ = ("x", "y")

    def __init__(self, x: IntRef, y: IntRef):
        self.x = x
        self.y = y

    def __le__(self, k: int) -> "Atom":
        return Atom(self.x, self.y, _constant(k))

    def __ge__(self, k: int) -> "Atom":
        # x - y >= k  <=>  y - x <= -k
        return Atom(self.y, self.x, -_constant(k))


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

    def __repr__(self) -> str:
        return f"({self.x or 0} - {self.y or 0} <= {self.k})"


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


class SolverContext:
    """Declarative store of variables, constraints, and an optional objective."""

    def __init__(self) -> None:
        self.bools: list[BoolRef] = []
        self.ints: list[IntRef] = []
        self.constraints: list[Constraint] = []
        self.objective: list[BoolRef] | None = None

    def bool_var(self) -> BoolRef:
        ref = BoolRef(len(self.bools))
        self.bools.append(ref)
        return ref

    def int_var(self, lo: int, hi: int) -> IntRef:
        if lo > hi:
            raise BackendError(f"empty domain [{lo}, {hi}]")
        ref = IntRef(len(self.ints), lo, hi)
        self.ints.append(ref)
        return ref

    def add(self, constraint: Constraint) -> None:
        if isinstance(constraint, (Clause, Cardinality, Atom)):
            self.constraints.append(constraint)
        else:
            raise BackendError(f"not a constraint: {constraint!r}")

    def minimize(self, bools: Iterable[BoolRef]) -> None:
        """Minimize how many of ``bools`` are true."""
        members = list(bools)
        for member in members:
            if not isinstance(member, BoolRef):
                raise UnsupportedExpression(f"objectives count booleans only, not {member!r}")
        self.objective = list(dict.fromkeys(members))

    # -- solving ---------------------------------------------------------

    def check_minimize(self, timeout: float | None = None) -> Model | None:
        """Decide the context; with an objective, prove the minimum.

        Returns an optimal model, or None when the context is infeasible.
        Raises TimeoutError when the engine runs out of time, never a
        silent None.
        """
        engine = Engine(self._compile(), timeout=timeout)
        best = None
        while _found(engine.solve()):
            best = self._extract(engine)
            if self.objective is None:
                break
            engine.bound_objective(sum(1 for b in self.objective if best[b]) - 1)
        return best

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
            spec.objective = [b.index for b in self.objective]
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

    def _extract(self, engine: Engine) -> Model:
        bools, ints = engine.model()
        return Model(bools, ints[1 : len(self.ints) + 1])


def _found(status: str) -> bool:
    """Whether an engine search found a model; raises TimeoutError on a timeout."""
    if status == "timeout":
        raise TimeoutError("solver timed out")
    return status == "sat"


# -- independent evaluation (used by tests as the soundness oracle) -------


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
