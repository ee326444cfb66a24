"""Decision-procedure backend: booleans, bounded integers, and minimization.

The constraint language deliberately covers exactly what the routing,
assignment, and scheduling models need:

* boolean variables, usable as literals in clauses;
* bounded integer variables ``x``, ``y`` and the atoms ``x - y <= k``,
  ``x - y >= k``, ``x <= k`` and ``x >= k`` for an integer constant ``k``;
* clauses over boolean and difference literals;
* cardinality constraints ``exactly`` over boolean sets;
* minimization of how many of a set of booleans are true.

A :class:`SolverContext` holds the problem in the engine's own form, and
the engine (``engine.py``) reads it as it stands.  Every boolean and every
distinct difference atom takes the next engine variable, in creation
order; an atom is created when a clause first uses it.  ``atom_at`` gives,
per engine variable, its atom ``(x, y, k)`` over theory nodes (0 is the
zero reference, integer ``i`` is node ``i + 1``), or None for a boolean.
``clause``, ``implies`` and ``exactly`` write engine literals (``2*v``
true, ``2*v + 1`` false) straight into ``clauses`` and ``cards``; they
drop a tautology and keep a repeated literal or member once.

:meth:`SolverContext.check_minimize` returns a model or None
(infeasible); when the engine runs out of time it raises
``TimeoutError``, so a truncated search is never mislabelled as
infeasible.  Variables are anonymous: each is known by its object and its
index.

A context is single-threaded; distinct contexts may be used concurrently.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

from .engine import Engine


class BackendError(ValueError):
    """Raised for constraint-language misuse (empty sets, bad bounds...)."""


class UnsupportedExpression(BackendError):
    """The expression leaves the supported difference fragment."""


class BoolRef:
    """Boolean decision variable; ``index`` is its engine variable."""

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
    """Bounded integer decision variable; theory node ``index + 1``."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

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


def _bool_vars(refs: Iterable[BoolRef], what: str) -> list[int]:
    """The distinct engine variables of ``refs``, which must all be booleans."""
    out: dict[int, None] = {}
    for ref in refs:
        if not isinstance(ref, BoolRef):
            raise UnsupportedExpression(f"{what} count booleans only, not {ref!r}")
        out[ref.index] = None
    return list(out)


class Model:
    """Value of every variable of a context, copied from the engine after a sat search."""

    def __init__(self, engine: Engine):
        self._assigns = engine.assigns[:]
        self._nodes = engine.theory.minimal_values()

    def __getitem__(self, ref: Union[BoolRef, IntRef]):
        if isinstance(ref, BoolRef):
            return self._assigns[ref.index] == 1
        if isinstance(ref, IntRef):
            return self._nodes[ref.index + 1]
        raise KeyError(ref)


class SolverContext:
    """The problem in the engine's form: variables, clauses, cards and an objective."""

    def __init__(self) -> None:
        # Per engine variable: its atom over theory nodes, or None for a boolean.
        self.atom_at: list[tuple[int, int, int] | None] = []
        self.atoms: dict[tuple[int, int, int], int] = {}  # atom -> its engine variable
        self.int_bounds: list[tuple[int, int]] = []
        self.clauses: list[list[int]] = []
        self.cards: list[tuple[list[int], int]] = []
        # Engine variables whose true count is minimized, or None.
        self.objective: list[int] | None = None

    def bool_var(self) -> BoolRef:
        self.atom_at.append(None)
        return BoolRef(len(self.atom_at) - 1)

    def int_var(self, lo: int, hi: int) -> IntRef:
        if lo > hi:
            raise BackendError(f"empty domain [{lo}, {hi}]")
        self.int_bounds.append((lo, hi))
        return IntRef(len(self.int_bounds) - 1)

    def clause(self, *literals: LiteralLike) -> None:
        """At least one of ``literals`` holds; ``clause(atom)`` asserts an atom."""
        if not literals:
            raise BackendError("empty clause")
        self._add_clause([self._lit(l) for l in literals])

    def implies(self, antecedents: LiteralLike | Sequence[LiteralLike],
                consequents: LiteralLike | Sequence[LiteralLike]) -> None:
        """(a1 and a2 ...) -> (c1 or c2 ...), as a clause."""
        if isinstance(antecedents, (BoolRef, Atom, Literal)):
            antecedents = [antecedents]
        if isinstance(consequents, (BoolRef, Atom, Literal)):
            consequents = [consequents]
        self._add_clause([self._lit(a) ^ 1 for a in antecedents] + [self._lit(c) for c in consequents])

    def exactly(self, bools: Iterable[BoolRef], n: int) -> None:
        """Exactly ``n`` of ``bools`` are true."""
        members = _bool_vars(bools, "cardinalities")
        if not members or not 0 <= n <= len(members):
            raise BackendError(f"exactly out of range: n={n}, {len(members)} distinct booleans")
        self.cards.append((members, n))

    def minimize(self, bools: Iterable[BoolRef]) -> None:
        """Minimize how many of ``bools`` are true."""
        self.objective = _bool_vars(bools, "objectives")

    def _lit(self, lit: LiteralLike) -> int:
        """The engine literal of ``lit``, giving a new atom the next engine variable."""
        positive = True
        if isinstance(lit, Literal):
            lit, positive = lit.base, lit.positive
        if isinstance(lit, BoolRef):
            var = lit.index
        elif isinstance(lit, Atom):
            key = (lit.x.index + 1 if lit.x is not None else 0,
                   lit.y.index + 1 if lit.y is not None else 0, lit.k)
            var = self.atoms.get(key)
            if var is None:
                var = self.atoms[key] = len(self.atom_at)
                self.atom_at.append(key)
        else:
            raise BackendError(f"not a literal: {lit!r}")
        return 2 * var + (0 if positive else 1)

    def _add_clause(self, lits: list[int]) -> None:
        # Callers convert every literal first, so that an atom of a dropped
        # tautology still takes its engine variable.
        unique = dict.fromkeys(lits)
        if not any(l ^ 1 in unique for l in unique):
            self.clauses.append(list(unique))

    # -- solving ---------------------------------------------------------

    def check_minimize(self, timeout: float | None = None) -> Model | None:
        """Decide the context; with an objective, prove the minimum.

        Returns an optimal model, or None when the context is infeasible.
        Raises TimeoutError when the engine runs out of time, never a
        silent None.
        """
        engine = Engine(self, timeout=timeout)
        best = None
        while _found(engine.solve()):
            best = Model(engine)
            if self.objective is None:
                break
            engine.bound_objective(sum(1 for v in self.objective if engine.assigns[v] == 1) - 1)
        return best


def _found(status: str) -> bool:
    """Whether an engine search found a model; raises TimeoutError on a timeout."""
    if status == "timeout":
        raise TimeoutError("solver timed out")
    return status == "sat"
