"""Search engine behind the solver backend.

A conflict-driven boolean search (two-watched-literal clauses, counter-based
cardinality propagation, first-UIP clause learning) combined with an
incremental difference-logic theory: every assigned difference literal
asserts one weighted edge, feasibility is maintained through potential
repair, and an infeasible assertion yields the offending cycle as a
conflict clause.  Optimization minimizes how many of a set of boolean
variables are true by branch-and-bound on that count, which propagation
counts off the assignment, and reuses learned clauses across bounds (sound
because bounds only tighten, so the constraint set only grows).

Clauses are plain literal lists, and every reason and conflict is one too.
The engine keeps no satisfied-clause marks: branching reads satisfaction
off the assignment.  Unit clauses and what each cardinality forces on its
own are put on the trail in the constructor, which records a root
conflict for ``solve`` to report.

The problem is a ``backend.SolverContext``, read as it stands.  Its
``clauses`` and ``cards`` hold MiniSat-style literals: variable ``v`` has
positive literal ``2*v`` and negative literal ``2*v + 1``.  Variables are
numbered in the order the context created them, booleans and difference
atoms interleaved, and ``atom_at[v]`` is the atom ``(x, y, k)``, meaning
``x - y <= k`` over theory nodes, of variable ``v``, or None for a
boolean.  Theory node 0 is the fixed zero reference; the context's
integers are nodes ``1..n``.  The engine copies the clauses it watches,
because watching reorders them, and never changes the context.
"""

from __future__ import annotations

import time
from collections import deque


class _Card:
    __slots__ = ("members", "n", "count_true", "count_false")

    def __init__(self, members: list[int], n: int):
        self.members = members
        self.n = n
        self.count_true = 0
        self.count_false = 0


class _Theory:
    """Incremental difference-logic store over ge-edges ``v >= u + w``.

    Potentials stay feasible across edge removals, so backtracking is a
    plain pop; only a failed assertion rolls its repairs back.
    """

    def __init__(self, n_nodes: int):
        self.n_nodes = n_nodes
        self.pot = [0] * n_nodes
        self.out: list[list[tuple[int, int, int]]] = [[] for _ in range(n_nodes)]

    def assert_edge(self, u: int, v: int, w: int, lit: int) -> list[int] | None:
        """Add one edge; returns the culprit literals of a positive cycle."""
        pot = self.pot
        if u == v:
            if w > 0:
                return [lit] if lit >= 0 else []
            self.out[u].append((v, w, lit))
            return None
        if pot[v] >= pot[u] + w:
            self.out[u].append((v, w, lit))
            return None
        changed: dict[int, int] = {v: pot[v]}
        pred: dict[int, tuple[int, int]] = {v: (u, lit)}
        pot[v] = pot[u] + w
        queue = deque([v])
        while queue:
            t = queue.popleft()
            base = pot[t]
            for s, w2, lit2 in self.out[t]:
                if pot[s] < base + w2:
                    if s == u:
                        # New positive cycle; it must run through the new edge.
                        lits = [] if lit2 < 0 else [lit2]
                        node = t
                        while node != v:
                            p, plit = pred[node]
                            if plit >= 0:
                                lits.append(plit)
                            node = p
                        p, plit = pred[v]
                        if plit >= 0:
                            lits.append(plit)
                        for n_, old in changed.items():
                            pot[n_] = old
                        return lits
                    if s not in changed:
                        changed[s] = pot[s]
                    pot[s] = base + w2
                    pred[s] = (t, lit2)
                    queue.append(s)
        self.out[u].append((v, w, lit))
        return None

    def pop_edge(self, u: int) -> None:
        self.out[u].pop()

    def minimal_values(self) -> list[int]:
        """Smallest solution: longest distance from node 0 over asserted edges."""
        neg_inf = float("-inf")
        dist: list[float] = [neg_inf] * self.n_nodes
        dist[0] = 0
        for _ in range(self.n_nodes):
            updated = False
            for u in range(self.n_nodes):
                du = dist[u]
                if du == neg_inf:
                    continue
                for v, w, _lit in self.out[u]:
                    if dist[v] < du + w:
                        dist[v] = du + w
                        updated = True
            if not updated:
                break
        return [int(d) if d != neg_inf else 0 for d in dist]


class Engine:
    def __init__(self, ctx, timeout: float | None = None):
        """Search over ``ctx``, a ``backend.SolverContext``, read in place."""
        self.deadline = time.monotonic() + timeout if timeout is not None else None
        self._ticks = 0

        self.atom_at = ctx.atom_at
        nv = len(ctx.atom_at)

        self.assigns = [0] * nv          # 0 unassigned, 1 true, -1 false
        self.var_level = [0] * nv
        self.reasons: list[list[int] | None] = [None] * nv
        self.trail: list[int] = []
        self.trail_edge: list[int] = []  # theory node whose edge list grew, else -1
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.watches: list[list[list[int]]] = [[] for _ in range(2 * nv)]

        self.theory = _Theory(1 + len(ctx.int_bounds))
        self.root_conflict = False
        for node, (lo, hi) in enumerate(ctx.int_bounds, start=1):
            if self.theory.assert_edge(0, node, lo, -1) is not None:
                self.root_conflict = True
            if self.theory.assert_edge(node, 0, -hi, -1) is not None:
                self.root_conflict = True

        self.clauses: list[list[int]] = []
        units: list[int] = []
        for lits in ctx.clauses:
            if not lits:
                self.root_conflict = True
            elif len(lits) == 1:
                units.append(lits[0])
            else:
                self._attach(list(lits))

        self.cards: list[_Card] = []
        self.card_occ: list[list[_Card]] = [[] for _ in range(nv)]
        for members, n in ctx.cards:
            card = _Card(members, n)
            self.cards.append(card)
            for v in members:
                self.card_occ[v].append(card)

        # The positive literals of the objective variables (a dict as an
        # insertion-ordered set) and their bound once branch-and-bound runs.
        self.pb_lits: dict[int, None] = dict.fromkeys(2 * v for v in ctx.objective or ())
        self.pb_bound: int | None = None

        # Root facts: the unit clauses, then what each cardinality forces alone.
        for lit in units:
            if not self.root_conflict and not self._lit_true(lit):
                self.root_conflict = self.assigns[lit >> 1] != 0 or self._assign(lit, [lit]) is not None
        if not self.root_conflict:
            self.root_conflict = any(self._check_card(card) is not None for card in self.cards)

    # -- assignment machinery ---------------------------------------------

    def _attach(self, lits: list[int]) -> None:
        self.clauses.append(lits)
        self.watches[lits[0]].append(lits)
        self.watches[lits[1]].append(lits)

    def _level(self) -> int:
        return len(self.trail_lim)

    def _lit_true(self, lit: int) -> bool:
        v = self.assigns[lit >> 1]
        return v != 0 and (v == 1) == ((lit & 1) == 0)

    def _assign(self, lit: int, reason: list[int] | None) -> list[int] | None:
        """Put an unassigned lit on the trail; returns a conflict clause on theory failure."""
        var = lit >> 1
        value = 1 if (lit & 1) == 0 else -1
        self.assigns[var] = value
        self.var_level[var] = self._level()
        self.reasons[var] = reason
        edge_node = -1
        conflict: list[int] | None = None
        atom = self.atom_at[var]
        if atom is not None:
            x, y, k = atom
            if value == 1:
                u, v, w = x, y, -k        # x - y <= k  ==  y >= x - k
            else:
                u, v, w = y, x, k + 1     # x - y >= k+1  ==  x >= y + k + 1
            culprits = self.theory.assert_edge(u, v, w, lit)
            if culprits is None:
                edge_node = u
            else:
                conflict = [l ^ 1 for l in culprits]
                if (lit ^ 1) not in conflict:
                    conflict.append(lit ^ 1)
        self.trail.append(lit)
        self.trail_edge.append(edge_node)
        for card in self.card_occ[var]:
            if value == 1:
                card.count_true += 1
            else:
                card.count_false += 1
        return conflict

    def _backtrack(self, level: int) -> None:
        if self._level() <= level:
            return
        limit = self.trail_lim[level]
        while len(self.trail) > limit:
            lit = self.trail.pop()
            edge_node = self.trail_edge.pop()
            var = lit >> 1
            value = self.assigns[var]
            self.assigns[var] = 0
            self.reasons[var] = None
            if edge_node >= 0:
                self.theory.pop_edge(edge_node)
            for card in self.card_occ[var]:
                if value == 1:
                    card.count_true -= 1
                else:
                    card.count_false -= 1
        del self.trail_lim[level:]
        self.qhead = len(self.trail)

    # -- propagation -------------------------------------------------------

    def _propagate(self) -> list[int] | None:
        while True:
            while self.qhead < len(self.trail):
                lit = self.trail[self.qhead]
                self.qhead += 1
                conflict = self._propagate_watches(lit ^ 1)
                if conflict is not None:
                    return conflict
                for card in self.card_occ[lit >> 1]:
                    conflict = self._check_card(card)
                    if conflict is not None:
                        return conflict
            if self.pb_bound is None:
                return None
            conflict = self._propagate_pb()
            if conflict is not None:
                return conflict
            if self.qhead >= len(self.trail):
                return None

    def _propagate_watches(self, falsified: int) -> list[int] | None:
        watch_list = self.watches[falsified]
        i = 0
        while i < len(watch_list):
            lits = watch_list[i]
            if lits[0] == falsified:
                lits[0], lits[1] = lits[1], lits[0]
            other = lits[0]
            if self._lit_true(other):
                i += 1
                continue
            moved = False
            for j in range(2, len(lits)):
                l = lits[j]
                v = self.assigns[l >> 1]
                if v == 0 or (v == 1) == ((l & 1) == 0):
                    lits[1], lits[j] = lits[j], lits[1]
                    self.watches[l].append(lits)
                    watch_list[i] = watch_list[-1]
                    watch_list.pop()
                    moved = True
                    break
            if moved:
                continue
            if self.assigns[other >> 1] != 0:
                return lits  # every literal false
            conflict = self._assign(other, lits)
            if conflict is not None:
                return conflict
            i += 1
        return None

    def _check_card(self, card: _Card) -> list[int] | None:
        """Conflict when the card is overshot; else force its undecided members
        false once n are true, or true once all but n are false."""
        size = len(card.members)
        if card.count_true > card.n:
            return [m * 2 + 1 for m in card.members if self.assigns[m] == 1]
        if card.count_false > size - card.n:
            return [m * 2 for m in card.members if self.assigns[m] == -1]
        if card.count_true + card.count_false == size:
            return None
        if card.count_true == card.n:
            decided, sign = 1, 1       # true members force the rest false
        elif card.count_false == size - card.n:
            decided, sign = -1, 0      # false members force the rest true
        else:
            return None
        premises = [m * 2 + sign for m in card.members if self.assigns[m] == decided]
        for m in card.members:
            if self.assigns[m] == 0:
                self._assign(m * 2 + sign, [m * 2 + sign] + premises)  # booleans: never a conflict
        return None

    def _propagate_pb(self) -> list[int] | None:
        """Conflict when more than pb_bound objective literals are true; at
        the bound, force the undecided ones false."""
        assigns = self.assigns
        slack = self.pb_bound - sum(1 for lit in self.pb_lits if assigns[lit >> 1] == 1)
        if slack > 0:
            return None
        premises = [lit ^ 1 if assigns[lit >> 1] == 1 else lit for lit in self.pb_lits if assigns[lit >> 1] != 0]
        if slack < 0:
            return premises
        for lit in self.pb_lits:
            if assigns[lit >> 1] == 0:
                self._assign(lit ^ 1, [lit ^ 1] + premises)  # booleans: never a conflict
        return None

    # -- conflict analysis --------------------------------------------------

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        learnt: list[int] = []
        seen: set[int] = set()
        counter = 0
        current = self._level()
        reason_lits = conflict
        idx = len(self.trail) - 1
        p = -1
        while True:
            for q in reason_lits:
                if q == p:
                    continue
                v = q >> 1
                if v not in seen and self.var_level[v] > 0:
                    seen.add(v)
                    if self.var_level[v] == current:
                        counter += 1
                    else:
                        learnt.append(q)
            while idx >= 0 and (self.trail[idx] >> 1) not in seen:
                idx -= 1
            p = self.trail[idx]
            idx -= 1
            counter -= 1
            if counter <= 0:
                break
            reason_lits = self.reasons[p >> 1]
        out = [p ^ 1] + learnt
        back = max((self.var_level[q >> 1] for q in learnt), default=0)
        return out, back

    # -- branching -----------------------------------------------------------

    def _pick_branch(self) -> int | None:
        for card in self.cards:
            if card.count_true < card.n:
                best_lit = -1
                best_key = None
                for m in card.members:
                    if self.assigns[m] == 0:
                        key = (m * 2 in self.pb_lits, m)
                        if best_key is None or key < best_key:
                            best_key = key
                            best_lit = m * 2
                if best_lit >= 0:
                    return best_lit
        # The first unassigned literal of the first clause with no true literal.
        assigns = self.assigns
        for lits in self.clauses:
            free = -1
            for l in lits:
                v = assigns[l >> 1]
                if v == 0:
                    if free < 0:
                        free = l
                elif (v == 1) == ((l & 1) == 0):
                    break
            else:
                if free >= 0:
                    return free
        return None

    # -- main loop -------------------------------------------------------------

    def _time_up(self) -> bool:
        if self.deadline is None:
            return False
        self._ticks += 1
        if self._ticks & 255:
            return False
        return time.monotonic() > self.deadline

    def _resolve_conflict(self, conflict: list[int]) -> str | None:
        """Learn from a conflict clause; returns 'unsat' at root level."""
        while conflict is not None:
            top = max((self.var_level[q >> 1] for q in conflict), default=0)
            if top == 0:
                return "unsat"
            if top < self._level():
                self._backtrack(top)
            learnt, back = self._analyze(conflict)
            self._backtrack(back)
            if len(learnt) > 1:
                best = max(range(1, len(learnt)), key=lambda i: self.var_level[learnt[i] >> 1])
                learnt[1], learnt[best] = learnt[best], learnt[1]
                self._attach(learnt)
            # The asserting literal sat at the conflict level, so it is unassigned now.
            conflict = self._assign(learnt[0], learnt)
        return None

    def solve(self) -> str:
        """Search from the current constraint state: 'sat', 'unsat', 'timeout'."""
        if self.root_conflict:
            return "unsat"
        self._backtrack(0)
        while True:
            conflict = self._propagate()
            if conflict is not None:
                if self._resolve_conflict(conflict) == "unsat":
                    return "unsat"
                if self._time_up():
                    return "timeout"
                continue
            if self._time_up():
                return "timeout"
            decision = self._pick_branch()
            if decision is None:
                return "sat"
            self.trail_lim.append(len(self.trail))
            conflict = self._assign(decision, None)
            if conflict is not None and self._resolve_conflict(conflict) == "unsat":
                return "unsat"

    def bound_objective(self, bound: int) -> None:
        """Require at most ``bound`` true objective variables in later solves."""
        self._backtrack(0)
        if bound < 0:
            self.root_conflict = True
        else:
            self.pb_bound = bound
