"""Search engine behind the solver backend.

A conflict-driven boolean search (two-watched-literal clauses, counter-based
cardinality propagation, first-UIP clause learning) combined with an
incremental difference-logic theory: every assigned difference literal
asserts one weighted edge, feasibility is maintained through potential
repair, and an infeasible assertion yields the offending cycle as a
conflict clause.  Optimization minimizes a weighted sum of boolean
literals by branch-and-bound on its bound, propagated from the running sum
of true literals, and reuses learned clauses across bounds (sound because
bounds only tighten, so the constraint set only grows).

Literal encoding is MiniSat-style: variable ``v`` has positive literal
``2*v`` and negative literal ``2*v + 1``.  Boolean variables come first,
then one engine variable per interned difference atom.  Theory node 0 is
the fixed zero reference; user integers are nodes ``1..n``.
"""

from __future__ import annotations

import time
from collections import deque


class EngineSpec:
    """Normalized problem handed from the context to the engine."""

    def __init__(self, n_bools: int):
        self.n_bools = n_bools
        self.int_bounds: list[tuple[int, int]] = []
        self.atoms: list[tuple[int, int, int]] = []
        self._atom_index: dict[tuple[int, int, int], int] = {}
        self.clauses: list[list[int]] = []
        self.cards: list[tuple[list[int], int]] = []
        self.obj_bool_terms: list[tuple[int, int]] = []
        self.obj_shift = 0
        self.has_objective = False

    def add_int(self, lo: int, hi: int) -> int:
        self.int_bounds.append((lo, hi))
        return len(self.int_bounds)

    def intern_atom(self, x: int, y: int, k: int) -> int:
        key = (x, y, k)
        idx = self._atom_index.get(key)
        if idx is None:
            idx = len(self.atoms)
            self._atom_index[key] = idx
            self.atoms.append(key)
        return self.n_bools + idx

    def add_clause(self, lits: list[int]) -> None:
        seen: set[int] = set()
        out: list[int] = []
        for l in lits:
            if l ^ 1 in seen:
                return  # tautology
            if l not in seen:
                seen.add(l)
                out.append(l)
        self.clauses.append(out)

    def add_cardinality(self, bool_vars: list[int], n: int) -> None:
        members = list(dict.fromkeys(bool_vars))
        self.cards.append((members, n))

    def set_objective(self, bool_terms, shift) -> None:
        self.obj_bool_terms = bool_terms
        self.obj_shift = shift
        self.has_objective = True


class _Clause:
    __slots__ = ("lits", "sat_level")

    def __init__(self, lits: list[int]):
        self.lits = lits
        self.sat_level = -1


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
    def __init__(self, spec: EngineSpec, timeout: float | None = None):
        self.spec = spec
        self.deadline = time.monotonic() + timeout if timeout is not None else None
        self._ticks = 0

        self.n_bools = spec.n_bools
        self.n_atoms = len(spec.atoms)
        self.n_vars = self.n_bools + self.n_atoms
        nv = self.n_vars

        self.assigns = [0] * nv          # 0 unassigned, 1 true, -1 false
        self.var_level = [0] * nv
        self.reasons: list[list[int] | _Clause | None] = [None] * nv
        self.trail: list[int] = []
        self.trail_edge: list[int] = []  # theory node whose edge list grew, else -1
        self.trail_lim: list[int] = []
        self.qhead = 0

        self.watches: list[list[_Clause]] = [[] for _ in range(2 * nv)]
        self.pos_occ: list[list[_Clause]] = [[] for _ in range(2 * nv)]
        self.sat_stack: list[_Clause] = []

        self.theory = _Theory(1 + len(spec.int_bounds))
        self.root_conflict = False
        for node, (lo, hi) in enumerate(spec.int_bounds, start=1):
            if self.theory.assert_edge(0, node, lo, -1) is not None:
                self.root_conflict = True
            if self.theory.assert_edge(node, 0, -hi, -1) is not None:
                self.root_conflict = True

        self.clauses: list[_Clause] = []
        self._init_units: list[int] = []
        for lits in spec.clauses:
            if not lits:
                self.root_conflict = True
            elif len(lits) == 1:
                self._init_units.append(lits[0])
            else:
                self._attach(_Clause(list(lits)))

        self.cards: list[_Card] = []
        self.card_occ: list[list[_Card]] = [[] for _ in range(nv)]
        for members, n in spec.cards:
            card = _Card(members, n)
            self.cards.append(card)
            for v in members:
                self.card_occ[v].append(card)

        # Objective bookkeeping for branch-and-bound: the weight of each
        # objective literal and the running weight of those on the trail.
        self.pb_coeff: dict[int, int] = dict(spec.obj_bool_terms)
        self.pb_bound: int | None = None
        self.pb_sum_true = 0

        self._init_done = False

    # -- assignment machinery ---------------------------------------------

    def _attach(self, c: _Clause) -> None:
        self.clauses.append(c)
        self.watches[c.lits[0]].append(c)
        self.watches[c.lits[1]].append(c)
        for l in c.lits:
            self.pos_occ[l].append(c)

    def _level(self) -> int:
        return len(self.trail_lim)

    def _lit_true(self, lit: int) -> bool:
        v = self.assigns[lit >> 1]
        return v != 0 and (v == 1) == ((lit & 1) == 0)

    def _assign(self, lit: int, reason) -> list[int] | None:
        """Put lit on the trail; returns a conflict clause on theory failure."""
        var = lit >> 1
        value = 1 if (lit & 1) == 0 else -1
        self.assigns[var] = value
        self.var_level[var] = self._level()
        self.reasons[var] = reason
        edge_node = -1
        conflict: list[int] | None = None
        if var >= self.n_bools:
            x, y, k = self.spec.atoms[var - self.n_bools]
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
        level = self._level()
        for c in self.pos_occ[lit]:
            if c.sat_level < 0:
                c.sat_level = level
                self.sat_stack.append(c)
        for card in self.card_occ[var]:
            if value == 1:
                card.count_true += 1
            else:
                card.count_false += 1
        coeff = self.pb_coeff.get(lit)
        if coeff is not None:
            self.pb_sum_true += coeff
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
            coeff = self.pb_coeff.get(lit)
            if coeff is not None:
                self.pb_sum_true -= coeff
        del self.trail_lim[level:]
        self.qhead = len(self.trail)
        while self.sat_stack and self.sat_stack[-1].sat_level > level:
            self.sat_stack.pop().sat_level = -1

    def _enqueue(self, lit: int, reason) -> list[int] | None:
        val = self.assigns[lit >> 1]
        if val != 0:
            if (val == 1) != ((lit & 1) == 0):
                return list(reason.lits) if isinstance(reason, _Clause) else list(reason)
            return None
        return self._assign(lit, reason)

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
            c = watch_list[i]
            lits = c.lits
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
                    self.watches[l].append(c)
                    watch_list[i] = watch_list[-1]
                    watch_list.pop()
                    moved = True
                    break
            if moved:
                continue
            if self.assigns[other >> 1] != 0:
                return list(lits)  # every literal false
            conflict = self._assign(other, c)
            if conflict is not None:
                return conflict
            i += 1
        return None

    def _check_card(self, card: _Card) -> list[int] | None:
        size = len(card.members)
        if card.count_true > card.n:
            return [m * 2 + 1 for m in card.members if self.assigns[m] == 1]
        if card.count_false > size - card.n:
            return [m * 2 for m in card.members if self.assigns[m] == -1]
        undecided = size - card.count_true - card.count_false
        if undecided == 0:
            return None
        if card.count_true == card.n:
            premises = [m * 2 + 1 for m in card.members if self.assigns[m] == 1]
            for m in card.members:
                if self.assigns[m] == 0:
                    conflict = self._enqueue(m * 2 + 1, [m * 2 + 1] + premises)
                    if conflict is not None:
                        return conflict
        elif card.count_false == size - card.n:
            premises = [m * 2 for m in card.members if self.assigns[m] == -1]
            for m in card.members:
                if self.assigns[m] == 0:
                    conflict = self._enqueue(m * 2, [m * 2] + premises)
                    if conflict is not None:
                        return conflict
        return None

    def _pb_premises(self) -> list[int]:
        out = []
        for lit in self.pb_coeff:
            v = self.assigns[lit >> 1]
            if v != 0:
                out.append((lit ^ 1) if self._lit_true(lit) else lit)
        return out

    def _propagate_pb(self) -> list[int] | None:
        slack = self.pb_bound - self.pb_sum_true
        if slack < 0:
            return self._pb_premises()
        premises: list[int] | None = None
        for lit, coeff in self.pb_coeff.items():
            if self.assigns[lit >> 1] == 0 and coeff > slack:
                if premises is None:
                    premises = self._pb_premises()
                conflict = self._enqueue(lit ^ 1, [lit ^ 1] + premises)
                if conflict is not None:
                    return conflict
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
            v = p >> 1
            idx -= 1
            counter -= 1
            if counter <= 0:
                break
            reason = self.reasons[v]
            reason_lits = reason.lits if isinstance(reason, _Clause) else reason
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
                        key = (self.pb_coeff.get(m * 2, 0), m)
                        if best_key is None or key < best_key:
                            best_key = key
                            best_lit = m * 2
                if best_lit >= 0:
                    return best_lit
        for c in self.clauses:
            if c.sat_level < 0:
                for l in c.lits:
                    if self.assigns[l >> 1] == 0:
                        return l
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
            if len(learnt) == 1:
                conflict = self._enqueue(learnt[0], list(learnt))
            else:
                c = _Clause(learnt)
                best = max(range(1, len(learnt)), key=lambda i: self.var_level[learnt[i] >> 1])
                c.lits[1], c.lits[best] = c.lits[best], c.lits[1]
                self._attach(c)
                conflict = self._enqueue(learnt[0], c)
        return None

    def solve(self) -> str:
        """Search from the current constraint state: 'sat', 'unsat', 'timeout'."""
        if self.root_conflict:
            return "unsat"
        self._backtrack(0)
        if not self._init_done:
            self._init_done = True
            for lit in self._init_units:
                conflict = self._enqueue(lit, [lit])
                if conflict is not None:
                    return "unsat"
            for card in self.cards:
                if self._check_card(card) is not None:
                    return "unsat"
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

    def bound_objective(self, bound: int) -> bool:
        """Require objective <= bound for later solves; False when pointless."""
        spec = self.spec
        if not spec.has_objective:
            return False
        self._backtrack(0)
        remaining = bound - spec.obj_shift
        if remaining < 0:
            self.root_conflict = True
            return True
        self.pb_bound = remaining
        return True

    def model(self) -> tuple[list[bool], list[int]]:
        bools = [self.assigns[v] == 1 for v in range(self.n_bools)]
        ints = self.theory.minimal_values()
        return bools, ints
