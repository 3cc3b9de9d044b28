"""The original compact CDCL solver, retained as the test oracle.

This is the pre-arena engine: clauses live as Python lists-of-lists,
watches in a dict keyed by literal, and decisions come from a linear scan
over variable activities.  It is algorithmically a CDCL solver (two
watched literals, first-UIP learning, non-chronological backtracking,
geometric restarts) but makes no attempt at constant-factor speed.

The randomized solver tests cross-check the production engine
(:class:`repro.netlist.sat.solver.Solver`) against this one on the same
instances — random 3-SAT with too many variables for brute force, and
pigeonhole DRAT proofs — so a bug has to appear in two independent
implementations to slip through.  No production path uses it.

The incremental API mirrors the production solver: ``ensure_vars`` /
``add_clause`` / ``add_clauses`` between ``solve`` calls, assumptions as
the first decision levels, learned clauses kept across calls.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.netlist.sat.solver import SolverResult, SolverStats

_UNASSIGNED = 0
_TRUE = 1
_FALSE = -1


class ReferenceSolver:
    """CDCL solver over clauses of non-zero integer literals."""

    def __init__(self, num_vars: int,
                 clauses: Iterable[tuple[int, ...]]) -> None:
        self.num_vars = num_vars
        self.clauses: list[list[int]] = []
        self.watches: dict[int, list[int]] = {}
        # Per-variable state, 1-indexed.
        self.values = [_UNASSIGNED] * (num_vars + 1)
        self.levels = [0] * (num_vars + 1)
        self.reasons: list[Optional[int]] = [None] * (num_vars + 1)
        self.activity = [0.0] * (num_vars + 1)
        self.phase = [False] * (num_vars + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.stats = SolverStats()
        self._act_inc = 1.0
        self._unsat = False
        self._pending_units: list[int] = []
        self._proof = None
        for clause in clauses:
            self._add_clause(list(clause), learned=False)

    def set_proof(self, sink) -> None:
        """Install (or clear, with ``None``) a DRAT proof sink.

        Same contract as ``Solver.set_proof``: ``sink.add(lits)`` is
        called with every learned clause in DIMACS literals (and with no
        literals for the empty clause).  The reference engine never
        erases clauses, so ``sink.delete`` is never called — which makes
        its proofs a useful diff baseline against the flat-array
        engine's.
        """
        self._proof = sink

    # -- clause management --------------------------------------------------

    def ensure_vars(self, num_vars: int) -> None:
        """Grow the variable universe to ``num_vars`` (incremental use)."""
        grow = num_vars - self.num_vars
        if grow <= 0:
            return
        self.values.extend([_UNASSIGNED] * grow)
        self.levels.extend([0] * grow)
        self.reasons.extend([None] * grow)
        self.activity.extend([0.0] * grow)
        self.phase.extend([False] * grow)
        self.num_vars = num_vars

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a problem clause between :meth:`solve` calls.

        The clause is simplified against the root-level assignment so the
        watched-literal invariant survives: literals already false at level
        0 are dropped and clauses already satisfied at level 0 vanish.
        """
        simplified: list[int] = []
        for lit in lits:
            var = abs(lit)
            if var > self.num_vars:
                raise ValueError(f"literal {lit} references an unknown var "
                                 f"(call ensure_vars first)")
            value = self._value(lit)
            if value == _TRUE and self.levels[var] == 0:
                return
            if value == _FALSE and self.levels[var] == 0:
                continue
            simplified.append(lit)
        self._add_clause(simplified, learned=False)

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        """Bulk :meth:`add_clause` (API parity with the production solver)."""
        for clause in clauses:
            self.add_clause(clause)

    def _add_clause(self, lits: list[int], learned: bool) -> Optional[int]:
        if not learned:
            seen: set[int] = set()
            unique: list[int] = []
            for lit in lits:
                if -lit in seen:
                    return None  # tautology
                if lit not in seen:
                    seen.add(lit)
                    unique.append(lit)
            lits = unique
        if not lits:
            self._unsat = True
            return None
        if len(lits) == 1:
            self._pending_units.append(lits[0])
            return None
        index = len(self.clauses)
        self.clauses.append(lits)
        self.watches.setdefault(lits[0], []).append(index)
        self.watches.setdefault(lits[1], []).append(index)
        return index

    # -- assignment ---------------------------------------------------------

    def _value(self, lit: int) -> int:
        value = self.values[abs(lit)]
        return value if lit > 0 else -value

    def _assign(self, lit: int, reason: Optional[int]) -> None:
        var = abs(lit)
        self.values[var] = _TRUE if lit > 0 else _FALSE
        self.levels[var] = len(self.trail_lim)
        self.reasons[var] = reason
        self.phase[var] = lit > 0
        self.trail.append(lit)

    def _unassign_to(self, level: int) -> None:
        target = self.trail_lim[level]
        for lit in self.trail[target:]:
            var = abs(lit)
            self.values[var] = _UNASSIGNED
            self.reasons[var] = None
        del self.trail[target:]
        del self.trail_lim[level:]
        self.qhead = len(self.trail)

    # -- unit propagation (two watched literals) ----------------------------

    def _propagate(self) -> Optional[int]:
        """Exhaust the propagation queue; returns a conflicting clause index
        or ``None``."""
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            false_lit = -lit
            watch_list = self.watches.get(false_lit)
            if not watch_list:
                continue
            kept: list[int] = []
            conflict: Optional[int] = None
            i = 0
            while i < len(watch_list):
                ci = watch_list[i]
                i += 1
                clause = self.clauses[ci]
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) == _TRUE:
                    kept.append(ci)
                    continue
                moved = False
                for k in range(2, len(clause)):
                    if self._value(clause[k]) != _FALSE:
                        clause[1], clause[k] = clause[k], clause[1]
                        self.watches.setdefault(clause[1], []).append(ci)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(ci)
                if self._value(first) == _FALSE:
                    conflict = ci
                    kept.extend(watch_list[i:])
                    break
                self.stats.propagations += 1
                self._assign(first, ci)
            self.watches[false_lit] = kept
            if conflict is not None:
                return conflict
        return None

    # -- conflict analysis (first UIP) --------------------------------------

    def _bump(self, var: int) -> None:
        self.activity[var] += self._act_inc
        if self.activity[var] > 1e100:
            for v in range(1, self.num_vars + 1):
                self.activity[v] *= 1e-100
            self._act_inc *= 1e-100

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """Derive the first-UIP learned clause and its assertion level."""
        learned: list[int] = []
        seen = [False] * (self.num_vars + 1)
        counter = 0
        lit = 0
        index = len(self.trail)
        clause: Optional[list[int]] = self.clauses[conflict]
        current = len(self.trail_lim)
        while True:
            assert clause is not None
            for q in clause:
                if q == lit:
                    continue
                var = abs(q)
                if not seen[var] and self.levels[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self.levels[var] >= current:
                        counter += 1
                    else:
                        learned.append(q)
            while True:
                index -= 1
                if seen[abs(self.trail[index])]:
                    break
            p = self.trail[index]
            var = abs(p)
            seen[var] = False
            counter -= 1
            if counter == 0:
                lit = -p
                break
            reason = self.reasons[var]
            assert reason is not None
            clause = self.clauses[reason]
            lit = p
        learned.insert(0, lit)
        if len(learned) == 1:
            return learned, 0
        # The second watch must sit at the assertion level so the watch
        # invariant holds after the backjump.
        best = max(range(1, len(learned)),
                   key=lambda i: self.levels[abs(learned[i])])
        learned[1], learned[best] = learned[best], learned[1]
        back_level = self.levels[abs(learned[1])]
        return learned, back_level

    # -- search -------------------------------------------------------------

    def _decide(self) -> bool:
        best_var = 0
        best_act = -1.0
        for var in range(1, self.num_vars + 1):
            if self.values[var] == _UNASSIGNED and \
                    self.activity[var] > best_act:
                best_var = var
                best_act = self.activity[var]
        if best_var == 0:
            return False
        self.stats.decisions += 1
        self.trail_lim.append(len(self.trail))
        self._assign(best_var if self.phase[best_var] else -best_var, None)
        return True

    def solve(self, assumptions: Iterable[int] = ()) -> SolverResult:
        """Run the CDCL loop to completion.

        ``assumptions`` are literals forced as the first decision levels; a
        ``False`` verdict then means *UNSAT under these assumptions* (the
        clause set itself may still be satisfiable).  The solver backtracks
        to the root level before returning, so it can be reused: add more
        clauses with :meth:`add_clause` and solve again — learned clauses
        and activities are kept.
        """
        if self._unsat:
            return SolverResult(False, stats=self.stats)
        for lit in self._pending_units:
            value = self._value(lit)
            if value == _FALSE:
                self._unsat = True
                if self._proof is not None:
                    self._proof.add(())
                return SolverResult(False, stats=self.stats)
            if value == _UNASSIGNED:
                self._assign(lit, None)
        self._pending_units = []
        assumptions = tuple(assumptions)
        for lit in assumptions:
            if lit == 0 or abs(lit) > self.num_vars:
                raise ValueError(f"assumption {lit} references an "
                                 f"unknown var")

        restart_limit = 100
        conflicts_here = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_here += 1
                if not self.trail_lim:
                    self._unsat = True
                    if self._proof is not None:
                        self._proof.add(())
                    return SolverResult(False, stats=self.stats)
                learned, back_level = self._analyze(conflict)
                if self._proof is not None:
                    self._proof.add(tuple(learned))
                self._unassign_to(back_level)
                self.stats.learned_clauses += 1
                self.stats.learned_literals += len(learned)
                if len(learned) == 1:
                    self._assign(learned[0], None)
                else:
                    index = self._add_clause(learned, learned=True)
                    assert index is not None
                    self._assign(learned[0], index)
                self._act_inc /= 0.95
                continue
            if conflicts_here >= restart_limit and self.trail_lim:
                self.stats.restarts += 1
                conflicts_here = 0
                restart_limit = int(restart_limit * 1.5)
                self._unassign_to(0)
                continue
            # Re-assume any assumptions not currently decided (initially,
            # and again after every backjump or restart below their level).
            assumed = False
            while len(self.trail_lim) < len(assumptions):
                lit = assumptions[len(self.trail_lim)]
                value = self._value(lit)
                if value == _FALSE:
                    # Conflicts with the root level or an earlier
                    # assumption: UNSAT under these assumptions only.
                    if self.trail_lim:
                        self._unassign_to(0)
                    return SolverResult(False, stats=self.stats)
                self.trail_lim.append(len(self.trail))
                if value == _UNASSIGNED:
                    self._assign(lit, None)
                    assumed = True
                    break
                # Already true: leave an empty decision level placeholder.
            if assumed:
                continue
            if not self._decide():
                model = {
                    var: self.values[var] == _TRUE
                    for var in range(1, self.num_vars + 1)
                }
                if self.trail_lim:
                    self._unassign_to(0)
                return SolverResult(True, model=model, stats=self.stats)


def reference_solve(num_vars: int,
                    clauses: Iterable[tuple[int, ...]]) -> SolverResult:
    """One-shot convenience wrapper around :class:`ReferenceSolver`."""
    return ReferenceSolver(num_vars, clauses).solve()
