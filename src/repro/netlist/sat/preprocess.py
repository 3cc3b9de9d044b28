"""Clause-level CNF preprocessing: bounded variable elimination.

Tseitin encodings of miters are full of single-use auxiliary variables
whose definitions can be resolved away outright, and CDCL search pays
for every one of them on every propagation.  :func:`preprocess` runs
NiVER-style **bounded variable elimination** (the elimination half of
SatELite) over occurrence lists before the solver ever starts: a
variable whose pos-occurrence × neg-occurrence resolvent set is no
larger than the clauses it replaces (and no resolvent exceeds a size
cap) is resolved out of the formula.  The replaced clauses are pushed on
a reconstruction stack so satisfying assignments of the simplified
formula extend to the original — which is what lets the CEC path replay
counterexamples through the simulator unchanged.  Unit clauses need no
separate propagation: eliminating a unit's variable strips its negation
from every clause, and resolving two opposite units yields the empty
clause.

Subsumption, self-subsuming resolution and root-unit propagation are
deliberately absent: on the repository's miters they fire only on the
W>=6 multipliers, and there the median solve time stays within its
spread across stimulus seeds.

**Certification.**  Every elimination is DRAT-logged against the
original formula and stays inside the RUP fragment that
:func:`repro.netlist.sat.proof.check_drat` verifies: a resolvent is RUP
(negating it makes both parents unit on the eliminated variable in
opposite polarity), and the parents' deletions are always sound for an
UNSAT proof.  So elimination needs no RAT checking and is **not**
disabled under ``certify=True`` — a proof that interleaves
preprocessing steps with the solver's learned clauses checks with the
existing RUP checker as-is.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional

from ...obs import get_tracer

#: Skip elimination of variables occurring in more clauses than this
#: (both polarities summed) — resolving out a hub variable is never a
#: simplification and the resolvent scan would be quadratic.
_BVE_OCC_LIMIT = 16
#: NiVER-style size cap: a candidate elimination is abandoned as soon as
#: any single resolvent would exceed this many literals.
_BVE_RESOLVENT_CAP = 12
#: Elimination sweeps over all variables, stopping early at the first
#: sweep that eliminates nothing.
_BVE_MAX_PASSES = 3


@dataclass
class PreprocessStats:
    """Counters from one :func:`preprocess` run."""

    #: Variables resolved out by bounded variable elimination.
    eliminated_vars: int = 0
    #: Clauses replaced by those eliminations.
    eliminated_clauses: int = 0
    #: Resolvents added by those eliminations.
    resolvents: int = 0
    seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "eliminated_vars": self.eliminated_vars,
            "eliminated_clauses": self.eliminated_clauses,
            "resolvents": self.resolvents,
            "seconds": round(self.seconds, 6),
        }


class PreprocessResult:
    """Simplified formula plus everything needed to undo it on a model.

    ``clauses`` is the surviving clause set over the *original* variable
    numbering (eliminated variables simply no longer occur).  ``unsat``
    is True when preprocessing alone derived the empty clause —
    ``clauses`` then contains it, so feeding them to any solver still
    yields the right verdict.

    :meth:`reconstruct` maps a satisfying assignment of ``clauses`` back
    to one of the original formula by replaying the variable-elimination
    stack in reverse — the standard SatELite model extension.
    """

    __slots__ = ("clauses", "num_vars", "unsat", "stats", "_elim_stack")

    def __init__(self, clauses: list[tuple[int, ...]], num_vars: int,
                 unsat: bool, stats: PreprocessStats,
                 elim_stack: list[tuple[int, list[list[int]]]]):
        self.clauses = clauses
        self.num_vars = num_vars
        self.unsat = unsat
        self.stats = stats
        self._elim_stack = elim_stack

    def reconstruct(self, model) -> dict[int, bool]:
        """Extend ``model`` (a mapping with ``.get``) over the simplified
        formula to a model of the original formula.

        Eliminated variables are re-valued in reverse elimination order:
        try False; if any clause the elimination erased is unsatisfied,
        the variable must be True (all erased clauses of the opposite
        polarity are then satisfied by construction — their resolvents
        held in the simplified formula).
        """
        out = {v: bool(model.get(v, False))
               for v in range(1, self.num_vars + 1)}
        for var, saved in reversed(self._elim_stack):
            out[var] = False
            for clause in saved:
                if not any((lit > 0) == out[abs(lit)] for lit in clause):
                    out[var] = True
                    break
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PreprocessResult(clauses={len(self.clauses)}, "
                f"vars={self.num_vars}, unsat={self.unsat})")


def preprocess(num_vars: int, clauses: Iterable[Iterable[int]],
               frozen: Iterable[int] = (),
               proof=None) -> PreprocessResult:
    """Simplify a CNF formula by bounded variable elimination; see the
    module docstring.

    ``frozen`` variables are never eliminated (callers freeze the
    variables they must read back or assume on — CEC freezes the shared
    input/state variables).  ``proof`` is an optional DRAT sink with
    ``add``/``delete`` (:class:`repro.netlist.sat.proof.ProofLog`); every
    emitted step is RUP-checkable against the original formula.
    """
    stats = PreprocessStats()
    start = time.perf_counter()
    frozen_set = set(frozen)
    db: list[Optional[list[int]]] = []
    occs: dict[int, set[int]] = {}
    elim_stack: list[tuple[int, list[list[int]]]] = []
    unsat = False

    def attach(lits: list[int]) -> None:
        cid = len(db)
        db.append(lits)
        for lit in lits:
            occs.setdefault(lit, set()).add(cid)

    # -- load: drop duplicate literals and tautologies ----------------------
    for raw in clauses:
        seen = dict.fromkeys(raw)
        if any(-lit in seen for lit in seen):
            continue
        if not seen:
            unsat = True
            break
        attach(list(seen))

    def resolve(pset: set[int], nlits: list[int],
                var: int) -> Optional[list[int]]:
        out = set(pset)
        out.discard(var)
        for lit in nlits:
            if lit == -var:
                continue
            if -lit in out:
                return None  # tautological resolvent
            out.add(lit)
        return sorted(out, key=abs)

    def eliminate(var: int) -> bool:
        """Resolve ``var`` out if that does not grow the formula."""
        nonlocal unsat
        pos = sorted(occs.get(var, ()))
        neg = sorted(occs.get(-var, ()))
        before = len(pos) + len(neg)
        if before == 0 or before > _BVE_OCC_LIMIT:
            return False
        resolvents: list[list[int]] = []
        for p in pos:
            pset = set(db[p])
            for n in neg:
                r = resolve(pset, db[n], var)
                if r is None:
                    continue
                if len(r) > _BVE_RESOLVENT_CAP or \
                        len(resolvents) >= before:
                    return False
                resolvents.append(r)
        for r in resolvents:
            if proof is not None:
                proof.add(r)
            if not r:
                unsat = True
                return True
            attach(r)
        saved = []
        for cid in pos + neg:
            lits = db[cid]
            if proof is not None:
                proof.delete(lits)
            for lit in lits:
                occs[lit].discard(cid)
            db[cid] = None
            saved.append(lits)
        elim_stack.append((var, saved))
        stats.eliminated_vars += 1
        stats.eliminated_clauses += before
        stats.resolvents += len(resolvents)
        return True

    with get_tracer().span("preprocess", vars=num_vars,
                           clauses=len(db)) as span:
        for _ in range(_BVE_MAX_PASSES):
            if unsat:
                break
            # Cheapest eliminations first: fewest resolution pairs, then
            # fewest occurrences.  Eliminated variables no longer occur,
            # so they are skipped like any other unused variable.
            order = sorted(
                (v for v in range(1, num_vars + 1) if v not in frozen_set),
                key=lambda v: (len(occs.get(v, ())) * len(occs.get(-v, ())),
                               len(occs.get(v, ())) + len(occs.get(-v, ()))))
            changed = False
            for var in order:
                if eliminate(var):
                    changed = True
                    if unsat:
                        break
            if not changed:
                break
        stats.seconds = time.perf_counter() - start
        span.set(eliminated_vars=stats.eliminated_vars, unsat=unsat)

    if unsat:
        out_clauses: list[tuple[int, ...]] = [()]
    else:
        out_clauses = [tuple(cl) for cl in db if cl is not None]
    return PreprocessResult(out_clauses, num_vars, unsat, stats, elim_stack)
