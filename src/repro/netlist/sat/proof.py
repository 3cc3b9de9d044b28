"""DRAT proof logging and an independent backward RUP proof checker.

An UNSAT verdict from a CDCL solver is only as trustworthy as the solver
itself.  The standard remedy (MiniSat / drat-trim lineage) is *proof
logging*: the solver emits every learned clause as it is derived and every
clause it erases, producing a DRAT proof — a sequence of clause additions
and deletions ending (implicitly) in the empty clause.  A small,
independent checker then replays the proof against the original formula
using nothing but unit propagation.

This module provides both halves:

``ProofLog``
    The sink a solver writes into via ``Solver.set_proof``.  Steps are
    kept in memory (``steps``) and optionally streamed as standard DRAT
    text lines (``"1 -2 3 0"`` for additions, ``"d 1 -2 0"`` for
    deletions) to a file-like object.

``check_drat(cnf, proof)``
    A pure-Python *backward* RUP checker.  It shares **no** code with
    either solver engine: it has its own clause database, its own
    two-watched-literal unit propagation over flat per-literal arrays,
    and its own trail.  A proof is accepted iff the empty clause is RUP
    (reverse unit propagation) with respect to the formula plus the
    proof's surviving additions, and — walking the proof backwards —
    every addition *used* by that derivation is itself RUP at the point
    it was introduced.  "Used" is the whole implication graph of each
    checked conflict (the core); backward checking skips lemmas outside
    it, and ``verify_all=True`` checks every lemma regardless.

Checking is deliberately restricted to the RUP fragment of DRAT: both
in-tree solvers only ever learn clauses by resolution (1-UIP), and every
such clause is RUP with respect to the clause database at learn time.
The cube-tree proofs of certified exhaustive simulation
(:mod:`repro.netlist.sat.cec`) are RUP by construction too: a lemma
negating a full leaf assignment is refuted by propagating the miter
CNF, and each inner lemma by its children's lemmas.
Lemmas are verified against the *final* input clause set, which is sound
— extra clauses only strengthen unit propagation, and by induction every
accepted lemma is a logical consequence of the input formula — and is
what makes proofs from *incremental* solving (clauses added between
``solve()`` calls) checkable with no bookkeeping in the solver.

Assumption-based UNSAT verdicts (``solve(assumptions=...)`` returning
unsatisfiable, as in the FRAIG sweep) never derive the empty clause from
the formula alone.  They are certified by passing ``assumptions=`` to
``check_drat``: the assumption literals are asserted as extra units in
the checker, under which the proof's final conflict must appear.  This
is sound because CDCL learned clauses are implied by the clause database
alone — assumptions enter the search as decisions and are never
resolved on as clauses — so every logged lemma is still a consequence
of the formula, and the certificate shows formula ∧ assumptions ⊢ ⊥.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, TextIO, Tuple

__all__ = [
    "ProofLog",
    "DratCheckResult",
    "check_drat",
    "parse_drat",
    "format_drat_step",
]

Step = Tuple[str, Tuple[int, ...]]


def format_drat_step(kind: str, lits: Sequence[int]) -> str:
    """Render one proof step as a standard DRAT text line (no newline).

    ``kind`` is ``"a"`` (addition) or ``"d"`` (deletion); literals are
    signed DIMACS integers.  The empty addition renders as ``"0"`` —
    the explicit empty clause.
    """
    if kind not in ("a", "d"):
        raise ValueError(f"unknown DRAT step kind {kind!r}")
    body = " ".join(str(lit) for lit in lits)
    line = f"{body} 0" if body else "0"
    return f"d {line}" if kind == "d" else line


def parse_drat(text: str) -> List[Step]:
    """Parse DRAT text (one clause per line, 0-terminated) into steps.

    Blank lines and ``c ...`` comment lines are ignored.  The inverse of
    ``ProofLog.to_drat`` / ``format_drat_step``.
    """
    steps: List[Step] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        kind = "a"
        if line.startswith("d"):
            kind = "d"
            line = line[1:].strip()
        try:
            numbers = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise ValueError(f"DRAT line {lineno}: {raw!r}") from exc
        if not numbers or numbers[-1] != 0:
            raise ValueError(f"DRAT line {lineno} is not 0-terminated: {raw!r}")
        if any(n == 0 for n in numbers[:-1]):
            raise ValueError(f"DRAT line {lineno} has an interior 0: {raw!r}")
        steps.append((kind, tuple(numbers[:-1])))
    return steps


class ProofLog:
    """In-memory DRAT proof with optional live text streaming.

    The solver-facing surface is just ``add(lits)`` and ``delete(lits)``
    with DIMACS literals; anything implementing those two methods can be
    handed to ``Solver.set_proof``.  When ``stream`` is given, each step
    is also written as one DRAT line and flushed, so the proof file is
    usable the moment the solver stops — even mid-run.
    """

    __slots__ = ("steps", "stream", "bytes_written", "num_added",
                 "num_deleted", "_bytes")

    def __init__(self, stream: Optional[TextIO] = None):
        self.steps: List[Step] = []
        self.stream = stream
        self.bytes_written = 0
        #: Running counts of addition and deletion steps.
        self.num_added = 0
        self.num_deleted = 0
        self._bytes = 0

    def add(self, lits: Iterable[int]) -> None:
        """Record a learned-clause addition."""
        self._record("a", tuple(lits))

    def delete(self, lits: Iterable[int]) -> None:
        """Record a clause deletion (reduce-DB erasure)."""
        self._record("d", tuple(lits))

    def _record(self, kind: str, lits: Tuple[int, ...]) -> None:
        self.steps.append((kind, lits))
        if kind == "a":
            self.num_added += 1
        else:
            self.num_deleted += 1
        if self.stream is not None:
            line = format_drat_step(kind, lits) + "\n"
            self.stream.write(line)
            self.bytes_written += len(line)
            self.stream.flush()
        else:
            # The DRAT line is the literals joined by single spaces, then
            # " 0\n" ("0\n" when empty), after "d " for a deletion.
            self._bytes += (sum(map(len, map(str, lits))) + len(lits) + 2
                            + (kind == "d") * 2)

    def size_bytes(self) -> int:
        """Size of the proof as DRAT text (streamed or would-be)."""
        if self.stream is not None:
            return self.bytes_written
        return self._bytes

    def to_drat(self) -> str:
        """The whole proof as DRAT text."""
        return "".join(format_drat_step(kind, lits) + "\n"
                       for kind, lits in self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ProofLog(steps={len(self.steps)}, "
                f"added={self.num_added}, deleted={self.num_deleted})")


@dataclass
class DratCheckResult:
    """Outcome of ``check_drat``.  Truthy iff the proof was accepted.

    ``lemmas`` counts additions in the proof, ``checked`` how many were
    actually RUP-verified (the dependency core under backward checking,
    or all of them under ``verify_all``), ``deletions`` how many
    deletion steps matched an active clause.
    """

    ok: bool
    reason: str = ""
    lemmas: int = 0
    checked: int = 0
    deletions: int = 0

    def __bool__(self) -> bool:
        return self.ok


def check_drat(cnf, proof, assumptions: Sequence[int] = (),
               verify_all: bool = False) -> DratCheckResult:
    """Independently verify a DRAT(-RUP) proof of unsatisfiability.

    ``cnf`` is the input formula: anything with a ``.clauses`` attribute
    (e.g. ``repro.netlist.sat.cnf.CNF``) or a bare iterable of clauses,
    each clause an iterable of signed DIMACS literals.  ``proof`` is a
    ``ProofLog``, a list of ``(kind, lits)`` steps, or DRAT text.
    ``assumptions`` are literals asserted as extra units (certifying
    UNSAT-under-assumptions verdicts).  ``verify_all=True`` checks every
    addition instead of only the dependency core of the final conflict.

    Returns a ``DratCheckResult``; never raises on a bad proof, only on
    malformed input.
    """
    formula = getattr(cnf, "clauses", cnf)
    steps = getattr(proof, "steps", proof)
    if isinstance(steps, str):
        steps = parse_drat(steps)

    # -- clause database ---------------------------------------------------
    # Literals are encoded as ``2 * var + sign`` (sign 1 = negative), so
    # values, watch lists and negation (``^ 1``) are flat list indexing.
    # Clauses are mutable lists so the two watched literals can live at
    # positions 0 and 1.  ``active`` tracks liveness under the deletion
    # steps.
    db: List[List[int]] = []
    active: List[bool] = []
    inert: List[bool] = []           # tautologies: never propagate
    marked: List[bool] = []          # dependency core of the final conflict
    unit_ids: List[int] = []
    empty_ids: List[int] = []
    by_key: dict = {}                # sorted literal tuple -> clause ids
    num_vars = 0

    def add_clause(lits: Iterable[int]) -> int:
        nonlocal num_vars
        seen = set()
        clause: List[int] = []
        tautology = False
        for lit in lits:
            if lit == 0:
                raise ValueError("literal 0 in clause")
            if lit in seen:
                continue
            if -lit in seen:
                tautology = True
            seen.add(lit)
            clause.append(2 * lit if lit > 0 else 1 - 2 * lit)
            if abs(lit) > num_vars:
                num_vars = abs(lit)
        cid = len(db)
        db.append(clause)
        active.append(True)
        inert.append(tautology)
        marked.append(False)
        by_key.setdefault(tuple(sorted(seen)), []).append(cid)
        if tautology:
            pass
        elif not clause:
            empty_ids.append(cid)
        elif len(clause) == 1:
            unit_ids.append(cid)
        return cid

    for lits in formula:
        add_clause(lits)

    lemma_count = 0
    matched_deletions = 0
    events: List[Tuple[str, int]] = []   # proof order, resolved clause ids
    for kind, lits in steps:
        if kind == "a":
            cid = add_clause(lits)
            events.append(("a", cid))
            lemma_count += 1
        elif kind == "d":
            key = tuple(sorted(set(lits)))
            cid = next((c for c in by_key.get(key, ())
                        if active[c]), None)
            if cid is None:
                continue             # deleting an unknown clause: ignore
            active[cid] = False
            events.append(("d", cid))
            matched_deletions += 1
        else:
            raise ValueError(f"unknown DRAT step kind {kind!r}")

    for lit in assumptions:
        if abs(lit) > num_vars:
            num_vars = abs(lit)
    assumed = [2 * lit if lit > 0 else 1 - 2 * lit for lit in assumptions]

    def fail(reason: str) -> DratCheckResult:
        return DratCheckResult(False, reason, lemmas=lemma_count,
                               checked=checked, deletions=matched_deletions)

    # -- watch lists -------------------------------------------------------
    # ``bins[lit]`` holds ``(clause id, other literal)`` for each binary
    # clause containing ``lit``.  ``watches[lit]`` holds a flat
    # ``clause id, blocker`` pair for each longer clause watching
    # ``lit``: a true blocker (another literal of the clause) skips the
    # clause without reading it.
    #
    # Only clauses active at the end of the proof are hooked here.  The
    # backward pass hooks a deleted clause when it reactivates it, and
    # propagation unhooks an inactive clause when it reads one.  A cube
    # tree deactivates thousands of lemmas that watch the same leaf
    # literals; left in place, they would be walked by every later
    # propagation.  A clause is hooked at most once (at the end, or at
    # its one deletion), so no list holds a duplicate entry.
    bins: List[list] = [[] for _ in range(2 * num_vars + 2)]
    watches: List[List[int]] = [[] for _ in range(2 * num_vars + 2)]

    def hook(cid: int) -> None:
        clause = db[cid]
        if inert[cid] or len(clause) < 2:
            return
        if len(clause) == 2:
            first, second = clause
            bins[first].append((cid, second))
            bins[second].append((cid, first))
        else:
            watches[clause[0]] += (cid, clause[1])
            watches[clause[1]] += (cid, clause[0])

    for cid, alive in enumerate(active):
        if alive:
            hook(cid)

    # -- unit propagation --------------------------------------------------
    val = [0] * (2 * num_vars + 2)   # per literal: +1 true, -1 false, 0 free
    reason = [-1] * (num_vars + 1)   # clause id, or -1 for asserted lits
    trail: List[int] = []
    seen = [False] * (num_vars + 1)  # mark_core's walk, cleared after

    def mark_core(seed_cids: Sequence[int], seed_vars: Sequence[int]) -> None:
        # Mark every clause on the conflict's implication graph: those
        # are the additions the final conflict actually depends on.  The
        # walk goes back along the trail, so it passes through clauses an
        # earlier conflict already marked — their antecedents this time
        # may be lemmas no conflict has used yet.
        for var in seed_vars:
            seen[var] = True
        for cid in seed_cids:
            marked[cid] = True
            for lit in db[cid]:
                seen[lit >> 1] = True
        for lit in reversed(trail):
            var = lit >> 1
            if seen[var]:
                rsn = reason[var]
                if rsn >= 0:
                    marked[rsn] = True
                    for other in db[rsn]:
                        seen[other >> 1] = True
        for lit in trail:
            seen[lit >> 1] = False
        for var in seed_vars:
            seen[var] = False

    def propagate() -> Optional[int]:
        # Returns the id of a conflicting clause, or None.
        qhead = 0
        ntrail = len(trail)
        while qhead < ntrail:
            false_lit = trail[qhead] ^ 1
            qhead += 1
            implied = bins[false_lit]
            stale = False
            for cid, other in implied:
                if not active[cid]:
                    stale = True
                elif val[other] == 0:
                    val[other] = 1
                    val[other ^ 1] = -1
                    reason[other >> 1] = cid
                    trail.append(other)
                    ntrail += 1
                elif val[other] < 0:
                    return cid
            if stale:
                implied[:] = [entry for entry in implied if active[entry[0]]]
            watchers = watches[false_lit]
            i = 0
            n = len(watchers)
            while i < n:
                if val[watchers[i + 1]] > 0:     # blocker true
                    i += 2
                    continue
                cid = watchers[i]
                if not active[cid]:
                    # Unhook: swap in the last pair, revisit slot i.
                    n -= 2
                    watchers[i] = watchers[n]
                    watchers[i + 1] = watchers[n + 1]
                    del watchers[n:]
                    continue
                clause = db[cid]
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                fval = val[first]
                if fval > 0:         # satisfied: make it the blocker
                    watchers[i + 1] = first
                    i += 2
                    continue
                for k in range(2, len(clause)):
                    other = clause[k]
                    if val[other] >= 0:  # not false: watch it instead
                        clause[1] = other
                        clause[k] = false_lit
                        watches[other] += (cid, first)
                        n -= 2
                        watchers[i] = watchers[n]
                        watchers[i + 1] = watchers[n + 1]
                        del watchers[n:]
                        break
                else:
                    if fval < 0:     # all literals false
                        return cid
                    val[first] = 1
                    val[first ^ 1] = -1
                    reason[first >> 1] = cid
                    trail.append(first)
                    ntrail += 1
                    i += 2
        return None

    def assert_lit(lit: int, rsn: int) -> Optional[Tuple[int, int]]:
        # Returns (clause id or -1, literal) describing a conflict, or
        # None on success / no-op.
        have = val[lit]
        if have > 0:
            return None
        if have < 0:
            return (rsn, lit)
        val[lit] = 1
        val[lit ^ 1] = -1
        reason[lit >> 1] = rsn
        trail.append(lit)
        return None

    def undo() -> None:
        for lit in trail:
            val[lit] = 0
            val[lit ^ 1] = 0
        del trail[:]

    def rup_conflict(negated: Sequence[int], mark: bool) -> bool:
        """True iff asserting ``negated`` ∪ assumptions ∪ units yields a
        UP conflict; marks its dependency core when ``mark``."""
        for cid in empty_ids:
            if active[cid]:
                if mark:
                    marked[cid] = True
                return True
        conflict_cid = None
        seed_cids: List[int] = []
        for lit in assumed:
            hit = assert_lit(lit, -1)
            if hit is not None:
                conflict_cid = -1    # assumption vs assumption/lemma lit
                seed_vars = [hit[1] >> 1]
                break
        else:
            for lit in negated:
                hit = assert_lit(lit, -1)
                if hit is not None:
                    conflict_cid = -1
                    seed_vars = [hit[1] >> 1]
                    break
            else:
                for cid in unit_ids:
                    if not active[cid]:
                        continue
                    hit = assert_lit(db[cid][0], cid)
                    if hit is not None:
                        conflict_cid = hit[0]
                        seed_cids = [cid] if cid >= 0 else []
                        if hit[0] >= 0:
                            seed_cids.append(hit[0])
                        seed_vars = [hit[1] >> 1]
                        break
                else:
                    cid = propagate()
                    if cid is None:
                        undo()
                        return False
                    conflict_cid = cid
                    seed_cids = [cid]
                    seed_vars = [lit >> 1 for lit in db[cid]]
        if mark:
            if conflict_cid is not None and conflict_cid >= 0:
                seed_cids.append(conflict_cid)
            mark_core(seed_cids, seed_vars)
        undo()
        return True

    # -- the check ---------------------------------------------------------
    checked = 0

    # 1. The empty clause must be RUP at the end of the proof: the
    #    formula plus surviving lemmas (plus assumptions) propagate to a
    #    conflict.  This *is* the proof's implicit final step, so no
    #    explicit "0" line is required.
    if not rup_conflict((), mark=True):
        return fail("no unit-propagation conflict at end of proof "
                    "(empty clause is not RUP)")

    # 2. Walk the proof backwards.  Deletions reactivate; additions are
    #    removed from the database and, if they feed the final conflict
    #    (or verify_all), must be RUP with respect to what remains.
    for kind, cid in reversed(events):
        if kind == "d":
            active[cid] = True
            hook(cid)
            continue
        active[cid] = False
        if not (verify_all or marked[cid]):
            continue
        if inert[cid]:
            checked += 1             # a tautology is trivially redundant
            continue
        if not rup_conflict([lit ^ 1 for lit in db[cid]], mark=True):
            return fail(f"lemma {_dimacs(db[cid])} 0 is not RUP")
        checked += 1

    return DratCheckResult(True, "", lemmas=lemma_count, checked=checked,
                           deletions=matched_deletions)


def _dimacs(clause: Sequence[int]) -> str:
    """An encoded-literal clause as DIMACS text (no terminating 0)."""
    return " ".join(str(-(lit >> 1) if lit & 1 else lit >> 1)
                    for lit in clause)
