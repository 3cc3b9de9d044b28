"""DRAT proof logging and an independent RUP proof checker.

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
    A pure-Python RUP checker.  It shares **no** code with the solver.
    A proof is accepted iff every addition is RUP (reverse unit
    propagation) with respect to the formula plus the additions still
    alive when it was made, and the empty clause is RUP at the end of
    the proof.  Every addition is checked, in two stages:

    1. A *lane pass* gives each addition one bit (lane) of a Python int,
       and one more lane to the end of the proof.  Each lane asserts its
       lemma's negation, and a clause takes part in exactly the lanes in
       which it is alive, so a few passes of bit-parallel unit
       propagation over the whole clause list check every lemma at once.
       A cube tree is settled in a single pass.
    2. The lemmas the lane pass left unverified are checked one by one,
       walking the proof backwards: a clause database with
       two-watched-literal unit propagation over flat per-literal arrays
       and its own trail, with deletions reactivating clauses.

Checking is deliberately restricted to the RUP fragment of DRAT: the
solver only ever learns clauses by resolution (1-UIP), and every
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

Assumptions need no special case: an UNSAT-under-assumptions verdict
(``solve(assumptions=...)``) is checked as a refutation of the formula
with each assumption added as a unit clause.  CDCL learned clauses are
implied by the clause database alone (assumptions enter the search as
decisions, never as clauses), so the solver's lemmas stay RUP there.
The FRAIG sweep (:mod:`repro.netlist.opt.fraig`) does not even need the
units: each merge query runs under its own gate literal ``g``, and
after an UNSAT answer the sweep logs the unit ``¬g``, which the
solver's final conflict under that one assumption makes RUP.  At the
end of a round ``check_drat(cnf, proof, refutation=False)`` verifies
every lemma of the round's proof once, without an empty clause, since
the round's formula is satisfiable; a merge is certified iff its unit
is among the verified lemmas.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import compress, count
from operator import and_, lt, or_
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
                 "num_deleted")

    def __init__(self, stream: Optional[TextIO] = None):
        self.steps: List[Step] = []
        self.stream = stream
        self.bytes_written = 0
        #: Running counts of addition and deletion steps.
        self.num_added = 0
        self.num_deleted = 0

    def add(self, lits: Iterable[int]) -> None:
        """Record a learned-clause addition."""
        step = ("a", tuple(lits))
        self.steps.append(step)
        self.num_added += 1
        if self.stream is not None:
            self._write(step)

    def delete(self, lits: Iterable[int]) -> None:
        """Record a clause deletion (reduce-DB erasure)."""
        step = ("d", tuple(lits))
        self.steps.append(step)
        self.num_deleted += 1
        if self.stream is not None:
            self._write(step)

    def _write(self, step: Step) -> None:
        line = format_drat_step(*step) + "\n"
        self.stream.write(line)
        self.bytes_written += len(line)
        self.stream.flush()

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
    verified (all of them when the proof is accepted), ``lane_checked``
    how many of those the lane pass settled (the rest went through the
    sequential check), ``deletions`` how many deletion steps matched an
    active clause.
    """

    ok: bool
    reason: str = ""
    lemmas: int = 0
    checked: int = 0
    lane_checked: int = 0
    deletions: int = 0

    @property
    def sequential_checked(self) -> int:
        """Lemmas verified by the sequential RUP check."""
        return self.checked - self.lane_checked

    def __bool__(self) -> bool:
        return self.ok


#: Bit-parallel propagation passes of the lane pass.  One settles every
#: lemma of a cube tree; a solver proof's lemmas need up to about twenty,
#: and those still unverified after two are cheaper to check
#: sequentially.
_LANE_PASSES = 2
#: Most lanes one lane block holds, so a long proof never builds huge
#: masks.
_LANE_BLOCK = 4096
#: The lane pass runs only on proofs with at least one addition per this
#: many formula clauses.  A pass sweeps every live clause however few
#: the lanes, so on proofs with few lemmas it costs more than checking
#: them sequentially.  On a 2-vCPU host, as the median ratio over 20
#: alternating repetitions: the four certified FRAIG round checks of two
#: W=16 ALU self-checks (one addition per 5 to 12 clauses, so this
#: setting skips the pass) take 1.26x as long with the pass forced on as
#: with it off; the 100 mutated solver proofs of the tests' checker
#: oracle take 1.39x forced on and 1.03x at this setting, which runs the
#: pass on their W=3 proofs (0.7 additions per clause).  The benchmark's
#: cube tree (2.5 additions per clause) is settled by one pass.
_LANE_MIN_SHARE = 4


def check_drat(cnf, proof, refutation: bool = True) -> DratCheckResult:
    """Independently verify a DRAT(-RUP) proof of unsatisfiability.

    ``cnf`` is the input formula: anything with a ``.clauses`` attribute
    (e.g. ``repro.netlist.sat.cnf.CNF``) or a bare iterable of clauses,
    each clause an iterable of signed DIMACS literals.  ``proof`` is a
    ``ProofLog``, a list of ``(kind, lits)`` steps, or DRAT text.
    Every addition is checked.  To certify a solve that was UNSAT under
    forced literals, add each of them to ``cnf`` as a unit clause.
    With ``refutation=False`` the proof need not end in a conflict: it
    is accepted iff every addition is RUP, so each lemma is certified
    as a consequence of a formula that may be satisfiable.

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
    # Every clause is keyed once by its sorted distinct literals, and its
    # encoding follows that order; the encodings are mutable lists so
    # the two watched literals can live at positions 0 and 1.  Formula
    # clauses come first, then lemma ``i`` as clause ``base + i``.
    # ``active`` tracks liveness under the deletion steps.  Lane ``i``
    # checks lemma ``i`` and the last lane the end of the proof; a
    # clause is alive in lanes ``born[cid]`` up to ``dies[cid]``
    # (exclusive, -1 for never deleted).
    clauses = list(formula)
    base = len(clauses)
    deletions = []                   # (additions before it, literals)
    for kind, lits in steps:
        if kind == "a":
            clauses.append(lits)
        elif kind == "d":
            deletions.append((len(clauses) - base, lits))
        else:
            raise ValueError(f"unknown DRAT step kind {kind!r}")
    lemma_count = len(clauses) - base
    keys = list(map(tuple, map(sorted, clauses)))
    # Duplicate literals are dropped.  They are rare, so the clauses that
    # hold one are found in bulk.  A tautology needs no special case: it
    # can never become unit, and a tautological lemma's negation is a
    # conflict by itself.
    for cid in compress(count(), map(lt, map(len, map(set, keys)),
                                     map(len, keys))):
        keys[cid] = tuple(sorted(set(keys[cid])))
    literals = set().union(*keys)
    if 0 in literals or any(0 in lits for _, lits in deletions):
        raise ValueError("literal 0 in clause")
    num_vars = max(map(abs, literals), default=0)
    code = {lit: 2 * lit if lit > 0 else 1 - 2 * lit for lit in literals}
    db: List[List[int]] = [[*map(code.__getitem__, key)] for key in keys]
    unit_ids = [cid for cid, key in enumerate(keys) if len(key) == 1]
    empty_ids = [cid for cid, key in enumerate(keys) if not key]
    born = [0] * base + [*range(1, lemma_count + 1)]
    dies = [-1] * len(db)
    active = [True] * len(db)

    # A deletion deactivates the earliest copy of its clause still active
    # (copies die in birth order); deleting an unknown clause is ignored.
    copies: dict = {}                # key -> clause ids, latest first
    for cid in reversed(range(len(keys))):
        copies.setdefault(keys[cid], []).append(cid)
    undo: List[Tuple[int, int]] = []     # (lane, clause id), proof order
    for lane, lits in deletions:
        ids = (copies.get(tuple(sorted(lits)))
               or copies.get(tuple(sorted(set(lits)))))
        if ids and ids[-1] - base < lane:    # born before the deletion
            cid = ids.pop()
            active[cid] = False
            dies[cid] = lane
            undo.append((lane, cid))
    matched_deletions = len(undo)

    # -- lane pass ---------------------------------------------------------
    # ``verified[lane]`` is "1" for each lane unit propagation settled;
    # without ``refutation`` the end of the proof needs no lane.
    if _LANE_PASSES and lemma_count * _LANE_MIN_SHARE >= base:
        verified = _lane_pass(db, born, dies, base, 2 * num_vars + 2,
                              refutation)
    else:
        verified = "0" * (lemma_count + refutation)
    if not refutation:
        verified += "1"
    lane_checked = verified.count("1", 0, lemma_count)
    checked = lane_checked
    if verified[lemma_count] == "1" and lane_checked == lemma_count:
        return DratCheckResult(True, "", lemmas=lemma_count, checked=checked,
                               lane_checked=lane_checked,
                               deletions=matched_deletions)

    def fail(reason: str) -> DratCheckResult:
        return DratCheckResult(False, reason, lemmas=lemma_count,
                               checked=checked, lane_checked=lane_checked,
                               deletions=matched_deletions)

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
        if len(clause) < 2:
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
    trail: List[int] = []

    def propagate() -> bool:
        # True iff some active clause becomes all-false.
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
                    trail.append(other)
                    ntrail += 1
                elif val[other] < 0:
                    return True
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
                        return True
                    val[first] = 1
                    val[first ^ 1] = -1
                    trail.append(first)
                    ntrail += 1
                    i += 2
        return False

    def assert_lit(lit: int) -> bool:
        # True iff ``lit`` is already false (a conflict).
        have = val[lit]
        if have == 0:
            val[lit] = 1
            val[lit ^ 1] = -1
            trail.append(lit)
        return have < 0

    def rup_conflict(negated: Sequence[int]) -> bool:
        """True iff asserting ``negated`` ∪ units yields a UP conflict."""
        if any(active[cid] for cid in empty_ids):
            return True
        conflict = (any(assert_lit(lit) for lit in negated)
                    or any(assert_lit(db[cid][0]) for cid in unit_ids
                           if active[cid])
                    or propagate())
        for lit in trail:
            val[lit] = 0
            val[lit ^ 1] = 0
        del trail[:]
        return conflict

    # -- sequential check of what the lane pass left -----------------------
    # 1. Unless the lane pass settled it, or ``refutation`` is off, the
    #    empty clause must be RUP at the end of the proof: the formula
    #    plus surviving lemmas propagate to a conflict.  This *is* the
    #    proof's implicit final step, so no explicit "0" line is
    #    required.
    if verified[lemma_count] != "1" and not rup_conflict(()):
        return fail("no unit-propagation conflict at end of proof "
                    "(empty clause is not RUP)")

    # 2. Walk the proof backwards.  Deletions reactivate; additions are
    #    removed from the database and, unless their lane is verified,
    #    must be RUP with respect to what remains.
    pending = len(undo)
    for lemma in reversed(range(lemma_count)):
        while pending and undo[pending - 1][0] > lemma:
            pending -= 1             # deleted after this lemma was added
            cid = undo[pending][1]
            active[cid] = True
            hook(cid)
        cid = base + lemma
        active[cid] = False
        if verified[lemma] == "1":
            continue
        clause = db[cid]
        if not rup_conflict([lit ^ 1 for lit in clause]):
            return fail(f"lemma {_dimacs(clause)} 0 is not RUP" if clause
                        else "lemma 0 (the empty clause) is not RUP")
        checked += 1

    return DratCheckResult(True, "", lemmas=lemma_count, checked=checked,
                           lane_checked=lane_checked,
                           deletions=matched_deletions)


def _lane_pass(db: List[List[int]], born: List[int], dies: List[int],
               base: int, num_lits: int, end_lane: bool) -> str:
    """Bit-parallel unit propagation with one lane per proof addition.

    Lane ``i`` asserts the negation of lemma ``i`` (clause ``base + i``)
    and, with ``end_lane``, one more lane nothing, the end of the
    proof.  A clause takes part in lanes ``born[cid]`` up to
    ``dies[cid]``, exactly the lanes in which it is alive, so each lane
    is plain unit propagation over the clauses its check may use.
    Returns one character per lane, ``"1"`` where propagation reached a
    conflict (a clause all false, so a literal both true and false)
    within :data:`_LANE_PASSES` passes.
    """
    lemma_count = len(db) - base
    total = lemma_count + end_lane
    # Lemmas before the formula: a lemma's units reach the formula
    # clauses in the same pass, so one pass settles a cube tree.
    order = [*range(base, len(db)), *range(base)]
    flags = []
    for start in range(0, total, _LANE_BLOCK):
        stop = min(start + _LANE_BLOCK, total)
        full = (1 << (stop - start)) - 1
        # value[lit]: the lanes in which ``lit`` is true.
        value = [0] * num_lits
        for lane in range(start, min(stop, lemma_count)):
            bit = 1 << (lane - start)
            for lit in db[base + lane]:
                value[lit ^ 1] |= bit
        clauses = []                 # (clause, its negations, lane mask)
        conflict = 0
        for cid in order:
            first = max(born[cid], start)
            last = stop if dies[cid] < 0 else min(dies[cid], stop)
            if first >= last:
                continue
            mask = ((1 << (last - first)) - 1) << (first - start)
            clause = db[cid]
            if clause:
                clauses.append((clause, [lit ^ 1 for lit in clause], mask))
            else:
                conflict |= mask
        get = value.__getitem__
        for _ in range(_LANE_PASSES):
            for clause, negations, mask in clauses:
                falses = list(map(get, negations))
                if falses.count(0) > 1:
                    continue         # two literals false in no lane
                # A literal is implied in the lanes where every other
                # literal is false: the AND of the prefix before it and
                # the suffix after it.
                suffix = []
                acc = mask
                for false in reversed(falses):
                    suffix.append(acc)
                    acc &= false
                prefix = mask
                for lit, false in zip(clause, falses):
                    unit = prefix & suffix.pop()
                    if unit:
                        value[lit] |= unit
                    prefix &= false
                    if not prefix:
                        break
            conflict |= reduce(or_, map(and_, value[0::2], value[1::2]), 0)
            if conflict == full:
                break
        flags.append(f"{conflict:0{stop - start}b}"[::-1])
    return "".join(flags)


def _dimacs(clause: Sequence[int]) -> str:
    """An encoded-literal clause as DIMACS text (no terminating 0)."""
    return " ".join(str(-(lit >> 1) if lit & 1 else lit >> 1)
                    for lit in clause)
