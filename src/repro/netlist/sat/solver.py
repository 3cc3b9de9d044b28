"""A high-performance CDCL SAT solver built on flat integer arrays.

This is the hot path of every formal query in the repository — FRAIG
candidate proofs, miter-based CEC, counterexample refinement all bottom
out here — so the engine is organized the way MiniSat/Glucose organize
theirs, translated to what is fast in CPython:

* **clause arena** — all clause literals live in one ``array('i')``
  pool; a clause is an integer *cref* indexing parallel offset/length/LBD
  tables.  No per-clause Python object, no list-of-lists pointer chasing.
* **dense watch tables** — two-watched-literal lists are indexed by
  *encoded literal* (``var << 1 | sign``) in a plain list of length
  ``2 * (num_vars + 1)``: one index op instead of a dict hash per visit.
* **binary-clause special-casing** — two-literal clauses never enter the
  arena; each literal carries a flat implication list, so propagating a
  binary costs one list scan and zero watch surgery.
* **VSIDS on a binary heap** — decisions pop the max-activity variable
  in O(log n) (the old engine scanned all variables per decision) from a
  C-implemented lazy heap: entries are ``(-activity, var)`` pushed on
  unassignment and invalidated rather than moved (a variable is only
  bumped while assigned, so its freshest entry is always current), and
  zero-activity variables bypass the heap through an O(1) LIFO pool
  since their ties may break arbitrarily.  Activities bump on conflict
  and decay geometrically, with the usual 1e100 rescale.
* **phase saving** — each variable remembers its last assigned polarity
  and is re-decided that way, so restarts keep the satisfying prefix the
  search had already built.
* **Luby restarts** — restart intervals follow the Luby sequence
  (``luby(i) * 100`` conflicts), the strategy with optimal worst-case
  behaviour for randomized search.
* **LBD clause-database reduction** — learned clauses are scored by
  *literal block distance* at learn time; when the learned set outgrows
  its budget the worst half (highest LBD, longest) is dropped — glue
  clauses (LBD <= 2) and reason clauses of the current trail are always
  kept — and the arena is garbage-collected when enough of it is dead.

Propagation runs as a tight loop over local variable bindings (no
attribute lookups or dict hashing per literal), and conflict analysis
writes into preallocated ``seen`` buffers.

The solver is **incremental** in the MiniSat style: :meth:`Solver.solve`
accepts *assumptions* (literals forced as the first decisions; an UNSAT
verdict then only holds under those assumptions), and between calls new
variables and clauses may be added with :meth:`Solver.ensure_vars` /
:meth:`Solver.add_clause` / :meth:`Solver.add_clauses`.  Learned clauses
and variable activities carry over, so a sequence of related queries —
FRAIG's candidate-equivalence checks over one shared cone encoding —
gets cheaper as it proceeds.

``Solver(num_vars, clauses)`` streams ``clauses`` straight into the
arena: any iterable of literal iterables works and nothing is
materialized per clause, so one-shot callers (the CEC path) pay no
intermediate copy.

The original compact solver survives as ``ReferenceSolver`` in
``tests/reference_solver.py``, retained as the test oracle: the
randomized tests cross-check this engine against it.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field, fields
from heapq import heapify, heappop, heappush
from typing import Callable, Iterable, Optional

#: Restart interval in conflicts is ``luby(i) * _RESTART_BASE``.
_RESTART_BASE = 100
#: Variable activity decay: ``var_inc`` grows by 1/0.95 per conflict.
_VAR_DECAY = 0.95
#: Learned clauses with LBD at or below this are "glue" and never reduced.
_GLUE_LBD = 2


def luby(i: int) -> int:
    """The ``i``-th term (1-based) of the Luby restart sequence.

    1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...
    """
    if i < 1:
        raise ValueError("luby is defined for i >= 1")
    while True:
        k = i.bit_length()
        if i + 1 == 1 << k:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


@dataclass
class SolverStats:
    """Search statistics, cumulative over a :class:`Solver`'s lifetime."""

    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    learned_clauses: int = 0
    learned_literals: int = 0
    restarts: int = 0
    #: Sum of learned-clause LBD scores (``lbd_sum / learned_clauses`` is
    #: the mean glue level — lower means tighter learning).
    lbd_sum: int = 0
    #: Learned clauses dropped by database reduction.
    reduced_clauses: int = 0
    #: Arena garbage-collection compactions.
    gc_runs: int = 0

    @property
    def mean_lbd(self) -> float:
        """Mean glue level of the learned clauses (0.0 before any learn)."""
        if self.learned_clauses == 0:
            return 0.0
        return self.lbd_sum / self.learned_clauses

    def accumulate(self, other: "SolverStats") -> None:
        """Add another stats record into this one (multi-solver rollups:
        FRAIG aggregates its per-round solver instances this way)."""
        for f in fields(self):
            setattr(self, f.name,
                    getattr(self, f.name) + getattr(other, f.name))

    def to_dict(self) -> dict:
        record = {f.name: getattr(self, f.name) for f in fields(self)}
        record["mean_lbd"] = self.mean_lbd
        return record


class Model:
    """Lazy satisfying assignment: a mapping from variable to bool.

    Materializing a dict over every variable per :meth:`Solver.solve`
    call costs O(num_vars) — pure waste for incremental callers like
    FRAIG that read a handful of leaf variables out of thousands.  This
    snapshots the assignment with one C-level list copy and answers
    lookups on demand, while still comparing equal to the plain dict the
    historical API returned.
    """

    __slots__ = ("_val", "_n")

    def __init__(self, val: list[int], num_vars: int) -> None:
        self._val = val
        self._n = num_vars

    def __getitem__(self, var: int) -> bool:
        if not 1 <= var <= self._n:
            raise KeyError(var)
        return self._val[var << 1] > 0

    def get(self, var: int, default=None):
        if 1 <= var <= self._n:
            return self._val[var << 1] > 0
        return default

    def __contains__(self, var: object) -> bool:
        return isinstance(var, int) and 1 <= var <= self._n

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return iter(range(1, self._n + 1))

    def keys(self):
        return range(1, self._n + 1)

    def values(self):
        return (self._val[v << 1] > 0 for v in range(1, self._n + 1))

    def items(self):
        return ((v, self._val[v << 1] > 0) for v in range(1, self._n + 1))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Model):
            return self._n == other._n and \
                all(a == b for a, b in zip(self.values(), other.values()))
        if isinstance(other, dict):
            return len(other) == self._n and \
                all(other.get(v) == (self._val[v << 1] > 0)
                    for v in range(1, self._n + 1))
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Model({dict(self.items())!r})"


@dataclass
class SolverResult:
    """SAT/UNSAT verdict plus a model (var -> bool) when satisfiable."""

    satisfiable: bool
    model: Optional["Model | dict[int, bool]"] = None
    stats: SolverStats = field(default_factory=SolverStats)


class Solver:
    """CDCL solver over clauses of non-zero integer (DIMACS) literals.

    Internally literals are *encoded*: variable ``v``'s positive literal
    is ``v << 1``, its negation ``v << 1 | 1``, so ``lit ^ 1`` negates,
    ``lit >> 1`` recovers the variable, and every per-literal table is a
    dense list.  The public API speaks DIMACS throughout.
    """

    def __init__(self, num_vars: int,
                 clauses: Iterable[Iterable[int]] = ()) -> None:
        self.num_vars = num_vars
        n = num_vars + 1
        # Clause arena: one flat literal pool + parallel cref tables.
        self.lits = array("i")
        self.c_off = array("i")
        self.c_len = array("i")
        self.c_lbd = array("i")     # 0 = problem clause, >0 = learned
        # Dense per-encoded-literal tables.
        self.watches: list[list[int]] = [[] for _ in range(2 * n)]
        self.bins: list[list[int]] = [[] for _ in range(2 * n)]
        # Per-encoded-literal value: 1 true, -1 false, 0 unassigned
        # (``val[l]`` and ``val[l ^ 1]`` are kept mirrored).
        self.val = [0] * (2 * n)
        # Per-variable state, 1-indexed.
        self.level = [0] * n
        self.reason = [-1] * n      # -1 decision/none, >=0 cref,
        #                             <=-2 binary: other lit is -2 - reason
        self.activity = [0.0] * n
        self.saved = [1] * n        # saved phase bit (1 = negative first)
        self.seen = bytearray(n)    # conflict-analysis scratch
        # VSIDS decision order: a binary min-heap of ``(-activity, var)``
        # entries (C-implemented heapq) for variables with nonzero
        # activity, plus an O(1) LIFO pool for zero-activity ones (ties
        # may break arbitrarily, so they skip heap discipline — the
        # dominant case for FRAIG's conflict-light incremental queries).
        # The heap is *lazy*: entries are pushed on unassignment and
        # invalidated rather than moved — a variable is only ever bumped
        # while assigned, so an unassigned variable's freshest entry
        # always carries its current activity, and stale entries are
        # recognized (assigned var, or activity mismatch) and dropped at
        # pop time.
        self.heap: list[tuple[float, int]] = []
        self.pool: list[int] = list(range(1, n))
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.stats = SolverStats()
        self.var_inc = 1.0
        self.learnts: list[int] = []
        self.max_learnts = 0
        self.num_problem = 0
        self.wasted = 0             # dead literal slots in the arena
        self._unsat = False
        self._pending_units: list[int] = []
        # MiniSat-style progress reporting: every ``_progress_interval``
        # conflicts the solve loop calls ``_progress_cb`` with a snapshot
        # dict (see set_progress).  None means disabled — the only cost
        # then is one identity check per conflict.
        self._progress_cb: Optional[Callable[[dict], None]] = None
        self._progress_interval = 2000
        # DRAT proof sink (see set_proof).  None means disabled — the only
        # cost then is one attribute check per conflict.
        self._proof = None
        for clause in clauses:
            self._add_problem(clause)

    def set_progress(self, callback: Optional[Callable[[dict], None]],
                     interval: int = 2000) -> None:
        """Install (or clear, with ``None``) a search-progress callback.

        ``callback`` receives a dict every ``interval`` conflicts:
        ``conflicts``, ``restarts``, ``decisions``, ``propagations``,
        ``trail`` (current assignment depth), ``learned`` (live learned
        clauses), ``mean_lbd``, and ``props_per_second`` /
        ``conflicts_per_second`` measured over the current :meth:`solve`
        call — the numbers a MiniSat progress line prints.
        ``repro.obs.attach_solver_progress`` routes these into the
        active tracer as instant events.
        """
        if interval < 1:
            raise ValueError("progress interval must be >= 1")
        self._progress_cb = callback
        self._progress_interval = interval

    def set_proof(self, sink) -> None:
        """Install (or clear, with ``None``) a DRAT proof sink.

        ``sink`` needs two methods, both taking an iterable of signed
        DIMACS literals: ``add(lits)`` is called for every learned clause
        (and with an empty iterable when the empty clause is derived),
        ``delete(lits)`` for every clause erased by reduce-DB.
        ``repro.netlist.sat.proof.ProofLog`` is the standard sink; the
        resulting proof is checkable with ``check_drat``.  Mirrors the
        null-object discipline of :meth:`set_progress`: when no sink is
        installed the solve loop pays one identity check per conflict.
        """
        self._proof = sink

    def seed_phases(self, phases) -> None:
        """Preload saved phases from a ``{var: bool}`` mapping.

        Phase saving re-decides each variable with its remembered
        polarity; seeding the memory before the first decision steers the
        search toward a known near-solution — the CEC path seeds from
        packed-simulation signatures, where each variable's majority
        value over the random patterns is a cheap guess at its value in
        a satisfying assignment.  Unknown variables are ignored.
        """
        saved = self.saved
        num_vars = self.num_vars
        for var, value in phases.items():
            if 1 <= var <= num_vars:
                saved[var] = 0 if value else 1

    def seed_activity(self, weights) -> None:
        """Boost initial VSIDS activities from a ``{var: weight}`` map.

        Weights are scaled by the current bump increment, so callers pass
        relative importance in ``[0, 1]`` — the CEC path passes
        fanout-normalized weights so highly shared miter nodes are
        decided first.  Seeded variables enter the decision heap
        immediately; the ordinary decay schedule erodes the seed, so a
        bad hint costs at most the opening decisions.
        """
        act = self.activity
        heap = self.heap
        val = self.val
        var_inc = self.var_inc
        num_vars = self.num_vars
        for var, weight in weights.items():
            if weight <= 0.0 or not 1 <= var <= num_vars:
                continue
            a = act[var] + weight * var_inc
            act[var] = a
            if val[var << 1] == 0:
                heappush(heap, (-a, var))

    def _progress_report(self, solve_start: float,
                         props_start: int, conf_start: int) -> dict:
        stats = self.stats
        elapsed = time.perf_counter() - solve_start
        props = stats.propagations - props_start
        confs = stats.conflicts - conf_start
        return {
            "conflicts": stats.conflicts,
            "restarts": stats.restarts,
            "decisions": stats.decisions,
            "propagations": stats.propagations,
            "trail": len(self.trail),
            "learned": len(self.learnts),
            "mean_lbd": round(stats.mean_lbd, 2),
            "props_per_second": round(props / elapsed) if elapsed > 0 else 0,
            "conflicts_per_second": (round(confs / elapsed)
                                     if elapsed > 0 else 0),
        }

    # -- clause management --------------------------------------------------

    def ensure_vars(self, num_vars: int) -> None:
        """Grow the variable universe to ``num_vars`` (incremental use)."""
        grow = num_vars - self.num_vars
        if grow <= 0:
            return
        self.val.extend([0] * (2 * grow))
        self.watches.extend([] for _ in range(2 * grow))
        self.bins.extend([] for _ in range(2 * grow))
        self.level.extend([0] * grow)
        self.reason.extend([-1] * grow)
        self.activity.extend([0.0] * grow)
        self.saved.extend([1] * grow)
        self.seen.extend(bytes(grow))
        self.pool.extend(range(self.num_vars + 1, num_vars + 1))
        self.num_vars = num_vars

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a problem clause between :meth:`solve` calls.

        The clause is simplified against the root-level assignment so the
        watched-literal invariant survives: literals already false at level
        0 are dropped and clauses already satisfied at level 0 vanish.
        """
        self._add_problem(lits)

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        """Bulk clause ingestion: stream an iterable of clauses into the
        arena with no per-clause overhead beyond :meth:`add_clause`'s
        simplification.  This is the entry point encoders should use."""
        add = self._add_problem
        for clause in clauses:
            add(clause)

    def _add_problem(self, clause: Iterable[int]) -> None:
        val = self.val
        level = self.level
        num_vars = self.num_vars
        out: list[int] = []
        seen: set[int] = set()
        for lit in clause:
            var = lit if lit > 0 else -lit
            if var == 0 or var > num_vars:
                raise ValueError(f"literal {lit} references an unknown var "
                                 f"(call ensure_vars first)")
            enc = (var << 1) | (lit < 0)
            if enc ^ 1 in seen:
                return  # tautology
            if enc in seen:
                continue
            v = val[enc]
            if v and level[var] == 0:
                if v > 0:
                    return  # satisfied at root
                continue    # false at root: drop the literal
            seen.add(enc)
            out.append(enc)
        self.num_problem += 1
        n = len(out)
        if n == 0:
            self._unsat = True
        elif n == 1:
            self._pending_units.append(out[0])
        elif n == 2:
            a, b = out
            self.bins[a].append(b)
            self.bins[b].append(a)
        else:
            self._new_clause(out, 0)

    def _new_clause(self, enc_lits: list[int], lbd: int) -> int:
        """Append a clause (>= 3 literals) to the arena; returns its cref.

        Watcher lists are flat ``[cref, blocker, cref, blocker, ...]``
        pairs: the blocker is the other watched literal, checked before
        touching the arena so visits to satisfied clauses cost one list
        read (MiniSat's blocking-literal optimization).
        """
        lits = self.lits
        cref = len(self.c_off)
        self.c_off.append(len(lits))
        self.c_len.append(len(enc_lits))
        self.c_lbd.append(lbd)
        lits.extend(enc_lits)
        w0 = self.watches[enc_lits[0]]
        w0.append(cref)
        w0.append(enc_lits[1])
        w1 = self.watches[enc_lits[1]]
        w1.append(cref)
        w1.append(enc_lits[0])
        return cref

    # -- assignment ---------------------------------------------------------

    def _assign(self, enc: int, reason: int) -> None:
        """Assign encoded literal ``enc`` true (cold path: decisions,
        units, assumptions — propagation inlines this)."""
        val = self.val
        val[enc] = 1
        val[enc ^ 1] = -1
        var = enc >> 1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.saved[var] = enc & 1
        self.trail.append(enc)

    def _cancel_until(self, target_level: int) -> None:
        trail_lim = self.trail_lim
        if len(trail_lim) <= target_level:
            return
        target = trail_lim[target_level]
        val = self.val
        act = self.activity
        pool = self.pool
        heap = self.heap
        trail = self.trail
        for enc in trail[target:]:
            val[enc] = 0
            val[enc ^ 1] = 0
            var = enc >> 1
            a = act[var]
            if a == 0.0:
                pool.append(var)   # may duplicate; _decide skips stale
            else:
                heappush(heap, (-a, var))
        del trail[target:]
        del trail_lim[target_level:]
        self.qhead = target

    # -- unit propagation ---------------------------------------------------

    def _propagate(self):
        """Exhaust the propagation queue.

        Returns ``None``, a conflicting cref (int), or a 2-tuple of
        encoded literals for a conflicting binary clause.  This is the
        innermost loop of every formal query: everything it touches is a
        local binding over a flat list, and satisfied clauses are skipped
        on their blocking literal without reading the arena at all.
        """
        val = self.val
        bins = self.bins
        watches = self.watches
        lits = self.lits
        c_off = self.c_off
        c_len = self.c_len
        level = self.level
        reason = self.reason
        saved = self.saved
        trail = self.trail
        lvl = len(self.trail_lim)
        qhead = self.qhead
        start = ntrail = len(trail)
        while qhead < ntrail:
            p = trail[qhead]
            qhead += 1
            f = p ^ 1  # the literal just falsified
            bl = bins[f]
            if bl:
                for q in bl:
                    v = val[q]
                    if v < 0:
                        self.qhead = qhead
                        self.stats.propagations += len(trail) - start
                        return (f, q)
                    if v == 0:
                        val[q] = 1
                        val[q ^ 1] = -1
                        var = q >> 1
                        level[var] = lvl
                        reason[var] = -2 - f
                        saved[var] = q & 1
                        trail.append(q)
                        ntrail += 1
            wl = watches[f]
            if not wl:
                continue
            i = j = 0
            n = len(wl)
            while i < n:
                blocker = wl[i + 1]
                if val[blocker] > 0:
                    wl[j] = wl[i]
                    wl[j + 1] = blocker
                    i += 2
                    j += 2
                    continue
                cref = wl[i]
                i += 2
                ln = c_len[cref]
                if ln == 0:
                    continue  # reduced away: drop the watcher lazily
                off = c_off[cref]
                first = lits[off]
                if first == f:
                    first = lits[off + 1]
                    lits[off] = first
                    lits[off + 1] = f
                if val[first] > 0:
                    wl[j] = cref
                    wl[j + 1] = first
                    j += 2
                    continue
                end = off + ln
                k = off + 2
                while k < end:
                    lk = lits[k]
                    if val[lk] >= 0:
                        lits[off + 1] = lk
                        lits[k] = f
                        wo = watches[lk]
                        wo.append(cref)
                        wo.append(first)
                        break
                    k += 1
                else:
                    wl[j] = cref
                    wl[j + 1] = first
                    j += 2
                    if val[first] < 0:
                        wl[j:] = wl[i:]  # keep the unvisited tail watched
                        self.qhead = qhead
                        self.stats.propagations += len(trail) - start
                        return cref
                    val[first] = 1
                    val[first ^ 1] = -1
                    var = first >> 1
                    level[var] = lvl
                    reason[var] = cref
                    saved[var] = first & 1
                    trail.append(first)
                    ntrail += 1
            del wl[j:]
        self.qhead = qhead
        self.stats.propagations += ntrail - start
        return None

    # -- conflict analysis (first UIP) --------------------------------------

    def _rescale(self) -> None:
        act = self.activity
        for var in range(1, self.num_vars + 1):
            act[var] *= 1e-100
        self.var_inc *= 1e-100
        # Every queued heap entry now carries a stale activity; rebuild
        # them against the rescaled values (rare: once per 1e100 bumps).
        entries = {var for _, var in self.heap}
        self.heap = [(-act[var], var) for var in entries]
        heapify(self.heap)

    def _analyze(self, conflict) -> tuple[list[int], int, int]:
        """Derive the first-UIP learned clause from ``conflict``.

        Returns ``(learned, back_level, lbd)`` with ``learned`` in encoded
        literals, the UIP at index 0 and (when present) the assertion-level
        watch at index 1.  The clause is minimized before it is returned:
        any literal whose reason clause is subsumed by the rest of the
        learned clause (plus root-level falsehoods) resolves away.

        Activity bumps are applied inline against the preallocated
        ``seen`` buffer; heap positions are repaired once per conflict
        rather than per bump.
        """
        lits = self.lits
        c_off = self.c_off
        c_len = self.c_len
        seen = self.seen
        level = self.level
        reason = self.reason
        act = self.activity
        var_inc = self.var_inc
        trail = self.trail
        current = len(self.trail_lim)
        learned: list[int] = [0]
        counter = 0
        index = len(trail)
        p = 0  # encoded literals are >= 2, so 0 means "conflict clause"
        if type(conflict) is int:
            off = c_off[conflict]
            reason_lits = lits[off:off + c_len[conflict]]
        else:
            reason_lits = conflict
        while True:
            for q in reason_lits:
                if q == p:
                    continue
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = 1
                    # Bumped variables are on the trail (assigned), so no
                    # heap entry needs repair — _cancel_until pushes the
                    # fresh activity when they unassign.
                    act[var] += var_inc
                    if act[var] > 1e100:
                        self._rescale()
                        var_inc = self.var_inc
                    if level[var] >= current:
                        counter += 1
                    else:
                        learned.append(q)
            while True:
                index -= 1
                p = trail[index]
                if seen[p >> 1]:
                    break
            var = p >> 1
            seen[var] = 0
            counter -= 1
            if counter == 0:
                break
            r = reason[var]
            if r >= 0:
                off = c_off[r]
                reason_lits = lits[off:off + c_len[r]]
            else:
                reason_lits = (-2 - r,)
        learned[0] = p ^ 1
        # Minimize: a literal q is redundant when every other literal of
        # its reason clause is already in the learned clause (``seen``) or
        # false at the root — resolving on q then changes nothing.
        if len(learned) > 2:
            kept = [learned[0]]
            for q in learned[1:]:
                var = q >> 1
                r = reason[var]
                if r == -1:
                    kept.append(q)
                elif r >= 0:
                    off = c_off[r]
                    for idx in range(off, off + c_len[r]):
                        v2 = lits[idx] >> 1
                        if v2 != var and not seen[v2] and level[v2] > 0:
                            kept.append(q)
                            break
                else:
                    v2 = (-2 - r) >> 1
                    if not seen[v2] and level[v2] > 0:
                        kept.append(q)
            for q in learned[1:]:
                seen[q >> 1] = 0
            learned = kept
        else:
            for q in learned[1:]:
                seen[q >> 1] = 0
        if len(learned) == 1:
            return learned, 0, 1
        best = 1
        best_level = level[learned[1] >> 1]
        for i in range(2, len(learned)):
            lv = level[learned[i] >> 1]
            if lv > best_level:
                best = i
                best_level = lv
        learned[1], learned[best] = learned[best], learned[1]
        lbd = len({level[q >> 1] for q in learned})
        return learned, best_level, lbd

    # -- learned-clause database reduction ----------------------------------

    def _locked(self, cref: int) -> bool:
        """True when ``cref`` is the reason of a current-trail assignment.

        The implied literal of a reason clause always sits at the clause's
        first arena slot (propagation swaps it there when assigning and
        never displaces a true first literal), so one lookup suffices.
        """
        first = self.lits[self.c_off[cref]]
        return self.val[first] > 0 and self.reason[first >> 1] == cref

    def _reduce_db(self) -> None:
        """Drop the worst half of the reducible learned clauses.

        Glue clauses (LBD <= 2) and clauses locked as reasons of the
        current trail are always kept; the rest are ranked by (LBD, size)
        and the high half is marked dead — watchers drop lazily during
        propagation, and the arena is compacted once enough of it is dead.
        """
        c_len = self.c_len
        c_lbd = self.c_lbd
        keep: list[int] = []
        cand: list[int] = []
        for cref in self.learnts:
            if c_lbd[cref] <= _GLUE_LBD or self._locked(cref):
                keep.append(cref)
            else:
                cand.append(cref)
        cand.sort(key=lambda c: (c_lbd[c], c_len[c]))
        half = len(cand) // 2
        proof = self._proof
        lits = self.lits
        c_off = self.c_off
        for cref in cand[half:]:
            if proof is not None:
                off = c_off[cref]
                proof.delete([-(q >> 1) if q & 1 else q >> 1
                              for q in lits[off:off + c_len[cref]]])
            self.wasted += c_len[cref]
            c_len[cref] = 0
        self.stats.reduced_clauses += len(cand) - half
        self.learnts = keep + cand[:half]
        self.max_learnts = int(self.max_learnts * 1.2) + 64
        if self.wasted * 2 > len(self.lits):
            self._gc_arena()

    def _gc_arena(self) -> None:
        """Compact the literal arena, squeezing out dead clauses.

        Crefs are stable (only offsets move), so watcher lists and reasons
        stay valid — dead crefs keep length 0 and are skipped lazily.
        """
        old = self.lits
        new = array("i")
        c_off = self.c_off
        c_len = self.c_len
        for cref in range(len(c_off)):
            n = c_len[cref]
            if n:
                off = c_off[cref]
                c_off[cref] = len(new)
                new.extend(old[off:off + n])
        self.lits = new
        self.wasted = 0
        self.stats.gc_runs += 1

    # -- search -------------------------------------------------------------

    def _decide(self) -> bool:
        val = self.val
        act = self.activity
        heap = self.heap
        while heap:
            na, var = heappop(heap)
            # Stale entries: the variable was assigned meanwhile, or was
            # bumped and re-queued with a fresher (higher) activity.
            if val[var << 1] == 0 and na == -act[var]:
                self.stats.decisions += 1
                self.trail_lim.append(len(self.trail))
                self._assign((var << 1) | self.saved[var], -1)
                return True
        pool = self.pool
        while pool:
            var = pool.pop()
            # Stale entries: assigned meanwhile, or bumped (the heap owns
            # every nonzero-activity variable).
            if val[var << 1] == 0 and act[var] == 0.0:
                self.stats.decisions += 1
                self.trail_lim.append(len(self.trail))
                self._assign((var << 1) | self.saved[var], -1)
                return True
        return False

    def solve(self, assumptions: Iterable[int] = ()) -> SolverResult:
        """Run the CDCL loop to completion.

        ``assumptions`` are literals forced as the first decision levels; a
        ``False`` verdict then means *UNSAT under these assumptions* (the
        clause set itself may still be satisfiable).  The solver backtracks
        to the root level before returning, so it can be reused: add more
        clauses with :meth:`add_clause` and solve again — learned clauses
        and activities are kept.
        """
        stats = self.stats
        if self._unsat:
            return SolverResult(False, stats=stats)
        val = self.val
        for enc in self._pending_units:
            v = val[enc]
            if v < 0:
                self._unsat = True
                if self._proof is not None:
                    self._proof.add(())
                return SolverResult(False, stats=stats)
            if v == 0:
                self._assign(enc, -1)
        self._pending_units.clear()
        assumps: list[int] = []
        for lit in assumptions:
            var = lit if lit > 0 else -lit
            if var == 0 or var > self.num_vars:
                raise ValueError(f"assumption {lit} references an "
                                 f"unknown var")
            assumps.append((var << 1) | (lit < 0))
        if self.max_learnts == 0:
            self.max_learnts = max(4096, self.num_problem // 2)

        progress_cb = self._progress_cb
        progress_interval = self._progress_interval
        proof = self._proof
        solve_start = time.perf_counter()
        props_start = stats.propagations
        conf_start = stats.conflicts
        restart_idx = 1
        restart_limit = _RESTART_BASE * luby(restart_idx)
        conflicts_here = 0
        trail_lim = self.trail_lim
        while True:
            conflict = self._propagate()
            if conflict is not None:
                stats.conflicts += 1
                conflicts_here += 1
                if not trail_lim:
                    self._unsat = True
                    if proof is not None:
                        proof.add(())
                    return SolverResult(False, stats=stats)
                learned, back_level, lbd = self._analyze(conflict)
                if proof is not None:
                    proof.add([-(q >> 1) if q & 1 else q >> 1
                               for q in learned])
                self._cancel_until(back_level)
                stats.learned_clauses += 1
                stats.learned_literals += len(learned)
                stats.lbd_sum += lbd
                n = len(learned)
                if n == 1:
                    self._assign(learned[0], -1)
                elif n == 2:
                    a, b = learned
                    self.bins[a].append(b)
                    self.bins[b].append(a)
                    self._assign(a, -2 - b)
                else:
                    cref = self._new_clause(learned, lbd)
                    self.learnts.append(cref)
                    self._assign(learned[0], cref)
                self.var_inc /= _VAR_DECAY
                if len(self.learnts) > self.max_learnts:
                    self._reduce_db()
                if progress_cb is not None and \
                        stats.conflicts % progress_interval == 0:
                    progress_cb(self._progress_report(solve_start,
                                                      props_start,
                                                      conf_start))
                continue
            if conflicts_here >= restart_limit and trail_lim:
                stats.restarts += 1
                restart_idx += 1
                restart_limit = _RESTART_BASE * luby(restart_idx)
                conflicts_here = 0
                self._cancel_until(0)
                continue
            # Re-assume any assumptions not currently decided (initially,
            # and again after every backjump or restart below their level).
            assigned = False
            while len(trail_lim) < len(assumps):
                enc = assumps[len(trail_lim)]
                v = val[enc]
                if v < 0:
                    # Conflicts with the root level or an earlier
                    # assumption: UNSAT under these assumptions only.
                    if trail_lim:
                        self._cancel_until(0)
                    return SolverResult(False, stats=stats)
                trail_lim.append(len(self.trail))
                if v == 0:
                    self._assign(enc, -1)
                    assigned = True
                    break
                # Already true: leave an empty decision level placeholder.
            if assigned:
                continue
            if not self._decide():
                model = Model(val[:], self.num_vars)
                if trail_lim:
                    self._cancel_until(0)
                return SolverResult(True, model=model, stats=stats)
