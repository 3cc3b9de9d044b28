"""FRAIG: functionally-reduced AIG construction (SAT sweeping).

Structural hashing merges cones that are *built* the same way; FRAIG
merges cones that *behave* the same way.  The classic recipe (Mishchenko
et al., "FRAIGs: A unifying representation for logic synthesis and
verification"):

1. simulate the AIG under a batch of packed random stimulus
   (:func:`repro.netlist.sim.aig_signatures` — one bitwise op evaluates a
   node across all patterns), giving every node a *signature*;
2. nodes whose signatures match (up to complement) form candidate
   equivalence classes;
3. rebuild the AIG node by node; when a node's class already has a built
   representative, ask the incremental CDCL solver whether the pair can
   differ — **UNSAT merges the node into its representative**, SAT yields
   a distinguishing input assignment that is appended to the stimulus;
4. before asking SAT about a later pair in the same round, simulate the
   source AIG under the round's counterexamples so far (one packed bit
   each, evaluated lazily up to the current node and redone only when a
   new counterexample lands): a pair they already separate is refuted
   without a SAT call (:attr:`FraigStats.sim_refuted`);
5. repeat until a rebuild completes with no refuted candidates — the
   next round's signatures include every counterexample, so the classes
   they split are refined for good.

All SAT queries share one growing cone encoding and one solver instance
(assumption-gated miters per pair), so learned clauses from early checks
keep paying off in later ones.  Merging is always into an
already-rebuilt literal, so the result stays acyclic, and a candidate is
only merged on proof — signatures guide, SAT decides.

Observability: each sweep opens a ``fraig`` span on the current
:mod:`repro.obs` tracer, with one ``fraig.round`` span per
simulate/rebuild iteration (annotated with its candidate-class count and
its ``sat_checks`` / ``proven`` / ``refuted`` / ``sim_refuted`` counts),
a ``fraig.signatures`` span around each packed re-simulation and, when
certifying, one ``fraig.certify`` span per round that merged nodes
around its proof check (annotated with its ``merges``, ``lemmas``,
whether the round's proof checked, and how many lemmas the checker's
lane pass and its sequential check verified); the per-round solver's
search statistics are accumulated into
:attr:`FraigStats.solver` rather than discarded, so callers (CLI
``--json``, the CEC report) see the sweep's total SAT effort.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Optional

from ...obs import attach_solver_progress, get_tracer
from ..aig import _AND, AIG
from ..sat.cnf import CNF, aig_lit_sat, encode_aig_cone
from ..sat.proof import ProofLog, check_drat
from ..sat.solver import Solver, SolverStats
from ..sim import aig_signatures, packed_eval

#: Bound on simulate/rebuild rounds per sweep.  Every returned AIG is
#: correct regardless — merges happen only on UNSAT proofs — later
#: rounds only discover *more* merges.
_MAX_ROUNDS = 16


class FraigStats:
    """Counters from one :func:`fraig_sweep` run."""

    def __init__(self) -> None:
        self.rounds = 0
        self.sat_checks = 0
        self.proven = 0
        self.refuted = 0
        #: Candidate pairs a counterexample found earlier in the same
        #: round already separates: refuted by simulation, never solved.
        self.sim_refuted = 0
        self.ands_before = 0
        self.ands_after = 0
        #: Aggregated search statistics of every per-round solver instance.
        self.solver = SolverStats()
        #: DRAT certification counters (``fraig_sweep(certify=True)``):
        #: merges certified / charged by the independent RUP checker,
        #: total learned clauses logged, and time spent checking.
        self.proofs_checked = 0
        self.proofs_failed = 0
        self.proof_clauses = 0
        self.proof_check_seconds = 0.0
        #: Lemmas the checker verified (the sum of
        #: ``DratCheckResult.checked``): one pass over each round's
        #: proof, so at most ``proof_clauses``.
        self.lemma_checks = 0

    def to_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "sat_checks": self.sat_checks,
            "proven": self.proven,
            "refuted": self.refuted,
            "sim_refuted": self.sim_refuted,
            "ands_before": self.ands_before,
            "ands_after": self.ands_after,
            "solver": self.solver.to_dict(),
            "proofs_checked": self.proofs_checked,
            "proofs_failed": self.proofs_failed,
            "proof_clauses": self.proof_clauses,
            "proof_check_seconds": round(self.proof_check_seconds, 6),
            "lemma_checks": self.lemma_checks,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FraigStats(rounds={self.rounds}, "
                f"sat_checks={self.sat_checks}, proven={self.proven}, "
                f"refuted={self.refuted}, "
                f"sim_refuted={self.sim_refuted}, "
                f"ands={self.ands_before}->{self.ands_after})")


@dataclass
class SweepResult:
    """Everything :func:`fraig_sweep` learned about an AIG.

    ``aig`` is the rebuilt graph with every SAT-proven equivalence
    merged.  ``lit_map`` maps *original* node ids to literals of the
    rebuilt graph — callers tracking literals across the sweep (the CEC
    path tracks its miter root pairs) translate with
    ``lit_map[lit >> 1] ^ (lit & 1)``.  ``words`` holds the final packed
    stimulus per original leaf node id (``num_patterns`` bits each): the
    seeded random patterns plus one distinguishing pattern per refuted
    candidate — simulation evidence callers can reuse (the CEC path
    re-checks its root pairs under them and seeds solver phases from
    them).
    """

    aig: AIG
    lit_map: dict[int, int]
    words: dict[int, int]
    num_patterns: int
    stats: FraigStats

    def map_lit(self, lit: int) -> int:
        """Translate an original-AIG literal into the swept AIG."""
        return self.lit_map[lit >> 1] ^ (lit & 1)


def _certify_round(cnf: CNF, proof: ProofLog, gates: list[int],
                   stats: FraigStats) -> None:
    """Certify one round's merges with one check of its proof.

    ``gates`` holds the gate variable of each merge, whose query logged
    the unit ``¬gate``.  The round's formula is satisfiable, so the
    proof is checked without an empty clause, and every lemma is
    verified once.  A merge is certified iff the round checks and its
    unit is among the lemmas; a round with any lemma that is not RUP
    charges every one of its merges.  Were the units asserted together
    instead, the check would prove only their conjunction.
    """
    start = time.perf_counter()
    with get_tracer().span("fraig.certify", merges=len(gates)) as span:
        verdict = check_drat(cnf, proof, refutation=False)
        span.set(lemmas=verdict.lemmas, round_ok=verdict.ok,
                 lane_checked=verdict.lane_checked,
                 sequential_checked=verdict.sequential_checked)
    certified = 0
    if verdict.ok:
        units = {lits[0] for kind, lits in proof.steps
                 if kind == "a" and len(lits) == 1}
        certified = sum(-gate in units for gate in gates)
    stats.proof_check_seconds += time.perf_counter() - start
    stats.lemma_checks += verdict.checked
    stats.proofs_checked += certified
    stats.proofs_failed += len(gates) - certified


def fraig_sweep(aig: AIG, patterns: int = 64, seed: int = 2022,
                stats: Optional[FraigStats] = None,
                certify: bool = False,
                words: Optional[dict[int, int]] = None,
                signatures=None) -> SweepResult:
    """Rebuild ``aig`` with all SAT-provably-equivalent nodes merged;
    the :class:`SweepResult` holds the rebuilt graph as ``.aig``.

    ``patterns`` is the number of random stimulus patterns packed into the
    initial signatures (counterexamples from refuted candidates are
    appended as extra patterns); ``seed`` seeds them.  At most
    :data:`_MAX_ROUNDS` simulate/rebuild rounds run.  ``words`` (a
    leaf-node-id to packed-stimulus dict holding ``patterns`` bits per
    leaf) replaces the seeded random stimulus, and ``signatures`` —
    valid only alongside ``words`` — must be the per-node packed
    signatures of ``aig`` under exactly that stimulus (what
    :func:`~repro.netlist.sim.aig_signatures` returns); round 1 then
    reuses them instead of resimulating.

    ``certify=True`` logs a DRAT proof per round.  Every UNSAT
    (merge-proving) query adds the unit ``¬gate`` of the literal that
    gated it, unless the solver's last lemma already is that unit, and
    at the end of the round the independent RUP checker verifies every
    lemma of the round's proof once (:func:`_certify_round`; see
    :func:`repro.netlist.sat.proof.check_drat`).  A merge is certified
    iff the round checks and its unit is among the lemmas.  Results
    land in ``stats``: ``proofs_checked`` / ``proofs_failed`` merge
    counts plus total proof clauses, ``lemma_checks`` and check time.
    Merges are only certified, never changed — a rejected merge counts
    in ``proofs_failed`` and the caller decides how loudly to fail.
    """
    if stats is None:
        stats = FraigStats()
    stats.ands_before = aig.num_ands
    tracer = get_tracer()
    rng = random.Random(seed)
    leaves = list(aig.inputs) + list(aig.latches)
    if words is None:
        words = {nid: rng.getrandbits(patterns) for nid in leaves}
        signatures = None
    else:
        words = {nid: words.get(nid, 0) for nid in leaves}
    num_patterns = patterns
    #: Proven equivalences at source level: (rep node, node) -> phase,
    #: meaning ``node == rep ^ phase``.  Survives across rounds so a
    #: re-rebuild never re-solves a settled pair.
    proven: dict[tuple[int, int], int] = {}

    with tracer.span("fraig", ands=aig.num_ands, patterns=patterns,
                     seed=seed) as sweep_span:
        new = aig
        lit_map: dict[int, int] = {
            nid: nid << 1 for nid in range(aig.num_nodes)}
        kinds = aig._kind
        for round_no in range(1, _MAX_ROUNDS + 1):
            stats.rounds += 1
            checks_at = stats.sat_checks
            proven_at = stats.proven
            refuted_at = stats.refuted
            sim_refuted_at = stats.sim_refuted
            round_span = tracer.span("fraig.round", round=round_no,
                                     patterns=num_patterns)
            with round_span:
                mask = (1 << num_patterns) - 1
                if round_no == 1 and signatures is not None:
                    sigs = signatures
                else:
                    with tracer.span("fraig.signatures",
                                     patterns=num_patterns):
                        sigs = aig_signatures(
                            aig,
                            [words[nid] for nid in aig.inputs],
                            [words[nid] for nid in aig.latches],
                            mask,
                        )

                new, lit_map = aig.start_rebuild()
                # Candidate-class representatives keyed by signature
                # normalized to its complement-canonical form; the constant
                # node represents the all-0/all-1 class.
                rep: dict[int, int] = {0: 0}
                phase_of = {0: 0}
                # Lazy incremental solving state over the *new* AIG.
                cnf = CNF()
                solver = Solver(0, ())
                attach_solver_progress(solver, tracer)
                proof = None
                if certify:
                    proof = ProofLog()
                    solver.set_proof(proof)
                # Gate variables of this round's certified merges.
                merges: list[int] = []
                var_map: dict[int, int] = {}
                cex_found = False
                # This round's counterexamples are the stimulus bits from
                # ``base`` up; ``cex_sim`` holds the source AIG simulated
                # under them for nodes up to ``sim_upto`` (None: stale).
                base = num_patterns
                cex_sim: Optional[dict[int, int]] = None
                sim_upto = 0

                for nid in leaves:
                    sig = sigs[nid]
                    key = min(sig, sig ^ mask)
                    rep.setdefault(key, nid)
                    if rep[key] == nid:
                        phase_of[nid] = 1 if sig != key else 0

                for nid in range(1, aig.num_nodes):
                    if not aig.is_and(nid):
                        continue
                    f0, f1 = aig.fanins(nid)
                    built = new.aig_and(lit_map[f0 >> 1] ^ (f0 & 1),
                                        lit_map[f1 >> 1] ^ (f1 & 1))
                    lit_map[nid] = built
                    sig = sigs[nid]
                    key = min(sig, sig ^ mask)
                    phase = 1 if sig != key else 0
                    r = rep.get(key)
                    if r is None:
                        rep[key] = nid
                        phase_of[nid] = phase
                        continue
                    if r == nid:
                        continue
                    # Both node and rep normalize to the same canonical
                    # signature; the phases say how each relates to it, so
                    # the node's merge target is the rep's literal XOR the
                    # phase difference.
                    delta = phase ^ phase_of[r]
                    candidate = lit_map[r] ^ delta
                    if built == candidate:
                        continue  # hashing already merged them
                    cached = proven.get((r, nid))
                    if cached is not None:
                        lit_map[nid] = lit_map[r] ^ cached
                        continue
                    if num_patterns > base:
                        # A counterexample found earlier this round may
                        # already separate the pair: no SAT call needed.
                        cex_mask = (1 << (num_patterns - base)) - 1
                        if cex_sim is None:
                            cex_sim = {leaf: words[leaf] >> base
                                       for leaf in leaves}
                            cex_sim[0] = 0
                            sim_upto = 0
                        if sim_upto < nid:
                            packed_eval(aig, cex_sim, cex_mask,
                                        (n for n in range(sim_upto + 1,
                                                          nid + 1)
                                         if kinds[n] == _AND))
                            sim_upto = nid
                        if cex_sim[nid] ^ cex_sim[r] != \
                                (cex_mask if delta else 0):
                            stats.sim_refuted += 1
                            continue
                    # SAT-check built != candidate on the new AIG, gated by
                    # a fresh assumption literal so refuted pairs don't
                    # pollute later queries.
                    before_clauses = len(cnf.clauses)
                    encode_aig_cone(cnf, new, (built, candidate),
                                    var_map=var_map)
                    a = aig_lit_sat(var_map, built)
                    b = aig_lit_sat(var_map, candidate)
                    gate_var = cnf.new_var()
                    cnf.add_clause(-gate_var, a, b)
                    cnf.add_clause(-gate_var, -a, -b)
                    solver.ensure_vars(cnf.num_vars)
                    # A list slice copies only references and indexes
                    # straight to the tail — islice would re-walk the
                    # ever-growing prefix on every query, quadratic over
                    # the sweep.
                    solver.add_clauses(cnf.clauses[before_clauses:])
                    stats.sat_checks += 1
                    conflicts_before = solver.stats.conflicts
                    result = solver.solve(assumptions=(gate_var,))
                    if not result.satisfiable:
                        stats.proven += 1
                        if tracer.enabled:
                            tracer.instant(
                                "fraig.proof",
                                conflicts=(solver.stats.conflicts
                                           - conflicts_before))
                        if proof is not None:
                            # The solver's final conflict under the one
                            # assumption makes ``¬gate_var`` RUP, and
                            # its last lemma is often that very unit.
                            if proof.steps[-1:] != [("a", (-gate_var,))]:
                                proof.add((-gate_var,))
                            merges.append(gate_var)
                        proven[(r, nid)] = delta
                        lit_map[nid] = candidate
                        continue
                    # Refuted: the model distinguishes the pair — append it
                    # to the stimulus so the rest of this round and the
                    # next round's signatures split every class it refutes.
                    stats.refuted += 1
                    cex_found = True
                    assert result.model is not None
                    for old_leaf in leaves:
                        var = var_map.get(lit_map[old_leaf] >> 1)
                        bit = int(result.model.get(var, False)) if var else 0
                        words[old_leaf] |= bit << num_patterns
                    num_patterns += 1
                    cex_sim = None

                aig.finish_rebuild(new, lit_map)
                stats.solver.accumulate(solver.stats)
                if proof is not None:
                    if merges:
                        _certify_round(cnf, proof, merges, stats)
                    stats.proof_clauses += proof.num_added
                round_span.set(classes=len(rep),
                               sat_checks=stats.sat_checks - checks_at,
                               proven=stats.proven - proven_at,
                               refuted=stats.refuted - refuted_at,
                               sim_refuted=(stats.sim_refuted
                                            - sim_refuted_at))
            if not cex_found:
                break
        # Count the observable cone, not the unique table: every proven
        # merge leaves its superseded node orphaned in the table.
        stats.ands_after = sum(
            1 for nid in new.cone(new.and_roots()) if new.is_and(nid))
        sweep_span.set(rounds=stats.rounds, sat_checks=stats.sat_checks,
                       proven=stats.proven, refuted=stats.refuted,
                       sim_refuted=stats.sim_refuted,
                       ands_after=stats.ands_after)
    return SweepResult(new, lit_map, words, num_patterns, stats)

