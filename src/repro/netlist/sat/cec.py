"""SAT-based combinational equivalence checking of two netlists.

:func:`check_equivalence` builds a *miter*: every matched root pair —
primary outputs by name plus flip-flop *data* pins by register name — is
XOR-ed over shared leaf variables (primary inputs by name, flip-flop
outputs by register name), and the disjunction of the XORs is asserted.
The formula is satisfiable exactly when some input/state assignment makes
the designs disagree, so **UNSAT proves equivalence**.

The miter is built at AIG level: both netlists are lowered into *one*
shared hash-consed :class:`~repro.netlist.aig.AIG` over common
input/latch nodes, so any logic the two designs share merges in the
unique table **before the solver ever sees it** — root pairs that hash to
the same literal are proven structurally, for free.

The pairs hashing cannot settle run through a staged pipeline that tries
progressively heavier artillery, in order:

1. **simulation** — the shared miter AIG is simulated under a batch of
   packed patterns (:func:`~repro.netlist.sim.aig_signatures`); any
   pattern on which a root pair disagrees *is* a complete
   counterexample, extracted and replayed without a single solver
   conflict.  When the miter is small enough that its packed signatures
   over *all* ``2**n`` leaf assignments fit :data:`_EXHAUSTIVE_BITS`,
   the patterns are exactly those assignments
   (:func:`~repro.netlist.sim.elementary_words`): no disagreement then
   proves every root pair (``sim_proven``) and the later stages never
   run.  When DRAT evidence is requested the budget is the smaller
   :data:`_CUBE_BITS`, and the verdict comes with a *cube-tree* proof:
   the differing cones are encoded, and one RUP lemma per node of the
   binary tree over the leaf variables refutes every assignment
   (:func:`_cube_tree`).  Otherwise the patterns are seeded random and
   the stage can only refute.
2. **SAT sweeping of the miter** (FRAIG-style, shared with the optimizer
   via :func:`~repro.netlist.opt.fraig.fraig_sweep`) — internal
   points the two designs implement identically but with different
   structure merge under incremental, assumption-gated SAT; root pairs
   whose cones collapse onto the same literal are *sweep-proven* and
   skip the top-level solve.  Distinguishing patterns found by refuted
   sweep candidates are re-checked against the surviving root pairs.
   The sweep runs only on large miters dense with simulation candidate
   merges (:func:`_sweep_worthwhile`).
3. **structure-aware encoding** — the surviving cones are encoded with
   XOR/MUX/majority pattern matching
   (:func:`~repro.netlist.sat.cnf.encode_aig_cone`) into the CNF the
   solver receives as-is.
4. **guided CDCL** — the solver's saved phases are seeded from the
   simulation signatures' majority votes and its initial VSIDS
   activities from cone fanout counts, pointing the search at the
   miter's hot variables from decision one.

Matching registers by name makes this a register-correspondence sequential
check: optimization passes preserve flip-flop names, so proving every
matched next-state function and every output function equal proves the
machines equal from any matched state.  Registers swept away by the
optimizer are allowed — their Q nets stay as free variables of the original
netlist only, so a register that still mattered would show up as an output
or next-state disagreement.

A SAT verdict is never returned raw: the model is replayed through the
compiled simulation engine on both netlists (:func:`replay_counterexample`)
to confirm the disagreement and name the differing signals, guarding
against encoder bugs.  Certification survives every stage: an exhaustive
simulation verdict is certified by its cube-tree proof, sweep merges by
one check of each sweep round's proof inside the sweep, and a solver
UNSAT verdict by its DRAT proof, checked against the encoded CNF.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional

from ...obs import attach_solver_progress, get_tracer
from ..aig import AIG, insert_netlist
from ..logic import Netlist
from ..sim import (_split_bit_name, aig_signatures, elementary_words,
                   simulate_compiled)
from .cnf import CNF, aig_lit_sat, encode_aig_cone
from .proof import ProofLog, check_drat
from .solver import Solver, SolverStats

#: The miter sweep runs only on differing cones at least this many AND
#: nodes large — smaller miters solve faster than they sweep.
_SWEEP_MIN_ANDS = 256
#: ...and only when at least this fraction of those AND nodes lands in a
#: multi-member candidate class under the stage-1 simulation signatures.
#: Sweeping pays when the miter is full of internal points the designs
#: compute identically (same-origin designs after optimization); on
#: structure-free miters (cross-implementation arithmetic) every sweep
#: query is a hard monolithic proof and one guided top-level solve wins.
_SWEEP_MIN_DENSITY = 0.2
#: Stage 1 simulates every leaf assignment instead of random patterns
#: when the miter's packed signatures fit this many bits:
#: ``aig.num_nodes << len(leaves)`` (4 MiB of signature words).
_EXHAUSTIVE_BITS = 1 << 25
#: The same measure's budget when DRAT evidence is requested: the
#: exhaustive verdict then also costs a cube-tree proof of about
#: ``1.5 * 2**n`` lemmas, checked by one bit-parallel propagation pass
#: over the miter CNF with one lane per lemma, whatever the miter's
#: hardness.  It admits the W<=5 multiplier miters (W=5: 333,824 bits),
#: which the cube proves about 20x faster than the solver, and keeps
#: out the W=5 ALU vs its optimized netlist (2,359,296 bits), which the
#: solver proves with no search 20x faster than the cube.
_CUBE_BITS = 1 << 19
#: RNG seed of stage 1's random stimulus (when it cannot be exhaustive),
#: which the miter sweep reuses: verdicts are deterministic.
_SIM_SEED = 2022


class CECError(Exception):
    """Raised when two netlists cannot be compared (interface mismatch)."""


@dataclass
class Counterexample:
    """A distinguishing assignment found by the solver, already replayed.

    ``inputs`` maps primary-input bit names to 0/1 and ``state`` maps
    flip-flop names to their current value; ``diff`` lists the
    ``(kind, name, before_value, after_value)`` disagreements observed when
    simulating both netlists under that assignment (kind is ``"output"`` or
    ``"next_state"``).
    """

    inputs: dict[str, int]
    state: dict[str, int]
    diff: list[tuple[str, str, int, int]]

    def packed_inputs(self) -> dict[str, int]:
        """Pack the per-bit input assignment into word-level port values,
        ready for :func:`repro.netlist.simulate_vectors` or
        :meth:`repro.netlist.Interpreter.step`."""
        return _pack_words(self.inputs)

    def packed_state(self) -> dict[str, int]:
        """Pack the per-bit register assignment into word-level values keyed
        by dotted hierarchical names, ready for
        :meth:`repro.netlist.Interpreter.load_state`."""
        return _pack_words(self.state)


def _pack_words(bits: dict[str, int]) -> dict[str, int]:
    words: dict[str, int] = {}
    for name, bit in bits.items():
        base, index = _split_bit_name(name)
        words[base] = words.get(base, 0) | (int(bit) << index)
    return words


@dataclass
class EquivalenceResult:
    """Verdict of :func:`check_equivalence`."""

    equivalent: bool
    counterexample: Optional[Counterexample] = None
    solver_stats: SolverStats = field(default_factory=SolverStats)
    #: Number of (output + next-state) functions compared by the miter.
    compared: int = 0
    #: Wall time spent building the miter (lowering, simulation checks,
    #: Tseitin encoding, cube-tree proof) vs solving it.
    encode_seconds: float = 0.0
    solve_seconds: float = 0.0
    #: Size of the CNF handed to the solver, or of the CNF a cube-tree
    #: proof refutes.
    cnf_vars: int = 0
    cnf_clauses: int = 0
    #: Root pairs proven equal structurally (identical AIG literals in the
    #: shared unique table) — they never reach the solver.
    hash_proven: int = 0
    #: DRAT certification (``certify=True`` / ``proof=``).  ``proof_checked``
    #: is True/False when UNSAT evidence was run through the independent
    #: RUP checker (the cube-tree or top-level proof, the sweep's
    #: round proofs, or both), and None when there was nothing to
    #: check: certification off, a SAT verdict (certified by the
    #: replayed counterexample instead), or a fully hash-proven miter
    #: that never reached the solver.
    proof_checked: Optional[bool] = None
    proof_clauses: int = 0
    proof_check_seconds: float = 0.0
    #: Lemmas the checker verified, summed over every check it ran.
    lemma_checks: int = 0
    #: Root pairs whose cones the miter sweep merged (SAT-proven inside
    #: the shared AIG), and the wall time the sweep took.
    sweep_proven: int = 0
    sweep_seconds: float = 0.0
    #: Root pairs proven by exhaustive simulation: the miter was small
    #: enough to simulate every leaf assignment, and none disagreed.
    #: With DRAT evidence requested, the ``proof_*`` fields describe the
    #: cube-tree proof of the same verdict.
    sim_proven: int = 0
    #: True when the counterexample came from the packed-simulation check
    #: — the solver never ran (``solver_stats`` is all zeros).
    refuted_by_simulation: bool = False

    def __bool__(self) -> bool:
        return self.equivalent

    def to_report(self, certify: bool = False,
                  include_proof: Optional[bool] = None) -> dict:
        """The verdict as the JSON-ready ``equivalence`` report dict.

        One shape shared by every frontend (CLI ``--json`` and the
        ``repro.server`` daemon), so daemon and one-shot runs are
        field-for-field comparable.  ``include_proof`` defaults to
        ``certify``; pass True to include the proof block for an
        uncertified-but-logged run.
        """
        report = {
            "equivalent": self.equivalent,
            "compared": self.compared,
            "hash_proven": self.hash_proven,
            "cnf_vars": self.cnf_vars,
            "cnf_clauses": self.cnf_clauses,
            "encode_seconds": self.encode_seconds,
            "solve_seconds": self.solve_seconds,
            "solver": self.solver_stats.to_dict(),
            "sweep_proven": self.sweep_proven,
            "sweep_seconds": self.sweep_seconds,
            "sim_proven": self.sim_proven,
            "refuted_by_simulation": self.refuted_by_simulation,
        }
        if include_proof is None:
            include_proof = certify
        if include_proof:
            report["proof"] = {
                "certified": bool(certify),
                "checked": self.proof_checked,
                "clauses": self.proof_clauses,
                "check_seconds": self.proof_check_seconds,
                "lemma_checks": self.lemma_checks,
            }
        if not self.equivalent and self.counterexample is not None:
            report["counterexample"] = {
                "inputs": self.counterexample.packed_inputs(),
                "state": self.counterexample.packed_state(),
                "diff": self.counterexample.diff,
            }
        return report


def _interface(netlist: Netlist) -> tuple[dict[str, int], dict[str, int],
                                          dict[str, int]]:
    """(input name -> net, output name -> net, register name -> gid)."""
    inputs = dict(zip(netlist.input_names(), netlist.inputs))
    outputs = dict(netlist.outputs)
    return inputs, outputs, netlist.register_map()


def _check_interfaces(b_in: dict, a_in: dict,
                      b_out: dict, a_out: dict) -> None:
    for kind, b_names, a_names in (("inputs", set(b_in), set(a_in)),
                                   ("outputs", set(b_out), set(a_out))):
        if b_names != a_names:
            raise CECError(
                f"primary {kind} differ (only in before: "
                f"{sorted(b_names - a_names)}, only in after: "
                f"{sorted(a_names - b_names)})"
            )


def _assert_disagreement(cnf: CNF,
                         pairs: list[tuple[int, int]]) -> None:
    """Assert that at least one ``(b_var, a_var)`` pair differs."""
    disagree: list[int] = []
    for b_var, a_var in pairs:
        z = cnf.new_var()
        cnf.add_clause(-z, b_var, a_var)
        cnf.add_clause(-z, -b_var, -a_var)
        cnf.add_clause(z, -b_var, a_var)
        cnf.add_clause(z, b_var, -a_var)
        disagree.append(z)
    cnf.add_clause(*disagree)


def _lower_miter(before: Netlist, after: Netlist
                 ) -> tuple[AIG, dict[str, int], dict[str, int],
                            list[tuple[str, str, int, int]]]:
    """Lower both netlists into one shared hash-consed miter AIG.

    Returns ``(aig, pi_lits, latch_lits, named_pairs)``: the shared graph,
    the input/latch literal per leaf name, and one
    ``(kind, name, before_lit, after_lit)`` entry per matched root pair.
    Pairs whose literals are already equal merged in the unique table.
    """
    b_in, b_out, b_regs = _interface(before)
    a_in, a_out, a_regs = _interface(after)
    _check_interfaces(b_in, a_in, b_out, a_out)
    tracer = get_tracer()

    aig = AIG(name=f"miter:{before.name}")
    pi_lits = {name: aig.add_input(name) for name in sorted(b_in)}
    latch_lits = {
        name: aig.add_latch(name)
        for name in sorted(set(b_regs) | set(a_regs))
    }
    shared_regs = sorted(set(b_regs) & set(a_regs))
    maps = []
    for netlist, inputs, regs in ((before, b_in, b_regs),
                                  (after, a_in, a_regs)):
        input_lits = {gid: pi_lits[name] for name, gid in inputs.items()}
        reg_lits = {gid: latch_lits[name] for name, gid in regs.items()}
        with tracer.span("cec.lower", design=netlist.name,
                         gates=netlist.num_gates):
            maps.append(insert_netlist(aig, netlist, input_lits, reg_lits))
    b_map, a_map = maps

    named_pairs: list[tuple[str, str, int, int]] = []
    for name in sorted(b_out):
        named_pairs.append(("output", name,
                            b_map[b_out[name]], a_map[a_out[name]]))
    for name in shared_regs:
        named_pairs.append(
            ("next_state", name,
             b_map[before._fanins[b_regs[name]][0]],
             a_map[after._fanins[a_regs[name]][0]]))
    return aig, pi_lits, latch_lits, named_pairs


def _encode_pairs(result: EquivalenceResult, aig: AIG,
                  pairs: list[tuple[int, int]],
                  pi_lits: dict[str, int], latch_lits: dict[str, int]
                  ) -> tuple[CNF, dict[int, int], dict[str, int],
                             dict[str, int]]:
    """Encode the cones of the differing pairs into a fresh CNF and
    assert the miter output, in a ``cec.encode`` span.

    Records the CNF size and the time taken in ``result``.  Returns
    ``(cnf, var_map, input_vars, state_vars)``.  Leaves outside every
    encoded cone never get a variable: they cannot influence the verdict
    and default to 0 in counterexamples.
    """
    start = time.perf_counter()
    cnf = CNF()
    with get_tracer().span("cec.encode", pairs=len(pairs)) as span:
        roots = [lit for pair in pairs for lit in pair]
        var_map = encode_aig_cone(cnf, aig, roots)
        _assert_disagreement(cnf, [
            (aig_lit_sat(var_map, b), aig_lit_sat(var_map, a))
            for b, a in pairs
        ])
        input_vars, state_vars = (
            {name: var_map[lit >> 1] for name, lit in lits.items()
             if lit >> 1 in var_map}
            for lits in (pi_lits, latch_lits))
        span.set(cnf_vars=cnf.num_vars, cnf_clauses=len(cnf.clauses))
    result.cnf_vars = cnf.num_vars
    result.cnf_clauses = len(cnf.clauses)
    result.encode_seconds += time.perf_counter() - start
    return cnf, var_map, input_vars, state_vars


def _pattern(words: dict[int, int], lits: dict[str, int],
             bit: int) -> dict[str, int]:
    """Per-name values of stimulus pattern ``bit`` at leaf literals."""
    return {name: (words[lit >> 1] >> bit) & 1 for name, lit in lits.items()}


def _simcheck(result: EquivalenceResult, aig: AIG, words: dict[int, int],
              pi_lits: dict[str, int], latch_lits: dict[str, int],
              num_patterns: int, pairs: list[tuple[int, int]],
              **span_args) -> tuple[tuple[int, ...], Optional[tuple]]:
    """Simulate ``aig`` (the miter or a rebuild of it, whose leaves
    follow ``pi_lits`` / ``latch_lits`` in order) under ``num_patterns``
    packed stimulus bits per miter leaf and compare the root ``pairs``,
    timed as encoding.  Returns the node signatures and the named
    ``(inputs, state)`` of the first differing pattern, or None."""
    mask = (1 << num_patterns) - 1
    start = time.perf_counter()
    with get_tracer().span("cec.simcheck", patterns=num_patterns,
                           pairs=len(pairs), **span_args) as span:
        sigs = aig_signatures(
            aig,
            [words[lit >> 1] for lit in pi_lits.values()],
            [words[lit >> 1] for lit in latch_lits.values()],
            mask,
        )
        diff = 0
        for b, a in pairs:
            # Edge polarities: complement the XOR when exactly one is set.
            diff = (sigs[b >> 1] ^ sigs[a >> 1] ^
                    (mask if (a ^ b) & 1 else 0)) & mask
            if diff:
                break
        span.set(refuted=diff != 0)
    result.encode_seconds += time.perf_counter() - start
    if not diff:
        return sigs, None
    bit = (diff & -diff).bit_length() - 1
    return sigs, (_pattern(words, pi_lits, bit),
                  _pattern(words, latch_lits, bit))


def _refute(result: EquivalenceResult, before: Netlist, after: Netlist,
            inputs: dict[str, int], state: dict[str, int],
            by_simulation: bool) -> EquivalenceResult:
    """Replay a distinguishing assignment — a simulation pattern or a
    solver model — into ``result`` as a confirmed :class:`Counterexample`.

    Raises :class:`CECError` when both netlists agree under it: the miter
    disagreed where the designs do not, an AIG lowering bug (simulation)
    or a CNF encoding bug (solver).
    """
    with get_tracer().span("cec.replay"):
        diffs = replay_counterexample(before, after, inputs, state)
    if not diffs:
        raise CECError(
            "miter simulation disagrees but netlist replay does not "
            "(AIG lowering bug)" if by_simulation else
            "solver returned a model but simulation shows no "
            "disagreement (CNF encoding bug)"
        )
    result.equivalent = False
    result.refuted_by_simulation = by_simulation
    result.counterexample = Counterexample(inputs=inputs, state=state,
                                           diff=diffs)
    return result


def _sweep_worthwhile(aig: AIG, sigs, num_patterns: int,
                      pairs: list[tuple[int, int]]) -> bool:
    """Whether to sweep the miter: the size and candidate-merge density
    of the differing cone, measured on the signatures stage 1 already
    computed."""
    mask = (1 << num_patterns) - 1
    roots = [lit for pair in pairs for lit in pair]
    cone_ands = [nid for nid in aig.cone(roots) if aig.is_and(nid)]
    if len(cone_ands) < _SWEEP_MIN_ANDS:
        return False
    seen: set[int] = set()
    candidates = 0
    for nid in cone_ands:
        key = min(sigs[nid], sigs[nid] ^ mask)
        if key in seen:
            candidates += 1
        else:
            seen.add(key)
    return candidates >= _SWEEP_MIN_DENSITY * len(cone_ands)


def _seed_solver(solver: Solver, var_map: dict[int, int], aig: AIG,
                 sigs, num_patterns: int) -> None:
    """Seed saved phases from simulation majority votes and initial VSIDS
    activity from cone fanout counts.

    A variable's seeded phase is the value its AIG node took on the
    majority of the stimulus patterns — near-equivalent root pairs make
    most of the miter agree with simulation on most assignments, so the
    search starts in the neighborhood the packed patterns already
    explored.  Activity is seeded proportional to each node's fanout
    inside the encoded cones (capped at half an initial bump), so
    heavily shared signals are decided early, like the fanout-weighted
    variable orders of circuit-aware SAT solvers.
    """
    mask = (1 << num_patterns) - 1
    solver.seed_phases({
        var: bin(sigs[nid] & mask).count("1") * 2 >= num_patterns
        for nid, var in var_map.items()
    })
    fanout: dict[int, int] = {}
    for nid in var_map:
        if aig.is_and(nid):
            for fanin in aig.fanins(nid):
                node = fanin >> 1
                fanout[node] = fanout.get(node, 0) + 1
    top = max(fanout.values(), default=0)
    if top:
        solver.seed_activity({
            var_map[nid]: 0.5 * count / top
            for nid, count in fanout.items() if nid in var_map
        })


def replay_counterexample(before: Netlist, after: Netlist,
                          inputs: dict[str, int], state: dict[str, int]
                          ) -> list[tuple[str, str, int, int]]:
    """Simulate both netlists under a candidate distinguishing assignment.

    Replay goes through the compiled engine
    (:func:`repro.netlist.sim.simulate_compiled`), whose per-netlist
    compilation is cached — repeated refutations of the same pair replay at
    straight-line speed.  Returns the observed
    ``(kind, name, before_value, after_value)`` disagreements over primary
    outputs and matched next-state functions (empty when the netlists
    actually agree on this assignment).
    """
    diffs: list[tuple[str, str, int, int]] = []
    results = []
    for netlist in (before, after):
        regs = netlist.register_map()
        net_state = {gid: state.get(name, 0) for name, gid in regs.items()}
        outputs, next_state = simulate_compiled(netlist, inputs, net_state)
        named_next = {
            name: next_state[gid] for name, gid in regs.items()
        }
        results.append((outputs, named_next))
    (b_outputs, b_next), (a_outputs, a_next) = results
    for name in sorted(b_outputs):
        if b_outputs[name] != a_outputs.get(name):
            diffs.append(("output", name, b_outputs[name],
                          a_outputs.get(name, 0)))
    for name in sorted(set(b_next) & set(a_next)):
        if b_next[name] != a_next[name]:
            diffs.append(("next_state", name, b_next[name], a_next[name]))
    return diffs


def _cube_tree(proof: ProofLog, leaves: list[int]) -> None:
    """Write a cube-tree refutation over the CNF ``leaves`` into ``proof``.

    Every node of the binary tree over the leaf variables (in order) is
    one lemma, the negation of its partial assignment (cube); the root's
    lemma is the empty clause.  A parent is added after its children,
    which are then deleted, so the checker's active set stays one
    root-to-node path wide.  Each lemma is RUP: under a *full* leaf cube
    the miter CNF propagates every gate, and since simulation showed the
    designs agree there, the asserted disagreement clause conflicts; an
    inner cube propagates to the conflicts of its two children's lemmas.
    Under each depth-``n-1`` node only one leaf lemma is emitted: it
    forces the last leaf, so propagation refutes the parent's other leaf
    cube without its lemma.  That is ``2**n + 2**(n-1) - 1`` lemmas.
    """
    add, delete = proof.add, proof.delete
    last = len(leaves) - 1

    def refute(lemma: tuple[int, ...]) -> None:
        depth = len(lemma)
        if depth < last:
            var = leaves[depth]
            children = ((-var,) + lemma, (var,) + lemma)
            for child in children:
                refute(child)
            add(lemma)
            for child in children:
                delete(child)
        elif depth == last:
            leaf = (-leaves[depth],) + lemma
            add(leaf)
            add(lemma)
            delete(leaf)
        else:                        # no leaves: the root alone
            add(lemma)

    refute(())


def _certify(result: EquivalenceResult, cnf: CNF, proof: ProofLog) -> None:
    """Check ``proof`` against ``cnf`` in a ``cec.certify`` span that
    records which engine verified the lemmas, and record the verdict,
    the lemmas checked and the time taken in ``result``."""
    start = time.perf_counter()
    with get_tracer().span("cec.certify", lemmas=proof.num_added) as span:
        verdict = check_drat(cnf, proof)
        span.set(lane_checked=verdict.lane_checked,
                 sequential_checked=verdict.sequential_checked)
    result.proof_checked = verdict.ok
    result.lemma_checks += verdict.checked
    result.proof_check_seconds += time.perf_counter() - start


def _certify_exhaustive(result: EquivalenceResult, aig: AIG,
                        pairs: list[tuple[int, int]],
                        pi_lits: dict[str, int], latch_lits: dict[str, int],
                        *, certify: bool,
                        proof: Optional[ProofLog]) -> None:
    """DRAT evidence for pairs exhaustive simulation proved: encode their
    cones, write a :func:`_cube_tree` proof into ``proof`` (a fresh log
    when None) and, under ``certify``, check it against that CNF."""
    cnf, _, input_vars, state_vars = _encode_pairs(
        result, aig, pairs, pi_lits, latch_lits)
    if proof is None:
        proof = ProofLog()
    leaves = sorted({*input_vars.values(), *state_vars.values()})
    before = proof.num_added
    start = time.perf_counter()
    with get_tracer().span("cec.cube", leaves=len(leaves)) as span:
        _cube_tree(proof, leaves)
        span.set(lemmas=proof.num_added - before)
    result.encode_seconds += time.perf_counter() - start
    result.proof_clauses = proof.num_added
    if certify:
        _certify(result, cnf, proof)


def _solve(result: EquivalenceResult, aig: AIG,
           pairs: list[tuple[int, int]],
           in_lits: dict[str, int], st_lits: dict[str, int],
           sigs, num_patterns: int, *,
           certify: bool, proof: Optional[ProofLog]
           ) -> Optional[tuple[dict[str, int], dict[str, int]]]:
    """Stages 3–4 for the root ``pairs`` of ``aig``: encode, seeded
    solve and DRAT check.

    The counters go straight into ``result``.  Returns the named
    ``(inputs, state)`` assignment of a SAT model, or None on UNSAT.
    ``sigs`` are the packed node signatures of ``aig`` under
    ``num_patterns`` stimulus patterns (None disables phase/activity
    seeding).  ``proof`` is the log to write into; under ``certify`` one
    is created when None, and an UNSAT verdict is checked against the
    encoded CNF.
    """
    tracer = get_tracer()
    cnf, var_map, input_vars, state_vars = _encode_pairs(
        result, aig, pairs, in_lits, st_lits)
    if certify and proof is None:
        proof = ProofLog()
    start = time.perf_counter()
    with tracer.span("cec.solve", cnf_vars=cnf.num_vars,
                     cnf_clauses=len(cnf.clauses)) as solve_span:
        solver = Solver(cnf.num_vars, cnf.clauses)
        if proof is not None:
            solver.set_proof(proof)
        if sigs is not None:
            # Stage 4: point the search where simulation and structure
            # say the action is.
            _seed_solver(solver, var_map, aig, sigs, num_patterns)
        attach_solver_progress(solver, tracer)
        outcome = solver.solve()
        solve_span.set(satisfiable=outcome.satisfiable,
                       conflicts=outcome.stats.conflicts)
    result.solve_seconds = time.perf_counter() - start
    result.solver_stats = outcome.stats
    model = None
    if outcome.satisfiable:
        model = ({name: int(outcome.model[var])
                  for name, var in input_vars.items()},
                 {name: int(outcome.model[var])
                  for name, var in state_vars.items()})

    if proof is not None:
        # Added to the sweep's merge-proof totals, if any.
        result.proof_clauses += proof.num_added
    if certify and model is None:
        _certify(result, cnf, proof)
    return model


def check_equivalence(before: Netlist, after: Netlist,
                      certify: bool = False,
                      proof: Optional[ProofLog] = None,
                      *,
                      sim_patterns: int = 64) -> EquivalenceResult:
    """Prove or refute the equivalence of two netlists.

    Equivalence means: identical values on every primary output and on the
    data pin of every name-matched flip-flop, for all input and register
    assignments (registers present in only one netlist are free).  When the
    miter is satisfiable the model is replayed through the simulator and
    returned as a confirmed :class:`Counterexample`.

    Both designs are lowered into one shared hash-consed AIG and the root
    pairs hashing cannot settle run through the staged pipeline from the
    module docstring — simulation (exhaustive on small miters), SAT
    sweeping, structure-aware encoding, phase/activity-seeded CDCL.

    ``sim_patterns`` (keyword-only) is the width of the packed random
    stimulus (seeded with :data:`_SIM_SEED`) used by the simulation
    checks, the sweep, and phase seeding.  When the miter's signatures
    over every leaf assignment fit :data:`_EXHAUSTIVE_BITS`
    (:data:`_CUBE_BITS` when DRAT evidence is requested) stage 1
    simulates all ``2**n`` assignments instead: it refutes or proves
    every differing pair (``sim_proven``), and nothing after it runs.
    Otherwise the shared miter AIG is SAT-swept before encoding when its
    differing cones are large and dense with simulation-candidate merges
    (:func:`_sweep_worthwhile`); sweep-proven root pairs are counted in
    ``sweep_proven`` and skip the top-level solve.  ``sim_patterns=0``
    disables the simulation stage, exhaustive or not, and everything fed
    by its signatures (the sweep, phase and activity seeding), so every
    differing pair goes to the solver.  The pairs left after stages 1–2
    are solved together, in this process, by one solver over one CNF.

    ``certify=True`` turns on DRAT proof logging and, on an UNSAT
    verdict, replays the proof through the independent RUP checker
    (:func:`~repro.netlist.sat.proof.check_drat`) against the encoded
    CNF.  Sweep merges are certified inside the sweep, by one check of
    each round's proof; a rejected merge makes ``proof_checked`` False
    even when the top-level proof checks.  The result's
    ``proof_checked`` then certifies the verdict (False means some
    proof was rejected — callers such as the CLI treat that as a hard
    failure), and ``lemma_checks`` counts the lemmas the checker
    verified.  ``proof`` supplies the :class:`ProofLog` to write into
    — pass one with a stream to keep the DRAT text on disk (the CLI's
    ``--solve-log``; the sweep's round proofs are never written to it);
    with ``proof`` alone the log is recorded but not checked.  A miter
    exhaustive simulation proves within :data:`_CUBE_BITS` needs no
    solve: its proof is a cube tree over the leaf variables of the
    encoded cones, with ``2**n + 2**(n-1) - 1`` lemmas, checked against
    that CNF; ``solver_stats`` stay zero.
    """
    tracer = get_tracer()
    with tracer.span("cec", before=before.name,
                     after=after.name) as cec_span:
        start = time.perf_counter()
        aig, pi_lits, latch_lits, named_pairs = _lower_miter(before, after)
        differing = [(b, a) for _, _, b, a in named_pairs if b != a]
        result = EquivalenceResult(
            True, compared=len(named_pairs),
            hash_proven=len(named_pairs) - len(differing))
        if tracer.enabled:
            for kind, name, b, a in named_pairs:
                tracer.instant("cec.pair", kind=kind, name=name,
                               hash_proven=(b == a))
        result.encode_seconds = time.perf_counter() - start
        cec_span.set(compared=result.compared,
                     hash_proven=result.hash_proven)
        if not differing:
            # Every root pair hash-merged to the same literal:
            # structurally proven, nothing to solve.
            cec_span.set(equivalent=True)
            return result

        # Stage 1: simulation.  Any pattern a root pair disagrees on is
        # already a complete counterexample.  A small miter is simulated
        # under every leaf assignment (latches are free variables too),
        # which also proves the pairs it cannot refute; when DRAT
        # evidence is requested the budget is smaller and the proof is a
        # cube tree.  ``sim_patterns=0`` disables the stage (and the
        # signatures that the sweep and phase seeding feed on).
        pairs = differing
        work_aig = aig
        in_lits, st_lits = pi_lits, latch_lits
        words = None
        sigs = None
        num_patterns = 0
        sweep_stats = None
        if sim_patterns > 0:
            leaves = list(aig.inputs) + list(aig.latches)
            evidence = certify or proof is not None
            budget = _CUBE_BITS if evidence else _EXHAUSTIVE_BITS
            exhaustive = aig.num_nodes << len(leaves) <= budget
            if exhaustive:
                words = dict(zip(leaves, elementary_words(len(leaves))))
                num_patterns = 1 << len(leaves)
            else:
                rng = random.Random(_SIM_SEED)
                words = {nid: rng.getrandbits(sim_patterns)
                         for nid in leaves}
                num_patterns = sim_patterns
            sigs, pattern = _simcheck(result, aig, words, pi_lits,
                                      latch_lits, num_patterns, pairs,
                                      exhaustive=exhaustive)
            if pattern is not None:
                cec_span.set(equivalent=False, refuted_by="simulation")
                return _refute(result, before, after, *pattern,
                               by_simulation=True)
            if exhaustive:
                # All 2**n assignments agree: every pair is proven.
                result.sim_proven = len(pairs)
                if evidence:
                    _certify_exhaustive(result, aig, pairs, pi_lits,
                                        latch_lits, certify=certify,
                                        proof=proof)
                cec_span.set(sim_proven=result.sim_proven, equivalent=True)
                return result

        # Stage 2: SAT-sweep the miter AIG — internal equivalences the
        # unique table missed collapse under incremental SAT, and root
        # pairs whose cones merge are proven without the top-level solve.
        if sigs is not None and \
                _sweep_worthwhile(aig, sigs, num_patterns, pairs):
            # Imported lazily: opt.fraig imports sat.cnf/proof/solver, so
            # a module-level import here would be circular.
            from ..opt.fraig import FraigStats, fraig_sweep
            sweep_start = time.perf_counter()
            sweep_stats = FraigStats()
            with tracer.span("cec.sweep", ands=aig.num_ands,
                             pairs=len(pairs)) as sweep_span:
                # Stage 1's stimulus and signatures are handed to the
                # sweep so its first round does not resimulate.
                swept = fraig_sweep(
                    aig, patterns=sim_patterns, seed=_SIM_SEED,
                    stats=sweep_stats, certify=certify,
                    words=words, signatures=sigs)
                mapped = [(swept.map_lit(b), swept.map_lit(a))
                          for b, a in pairs]
                pairs = [(b, a) for b, a in mapped if b != a]
                result.sweep_proven = len(mapped) - len(pairs)
                sweep_span.set(sweep_proven=result.sweep_proven,
                               remaining=len(pairs))
            result.sweep_seconds = time.perf_counter() - sweep_start
            # Every merge was already certified by its round's check.
            result.proof_clauses = sweep_stats.proof_clauses
            result.proof_check_seconds = sweep_stats.proof_check_seconds
            result.lemma_checks = sweep_stats.lemma_checks
            work_aig = swept.aig
            in_lits = {name: swept.map_lit(lit)
                       for name, lit in pi_lits.items()}
            st_lits = {name: swept.map_lit(lit)
                       for name, lit in latch_lits.items()}
            words = swept.words
            num_patterns = swept.num_patterns
            cec_span.set(sweep_proven=result.sweep_proven)
            if not pairs:
                # Hashing + sweeping proved every root pair.
                if certify:
                    result.proof_checked = sweep_stats.proofs_failed == 0
                cec_span.set(equivalent=True)
                return result
            # The sweep's refuted candidates appended distinguishing
            # patterns to the stimulus — re-check the surviving pairs
            # under the enriched batch.
            sigs, pattern = _simcheck(result, work_aig, words, pi_lits,
                                      latch_lits, num_patterns, pairs,
                                      post_sweep=True)
            if pattern is not None:
                cec_span.set(equivalent=False, refuted_by="simulation")
                return _refute(result, before, after, *pattern,
                               by_simulation=True)

        # Stages 3–4: one solve over every surviving pair.
        model = _solve(result, work_aig, pairs, in_lits, st_lits, sigs,
                       num_patterns, certify=certify, proof=proof)
        cec_span.set(cnf_clauses=result.cnf_clauses)
        if model is None:
            if (certify and sweep_stats is not None
                    and sweep_stats.proofs_failed):
                result.proof_checked = False
            cec_span.set(equivalent=True)
            return result
        # Inputs outside every encoded cone carry no CNF variable, so
        # the replay defaults them to 0.
        model_inputs, model_state = model
        inputs = {name: 0 for name in before.input_names()}
        inputs.update(model_inputs)
        _refute(result, before, after, inputs, model_state,
                by_simulation=False)
        cec_span.set(equivalent=False)
        return result
