"""Tests for DRAT proof logging (`Solver.set_proof`) and the independent
RUP checker (`repro.netlist.sat.proof.check_drat`).

The checker shares no code with either solver engine, so these tests are
the certification story's foundation: real proofs from both engines must
check, and corrupted/truncated/bogus proofs must be rejected.  Most checks
go through `_check`, which also runs the checker with its lane pass
switched off and requires the same verdict from the sequential check
alone.
"""

import random
from itertools import combinations

import pytest

from repro.netlist import elaborate, from_netlist
from repro.netlist.opt import FraigStats, fraig_sweep
from repro.netlist.sat import (
    DratCheckResult,
    ProofLog,
    Solver,
    check_drat,
    check_equivalence,
    format_drat_step,
    parse_drat,
)
from repro.netlist.sat import CNF, cec, proof

from repro.obs import Tracer, use_tracer

from reference_solver import ReferenceSolver
from test_elaborate import ALU


def _check(cnf, steps, assumptions=()):
    """``check_drat`` with the lane pass on, after requiring the same
    verdict with it off."""
    result = check_drat(cnf, steps, assumptions)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(proof, "_LANE_PASSES", 0)
        alone = check_drat(cnf, steps, assumptions)
    assert alone.ok == result.ok and alone.lane_checked == 0
    if result.ok:
        assert result.checked == alone.checked == result.lemmas
    return result


def pigeonhole(holes):
    """holes+1 pigeons into `holes` holes: classically UNSAT."""
    def var(pigeon, hole):
        return pigeon * holes + hole + 1
    clauses = [tuple(var(p, h) for h in range(holes))
               for p in range(holes + 1)]
    for h in range(holes):
        for p1, p2 in combinations(range(holes + 1), 2):
            clauses.append((-var(p1, h), -var(p2, h)))
    return (holes + 1) * holes, clauses


MULT_A = """
module mult_a #(parameter W = 4) (
  input [W-1:0] a, input [W-1:0] b,
  output [2*W-1:0] p
);
  assign p = a * b;
endmodule
"""

# Same function, different structure: operands swapped plus a re-association
# through an explicit partial sum, so the AIGs don't hash-merge at the roots.
MULT_B = """
module mult_a #(parameter W = 4) (
  input [W-1:0] a, input [W-1:0] b,
  output [2*W-1:0] p
);
  wire [2*W-1:0] partial;
  assign partial = (b[0] ? {{W{1'b0}}, a} : {2*W{1'b0}});
  assign p = partial + ((b >> 1) * a << 1);
endmodule
"""


# ---------------------------------------------------------------------------
# ProofLog / DRAT text round trips
# ---------------------------------------------------------------------------


def test_prooflog_records_steps_and_counts():
    log = ProofLog()
    log.add((1, -2, 3))
    log.add((4,))
    log.delete((1, -2, 3))
    log.add(())
    assert log.steps == [("a", (1, -2, 3)), ("a", (4,)),
                         ("d", (1, -2, 3)), ("a", ())]
    assert log.num_added == 3 and log.num_deleted == 1
    assert len(log) == 4


def test_prooflog_drat_text_round_trip():
    log = ProofLog()
    log.add((1, -2, 3))
    log.delete((5, 6))
    log.add(())
    text = log.to_drat()
    assert text == "1 -2 3 0\nd 5 6 0\n0\n"
    assert parse_drat(text) == log.steps
    assert log.size_bytes() == len(text)


def test_prooflog_streams_live(tmp_path):
    path = tmp_path / "proof.drat"
    with open(path, "w", encoding="utf-8") as handle:
        log = ProofLog(stream=handle)
        log.add((1, 2))
        # Flushed per step: visible before the handle is closed.
        assert path.read_text() == "1 2 0\n"
        log.delete((1, 2))
    assert path.read_text() == "1 2 0\nd 1 2 0\n"
    assert log.bytes_written == log.size_bytes() == 14


@pytest.mark.parametrize("streamed", [False, True])
def test_prooflog_running_counters_match_recount(streamed, tmp_path):
    steps = [("a", (1, -22, 333)), ("d", (4,)), ("a", ()),
             ("d", (-1, 22)), ("a", (-7,)), ("a", (10, -11, 12, -13)),
             ("d", ())]
    handle = open(tmp_path / "p.drat", "w", encoding="utf-8") \
        if streamed else None
    log = ProofLog(stream=handle)
    for count, (kind, lits) in enumerate(steps, start=1):
        (log.add if kind == "a" else log.delete)(lits)
        assert log.steps == steps[:count]
        assert log.num_added == sum(k == "a" for k, _ in log.steps)
        assert log.num_deleted == sum(k == "d" for k, _ in log.steps)
        assert log.size_bytes() == len(log.to_drat())
    if streamed:
        handle.close()
        assert (tmp_path / "p.drat").read_text() == log.to_drat()


def test_parse_drat_ignores_comments_and_rejects_garbage():
    assert parse_drat("c a comment\n\n1 2 0\n") == [("a", (1, 2))]
    with pytest.raises(ValueError):
        parse_drat("1 2\n")          # missing terminator
    with pytest.raises(ValueError):
        parse_drat("1 0 2 0\n")      # interior zero
    with pytest.raises(ValueError):
        parse_drat("1 x 0\n")


def test_format_drat_step_validates_kind():
    assert format_drat_step("a", ()) == "0"
    assert format_drat_step("d", (-1,)) == "d -1 0"
    with pytest.raises(ValueError):
        format_drat_step("x", (1,))


# ---------------------------------------------------------------------------
# Real proofs from both engines
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", [Solver, ReferenceSolver])
@pytest.mark.parametrize("holes", [3, 4, 5])
def test_pigeonhole_proofs_check(engine, holes):
    num_vars, clauses = pigeonhole(holes)
    solver = engine(num_vars, clauses)
    log = ProofLog()
    solver.set_proof(log)
    assert not solver.solve().satisfiable
    assert log.num_added > 0
    result = _check(clauses, log)
    assert result.ok and isinstance(result, DratCheckResult)
    assert result.lemmas == log.num_added
    # Every lemma is verified, by the lane pass or sequentially.
    assert result.checked == result.lemmas
    assert result.lane_checked + result.sequential_checked == result.checked


def test_proof_survives_text_round_trip():
    num_vars, clauses = pigeonhole(4)
    solver = Solver(num_vars, clauses)
    log = ProofLog()
    solver.set_proof(log)
    assert not solver.solve().satisfiable
    assert _check(clauses, parse_drat(log.to_drat())).ok


def test_trivial_root_conflict_emits_empty_clause():
    solver = Solver(1, [(1,), (-1,)])
    log = ProofLog()
    solver.set_proof(log)
    assert not solver.solve().satisfiable
    assert ("a", ()) in log.steps
    assert _check([(1,), (-1,)], log).ok


def test_incremental_solving_proof_checks_against_final_formula():
    # Clauses added between solve() calls: lemmas from the first solve are
    # checked against the final clause set — sound (supersets only
    # strengthen unit propagation) and exactly what certification needs.
    num_vars, clauses = pigeonhole(3)
    solver = Solver(num_vars)
    log = ProofLog()
    solver.set_proof(log)
    solver.add_clauses(clauses[:-2])
    solver.solve()                    # SAT or UNSAT, lemmas accumulate
    solver.add_clauses(clauses[-2:])
    assert not solver.solve().satisfiable
    assert _check(clauses, log).ok


def test_assumption_unsat_certified_with_assumption_units():
    clauses = [(-1, 2), (-2, 3)]
    solver = Solver(3, clauses)
    log = ProofLog()
    solver.set_proof(log)
    assert not solver.solve(assumptions=(1, -3)).satisfiable
    assert _check(clauses, log, assumptions=(1, -3)).ok
    # The formula alone is satisfiable: without the assumptions the same
    # proof must be rejected.
    assert not _check(clauses, log)


def test_reference_solver_never_deletes():
    num_vars, clauses = pigeonhole(4)
    solver = ReferenceSolver(num_vars, clauses)
    log = ProofLog()
    solver.set_proof(log)
    assert not solver.solve().satisfiable
    assert log.num_deleted == 0


def test_reduce_db_deletions_check():
    # A solve hard enough to trigger clause-DB reduction; force it by
    # shrinking the learned-clause budget rather than solving a monster.
    num_vars, clauses = pigeonhole(6)
    solver = Solver(num_vars, clauses)
    solver.max_learnts = 32
    log = ProofLog()
    solver.set_proof(log)
    assert not solver.solve().satisfiable
    assert log.num_deleted > 0, "reduce-DB never fired; weaken the budget"
    result = _check(clauses, log)
    assert result.ok
    assert result.deletions > 0


# ---------------------------------------------------------------------------
# Rejections: the checker must not be a rubber stamp
# ---------------------------------------------------------------------------


def _unsat_proof(holes=4):
    num_vars, clauses = pigeonhole(holes)
    solver = Solver(num_vars, clauses)
    log = ProofLog()
    solver.set_proof(log)
    assert not solver.solve().satisfiable
    return clauses, list(log.steps)


def test_bogus_lemma_rejected():
    clauses, steps = _unsat_proof()
    # (x1 ∨ x2) is not implied by the pigeonhole formula.
    steps.insert(len(steps) // 2, ("a", (1, 2)))
    result = _check(clauses, steps)
    assert not result
    assert "not RUP" in result.reason


def test_corrupted_lemma_literal_rejected():
    clauses, steps = _unsat_proof()
    # Flip a literal in every addition of some middle stretch: at least
    # one corrupted lemma is load-bearing under full verification.
    corrupted = []
    for kind, lits in steps:
        if kind == "a" and len(lits) >= 2:
            corrupted.append((kind, (-lits[0],) + lits[1:]))
        else:
            corrupted.append((kind, lits))
    assert not _check(clauses, corrupted)


def test_truncated_proof_rejected():
    clauses, steps = _unsat_proof()
    result = _check(clauses, steps[: len(steps) // 4])
    assert not result
    assert "empty clause" in result.reason


def test_sat_formula_has_no_unsat_proof():
    clauses = [(1, 2), (-1, 2)]
    solver = Solver(2, clauses)
    log = ProofLog()
    solver.set_proof(log)
    assert solver.solve().satisfiable
    assert not _check(clauses, log)


def test_deleting_needed_clause_breaks_proof():
    clauses, steps = _unsat_proof()
    # Erase every input clause after all additions: the lemmas alone do
    # not derive the conflict once their support is gone... unless the
    # learned units happen to still conflict — so also drop additions of
    # width 1.  Either way the proof must not check as-is *plus* the
    # deletion of everything.
    steps = ([step for step in steps if step[0] != "a" or len(step[1]) > 1]
             + [("d", tuple(c)) for c in clauses])
    assert not _check(clauses, steps)


def test_deleted_formula_clause_is_dead_in_every_later_lane():
    """A formula clause deleted mid-proof takes part in no later check: a
    lemma after the deletion that needs it is rejected, by the lane pass
    and by the sequential check, and the proof without the deletion is
    accepted."""
    clauses = [(1, 2), (-1, 2), (1, -2), (-1, -2)]
    # (2 1) repeats a formula clause; (2) needs (-1 2) to be RUP.
    kept = [("a", (2, 1)), ("a", (2,)), ("a", ())]
    result = _check(clauses, kept)
    assert result.ok and result.lane_checked == result.lemmas == 3
    deleted = kept[:1] + [("d", (-1, 2))] + kept[1:]
    result = _check(clauses, deleted)
    assert not result and result.deletions == 1
    assert result.reason == "lemma 2 0 is not RUP"
    # The lane pass settles the lemma before the deletion and the empty
    # clause (given (2)); it leaves (2) to the sequential check, which
    # rejects it.
    assert result.lane_checked == 2


# ---------------------------------------------------------------------------
# Differential check against a naive RUP oracle
# ---------------------------------------------------------------------------


def _naive_rup(db, assumptions, lemma):
    """True iff asserting the assumptions and the lemma's negation, then
    sweeping every clause of ``db`` until no unit is left, conflicts."""
    value = set()
    for lit in (*assumptions, *(-lit for lit in lemma)):
        if -lit in value:
            return True
        value.add(lit)
    changed = True
    while changed:
        changed = False
        for clause in db:
            free = None
            count = 0
            for lit in clause:
                if lit in value:
                    break
                if -lit not in value:
                    count += 1
                    free = lit
            else:
                if count == 0:
                    return True
                if count == 1:
                    value.add(free)
                    changed = True
    return False


def _oracle_accepts(formula, steps, assumptions=()):
    """Forward DRAT-RUP semantics: every lemma is RUP over the formula
    plus the lemmas still alive before it, deletions drop one matching
    clause (unknown ones are ignored), and the end is a conflict."""
    db = [frozenset(clause) for clause in formula]
    for kind, lits in steps:
        key = frozenset(lits)
        if kind == "a":
            if not _naive_rup(db, assumptions, lits):
                return False
            db.append(key)
        elif key in db:
            db.remove(key)
    return _naive_rup(db, assumptions, ())


def _miter_cnf(width):
    """Structural CNF of the W-bit MULT_A vs MULT_B miter, and the CNF
    variables of its inputs."""
    before = elaborate(MULT_A.replace("W = 4", f"W = {width}"))
    after = elaborate(MULT_B.replace("W = 4", f"W = {width}"))
    aig, pi_lits, latch_lits, named = cec._lower_miter(before, after)
    pairs = [(b, a) for _, _, b, a in named if b != a]
    cnf = CNF()
    _, input_vars, _ = cec._encode_pairs(cnf, aig, pairs, pi_lits,
                                         latch_lits)
    return cnf, sorted(input_vars.values())


def _miter_solver_proof(width, assume):
    """A reduce-DB-heavy solver proof of the miter, so it carries
    deletions.  With ``assume`` the disagreement clause is gated by a
    fresh selector, and the proof holds only under it."""
    cnf, _ = _miter_cnf(width)
    clauses = list(cnf.clauses)
    assumptions = ()
    if assume:
        selector = cnf.new_var()
        clauses[-1] = clauses[-1] + (-selector,)
        assumptions = (selector,)
    log = ProofLog()
    solver = Solver(cnf.num_vars, clauses)
    solver.max_learnts = 16
    solver.set_proof(log)
    assert not solver.solve(assumptions).satisfiable
    assert log.num_deleted > 0
    return clauses, list(log.steps), assumptions


def _mutate(steps, rng):
    """Drop one lemma, or one literal of one lemma."""
    adds = [i for i, (kind, _) in enumerate(steps) if kind == "a"]
    i = rng.choice(adds)
    lits = steps[i][1]
    out = list(steps)
    if rng.random() < 0.5 or not lits:
        del out[i]
    else:
        j = rng.randrange(len(lits))
        out[i] = ("a", lits[:j] + lits[j + 1:])
    return out


def test_checker_agrees_with_naive_oracle_on_mutated_proofs():
    verdicts = []
    for (width, assume), count in (((3, False), 48), ((3, True), 48),
                                   ((4, False), 4)):
        clauses, steps, assumptions = _miter_solver_proof(width, assume)
        assert _check(clauses, steps, assumptions)
        if assume:
            assert not _check(clauses, steps)
        rng = random.Random(10 * width + assume)
        for _ in range(count):
            mutated = _mutate(steps, rng)
            expected = _oracle_accepts(clauses, mutated, assumptions)
            got = _check(clauses, mutated, assumptions).ok
            assert got == expected, (width, assume)
            verdicts.append(got)
    assert len(verdicts) >= 100
    # Both outcomes occur, so the agreement is not vacuous.
    assert 0 < sum(verdicts) < len(verdicts)


# ---------------------------------------------------------------------------
# Cube-tree proofs (certified exhaustive simulation)
# ---------------------------------------------------------------------------


def _full_cube_tree(leaves):
    """Every node of the binary tree over ``leaves``, both leaf cubes
    included: parent after children, children deleted after it."""
    steps = []

    def refute(lemma):
        if len(lemma) < len(leaves):
            var = leaves[len(lemma)]
            children = ((-var,) + lemma, (var,) + lemma)
            for child in children:
                refute(child)
            steps.append(("a", lemma))
            steps.extend(("d", child) for child in children)
        else:
            steps.append(("a", lemma))

    refute(())
    return steps


def _without(steps, lemma):
    return [step for step in steps if step[1] != lemma]


def test_full_cube_tree_checks_and_tolerates_a_missing_leaf():
    cnf, leaves = _miter_cnf(3)
    n = len(leaves)
    steps = _full_cube_tree(leaves)
    assert sum(kind == "a" for kind, _ in steps) == 2 ** (n + 1) - 1
    assert _check(cnf, steps)
    # One leaf of a sibling pair is redundant: the other leaf's lemma
    # forces the last variable, and propagation refutes the parent.
    leaf = tuple(-var for var in reversed(leaves))
    assert _check(cnf, _without(steps, leaf))
    # A depth-1 lemma is not: without it the root has one unit only.
    for lemma in ((-leaves[0],), (leaves[0],)):
        assert not _check(cnf, _without(steps, lemma))


@pytest.mark.parametrize("width", [3, 5, 6])
def test_half_leaf_cube_tree_checks(width):
    cnf, leaves = _miter_cnf(width)
    n = len(leaves)
    log = ProofLog()
    cec._cube_tree(log, leaves)
    assert log.num_added == 2 ** n + 2 ** (n - 1) - 1
    assert log.steps[-3:] == [("a", ()), ("d", (-leaves[0],)),
                              ("d", (leaves[0],))]
    result = _check(cnf, log)
    # One lane pass settles every lemma, across lane blocks at W=6.
    assert result.ok and result.lane_checked == result.lemmas


def test_shortened_leaf_lemmas_are_rejected():
    """A lone leaf lemma of a half-leaf tree is used only through formula
    clauses every other lemma's check uses too.  Shortening one keeps
    its parent RUP but makes the leaf itself unsound, and the checker
    must notice."""
    cnf, leaves = _miter_cnf(3)
    log = ProofLog()
    cec._cube_tree(log, leaves)
    verdicts = []
    for lemma in [lits for kind, lits in log.steps
                  if kind == "a" and len(lits) == len(leaves)]:
        # A shortened leaf lemma still forces the last leaf for its
        # parent, but is itself not RUP unless its shorter cube already
        # propagates to a conflict.
        short = lemma[:2]
        steps = [(kind, short if lits == lemma else lits)
                 for kind, lits in log.steps]
        verdicts.append(_check(cnf, steps).ok)
    assert not all(verdicts)


def test_cube_tree_of_a_satisfiable_miter_is_rejected():
    """A needle bug makes the miter satisfiable, so the leaf lemma of
    the differing cube is not RUP.  The half-leaf tree still derives
    the empty clause through it.  The lane pass settles every other
    lemma and leaves that one to the sequential check, which refuses
    it."""
    good = "module m(input [2:0] a, input [2:0] b, output [5:0] p); " \
           "assign p = a * b; endmodule"
    bad = good.replace("a * b", "(a * b) ^ {5'b0, (a == 3'd1) & (b == 3'd5)}")
    aig, pi_lits, latch_lits, named = cec._lower_miter(elaborate(good),
                                                       elaborate(bad))
    pairs = [(b, a) for _, _, b, a in named if b != a]
    cnf = CNF()
    _, input_vars, _ = cec._encode_pairs(cnf, aig, pairs, pi_lits,
                                         latch_lits)
    assert Solver(cnf.num_vars, cnf.clauses).solve().satisfiable
    log = ProofLog()
    cec._cube_tree(log, sorted(input_vars.values()))
    result = _check(cnf, log)
    assert not result and result.reason.endswith(" 0 is not RUP")
    refuted = {int(tok) for tok in result.reason.split()[1:-4]}
    # The rejected lemma negates the needle's cube, a = 1 and b = 5.
    needle = {input_vars[f"{name}[{i}]"] * (1 if value >> i & 1 else -1)
              for name, value in (("a", 1), ("b", 5)) for i in range(3)}
    assert refuted == {-lit for lit in needle}
    assert result.lane_checked == result.lemmas - 1


def test_checker_accepts_plain_iterables_and_text():
    clauses, steps = _unsat_proof(3)
    text = "".join(format_drat_step(kind, lits) + "\n"
                   for kind, lits in steps)
    assert _check(tuple(clauses), text).ok
    assert check_drat(iter(clauses), steps).ok


# ---------------------------------------------------------------------------
# Certified CEC and FRAIG
# ---------------------------------------------------------------------------


def test_check_equivalence_certify_unsat():
    before = elaborate(MULT_A)
    after = elaborate(MULT_B)
    result = check_equivalence(before, after, certify=True)
    assert result.equivalent
    assert result.proof_checked is True
    assert result.proof_clauses > 0
    assert result.proof_bytes > 0
    assert result.proof_check_seconds >= 0.0


def test_certify_spans_say_which_engine_checked(monkeypatch):
    """The ``cec.certify`` span of a cube-tree proof and the
    ``fraig.certify`` span of each merge proof record how many lemmas
    the lane pass and the sequential check verified."""
    tracer = Tracer()
    with use_tracer(tracer):
        cube = check_equivalence(elaborate(MULT_A), elaborate(MULT_B),
                                 certify=True)
    (span,) = [r.args for r in tracer.records if r.name == "cec.certify"]
    assert cube.sim_proven and cube.proof_checked
    assert span["lane_checked"] == span["lemmas"] == cube.proof_clauses
    assert span["sequential_checked"] == 0
    # Merge proofs are small against their formula, so the lane pass is
    # skipped and every lemma is checked sequentially.
    tracer = Tracer()
    with use_tracer(tracer):
        stats = FraigStats()
        fraig_sweep(from_netlist(elaborate(ALU.replace("W = 4", "W = 8"))),
                    patterns=8, stats=stats, certify=True)
    merges = [r.args for r in tracer.records if r.name == "fraig.certify"]
    assert len(merges) == stats.proofs_checked > 0
    for args in merges:
        assert args["lane_checked"] + args["sequential_checked"] \
            == args["lemmas"]
    # With the lane pass forced on, the same checks split the work.
    monkeypatch.setattr(proof, "_LANE_MIN_SHARE", 10 ** 6)
    tracer = Tracer()
    with use_tracer(tracer):
        fraig_sweep(from_netlist(elaborate(ALU.replace("W = 4", "W = 8"))),
                    patterns=8, stats=FraigStats(), certify=True)
    assert sum(r.args["lane_checked"] for r in tracer.records
               if r.name == "fraig.certify") > 0


def test_check_equivalence_uncertified_has_no_proof_fields():
    before = elaborate(MULT_A)
    after = elaborate(MULT_B)
    result = check_equivalence(before, after)
    assert result.equivalent
    assert result.proof_checked is None
    assert result.proof_clauses == 0 and result.proof_bytes == 0


def test_check_equivalence_certify_hash_proven_skips_checker():
    design = elaborate(MULT_A)
    result = check_equivalence(design, design, certify=True)
    assert result.equivalent and result.hash_proven == result.compared
    # Nothing was solved, so there is no proof to check.
    assert result.proof_checked is None


def test_check_equivalence_proof_stream(tmp_path):
    path = tmp_path / "cec.drat"
    before = elaborate(MULT_A)
    after = elaborate(MULT_B)
    with open(path, "w", encoding="utf-8") as handle:
        proof = ProofLog(stream=handle)
        result = check_equivalence(before, after, certify=True, proof=proof)
    assert result.equivalent and result.proof_checked is True
    steps = parse_drat(path.read_text())
    assert steps == proof.steps


def test_check_equivalence_certify_solve_path():
    # Without simulation (and so without the sweep) the small miter skips
    # the cube-tree proof: the whole differing cone reaches the solver,
    # whose proof is checked against the encoded CNF.
    before = elaborate(MULT_A)
    after = elaborate(MULT_B)
    result = check_equivalence(before, after, certify=True, sim_patterns=0)
    assert result.equivalent and result.proof_checked is True
    assert result.solver_stats.conflicts > 0
    assert result.proof_clauses > 0
    assert "preprocessor" not in result.to_report(certify=True)


def test_fraig_sweep_certify():
    # a - b and the comparator's borrow chain are equivalent but not
    # structurally identical, so fraig has real merges to SAT-prove.
    source = """
module alu #(parameter W = 8) (
  input [W-1:0] a, input [W-1:0] b, input [2:0] op,
  output reg [W-1:0] y
);
  always @(*) begin
    case (op)
      3'd0: y = a + b;
      3'd1: y = (a + b) + 1;
      3'd2: y = a - b;
      3'd3: y = (a - b) - 1;
      3'd4: y = a & b;
      default: y = (a < b) ? a : b;
    endcase
  end
endmodule
"""
    aig = from_netlist(elaborate(source))
    stats = FraigStats()
    swept = fraig_sweep(aig, patterns=8, stats=stats, certify=True)
    assert swept.num_ands <= aig.num_ands
    assert stats.proven > 0
    assert stats.proofs_checked == stats.proven
    assert stats.proofs_failed == 0
    assert stats.proof_clauses >= 0 and stats.proof_bytes > 0
    snap = stats.to_dict()
    assert snap["proofs_checked"] == stats.proofs_checked
    assert snap["proofs_failed"] == 0


def test_fraig_sweep_uncertified_counts_stay_zero():
    source = "module t(input a, input b, output o); assign o = a & b; endmodule"
    aig = from_netlist(elaborate(source))
    stats = FraigStats()
    fraig_sweep(aig, patterns=4, stats=stats)
    assert stats.proofs_checked == 0 and stats.proofs_failed == 0
    assert stats.proof_clauses == 0 and stats.proof_bytes == 0
