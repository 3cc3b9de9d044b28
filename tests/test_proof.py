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
from repro.netlist.opt import FraigStats, fraig, fraig_sweep, optimize
from repro.netlist.sat import (
    DratCheckResult,
    ProofLog,
    Solver,
    check_drat,
    check_equivalence,
    format_drat_step,
    parse_drat,
)
from repro.netlist.sat import cec, proof

from repro.obs import Tracer, use_tracer

from reference_solver import ReferenceSolver
from test_elaborate import ALU
from test_serialize import designs


def _with_units(cnf, assumptions):
    """The clauses of ``cnf`` plus one unit clause per assumption."""
    return [*getattr(cnf, "clauses", cnf), *((lit,) for lit in assumptions)]


def _check(cnf, steps, assumptions=(), refutation=True):
    """``check_drat`` of ``cnf`` with each assumption as a unit clause,
    with the lane pass on, after requiring the same verdict with it
    off."""
    formula = _with_units(cnf, assumptions) if assumptions else cnf
    result = check_drat(formula, steps, refutation)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(proof, "_LANE_PASSES", 0)
        alone = check_drat(formula, steps, refutation)
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


def test_prooflog_streams_live(tmp_path):
    path = tmp_path / "proof.drat"
    with open(path, "w", encoding="utf-8") as handle:
        log = ProofLog(stream=handle)
        log.add((1, 2))
        # Flushed per step: visible before the handle is closed.
        assert path.read_text() == "1 2 0\n"
        log.delete((1, 2))
    assert path.read_text() == "1 2 0\nd 1 2 0\n"
    assert log.bytes_written == 14


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
        assert log.bytes_written == (len(log.to_drat()) if streamed else 0)
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
# Edge semantics of the clause database
# ---------------------------------------------------------------------------


def test_literal_zero_is_malformed_input():
    with pytest.raises(ValueError):
        check_drat([(1, 0)], [])
    with pytest.raises(ValueError):
        check_drat([(1,), (-1,)], [("a", (2, 0))])
    with pytest.raises(ValueError):
        check_drat([(1,), (-1,)], [("d", (1, 0))])


def test_a_non_rup_empty_lemma_is_named_in_the_reason():
    result = _check([(1, 2)], [("a", ())])
    assert not result
    assert result.reason == "lemma 0 (the empty clause) is not RUP"


def test_tautology_never_propagates():
    # (1 -1 2) would imply 2 if it were unit propagated like a clause.
    assert not _check([(1, -1, 2)], [("a", (2,))], refutation=False)
    # A tautological lemma is trivially redundant, so it is accepted.
    result = _check([(1, 2)], [("a", (3, -3))], refutation=False)
    assert result.ok and result.checked == 1


def test_duplicate_literals_are_dropped():
    # (1 1) is the unit 1, so the formula is refuted by propagation.
    assert _check([(1, 1), (-1,)], []).ok
    # A deletion with a repeated literal still finds its clause.
    result = _check([(1, 2), (-1, 2), (1, -2), (-1, -2)],
                    [("a", (2,)), ("d", (2, -1, 2)), ("a", ())])
    assert result.ok and result.deletions == 1


def test_deletion_deactivates_one_of_two_copies():
    # (2) is RUP from (1 2) and (-1); the formula holds (1 2) twice.
    clauses = [(1, 2), (2, 1), (-1,)]
    one = _check(clauses, [("d", (1, 2)), ("a", (2,))], refutation=False)
    assert one.ok and one.deletions == 1
    both = _check(clauses, [("d", (1, 2)), ("d", (2, 1)), ("a", (2,))],
                  refutation=False)
    assert not both and both.deletions == 2


def test_deleting_an_unknown_clause_is_ignored():
    clauses = [(1, 2), (-1,)]
    # (5 6) is in no database, and (2) is deleted before it is added.
    steps = [("d", (5, 6)), ("d", (2,)), ("a", (2,))]
    result = _check(clauses, steps, refutation=False)
    assert result.ok and result.deletions == 0


def test_without_refutation_lemmas_of_a_satisfiable_formula_check():
    """``refutation=False`` certifies the lemmas of a formula that is
    satisfiable: every lemma must still be RUP, but the proof need not
    end in a conflict."""
    clauses = [(-1, 2), (-2, 3), (1, 3)]
    steps = [("a", (-1, 3)), ("a", (3,))]
    result = _check(clauses, steps, refutation=False)
    assert result.ok and result.checked == result.lemmas == 2
    assert "empty clause" in check_drat(clauses, steps).reason
    bogus = _check(clauses, steps + [("a", (-3,))], refutation=False)
    assert not bogus and "not RUP" in bogus.reason


def test_cec_xmul_cube_tree_proof_checks_in_one_lane_pass():
    """The benchmark's certified W=5 carry-save vs shift-add multiplier
    miter: a half-leaf cube tree over its 10 inputs."""
    before = elaborate(designs.multiplier(5).src, top="multiplier")
    after = elaborate(designs.shift_add_multiplier(5).src,
                      top="shift_add_multiplier")
    aig, pi_lits, latch_lits, named = cec._lower_miter(before, after)
    pairs = [(b, a) for _, _, b, a in named if b != a]
    cnf, _, input_vars, _ = cec._encode_pairs(
        cec.EquivalenceResult(True), aig, pairs, pi_lits, latch_lits)
    log = ProofLog()
    cec._cube_tree(log, sorted(input_vars.values()))
    assert len(cnf.clauses) == 617
    result = _check(cnf, log)
    assert (result.ok, result.lemmas, result.checked, result.lane_checked,
            result.deletions) == (True, 1535, 1535, 1535, 1534)


# ---------------------------------------------------------------------------
# Differential check against a naive RUP oracle
# ---------------------------------------------------------------------------


def _naive_rup(db, lemma):
    """True iff asserting the lemma's negation, then sweeping every
    clause of ``db`` until no unit is left, conflicts."""
    value = set()
    for lit in (-lit for lit in lemma):
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


def _oracle_accepts(formula, steps):
    """Forward DRAT-RUP semantics: every lemma is RUP over the formula
    plus the lemmas still alive before it, deletions drop one matching
    clause (unknown ones are ignored), and the end is a conflict."""
    db = [frozenset(clause) for clause in formula]
    for kind, lits in steps:
        key = frozenset(lits)
        if kind == "a":
            if not _naive_rup(db, lits):
                return False
            db.append(key)
        elif key in db:
            db.remove(key)
    return _naive_rup(db, ())


def _miter_cnf(width):
    """Structural CNF of the W-bit MULT_A vs MULT_B miter, and the CNF
    variables of its inputs."""
    before = elaborate(MULT_A.replace("W = 4", f"W = {width}"))
    after = elaborate(MULT_B.replace("W = 4", f"W = {width}"))
    aig, pi_lits, latch_lits, named = cec._lower_miter(before, after)
    pairs = [(b, a) for _, _, b, a in named if b != a]
    cnf, _, input_vars, _ = cec._encode_pairs(
        cec.EquivalenceResult(True), aig, pairs, pi_lits, latch_lits)
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
            expected = _oracle_accepts(_with_units(clauses, assumptions),
                                       mutated)
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
    cnf, _, input_vars, _ = cec._encode_pairs(
        cec.EquivalenceResult(True), aig, pairs, pi_lits, latch_lits)
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
    assert result.proof_check_seconds >= 0.0


def test_certify_spans_say_which_engine_checked(monkeypatch):
    """The ``cec.certify`` span of a cube-tree proof and the one
    ``fraig.certify`` span of each sweep round record how many lemmas
    the lane pass and the sequential check verified."""
    tracer = Tracer()
    with use_tracer(tracer):
        cube = check_equivalence(elaborate(MULT_A), elaborate(MULT_B),
                                 certify=True)
    (span,) = [r.args for r in tracer.records if r.name == "cec.certify"]
    assert cube.sim_proven and cube.proof_checked
    assert span["lane_checked"] == span["lemmas"] == cube.proof_clauses
    assert span["sequential_checked"] == 0
    # One check per round that merged something, never one per merge.
    tracer = Tracer()
    with use_tracer(tracer):
        stats = FraigStats()
        fraig_sweep(from_netlist(elaborate(ALU.replace("W = 4", "W = 8"))),
                    patterns=8, stats=stats, certify=True)
    rounds = [r.args for r in tracer.records if r.name == "fraig.certify"]
    assert 0 < len(rounds) < stats.proven
    assert sum(args["merges"] for args in rounds) == stats.proven
    assert stats.proofs_checked == stats.proven and not stats.proofs_failed
    for args in rounds:
        assert args["round_ok"]
        assert args["lane_checked"] + args["sequential_checked"] \
            == args["lemmas"]
    # Each round's lemmas are checked once: the checks grow with the
    # round proofs, not with merges times lemmas.
    assert stats.lemma_checks == sum(args["lemmas"] for args in rounds)
    assert stats.lemma_checks <= stats.proof_clauses
    assert stats.to_dict()["lemma_checks"] == stats.lemma_checks
    # With the lane pass forced on, the same checks split the work.
    monkeypatch.setattr(proof, "_LANE_MIN_SHARE", 10 ** 6)
    tracer = Tracer()
    with use_tracer(tracer):
        fraig_sweep(from_netlist(elaborate(ALU.replace("W = 4", "W = 8"))),
                    patterns=8, stats=FraigStats(), certify=True)
    assert sum(r.args["lane_checked"] for r in tracer.records
               if r.name == "fraig.certify") > 0


def _mutate_rounds(monkeypatch, mutate):
    """Have every certified sweep round call ``mutate(cnf, steps,
    gates)``, which edits the round's proof steps in place, before its
    check."""
    certify_round = fraig._certify_round

    def mutated(cnf, log, gates, stats):
        mutate(cnf, log.steps, gates)
        certify_round(cnf, log, gates, stats)

    monkeypatch.setattr(fraig, "_certify_round", mutated)


def _sweep_alu8(monkeypatch, mutate):
    """Certified sweep of the W=8 ALU, each round's proof edited by
    ``mutate`` (see :func:`_mutate_rounds`)."""
    _mutate_rounds(monkeypatch, mutate)
    stats = FraigStats()
    fraig_sweep(from_netlist(elaborate(ALU.replace("W = 4", "W = 8"))),
                patterns=8, stats=stats, certify=True)
    return stats


def test_dropped_gate_unit_charges_its_merge_alone(monkeypatch):
    dropped = []

    def drop_one(cnf, steps, gates):
        # Drop the first merge's ``¬gate`` unit that no later lemma
        # needs: the round still checks, and only that merge is short
        # of its certificate.
        for gate in gates:
            unit = ("a", (-gate,))
            if dropped or steps.count(unit) != 1:
                continue
            rest = [step for step in steps if step != unit]
            if check_drat(cnf, rest, refutation=False):
                steps[:] = rest
                dropped.append(gate)

    tracer = Tracer()
    with use_tracer(tracer):
        stats = _sweep_alu8(monkeypatch, drop_one)
    assert dropped
    assert all(r.args["round_ok"] for r in tracer.records
               if r.name == "fraig.certify")
    assert stats.proofs_failed == 1
    assert stats.proofs_checked == stats.proven - 1


def _corrupt_first_round(corrupted):
    """A ``mutate`` for :func:`_mutate_rounds` that corrupts one solver
    lemma of the first round, recording that round's merge count in
    ``corrupted``.  A unit on a variable no clause mentions is never
    RUP."""
    def corrupt(cnf, steps, gates):
        if corrupted:
            return
        units = {("a", (-gate,)) for gate in gates}
        i = next(i for i, step in enumerate(steps)
                 if step[0] == "a" and step not in units)
        steps[i] = ("a", (cnf.num_vars + 1,))
        corrupted.append(len(gates))

    return corrupt


def test_corrupt_lemma_fails_the_round_and_each_merge_is_charged(
        monkeypatch):
    corrupted = []
    tracer = Tracer()
    with use_tracer(tracer):
        stats = _sweep_alu8(monkeypatch, _corrupt_first_round(corrupted))
    rounds = [r.args for r in tracer.records if r.name == "fraig.certify"]
    assert not rounds[0]["round_ok"]
    assert all(args["round_ok"] for args in rounds[1:])
    # Every merge of the broken round is charged, and no other.
    assert stats.proofs_failed == rounds[0]["merges"] == corrupted[0] > 0
    assert stats.proofs_checked + stats.proofs_failed == stats.proven


def test_corrupt_sweep_lemma_fails_the_certified_cec(monkeypatch):
    """A CEC whose miter sweep proves every output is not certified when
    one sweep round's proof is corrupted."""
    netlist = elaborate(ALU, top="alu", params={"W": 16})
    optimized = optimize(netlist).netlist
    corrupted = []
    _mutate_rounds(monkeypatch, _corrupt_first_round(corrupted))
    verdict = check_equivalence(netlist, optimized, certify=True)
    assert corrupted and verdict.equivalent
    assert verdict.sweep_proven == verdict.compared
    assert verdict.proof_checked is False


def test_corrupt_sweep_lemma_fails_the_certified_cec_after_a_solve(
        monkeypatch):
    """A sweep cut to one round on 8 patterns merges some root pairs and
    leaves the rest to the top-level solve.  Its proof checks, but the
    corrupted sweep round still leaves the verdict uncertified."""
    netlist = elaborate(ALU, top="alu", params={"W": 16})
    optimized = optimize(netlist).netlist
    monkeypatch.setattr(fraig, "_MAX_ROUNDS", 1)
    corrupted = []
    _mutate_rounds(monkeypatch, _corrupt_first_round(corrupted))
    top_checks = []
    certify = cec._certify

    def recording(result, cnf, log):
        certify(result, cnf, log)
        top_checks.append(result.proof_checked)

    monkeypatch.setattr(cec, "_certify", recording)
    verdict = check_equivalence(netlist, optimized, certify=True,
                                sim_patterns=8)
    assert corrupted and verdict.equivalent
    assert 0 < verdict.sweep_proven < verdict.compared
    assert verdict.solver_stats.conflicts > 0
    assert top_checks == [True]
    assert verdict.proof_checked is False


def test_check_equivalence_uncertified_has_no_proof_fields():
    before = elaborate(MULT_A)
    after = elaborate(MULT_B)
    result = check_equivalence(before, after)
    assert result.equivalent
    assert result.proof_checked is None
    assert result.proof_clauses == 0


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
    swept = fraig_sweep(aig, patterns=8, stats=stats, certify=True).aig
    assert swept.num_ands <= aig.num_ands
    assert stats.proven > 0
    assert stats.proofs_checked == stats.proven
    assert stats.proofs_failed == 0
    assert stats.proof_clauses > 0
    snap = stats.to_dict()
    assert snap["proofs_checked"] == stats.proofs_checked
    assert snap["proofs_failed"] == 0


def test_fraig_sweep_uncertified_counts_stay_zero():
    source = "module t(input a, input b, output o); assign o = a & b; endmodule"
    aig = from_netlist(elaborate(source))
    stats = FraigStats()
    fraig_sweep(aig, patterns=4, stats=stats)
    assert stats.proofs_checked == 0 and stats.proofs_failed == 0
    assert stats.proof_clauses == 0
