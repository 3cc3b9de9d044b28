"""Tests for the CNF preprocessor (repro.netlist.sat.preprocess, bounded
variable elimination): equisatisfiability against a brute-force oracle,
model reconstruction through variable elimination, frozen-variable
protection, and DRAT certification of preprocessed UNSAT proofs."""

import itertools
import random

from repro.netlist import elaborate
from repro.netlist.sat import (
    CNF,
    ProofLog,
    Solver,
    check_drat,
    check_equivalence,
    preprocess,
)

from test_sat import _pigeonhole


def _brute_force_model(num_vars, clauses):
    """Smallest-index-first exhaustive SAT oracle (<= 16 vars)."""
    assert num_vars <= 16
    for bits in itertools.product((False, True), repeat=num_vars):
        model = {v: bits[v - 1] for v in range(1, num_vars + 1)}
        if all(any((lit > 0) == model[abs(lit)] for lit in clause)
               for clause in clauses):
            return model
    return None


def _satisfies(clauses, model):
    return all(any((lit > 0) == model[abs(lit)] for lit in clause)
               for clause in clauses)


def _random_cnf(rng, num_vars, num_clauses):
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, 4)
        vs = rng.sample(range(1, num_vars + 1), min(width, num_vars))
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return clauses


def test_preprocess_equisatisfiable_against_brute_force():
    """Random formulas: preprocessing preserves satisfiability, and a
    model of the simplified formula reconstructs to a model of the
    original."""
    rng = random.Random(2022)
    for trial in range(120):
        num_vars = rng.randint(4, 9)
        clauses = _random_cnf(rng, num_vars, rng.randint(num_vars,
                                                         3 * num_vars))
        original = _brute_force_model(num_vars, clauses)
        pre = preprocess(num_vars, clauses)
        if pre.unsat:
            assert original is None, f"trial {trial}: wrongly unsat"
            continue
        simplified = _brute_force_model(num_vars, pre.clauses)
        assert (simplified is None) == (original is None), \
            f"trial {trial}: verdict changed"
        if simplified is not None:
            full = pre.reconstruct(simplified)
            assert _satisfies(clauses, full), \
                f"trial {trial}: reconstructed model violates original"


def test_preprocess_solver_models_reconstruct():
    """End to end with the real solver on the simplified clauses."""
    rng = random.Random(7)
    for trial in range(60):
        num_vars = rng.randint(6, 12)
        clauses = _random_cnf(rng, num_vars, 2 * num_vars)
        pre = preprocess(num_vars, clauses)
        if pre.unsat:
            assert _brute_force_model(num_vars, clauses) is None
            continue
        result = Solver(num_vars, pre.clauses).solve()
        if result.satisfiable:
            full = pre.reconstruct(result.model)
            assert _satisfies(clauses, full)
        else:
            assert _brute_force_model(num_vars, clauses) is None


def test_preprocess_respects_frozen_variables():
    rng = random.Random(11)
    for _ in range(40):
        num_vars = rng.randint(5, 10)
        clauses = _random_cnf(rng, num_vars, 2 * num_vars)
        frozen = set(rng.sample(range(1, num_vars + 1), 3))
        pre = preprocess(num_vars, clauses, frozen=frozen)
        eliminated = {var for var, _ in pre._elim_stack}
        assert not (eliminated & frozen)


def test_preprocess_derives_unsat_alone():
    # Eliminating variable 1 resolves (1) with (-1, 2) into (2), and
    # eliminating variable 2 then resolves (2) with (-2) into the empty
    # clause: no search.
    clauses = [(1,), (-1, 2), (-2,)]
    proof = ProofLog()
    pre = preprocess(2, clauses, proof=proof)
    assert pre.unsat
    assert () in pre.clauses
    cnf = CNF()
    cnf.new_var()
    cnf.new_var()
    for clause in clauses:
        cnf.add_clause(*clause)
    assert check_drat(cnf, proof).ok


def test_preprocessed_pigeonhole_proof_certifies():
    """The classic satellite: preprocess a pigeonhole formula, solve the
    residue, and RUP-check the combined DRAT log against the *original*
    formula — BVE resolvents and the deletions of their parents must
    check without RAT support."""
    for holes in (3, 4):
        num_vars, clauses = _pigeonhole(holes + 1, holes)
        proof = ProofLog()
        pre = preprocess(num_vars, clauses, proof=proof)
        assert not pre.unsat
        solver = Solver(num_vars, pre.clauses)
        solver.set_proof(proof)
        result = solver.solve()
        assert not result.satisfiable
        cnf = CNF()
        for _ in range(num_vars):
            cnf.new_var()
        for clause in clauses:
            cnf.add_clause(*clause)
        verdict = check_drat(cnf, proof)
        assert verdict.ok, f"php({holes + 1},{holes}): {verdict}"


_NEEDLE_MULT = """
module mult (input [3:0] a, input [3:0] b, output [7:0] p);
  assign p = a * b + ((a == 5) & (b == 7));
endmodule
"""

_PLAIN_MULT = """
module mult (input [3:0] a, input [3:0] b, output [7:0] p);
  assign p = a * b;
endmodule
"""


def test_counterexample_reconstructs_through_preprocessing():
    """A single-assignment bug (a=5, b=7) with the simulation check
    disabled forces the solver + BVE path: the model of the simplified
    CNF must reconstruct, replay, and name the needle exactly."""
    before = elaborate(_PLAIN_MULT, top="mult")
    after = elaborate(_NEEDLE_MULT, top="mult")
    verdict = check_equivalence(before, after, sim_patterns=0)
    assert not verdict.equivalent
    assert not verdict.refuted_by_simulation
    assert verdict.preprocessor is not None
    cex = verdict.counterexample
    assert cex is not None and cex.diff
    assert cex.packed_inputs() == {"a": 5, "b": 7}

