"""Tests for the SAT subsystem (repro.netlist.sat): CNF encoding, the CDCL
solver, and miter-based equivalence checking with counterexample replay."""

import functools
import itertools
import random

import pytest

from repro.netlist import (
    AIG,
    GateType,
    Interpreter,
    InterpreterError,
    Netlist,
    elaborate,
    from_netlist,
    simulate,
)
from repro.netlist.aig import aig_not
from repro.netlist.opt import fraig, optimize
from repro.netlist.sat import (
    CECError,
    CNF,
    ProofLog,
    Solver,
    aig_lit_sat,
    check_drat,
    check_equivalence,
    encode_aig_cone,
    replay_counterexample,
    solve,
)
from repro.netlist.sat import cec
from repro.obs import Tracer, use_tracer

from test_elaborate import ALU
from test_proof import MULT_A, MULT_B, _miter_cnf
from test_serialize import designs

# ---------------------------------------------------------------------------
# CNF / Tseitin encoding of lowered gates
# ---------------------------------------------------------------------------

_GATE_CASES = [
    (GateType.BUF, 1), (GateType.NOT, 1),
    (GateType.AND, 2), (GateType.AND, 3),
    (GateType.NAND, 2), (GateType.NAND, 3),
    (GateType.OR, 2), (GateType.OR, 3),
    (GateType.NOR, 2), (GateType.NOR, 3),
    (GateType.XOR, 2), (GateType.XOR, 3),
    (GateType.XNOR, 2), (GateType.XNOR, 3),
    (GateType.MUX, 3),
]


@pytest.mark.parametrize("gtype,arity", _GATE_CASES,
                         ids=[f"{g.value}{n}" for g, n in _GATE_CASES])
def test_gate_encoding_matches_simulator(gtype, arity):
    """Exhaustive truth-table check: one gate lowered to the AIG and
    encoded (with XOR/MUX matching) admits exactly the assignments the
    bit-level simulator produces."""
    netlist = Netlist("g")
    inputs = [netlist.add_input(f"i{k}") for k in range(arity)]
    out = netlist.add_gate(gtype, inputs)
    netlist.add_output("y", out)
    aig = from_netlist(netlist)
    root = dict(aig.outputs)["y"]
    leaf = {aig.node_name(nid): nid for nid in aig.inputs}

    for assignment in itertools.product((0, 1), repeat=arity):
        expected, _ = simulate(
            netlist, {f"i{k}": v for k, v in enumerate(assignment)})
        cnf = CNF()
        var_map = encode_aig_cone(cnf, aig, [root])
        pins = [var_map[leaf[f"i{k}"]] for k in range(arity)]
        units = [(v if value else -v,) for v, value in zip(pins, assignment)]
        # Forcing the correct output value must be satisfiable...
        y = aig_lit_sat(var_map, root)
        ok = solve(cnf.num_vars,
                   cnf.clauses + units + [(y if expected["y"] else -y,)])
        assert ok.satisfiable
        # ...and forcing the wrong one must not.
        bad = solve(cnf.num_vars,
                    cnf.clauses + units + [(-y if expected["y"] else y,)])
        assert not bad.satisfiable


def test_cnf_rejects_unknown_literals():
    cnf = CNF()
    cnf.new_var()
    with pytest.raises(ValueError):
        cnf.add_clause(2)
    with pytest.raises(ValueError):
        cnf.add_clause(0)


# ---------------------------------------------------------------------------
# CDCL solver
# ---------------------------------------------------------------------------


def test_solver_trivial_cases():
    assert solve(0, []).satisfiable
    assert not solve(0, [()]).satisfiable  # empty clause
    assert solve(1, [(1,)]).model == {1: True}
    assert not solve(1, [(1,), (-1,)]).satisfiable
    assert solve(2, [(1, -1)]).satisfiable  # tautology dropped


def test_solver_implication_chain():
    clauses = [(1,)] + [(-i, i + 1) for i in range(1, 50)]
    result = solve(50, clauses)
    assert result.satisfiable
    assert all(result.model[v] for v in range(1, 51))


def _pigeonhole(pigeons, holes):
    def var(p, h):
        return p * holes + h + 1
    clauses = [tuple(var(p, h) for h in range(holes))
               for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append((-var(p1, h), -var(p2, h)))
    return pigeons * holes, clauses


def test_solver_pigeonhole_unsat():
    """PHP forces real conflict analysis, learning and backjumping."""
    for pigeons in (3, 4, 5):
        num_vars, clauses = _pigeonhole(pigeons, pigeons - 1)
        result = solve(num_vars, clauses)
        assert not result.satisfiable
        assert result.stats.conflicts > 0
        assert result.stats.learned_clauses > 0


def test_solver_pigeonhole_sat_when_holes_suffice():
    num_vars, clauses = _pigeonhole(4, 4)
    result = solve(num_vars, clauses)
    assert result.satisfiable


def _eval_clauses(clauses, model):
    return all(
        any(model[abs(lit)] == (lit > 0) for lit in clause)
        for clause in clauses
    )


def test_solver_randomized_against_brute_force():
    rng = random.Random(7)
    for _ in range(30):
        num_vars = rng.randint(4, 9)
        clauses = [
            tuple(
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, num_vars + 1), 3)
            )
            for _ in range(rng.randint(5, 4 * num_vars))
        ]
        result = solve(num_vars, clauses)
        brute = any(
            _eval_clauses(clauses,
                          dict(enumerate(bits, start=1)))
            for bits in itertools.product((False, True), repeat=num_vars)
        )
        assert result.satisfiable == brute
        if result.satisfiable:
            assert _eval_clauses(clauses, result.model)


# ---------------------------------------------------------------------------
# Equivalence checking
# ---------------------------------------------------------------------------

COUNTER = """
module counter #(parameter W = 4) (
  input clk, input rst, input en,
  output reg [W-1:0] q, output wrap
);
  assign wrap = q == {W{1'b1}};
  always @(posedge clk) begin
    if (rst) q <= 0;
    else if (en) q <= q + 1;
  end
endmodule
"""


def test_identical_netlists_are_equivalent():
    a = elaborate(COUNTER, top="counter")
    b = elaborate(COUNTER, top="counter")
    verdict = check_equivalence(a, b)
    assert verdict.equivalent
    assert verdict.counterexample is None
    assert verdict.compared == a.num_outputs + a.num_registers


def test_inequivalent_combinational_netlists_refuted():
    before = elaborate(
        "module m(input a, input b, output y); assign y = a & b; endmodule")
    after = elaborate(
        "module m(input a, input b, output y); assign y = a | b; endmodule")
    verdict = check_equivalence(before, after)
    assert not verdict.equivalent
    cex = verdict.counterexample
    assert cex is not None and cex.diff
    kind, name, b_val, a_val = cex.diff[0]
    assert (kind, name) == ("output", "y")
    assert b_val != a_val
    # The counterexample must actually distinguish: exactly one input set.
    assert sorted(cex.inputs) == ["a", "b"]
    assert sum(cex.inputs.values()) == 1


def test_corrupted_next_state_function_refuted():
    before = elaborate(COUNTER, top="counter")
    after = elaborate(COUNTER, top="counter")
    regs = after.register_map()
    name, gid = sorted(regs.items())[0]
    data = after.gates[gid].fanins[0]
    after.set_fanins(gid, (after.make_not(data),))
    verdict = check_equivalence(before, after)
    assert not verdict.equivalent
    assert any(kind == "next_state" for kind, *_ in
               verdict.counterexample.diff)


def test_interface_mismatch_raises():
    a = elaborate("module m(input x, output y); assign y = x; endmodule")
    b = elaborate("module m(input z, output y); assign y = z; endmodule")
    with pytest.raises(CECError, match="primary inputs differ"):
        check_equivalence(a, b)
    c = elaborate("module m(input x, output w); assign w = x; endmodule")
    with pytest.raises(CECError, match="primary outputs differ"):
        check_equivalence(a, c)


def test_swept_dead_register_still_equivalent():
    source = """
    module m(input clk, input d, output y);
      reg live, dead;
      always @(posedge clk) begin
        live <= d;
        dead <= ~d;
      end
      assign y = live;
    endmodule
    """
    before = elaborate(source, top="m")
    after = optimize(before).netlist
    assert after.num_registers < before.num_registers
    assert check_equivalence(before, after).equivalent


def test_counterexample_replays_on_interpreter_oracle():
    """A refutation can be replayed word-level on the vector interpreter."""
    before = elaborate(COUNTER, top="counter")
    broken = optimize(before).netlist
    name, net = broken.outputs[0]
    assert name == "q[0]"
    broken.outputs[0] = (name, broken.make_not(net))
    verdict = check_equivalence(before, broken)
    assert not verdict.equivalent
    cex = verdict.counterexample

    interp = Interpreter(COUNTER, top="counter")
    interp.load_state(cex.packed_state())
    outputs = interp.step(cex.packed_inputs())
    # The interpreter (ground truth) agrees with the original netlist on
    # every differing output bit, not with the broken one.
    for kind, bit_name, before_val, _ in cex.diff:
        if kind != "output":
            continue
        base, _, index = bit_name.partition("[")
        index = int(index.rstrip("]")) if index else 0
        assert (outputs[base] >> index) & 1 == before_val


_PLAIN_MULT = """
module mult (input [3:0] a, input [3:0] b, output [7:0] p);
  assign p = a * b;
endmodule
"""

_NEEDLE_MULT = """
module mult (input [3:0] a, input [3:0] b, output [7:0] p);
  assign p = a * b + ((a == 5) & (b == 7));
endmodule
"""


def test_solver_counterexample_replays_through_simulator():
    """A single-assignment bug (a=5, b=7) with the simulation check
    disabled is refuted by the solver: the input assignment read off its
    model must replay through the simulator and name the needle."""
    before = elaborate(_PLAIN_MULT, top="mult")
    after = elaborate(_NEEDLE_MULT, top="mult")
    verdict = check_equivalence(before, after, sim_patterns=0)
    assert not verdict.equivalent
    assert not verdict.refuted_by_simulation
    assert verdict.cnf_clauses > 0
    cex = verdict.counterexample
    assert cex is not None and cex.diff
    assert cex.packed_inputs() == {"a": 5, "b": 7}
    assert replay_counterexample(before, after, cex.inputs,
                                 cex.state) == cex.diff


def test_interpreter_state_injection_validates():
    interp = Interpreter(COUNTER, top="counter")
    with pytest.raises(InterpreterError, match="does not name a register"):
        interp.load_state({"counter.bogus": 1})
    with pytest.raises(InterpreterError, match="does not fit"):
        interp.load_state({"counter.q": 16})
    interp.load_state({"counter.q": 9})
    assert interp.flat_state() == {"counter.q": 9}
    assert interp.step({"clk": 0, "rst": 0, "en": 1}) == {"q": 9, "wrap": 0}
    assert interp.flat_state() == {"counter.q": 10}


def test_solver_stats_surface_through_equivalence_result():
    # The two multipliers do not hash-merge, and with simulation (and so
    # the sweep) off the differing root pairs go straight to the solver.
    before = elaborate(MULT_A)
    after = elaborate(MULT_B)
    verdict = check_equivalence(before, after, sim_patterns=0)
    assert verdict.equivalent
    assert verdict.hash_proven < verdict.compared
    stats = verdict.solver_stats.to_dict()
    assert stats["propagations"] > 0
    assert verdict.encode_seconds > 0
    assert verdict.solve_seconds > 0
    assert verdict.cnf_clauses > 0


@pytest.mark.parametrize("width,counters", [
    (4, dict(conflicts=233, propagations=10_445, decisions=274,
             cnf_vars=106, cnf_clauses=355, proof_clauses=233)),
    (5, dict(conflicts=1708, propagations=99_362, decisions=2210,
             cnf_vars=179, cnf_clauses=617, proof_clauses=1708)),
])
def test_serial_solve_counters_pinned(width, counters, monkeypatch):
    """The in-process stage-3/4 solve is one deterministic program: the
    CNF it encodes and the CDCL search on the carry-save vs shift-add
    multiplier miter are pinned exactly.

    Both miters fit the cube budget, so it is closed here to keep them
    on the solve path; ``sim_patterns=0`` would do that too, but it also
    drops the phase seeding the pinned search depends on."""
    monkeypatch.setattr(cec, "_CUBE_BITS", 0)
    a = designs.multiplier(width)
    b = designs.shift_add_multiplier(width)
    verdict = check_equivalence(elaborate(a.src, top=a.top),
                                elaborate(b.src, top=b.top), certify=True)
    assert verdict.equivalent and verdict.proof_checked is True
    assert verdict.sweep_proven == 0
    stats = verdict.solver_stats
    assert dict(
        conflicts=stats.conflicts, propagations=stats.propagations,
        decisions=stats.decisions, cnf_vars=verdict.cnf_vars,
        cnf_clauses=verdict.cnf_clauses,
        proof_clauses=verdict.proof_clauses,
    ) == counters


def test_miter_of_gate_free_design():
    src = "module w(input [3:0] a, output [3:0] y); assign y = a; endmodule"
    a = elaborate(src)
    b = elaborate(src)
    assert check_equivalence(a, b).equivalent


# ---------------------------------------------------------------------------
# AIG-native encoding and miter
# ---------------------------------------------------------------------------


def _and_xor_netlist(swap=False):
    netlist = Netlist("t")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    c = netlist.add_input("c")
    ab = netlist.make_and(b, a) if swap else netlist.make_and(a, b)
    netlist.add_output("y", netlist.make_xor(ab, c))
    return netlist


def test_encode_aig_cone_three_clauses_per_node():
    aig = AIG()
    a = aig.add_input("a")
    b = aig.add_input("b")
    c = aig.add_input("c")
    root = aig.aig_and(aig.aig_and(a, b), c)
    cnf = CNF()
    var_map = encode_aig_cone(cnf, aig, [root])
    # 3 leaf vars + 2 AND nodes at 3 clauses each.
    assert cnf.num_vars == 5
    assert len(cnf.clauses) == 6
    # Complemented edges are pure literal negation: no extra clauses.
    assert aig_lit_sat(var_map, root ^ 1) == -aig_lit_sat(var_map, root)


def test_encode_aig_cone_var_map_reuse():
    aig = AIG()
    a = aig.add_input("a")
    b = aig.add_input("b")
    shared = aig.aig_and(a, b)
    other = aig.aig_and(shared, aig_not(a))
    cnf = CNF()
    var_map = encode_aig_cone(cnf, aig, [shared])
    clauses_first = len(cnf.clauses)
    encode_aig_cone(cnf, aig, [other], var_map=var_map)
    # Only the new node's three clauses were appended.
    assert len(cnf.clauses) == clauses_first + 3


def test_aig_miter_hash_proves_commuted_operands():
    before = _and_xor_netlist(swap=False)
    after = _and_xor_netlist(swap=True)
    verdict = check_equivalence(before, after)
    assert verdict.equivalent
    assert verdict.hash_proven == verdict.compared == 1
    assert verdict.cnf_clauses == 0
    assert verdict.solve_seconds == 0.0


# ---------------------------------------------------------------------------
# Incremental solver: assumptions, added clauses, reuse
# ---------------------------------------------------------------------------


def test_solver_assumptions_do_not_commit_the_instance():
    # (x | y) is satisfiable, UNSAT under (-x, -y), satisfiable again.
    solver = Solver(2, [(1, 2)])
    assert solver.solve(assumptions=(-1, -2)).satisfiable is False
    result = solver.solve()
    assert result.satisfiable
    assert result.model[1] or result.model[2]
    # Assumptions appear in the model when satisfiable with them.
    result = solver.solve(assumptions=(-1,))
    assert result.satisfiable
    assert result.model[1] is False and result.model[2] is True


def test_solver_incremental_clause_addition():
    solver = Solver(2, [(1, 2)])
    assert solver.solve().satisfiable
    solver.add_clause((-1,))
    assert solver.solve().satisfiable
    solver.add_clause((-2,))
    assert not solver.solve().satisfiable
    # Once the clause set itself is UNSAT, it stays UNSAT.
    assert not solver.solve().satisfiable


def test_solver_ensure_vars_extends_universe():
    solver = Solver(1, [(1,)])
    solver.ensure_vars(3)
    solver.add_clause((-2, 3))
    solver.add_clause((2,))
    result = solver.solve()
    assert result.satisfiable
    assert result.model[2] and result.model[3]
    with pytest.raises(ValueError):
        solver.add_clause((4,))
    with pytest.raises(ValueError):
        solver.solve(assumptions=(4,))


def test_solver_assumption_gated_miters():
    # Two selector-gated contradictions over one shared instance: each
    # selector is UNSAT alone, the instance stays reusable throughout —
    # the FRAIG query pattern.
    solver = Solver(3, [(1,)])
    solver.ensure_vars(4)
    solver.add_clause((-3, -1))        # t1 -> ~x
    solver.add_clause((-4, 1))         # t2 -> x (consistent)
    assert not solver.solve(assumptions=(3,)).satisfiable
    assert solver.solve(assumptions=(4,)).satisfiable
    assert not solver.solve(assumptions=(3,)).satisfiable
    assert solver.solve().satisfiable


# ---------------------------------------------------------------------------
# Structure-aware AIG encoding: XOR / MUX / MAJ pattern matching
# ---------------------------------------------------------------------------


def _xor_cone(aig, a, b):
    # a ^ b == ~(~(a & ~b) & ~(~a & b))
    t0 = aig.aig_and(a, aig_not(b))
    t1 = aig.aig_and(aig_not(a), b)
    return aig_not(aig.aig_and(aig_not(t0), aig_not(t1)))


def _mux_cone(aig, s, t, e):
    # s ? t : e == ~(~(s & t) & ~(~s & e))
    return aig_not(aig.aig_and(aig_not(aig.aig_and(s, t)),
                               aig_not(aig.aig_and(aig_not(s), e))))


def _maj_cone(aig, a, b, c):
    # MAJ(a, b, c) == (a&b) | (a&c) | (b&c), OR tree by De Morgan.
    ab = aig.aig_and(a, b)
    ac = aig.aig_and(a, c)
    bc = aig.aig_and(b, c)
    return aig_not(aig.aig_and(aig.aig_and(aig_not(ab), aig_not(ac)),
                               aig_not(bc)))


_STRUCTURAL_CASES = [
    ("xor", _xor_cone, 2, lambda a, b: a ^ b),
    ("mux", _mux_cone, 3, lambda s, t, e: t if s else e),
    ("maj", _maj_cone, 3, lambda a, b, c: (a + b + c) >= 2),
]


@pytest.mark.parametrize("name,build,arity,truth", _STRUCTURAL_CASES,
                         ids=[c[0] for c in _STRUCTURAL_CASES])
def test_structural_aig_encoding_matches_truth_table(name, build, arity,
                                                     truth):
    """Exhaustive check that the pattern-matched compact encodings admit
    exactly the assignments the boolean function does, and that they are
    smaller than plain Tseitin over the same cone."""
    for structural in (False, True):
        aig = AIG()
        ins = [aig.add_input(f"i{k}") for k in range(arity)]
        root = build(aig, *ins)
        cnf = CNF()
        var_map = encode_aig_cone(cnf, aig, [root], structural=structural)
        if structural:
            structural_clauses = len(cnf.clauses)
        else:
            plain_clauses = len(cnf.clauses)
        root_lit = aig_lit_sat(var_map, root)
        for bits in itertools.product((False, True), repeat=arity):
            assume = [aig_lit_sat(var_map, lit) * (1 if val else -1)
                      for lit, val in zip(ins, bits)]
            expected = bool(truth(*bits))
            solver = Solver(cnf.num_vars, cnf.clauses)
            good = solver.solve(
                assumptions=assume + [root_lit if expected else -root_lit])
            assert good.satisfiable, (name, structural, bits)
            bad = solver.solve(
                assumptions=assume + [-root_lit if expected else root_lit])
            assert not bad.satisfiable, (name, structural, bits)
    assert structural_clauses < plain_clauses, name


def test_structural_encoding_verdict_parity_on_alu():
    """The compact encodings must not change any verdict: the miter of
    the ALU against its optimized self is UNSAT under plain Tseitin and
    under structural matching alike."""
    netlist = elaborate(ALU, top="alu")
    optimized = optimize(netlist).netlist
    aig, _, _, named = cec._lower_miter(netlist, optimized)
    pairs = [(b, a) for _, _, b, a in named if b != a]
    assert pairs
    sizes = {}
    for structural in (False, True):
        cnf = CNF()
        var_map = encode_aig_cone(cnf, aig, [lit for pair in pairs
                                             for lit in pair],
                                  structural=structural)
        cec._assert_disagreement(cnf, [
            (aig_lit_sat(var_map, b), aig_lit_sat(var_map, a))
            for b, a in pairs])
        sizes[structural] = len(cnf.clauses)
        result = Solver(cnf.num_vars, cnf.clauses).solve()
        assert not result.satisfiable, f"structural={structural}"
    assert sizes[True] < sizes[False]


# ---------------------------------------------------------------------------
# Simulation refutation + miter sweeping stages of check_equivalence
# ---------------------------------------------------------------------------


def test_broken_design_refuted_by_simulation_without_search():
    """An always-wrong design must fall to the packed-simulation check:
    zero solver conflicts, a replay-confirmed counterexample."""
    good = """
module add(input [7:0] a, input [7:0] b, output [8:0] s);
  assign s = a + b;
endmodule
"""
    bad = """
module add(input [7:0] a, input [7:0] b, output [8:0] s);
  assign s = a + b + 1;
endmodule
"""
    verdict = check_equivalence(elaborate(good, top="add"),
                                elaborate(bad, top="add"))
    assert not verdict.equivalent
    assert verdict.refuted_by_simulation
    assert verdict.solver_stats.conflicts == 0
    assert verdict.counterexample is not None
    assert verdict.counterexample.diff  # replay confirmed it


def test_sweep_auto_skips_sparse_miters(monkeypatch):
    """The sweep policy (:func:`cec._sweep_worthwhile`) must leave small
    cross-implementation miters alone.  With exhaustive simulation off,
    stage 1 only refutes, so the miter reaches the sweep decision."""
    monkeypatch.setattr(cec, "_EXHAUSTIVE_BITS", 0)
    tracer = Tracer()
    with use_tracer(tracer):
        verdict = check_equivalence(elaborate(MULT_A), elaborate(MULT_B))
    assert verdict.hash_proven < verdict.compared
    assert verdict.equivalent
    assert verdict.sim_proven == 0 and verdict.sweep_proven == 0
    names = {record.name for record in tracer.spans()}
    assert "cec.simcheck" in names and "cec.sweep" not in names


@functools.lru_cache(maxsize=None)
def _alu16():
    """The benchmark's W=16 ALU, elaborated and optimized: the miter
    against its optimized netlist is the one CEC sweeps."""
    design = designs.alu(16)
    netlist = elaborate(design.src, top=design.top)
    return design, netlist, optimize(netlist).netlist


@pytest.mark.parametrize("certify", [False, True])
def test_post_sweep_simulation_refutes_what_stage_one_missed(certify):
    """A bug on one ``a`` value of one opcode slips past stage 1's 64
    random patterns; the sweep proves the 15 other output bits, and the
    distinguishing patterns its refuted candidates appended catch the
    last pair in the post-sweep re-check, before any top-level solve."""
    design, _, optimized = _alu16()
    buggy = design.src.replace(
        "3'd6: y = a ^ b;",
        "3'd6: y = (a ^ b) ^ {15'd0, a == 16'hBEEF};")
    assert buggy != design.src
    tracer = Tracer()
    with use_tracer(tracer):
        verdict = check_equivalence(elaborate(buggy, top=design.top),
                                    optimized, certify=certify)
    assert not verdict.equivalent and verdict.refuted_by_simulation
    assert verdict.sweep_proven == 15 and verdict.compared == 16
    assert verdict.solver_stats.conflicts == 0
    first, post = _simcheck_spans(tracer)
    assert not first["refuted"] and first["pairs"] == 16
    assert post["post_sweep"] is True and post["refuted"] is True
    assert post["pairs"] == 1 and post["patterns"] > first["patterns"]
    assert "cec.solve" not in {record.name for record in tracer.spans()}
    cex = verdict.counterexample
    inputs = cex.packed_inputs()
    assert inputs["a"] == 0xBEEF and inputs["op"] == 6
    # The counterexample replays: the buggy design's interpreter differs
    # from the intended result on exactly the differing bit.
    got = Interpreter(buggy, top=design.top).step(inputs)["y"]
    assert got == (0xBEEF ^ inputs["b"]) ^ 1
    [(kind, name, buggy_bit, good_bit)] = cex.diff
    assert (kind, name) == ("output", "y[0]")
    assert (buggy_bit, good_bit) == (got & 1, (got ^ 1) & 1)


def test_unmerged_sweep_hands_every_pair_to_the_solve(monkeypatch):
    """With no sweep rounds the miter comes back unmerged: every pair
    passes the post-sweep re-check and the top-level solve proves them,
    with its DRAT proof checked."""
    monkeypatch.setattr(fraig, "_MAX_ROUNDS", 0)
    _, netlist, optimized = _alu16()
    tracer = Tracer()
    with use_tracer(tracer):
        verdict = check_equivalence(netlist, optimized, certify=True)
    assert verdict.equivalent and verdict.proof_checked is True
    assert verdict.sweep_proven == 0
    assert verdict.solver_stats.conflicts > 0
    assert verdict.lemma_checks > 0
    first, post = _simcheck_spans(tracer)
    assert post["post_sweep"] is True and not post["refuted"]
    assert post["pairs"] == first["pairs"] == verdict.compared
    names = [record.name for record in tracer.spans()]
    assert names.count("cec.solve") == 1 and names.count("cec.encode") == 1


@pytest.mark.parametrize("sim_patterns,bug", [(64, "AIG lowering bug"),
                                              (0, "CNF encoding bug")])
def test_a_counterexample_that_does_not_replay_is_an_error(
        monkeypatch, sim_patterns, bug):
    """A distinguishing assignment the netlists do not disagree on — from
    simulation or from a solver model — raises instead of refuting."""
    monkeypatch.setattr(cec, "replay_counterexample", lambda *args: [])
    before = elaborate(MULT_A)
    after = elaborate(MULT_A.replace("a * b", "a * b + 1"))
    with pytest.raises(CECError, match=bug):
        check_equivalence(before, after, sim_patterns=sim_patterns)


# ---------------------------------------------------------------------------
# Exhaustive simulation: small uncertified miters skip the solve
# ---------------------------------------------------------------------------


def _mult_pair(width):
    a = designs.multiplier(width)
    b = designs.shift_add_multiplier(width)
    return elaborate(a.src, top=a.top), elaborate(b.src, top=b.top)


def _simcheck_spans(tracer):
    return [record.args for record in tracer.spans()
            if record.name == "cec.simcheck"]


@pytest.mark.parametrize("width", [4, 5])
def test_small_miter_proven_by_exhaustive_simulation(width):
    before, after = _mult_pair(width)
    tracer = Tracer()
    with use_tracer(tracer):
        verdict = check_equivalence(before, after)
    assert verdict.equivalent
    assert verdict.hash_proven < verdict.compared
    assert verdict.sim_proven == verdict.compared - verdict.hash_proven
    assert verdict.sweep_proven == 0
    assert verdict.solver_stats.conflicts == 0
    assert verdict.solver_stats.propagations == 0
    assert verdict.cnf_clauses == 0
    assert verdict.to_report()["sim_proven"] == verdict.sim_proven
    names = {record.name for record in tracer.spans()}
    assert "cec.solve" not in names and "cec.encode" not in names
    [sim] = _simcheck_spans(tracer)
    assert sim["exhaustive"] is True
    assert sim["patterns"] == 2 ** (2 * width)
    [cec_span] = [record.args for record in tracer.spans()
                  if record.name == "cec"]
    assert cec_span["sim_proven"] == verdict.sim_proven


def test_needle_bug_refuted_by_exhaustive_simulation():
    before, _ = _mult_pair(4)
    # Wrong on exactly one of the 256 input assignments.
    after = elaborate("""
module multiplier(input [3:0] a, input [3:0] b, output [7:0] p);
  assign p = (a * b) ^ {7'b0, (a == 4'd13) & (b == 4'd11)};
endmodule
""", top="multiplier")
    verdict = check_equivalence(before, after)
    assert not verdict.equivalent
    assert verdict.refuted_by_simulation
    assert verdict.solver_stats.conflicts == 0
    cex = verdict.counterexample
    assert cex.packed_inputs() == {"a": 13, "b": 11}
    assert replay_counterexample(before, after, cex.inputs,
                                 cex.state) == cex.diff
    # Certified, the miter fits the cube budget, so exhaustive
    # simulation still finds the needle before any proof is built.
    certified = check_equivalence(before, after, certify=True)
    assert not certified.equivalent
    assert certified.refuted_by_simulation
    assert certified.solver_stats.conflicts == 0
    assert certified.counterexample.packed_inputs() == {"a": 13, "b": 11}
    # Without simulation, SAT finds it.
    solved = check_equivalence(before, after, certify=True, sim_patterns=0)
    assert not solved.equivalent
    assert not solved.refuted_by_simulation
    assert solved.solver_stats.conflicts > 0
    assert solved.counterexample.packed_inputs() == {"a": 13, "b": 11}


def test_exhaustive_budget_boundary(monkeypatch):
    """The budget is ``num_nodes << leaves`` bits, inclusive: one bit
    less sends the same miter down the random-stimulus path."""
    before, after = _mult_pair(4)
    aig, pi_lits, latch_lits, _ = cec._lower_miter(before, after)
    leaves = len(pi_lits) + len(latch_lits)
    bits = aig.num_nodes << leaves
    for budget, exhaustive in ((bits, True), (bits - 1, False)):
        monkeypatch.setattr(cec, "_EXHAUSTIVE_BITS", budget)
        tracer = Tracer()
        with use_tracer(tracer):
            verdict = check_equivalence(before, after)
        assert verdict.equivalent
        [sim] = _simcheck_spans(tracer)
        assert sim["exhaustive"] is exhaustive
        assert sim["patterns"] == (2 ** leaves if exhaustive else 64)
        assert (verdict.sim_proven > 0) is exhaustive
        assert (verdict.solver_stats.conflicts > 0) is not exhaustive


def test_sequential_next_state_bug_refuted_exhaustively():
    """Latches are free variables of the register-correspondence miter,
    so they are leaves of the exhaustive enumeration too."""
    good = """
module acc(input clk, input en, output [4:0] y);
  reg [4:0] q;
  always @(posedge clk) q <= en ? q + 5'd1 : q;
  assign y = q;
endmodule
"""
    bad = good.replace("q <= en ? q + 5'd1 : q;",
                       "q <= en ? (q == 5'd21 ? 5'd3 : q + 5'd1) : q;")
    before = elaborate(good, top="acc")
    after = elaborate(bad, top="acc")
    tracer = Tracer()
    with use_tracer(tracer):
        verdict = check_equivalence(before, after)
    assert not verdict.equivalent and verdict.refuted_by_simulation
    [sim] = _simcheck_spans(tracer)
    assert sim["exhaustive"] is True
    assert sim["patterns"] == 2 ** (before.num_inputs
                                    + before.num_registers)
    cex = verdict.counterexample
    assert cex.packed_state() == {"acc.q": 21}
    assert cex.inputs["en"] == 1
    assert all(kind == "next_state" for kind, *_ in cex.diff)
    assert replay_counterexample(before, after, cex.inputs,
                                 cex.state) == cex.diff


@pytest.mark.parametrize("evidence", ["certify", "proof"])
def test_drat_evidence_gets_a_cube_proof(evidence):
    """A certified run or a caller-supplied proof log on a miter within
    the cube budget is decided by exhaustive simulation and logs a
    half-leaf cube-tree proof instead of solving; certified, the proof
    is checked."""
    before, after = elaborate(MULT_A), elaborate(MULT_B)
    log = ProofLog()
    options = (dict(certify=True) if evidence == "certify"
               else dict(proof=log))
    tracer = Tracer()
    with use_tracer(tracer):
        verdict = check_equivalence(before, after, **options)
    assert verdict.equivalent
    assert verdict.sim_proven == verdict.compared - verdict.hash_proven > 0
    assert verdict.solver_stats.conflicts == 0
    assert verdict.solver_stats.propagations == 0
    n = 2 * 4
    assert verdict.proof_clauses == 2 ** n + 2 ** (n - 1) - 1
    assert verdict.cnf_clauses > 0
    names = [record.name for record in tracer.spans()]
    assert "cec.solve" not in names
    [cube] = [record.args for record in tracer.spans()
              if record.name == "cec.cube"]
    assert cube["leaves"] == n and cube["lemmas"] == verdict.proof_clauses
    if evidence == "certify":
        assert verdict.proof_checked is True
        assert "cec.certify" in names
    else:
        # Logged, not checked: the log alone must check against the
        # (deterministic) encoding of the same miter.
        assert verdict.proof_checked is None
        assert log.num_added == verdict.proof_clauses
        cnf, _ = _miter_cnf(4)
        assert check_drat(cnf, log)


def test_cube_budget_boundary(monkeypatch):
    """The certified budget is the same ``num_nodes << leaves`` measure,
    inclusive: one bit less sends the miter to the solver."""
    before, after = _mult_pair(4)
    aig, pi_lits, latch_lits, _ = cec._lower_miter(before, after)
    bits = aig.num_nodes << (len(pi_lits) + len(latch_lits))
    assert bits <= cec._CUBE_BITS
    for budget, cube in ((bits, True), (bits - 1, False)):
        monkeypatch.setattr(cec, "_CUBE_BITS", budget)
        verdict = check_equivalence(before, after, certify=True)
        assert verdict.equivalent and verdict.proof_checked is True
        assert (verdict.sim_proven > 0) is cube
        assert (verdict.solver_stats.conflicts > 0) is not cube


@pytest.mark.parametrize("width", [3, 4, 5])
@pytest.mark.parametrize("bug", [False, True])
def test_cube_verdicts_agree_with_sat(width, bug):
    """Certified verdicts by cube tree equal the ``sim_patterns=0`` SAT
    path on multiplier pairs and their buggy variants, and every
    refutation replays."""
    a = designs.multiplier(width)
    b = designs.shift_add_multiplier(width, bug=bug)
    before = elaborate(a.src, top=a.top)
    after = elaborate(b.src, top=b.top)
    cube = check_equivalence(before, after, certify=True)
    sat = check_equivalence(before, after, certify=True, sim_patterns=0)
    assert cube.equivalent is sat.equivalent is (not bug)
    if bug:
        assert cube.refuted_by_simulation and not sat.refuted_by_simulation
        for verdict in (cube, sat):
            cex = verdict.counterexample
            assert cex.diff
            assert replay_counterexample(before, after, cex.inputs,
                                         cex.state) == cex.diff
    else:
        assert cube.sim_proven > 0 and cube.solver_stats.conflicts == 0
        assert sat.sim_proven == 0 and sat.solver_stats.conflicts > 0
        assert cube.proof_checked is sat.proof_checked is True
