"""Tests for ``optimize()`` and its steps (repro.netlist.opt).

Every step — lowering, each AIG pass, balancing — and the full default
``optimize()`` are verified on all the elaborator test designs twice
over: formally, by the SAT-based miter (``check_equivalence`` must return
UNSAT-proven equivalence), and dynamically, by randomized co-simulation
of the optimized netlist against both the unoptimized netlist and the
independent vector interpreter.
"""

import random

import pytest

from repro.netlist import (
    Interpreter,
    Netlist,
    GateType,
    elaborate,
    from_netlist,
    simulate,
    simulate_sequence,
    to_netlist,
)
from repro.netlist.opt import (
    OptimizationError,
    balance,
    fraig_sweep,
    optimize,
    rewrite_aig,
)
from repro.netlist.sat import check_equivalence
from repro.netlist.sim import _split_bit_name
from repro.obs import Tracer, use_tracer

from test_elaborate import (
    ALU,
    COUNTER,
    FORLOOP,
    FSM,
    MUXTREE,
    RCA,
    SHIFTER,
    SHIFTREG,
)

#: (name, source, top, params) — every design the elaborator suite exercises.
DESIGNS = [
    ("rca", RCA, "rca", None),
    ("alu", ALU, "alu", None),
    ("alu_w8", ALU, "alu", {"W": 8}),
    ("counter", COUNTER, "counter", None),
    ("fsm", FSM, "fsm", None),
    ("muxtree", MUXTREE, "muxtree", None),
    ("shifter", SHIFTER, "shifty", None),
    ("forloop", FORLOOP, "rev", None),
    ("shiftreg", SHIFTREG, "shiftreg", None),
]

DESIGN_IDS = [row[0] for row in DESIGNS]


def _word_widths(netlist):
    widths = {}
    for name in netlist.input_names():
        widths[name.split("[")[0]] = widths.get(name.split("[")[0], 0) + 1
    return widths


def _random_vectors(netlist, cycles, seed):
    rng = random.Random(seed)
    widths = _word_widths(netlist)
    return [
        {name: rng.getrandbits(width) for name, width in widths.items()}
        for _ in range(cycles)
    ]


def _run_lanes(cycle, input_names, output_names, num_state, sequences):
    """Run equal-length word-level input ``sequences`` in packed bit lanes.

    ``cycle(inputs, state, mask) -> (outputs, next_state)`` evaluates one
    packed cycle over per-bit values in ``input_names`` / ``output_names``
    order (lane ``j`` of every value is sequence ``j``); state powers up
    at 0.  Returns each lane's per-cycle output words, the shape of
    ``simulate_sequence`` per sequence.
    """
    lanes = len(sequences)
    mask = (1 << lanes) - 1
    in_bits = [_split_bit_name(name) for name in input_names]
    out_bits = [_split_bit_name(name) for name in output_names]
    state = (0,) * num_state
    results = [[] for _ in range(lanes)]
    for t in range(len(sequences[0])):
        inputs = [sum(((seq[t][base] >> index) & 1) << lane
                      for lane, seq in enumerate(sequences))
                  for base, index in in_bits]
        outs, state = cycle(inputs, state, mask)
        for lane, outputs in enumerate(results):
            words = {}
            for (base, index), value in zip(out_bits, outs):
                bit = (value >> lane) & 1
                words[base] = words.get(base, 0) | (bit << index)
            outputs.append(words)
    return results


def _reference_step(netlist, vector, state):
    """One word-level cycle through the per-gate reference simulator
    :func:`repro.netlist.simulate`; returns ``(outputs, next_state)``."""
    bits = {}
    for name in netlist.input_names():
        base, index = _split_bit_name(name)
        bits[name] = (vector[base] >> index) & 1
    outs, state = simulate(netlist, bits, state)
    words = {}
    for name, bit in outs.items():
        base, index = _split_bit_name(name)
        words[base] = words.get(base, 0) | (bit << index)
    return words, state


def _reference_sequence(netlist, vectors):
    """``simulate_sequence`` on the per-gate reference simulator."""
    state, results = {}, []
    for vector in vectors:
        outputs, state = _reference_step(netlist, vector, state)
        results.append(outputs)
    return results


def _assert_equivalent(before, after):
    verdict = check_equivalence(before, after)
    assert verdict.equivalent, (
        f"miter SAT: {verdict.counterexample.diff}"
    )


# ---------------------------------------------------------------------------
# Full pipeline, all designs, both oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,source,top,params", DESIGNS, ids=DESIGN_IDS)
def test_pipeline_sat_equivalence(name, source, top, params):
    netlist = elaborate(source, top=top, params=params)
    result = optimize(netlist)
    assert result.gates_after <= result.gates_before
    assert result.levels_after <= result.levels_before
    _assert_equivalent(netlist, result.netlist)


@pytest.mark.parametrize("name,source,top,params", DESIGNS, ids=DESIGN_IDS)
def test_pipeline_randomized_cosim(name, source, top, params):
    """Optimized netlist (compiled engine) vs the original netlist run by
    the per-gate reference simulator."""
    netlist = elaborate(source, top=top, params=params)
    optimized = optimize(netlist).netlist
    vectors = _random_vectors(netlist, 64, seed=hash(name) & 0xFFFF)
    assert simulate_sequence(optimized, vectors) == \
        _reference_sequence(netlist, vectors)


@pytest.mark.parametrize("name,source,top,params", DESIGNS, ids=DESIGN_IDS)
def test_pipeline_against_interpreter_oracle(name, source, top, params):
    """The optimized netlist must still match the independent interpreter."""
    optimized = optimize(elaborate(source, top=top, params=params)).netlist
    interp = Interpreter(source, top=top, params=params)
    vectors = _random_vectors(optimized, 32, seed=len(name))
    assert simulate_sequence(optimized, vectors) == interp.run(vectors)


#: Each step of ``optimize()`` alone, netlist to netlist, with no
#: never-worse guard that could hand back the input instead: ``strash``
#: is the bare lower/raise round trip every AIG pass runs inside.
PASSES = {
    "balance": balance,
    "fraig": lambda netlist: to_netlist(
        fraig_sweep(from_netlist(netlist)).aig),
    "rewrite": lambda netlist: to_netlist(rewrite_aig(from_netlist(netlist))),
    "strash": lambda netlist: to_netlist(from_netlist(netlist)),
}


@pytest.mark.parametrize("pass_name", sorted(PASSES))
@pytest.mark.parametrize("name,source,top,params", DESIGNS, ids=DESIGN_IDS)
def test_each_pass_individually_verified(name, source, top, params,
                                         pass_name):
    """Every single pass alone must preserve every design (SAT-proven)."""
    netlist = elaborate(source, top=top, params=params)
    transformed = PASSES[pass_name](netlist)
    _assert_equivalent(netlist, transformed)


@pytest.mark.parametrize("name,source,top,params", DESIGNS, ids=DESIGN_IDS)
def test_optimize_never_mutates_or_returns_its_input(name, source, top,
                                                     params):
    """A fresh, never-worse netlist, even where the guard keeps the input
    (the shifter raises to more gates than it was elaborated with)."""
    netlist = elaborate(source, top=top, params=params)
    digest = netlist.content_hash()
    result = optimize(netlist)
    assert result.netlist is not netlist
    assert netlist.content_hash() == digest
    assert result.gates_after <= netlist.num_gates
    assert result.levels_after <= netlist.logic_levels()


# ---------------------------------------------------------------------------
# Targeted unit tests: what lowering, raising and balancing fold away
# ---------------------------------------------------------------------------


def test_constprop_folds_dominating_constants():
    netlist = Netlist("t")
    a = netlist.add_input("a")
    dead = netlist.make_and(a, netlist.const0())
    keep = netlist.make_or(dead, a)
    netlist.add_output("y", keep)
    out = optimize(netlist).netlist
    # AND(a, 0) -> 0, OR(0, a) -> a: no combinational gates survive.
    assert out.num_gates == 0
    assert out.output_net("y") == out.input_net("a")


def test_constprop_folds_mux_with_constant_select():
    netlist = Netlist("t")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    m = netlist.make_mux(netlist.const1(), a, b)
    netlist.add_output("y", m)
    out = optimize(netlist).netlist
    assert out.num_gates == 0
    assert out.output_net("y") == out.input_net("b")


def test_constprop_strength_reduces_mux_with_constant_data():
    netlist = Netlist("t")
    s = netlist.add_input("s")
    a = netlist.add_input("a")
    m = netlist.make_mux(s, netlist.const0(), a)  # s ? a : 0  ==  s & a
    netlist.add_output("y", m)
    out = optimize(netlist).netlist
    [gate] = [g for g in out.gates.values()
              if not g.is_source and not g.is_register]
    assert gate.gtype == GateType.AND


def test_simplify_cancels_double_inverters():
    netlist = Netlist("t")
    a = netlist.add_input("a")
    nn = netlist.make_not(netlist.make_not(a))
    netlist.add_output("y", nn)
    out = optimize(netlist).netlist
    assert out.output_net("y") == out.input_net("a")
    assert out.num_gates == 0


def test_simplify_complementary_operands():
    netlist = Netlist("t")
    a = netlist.add_input("a")
    na = netlist.make_not(a)
    netlist.add_output("and0", netlist.make_and(a, na))
    netlist.add_output("or1", netlist.make_or(a, na))
    netlist.add_output("xor1", netlist.make_xor(a, na))
    out = optimize(netlist).netlist
    assert out.num_gates == 0
    assert out.gate(out.output_net("and0")).gtype == GateType.CONST0
    assert out.gate(out.output_net("or1")).gtype == GateType.CONST1
    assert out.gate(out.output_net("xor1")).gtype == GateType.CONST1


def test_simplify_rewrites_mux_of_complement_to_xor():
    netlist = Netlist("t")
    s = netlist.add_input("s")
    d = netlist.add_input("d")
    nd = netlist.make_not(d)
    netlist.add_output("y", netlist.make_mux(s, d, nd))  # s ? ~d : d
    out = optimize(netlist).netlist
    assert out.gate(out.output_net("y")).gtype == GateType.XOR


def test_strash_merges_structurally_identical_cones():
    netlist = Netlist("t")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    x1 = netlist.make_xor(a, b)
    x2 = netlist.make_xor(b, a)  # same function, swapped operands
    netlist.add_output("p", netlist.make_and(x1, a))
    netlist.add_output("q", netlist.make_and(x2, a))
    out = optimize(netlist).netlist
    assert out.num_gates == 2  # one XOR + one AND shared by both outputs
    assert out.output_net("p") == out.output_net("q")


def test_strash_canonicalizes_inverted_gate_variants():
    netlist = Netlist("t")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    nand = netlist.add_gate(GateType.NAND, (a, b))
    netlist.add_output("y", netlist.make_not(nand))  # ~(~(a&b)) == a&b
    out = optimize(netlist).netlist
    assert out.gate(out.output_net("y")).gtype == GateType.AND
    assert out.num_gates == 1


def test_balance_reduces_reduction_chain_depth():
    source = """
    module r(input [31:0] a, output y);
      assign y = &a;
    endmodule
    """
    netlist = elaborate(source, top="r")
    assert netlist.logic_levels() == 31
    balanced = balance(netlist)
    assert balanced.logic_levels() == 5  # ceil(log2(32))
    assert balanced.num_gates == netlist.num_gates
    _assert_equivalent(netlist, balanced)


def test_balance_does_not_duplicate_shared_nodes():
    netlist = Netlist("t")
    bits = [netlist.add_input(f"a{i}") for i in range(4)]
    shared = netlist.make_and(bits[0], bits[1])
    chain = netlist.make_and(netlist.make_and(shared, bits[2]), bits[3])
    netlist.add_output("y", chain)
    netlist.add_output("z", shared)  # 'shared' has fanout 2
    out = balance(netlist)
    assert out.num_gates <= netlist.num_gates
    _assert_equivalent(netlist, out)


def test_sweep_drops_dead_gates_and_registers():
    netlist = Netlist("t")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    netlist.make_and(a, b)                 # dead gate
    netlist.add_dff(netlist.make_xor(a, b), name="dead_ff")
    netlist.add_output("y", netlist.make_or(a, b))
    assert netlist.num_gates == 3 and netlist.num_registers == 1
    out = optimize(netlist).netlist
    assert out.num_gates == 1
    assert out.num_registers == 0
    assert out.input_names() == ["a", "b"]  # dead inputs survive
    _assert_equivalent(netlist, out)


def test_constprop_keeps_inverted_gate_types_when_nothing_folds():
    netlist = Netlist("t")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    netlist.add_output("y", netlist.add_gate(GateType.NAND, (a, b)))
    out = optimize(netlist).netlist
    assert out.num_gates == 1
    assert out.gate(out.output_net("y")).gtype == GateType.NAND


def test_unnamed_registers_survive_optimization_and_equivalence():
    """Gids renumber across rebuilds; unnamed flip-flops must still match."""
    netlist = Netlist("t")
    d = netlist.add_input("d")
    netlist.make_and(d, d)  # dead gate: forces gid renumbering in rebuild
    ff = netlist.add_dff(netlist.const0())  # deliberately unnamed
    netlist.set_fanins(ff, (netlist.make_xor(ff, d),))
    netlist.add_output("q", ff)
    result = optimize(netlist)
    assert result.netlist.num_registers == 1
    _assert_equivalent(netlist, result.netlist)


def test_balance_handles_very_long_chains_iteratively():
    netlist = Netlist("t")
    bits = [netlist.add_input(f"a{i}") for i in range(3000)]
    acc = bits[0]
    for bit in bits[1:]:
        acc = netlist.make_and(acc, bit)
    netlist.add_output("y", acc)
    out = balance(netlist)  # must not hit the recursion limit
    assert out.logic_levels() == 12  # ceil(log2(3000))
    assert out.num_gates == netlist.num_gates


def test_balance_keeps_register_data_cones():
    """The live cone runs through flip-flop data pins: a register read
    only by its own next-state logic survives with its data gate."""
    netlist = Netlist("t")
    d = netlist.add_input("d")
    ff = netlist.add_dff(netlist.const0(), name="ff")
    netlist.set_fanins(ff, (netlist.make_xor(ff, d),))
    netlist.add_output("q", ff)
    out = balance(netlist)
    (reg,) = out.registers
    assert out.gate(reg).name == "ff"
    data = out.gate(out.gate(reg).fanins[0])
    assert data.gtype == GateType.XOR and set(data.fanins) == \
        {reg, out.input_net("d")}
    _assert_equivalent(netlist, out)


# ---------------------------------------------------------------------------
# optimize() mechanics
# ---------------------------------------------------------------------------


def test_optimize_records_a_row_per_pass():
    """One row and one ``opt.<name>`` span per AIG pass, counted in ANDs
    and AIG depth, then a ``balance`` row in netlist gates and levels."""
    netlist = elaborate(ALU, top="alu")
    lowered = from_netlist(netlist)
    tracer = Tracer()
    with use_tracer(tracer):
        result = optimize(netlist)
    assert [rec.name for rec in tracer.spans()
            if rec.name.startswith("opt.")] == ["opt.rewrite", "opt.balance"]
    rewrite, last = result.stats
    assert (rewrite.name, last.name) == ("rewrite", "balance")
    assert (rewrite.gates_before, rewrite.levels_before) == \
        (lowered.num_ands, lowered.levels())
    assert rewrite.gates_after < rewrite.gates_before
    assert rewrite.details["cuts_evaluated"] > 0
    assert last.details is None and "details" not in last.to_dict()
    assert (last.gates_after, last.levels_after) == \
        (result.gates_after, result.levels_after)
    assert all(row.seconds >= 0 for row in result.stats)


def test_optimize_is_deterministic():
    netlist = elaborate(RCA, top="rca")
    first, second = optimize(netlist), optimize(netlist)
    assert first.stats[0].details == second.stats[0].details
    assert first.netlist.content_hash() == second.netlist.content_hash()


def test_passes_run_in_the_given_order():
    netlist = elaborate(ALU, top="alu")
    result = optimize(netlist, passes=["fraig", "rewrite"])
    fraig, rewrite, last = result.stats
    assert [row.name for row in result.stats] == \
        ["fraig", "rewrite", "balance"]
    assert rewrite.gates_before == fraig.gates_after
    assert "sat_checks" in fraig.details
    assert "cuts_evaluated" in rewrite.details
    _assert_equivalent(netlist, result.netlist)
    bare = optimize(netlist, passes=())
    assert [row.name for row in bare.stats] == ["balance"]
    _assert_equivalent(netlist, bare.netlist)


def test_unknown_pass_name_rejected():
    """Only AIG passes have names; the old netlist pass names are gone."""
    netlist = elaborate(RCA, top="rca")
    for name in ("frobnicate", "strash", "balance"):
        with pytest.raises(OptimizationError,
                           match=f"unknown pass '{name}' "
                                 r"\(known passes: fraig, rewrite\)"):
            optimize(netlist, passes=["rewrite", name])


def test_alu_reaches_thirty_percent_reduction_without_depth_increase():
    """The acceptance benchmark: a redundant datapath sheds >= 30% gates."""
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
          3'd5: y = a | b;
          3'd6: y = a ^ b;
          default: y = (a < b) ? a : b;
        endcase
      end
    endmodule
    """
    netlist = elaborate(source, top="alu")
    result = optimize(netlist)
    assert result.reduction >= 0.30
    assert result.levels_after <= result.levels_before
    _assert_equivalent(netlist, result.netlist)


# ---------------------------------------------------------------------------
# FRAIG (SAT sweeping)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,source,top,params", DESIGNS, ids=DESIGN_IDS)
def test_fraig_preserves_equivalence_and_never_grows(name, source, top,
                                                     params):
    netlist = elaborate(source, top=top, params=params)
    result = optimize(netlist, passes=["fraig"])
    out = result.netlist
    assert out.num_gates <= netlist.num_gates, \
        f"{name}: fraig grew the netlist"
    _assert_equivalent(netlist, out)
    stats = result.stats[0].details
    assert stats["rounds"] >= 1
    assert stats["ands_after"] <= stats["ands_before"] or \
        stats["proven"] == 0


def test_fraig_merges_beyond_structural_hashing():
    # y1 and y2 compute a & b & c through differently associated AND
    # trees: structural hashing cannot merge them, SAT sweeping must.
    netlist = Netlist("t")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    c = netlist.add_input("c")
    netlist.add_output("y1", netlist.make_and(netlist.make_and(a, b), c))
    netlist.add_output("y2", netlist.make_and(a, netlist.make_and(b, c)))
    strashed = optimize(netlist, passes=()).netlist
    fraiged = optimize(netlist, passes=["fraig"]).netlist
    assert strashed.output_net("y1") != strashed.output_net("y2")
    assert fraiged.output_net("y1") == fraiged.output_net("y2")
    assert fraiged.num_gates < strashed.num_gates
    _assert_equivalent(netlist, fraiged)


def test_fraig_proves_constant_cones():
    # xor(a, a) built around an opaque duplicated cone collapses to 0.
    netlist = Netlist("t")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    left = netlist.make_and(a, b)
    right = netlist.make_and(b, a)
    netlist.add_output("z", netlist.make_xor(left, right))
    out = optimize(netlist, passes=["fraig"]).netlist
    assert out.gate(out.output_net("z")).gtype == GateType.CONST0
    _assert_equivalent(netlist, out)


def test_fraig_in_pipeline_via_name():
    netlist = elaborate(ALU, top="alu")
    result = optimize(netlist, passes=["fraig"])
    assert [row.name for row in result.stats] == ["fraig", "balance"]
    assert result.gates_after <= result.gates_before
    _assert_equivalent(netlist, result.netlist)


def test_fraig_distinguishes_near_equivalent_cones():
    # y1 = a & b, y2 = a & (b | c): signatures often collide on few
    # patterns until a counterexample splits the classes — the sweep must
    # never merge them.
    netlist = Netlist("t")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    c = netlist.add_input("c")
    netlist.add_output("y1", netlist.make_and(a, b))
    netlist.add_output("y2", netlist.make_and(a, netlist.make_or(b, c)))
    out = to_netlist(fraig_sweep(from_netlist(netlist), patterns=1,
                                 seed=0).aig)
    assert out.output_net("y1") != out.output_net("y2")
    _assert_equivalent(netlist, out)
