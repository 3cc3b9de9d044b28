"""Tests for the canonical AIG core (repro.netlist.aig).

Unit tests pin the folding/hash-consing contract of ``aig_and``; property
tests check, on every elaborator test design, that the
``to_netlist(from_netlist(n))`` round trip is SAT-proven equivalent and
co-simulates bit-exact against the compiled engine, sequence by
sequence — both via the raised netlist and by stepping the AIG itself
through ``aig_signatures`` with 1, 64 or 256 sequences packed in its bit
lanes.
"""

import random

import pytest

from repro.netlist import (
    AIG,
    AIGError,
    GateType,
    Netlist,
    elaborate,
    from_netlist,
    simulate_sequence,
    to_netlist,
)
from repro.netlist.aig import FALSE, TRUE, aig_not, lit_compl, lit_node
from repro.netlist.sat import check_equivalence
from repro.netlist.sim import aig_signatures, simulate_compiled

from test_opt import DESIGN_IDS, DESIGNS, _random_vectors, _run_lanes

#: The four designs named by the benchmark suite (adder / muxtree /
#: counter / alu analogues from the elaborator fixtures): one pure
#: datapath, one mux tree, one sequential counter, one shared-operand ALU.
BENCH_LIKE = [row for row in DESIGNS
              if row[0] in ("rca", "muxtree", "counter", "alu")]
BENCH_IDS = [row[0] for row in BENCH_LIKE]


def _run_aig(aig, sequences):
    """Step ``aig`` through equal-length word-level input ``sequences``,
    one per bit lane, with :func:`aig_signatures`; latches power up at 0.
    Returns each lane's per-cycle output words."""

    def cycle(inputs, state, mask):
        sigs = aig_signatures(aig, inputs, state, mask)

        def value(lit):
            return sigs[lit_node(lit)] ^ (mask if lit_compl(lit) else 0)

        return ([value(lit) for _, lit in aig.outputs],
                [value(aig.next_state(nid << 1)) for nid in aig.latches])

    return _run_lanes(cycle, [aig.node_name(nid) for nid in aig.inputs],
                      [name for name, _ in aig.outputs], aig.num_latches,
                      sequences)


# ---------------------------------------------------------------------------
# aig_and: folding + hash consing
# ---------------------------------------------------------------------------


def test_constants_and_identities_fold():
    aig = AIG()
    a = aig.add_input("a")
    assert aig.aig_and(a, FALSE) == FALSE
    assert aig.aig_and(FALSE, a) == FALSE
    assert aig.aig_and(a, TRUE) == a
    assert aig.aig_and(TRUE, a) == a
    assert aig.aig_and(a, a) == a
    assert aig.aig_and(a, aig_not(a)) == FALSE
    assert aig.num_ands == 0  # nothing above created a node


def test_hash_consing_is_commutative():
    aig = AIG()
    a = aig.add_input("a")
    b = aig.add_input("b")
    ab = aig.aig_and(a, b)
    assert aig.aig_and(b, a) == ab
    assert aig.aig_and(a, b) == ab
    assert aig.num_ands == 1
    # Complemented operands hash separately (different function).
    nab = aig.aig_and(aig_not(a), b)
    assert nab != ab
    assert aig.num_ands == 2


def test_derived_constructors_share_structure():
    aig = AIG()
    a = aig.add_input("a")
    b = aig.add_input("b")
    x1 = aig.aig_xor(a, b)
    x2 = aig.aig_xor(b, a)
    assert x1 == x2
    # xor == mux(a, b, ~b) structurally.
    assert aig.aig_mux(a, b, aig_not(b)) == x1
    before = aig.num_ands
    aig.aig_or(a, b)
    aig.aig_or(b, a)
    assert aig.num_ands == before + 1


def test_literal_helpers():
    assert aig_not(6) == 7 and aig_not(7) == 6
    assert lit_node(7) == 3
    assert lit_compl(7) == 1 and lit_compl(6) == 0
    assert aig_not(FALSE) == TRUE


def test_duplicate_names_and_bad_literals_rejected():
    aig = AIG()
    aig.add_input("a")
    with pytest.raises(AIGError):
        aig.add_input("a")
    aig.add_latch("q")
    with pytest.raises(AIGError):
        aig.add_latch("q")
    with pytest.raises(AIGError):
        aig.aig_and(0, 999)
    with pytest.raises(AIGError):
        aig.add_output("y", 999)
    with pytest.raises(AIGError):
        aig.set_next(0, 0)  # constant node is not a latch


def test_stats_and_levels():
    aig = AIG("t")
    a = aig.add_input("a")
    b = aig.add_input("b")
    c = aig.add_input("c")
    aig.add_output("y", aig.aig_and(aig.aig_and(a, b), c))
    stats = aig.stats()
    assert stats == {"inputs": 3, "outputs": 1, "ands": 2, "latches": 0,
                     "levels": 2}


# ---------------------------------------------------------------------------
# from_netlist / to_netlist
# ---------------------------------------------------------------------------


def test_interface_names_round_trip():
    netlist = Netlist("top")
    a = netlist.add_input("a")
    b = netlist.add_input("b[0]")
    q = netlist.add_dff(netlist.const0(), name="top.q")
    netlist.set_fanins(q, (netlist.add_gate(GateType.AND, (a, b)),))
    netlist.add_output("y", netlist.add_gate(GateType.XOR, (a, q)))
    rt = to_netlist(from_netlist(netlist))
    assert rt.input_names() == ["a", "b[0]"]
    assert rt.output_names() == ["y"]
    assert rt.register_map().keys() == {"top.q"}


def test_round_trip_keeps_dead_inputs():
    netlist = Netlist("top")
    netlist.add_input("used")
    netlist.add_input("dead")
    netlist.add_output("y", netlist.input_net("used"))
    rt = to_netlist(from_netlist(netlist))
    assert rt.input_names() == ["used", "dead"]


def test_constant_outputs_round_trip():
    netlist = Netlist("top")
    a = netlist.add_input("a")
    netlist.add_output("zero",
                       netlist.add_gate(GateType.AND, (a, netlist.const0())))
    netlist.add_output("one",
                       netlist.add_gate(GateType.OR, (a, netlist.const1())))
    rt = to_netlist(from_netlist(netlist))
    assert rt.gate_type(rt.output_net("zero")) == GateType.CONST0
    assert rt.gate_type(rt.output_net("one")) == GateType.CONST1


def test_xor_and_mux_rederived_on_raising():
    netlist = Netlist("top")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    s = netlist.add_input("s")
    netlist.add_output("x", netlist.add_gate(GateType.XOR, (a, b)))
    netlist.add_output("m", netlist.add_gate(GateType.MUX, (s, a, b)))
    rt = to_netlist(from_netlist(netlist))
    gtypes = {rt.gate_type(net) for _, net in rt.outputs}
    assert GateType.XOR in gtypes or GateType.XNOR in gtypes
    assert GateType.MUX in gtypes
    # No AND-tree explosion: one gate per re-derived operator (a NOT may
    # appear when a complement edge cannot be absorbed).
    assert rt.num_gates <= 3


@pytest.mark.parametrize("name,source,top,params", DESIGNS, ids=DESIGN_IDS)
def test_round_trip_is_sat_equivalent(name, source, top, params):
    netlist = elaborate(source, top=top, params=params)
    rt = to_netlist(from_netlist(netlist))
    verdict = check_equivalence(netlist, rt)
    assert verdict.equivalent, f"{name}: AIG round trip not equivalent"
    # The shared-AIG miter must prove the round trip entirely by hashing:
    # both sides canonicalize to the same nodes.
    assert verdict.hash_proven == verdict.compared


@pytest.mark.parametrize("name,source,top,params", BENCH_LIKE,
                         ids=BENCH_IDS)
@pytest.mark.parametrize("lanes", [1, 64, 256])
def test_round_trip_cosimulates_packed(name, source, top, params, lanes):
    netlist = elaborate(source, top=top, params=params)
    aig = from_netlist(netlist)
    rt = to_netlist(aig)
    cycles = 5
    sequences = [
        _random_vectors(netlist, cycles, seed=1000 * lanes + lane)
        for lane in range(lanes)
    ]
    reference = [simulate_sequence(netlist, seq) for seq in sequences]
    # Both the raised netlist and the AIG itself must match the compiled
    # engine bit for bit, lane for lane.
    assert [simulate_sequence(rt, seq) for seq in sequences] == reference
    assert _run_aig(aig, sequences) == reference


@pytest.mark.parametrize("name,source,top,params", DESIGNS, ids=DESIGN_IDS)
def test_aig_compiles_directly(name, source, top, params):
    """The lowered AIG, evaluated directly (no raising), runs every design
    cycle for cycle like the compiled netlist."""
    netlist = elaborate(source, top=top, params=params)
    aig = from_netlist(netlist)
    vectors = _random_vectors(netlist, 20, seed=99)
    assert _run_aig(aig, [vectors]) == [simulate_sequence(netlist, vectors)]


def test_aig_signatures_match_compiled_outputs():
    netlist = elaborate("""
module m(input [3:0] a, input [3:0] b, output [3:0] y);
  assign y = (a & b) ^ (a | b);
endmodule
""", top="m")
    aig = from_netlist(netlist)
    rng = random.Random(5)
    mask = (1 << 32) - 1
    words = [rng.getrandbits(32) for _ in aig.inputs]
    sigs = aig_signatures(aig, words, [], mask)
    assert len(sigs) == aig.num_nodes
    # Signatures of the output literals must agree with the netlist's
    # compiled engine, run once per lane.
    names = [aig.node_name(nid) for nid in aig.inputs]
    assert names == netlist.input_names()
    for lane in range(32):
        inputs = {name: (word >> lane) & 1 for name, word in zip(names, words)}
        outputs, _ = simulate_compiled(netlist, inputs)
        for name, lit in aig.outputs:
            expected = ((sigs[lit_node(lit)] >> lane) & 1) ^ lit_compl(lit)
            assert outputs[name] == expected, (name, lane)
