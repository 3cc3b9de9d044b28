"""Tests for the netlist -> Verilog emitter (repro.netlist.emit).

The contract under test is round-trip fidelity: the emitted text parses
with the project's own frontend, re-elaborates to the same interface, and
is SAT-provably equivalent to the netlist it was printed from — including
sequential designs, whose top-level register names survive the trip and
keep the register-correspondence check meaningful.
"""

import itertools
import random
import re

import pytest

from repro.netlist import GateType, Netlist, elaborate
from repro.netlist.aig import from_netlist
from repro.netlist.emit import MAX_NESTING, EmitError, netlist_to_verilog
from repro.netlist.opt import map_aig, optimize
from repro.netlist.sat import check_equivalence

from test_opt import DESIGN_IDS, DESIGNS, _random_vectors
from repro.netlist import simulate_sequence


@pytest.mark.parametrize("name,source,top,params", DESIGNS, ids=DESIGN_IDS)
def test_emitted_verilog_reelaborates_equivalent(name, source, top, params):
    netlist = elaborate(source, top=top, params=params)
    text = netlist_to_verilog(netlist)
    reparsed = elaborate(text, top=top)
    verdict = check_equivalence(netlist, reparsed)
    assert verdict.equivalent, f"{name}: emitted Verilog is not equivalent"


@pytest.mark.parametrize("name,source,top,params", DESIGNS, ids=DESIGN_IDS)
def test_optimized_netlists_round_trip(name, source, top, params):
    original = elaborate(source, top=top, params=params)
    optimized = optimize(original).netlist
    reparsed = elaborate(netlist_to_verilog(optimized), top=top)
    # Equivalence against the *unoptimized* original closes the loop:
    # elaborate -> optimize -> emit -> re-elaborate preserved the design.
    assert check_equivalence(original, reparsed).equivalent


def test_sequential_register_names_survive():
    source = DESIGNS[3][1]  # counter
    netlist = elaborate(source, top="counter")
    reparsed = elaborate(netlist_to_verilog(netlist), top="counter")
    assert reparsed.register_map().keys() == netlist.register_map().keys()
    verdict = check_equivalence(netlist, reparsed)
    assert verdict.equivalent
    # Name-matched registers mean every next-state function was compared.
    assert verdict.compared == \
        netlist.num_outputs + netlist.num_registers


def test_emitted_text_cosimulates():
    _, source, top, params = DESIGNS[3]
    netlist = elaborate(source, top=top, params=params)
    reparsed = elaborate(netlist_to_verilog(netlist), top=top)
    vectors = _random_vectors(netlist, 30, seed=11)
    assert simulate_sequence(reparsed, vectors) == \
        simulate_sequence(netlist, vectors)


def test_scalar_and_vector_ports():
    src = """
module m(input a, input [2:0] v, output y, output [1:0] w);
  assign y = a ^ v[0];
  assign w = {v[2], v[1] & a};
endmodule
"""
    netlist = elaborate(src, top="m")
    text = netlist_to_verilog(netlist)
    assert "input a," in text
    assert "input [2:0] v," in text
    assert "output y," in text
    assert "output [1:0] w" in text
    assert check_equivalence(netlist,
                             elaborate(text, top="m")).equivalent


def test_output_reg_declaration_restored():
    src = """
module m(input clk, input d, output reg [1:0] q);
  always @(posedge clk) q <= {q[0], d};
endmodule
"""
    netlist = elaborate(src, top="m")
    text = netlist_to_verilog(netlist)
    assert "output reg [1:0] q" in text
    assert check_equivalence(netlist,
                             elaborate(text, top="m")).equivalent


def test_added_clock_is_flagged():
    netlist = Netlist("m")
    a = netlist.add_input("a")
    q = netlist.add_dff(netlist.const0(), name="m.q")
    netlist.set_fanins(q, (a,))
    netlist.add_output("y", q)
    text = netlist_to_verilog(netlist)
    assert "input clk" in text
    assert "was added" in text
    reparsed = elaborate(text, top="m")
    assert "clk" in reparsed.input_names()


def test_every_gate_type_prints(tmp_path):
    netlist = Netlist("m")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    s = netlist.add_input("s")
    for gtype in (GateType.BUF, GateType.NOT, GateType.AND, GateType.OR,
                  GateType.XOR, GateType.NAND, GateType.NOR, GateType.XNOR):
        fanins = (a,) if gtype in (GateType.BUF, GateType.NOT) else (a, b)
        netlist.add_output(f"o_{gtype.value}",
                           netlist.add_gate(gtype, fanins))
    netlist.add_output("o_mux", netlist.add_gate(GateType.MUX, (s, a, b)))
    netlist.add_output("o_c0", netlist.const0())
    netlist.add_output("o_c1", netlist.const1())
    text = netlist_to_verilog(netlist)
    reparsed = elaborate(text, top="m")
    assert check_equivalence(netlist, reparsed).equivalent


def test_gapped_output_vector_rejected():
    netlist = Netlist("m")
    a = netlist.add_input("a")
    netlist.add_output("y[0]", a)
    netlist.add_output("y[2]", a)
    with pytest.raises(EmitError, match="gaps"):
        netlist_to_verilog(netlist)


def test_single_bit_vector_port_rejected():
    # 'a[0]' alone cannot round-trip: the frontend names width-1 ports
    # plain 'a', so the re-elaborated interface would not match.
    netlist = Netlist("m")
    a = netlist.add_input("a[0]")
    netlist.add_output("y", a)
    with pytest.raises(EmitError, match=r"single-bit vector"):
        netlist_to_verilog(netlist)


def test_single_bit_vector_register_round_trips():
    # A register word reduced to its [0] bit is declared with a padded
    # width so the '<base>[0]' correspondence name survives re-elaboration.
    netlist = Netlist("m")
    netlist.add_input("clk")  # reused by the emitted always block
    a = netlist.add_input("a")
    q = netlist.add_dff(netlist.const0(), name="m.q[0]")
    netlist.set_fanins(q, (netlist.add_gate(GateType.XOR, (a, q)),))
    netlist.add_output("y", q)
    text = netlist_to_verilog(netlist)
    assert "reg [1:0] q;" in text
    reparsed = elaborate(text, top="m")
    assert "m.q[0]" in reparsed.register_map()
    verdict = check_equivalence(netlist, reparsed)
    assert verdict.equivalent
    # The padded bit is free state on the re-elaborated side only; the
    # matched register's next-state function was still compared.
    assert verdict.compared == 2  # output y + next-state of m.q[0]


def test_wire_prefix_avoids_port_collisions():
    netlist = Netlist("m")
    w2 = netlist.add_input("w2")
    b = netlist.add_input("b")
    netlist.add_output("y", netlist.add_gate(GateType.AND, (w2, b)))
    text = netlist_to_verilog(netlist)
    reparsed = elaborate(text, top="m")
    assert check_equivalence(netlist, reparsed).equivalent


def test_wire_prefix_rescans_after_every_bump():
    # 'w3' forces the prefix to 'w_', which 'w_5' (seen earlier in the
    # name set) must in turn force to 'w__' — a single pass would emit a
    # wire colliding with the 'w_5' port.
    netlist = Netlist("m")
    a = netlist.add_input("w3")
    b = netlist.add_input("w_5")
    netlist.add_output("y", netlist.add_gate(GateType.AND, (a, b)))
    text = netlist_to_verilog(netlist)
    assert "wire w__" in text
    reparsed = elaborate(text, top="m")
    assert check_equivalence(netlist, reparsed).equivalent


# ---------------------------------------------------------------------------
# Inlined single-reader gates
# ---------------------------------------------------------------------------

def _nesting(text: str) -> int:
    """Deepest parenthesis nesting on any line of ``text``."""
    deepest = 0
    for line in text.splitlines():
        level = 0
        for char in line:
            if char == "(":
                level += 1
                deepest = max(deepest, level)
            elif char == ")":
                level -= 1
    return deepest


def test_long_single_reader_chain_is_cut_at_the_nesting_cap():
    netlist = Netlist("chain")
    inputs = [netlist.add_input(f"x{k}") for k in range(4)]
    gtypes = (GateType.AND, GateType.XOR, GateType.NOR, GateType.OR,
              GateType.XNOR, GateType.NAND)
    net = inputs[0]
    for k in range(2400):
        net = netlist.add_gate(gtypes[k % len(gtypes)],
                               (net, inputs[1 + k % 3]))
    netlist.add_output("y", net)
    text = netlist_to_verilog(netlist)
    assert _nesting(text) <= MAX_NESTING
    # Most of the chain is inlined: one named wire per few gates.
    wires = len(re.findall(r"^  wire ", text, re.M))
    assert wires < 2400 // 3
    reparsed = elaborate(text, top="chain")
    assert check_equivalence(netlist, reparsed).equivalent


def _random_tree(netlist, leaves, rng, height):
    """A fanout-free cone of random gate types over ``leaves``: every
    gate has one reader, so the emitter inlines all of it."""
    if height == 0:
        return rng.choice(leaves)
    gtype = rng.choice((GateType.MUX, GateType.NAND, GateType.NOR,
                        GateType.XNOR, GateType.NOT, GateType.AND,
                        GateType.OR, GateType.XOR, GateType.BUF))
    arity = {GateType.MUX: 3, GateType.NOT: 1, GateType.BUF: 1}.get(gtype, 2)
    return netlist.add_gate(gtype, [
        _random_tree(netlist, leaves, rng, height - 1)
        for _ in range(arity)])


def test_mixed_gate_expressions_keep_their_precedence():
    rng = random.Random(30)
    netlist = Netlist("mixed")
    leaves = [netlist.add_input(name) for name in "abcde"]
    for k in range(12):
        netlist.add_output(f"y{k}",
                           _random_tree(netlist, leaves, rng, 1 + k % 4))
    text = netlist_to_verilog(netlist)
    assert _nesting(text) >= 3  # operands really were inlined
    reparsed = elaborate(text, top="mixed")
    vectors = [dict(zip("abcde", bits))
               for bits in itertools.product((0, 1), repeat=5)]
    assert simulate_sequence(reparsed, vectors) == \
        simulate_sequence(netlist, vectors)


@pytest.mark.parametrize("name,source,top,params", DESIGNS, ids=DESIGN_IDS)
def test_mapped_netlists_name_only_shared_or_pinned_wires(
        name, source, top, params):
    netlist = elaborate(source, top=top, params=params)
    luts = map_aig(from_netlist(netlist), k=4).to_netlist()
    text = netlist_to_verilog(luts)
    assert _nesting(text) <= MAX_NESTING
    lines = text.splitlines()
    for wire, expr in re.findall(r"^  wire (w\d+) = (.*);$", text, re.M):
        read = re.compile(rf"\b{wire}\b")
        readers = [line for line in lines
                   if not line.startswith(f"  wire {wire} =")
                   for _ in read.finditer(line)]
        if len(readers) >= 2 or any(
                line.endswith(f" = {wire};") or line.endswith(f"<= {wire};")
                for line in readers):
            continue  # shared, or drives a port or a register
        # Read once: inlining it would have nested past the cap.
        assert len(readers) == 1, f"{name}: {wire} is never read"
        line = readers[0]
        at = read.search(line).start()
        level = line[:at].count("(") - line[:at].count(")")
        assert level + 1 + _nesting(expr) > MAX_NESTING, \
            f"{name}: single-reader {wire} was not inlined"
    reparsed = elaborate(text, top=top)
    assert check_equivalence(luts, reparsed).equivalent
