"""Netlist IR tests: construction, indexes, topo-order caching, simulation."""

import random

import pytest

from repro.netlist import check_equivalence, elaborate, simulate_sequence
from repro.netlist.aig import from_netlist
from repro.netlist.emit import netlist_to_verilog
from repro.netlist.logic import GateType, Netlist, NetlistError, simulate
from repro.netlist.opt import map_aig, optimize


def build_xor_netlist():
    netlist = Netlist("xor2")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    y = netlist.add_gate(GateType.XOR, (a, b))
    netlist.add_output("y", y)
    return netlist


def test_basic_construction_and_stats():
    netlist = build_xor_netlist()
    assert netlist.num_inputs == 2
    assert netlist.num_outputs == 1
    assert netlist.num_gates == 1
    assert netlist.stats()["levels"] == 1


def test_duplicate_input_name_rejected():
    netlist = Netlist()
    netlist.add_input("a")
    with pytest.raises(NetlistError, match="duplicate primary input"):
        netlist.add_input("a")


def test_duplicate_output_name_rejected():
    netlist = build_xor_netlist()
    with pytest.raises(NetlistError, match="duplicate primary output"):
        netlist.add_output("y", netlist.inputs[0])


def test_output_net_index():
    netlist = build_xor_netlist()
    assert netlist.gate_type(netlist.output_net("y")) == GateType.XOR
    with pytest.raises(KeyError):
        netlist.output_net("nope")


def test_input_net_index():
    netlist = build_xor_netlist()
    assert netlist.gate_name(netlist.input_net("a")) == "a"
    with pytest.raises(KeyError):
        netlist.input_net("zz")


def test_fanin_count_validation():
    netlist = Netlist()
    a = netlist.add_input("a")
    with pytest.raises(NetlistError):
        netlist.add_gate(GateType.NOT, (a, a))
    with pytest.raises(NetlistError):
        netlist.add_gate(GateType.MUX, (a,))
    with pytest.raises(NetlistError):
        netlist.add_gate(GateType.AND, (a, 999))


def test_unknown_ids_rejected_not_indexed_from_the_end():
    """The nets live in lists, which would read index -1 as the last net:
    every builder and reader rejects an id outside ``0 .. num_nets-1``.
    A ``bool`` is rejected too: ``True`` would serialize differently from
    the net ``1`` it indexes, giving one structure two content hashes."""
    netlist = build_xor_netlist()
    a = netlist.input_net("a")
    past_end = netlist.num_nets
    for bad in (-1, past_end, True, "0", 1.0, None):
        with pytest.raises(NetlistError, match="does not exist"):
            netlist.add_gate(GateType.AND, (a, bad))
    for bad in (-1, past_end, True):
        with pytest.raises(NetlistError, match="does not exist"):
            netlist.set_fanins(bad, (a,))
        with pytest.raises(NetlistError, match="does not exist"):
            netlist.add_output("z", bad)
        with pytest.raises(NetlistError, match="does not exist"):
            netlist.gate_type(bad)
        with pytest.raises(NetlistError, match="does not exist"):
            netlist.fanins(bad)
        with pytest.raises(NetlistError, match="does not exist"):
            netlist.gate_name(bad)
        with pytest.raises(NetlistError, match="does not exist"):
            netlist.transitive_fanin([netlist.output_net("y"), bad])
    # Nothing was added by the rejected calls.
    assert netlist.num_nets == past_end
    assert netlist.output_names() == ["y"]


def test_read_api():
    netlist = build_xor_netlist()
    y = netlist.output_net("y")
    a, b = netlist.inputs
    assert netlist.num_nets == 3
    assert (netlist.gate_type(y), netlist.fanins(y), netlist.gate_name(y)) \
        == (GateType.XOR, (a, b), None)
    assert netlist.fanins(a) == ()


HIER = """
module half (input x, input y, output s, output c);
  assign s = x ^ y;
  assign c = x & y;
endmodule
module top (input a, input b, input cin, output sum, output cout);
  wire s1, c1, c2;
  half h1 (.x(a), .y(b & cin), .s(s1), .c(c1));
  half h2 (.x(s1), .y(cin), .s(sum), .c(c2));
  assign cout = c1 | c2;
endmodule
"""


def test_topological_order_of_patched_forward_fanins():
    """An instance's input buffers exist before the logic driving them,
    so they are patched forward: the order puts every fanin first, and
    differs from id order.  A flip-flop's data pin is cut, so pointing
    it forward leaves id order alone."""
    flat = build_xor_netlist()
    assert flat.topological_order() == list(range(flat.num_nets))
    netlist = elaborate(HIER, top="top")
    order = netlist.topological_order()
    assert order != list(range(netlist.num_nets))
    assert sorted(order) == list(range(netlist.num_nets))
    position = {gid: k for k, gid in enumerate(order)}
    assert all(position[f] < position[gid] for gid in order
               if netlist.gate_type(gid) != GateType.DFF
               for f in netlist.fanins(gid))
    ring = Netlist()
    d = ring.add_input("d")
    q = ring.add_dff(ring.const0(), name="q")
    ring.set_fanins(q, (ring.add_gate(GateType.XOR, (q, d)),))
    assert ring.topological_order() == list(range(ring.num_nets))


def test_sequential_flow_end_to_end():
    """One sequential design through every netlist stage: optimize, map,
    emit and re-elaborate, each proven or simulated equal to the source."""
    source = """
module acc (input clk, input [3:0] a, input [3:0] b, input [1:0] op,
            output reg [3:0] q, output zero);
  assign zero = q == 0;
  always @(posedge clk) begin
    case (op)
      2'd0: q <= a + b;
      2'd1: q <= a - q;
      2'd2: q <= a & b;
      default: q <= q ^ b;
    endcase
  end
endmodule
"""
    original = elaborate(source, top="acc")
    optimized = optimize(original).netlist
    assert check_equivalence(original, optimized).equivalent
    luts = map_aig(from_netlist(optimized), k=4).to_netlist()
    text = netlist_to_verilog(luts)
    reloaded = elaborate(text, top="acc")
    assert check_equivalence(original, reloaded).equivalent
    rng = random.Random(7)
    vectors = [{"clk": 0, "a": rng.getrandbits(4), "b": rng.getrandbits(4),
                "op": rng.getrandbits(2)} for _ in range(12)]
    assert simulate_sequence(reloaded, vectors) \
        == simulate_sequence(original, vectors)


def test_topological_order_cached_and_invalidated():
    netlist = build_xor_netlist()
    first = netlist.topological_order()
    assert netlist.topological_order() == first
    # Returned lists are copies: caller mutation must not corrupt the cache.
    first.clear()
    assert netlist.topological_order() != []
    # The next order after a new gate holds it, after its fanin.
    inv = netlist.add_gate(GateType.NOT, (netlist.inputs[0],))
    order = netlist.topological_order()
    assert len(order) == netlist.num_nets
    assert order.index(netlist.inputs[0]) < order.index(inv)


def test_gate_count_and_levels_cached_and_invalidated():
    netlist = Netlist()
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    gate = netlist.add_gate(GateType.AND, (a, b))
    netlist.add_output("y", gate)
    assert (netlist.num_gates, netlist.logic_levels()) == (1, 1)
    # After each kind of mutation the cached values are recomputed, not
    # served stale: the content hash moves on every time.
    hashes = [netlist.content_hash()]
    inv = netlist.add_gate(GateType.NOT, (gate,))
    assert (netlist.num_gates, netlist.logic_levels()) == (2, 2)
    hashes.append(netlist.content_hash())
    buf = netlist.add_gate(GateType.BUF, (a,))
    netlist.set_fanins(inv, (buf,))
    assert (netlist.num_gates, netlist.logic_levels()) == (3, 2)
    hashes.append(netlist.content_hash())
    q = netlist.add_dff(inv, name="q")
    assert (netlist.num_gates, netlist.num_registers) == (3, 1)
    assert netlist.registers == [q]
    assert netlist.stats()["levels"] == 2
    hashes.append(netlist.content_hash())
    netlist.add_output("z", inv)
    assert netlist.stats()["outputs"] == 2
    hashes.append(netlist.content_hash())
    assert len(set(hashes)) == len(hashes)


def test_set_fanins_patches_and_invalidates():
    netlist = Netlist()
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    gate = netlist.add_gate(GateType.BUF, (a,))
    netlist.add_output("y", gate)
    netlist.topological_order()
    netlist.set_fanins(gate, (b,))
    out, _ = simulate(netlist, {"a": 0, "b": 1})
    assert out["y"] == 1
    # Rewired to a later gate, the BUF moves after it in the next order.
    late = netlist.add_gate(GateType.NOT, (a,))
    assert netlist.topological_order().index(gate) < \
        netlist.topological_order().index(late)
    netlist.set_fanins(gate, (late,))
    order = netlist.topological_order()
    assert order.index(late) < order.index(gate)
    out, _ = simulate(netlist, {"a": 1, "b": 1})
    assert out["y"] == 0
    with pytest.raises(NetlistError):
        netlist.set_fanins(gate, (a, b))
    with pytest.raises(NetlistError):
        netlist.set_fanins(9999, (a,))


def test_combinational_cycle_detected():
    netlist = Netlist()
    a = netlist.add_input("a")
    g1 = netlist.add_gate(GateType.BUF, (a,))
    g2 = netlist.add_gate(GateType.AND, (a, g1))
    netlist.set_fanins(g1, (g2,))
    with pytest.raises(NetlistError, match="cycle"):
        netlist.topological_order()


def test_simulate_all_gate_types():
    netlist = Netlist()
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    s = netlist.add_input("s")
    netlist.add_output("and", netlist.add_gate(GateType.AND, (a, b)))
    netlist.add_output("or", netlist.add_gate(GateType.OR, (a, b)))
    netlist.add_output("xor", netlist.add_gate(GateType.XOR, (a, b)))
    netlist.add_output("nand", netlist.add_gate(GateType.NAND, (a, b)))
    netlist.add_output("nor", netlist.add_gate(GateType.NOR, (a, b)))
    netlist.add_output("xnor", netlist.add_gate(GateType.XNOR, (a, b)))
    netlist.add_output("not", netlist.add_gate(GateType.NOT, (a,)))
    netlist.add_output("mux", netlist.add_gate(GateType.MUX, (s, a, b)))
    for a_val in (0, 1):
        for b_val in (0, 1):
            for s_val in (0, 1):
                out, _ = simulate(netlist,
                                  {"a": a_val, "b": b_val, "s": s_val})
                assert out["and"] == (a_val & b_val)
                assert out["or"] == (a_val | b_val)
                assert out["xor"] == (a_val ^ b_val)
                assert out["nand"] == 1 - (a_val & b_val)
                assert out["nor"] == 1 - (a_val | b_val)
                assert out["xnor"] == 1 - (a_val ^ b_val)
                assert out["not"] == 1 - a_val
                assert out["mux"] == (b_val if s_val else a_val)


def test_simulate_missing_input_raises():
    netlist = build_xor_netlist()
    with pytest.raises(NetlistError, match="missing value"):
        simulate(netlist, {"a": 1})


def test_dff_state_progression():
    netlist = Netlist()
    d = netlist.add_input("d")
    q = netlist.add_dff(d, name="q")
    netlist.add_output("q", q)
    out, state = simulate(netlist, {"d": 1})
    assert out["q"] == 0          # registers power up at zero
    out, state = simulate(netlist, {"d": 0}, state)
    assert out["q"] == 1          # captured the previous cycle's d
    out, state = simulate(netlist, {"d": 0}, state)
    assert out["q"] == 0
