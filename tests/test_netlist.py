"""Netlist IR tests: construction, indexes, topo-order caching, simulation."""

import pytest

from repro.netlist.logic import GateType, Netlist, NetlistError, simulate


def build_xor_netlist():
    netlist = Netlist("xor2")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    y = netlist.make_xor(a, b)
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
    assert netlist.gate(netlist.output_net("y")).gtype == GateType.XOR
    with pytest.raises(KeyError):
        netlist.output_net("nope")


def test_input_net_index():
    netlist = build_xor_netlist()
    assert netlist.gates[netlist.input_net("a")].name == "a"
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


def test_topological_order_cached_and_invalidated():
    netlist = build_xor_netlist()
    first = netlist.topological_order()
    assert netlist._topo_cache is not None
    assert netlist.topological_order() == first
    # Returned lists are copies: caller mutation must not corrupt the cache.
    first.clear()
    assert netlist.topological_order() != []
    # Structural changes invalidate.
    netlist.make_not(netlist.inputs[0])
    assert netlist._topo_cache is None
    assert len(netlist.topological_order()) == len(netlist.gates)


def test_gate_count_and_levels_cached_and_invalidated():
    netlist = Netlist()
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    gate = netlist.make_and(a, b)
    netlist.add_output("y", gate)
    assert (netlist.num_gates, netlist.logic_levels()) == (1, 1)
    assert netlist._gates_cache == (netlist.version, 1)
    assert netlist._levels_cache == (netlist.version, 1)
    # Every structural mutation moves ``version`` on, so the cached
    # values are recomputed rather than served stale.
    inv = netlist.make_not(gate)
    assert (netlist.num_gates, netlist.logic_levels()) == (2, 2)
    buf = netlist.add_gate(GateType.BUF, (a,))
    netlist.set_fanins(inv, (buf,))
    assert (netlist.num_gates, netlist.logic_levels()) == (3, 2)
    netlist.add_dff(inv, name="q")
    assert (netlist.num_gates, netlist.num_registers) == (3, 1)
    assert netlist.stats()["levels"] == 2


def test_set_fanins_patches_and_invalidates():
    netlist = Netlist()
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    gate = netlist.add_gate(GateType.BUF, (a,))
    netlist.add_output("y", gate)
    netlist.topological_order()
    netlist.set_fanins(gate, (b,))
    assert netlist._topo_cache is None
    out, _ = simulate(netlist, {"a": 0, "b": 1})
    assert out["y"] == 1
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
    netlist.add_output("and", netlist.make_and(a, b))
    netlist.add_output("or", netlist.make_or(a, b))
    netlist.add_output("xor", netlist.make_xor(a, b))
    netlist.add_output("nand", netlist.add_gate(GateType.NAND, (a, b)))
    netlist.add_output("nor", netlist.add_gate(GateType.NOR, (a, b)))
    netlist.add_output("xnor", netlist.add_gate(GateType.XNOR, (a, b)))
    netlist.add_output("not", netlist.make_not(a))
    netlist.add_output("mux", netlist.make_mux(s, a, b))
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


def test_simulate_with_precomputed_order():
    netlist = build_xor_netlist()
    order = netlist.topological_order()
    out, _ = simulate(netlist, {"a": 1, "b": 0}, order=order)
    assert out["y"] == 1


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
