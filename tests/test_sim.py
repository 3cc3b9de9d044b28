"""Tests for the compiled single-pattern simulation engine (repro.netlist.sim).

The compiled engine (behind ``simulate_sequence`` / ``simulate_vectors``)
is property-tested against two independent oracles on every design the
elaborator suite exercises: the per-gate reference simulator
(``logic.simulate``, driven word-wise by ``test_opt._reference_sequence``)
and the AST-level vector ``Interpreter``.  Seeded random netlists that mix
every gate type, constant and repeated operands and flip-flop feedback
check it against ``logic.simulate`` cycle by cycle.
"""

import random

import pytest

from repro.netlist import (
    GateType,
    Interpreter,
    Netlist,
    NetlistError,
    compile_netlist,
    elaborate,
    simulate,
    simulate_compiled,
    simulate_sequence,
    simulate_vectors,
)
from repro.netlist.opt import optimize

from test_opt import (
    DESIGN_IDS,
    DESIGNS,
    _random_vectors,
    _reference_sequence,
    _reference_step,
)


# ---------------------------------------------------------------------------
# Oracle equivalence over all designs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,source,top,params", DESIGNS, ids=DESIGN_IDS)
def test_compiled_matches_both_oracles(name, source, top, params):
    """Compiled == per-gate simulator == AST interpreter, cycle by cycle."""
    netlist = elaborate(source, top=top, params=params)
    vectors = _random_vectors(netlist, 48, seed=hash(name) & 0xFFFF)
    compiled_out = simulate_sequence(netlist, vectors)
    assert compiled_out == _reference_sequence(netlist, vectors)
    assert compiled_out == Interpreter(source, top=top, params=params) \
        .run(vectors)


@pytest.mark.parametrize("name,source,top,params", DESIGNS, ids=DESIGN_IDS)
def test_compiled_matches_oracles_on_optimized_netlist(name, source, top,
                                                       params):
    optimized = optimize(elaborate(source, top=top, params=params)).netlist
    vectors = _random_vectors(optimized, 32, seed=len(name))
    compiled_out = simulate_sequence(optimized, vectors)
    assert compiled_out == _reference_sequence(optimized, vectors)
    assert compiled_out == Interpreter(source, top=top, params=params) \
        .run(vectors)


@pytest.mark.parametrize("name,source,top,params", DESIGNS, ids=DESIGN_IDS)
def test_simulate_compiled_is_dropin_for_simulate(name, source, top, params):
    """Bit-level single-cycle API: identical outputs and next state."""
    netlist = elaborate(source, top=top, params=params)
    rng = random.Random(len(name))
    registers = netlist.registers
    for _ in range(16):
        inputs = {bit: rng.getrandbits(1) for bit in netlist.input_names()}
        state = {gid: rng.getrandbits(1) for gid in registers}
        assert simulate_compiled(netlist, inputs, state) == \
            simulate(netlist, inputs, state)


def test_simulate_vectors_engines_agree():
    _, source, top, params = DESIGNS[3]  # counter: stateful
    netlist = elaborate(source, top=top, params=params)
    vectors = _random_vectors(netlist, 8, seed=3)
    state_c: dict = {}
    state_i: dict = {}
    for vector in vectors:
        out_c, state_c = simulate_vectors(netlist, vector, state_c)
        out_i, state_i = _reference_step(netlist, vector, state_i)
        assert out_c == out_i
        assert state_c == state_i


# ---------------------------------------------------------------------------
# Differential test on random netlists of every gate type
# ---------------------------------------------------------------------------

_COMB_TYPES = [GateType.BUF, GateType.NOT, GateType.AND, GateType.OR,
               GateType.XOR, GateType.NAND, GateType.NOR, GateType.XNOR,
               GateType.MUX]


def _random_netlist(seed):
    """A netlist of 36 gates, four of each combinational type in shuffled
    order, over 3 inputs and 3 flip-flops whose data pins feed back from
    the gates.  Operands are drawn with replacement and a quarter of them
    are constants, so gates get constant and repeated operands; every
    other MUX has a constant select, and NOT/BUF read the newest net, so
    they form chains.  Two outputs are the constants themselves."""
    rng = random.Random(seed)
    netlist = Netlist(f"rand{seed}")
    nets = [netlist.add_input(f"x{k}") for k in range(3)]
    dffs = [netlist.add_dff(nets[0], name=f"q{k}") for k in range(3)]
    nets.extend(dffs)
    consts = [netlist.const0(), netlist.const1()]

    def operand():
        return rng.choice(consts if rng.random() < 0.25 else nets)

    types = _COMB_TYPES * 4
    rng.shuffle(types)
    muxes = 0
    for gtype in types:
        if gtype in (GateType.BUF, GateType.NOT):
            fanins = (nets[-1],)
        elif gtype is GateType.MUX:
            select = rng.choice(consts) if muxes % 2 else operand()
            fanins = (select, operand(), operand())
            muxes += 1
        else:
            fanins = [operand() for _ in range(rng.randint(1, 4))]
        nets.append(netlist.add_gate(gtype, fanins))
    for gid in dffs:
        netlist.set_fanins(gid, (rng.choice(nets[6:]),))
    for k, net in enumerate(rng.sample(nets[6:], 6) + consts):
        netlist.add_output(f"y{k}", net)
    return netlist


@pytest.mark.parametrize("seed", range(12))
def test_random_netlists_match_reference_cycle_by_cycle(seed):
    netlist = _random_netlist(seed)
    rng = random.Random(seed)
    state = {gid: rng.getrandbits(1) for gid in netlist.registers}
    for _ in range(8):
        inputs = {name: rng.getrandbits(1) for name in netlist.input_names()}
        expected = simulate(netlist, inputs, state)
        assert simulate_compiled(netlist, inputs, state) == expected
        state = expected[1]


# ---------------------------------------------------------------------------
# Stateful API (Interpreter mirror)
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


def test_step_and_state_lockstep_with_interpreter():
    netlist = elaborate(COUNTER, top="counter")
    names = {netlist.gate_name(gid): gid for gid in netlist.registers}
    q_gids = [names[f"counter.q[{i}]"] for i in range(4)]
    interp = Interpreter(COUNTER, top="counter")
    rng = random.Random(11)
    state: dict = {}
    for cycle in range(40):
        if cycle == 20:  # mid-run state injection, both engines
            state = {gid: (13 >> i) & 1 for i, gid in enumerate(q_gids)}
            interp.load_state({"counter.q": 13})
        vector = {"clk": 0, "rst": int(rng.random() < 0.1),
                  "en": int(rng.random() < 0.7)}
        outputs, state = simulate_vectors(netlist, vector, state)
        assert outputs == interp.step(vector)
        q = sum(state[gid] << i for i, gid in enumerate(q_gids))
        assert interp.flat_state() == {"counter.q": q}


def test_missing_input_port_raises():
    netlist = elaborate(COUNTER, top="counter")
    with pytest.raises(KeyError, match="missing value for input port 'en'"):
        simulate_vectors(netlist, {"clk": 0, "rst": 0})
    with pytest.raises(NetlistError, match="missing value for input"):
        simulate_compiled(netlist, {})


# ---------------------------------------------------------------------------
# Compilation: constants, caching, generated source
# ---------------------------------------------------------------------------


def test_buf_chains_and_constants_fold_away():
    netlist = Netlist("fold")
    a = netlist.add_input("a")
    buf = netlist.add_gate(GateType.BUF, (a,))
    buf2 = netlist.add_gate(GateType.BUF, (buf,))
    netlist.add_output("y", buf2)                       # alias chain
    c1, c0 = netlist.const1(), netlist.const0()
    netlist.add_output("k1", netlist.add_gate(GateType.AND, (a, c1)))   # = a
    netlist.add_output("k0", netlist.add_gate(GateType.OR, (c0, c0)))  # = 0
    netlist.add_output("n1", netlist.add_gate(GateType.NOT, (c0,)))    # = 1
    m = netlist.add_gate(GateType.MUX, (c1, c0, a))
    netlist.add_output("m", m)                          # select const -> a
    compiled = compile_netlist(netlist)
    outputs, _ = compiled.run_words({"a": 1}, ())
    assert outputs == {"y": 1, "k1": 1, "k0": 0, "n1": 1, "m": 1}
    outputs, _ = compiled.run_words({"a": 0}, ())
    assert outputs == {"y": 0, "k1": 0, "k0": 0, "n1": 1, "m": 0}


def test_constant_dominated_gates_fold():
    netlist = Netlist("fold2")
    a = netlist.add_input("a")
    c0, c1 = netlist.const0(), netlist.const1()
    netlist.add_output("z", netlist.add_gate(GateType.AND, (a, c0)))
    netlist.add_output("o", netlist.add_gate(GateType.OR, (a, c1)))
    netlist.add_output("x", netlist.add_gate(GateType.XOR, (a, c1)))  # = ~a
    compiled = compile_netlist(netlist)
    for value in (0, 1):
        outputs, _ = compiled.run_words({"a": value}, ())
        assert outputs == {"z": 0, "o": 1, "x": 1 - value}


def test_dead_cone_is_not_compiled():
    netlist = Netlist("dead")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    # Dead: feeds no output or register.
    netlist.add_gate(GateType.XOR, (a, b))
    netlist.add_output("y", netlist.add_gate(GateType.AND, (a, b)))
    compiled = compile_netlist(netlist)
    assert "^" not in compiled.source
    assert "&" in compiled.source


def test_compile_cache_hits_and_invalidation():
    netlist = Netlist("cache")
    a = netlist.add_input("a")
    netlist.add_output("y", netlist.add_gate(GateType.NOT, (a,)))
    first = compile_netlist(netlist)
    assert compile_netlist(netlist) is first
    netlist.add_output("raw", a)  # add_output alone must invalidate
    second = compile_netlist(netlist)
    assert second is not first
    outputs, _ = second.run_words({"a": 1}, ())
    assert outputs == {"y": 0, "raw": 1}
    netlist.set_fanins(netlist.output_net("y"), (netlist.const1(),))
    third = compile_netlist(netlist)
    assert third is not second
    outputs, _ = third.run_words({"a": 0}, ())
    assert outputs == {"y": 0, "raw": 0}
