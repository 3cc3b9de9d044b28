"""End-to-end elaborator tests.

Each design is elaborated to a gate-level netlist, simulated, and checked
against both hand-computed expectations and the independent vector-level
reference interpreter (:class:`repro.netlist.Interpreter`).
"""

import itertools
import random

import pytest

from repro.netlist import (
    ElaborationError,
    GateType,
    Interpreter,
    elaborate,
    simulate_sequence,
    simulate_vectors,
)

RCA = """
module full_adder(input a, input b, input cin, output s, output cout);
  assign s = a ^ b ^ cin;
  assign cout = (a & b) | (cin & (a ^ b));
endmodule

module rca #(parameter N = 4) (
  input [N-1:0] a, input [N-1:0] b, input cin,
  output [N-1:0] sum, output cout
);
  wire [N:0] carry;
  assign carry[0] = cin;
  full_adder fa0 (.a(a[0]), .b(b[0]), .cin(carry[0]), .s(sum[0]), .cout(carry[1]));
  full_adder fa1 (.a(a[1]), .b(b[1]), .cin(carry[1]), .s(sum[1]), .cout(carry[2]));
  full_adder fa2 (.a(a[2]), .b(b[2]), .cin(carry[2]), .s(sum[2]), .cout(carry[3]));
  full_adder fa3 (.a(a[3]), .b(b[3]), .cin(carry[3]), .s(sum[3]), .cout(carry[4]));
  assign cout = carry[N];
endmodule
"""

ALU = """
module alu #(parameter W = 4) (
  input [W-1:0] a, input [W-1:0] b, input [2:0] op,
  output reg [W-1:0] y, output zero
);
  assign zero = y == 0;
  always @(*) begin
    case (op)
      3'd0: y = a + b;
      3'd1: y = a - b;
      3'd2: y = a & b;
      3'd3: y = a | b;
      3'd4: y = a ^ b;
      3'd5: y = ~a;
      3'd6: y = {W{a < b}};
      default: y = a;
    endcase
  end
endmodule
"""

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

FSM = """
module fsm(input clk, input rst, input x, output reg [1:0] state, output busy);
  localparam IDLE = 0, RUN = 1, DONE = 2;
  assign busy = state == RUN;
  always @(posedge clk) begin
    if (rst) state <= IDLE;
    else begin
      case (state)
        IDLE: if (x) state <= RUN;
        RUN: if (!x) state <= DONE;
        DONE: state <= IDLE;
        default: state <= IDLE;
      endcase
    end
  end
endmodule
"""

MUXTREE = """
module muxtree(input [7:0] d, input [2:0] sel, output y, output [3:0] hi);
  assign y = d[sel];
  assign hi = d[7:4];
endmodule
"""

SHIFTER = """
module shifty(input [7:0] a, input [2:0] s,
              output [7:0] l, output [7:0] r, output [15:0] p);
  assign l = a << s;
  assign r = a >> s;
  assign p = a * s;
endmodule
"""

FORLOOP = """
module rev #(parameter W = 8) (input [W-1:0] a, output reg [W-1:0] y);
  integer i;
  always @(*) begin
    for (i = 0; i < W; i = i + 1)
      y[i] = a[W - 1 - i];
  end
endmodule
"""

SHIFTREG = """
module shiftreg(input clk, input d, output reg [3:0] taps);
  always @(posedge clk)
    taps <= {taps[2:0], d};
endmodule
"""


def cross_check(source, top, params, vectors, sequential=False):
    """Elaborated-netlist simulation must match the reference interpreter."""
    netlist = elaborate(source, top=top, params=params)
    interp = Interpreter(source, top=top, params=params)
    got = simulate_sequence(netlist, vectors)
    ref = interp.run(vectors)
    assert got == ref
    return netlist, got


def test_parameterized_multi_module_adder_exhaustive():
    netlist = elaborate(RCA, top="rca")
    for a, b, cin in itertools.product(range(16), range(16), (0, 1)):
        out, _ = simulate_vectors(netlist, {"a": a, "b": b, "cin": cin})
        total = a + b + cin
        assert out["sum"] == total % 16
        assert out["cout"] == total // 16


def test_adder_matches_interpreter():
    vectors = [
        {"a": a, "b": b, "cin": cin}
        for a, b, cin in itertools.product(range(16), range(16), (0, 1))
    ]
    cross_check(RCA, "rca", None, vectors)


def test_top_level_parameter_override():
    # The rca module is written for N=4 instances; overriding N only widens
    # the ports, so check an independent single-module design instead.
    source = """
    module inc #(parameter W = 4) (input [W-1:0] a, output [W-1:0] y);
      assign y = a + 1;
    endmodule
    """
    netlist = elaborate(source, params={"W": 8})
    assert netlist.num_inputs == 8
    out, _ = simulate_vectors(netlist, {"a": 255})
    assert out["y"] == 0


def test_alu_exhaustive_against_interpreter():
    vectors = [
        {"a": a, "b": b, "op": op}
        for a, b, op in itertools.product(range(16), range(16), range(8))
    ]
    netlist, got = cross_check(ALU, "alu", None, vectors)
    for vec, out in zip(vectors, got):
        a, b, op = vec["a"], vec["b"], vec["op"]
        expected = [
            (a + b) % 16, (a - b) % 16, a & b, a | b, a ^ b,
            (~a) % 16, 15 if a < b else 0, a,
        ][op]
        assert out["y"] == expected
        assert out["zero"] == int(expected == 0)


def test_counter_sequence():
    vectors = [{"clk": 0, "rst": 1, "en": 0}]
    vectors += [{"clk": 0, "rst": 0, "en": int(t % 3 != 0)}
                for t in range(40)]
    netlist, got = cross_check(COUNTER, "counter", None, vectors)
    assert netlist.num_registers == 4
    # The counter increments exactly when en was high on the previous edge.
    value = 0
    for vec, out in zip(vectors[1:], got[1:]):
        assert out["q"] == value
        if vec["en"]:
            value = (value + 1) % 16


def test_fsm_sequence():
    random.seed(7)
    vectors = [{"clk": 0, "rst": int(t == 0), "x": random.randint(0, 1)}
               for t in range(80)]
    netlist, got = cross_check(FSM, "fsm", None, vectors)
    assert netlist.num_registers == 2
    assert {out["state"] for out in got} <= {0, 1, 2}


def test_dynamic_bit_select_and_part_select():
    vectors = [{"d": d, "sel": sel}
               for d in range(0, 256, 7) for sel in range(8)]
    _, got = cross_check(MUXTREE, "muxtree", None, vectors)
    for vec, out in zip(vectors, got):
        assert out["y"] == (vec["d"] >> vec["sel"]) & 1
        assert out["hi"] == vec["d"] >> 4


def test_shifts_and_multiplier():
    vectors = [{"a": a, "s": s} for a in range(0, 256, 11) for s in range(8)]
    _, got = cross_check(SHIFTER, "shifty", None, vectors)
    for vec, out in zip(vectors, got):
        assert out["l"] == (vec["a"] << vec["s"]) & 0xFF
        assert out["r"] == vec["a"] >> vec["s"]
        assert out["p"] == vec["a"] * vec["s"]


def test_for_loop_unrolling():
    vectors = [{"a": a} for a in range(0, 256, 5)]
    _, got = cross_check(FORLOOP, "rev", None, vectors)
    for vec, out in zip(vectors, got):
        expected = int(format(vec["a"], "08b")[::-1], 2)
        assert out["y"] == expected


def test_sequential_concat_shift_register():
    bits = [1, 1, 0, 1, 0, 0, 1, 1, 1, 0]
    vectors = [{"clk": 0, "d": bit} for bit in bits]
    _, got = cross_check(SHIFTREG, "shiftreg", None, vectors)
    history = [0, 0, 0, 0]
    for bit, out in zip(bits, got):
        assert out["taps"] == int("".join(map(str, history[::-1])), 2)
        history = [bit] + history[:3]


def test_blocking_temporaries_in_sequential_block():
    source = """
    module acc(input clk, input [3:0] d, output reg [3:0] total);
      reg [3:0] nxt;
      always @(posedge clk) begin
        nxt = total + d;
        total <= nxt;
      end
    endmodule
    """
    vectors = [{"clk": 0, "d": d} for d in (1, 2, 3, 4, 5)]
    _, got = cross_check(source, "acc", None, vectors)
    assert [out["total"] for out in got] == [0, 1, 3, 6, 10]


def test_ternary_reduction_and_logical_ops():
    source = """
    module mix(input [3:0] a, input [3:0] b, output [3:0] y, output f,
               output [3:0] r, output [2:0] c, output co, output [3:0] q,
               output [4:0] s, output [3:0] k);
      localparam [3:0] K = {~&4'b1111, ~|4'b0000, ~^4'b0110, ^~4'b0111}
          | {3'b000, (&4'b1111) && (|4'b0100) && (^4'b0111)
                     && (3 > 2) && (2 <= 2) && (2 >= 1)};
      assign y = (&a) ? a : (a ^ b);
      assign f = (a != 0) && (|b) || !a[0];
      assign r = {~&a, ~|b, ~^a, ^~b};
      assign c = {a > b, a <= b, a >= b};
      assign {co, q} = a + b;
      assign s[4:1] = a - b;
      assign s[0] = a[0];
      assign k = K;
    endmodule
    """
    vectors = [{"a": a, "b": b}
               for a, b in itertools.product(range(16), range(16))]
    _, got = cross_check(source, "mix", None, vectors)

    def parity(v):
        return bin(v).count("1") & 1

    for vec, out in zip(vectors, got):
        a, b = vec["a"], vec["b"]
        assert out["r"] == ((a != 15) << 3 | (b == 0) << 2
                            | (1 - parity(a)) << 1 | (1 - parity(b)))
        assert out["c"] == (a > b) << 2 | (a <= b) << 1 | (a >= b)
        assert (out["co"], out["q"]) == divmod(a + b, 16)
        assert out["s"] == ((a - b) % 16) << 1 | (a & 1)
        assert out["k"] == 0b0111


def test_per_bit_feedback_through_vector_is_not_a_cycle():
    # a[1] depends on a[0]: bitwise resolution must not report a cycle,
    # in continuous or procedural form, and must match the interpreter.
    cont = """
    module t(input x, output [1:0] a);
      assign a[0] = x;
      assign a[1] = a[0];
    endmodule
    """
    proc = """
    module t(input x, output reg [1:0] a);
      always @(*) begin
        a[0] = x;
        a[1] = a[0];
      end
    endmodule
    """
    for source in (cont, proc):
        netlist = elaborate(source)
        out, _ = simulate_vectors(netlist, {"x": 1})
        assert out == Interpreter(source).step({"x": 1}) == {"a": 3}


def test_carry_preserved_into_wider_target():
    # Verilog context sizing: the add is computed at the 5-bit LHS width.
    source = """
    module wadd(input [3:0] a, input [3:0] b, output [4:0] s);
      assign s = a + b;
    endmodule
    """
    vectors = [{"a": a, "b": b}
               for a, b in itertools.product(range(16), range(16))]
    _, got = cross_check(source, "wadd", None, vectors)
    for vec, out in zip(vectors, got):
        assert out["s"] == vec["a"] + vec["b"]


def test_randomized_mixed_expression_cross_check():
    source = """
    module mixed #(parameter W = 6) (
      input [W-1:0] a, input [W-1:0] b, input [W-1:0] c, input s,
      output [W:0] y, output [W-1:0] z, output p
    );
      wire [W-1:0] t;
      assign t = s ? (a & ~b) : (a | (b ^ c));
      assign y = t + (c - a);
      assign z = {t[2:0], t[W-1:3]} ^ {W{s}};
      assign p = ^a ~^ &b;
    endmodule
    """
    random.seed(42)
    vectors = [
        {"a": random.randrange(64), "b": random.randrange(64),
         "c": random.randrange(64), "s": random.randint(0, 1)}
        for _ in range(300)
    ]
    cross_check(source, "mixed", None, vectors)


def test_unconnected_instance_input_reads_zero():
    source = """
    module leaf(input a, input b, output y);
      assign y = a | b;
    endmodule
    module top(input x, output y);
      leaf u (.a(x), .b(), .y(y));
    endmodule
    """
    netlist = elaborate(source, top="top")
    out, _ = simulate_vectors(netlist, {"x": 0})
    assert out["y"] == 0


def test_positional_connections_and_overrides():
    source = """
    module pass #(parameter W = 2) (input [W-1:0] d, output [W-1:0] q);
      assign q = d;
    endmodule
    module top(input [3:0] a, output [3:0] b);
      pass #(4) u (a, b);
    endmodule
    """
    netlist = elaborate(source, top="top")
    out, _ = simulate_vectors(netlist, {"a": 9})
    assert out["b"] == 9


def test_registered_feedback_through_instance():
    # A counter in a child module whose next value is computed by the parent:
    # combinational feedback through instance boundaries must not be
    # misreported as a cycle because a register breaks the loop.
    source = """
    module dffw #(parameter W = 4) (input clk, input [W-1:0] d,
                                    output reg [W-1:0] q);
      always @(posedge clk) q <= d;
    endmodule
    module top(input clk, output [3:0] count);
      wire [3:0] nxt;
      assign nxt = count + 1;
      dffw #(.W(4)) state (.clk(clk), .d(nxt), .q(count));
    endmodule
    """
    vectors = [{"clk": 0} for _ in range(10)]
    _, got = cross_check(source, "top", None, vectors)
    assert [out["count"] for out in got] == list(range(10))


# -- diagnostics --------------------------------------------------------------


def test_undriven_signal_diagnostic():
    with pytest.raises(ElaborationError, match="no driver"):
        elaborate("""
        module m(input a, output y);
          wire ghost;
          assign y = a & ghost;
        endmodule
        """)


def test_multiple_driver_diagnostic():
    with pytest.raises(ElaborationError, match="multiple drivers"):
        elaborate("""
        module m(input a, input b, output y);
          assign y = a;
          assign y = b;
        endmodule
        """)


def test_inferred_latch_diagnostic():
    with pytest.raises(ElaborationError, match="latch"):
        elaborate("""
        module m(input en, input d, output reg q);
          always @(*) begin
            if (en) q = d;
          end
        endmodule
        """)


def test_combinational_cycle_diagnostic():
    with pytest.raises(ElaborationError, match="cycle"):
        elaborate("""
        module m(input a, output y);
          wire u, v;
          assign u = v & a;
          assign v = u | a;
          assign y = v;
        endmodule
        """)


def test_unknown_module_diagnostic():
    with pytest.raises(ElaborationError, match="not defined"):
        elaborate("""
        module m(input a, output y);
          mystery u (.p(a), .q(y));
        endmodule
        """, top="m")


#: (source, top, the module named in the diagnostic) for designs that
#: instantiate one of their own ancestors; the interpreter tests reuse it.
RECURSIVE = [
    ("""
    module a(input x, output y); b u (.x(x), .y(y)); endmodule
    module b(input x, output y); a u (.x(x), .y(y)); endmodule
    """, "a", "a"),
    ("module a(input x, output y); a u (.x(x), .y(y)); endmodule", "a", "a"),
    ("""
    module top(input x, output y); mid u (.x(x), .y(y)); endmodule
    module mid(input x, output y); leaf u (.x(x), .y(y)); endmodule
    module leaf(input x, output y); mid u (.x(x), .y(y)); endmodule
    """, "top", "mid"),
]


@pytest.mark.parametrize("source,top,module", RECURSIVE,
                         ids=["mutual", "self", "below_top"])
def test_recursive_instantiation_diagnostic(source, top, module):
    with pytest.raises(ElaborationError) as info:
        elaborate(source, top=top)
    assert str(info.value) == f"recursive instantiation of module '{module}'"


#: (top parameter overrides, diagnostic) for overrides the top module
#: cannot take; the interpreter and CLI tests reuse it.
BAD_TOP_PARAMS = [
    ({"Q": 2}, "cannot override unknown parameter 'Q' of top module 'p'"),
    ({"L": 2}, "cannot override local parameter 'L' of top module 'p'"),
]

PARAMETERIZED = """
module p #(parameter W = 2) (input [W-1:0] a, output [W-1:0] y);
  localparam L = W + 1;
  assign y = a;
endmodule
"""


@pytest.mark.parametrize("params,message", BAD_TOP_PARAMS,
                         ids=["unknown", "local"])
def test_bad_top_parameter_diagnostic(params, message):
    with pytest.raises(ElaborationError) as info:
        elaborate(PARAMETERIZED, params=params)
    assert str(info.value) == message
    # A declared, overridable parameter is accepted.
    assert elaborate(PARAMETERIZED, params={"W": 3}).num_inputs == 3


def test_inout_port_diagnostic():
    with pytest.raises(ElaborationError, match="inout"):
        elaborate("module m(inout a); endmodule")


def test_out_of_range_select_diagnostic():
    with pytest.raises(ElaborationError, match="out of range"):
        elaborate("""
        module m(input [3:0] a, output y);
          assign y = a[7];
        endmodule
        """)


def test_top_required_for_multi_module_source():
    with pytest.raises(ElaborationError, match="top module"):
        elaborate(RCA)


@pytest.mark.parametrize("source", ["", "// only a comment\n"])
def test_source_without_modules_diagnostic(source):
    with pytest.raises(ElaborationError) as info:
        elaborate(source)
    assert str(info.value) == "the source defines no module"
    with pytest.raises(ElaborationError, match="top module 'm' not found"):
        elaborate(source, top="m")


def test_elaborate_accepts_parsed_source():
    from repro.verilog.parser import parse

    netlist = elaborate(parse(RCA), top="rca")
    assert netlist.num_inputs == 9
    assert netlist.gate(netlist.output_net("cout")) is not None


def test_netlist_structure_of_sequential_design():
    netlist = elaborate(COUNTER, top="counter", params={"W": 6})
    assert netlist.num_registers == 6
    assert netlist.num_inputs == 3
    dffs = [g for g in netlist.gates.values()
            if g.gtype == GateType.DFF]
    assert all(g.name.startswith("counter.q") for g in dffs)
