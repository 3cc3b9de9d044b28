"""Reference-interpreter tests: semantics and diagnostics of its own."""

import pytest

from repro.netlist import Interpreter, InterpreterError

from test_elaborate import BAD_TOP_PARAMS, PARAMETERIZED, RECURSIVE


def test_combinational_outputs_word_level():
    interp = Interpreter("""
    module m(input [3:0] a, input [3:0] b, output [4:0] s, output eq);
      assign s = a + b;
      assign eq = a == b;
    endmodule
    """)
    out = interp.step({"a": 9, "b": 9})
    assert out == {"s": 18, "eq": 1}


def test_state_advances_and_reset():
    interp = Interpreter("""
    module t(input clk, output reg [2:0] q);
      always @(posedge clk) q <= q + 1;
    endmodule
    """)
    values = [interp.step({"clk": 0})["q"] for _ in range(10)]
    assert values == [0, 1, 2, 3, 4, 5, 6, 7, 0, 1]
    interp.reset()
    assert interp.step({"clk": 0})["q"] == 0


def test_hierarchy_with_parameter_overrides():
    interp = Interpreter("""
    module scale #(parameter K = 1) (input [3:0] x, output [7:0] y);
      assign y = x * K;
    endmodule
    module top(input [3:0] v, output [7:0] twice, output [7:0] triple);
      scale #(.K(2)) s2 (.x(v), .y(twice));
      scale #(.K(3)) s3 (.x(v), .y(triple));
    endmodule
    """, top="top")
    out = interp.step({"v": 5})
    assert out == {"twice": 10, "triple": 15}


@pytest.mark.parametrize("source,message", [
    ("", "the source defines no module"),
    ("module a(); endmodule\nmodule b(); endmodule\n",
     "a top module name is required when the source defines multiple "
     "modules (found: a, b)"),
])
def test_top_selection_diagnostics(source, message):
    with pytest.raises(InterpreterError) as info:
        Interpreter(source)
    assert str(info.value) == message


@pytest.mark.parametrize("source,top,module", RECURSIVE,
                         ids=["mutual", "self", "below_top"])
def test_recursive_instantiation_diagnostic(source, top, module):
    with pytest.raises(InterpreterError) as info:
        Interpreter(source, top=top)
    assert str(info.value) == f"recursive instantiation of module '{module}'"


@pytest.mark.parametrize("params,message", BAD_TOP_PARAMS,
                         ids=["unknown", "local"])
def test_bad_top_parameter_diagnostic(params, message):
    with pytest.raises(InterpreterError) as info:
        Interpreter(PARAMETERIZED, params=params)
    assert str(info.value) == message


def test_missing_input_diagnostic():
    interp = Interpreter("module m(input a, output y); assign y = a; endmodule")
    with pytest.raises(InterpreterError, match="missing value"):
        interp.step({})


def test_undriven_signal_diagnostic():
    interp = Interpreter("""
    module m(input a, output y);
      wire ghost;
      assign y = a ^ ghost;
    endmodule
    """)
    with pytest.raises(InterpreterError, match="no driver"):
        interp.step({"a": 1})


def test_multiple_driver_diagnostic():
    interp = Interpreter("""
    module m(input a, input b, output y);
      assign y = a;
      assign y = b;
    endmodule
    """)
    with pytest.raises(InterpreterError, match="multiple drivers"):
        interp.step({"a": 0, "b": 1})


def test_latch_diagnostic():
    interp = Interpreter("""
    module m(input en, input d, output reg q);
      always @(*) begin
        if (en) q = d;
      end
    endmodule
    """)
    with pytest.raises(InterpreterError, match="partially assigned"):
        interp.step({"en": 0, "d": 1})


def test_combinational_cycle_diagnostic():
    interp = Interpreter("""
    module m(input a, output y);
      wire u, v;
      assign u = v & a;
      assign v = u | a;
      assign y = v;
    endmodule
    """)
    with pytest.raises(InterpreterError, match="cycle"):
        interp.step({"a": 1})


def test_seq_and_comb_drive_conflict_detected_statically():
    with pytest.raises(InterpreterError, match="sequentially"):
        Interpreter("""
        module m(input clk, input a, output reg q);
          assign q = a;
          always @(posedge clk) q <= ~q;
        endmodule
        """)


def test_bitwise_feedback_not_a_false_cycle():
    # carry[0] is an assign, carry[1] comes from an instance reading
    # carry[0]; per-bit reads must keep this from looking like a cycle.
    interp = Interpreter("""
    module ha(input a, input b, output s, output c);
      assign s = a ^ b;
      assign c = a & b;
    endmodule
    module add2(input [1:0] a, input [1:0] b, output [1:0] s, output co);
      wire [2:0] carry;
      assign carry[0] = 1'b0;
      wire s0x, s1x;
      ha h0 (.a(a[0]), .b(b[0]), .s(s[0]), .c(carry[1]));
      ha h1 (.a(a[1] ^ carry[1]), .b(b[1]), .s(s[1]), .c(carry[2]));
      assign co = carry[2] | (a[1] & carry[1]);
    endmodule
    """, top="add2")
    out = interp.step({"a": 3, "b": 1})
    assert out["s"] == 0 and out["co"] == 1
