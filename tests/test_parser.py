"""Parser tests, including generator round-trips (parse → emit → reparse)."""

import pytest

from repro.verilog import ast
from repro.verilog.generator import generate_module, generate_source
from repro.verilog.parser import VerilogSyntaxError, parse, parse_module

ADDER = """
module adder #(parameter N = 4) (
  input [N-1:0] a,
  input [N-1:0] b,
  output [N:0] y
);
  assign y = a + b;
endmodule
"""

SEQ = """
module seq(input clk, input rst, input d, output reg q);
  always @(posedge clk) begin
    if (rst)
      q <= 1'b0;
    else
      q <= d;
  end
endmodule
"""

HIER = """
module leaf(input a, output y);
  assign y = ~a;
endmodule

module top(input x, output z);
  wire mid;
  leaf u0 (.a(x), .y(mid));
  leaf u1 (.a(mid), .y(z));
endmodule
"""


def test_module_header_and_ports():
    module = parse_module(ADDER)
    assert module.name == "adder"
    assert [p.name for p in module.ports] == ["a", "b", "y"]
    assert [p.direction for p in module.ports] == ["input", "input", "output"]
    assert module.param_decls[0].name == "N"


def test_non_ansi_ports():
    module = parse_module("""
    module m(a, b, y);
      input a, b;
      output y;
      assign y = a & b;
    endmodule
    """)
    assert [p.name for p in module.ports] == ["a", "b", "y"]
    assert module.port("y").direction == "output"


def test_always_block_structure():
    module = parse_module(SEQ)
    always = module.always_blocks[0]
    assert always.is_sequential
    stmt = always.statement
    assert isinstance(stmt, ast.Block)
    assert isinstance(stmt.statements[0], ast.If)


def test_case_statement():
    module = parse_module("""
    module m(input [1:0] s, output reg y);
      always @(*) begin
        case (s)
          2'd0, 2'd1: y = 1'b0;
          default: y = 1'b1;
        endcase
      end
    endmodule
    """)
    case = module.always_blocks[0].statement.statements[0]
    assert isinstance(case, ast.Case)
    assert len(case.items) == 2
    assert case.items[0].conditions is not None
    assert len(case.items[0].conditions) == 2
    assert case.items[1].conditions is None


def test_for_loop_parses_to_for_node():
    module = parse_module("""
    module m(input [3:0] a, output reg [3:0] y);
      integer i;
      always @(*) begin
        for (i = 0; i < 4; i = i + 1)
          y[i] = a[i];
      end
    endmodule
    """)
    loop = module.always_blocks[0].statement.statements[0]
    assert isinstance(loop, ast.For)
    assert isinstance(loop.init, ast.BlockingAssign)
    assert isinstance(loop.cond, ast.BinaryOp)
    assert isinstance(loop.step, ast.BlockingAssign)


def test_instances_and_parameter_overrides():
    module = parse_module("""
    module top(input a, output y);
      sub #(.W(8)) u0 (.x(a), .y(y));
    endmodule
    """)
    inst = module.instances[0]
    assert inst.module_name == "sub"
    assert inst.parameters[0].param == "W"
    assert [(c.port, c.expr) for c in inst.connections] == [
        ("x", ast.Identifier("a")), ("y", ast.Identifier("y"))]


def test_expression_precedence():
    module = parse_module("module m(output y); assign y = 1 + 2 * 3; endmodule")
    rhs = module.assigns[0].rhs
    assert isinstance(rhs, ast.BinaryOp) and rhs.op == "+"
    assert isinstance(rhs.right, ast.BinaryOp) and rhs.right.op == "*"


@pytest.mark.parametrize("source", [ADDER, SEQ, HIER])
def test_generator_roundtrip_is_stable(source):
    first = parse(source)
    text1 = generate_source(first)
    second = parse(text1)
    text2 = generate_source(second)
    assert text1 == text2
    assert first.module_names() == second.module_names()


def test_generator_roundtrip_for_loop():
    source = """
    module m(input [3:0] a, output reg [3:0] y);
      integer i;
      always @(*) begin
        for (i = 0; i < 4; i = i + 1)
          y[i] = a[3 - i];
      end
    endmodule
    """
    text1 = generate_module(parse_module(source))
    text2 = generate_module(parse_module(text1))
    assert text1 == text2
    assert "for (" in text1


def test_power_operator_precedence_and_roundtrip():
    from repro.verilog.consteval import evaluate
    from repro.verilog.generator import generate_expression

    # ``**`` is right-associative and binds tighter than ``*``.
    rhs = parse_module(
        "module m(output y); assign y = 2 * 2 ** 3 ** 2; endmodule"
    ).assigns[0].rhs
    assert evaluate(rhs) == 2 * 2 ** 9
    # Programmatic ASTs that differ from parse defaults must round-trip.
    neg_pow = ast.UnaryOp("-", ast.BinaryOp("**", ast.IntConst(2),
                                            ast.IntConst(2)))
    left_pow = ast.BinaryOp("**", ast.BinaryOp("**", ast.IntConst(2),
                                               ast.IntConst(3)),
                            ast.IntConst(2))
    for node, expected in ((neg_pow, -4), (left_pow, 64)):
        text = generate_expression(node)
        reparsed = parse_module(
            f"module m(output y); assign y = {text}; endmodule"
        ).assigns[0].rhs
        assert evaluate(reparsed) == expected


def test_syntax_error_reports_line():
    with pytest.raises(VerilogSyntaxError, match="line"):
        parse("module m(input a output y); endmodule")


def test_parse_module_requires_single_module():
    with pytest.raises(VerilogSyntaxError):
        parse_module(HIER)


def _rhs(expression):
    return parse_module(
        f"module m(output y); assign y = {expression}; endmodule"
    ).assigns[0].rhs


_A, _B, _C, _D, _E, _F, _G, _H, _I, _J, _K, _L = (
    ast.Identifier(name) for name in "abcdefghijkl"
)


def _bin(op, left, right):
    return ast.BinaryOp(op=op, left=left, right=right)


def _un(op, operand):
    return ast.UnaryOp(op=op, operand=operand)


@pytest.mark.parametrize("expression,tree", [
    # Binary levels are left-associative.
    ("a - b - c", _bin("-", _bin("-", _A, _B), _C)),
    ("a == b != c", _bin("!=", _bin("==", _A, _B), _C)),
    # ``**`` is right-associative and binds below unary operators.
    ("a ** b ** c", _bin("**", _A, _bin("**", _B, _C))),
    ("-a ** b", _bin("**", _un("-", _A), _B)),
    ("a ** -b", _bin("**", _A, _un("-", _B))),
    # The ternary nests to the right, in both arms.
    ("a ? b : c ? d : e",
     ast.Ternary(_A, _B, ast.Ternary(_C, _D, _E))),
    ("a ? b ? c : d : e",
     ast.Ternary(_A, ast.Ternary(_B, _C, _D), _E)),
    # Every level, loosest first: each operator takes the rest as its right.
    ("a || b && c | d ^ e & f == g < h << i + j * k ** l",
     _bin("||", _A, _bin("&&", _B, _bin("|", _C, _bin("^", _D, _bin(
         "&", _E, _bin("==", _F, _bin("<", _G, _bin("<<", _H, _bin(
             "+", _I, _bin("*", _J, _bin("**", _K, _L)))))))))))),
    # Every level, tightest first: the tree nests to the left instead.
    ("a ** b * c + d << e < f == g & h ^ i | j && k || l",
     _bin("||", _bin("&&", _bin("|", _bin("^", _bin("&", _bin("==", _bin(
         "<", _bin("<<", _bin("+", _bin("*", _bin("**", _A, _B), _C), _D),
                   _E), _F), _G), _H), _I), _J), _K), _L)),
    # Reduction and logical unary operators bind tightest.
    ("~&a || !b", _bin("||", _un("~&", _A), _un("!", _B))),
    ("~^a ^ ^~b", _bin("^", _un("~^", _A), _un("^~", _B))),
])
def test_expression_trees(expression, tree):
    assert _rhs(expression) == tree


@pytest.mark.parametrize("text,message", [
    ("module m(output y); assign y = a +; endmodule",
     "unexpected token ';' at line 1 in expression"),
    ("module m(output y); assign y = (a; endmodule",
     "expected \\) but found ';' at line 1"),
    ("module m(output y); assign y = a ? b c; endmodule",
     "expected : but found 'c' at line 1"),
    ("module m(output y); assign y = a", "unexpected end of input, expected ;"),
])
def test_expression_error_messages(text, message):
    with pytest.raises(VerilogSyntaxError, match=message):
        parse(text)


_FUNCTION = """module m(input [3:0] a, output [3:0] y);
  function [3:0] f(input [3:0] x); f = x; endfunction
  assign y = f(a);
endmodule
"""

_GENERATE_LOOP = """module m(input [3:0] a, output [3:0] y);
  genvar i;
  generate for (i = 0; i < 4; i = i + 1) begin : g
    assign y[i] = a[3 - i];
  end endgenerate
endmodule
"""


@pytest.mark.parametrize("text,message", [
    (_FUNCTION, "'function' declaration at line 2 is not supported"),
    # Without the declaration, the call itself is named.
    (_FUNCTION.replace("function", "// function"),
     "call of 'f' at line 3 is not supported"),
    ("module m(input [3:0] a, output [3:0] y);\n"
     "  assign y = $clog2(a);\nendmodule\n",
     "call of '\\$clog2' at line 2 is not supported"),
    # A declaration that never ends is located where it starts.
    ("module m(input a, output y);\n  function f;\n  assign y = a;\n"
     "endmodule\n",
     "'function' declaration at line 2 is not supported"),
    ("module m(input a, output y);\n  task t; endtask\n"
     "  assign y = a;\nendmodule\n",
     "'task' declaration at line 2 is not supported"),
    # A task enable is a call in statement position.
    ("module m(input a, output reg y);\n  always @(*) begin\n"
     "    t(a);\n  end\nendmodule\n",
     "call of 't' at line 3 is not supported"),
    (_GENERATE_LOOP, "^generate loop at line 3 is not supported$"),
    # The region keywords are optional around a loop.
    (_GENERATE_LOOP.replace("generate ", "").replace(" endgenerate", ""),
     "^generate loop at line 3 is not supported$"),
])
def test_functions_and_calls_are_rejected(text, message):
    with pytest.raises(VerilogSyntaxError, match=message):
        parse(text)


def test_generate_regions_and_genvars_parse_as_plain_items():
    module = parse("module m(input [3:0] a, output [3:0] y);\n"
                   "  genvar i, j;\n"
                   "  generate\n    assign y = ~a;\n  endgenerate\n"
                   "endmodule\n").modules[0]
    assert len(module.assigns) == 1 and module.assigns[0].lhs.name == "y"
