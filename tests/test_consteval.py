"""Constant-evaluation tests: operators, parameters, range widths."""

import pytest

from repro.verilog import ast
from repro.verilog.consteval import (
    ConstEvalError,
    evaluate,
    module_parameters,
    range_width,
)
from repro.verilog.parser import parse_module


def expr(text):
    module = parse_module(f"module m(output y); assign y = {text}; endmodule")
    return module.assigns[0].rhs


@pytest.mark.parametrize("text,value", [
    ("1 + 2 * 3", 7),
    ("(10 - 4) / 3", 2),
    ("7 % 4", 3),
    ("2 ** 5", 32),
    ("1 << 4", 16),
    ("32 >> 2", 8),
    ("3 < 5", 1),
    ("5 <= 5", 1),
    ("4 == 4", 1),
    ("4 != 4", 0),
    ("1 && 0", 0),
    ("1 || 0", 1),
    ("12 & 10", 8),
    ("12 | 10", 14),
    ("12 ^ 10", 6),
    ("-3 + 5", 2),
    ("!0", 1),
    ("8'hFF", 255),
    ("4'b1010", 10),
    ("3 ? 10 : 20", 10),
    ("0 ? 10 : 20", 20),
    ("{2'b10, 2'b01}", 9),
    ("{2{2'b01}}", 5),
])
def test_operator_evaluation(text, value):
    assert evaluate(expr(text)) == value


@pytest.mark.xfail(strict=True, reason="constant reductions ignore the "
                   "operand's width: &4'b0111 folds as &3'b111")
def test_reduction_and_of_a_sized_constant_sees_its_leading_zero():
    assert evaluate(expr("&4'b0111")) == 0
    assert evaluate(expr("~&4'b0111")) == 1


def test_identifier_lookup_uses_env():
    assert evaluate(expr("N + 1"), {"N": 7}) == 8


def test_unknown_identifier_raises():
    with pytest.raises(ConstEvalError):
        evaluate(expr("N + 1"))


def test_division_by_zero_raises():
    with pytest.raises(ConstEvalError):
        evaluate(expr("1 / 0"))


def test_negative_exponent_raises():
    with pytest.raises(ConstEvalError, match="negative exponent"):
        evaluate(expr("2 ** -1"))


def test_range_width():
    assert range_width(None) == 1
    rng = ast.Range(msb=ast.IntConst(7), lsb=ast.IntConst(0))
    assert range_width(rng) == 8
    param_rng = ast.Range(
        msb=ast.BinaryOp("-", ast.Identifier("N"), ast.IntConst(1)),
        lsb=ast.IntConst(0),
    )
    assert range_width(param_rng, {"N": 16}) == 16


def test_module_parameters_in_declaration_order():
    module = parse_module("""
    module m;
      parameter A = 4;
      parameter B = A * 2;
      localparam C = B + 1;
    endmodule
    """)
    assert module_parameters(module) == {"A": 4, "B": 8, "C": 9}


def test_module_parameters_overrides():
    module = parse_module("""
    module m;
      parameter A = 4;
      parameter B = A * 2;
      localparam C = B + 1;
    endmodule
    """)
    params = module_parameters(module, {"A": 10})
    assert params == {"A": 10, "B": 20, "C": 21}


def test_local_params_ignore_overrides():
    module = parse_module("""
    module m;
      localparam L = 3;
    endmodule
    """)
    assert module_parameters(module, {"L": 99}) == {"L": 3}
