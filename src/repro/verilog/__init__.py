"""Verilog frontend: lexer, parser, AST, constant evaluator and code generator.

This package replaces the PyVerilog dependency of the original ALICE
prototype with a self-contained synthesizable-subset toolkit.
"""

from . import ast
from .consteval import ConstEvalError, evaluate, module_parameters, range_width
from .generator import (
    generate_expression,
    generate_module,
    generate_source,
    generate_statement,
)
from .lexer import Token, VerilogLexError, tokenize
from .parser import Parser, VerilogSyntaxError, parse, parse_module

__all__ = [
    "ast",
    "ConstEvalError",
    "evaluate",
    "module_parameters",
    "range_width",
    "generate_expression",
    "generate_module",
    "generate_source",
    "generate_statement",
    "Token",
    "VerilogLexError",
    "tokenize",
    "Parser",
    "VerilogSyntaxError",
    "parse",
    "parse_module",
]
