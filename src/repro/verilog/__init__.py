"""Verilog frontend: lexer, parser, AST, code generator and design analyses.

This package replaces the PyVerilog dependency of the original ALICE
prototype with a self-contained synthesizable-subset toolkit.
"""

from . import ast
from .consteval import ConstEvalError, evaluate, module_parameters, range_width
from .dataflow import DataflowGraph, summarize_statement
from .generator import (
    generate_expression,
    generate_module,
    generate_source,
    generate_statement,
)
from .hierarchy import (
    DesignHierarchy,
    HierarchyError,
    InstanceNode,
    ModuleInfo,
    PortInfo,
    resolve_module_info,
)
from .lexer import Token, VerilogLexError, tokenize
from .parser import Parser, VerilogSyntaxError, parse, parse_module

__all__ = [
    "ast",
    "ConstEvalError",
    "evaluate",
    "module_parameters",
    "range_width",
    "DataflowGraph",
    "summarize_statement",
    "generate_expression",
    "generate_module",
    "generate_source",
    "generate_statement",
    "DesignHierarchy",
    "HierarchyError",
    "InstanceNode",
    "ModuleInfo",
    "PortInfo",
    "resolve_module_info",
    "Token",
    "VerilogLexError",
    "tokenize",
    "Parser",
    "VerilogSyntaxError",
    "parse",
    "parse_module",
]
