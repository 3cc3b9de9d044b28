"""Recursive-descent parser for the synthesizable Verilog subset.

The parser consumes tokens from :mod:`repro.verilog.lexer` and produces the
AST defined in :mod:`repro.verilog.ast`.  Supported constructs cover the
benchmark suite used by ALICE:

* module definitions with ANSI or non-ANSI port lists and parameter headers
* ``parameter`` / ``localparam`` declarations
* ``wire`` / ``reg`` / ``integer`` declarations (scalar and vector)
* continuous assignments
* ``always`` blocks with edge or combinational sensitivity lists, containing
  ``begin``/``end`` blocks, ``if``/``else``, ``case`` statements and
  blocking / non-blocking assignments
* module instantiations with named or positional connections and parameter
  overrides
* the full expression grammar (ternary, logical, bitwise, relational, shifts,
  arithmetic, unary/reduction operators, concatenation, replication, bit and
  part selects)

Statements and declarations are parsed by recursive descent.  Binary
expressions are parsed by precedence climbing (one loop, one recursion per
tighter operand) over :data:`BINDING_POWER`, the single source of operator
precedence and associativity; unary operators come from
:data:`UNARY_OPERATORS`.
"""

from __future__ import annotations

from typing import Optional

from . import ast
from .lexer import Token, parse_sized_number, tokenize


class VerilogSyntaxError(Exception):
    """Raised when the token stream does not match the expected grammar."""


#: Binary operator -> binding power (higher binds tighter): the single
#: source of operator precedence.  Every level is left-associative except
#: ``**``, which is right-associative.  Unary operators bind tighter than all
#: of them, ``**`` included, so ``-a ** b`` is ``(-a) ** b``.
BINDING_POWER = {
    op: power
    for power, level in enumerate((
        ("||",),
        ("&&",),
        ("|", "~|"),
        ("^", "~^", "^~"),
        ("&", "~&"),
        ("==", "!=", "===", "!=="),
        ("<", ">", "<=", ">="),
        ("<<", ">>", "<<<", ">>>"),
        ("+", "-"),
        ("*", "/", "%"),
        ("**",),
    ), start=1)
    for op in level
}

UNARY_OPERATORS = frozenset(
    ("~&", "~|", "~^", "^~", "!", "~", "-", "+", "&", "|", "^")
)


class Parser:
    """Recursive-descent parser over a token list."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token stream helpers --------------------------------------------------

    def _peek(self, offset: int = 0) -> Optional[Token]:
        index = self.pos + offset
        if index < len(self.tokens):
            return self.tokens[index]
        return None

    def _at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def _check(self, kind: str, value: Optional[str] = None, offset: int = 0) -> bool:
        index = self.pos + offset
        if index >= len(self.tokens):
            return False
        tok = self.tokens[index]
        return tok.kind == kind and (value is None or tok.value == value)

    def _advance(self) -> Token:
        pos = self.pos
        if pos >= len(self.tokens):
            raise VerilogSyntaxError("unexpected end of input")
        self.pos = pos + 1
        return self.tokens[pos]

    def _expect(self, kind: str, value: Optional[str] = None) -> Token:
        pos = self.pos
        if pos >= len(self.tokens):
            raise VerilogSyntaxError(
                f"unexpected end of input, expected {value or kind}"
            )
        tok = self.tokens[pos]
        if tok.kind != kind or (value is not None and tok.value != value):
            raise VerilogSyntaxError(
                f"expected {value or kind} but found {tok.value!r} at line {tok.line}"
            )
        self.pos = pos + 1
        return tok

    def _accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        pos = self.pos
        if pos < len(self.tokens):
            tok = self.tokens[pos]
            if tok.kind == kind and (value is None or tok.value == value):
                self.pos = pos + 1
                return tok
        return None

    # -- top level --------------------------------------------------------------

    def parse_source(self) -> ast.Source:
        """Parse the full token stream into a :class:`Source`."""
        modules = []
        while not self._at_end():
            if self._check("KEYWORD", "module"):
                modules.append(self.parse_module())
            else:
                tok = self._advance()
                raise VerilogSyntaxError(
                    f"unexpected token {tok.value!r} at line {tok.line}; "
                    "expected 'module'"
                )
        return ast.Source(modules=modules)

    # -- module -----------------------------------------------------------------

    def parse_module(self) -> ast.Module:
        self._expect("KEYWORD", "module")
        name = self._expect("ID").value
        module = ast.Module(name=name)
        header_params: list[ast.ParamDecl] = []

        if self._check("PUNCT", "#"):
            header_params = self._parse_parameter_header()

        port_order: list[str] = []
        if self._accept("PUNCT", "("):
            port_order = self._parse_port_list(module)
        self._expect("PUNCT", ";")

        module.items.extend(header_params)

        while not self._check("KEYWORD", "endmodule"):
            self._parse_module_item(module, port_order)
        self._expect("KEYWORD", "endmodule")
        self._reorder_ports(module, port_order)
        return module

    def _parse_parameter_header(self) -> list[ast.ParamDecl]:
        self._expect("PUNCT", "#")
        self._expect("PUNCT", "(")
        params: list[ast.ParamDecl] = []
        while not self._check("PUNCT", ")"):
            self._accept("KEYWORD", "parameter")
            width = self._parse_optional_range()
            pname = self._expect("ID").value
            self._expect("OP", "=")
            value = self.parse_expression()
            params.append(ast.ParamDecl(name=pname, value=value, width=width))
            if not self._accept("PUNCT", ","):
                break
        self._expect("PUNCT", ")")
        return params

    def _parse_port_list(self, module: ast.Module) -> list[str]:
        """Parse the header port list, returning the declared port order."""
        order: list[str] = []
        if self._accept("PUNCT", ")"):
            return order
        while True:
            if self._check("KEYWORD", "input") or self._check("KEYWORD", "output") \
                    or self._check("KEYWORD", "inout"):
                # ANSI-style declarations inside the header.
                direction = self._advance().value
                is_reg = bool(self._accept("KEYWORD", "reg"))
                self._accept("KEYWORD", "wire")
                signed = bool(self._accept("KEYWORD", "signed"))
                width = self._parse_optional_range()
                pname = self._expect("ID").value
                module.ports.append(
                    ast.Port(name=pname, direction=direction, width=width,
                             is_reg=is_reg, signed=signed)
                )
                order.append(pname)
                # Allow "input a, b, c" continuation with the same direction.
                while self._check("PUNCT", ",") and self._check("ID", offset=1) \
                        and not self._is_direction_next(2):
                    self._advance()  # comma
                    extra = self._expect("ID").value
                    module.ports.append(
                        ast.Port(name=extra, direction=direction, width=width,
                                 is_reg=is_reg, signed=signed)
                    )
                    order.append(extra)
            else:
                pname = self._expect("ID").value
                order.append(pname)
            if not self._accept("PUNCT", ","):
                break
        self._expect("PUNCT", ")")
        return order

    def _is_direction_next(self, offset: int) -> bool:
        tok = self._peek(offset)
        return tok is not None and tok.kind == "KEYWORD" and tok.value in (
            "input", "output", "inout",
        )

    def _reorder_ports(self, module: ast.Module, order: list[str]) -> None:
        """Reorder module.ports to match the header declaration order."""
        if not order:
            return
        by_name = {p.name: p for p in module.ports}
        reordered = [by_name[name] for name in order if name in by_name]
        extras = [p for p in module.ports if p.name not in order]
        module.ports = reordered + extras

    # -- module items -----------------------------------------------------------

    def _parse_module_item(self, module: ast.Module, port_order: list[str]) -> None:
        tok = self._peek()
        if tok is None:
            raise VerilogSyntaxError("unexpected end of input inside module")

        if tok.kind == "KEYWORD":
            if tok.value in ("input", "output", "inout"):
                self._parse_port_declaration(module)
                return
            if tok.value in ("wire", "reg", "integer"):
                self._parse_net_declaration(module)
                return
            if tok.value in ("parameter", "localparam"):
                self._parse_param_declaration(module)
                return
            if tok.value == "assign":
                self._parse_assign(module)
                return
            if tok.value == "always":
                module.items.append(self._parse_always())
                return
            if tok.value == "initial":
                self._advance()
                stmt = self._parse_statement()
                module.items.append(ast.Initial(statement=stmt))
                return
            if tok.value in ("generate", "endgenerate"):
                # The items of a generate region parse as ordinary module
                # items, so the keywords are no-ops; a loop is rejected.
                self._advance()
                return
            if tok.value in ("function", "task"):
                raise VerilogSyntaxError(
                    f"'{tok.value}' declaration at line {tok.line} is not "
                    "supported"
                )
            if tok.value == "for":
                raise VerilogSyntaxError(
                    f"generate loop at line {tok.line} is not supported")
            if tok.value == "genvar":
                self._advance()
                self._expect("ID")
                while self._accept("PUNCT", ","):
                    self._expect("ID")
                self._expect("PUNCT", ";")
                return
        if tok.kind == "ID":
            module.items.extend(self._parse_instances())
            return
        raise VerilogSyntaxError(
            f"unexpected token {tok.value!r} at line {tok.line} inside module "
            f"'{module.name}'"
        )

    def _parse_optional_range(self) -> Optional[ast.Range]:
        if self._check("PUNCT", "["):
            self._advance()
            msb = self.parse_expression()
            self._expect("PUNCT", ":")
            lsb = self.parse_expression()
            self._expect("PUNCT", "]")
            return ast.Range(msb=msb, lsb=lsb)
        return None

    def _parse_port_declaration(self, module: ast.Module) -> None:
        direction = self._advance().value
        is_reg = bool(self._accept("KEYWORD", "reg"))
        if self._check("KEYWORD", "wire"):
            self._advance()
        signed = bool(self._accept("KEYWORD", "signed"))
        width = self._parse_optional_range()
        names = [self._expect("ID").value]
        while self._accept("PUNCT", ","):
            names.append(self._expect("ID").value)
        self._expect("PUNCT", ";")
        for name in names:
            existing = module.port(name)
            if existing is not None:
                existing.direction = direction
                existing.width = width
                existing.is_reg = is_reg or existing.is_reg
                existing.signed = signed or existing.signed
            else:
                module.ports.append(
                    ast.Port(name=name, direction=direction, width=width,
                             is_reg=is_reg, signed=signed)
                )

    def _parse_net_declaration(self, module: ast.Module) -> None:
        kind = self._advance().value
        if kind == "integer":
            kind = "reg"
            width = ast.Range(ast.IntConst(31), ast.IntConst(0))
        else:
            if self._accept("KEYWORD", "signed"):
                pass
            width = self._parse_optional_range()
        while True:
            name = self._expect("ID").value
            init = None
            if self._accept("OP", "="):
                init = self.parse_expression()
            module.items.append(
                ast.NetDecl(name=name, kind=kind, width=width, init=init)
            )
            if not self._accept("PUNCT", ","):
                break
        self._expect("PUNCT", ";")

    def _parse_param_declaration(self, module: ast.Module) -> None:
        keyword = self._advance().value
        local = keyword == "localparam"
        width = self._parse_optional_range()
        while True:
            name = self._expect("ID").value
            self._expect("OP", "=")
            value = self.parse_expression()
            module.items.append(
                ast.ParamDecl(name=name, value=value, local=local, width=width)
            )
            if not self._accept("PUNCT", ","):
                break
        self._expect("PUNCT", ";")

    def _parse_assign(self, module: ast.Module) -> None:
        self._expect("KEYWORD", "assign")
        while True:
            lhs = self.parse_expression()
            self._expect("OP", "=")
            rhs = self.parse_expression()
            module.items.append(ast.Assign(lhs=lhs, rhs=rhs))
            if not self._accept("PUNCT", ","):
                break
        self._expect("PUNCT", ";")

    # -- always blocks and statements -------------------------------------------

    def _parse_always(self) -> ast.Always:
        self._expect("KEYWORD", "always")
        sensitivity: list[ast.SensItem] = []
        if self._accept("PUNCT", "@"):
            if self._accept("OP", "*"):
                sensitivity.append(ast.SensItem(signal=None, star=True))
            else:
                self._expect("PUNCT", "(")
                if self._accept("OP", "*"):
                    sensitivity.append(ast.SensItem(signal=None, star=True))
                else:
                    sensitivity.append(self._parse_sens_item())
                    while self._accept("KEYWORD", "or") or self._accept("PUNCT", ","):
                        sensitivity.append(self._parse_sens_item())
                self._expect("PUNCT", ")")
        statement = self._parse_statement()
        return ast.Always(sensitivity=sensitivity, statement=statement)

    def _parse_sens_item(self) -> ast.SensItem:
        edge = None
        if self._check("KEYWORD", "posedge") or self._check("KEYWORD", "negedge"):
            edge = self._advance().value
        signal = self.parse_expression()
        return ast.SensItem(signal=signal, edge=edge)

    def _parse_statement(self) -> Optional[ast.Statement]:
        if self._accept("PUNCT", ";"):
            return None
        tok = self._peek()
        if tok is None:
            raise VerilogSyntaxError("unexpected end of input in statement")
        if tok.kind == "KEYWORD":
            if tok.value == "begin":
                return self._parse_block()
            if tok.value == "if":
                return self._parse_if()
            if tok.value in ("case", "casez", "casex"):
                return self._parse_case()
            if tok.value == "for":
                return self._parse_for()
        return self._parse_procedural_assign()

    def _parse_block(self) -> ast.Block:
        self._expect("KEYWORD", "begin")
        name = None
        if self._accept("PUNCT", ":"):
            name = self._expect("ID").value
        statements: list[ast.Statement] = []
        while not self._check("KEYWORD", "end"):
            stmt = self._parse_statement()
            if stmt is not None:
                statements.append(stmt)
        self._expect("KEYWORD", "end")
        return ast.Block(statements=statements, name=name)

    def _parse_if(self) -> ast.If:
        self._expect("KEYWORD", "if")
        self._expect("PUNCT", "(")
        cond = self.parse_expression()
        self._expect("PUNCT", ")")
        then_stmt = self._parse_statement()
        else_stmt = None
        if self._accept("KEYWORD", "else"):
            else_stmt = self._parse_statement()
        return ast.If(cond=cond, then_stmt=then_stmt, else_stmt=else_stmt)

    def _parse_case(self) -> ast.Case:
        kind = self._advance().value
        self._expect("PUNCT", "(")
        expr = self.parse_expression()
        self._expect("PUNCT", ")")
        items: list[ast.CaseItem] = []
        while not self._check("KEYWORD", "endcase"):
            if self._accept("KEYWORD", "default"):
                self._accept("PUNCT", ":")
                stmt = self._parse_statement()
                items.append(ast.CaseItem(conditions=None, statement=stmt))
            else:
                conditions = [self.parse_expression()]
                while self._accept("PUNCT", ","):
                    conditions.append(self.parse_expression())
                self._expect("PUNCT", ":")
                stmt = self._parse_statement()
                items.append(ast.CaseItem(conditions=conditions, statement=stmt))
        self._expect("KEYWORD", "endcase")
        return ast.Case(expr=expr, items=items, kind=kind)

    def _parse_for(self) -> ast.For:
        """Parse a ``for`` loop into an :class:`ast.For` node.

        The elaborator and the interpreter unroll the loop, so init/cond/step
        must be compile-time evaluable.
        """
        self._expect("KEYWORD", "for")
        self._expect("PUNCT", "(")
        init = self._parse_procedural_assign(consume_semicolon=False)
        self._expect("PUNCT", ";")
        cond = self.parse_expression()
        self._expect("PUNCT", ";")
        step = self._parse_procedural_assign(consume_semicolon=False)
        self._expect("PUNCT", ")")
        body = self._parse_statement()
        return ast.For(init=init, cond=cond, step=step, body=body)

    def _parse_lvalue(self) -> ast.Expression:
        """Parse an assignment target (identifier, select or concatenation).

        Using the full expression grammar here would mis-parse ``a <= b`` as
        the relational operator, so lvalues are restricted to the legal
        Verilog target forms.
        """
        if self._check("PUNCT", "{"):
            self._expect("PUNCT", "{")
            parts = [self._parse_lvalue()]
            while self._accept("PUNCT", ","):
                parts.append(self._parse_lvalue())
            self._expect("PUNCT", "}")
            return ast.Concat(parts=parts)
        return self._parse_postfix(self._parse_identifier())

    def _parse_procedural_assign(
        self, consume_semicolon: bool = True
    ) -> ast.Statement:
        lhs = self._parse_lvalue()
        if self._accept("OP", "<="):
            rhs = self.parse_expression()
            stmt: ast.Statement = ast.NonBlockingAssign(lhs=lhs, rhs=rhs)
        else:
            self._expect("OP", "=")
            rhs = self.parse_expression()
            stmt = ast.BlockingAssign(lhs=lhs, rhs=rhs)
        if consume_semicolon:
            self._expect("PUNCT", ";")
        return stmt

    # -- instances ---------------------------------------------------------------

    def _parse_instances(self) -> list[ast.Instance]:
        module_name = self._expect("ID").value
        parameters: list[ast.ParamOverride] = []
        if self._accept("PUNCT", "#"):
            self._expect("PUNCT", "(")
            parameters = self._parse_param_overrides()
            self._expect("PUNCT", ")")
        instances: list[ast.Instance] = []
        while True:
            inst_name = self._expect("ID").value
            self._expect("PUNCT", "(")
            connections = self._parse_connections()
            self._expect("PUNCT", ")")
            instances.append(
                ast.Instance(
                    module_name=module_name,
                    instance_name=inst_name,
                    connections=connections,
                    parameters=list(parameters),
                )
            )
            if not self._accept("PUNCT", ","):
                break
        self._expect("PUNCT", ";")
        return instances

    def _parse_param_overrides(self) -> list[ast.ParamOverride]:
        overrides: list[ast.ParamOverride] = []
        while not self._check("PUNCT", ")"):
            if self._accept("PUNCT", "."):
                pname = self._expect("ID").value
                self._expect("PUNCT", "(")
                expr = self.parse_expression()
                self._expect("PUNCT", ")")
                overrides.append(ast.ParamOverride(param=pname, expr=expr))
            else:
                expr = self.parse_expression()
                overrides.append(ast.ParamOverride(param=None, expr=expr))
            if not self._accept("PUNCT", ","):
                break
        return overrides

    def _parse_connections(self) -> list[ast.PortConnection]:
        connections: list[ast.PortConnection] = []
        if self._check("PUNCT", ")"):
            return connections
        while True:
            if self._accept("PUNCT", "."):
                port = self._expect("ID").value
                self._expect("PUNCT", "(")
                expr = None
                if not self._check("PUNCT", ")"):
                    expr = self.parse_expression()
                self._expect("PUNCT", ")")
                connections.append(ast.PortConnection(port=port, expr=expr))
            else:
                expr = self.parse_expression()
                connections.append(ast.PortConnection(port=None, expr=expr))
            if not self._accept("PUNCT", ","):
                break
        return connections

    # -- expressions --------------------------------------------------------------

    def parse_expression(self) -> ast.Expression:
        return self._parse_ternary()

    def _parse_ternary(self) -> ast.Expression:
        cond = self._parse_binary(1)
        if self._accept("OP", "?"):
            true_value = self.parse_expression()
            self._expect("PUNCT", ":")
            false_value = self.parse_expression()
            return ast.Ternary(cond=cond, true_value=true_value,
                               false_value=false_value)
        return cond

    def _parse_binary(self, min_power: int) -> ast.Expression:
        """Precedence climbing over :data:`BINDING_POWER`.

        Operators binding at least ``min_power`` are folded into the left
        operand.  The right operand of a left-associative operator only takes
        strictly tighter operators; ``**`` also takes itself, so it nests to
        the right.
        """
        left = self._parse_unary()
        tokens = self.tokens
        while self.pos < len(tokens):
            tok = tokens[self.pos]
            power = BINDING_POWER.get(tok.value) if tok.kind == "OP" else None
            if power is None or power < min_power:
                break
            self.pos += 1
            right = self._parse_binary(power if tok.value == "**" else power + 1)
            left = ast.BinaryOp(op=tok.value, left=left, right=right)
        return left

    def _parse_unary(self) -> ast.Expression:
        tok = self._peek()
        if tok is not None and tok.kind == "OP" and tok.value in UNARY_OPERATORS:
            self.pos += 1
            return ast.UnaryOp(op=tok.value, operand=self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expression:
        tok = self._peek()
        if tok is None:
            raise VerilogSyntaxError("unexpected end of input in expression")

        if tok.kind == "NUMBER":
            self._advance()
            # Check for a sized literal split across tokens ("8" "'hFF" cannot
            # occur because the lexer merges them), so this is a plain integer.
            return ast.IntConst(value=int(tok.value.replace("_", "")))

        if tok.kind == "SIZED_NUMBER":
            self._advance()
            value, width, base = parse_sized_number(tok.value)
            return ast.IntConst(value=value, width=width, base=base)

        if tok.kind == "PUNCT" and tok.value == "(":
            self._advance()
            expr = self.parse_expression()
            self._expect("PUNCT", ")")
            return self._parse_postfix(expr)

        if tok.kind == "PUNCT" and tok.value == "{":
            return self._parse_concat_or_repeat()

        if tok.kind == "ID":
            return self._parse_postfix(self._parse_identifier())

        raise VerilogSyntaxError(
            f"unexpected token {tok.value!r} at line {tok.line} in expression"
        )

    def _parse_identifier(self) -> ast.Identifier:
        """An identifier reference; a call ``f(...)`` is rejected."""
        tok = self._expect("ID")
        if self._check("PUNCT", "("):
            raise VerilogSyntaxError(
                f"call of '{tok.value}' at line {tok.line} is not supported"
            )
        return ast.Identifier(name=tok.value)

    def _parse_postfix(self, expr: ast.Expression) -> ast.Expression:
        while self._check("PUNCT", "["):
            self._advance()
            first = self.parse_expression()
            if self._accept("PUNCT", ":"):
                lsb = self.parse_expression()
                self._expect("PUNCT", "]")
                expr = ast.PartSelect(target=expr, msb=first, lsb=lsb)
            else:
                self._expect("PUNCT", "]")
                expr = ast.BitSelect(target=expr, index=first)
        return expr

    def _parse_concat_or_repeat(self) -> ast.Expression:
        self._expect("PUNCT", "{")
        first = self.parse_expression()
        if self._check("PUNCT", "{"):
            # Replication: {N{expr}}
            self._advance()
            value = self.parse_expression()
            parts = [value]
            while self._accept("PUNCT", ","):
                parts.append(self.parse_expression())
            self._expect("PUNCT", "}")
            self._expect("PUNCT", "}")
            inner: ast.Expression
            if len(parts) == 1:
                inner = parts[0]
            else:
                inner = ast.Concat(parts=parts)
            return ast.Repeat(count=first, value=inner)
        parts = [first]
        while self._accept("PUNCT", ","):
            parts.append(self.parse_expression())
        self._expect("PUNCT", "}")
        return self._parse_postfix(ast.Concat(parts=parts))


def parse(text: str) -> ast.Source:
    """Parse Verilog source text and return the AST."""
    return Parser(tokenize(text)).parse_source()


def parse_module(text: str, name: Optional[str] = None) -> ast.Module:
    """Parse source text and return one module (by name, or the only one)."""
    source = parse(text)
    if name is not None:
        return source.module(name)
    if len(source.modules) != 1:
        raise VerilogSyntaxError(
            "parse_module expects exactly one module when no name is given"
        )
    return source.modules[0]
