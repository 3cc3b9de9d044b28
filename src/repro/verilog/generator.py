"""Verilog code generation from the AST.

The generator is the inverse of the parser: it renders a :class:`Source`,
:class:`Module` or expression back into synthesizable Verilog text.  The ALICE
flow uses it to emit the redacted top module and the eFPGA wrapper modules;
here the parser's round-trip tests use it.
"""

from __future__ import annotations

from . import ast

_INDENT = "  "

# Binary operator precedence used to decide when parentheses are required.
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4, "~^": 4, "^~": 4,
    "&": 5,
    "==": 6, "!=": 6, "===": 6, "!==": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8, "<<<": 8, ">>>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
    "**": 11,
}

#: Parenthesization threshold for operands of unary operators and selects;
#: above every binary precedence so those contexts always parenthesize.
_PRIMARY_PREC = 12


def generate_expression(expr: ast.Expression) -> str:
    """Render an expression to Verilog text."""
    return _expr(expr, parent_prec=0)


def _expr(expr: ast.Expression, parent_prec: int) -> str:
    if isinstance(expr, ast.Identifier):
        return expr.name
    if isinstance(expr, ast.IntConst):
        return str(expr)
    if isinstance(expr, ast.UnaryOp):
        inner = _expr(expr.operand, parent_prec=_PRIMARY_PREC)
        return f"{expr.op}{inner}"
    if isinstance(expr, ast.BinaryOp):
        prec = _PRECEDENCE.get(expr.op, _PRIMARY_PREC)
        if expr.op == "**":
            # Right-associative: parenthesize an equal-precedence left child.
            left = _expr(expr.left, prec + 1)
            right = _expr(expr.right, prec)
        else:
            left = _expr(expr.left, prec)
            right = _expr(expr.right, prec + 1)
        text = f"{left} {expr.op} {right}"
        if prec < parent_prec:
            return f"({text})"
        return text
    if isinstance(expr, ast.Ternary):
        cond = _expr(expr.cond, 1)
        true_value = _expr(expr.true_value, 0)
        false_value = _expr(expr.false_value, 0)
        text = f"{cond} ? {true_value} : {false_value}"
        if parent_prec > 0:
            return f"({text})"
        return text
    if isinstance(expr, ast.Concat):
        parts = ", ".join(_expr(p, 0) for p in expr.parts)
        return f"{{{parts}}}"
    if isinstance(expr, ast.Repeat):
        count = _expr(expr.count, 0)
        value = _expr(expr.value, 0)
        return f"{{{count}{{{value}}}}}"
    if isinstance(expr, ast.BitSelect):
        target = _expr(expr.target, _PRIMARY_PREC)
        index = _expr(expr.index, 0)
        return f"{target}[{index}]"
    if isinstance(expr, ast.PartSelect):
        target = _expr(expr.target, _PRIMARY_PREC)
        msb = _expr(expr.msb, 0)
        lsb = _expr(expr.lsb, 0)
        return f"{target}[{msb}:{lsb}]"
    raise TypeError(f"cannot generate code for expression node {type(expr).__name__}")


def _range_text(width: ast.Range | None) -> str:
    if width is None:
        return ""
    return f"[{generate_expression(width.msb)}:{generate_expression(width.lsb)}] "


def _port_decl(port: ast.Port) -> str:
    kind = " reg" if port.is_reg else ""
    signed = " signed" if port.signed else ""
    width = _range_text(port.width)
    width_text = f" {width.rstrip()}" if width else ""
    return f"{port.direction}{kind}{signed}{width_text} {port.name}"


def generate_statement(stmt: ast.Statement | None, indent: int = 1) -> str:
    """Render a procedural statement (recursively)."""
    pad = _INDENT * indent
    if stmt is None:
        return f"{pad};"
    if isinstance(stmt, ast.Block):
        header = f"{pad}begin"
        if stmt.name:
            header += f" : {stmt.name}"
        lines = [header]
        for sub in stmt.statements:
            lines.append(generate_statement(sub, indent + 1))
        lines.append(f"{pad}end")
        return "\n".join(lines)
    if isinstance(stmt, ast.BlockingAssign):
        return (f"{pad}{generate_expression(stmt.lhs)} = "
                f"{generate_expression(stmt.rhs)};")
    if isinstance(stmt, ast.NonBlockingAssign):
        return (f"{pad}{generate_expression(stmt.lhs)} <= "
                f"{generate_expression(stmt.rhs)};")
    if isinstance(stmt, ast.If):
        lines = [f"{pad}if ({generate_expression(stmt.cond)})"]
        lines.append(generate_statement(stmt.then_stmt, indent + 1))
        if stmt.else_stmt is not None:
            lines.append(f"{pad}else")
            lines.append(generate_statement(stmt.else_stmt, indent + 1))
        return "\n".join(lines)
    if isinstance(stmt, ast.For):
        init = generate_statement(stmt.init, 0).strip().rstrip(";")
        step = generate_statement(stmt.step, 0).strip().rstrip(";")
        header = (f"{pad}for ({init}; "
                  f"{generate_expression(stmt.cond)}; {step})")
        return header + "\n" + generate_statement(stmt.body, indent + 1)
    if isinstance(stmt, ast.Case):
        lines = [f"{pad}{stmt.kind} ({generate_expression(stmt.expr)})"]
        for item in stmt.items:
            if item.conditions is None:
                label = "default"
            else:
                label = ", ".join(generate_expression(c) for c in item.conditions)
            lines.append(f"{pad}{_INDENT}{label}:")
            lines.append(generate_statement(item.statement, indent + 2))
        lines.append(f"{pad}endcase")
        return "\n".join(lines)
    raise TypeError(f"cannot generate code for statement node {type(stmt).__name__}")


def _sensitivity_text(items: list[ast.SensItem]) -> str:
    if any(item.star for item in items):
        return "@(*)"
    parts = []
    for item in items:
        prefix = f"{item.edge} " if item.edge else ""
        parts.append(f"{prefix}{generate_expression(item.signal)}")
    return "@(" + " or ".join(parts) + ")"


def _instance_text(inst: ast.Instance, indent: int = 1) -> str:
    pad = _INDENT * indent
    params = ""
    if inst.parameters:
        rendered = []
        for override in inst.parameters:
            if override.param is None:
                rendered.append(generate_expression(override.expr))
            else:
                rendered.append(
                    f".{override.param}({generate_expression(override.expr)})"
                )
        params = " #(" + ", ".join(rendered) + ")"
    connections = []
    for conn in inst.connections:
        expr_text = generate_expression(conn.expr) if conn.expr is not None else ""
        if conn.port is None:
            connections.append(expr_text)
        else:
            connections.append(f".{conn.port}({expr_text})")
    body = ",\n".join(f"{pad}{_INDENT}{c}" for c in connections)
    return (f"{pad}{inst.module_name}{params} {inst.instance_name} (\n"
            f"{body}\n{pad});")


def generate_module(module: ast.Module) -> str:
    """Render a module definition to Verilog text."""
    lines: list[str] = []
    port_names = ",\n".join(f"{_INDENT}{_port_decl(p)}" for p in module.ports)
    if module.ports:
        lines.append(f"module {module.name} (\n{port_names}\n);")
    else:
        lines.append(f"module {module.name};")

    for item in module.items:
        if isinstance(item, ast.ParamDecl):
            keyword = "localparam" if item.local else "parameter"
            lines.append(
                f"{_INDENT}{keyword} {item.name} = "
                f"{generate_expression(item.value)};"
            )
        elif isinstance(item, ast.NetDecl):
            width = _range_text(item.width)
            init = ""
            if item.init is not None:
                init = f" = {generate_expression(item.init)}"
            lines.append(f"{_INDENT}{item.kind} {width}{item.name}{init};")
        elif isinstance(item, ast.Assign):
            lines.append(
                f"{_INDENT}assign {generate_expression(item.lhs)} = "
                f"{generate_expression(item.rhs)};"
            )
        elif isinstance(item, ast.Always):
            lines.append(f"{_INDENT}always {_sensitivity_text(item.sensitivity)}")
            lines.append(generate_statement(item.statement, indent=2))
        elif isinstance(item, ast.Initial):
            lines.append(f"{_INDENT}initial")
            lines.append(generate_statement(item.statement, indent=2))
        elif isinstance(item, ast.Instance):
            lines.append(_instance_text(item, indent=1))
        else:
            raise TypeError(
                f"cannot generate code for module item {type(item).__name__}"
            )
    lines.append("endmodule")
    return "\n".join(lines)


def generate_source(source: ast.Source) -> str:
    """Render a full source (all modules) to Verilog text."""
    return "\n\n".join(generate_module(mod) for mod in source.modules) + "\n"
