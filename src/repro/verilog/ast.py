"""Abstract syntax tree for the synthesizable Verilog subset used by ALICE.

The node hierarchy intentionally mirrors the structure produced by PyVerilog
(the parser used by the original ALICE prototype): a :class:`Source` holds a
list of :class:`Module` definitions, each module holds declarations, continuous
assignments, procedural blocks and instances.  Expressions form a small
algebraic hierarchy rooted at :class:`Expression`.

All nodes are plain dataclasses so they can be constructed programmatically
as easily as by the parser.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


class Node:
    """Base class for every AST node."""


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expression(Node):
    """Base class for expression nodes."""


@dataclass
class Identifier(Expression):
    """A reference to a named signal, parameter or genvar."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass
class IntConst(Expression):
    """An integer literal, optionally sized (e.g. ``4'b1010``)."""

    value: int
    width: Optional[int] = None
    base: str = "d"

    def __str__(self) -> str:
        if self.width is None:
            return str(self.value)
        if self.base == "b":
            digits = format(self.value, "b")
        elif self.base == "h":
            digits = format(self.value, "x")
        elif self.base == "o":
            digits = format(self.value, "o")
        else:
            digits = str(self.value)
        return f"{self.width}'{self.base}{digits}"


@dataclass
class UnaryOp(Expression):
    """A unary operator applied to a single operand.

    ``op`` is one of ``~ ! - + & | ^ ~& ~| ~^`` (reduction operators
    included).
    """

    op: str
    operand: Expression


@dataclass
class BinaryOp(Expression):
    """A binary operator with left and right operands."""

    op: str
    left: Expression
    right: Expression


@dataclass
class Ternary(Expression):
    """The conditional operator ``cond ? true_value : false_value``."""

    cond: Expression
    true_value: Expression
    false_value: Expression


@dataclass
class Concat(Expression):
    """A concatenation ``{a, b, c}``."""

    parts: list[Expression]


@dataclass
class Repeat(Expression):
    """A replication ``{N{expr}}``."""

    count: Expression
    value: Expression


@dataclass
class BitSelect(Expression):
    """A single-bit select ``sig[idx]``."""

    target: Expression
    index: Expression


@dataclass
class PartSelect(Expression):
    """A constant part select ``sig[msb:lsb]``."""

    target: Expression
    msb: Expression
    lsb: Expression


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass
class Range(Node):
    """A packed range ``[msb:lsb]`` attached to a declaration."""

    msb: Expression
    lsb: Expression


@dataclass
class Port(Node):
    """A port entry in a module header.

    ``direction`` is ``input``, ``output`` or ``inout``; ``width`` is the
    declared packed range (``None`` for scalar ports); ``is_reg`` records a
    combined ``output reg`` declaration.
    """

    name: str
    direction: str
    width: Optional[Range] = None
    is_reg: bool = False
    signed: bool = False


@dataclass
class NetDecl(Node):
    """A ``wire`` or ``reg`` declaration inside a module body."""

    name: str
    kind: str  # "wire" or "reg"
    width: Optional[Range] = None
    signed: bool = False
    init: Optional[Expression] = None


@dataclass
class ParamDecl(Node):
    """A ``parameter`` or ``localparam`` declaration."""

    name: str
    value: Expression
    local: bool = False
    width: Optional[Range] = None


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Statement(Node):
    """Base class for procedural statements."""


@dataclass
class Assign(Node):
    """A continuous assignment ``assign lhs = rhs;``."""

    lhs: Expression
    rhs: Expression


@dataclass
class BlockingAssign(Statement):
    """A blocking procedural assignment ``lhs = rhs;``."""

    lhs: Expression
    rhs: Expression


@dataclass
class NonBlockingAssign(Statement):
    """A non-blocking procedural assignment ``lhs <= rhs;``."""

    lhs: Expression
    rhs: Expression


@dataclass
class If(Statement):
    """An ``if``/``else`` statement."""

    cond: Expression
    then_stmt: Optional[Statement]
    else_stmt: Optional[Statement] = None


@dataclass
class CaseItem(Node):
    """A single arm of a ``case`` statement (``None`` conditions = default)."""

    conditions: Optional[list[Expression]]
    statement: Optional[Statement]


@dataclass
class Case(Statement):
    """A ``case``/``casez``/``casex`` statement."""

    expr: Expression
    items: list[CaseItem]
    kind: str = "case"


@dataclass
class For(Statement):
    """A procedural ``for`` loop.

    The synthesizable interpretation requires the init/cond/step to be
    compile-time evaluable so the elaborator can unroll the loop.
    """

    init: Statement
    cond: Expression
    step: Statement
    body: Optional[Statement]


@dataclass
class Block(Statement):
    """A ``begin ... end`` block."""

    statements: list[Statement]
    name: Optional[str] = None


@dataclass
class SensItem(Node):
    """A sensitivity-list entry (``posedge clk``, ``negedge rst`` or a level)."""

    signal: Optional[Expression]
    edge: Optional[str] = None  # "posedge", "negedge" or None
    star: bool = False


@dataclass
class Always(Node):
    """An ``always @(...) ...`` procedural block."""

    sensitivity: list[SensItem]
    statement: Statement

    @property
    def is_sequential(self) -> bool:
        """True when any sensitivity item is edge-triggered."""
        return any(item.edge in ("posedge", "negedge") for item in self.sensitivity)


@dataclass
class Initial(Node):
    """An ``initial`` block (kept for completeness; ignored by synthesis)."""

    statement: Statement


# ---------------------------------------------------------------------------
# Instances and modules
# ---------------------------------------------------------------------------


@dataclass
class PortConnection(Node):
    """A port connection of an instance.

    ``port`` is ``None`` for positional connections; ``expr`` is ``None`` for
    unconnected ports (``.p()``).
    """

    port: Optional[str]
    expr: Optional[Expression]


@dataclass
class ParamOverride(Node):
    """A parameter override in an instantiation (``#(.P(8))``)."""

    param: Optional[str]
    expr: Expression


@dataclass
class Instance(Node):
    """A module instantiation."""

    module_name: str
    instance_name: str
    connections: list[PortConnection] = field(default_factory=list)
    parameters: list[ParamOverride] = field(default_factory=list)


ModuleItem = Union[NetDecl, ParamDecl, Assign, Always, Initial, Instance]


@dataclass
class Module(Node):
    """A Verilog module definition."""

    name: str
    ports: list[Port] = field(default_factory=list)
    items: list[ModuleItem] = field(default_factory=list)

    # -- convenience accessors ------------------------------------------------

    @property
    def inputs(self) -> list[Port]:
        return [p for p in self.ports if p.direction == "input"]

    @property
    def outputs(self) -> list[Port]:
        return [p for p in self.ports if p.direction == "output"]

    def port(self, name: str) -> Optional[Port]:
        for p in self.ports:
            if p.name == name:
                return p
        return None

    @property
    def instances(self) -> list[Instance]:
        return [item for item in self.items if isinstance(item, Instance)]

    @property
    def assigns(self) -> list[Assign]:
        return [item for item in self.items if isinstance(item, Assign)]

    @property
    def always_blocks(self) -> list[Always]:
        return [item for item in self.items if isinstance(item, Always)]

    @property
    def net_decls(self) -> list[NetDecl]:
        return [item for item in self.items if isinstance(item, NetDecl)]

    @property
    def param_decls(self) -> list[ParamDecl]:
        return [item for item in self.items if isinstance(item, ParamDecl)]


@dataclass
class Source(Node):
    """A parsed Verilog source: an ordered collection of modules."""

    modules: list[Module] = field(default_factory=list)

    def module(self, name: str) -> Module:
        """Return the module named ``name`` (raises ``KeyError`` if missing)."""
        for mod in self.modules:
            if mod.name == name:
                return mod
        raise KeyError(f"module '{name}' not found")

    def has_module(self, name: str) -> bool:
        return any(mod.name == name for mod in self.modules)

    def module_names(self) -> list[str]:
        return [mod.name for mod in self.modules]

    def merge(self, other: "Source") -> "Source":
        """Return a new Source with modules from both (other wins on clash)."""
        by_name = {mod.name: mod for mod in self.modules}
        for mod in other.modules:
            by_name[mod.name] = mod
        return Source(modules=list(by_name.values()))


# ---------------------------------------------------------------------------
# Lvalue helper
# ---------------------------------------------------------------------------


def lvalue_signals(expr: Expression) -> set[str]:
    """Return the signal names written by an lvalue expression.

    Handles identifiers, bit/part selects and concatenations of those.
    """
    if isinstance(expr, Identifier):
        return {expr.name}
    if isinstance(expr, (BitSelect, PartSelect)):
        return lvalue_signals(expr.target)
    if isinstance(expr, Concat):
        result: set[str] = set()
        for part in expr.parts:
            result |= lvalue_signals(part)
        return result
    return set()
