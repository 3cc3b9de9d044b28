"""Elaboration environments: per-instance scopes and signal tables.

Elaboration flattens the design hierarchy into a set of :class:`Scope`
objects, one per module instance.  A scope records the resolved parameter
values, the declared width of every signal, and the net ids (one per bit,
LSB first) each signal resolves to in the target :class:`~repro.netlist.logic.Netlist`.

Bits are resolved lazily: module items (continuous assigns, combinational
always blocks, child instances) register themselves as *drivers* for the bits
they produce, and the elaborator forces a driver the first time one of its
bits is demanded.  This makes elaboration order-independent, exactly like
continuous assignment semantics in Verilog, while still detecting
combinational cycles and undriven or multiply-driven bits with precise
diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from repro.verilog import ast
from repro.verilog.consteval import ConstEvalError, evaluate, range_width


class ElaborationError(Exception):
    """Raised when the design cannot be lowered to a gate-level netlist."""


#: Safety bound on ``for``-loop unrolling.
UNROLL_LIMIT = 4096


@dataclass
class SignalInfo:
    """Declared properties of one named signal in a scope."""

    name: str
    width: int
    kind: str = "wire"          # "wire" or "reg"
    direction: Optional[str] = None  # "input" / "output" / None for internals


class Driver:
    """A module item that produces values for one or more signal bits.

    ``force`` lowers the item into the netlist and binds every bit it drives;
    it is invoked at most once.  ``label`` appears in diagnostics.
    """

    def __init__(self, label: str, force: Callable[[], None]):
        self.label = label
        self._force = force
        self.forced = False
        self.in_progress = False

    def run(self) -> None:
        if self.forced:
            return
        if self.in_progress:
            raise ElaborationError(
                f"combinational cycle detected while elaborating {self.label}"
            )
        self.in_progress = True
        try:
            self._force()
        finally:
            self.in_progress = False
        self.forced = True


class Scope:
    """One flattened module instance during elaboration."""

    def __init__(self, path: str, module: ast.Module, params: dict[str, int]):
        self.path = path
        self.module = module
        self.params = dict(params)
        self.signals: dict[str, SignalInfo] = {}
        # Resolved net ids per bit (LSB first); None = not yet resolved.
        self.bits: dict[str, list[Optional[int]]] = {}
        # Registered driver per bit; forced on first demand.
        self.drivers: dict[tuple[str, int], Driver] = {}
        # Bits that a forced driver assigned only on some control paths.
        self.latched: set[tuple[str, int]] = set()

    # -- declarations -------------------------------------------------------

    def declare(self, info: SignalInfo) -> None:
        existing = self.signals.get(info.name)
        if existing is not None:
            # Non-ANSI styles redeclare ports as wire/reg in the body; merge.
            existing.kind = info.kind if info.kind == "reg" else existing.kind
            if info.width > 1 and existing.width == 1:
                existing.width = info.width
                self.bits[info.name] = [None] * info.width
            return
        self.signals[info.name] = info
        self.bits[info.name] = [None] * info.width

    def signal(self, name: str) -> SignalInfo:
        try:
            return self.signals[name]
        except KeyError:
            raise ElaborationError(
                f"signal '{name}' is not declared in {self.path}"
            ) from None

    def width(self, name: str) -> int:
        return self.signal(name).width

    # -- driver registration / bit binding ----------------------------------

    def register_driver(self, name: str, index: int, driver: Driver) -> None:
        key = (name, index)
        if self.bits[name][index] is not None or key in self.drivers:
            raise ElaborationError(
                f"bit {name}[{index}] in {self.path} has multiple drivers "
                f"({driver.label} conflicts with an earlier one)"
            )
        self.drivers[key] = driver

    def bind(self, name: str, index: int, net: int,
             driver: Optional[Driver] = None) -> None:
        """Record the net id of one bit.

        ``driver`` identifies the forcing driver when the binding comes from
        one; a binding that collides with a *different* registered driver (or
        with an existing binding) is a multiple-driver error.
        """
        row = self.bits.get(name)
        if row is None:
            raise ElaborationError(
                f"signal '{name}' is not declared in {self.path}"
            )
        if not 0 <= index < len(row):
            raise ElaborationError(
                f"bit index {index} out of range for {name}"
                f"[{len(row) - 1}:0] in {self.path}"
            )
        registered = self.drivers.get((name, index))
        if row[index] is not None or (
            registered is not None and registered is not driver
        ):
            raise ElaborationError(
                f"bit {name}[{index}] in {self.path} has multiple drivers"
            )
        row[index] = net

    def resolve_bit(self, name: str, index: int) -> int:
        """Return the net id of ``name[index]``, forcing its driver if needed."""
        info = self.signal(name)
        if not 0 <= index < info.width:
            raise ElaborationError(
                f"bit select {name}[{index}] out of range "
                f"[{info.width - 1}:0] in {self.path}"
            )
        net = self.bits[name][index]
        if net is not None:
            return net
        driver = self.drivers.get((name, index))
        if driver is None:
            raise ElaborationError(
                f"signal bit {name}[{index}] in {self.path} is read but "
                f"has no driver"
            )
        driver.run()
        net = self.bits[name][index]
        if net is None:
            if (name, index) in self.latched:
                raise ElaborationError(
                    f"{driver.label} assigns {name}[{index}] only on some "
                    f"control paths in {self.path}: inferred latch is not "
                    f"synthesizable"
                )
            raise ElaborationError(
                f"{driver.label} was expected to drive {name}[{index}] in "
                f"{self.path} but did not"
            )
        return net

    def resolve_signal(self, name: str) -> list[int]:
        """Resolve every bit of a signal (LSB first)."""
        return [self.resolve_bit(name, i) for i in range(self.width(name))]

    def force_all(self) -> None:
        """Force every registered driver (completes dead logic as well)."""
        for driver in list(self.drivers.values()):
            driver.run()


def const_int(expr: ast.Expression, env: Mapping[str, int],
              context: str) -> int:
    """Evaluate an expression that elaboration requires to be constant."""
    try:
        return evaluate(expr, env)
    except ConstEvalError as exc:
        raise ElaborationError(f"{context}: {exc}") from exc


def instance_overrides(params: Mapping[str, int], inst: ast.Instance,
                       child_module: ast.Module,
                       child_path: str) -> dict[str, int]:
    """Resolve an instantiation's parameter overrides against the child.

    Shared by the elaborator and the reference interpreter so both engines
    accept and reject exactly the same instantiations.
    """
    if not inst.parameters:
        return {}
    named = [p for p in inst.parameters if p.param is not None]
    if named and len(named) != len(inst.parameters):
        raise ElaborationError(
            f"instance '{child_path}' mixes named and positional "
            f"parameter overrides"
        )
    formal = [d.name for d in child_module.param_decls if not d.local]
    overrides: dict[str, int] = {}
    if named:
        for override in named:
            if override.param not in formal:
                raise ElaborationError(
                    f"instance '{child_path}' overrides unknown parameter "
                    f"'{override.param}' of module '{child_module.name}'"
                )
            overrides[override.param] = const_int(
                override.expr, params,
                f"parameter override '.{override.param}' on '{child_path}'")
    else:
        if len(inst.parameters) > len(formal):
            raise ElaborationError(
                f"instance '{child_path}' has {len(inst.parameters)} "
                f"positional parameter overrides but module "
                f"'{child_module.name}' declares only {len(formal)}"
            )
        for name, override in zip(formal, inst.parameters):
            overrides[name] = const_int(
                override.expr, params,
                f"positional parameter override on '{child_path}'")
    return overrides


def instance_connections(inst: ast.Instance, child_module: ast.Module,
                         child_path: str
                         ) -> dict[str, Optional[ast.Expression]]:
    """Map an instantiation's port connections to child port names."""
    conn_map: dict[str, Optional[ast.Expression]] = {}
    positional = [c for c in inst.connections if c.port is None]
    if positional:
        if len(positional) != len(inst.connections):
            raise ElaborationError(
                f"instance '{child_path}' mixes named and positional "
                f"port connections"
            )
        if len(positional) > len(child_module.ports):
            raise ElaborationError(
                f"instance '{child_path}' connects {len(positional)} ports "
                f"but module '{child_module.name}' has only "
                f"{len(child_module.ports)}"
            )
        for port, conn in zip(child_module.ports, inst.connections):
            conn_map[port.name] = conn.expr
        return conn_map
    for conn in inst.connections:
        if child_module.port(conn.port) is None:
            raise ElaborationError(
                f"instance '{child_path}' connects unknown port "
                f"'{conn.port}' of module '{child_module.name}'"
            )
        if conn.port in conn_map:
            raise ElaborationError(
                f"instance '{child_path}' connects port '{conn.port}' twice"
            )
        conn_map[conn.port] = conn.expr
    return conn_map


def unroll_for(stmt: "ast.For", params: Mapping[str, int],
               consts: dict[str, int], path: str):
    """Drive the compile-time iteration of a ``for`` loop.

    Validates the init/step shape, maintains the loop variable in ``consts``
    and enforces :data:`UNROLL_LIMIT`; yields once per iteration so the
    caller (elaborator or interpreter) executes the body.  Shared so both
    engines unroll identically.
    """
    if not isinstance(stmt.init, ast.BlockingAssign) or \
            not isinstance(stmt.init.lhs, ast.Identifier):
        raise ElaborationError(
            f"for-loop init must be a blocking assignment to a loop "
            f"variable in {path}"
        )
    if not isinstance(stmt.step, ast.BlockingAssign) or \
            not isinstance(stmt.step.lhs, ast.Identifier):
        raise ElaborationError(
            f"for-loop step must be a blocking assignment to the loop "
            f"variable in {path}"
        )
    var = stmt.init.lhs.name
    consts[var] = const_int(stmt.init.rhs, {**params, **consts},
                            f"for-loop init of '{var}'")
    iterations = 0
    while True:
        try:
            cond = evaluate(stmt.cond, {**params, **consts})
        except ConstEvalError as exc:
            raise ElaborationError(
                f"for-loop condition in {path} must be a compile-time "
                f"constant: {exc}"
            ) from exc
        if not cond:
            return
        iterations += 1
        if iterations > UNROLL_LIMIT:
            raise ElaborationError(
                f"for-loop in {path} exceeds the unroll limit of "
                f"{UNROLL_LIMIT} iterations"
            )
        yield
        consts[stmt.step.lhs.name] = const_int(
            stmt.step.rhs, {**params, **consts}, f"for-loop step of '{var}'")


def build_signal_table(scope: Scope) -> None:
    """Populate ``scope.signals`` from the module's ports and declarations.

    Port widths may be declared either in the header (ANSI) or by a matching
    body declaration (non-ANSI); body ``reg`` declarations upgrade the kind.
    """
    module = scope.module
    params = scope.params
    decl_by_name = {d.name: d for d in module.net_decls}

    for port in module.ports:
        if port.direction == "inout":
            raise ElaborationError(
                f"inout port '{port.name}' on module '{module.name}' is not "
                f"supported by the synthesizable subset"
            )
        width_range = port.width
        if width_range is None and port.name in decl_by_name:
            width_range = decl_by_name[port.name].width
        try:
            width = range_width(width_range, params)
        except ConstEvalError as exc:
            raise ElaborationError(
                f"cannot resolve width of port '{port.name}' on module "
                f"'{module.name}': {exc}"
            ) from exc
        kind = "reg" if port.is_reg else "wire"
        if port.name in decl_by_name and decl_by_name[port.name].kind == "reg":
            kind = "reg"
        scope.declare(SignalInfo(name=port.name, width=width, kind=kind,
                                 direction=port.direction))

    for decl in module.net_decls:
        if decl.name in scope.signals:
            if decl.kind == "reg":
                scope.signals[decl.name].kind = "reg"
            continue
        try:
            width = range_width(decl.width, params)
        except ConstEvalError as exc:
            raise ElaborationError(
                f"cannot resolve width of '{decl.name}' in module "
                f"'{module.name}': {exc}"
            ) from exc
        scope.declare(SignalInfo(name=decl.name, width=width, kind=decl.kind))


def lvalue_targets(scope: Scope, expr: ast.Expression,
                   const_env: Optional[Mapping[str, int]] = None
                   ) -> list[tuple[str, int]]:
    """Flatten an assignment target into ``(signal, bit_index)`` pairs.

    The result is LSB first, matching the bit order of lowered expressions.
    Select indices must be compile-time constants.
    """
    env: dict[str, int] = dict(scope.params)
    if const_env:
        env.update(const_env)

    if isinstance(expr, ast.Identifier):
        width = scope.width(expr.name)
        return [(expr.name, i) for i in range(width)]
    if isinstance(expr, ast.BitSelect):
        if not isinstance(expr.target, ast.Identifier):
            raise ElaborationError(
                "assignment target selects must apply directly to a signal"
            )
        name = expr.target.name
        index = const_int(expr.index, env,
                          f"bit-select index on assignment to '{name}'")
        if not 0 <= index < scope.width(name):
            raise ElaborationError(
                f"assignment to {name}[{index}] is out of range "
                f"[{scope.width(name) - 1}:0] in {scope.path}"
            )
        return [(name, index)]
    if isinstance(expr, ast.PartSelect):
        if not isinstance(expr.target, ast.Identifier):
            raise ElaborationError(
                "assignment target selects must apply directly to a signal"
            )
        name = expr.target.name
        msb = const_int(expr.msb, env,
                        f"part-select bound on assignment to '{name}'")
        lsb = const_int(expr.lsb, env,
                        f"part-select bound on assignment to '{name}'")
        if msb < lsb:
            raise ElaborationError(
                f"part select {name}[{msb}:{lsb}] must be written msb:lsb"
            )
        if lsb < 0 or msb >= scope.width(name):
            raise ElaborationError(
                f"assignment to {name}[{msb}:{lsb}] is out of range "
                f"[{scope.width(name) - 1}:0] in {scope.path}"
            )
        return [(name, i) for i in range(lsb, msb + 1)]
    if isinstance(expr, ast.Concat):
        # Verilog concatenations list the MSB part first.
        result: list[tuple[str, int]] = []
        for part in reversed(expr.parts):
            result.extend(lvalue_targets(scope, part, const_env))
        return result
    raise ElaborationError(
        f"unsupported assignment target {type(expr).__name__} in {scope.path}"
    )
