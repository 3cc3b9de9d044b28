"""Reference vector-level interpreter for the synthesizable Verilog subset.

The :class:`Interpreter` executes a hierarchical design directly on Python
integers — no bit-blasting, no gate netlist — and serves as the independent
oracle for the elaborator: for any supported design,
:func:`repro.netlist.elaborate` + gate-level simulation must produce the same
cycle-by-cycle outputs as :meth:`Interpreter.step`.

It deliberately mirrors the elaborator's semantic choices (unsigned
arithmetic, the width rules in :func:`repro.netlist.bitblast.binary_width`,
zero-extension, flip-flops holding on unassigned paths, strict diagnostics
for undriven reads / multiple drivers / inferred latches) while sharing none
of the gate-level machinery, so disagreements point at real lowering bugs.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Union

from repro.verilog import ast
from repro.verilog.consteval import (
    ConstEvalError,
    evaluate,
    module_parameters,
)
from repro.verilog.parser import parse

from .bitblast import binary_width, natural_width
from .elaborate import _collect_writes, check_acyclic, select_top
from .environment import (
    ElaborationError,
    Scope,
    build_signal_table,
    instance_connections,
    instance_overrides,
    lvalue_targets,
    unroll_for,
)


class InterpreterError(Exception):
    """Raised when the reference interpreter cannot execute the design."""


def _mask(width: int) -> int:
    return (1 << width) - 1


class _Driver:
    """One value-producing module item, registered per driven signal.

    ``masks`` records which bits of each driven signal the item produces, so
    a read of specific bits (constant bit/part selects) forces only the
    drivers that matter — mirroring the elaborator's per-bit resolution and
    keeping bitwise feedback structures (e.g. ripple-carry chains threaded
    through a vector) from being misreported as combinational cycles.
    """

    def __init__(self, kind: str, label: str, **info):
        self.kind = kind      # "assign" | "comb" | "inst"
        self.label = label
        self.info = info
        self.masks: dict[str, int] = {}


class _IScope:
    """One flattened module instance of the interpreted design."""

    def __init__(self, escope: Scope):
        self.escope = escope
        self.path = escope.path
        # Per-signal list of drivers (a signal may be driven bitwise by
        # several continuous assignments).
        self.drivers: dict[str, list[_Driver]] = {}
        self.seq_blocks: list[ast.Always] = []
        self.regs: set[str] = set()
        # input port -> (parent scope or None for the top, connected expr)
        self.input_conns: dict[str, tuple[Optional["_IScope"],
                                          Optional[ast.Expression]]] = {}
        self.children: list["_IScope"] = []

    def add_driver(self, masks: dict[str, int], driver: _Driver) -> None:
        driver.masks = masks
        for name in masks:
            self.drivers.setdefault(name, []).append(driver)

    def lvalue_masks(self, lhs: ast.Expression) -> dict[str, int]:
        """Per-signal bit masks written by an assignment target."""
        masks: dict[str, int] = {}
        for name, index in lvalue_targets(self.escope, lhs):
            masks[name] = masks.get(name, 0) | (1 << index)
        return masks

    def full_masks(self, names: set[str]) -> dict[str, int]:
        return {name: _mask(self.escope.width(name)) for name in names}


class Interpreter:
    """Cycle-accurate word-level executor for a hierarchical design."""

    def __init__(self, source: Union[str, ast.Source],
                 top: Optional[str] = None,
                 params: Optional[Mapping[str, int]] = None):
        if isinstance(source, str):
            source = parse(source)
        top = select_top(source, top, InterpreterError)
        check_acyclic(source, top, InterpreterError)
        self.source = source
        self.top = top
        self.scopes: list[_IScope] = []
        self.top_scope = self._build(source.module(top), top,
                                     dict(params or {}), parent=None,
                                     conn_map=None)
        for port in source.module(top).ports:
            if port.direction == "input":
                self.top_scope.input_conns[port.name] = (None, None)
        self.state: dict[tuple[str, str], int] = {}

    # -- static structure ----------------------------------------------------

    def _build(self, module: ast.Module, path: str,
               overrides: Mapping[str, int], parent: Optional[_IScope],
               conn_map: Optional[dict[str, Optional[ast.Expression]]]
               ) -> _IScope:
        try:
            params = module_parameters(module, overrides)
        except ConstEvalError as exc:
            raise InterpreterError(
                f"cannot resolve parameters of module '{module.name}': {exc}"
            ) from exc
        escope = Scope(path, module, params)
        try:
            build_signal_table(escope)
        except ElaborationError as exc:
            raise InterpreterError(str(exc)) from exc
        iscope = _IScope(escope)
        self.scopes.append(iscope)
        seq_writes: set[str] = set()

        for item in module.items:
            if isinstance(item, ast.NetDecl):
                if item.init is not None:
                    lhs = ast.Identifier(name=item.name)
                    iscope.add_driver(
                        iscope.lvalue_masks(lhs),
                        _Driver("assign", f"initializer of '{item.name}'",
                                lhs=lhs, rhs=item.init))
            elif isinstance(item, ast.Assign):
                iscope.add_driver(
                    iscope.lvalue_masks(item.lhs),
                    _Driver("assign", f"continuous assignment in {path}",
                            lhs=item.lhs, rhs=item.rhs))
            elif isinstance(item, ast.Always):
                writes = _collect_writes(item.statement)
                if item.is_sequential:
                    overlap = writes & seq_writes
                    if overlap:
                        raise InterpreterError(
                            f"signal '{sorted(overlap)[0]}' in {path} has "
                            f"multiple drivers (assigned in more than one "
                            f"sequential always block)"
                        )
                    seq_writes |= writes
                    iscope.seq_blocks.append(item)
                    iscope.regs |= writes
                elif writes:
                    iscope.add_driver(
                        iscope.full_masks(writes),
                        _Driver("comb", f"always @(*) block in {path}",
                                block=item))
            elif isinstance(item, ast.Instance):
                self._build_instance(iscope, item)
        for name in iscope.regs & set(iscope.drivers):
            raise InterpreterError(
                f"signal '{name}' in {path} is driven both sequentially "
                f"and combinationally"
            )
        return iscope

    def _build_instance(self, iscope: _IScope, inst: ast.Instance) -> None:
        child_path = f"{iscope.path}.{inst.instance_name}"
        if not self.source.has_module(inst.module_name):
            raise InterpreterError(
                f"instance '{child_path}' refers to module "
                f"'{inst.module_name}' which is not defined in the source"
            )
        child_module = self.source.module(inst.module_name)
        try:
            # Shared with the elaborator so both engines accept and reject
            # exactly the same instantiations.
            overrides = instance_overrides(iscope.escope.params, inst,
                                           child_module, child_path)
            conn_map = instance_connections(inst, child_module, child_path)
        except ElaborationError as exc:
            raise InterpreterError(str(exc)) from exc

        child = self._build(child_module, child_path, overrides, iscope,
                            conn_map)
        iscope.children.append(child)
        for port in child_module.ports:
            if port.direction == "input":
                child.input_conns[port.name] = (iscope,
                                                conn_map.get(port.name))
            elif port.direction == "output":
                expr = conn_map.get(port.name)
                if expr is not None:
                    iscope.add_driver(
                        iscope.lvalue_masks(expr),
                        _Driver("inst",
                                f"output '{port.name}' of '{child_path}'",
                                child=child, port=port.name, expr=expr))

    @staticmethod
    def _const(expr: ast.Expression, env: Mapping[str, int],
               context: str) -> int:
        try:
            return evaluate(expr, env)
        except ConstEvalError as exc:
            raise InterpreterError(f"{context}: {exc}") from exc

    # -- execution ------------------------------------------------------------

    def reset(self) -> None:
        """Clear all register state back to zero."""
        self.state = {}

    # -- state injection (counterexample replay) -----------------------------

    def load_state(self, flat: Mapping[str, int]) -> None:
        """Seed register state from dotted hierarchical names.

        Keys are ``"<instance path>.<signal>"`` (e.g. ``"counter.q"``) with
        word-level values — exactly the shape produced by
        :meth:`repro.netlist.sat.Counterexample.packed_state` — so a SAT
        counterexample can be replayed on this independent oracle.  Unknown
        names or out-of-range values are rejected; registers not mentioned
        reset to zero.
        """
        regs = {(scope.path, name): scope
                for scope in self.scopes for name in scope.regs}
        state: dict[tuple[str, str], int] = {}
        for dotted, value in flat.items():
            path, _, name = dotted.rpartition(".")
            scope = regs.get((path, name))
            if scope is None:
                raise InterpreterError(
                    f"'{dotted}' does not name a register of the design"
                )
            width = scope.escope.width(name)
            if not 0 <= int(value) < (1 << width):
                raise InterpreterError(
                    f"value {value} does not fit register '{dotted}' "
                    f"([{width - 1}:0])"
                )
            state[(path, name)] = int(value)
        self.state = state

    def flat_state(self) -> dict[str, int]:
        """Current register state keyed by dotted hierarchical names.

        Registers still at their reset value are included explicitly, so the
        result round-trips through :meth:`load_state`.
        """
        flat: dict[str, int] = {}
        for scope in self.scopes:
            for name in sorted(scope.regs):
                flat[f"{scope.path}.{name}"] = self.state.get(
                    (scope.path, name), 0)
        return flat

    def step(self, inputs: Mapping[str, int]) -> dict[str, int]:
        """Execute one clock cycle: returns outputs, then advances state."""
        evaluation = _Evaluation(self, inputs)
        outputs: dict[str, int] = {}
        for port in self.source.module(self.top).ports:
            if port.direction == "output":
                outputs[port.name] = evaluation.read_signal(self.top_scope,
                                                            port.name)
        self.state = evaluation.next_state()
        return outputs

    def run(self, vectors: list[Mapping[str, int]]) -> list[dict[str, int]]:
        """Execute a sequence of input vectors, one cycle each."""
        return [self.step(vector) for vector in vectors]


class _Evaluation:
    """Demand-driven evaluation of one clock cycle."""

    def __init__(self, interp: Interpreter, inputs: Mapping[str, int]):
        self.interp = interp
        self.inputs = inputs
        # (path, name) -> (value, assigned_bit_mask)
        self.values: dict[tuple[str, str], tuple[int, int]] = {}
        self.done: set[int] = set()
        self.in_progress: set[int] = set()

    # -- signal resolution ----------------------------------------------------

    def read_signal(self, iscope: _IScope, name: str,
                    need: Optional[int] = None) -> int:
        """Resolve (at least) the ``need`` bits of a signal and return it.

        ``need`` defaults to the full width.  Only drivers overlapping the
        needed bits are forced, so constant bit/part selects resolve with
        the same per-bit granularity as the elaborator.
        """
        width = iscope.escope.width(name)
        if need is None:
            need = _mask(width)
        key = (iscope.path, name)
        cached = self.values.get(key)
        if cached is not None and cached[1] & need == need:
            return cached[0]

        if name in iscope.input_conns:
            parent, expr = iscope.input_conns[name]
            if parent is None:
                if name not in self.inputs:
                    raise InterpreterError(
                        f"missing value for input port '{name}'"
                    )
                value = int(self.inputs[name]) & _mask(width)
            elif expr is None:
                value = 0
            else:
                value, _ = self.eval(parent, expr, width=width)
                value &= _mask(width)
            self.values[key] = (value, _mask(width))
            return value

        if name in iscope.regs:
            value = self.interp.state.get(key, 0) & _mask(width)
            return value

        drivers = iscope.drivers.get(name)
        if not drivers:
            raise InterpreterError(
                f"signal '{name}' in {iscope.path} is read but has no driver"
            )
        for driver in drivers:
            if driver.masks.get(name, 0) & need:
                self.force(iscope, driver)
        value, mask = self.values.get(key, (0, 0))
        if mask & need != need:
            raise InterpreterError(
                f"signal '{name}' in {iscope.path} is only partially "
                f"assigned (inferred latch or missing driver bits)"
            )
        return value

    def force(self, iscope: _IScope, driver: _Driver) -> None:
        if id(driver) in self.done:
            return
        if id(driver) in self.in_progress:
            raise InterpreterError(
                f"combinational cycle detected through {driver.label}"
            )
        self.in_progress.add(id(driver))
        try:
            if driver.kind == "assign":
                targets = lvalue_targets(iscope.escope, driver.info["lhs"])
                value, _ = self.eval(iscope, driver.info["rhs"],
                                     width=len(targets))
                self._scatter(iscope, driver.info["lhs"], value, driver)
            elif driver.kind == "comb":
                env = _ProcEnv(self, iscope, sequential=False)
                self._exec(env, driver.info["block"].statement)
                for name, (value, mask) in env.wr.items():
                    self._set_bits(iscope, name, value, mask, driver)
            else:  # "inst"
                child = driver.info["child"]
                value = self.read_signal(child, driver.info["port"])
                self._scatter(iscope, driver.info["expr"], value, driver)
        finally:
            self.in_progress.discard(id(driver))
        self.done.add(id(driver))

    def _scatter(self, iscope: _IScope, lhs: ast.Expression, value: int,
                 driver: _Driver) -> None:
        targets = lvalue_targets(iscope.escope, lhs)
        for j, (name, index) in enumerate(targets):
            bit = (value >> j) & 1
            self._set_bits(iscope, name, bit << index, 1 << index, driver)

    def _set_bits(self, iscope: _IScope, name: str, value: int, mask: int,
                  driver: _Driver) -> None:
        key = (iscope.path, name)
        old_value, old_mask = self.values.get(key, (0, 0))
        if old_mask & mask:
            raise InterpreterError(
                f"signal '{name}' in {iscope.path} has multiple drivers "
                f"({driver.label} overlaps an earlier one)"
            )
        self.values[key] = (old_value | (value & mask), old_mask | mask)

    # -- next state -----------------------------------------------------------

    def next_state(self) -> dict[tuple[str, str], int]:
        state = dict(self.interp.state)
        for iscope in self.interp.scopes:
            for block in iscope.seq_blocks:
                env = _ProcEnv(self, iscope, sequential=True)
                self._exec(env, block.statement)
                for name, (value, mask) in env.wr.items():
                    key = (iscope.path, name)
                    width = iscope.escope.width(name)
                    old = state.get(key, 0)
                    state[key] = ((old & ~mask) | (value & mask)) & \
                        _mask(width)
        return state

    # -- expression evaluation -------------------------------------------------

    def eval(self, iscope: _IScope, expr: ast.Expression,
             reader: Optional[Callable[[str], int]] = None,
             consts: Optional[Mapping[str, int]] = None,
             width: int = 0) -> tuple[int, int]:
        """Evaluate an expression to ``(value, width)``; value is masked.

        ``width`` is the context width of the assignment target; it
        propagates exactly as in :meth:`Elaborator.lower_expr` so both
        engines size carries identically.
        """
        escope = iscope.escope
        env = dict(escope.params)
        if consts:
            env.update(consts)

        def read(name: str, need: Optional[int] = None) -> int:
            if reader is not None:
                return reader(name, need)
            return self.read_signal(iscope, name, need)

        def ev(node: ast.Expression, ctx: int = 0) -> tuple[int, int]:
            if isinstance(node, ast.Identifier):
                if node.name in env:
                    value = env[node.name]
                    base = natural_width(value)
                    return value & _mask(base), max(base, ctx)
                if node.name in escope.signals:
                    base = escope.width(node.name)
                    return read(node.name) & _mask(base), max(base, ctx)
                raise InterpreterError(
                    f"identifier '{node.name}' in {escope.path} is neither "
                    f"a declared signal nor a constant"
                )
            if isinstance(node, ast.IntConst):
                base = node.width if node.width is not None else \
                    natural_width(node.value)
                return node.value & _mask(base), max(base, ctx)
            if isinstance(node, ast.UnaryOp):
                return ev_unary(node, ctx)
            if isinstance(node, ast.BinaryOp):
                return ev_binary(node, ctx)
            if isinstance(node, ast.Ternary):
                cond, _ = ev(node.cond)
                tv, tw = ev(node.true_value, ctx)
                fv, fw = ev(node.false_value, ctx)
                width = max(tw, fw)
                return (tv if cond else fv), width
            if isinstance(node, ast.Concat):
                value, width = 0, 0
                for part in node.parts:
                    pv, pw = ev(part)
                    value = (value << pw) | pv
                    width += pw
                return value, width
            if isinstance(node, ast.Repeat):
                count = self.interp._const(node.count, env,
                                           "replication count")
                if count < 1:
                    raise InterpreterError(
                        f"replication count must be positive, got {count}"
                    )
                chunk, cw = ev(node.value)
                value = 0
                for _ in range(count):
                    value = (value << cw) | chunk
                return value, cw * count
            if isinstance(node, ast.BitSelect):
                return ev_bit_select(node)
            if isinstance(node, ast.PartSelect):
                return ev_part_select(node)
            raise InterpreterError(
                f"unsupported expression {type(node).__name__} in "
                f"{escope.path}"
            )

        def ev_unary(node: ast.UnaryOp, ctx: int) -> tuple[int, int]:
            op = node.op
            value, width = ev(node.operand,
                              ctx if op in ("~", "+", "-") else 0)
            if op == "~":
                return ~value & _mask(width), width
            if op == "+":
                return value, width
            if op == "-":
                return -value & _mask(width), width
            if op == "!":
                return int(value == 0), 1
            if op == "&":
                return int(value == _mask(width)), 1
            if op == "|":
                return int(value != 0), 1
            if op == "^":
                return bin(value).count("1") % 2, 1
            if op == "~&":
                return int(value != _mask(width)), 1
            if op == "~|":
                return int(value == 0), 1
            if op in ("~^", "^~"):
                return 1 - bin(value).count("1") % 2, 1
            raise InterpreterError(f"unsupported unary operator {op!r}")

        def ev_binary(node: ast.BinaryOp, ctx: int) -> tuple[int, int]:
            op = node.op
            if op in ("/", "%", "**"):
                try:
                    value = evaluate(node, env)
                except ConstEvalError as exc:
                    raise InterpreterError(
                        f"non-constant '{op}' is not supported in "
                        f"{escope.path}: {exc}"
                    ) from exc
                base = natural_width(value)
                return value & _mask(base), max(base, ctx)
            if op in ("<<", "<<<", ">>", ">>>"):
                lv, lw = ev(node.left, ctx)
                try:
                    amount = evaluate(node.right, env)
                except ConstEvalError:
                    amount, _ = ev(node.right)
                if amount < 0:
                    raise InterpreterError(
                        f"negative shift amount {amount} in {escope.path}"
                    )
                if op in ("<<", "<<<"):
                    return (lv << amount) & _mask(lw), lw
                return lv >> amount, lw
            sub_ctx = ctx if op in ("+", "-", "&", "|", "^", "~^", "^~") \
                else 0
            lv, lw = ev(node.left, sub_ctx)
            rv, rw = ev(node.right, sub_ctx)
            width = binary_width(op, lw, rw)
            if op == "+":
                return (lv + rv) & _mask(width), width
            if op == "-":
                return (lv - rv) & _mask(width), width
            if op == "*":
                return (lv * rv) & _mask(width), max(width, ctx)
            if op == "&":
                return lv & rv, width
            if op == "|":
                return lv | rv, width
            if op == "^":
                return lv ^ rv, width
            if op in ("~^", "^~"):
                return ~(lv ^ rv) & _mask(width), width
            if op in ("==", "==="):
                return int(lv == rv), 1
            if op in ("!=", "!=="):
                return int(lv != rv), 1
            if op == "<":
                return int(lv < rv), 1
            if op == ">":
                return int(lv > rv), 1
            if op == "<=":
                return int(lv <= rv), 1
            if op == ">=":
                return int(lv >= rv), 1
            if op == "&&":
                return int(bool(lv) and bool(rv)), 1
            if op == "||":
                return int(bool(lv) or bool(rv)), 1
            raise InterpreterError(f"unsupported binary operator {op!r}")

        def ev_bit_select(node: ast.BitSelect) -> tuple[int, int]:
            target = node.target
            strict = isinstance(target, ast.Identifier) and \
                target.name not in env and target.name in escope.signals
            try:
                index = evaluate(node.index, env)
            except ConstEvalError:
                tv, _ = ev(target)
                index, _ = ev(node.index)
                return (tv >> index) & 1, 1
            if strict:
                width = escope.width(target.name)
                if not 0 <= index < width:
                    raise InterpreterError(
                        f"bit select {target.name}[{index}] out of range "
                        f"[{width - 1}:0] in {escope.path}"
                    )
                # Demand only the selected bit so bitwise feedback through a
                # vector does not read as a whole-signal cycle.
                return (read(target.name, 1 << index) >> index) & 1, 1
            tv, _ = ev(target)
            return (tv >> index) & 1, 1

        def ev_part_select(node: ast.PartSelect) -> tuple[int, int]:
            target = node.target
            strict = isinstance(target, ast.Identifier) and \
                target.name not in env and target.name in escope.signals
            msb = self.interp._const(node.msb, env, "part-select msb")
            lsb = self.interp._const(node.lsb, env, "part-select lsb")
            if msb < lsb or lsb < 0:
                raise InterpreterError(
                    f"part select [{msb}:{lsb}] must be written msb:lsb "
                    f"with a non-negative lsb"
                )
            width = msb - lsb + 1
            if strict:
                twidth = escope.width(target.name)
                if msb >= twidth:
                    raise InterpreterError(
                        f"part select {target.name}[{msb}:{lsb}] out of "
                        f"range [{twidth - 1}:0] in {escope.path}"
                    )
                tv = read(target.name, _mask(width) << lsb)
                return (tv >> lsb) & _mask(width), width
            tv, _ = ev(target)
            return (tv >> lsb) & _mask(width), width

        return ev(expr, width)

    # -- procedural execution --------------------------------------------------

    def _exec(self, env: "_ProcEnv", stmt: Optional[ast.Statement]) -> None:
        if stmt is None:
            return
        if isinstance(stmt, ast.Block):
            for sub in stmt.statements:
                self._exec(env, sub)
            return
        if isinstance(stmt, (ast.BlockingAssign, ast.NonBlockingAssign)):
            if isinstance(stmt.lhs, ast.Identifier) and \
                    stmt.lhs.name in env.consts:
                raise InterpreterError(
                    f"assignment to loop variable '{stmt.lhs.name}' outside "
                    f"the for-loop step is not supported in {env.iscope.path}"
                )
            targets = lvalue_targets(env.iscope.escope, stmt.lhs, env.consts)
            value, _ = self.eval(env.iscope, stmt.rhs, reader=env.read,
                                 consts=env.consts, width=len(targets))
            env.write(targets, value,
                      blocking=isinstance(stmt, ast.BlockingAssign))
            return
        if isinstance(stmt, ast.If):
            cond, _ = self.eval(env.iscope, stmt.cond, reader=env.read,
                                consts=env.consts)
            self._exec(env, stmt.then_stmt if cond else stmt.else_stmt)
            return
        if isinstance(stmt, ast.Case):
            sel, _ = self.eval(env.iscope, stmt.expr, reader=env.read,
                               consts=env.consts)
            default_stmt = None
            for item in stmt.items:
                if item.conditions is None:
                    if default_stmt is None:
                        default_stmt = item.statement
                    continue
                matched = False
                for expr in item.conditions:
                    label, _ = self.eval(env.iscope, expr, reader=env.read,
                                         consts=env.consts)
                    if label == sel:
                        matched = True
                        break
                if matched:
                    self._exec(env, item.statement)
                    return
            self._exec(env, default_stmt)
            return
        if isinstance(stmt, ast.For):
            self._exec_for(env, stmt)
            return
        raise InterpreterError(
            f"unsupported procedural statement {type(stmt).__name__} in "
            f"{env.iscope.path}"
        )

    def _exec_for(self, env: "_ProcEnv", stmt: ast.For) -> None:
        try:
            for _ in unroll_for(stmt, env.iscope.escope.params, env.consts,
                                env.iscope.path):
                self._exec(env, stmt.body)
        except ElaborationError as exc:
            raise InterpreterError(str(exc)) from exc


class _ProcEnv:
    """Concrete procedural state: written values/masks + blocking overrides."""

    def __init__(self, evaluation: _Evaluation, iscope: _IScope,
                 sequential: bool):
        self.evaluation = evaluation
        self.iscope = iscope
        self.sequential = sequential
        self.consts: dict[str, int] = {}
        self.wr: dict[str, tuple[int, int]] = {}   # name -> (value, mask)
        self.rd: dict[str, tuple[int, int]] = {}   # blocking overrides

    def read(self, name: str, need: Optional[int] = None) -> int:
        width = self.iscope.escope.width(name)
        if need is None:
            need = _mask(width)
        if self.sequential:
            # Non-blocking semantics: reads see the pre-edge value unless a
            # blocking assignment earlier in the block overrode it.
            value, mask = self.rd.get(name, (0, 0))
        else:
            value, mask = self.wr.get(name, (0, 0))
        if mask & need == need:
            return value
        base = self.evaluation.read_signal(self.iscope, name,
                                           need & ~mask) & _mask(width)
        return (base & ~mask) | (value & mask)

    def write(self, targets: list[tuple[str, int]], value: int,
              blocking: bool) -> None:
        stores = (self.wr, self.rd) if blocking or not self.sequential \
            else (self.wr,)
        for j, (name, index) in enumerate(targets):
            bit = (value >> j) & 1
            for store in stores:
                old_value, old_mask = store.get(name, (0, 0))
                store[name] = (
                    (old_value & ~(1 << index)) | (bit << index),
                    old_mask | (1 << index),
                )
