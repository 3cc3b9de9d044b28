"""RTL elaboration: lower a parsed Verilog design into the gate-level netlist.

:func:`elaborate` is the canonical path from the frontend to the IR:

* the design hierarchy is validated and flattened (one :class:`Scope` per
  module instance, parameters resolved through :mod:`repro.verilog.consteval`);
* multi-bit nets and word-level expressions are bit-blasted into
  :class:`~repro.netlist.logic.GateType` primitives via
  :mod:`repro.netlist.bitblast`;
* ``assign`` statements and ``always @(*)`` blocks become combinational
  gates (``if``/``case`` lower to mux trees, ``for`` loops are unrolled);
* edge-triggered ``always`` blocks become banks of D flip-flops, with
  unassigned paths holding their value;
* unsupported or non-synthesizable constructs raise
  :class:`~repro.netlist.environment.ElaborationError` with a scoped message.

Elaboration is demand driven: module items register as *drivers* for the
signal bits they produce and are forced when first read, which makes source
ordering irrelevant (continuous-assignment semantics) while still reporting
combinational cycles, undriven reads, multiple drivers and inferred latches.

Flip-flop data pins and child-instance input pins are forward references —
the state feeding logic that computes it — so both are created against
placeholder nets and patched with
:meth:`~repro.netlist.logic.Netlist.set_fanins` once the cone exists.

The module also provides the word-level simulation conveniences
:func:`simulate_vectors` / :func:`simulate_sequence`, which pack and unpack
the per-bit port naming convention used by the elaborator (``name`` for
scalars, ``name[i]`` for vector bits).  Both run the compiled
single-pattern engine (:mod:`repro.netlist.sim`), one call per cycle; the
per-gate :func:`~repro.netlist.logic.simulate` stays as the bit-level
reference oracle the tests check it against.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional, Union

from repro.verilog import ast
from repro.verilog.consteval import (
    ConstEvalError,
    evaluate,
    module_parameters,
)
from repro.verilog.parser import parse

from ..obs import get_tracer
from . import bitblast as bb
from .environment import (
    Driver,
    ElaborationError,
    Scope,
    build_signal_table,
    const_int,
    instance_connections,
    instance_overrides,
    lvalue_targets,
    unroll_for,
)
from .logic import GateType, Netlist
from .sim import compile_netlist


def _collect_writes(stmt: Optional[ast.Statement]) -> set[str]:
    """Signals assigned anywhere in a procedural statement tree.

    ``for`` init/step targets are excluded: the loop variable is a
    compile-time constant during unrolling, not a driven signal.
    """
    out: set[str] = set()

    def visit(node: Optional[ast.Statement]) -> None:
        if node is None:
            return
        if isinstance(node, (ast.BlockingAssign, ast.NonBlockingAssign)):
            out.update(ast.lvalue_signals(node.lhs))
        elif isinstance(node, ast.Block):
            for sub in node.statements:
                visit(sub)
        elif isinstance(node, ast.If):
            visit(node.then_stmt)
            visit(node.else_stmt)
        elif isinstance(node, ast.Case):
            for item in node.items:
                visit(item.statement)
        elif isinstance(node, ast.For):
            visit(node.body)
        else:
            raise ElaborationError(
                f"unsupported procedural statement {type(node).__name__}"
            )

    visit(stmt)
    return out


class _ProcEnv:
    """Symbolic state of one procedural block during lowering.

    ``wr`` holds the value each signal will take when the block completes
    (``None`` bits are not-yet-assigned; only possible in combinational
    blocks — sequential rows start from the flip-flop outputs, i.e. hold).
    ``rd`` holds blocking-assignment overrides in sequential blocks, so reads
    after a blocking write see the new value while non-blocking writes keep
    old-value read semantics.
    """

    def __init__(self, elab: "Elaborator", scope: Scope, sequential: bool,
                 consts: dict[str, int]):
        self.elab = elab
        self.scope = scope
        self.sequential = sequential
        self.consts = consts
        self.wr: dict[str, list[Optional[int]]] = {}
        self.rd: dict[str, list[int]] = {}

    def read(self, name: str,
             indices: Optional[list[int]] = None) -> list[int]:
        """Read a signal's bits; ``indices`` restricts resolution to those
        bit positions (the returned list then matches ``indices`` order)."""
        if self.sequential:
            row: Optional[list[Optional[int]]] = self.rd.get(name)
        else:
            row = self.wr.get(name)
        wanted = indices if indices is not None \
            else list(range(self.scope.width(name)))
        return [
            row[i] if row is not None and row[i] is not None
            else self.scope.resolve_bit(name, i)
            for i in wanted
        ]

    def write(self, targets: list[tuple[str, int]], bits: list[int],
              blocking: bool) -> None:
        for (name, index), net in zip(targets, bits):
            row = self.wr.get(name)
            if row is None:
                if self.sequential:
                    row = list(self.scope.resolve_signal(name))
                else:
                    row = [None] * self.scope.width(name)
                self.wr[name] = row
            row[index] = net
            if self.sequential and blocking:
                override = self.rd.get(name)
                if override is None:
                    override = self.scope.resolve_signal(name)
                    self.rd[name] = override
                override[index] = net

    def branch(self) -> "_ProcEnv":
        child = _ProcEnv(self.elab, self.scope, self.sequential,
                         dict(self.consts))
        child.wr = {name: list(row) for name, row in self.wr.items()}
        child.rd = {name: list(row) for name, row in self.rd.items()}
        return child

    def merge(self, cond: int, env_t: "_ProcEnv", env_f: "_ProcEnv") -> None:
        """Fold two branch environments back with per-bit muxes on ``cond``."""
        netlist = self.elab.netlist
        for name in set(env_t.wr) | set(env_f.wr):
            base = self.wr.get(name)
            if base is None and self.sequential:
                # Sequential fallback is the register's current value (hold).
                base = self.scope.resolve_signal(name)
            trow = env_t.wr.get(name)
            frow = env_f.wr.get(name)
            width = self.scope.width(name)
            merged: list[Optional[int]] = []
            for i in range(width):
                vt = trow[i] if trow is not None else (
                    base[i] if base is not None else None)
                vf = frow[i] if frow is not None else (
                    base[i] if base is not None else None)
                if vt == vf:
                    merged.append(vt)
                elif vt is None or vf is None:
                    self.scope.latched.add((name, i))
                    merged.append(None)
                else:
                    merged.append(bb.b_mux(netlist, cond, vf, vt))
            self.wr[name] = merged
        for name in set(env_t.rd) | set(env_f.rd):
            fallback = self.rd.get(name)
            if fallback is None:
                fallback = self.scope.resolve_signal(name)
            trow = env_t.rd.get(name, fallback)
            frow = env_f.rd.get(name, fallback)
            self.rd[name] = [
                vt if vt == vf else bb.b_mux(netlist, cond, vf, vt)
                for vt, vf in zip(trow, frow)
            ]


class Elaborator:
    """Lowers one parsed design (source + top module) into a netlist."""

    def __init__(self, source: ast.Source, top: str,
                 params: Optional[Mapping[str, int]] = None):
        self.source = source
        self.top = top
        self.params = dict(params or {})
        self.netlist = Netlist(name=top)

    # -- top level ----------------------------------------------------------

    def run(self) -> Netlist:
        check_acyclic(self.source, self.top, ElaborationError)
        module = self.source.module(self.top)
        check_params(module, self.params, ElaborationError)

        def bind_inputs(scope: Scope) -> None:
            for port in module.ports:
                if port.direction != "input":
                    continue
                width = scope.width(port.name)
                for i in range(width):
                    name = port.name if width == 1 else f"{port.name}[{i}]"
                    scope.bind(port.name, i, self.netlist.add_input(name))

        scope = self._elaborate_scope(module, self.top, self.params,
                                      bind_inputs)
        for port in module.ports:
            if port.direction != "output":
                continue
            bits = scope.resolve_signal(port.name)
            width = len(bits)
            for i, net in enumerate(bits):
                name = port.name if width == 1 else f"{port.name}[{i}]"
                self.netlist.add_output(name, net)
        return self.netlist

    # -- per-scope elaboration ----------------------------------------------

    def _elaborate_scope(self, module: ast.Module, path: str,
                         overrides: Mapping[str, int],
                         bind_inputs: Callable[[Scope], None]) -> Scope:
        try:
            params = module_parameters(module, overrides)
        except ConstEvalError as exc:
            raise ElaborationError(
                f"cannot resolve parameters of module '{module.name}': {exc}"
            ) from exc
        scope = Scope(path, module, params)
        build_signal_table(scope)
        bind_inputs(scope)
        patches: list[Callable[[], None]] = []

        for item in module.items:
            if isinstance(item, ast.ParamDecl):
                continue
            if isinstance(item, ast.NetDecl):
                if item.init is not None:
                    self._register_assign(
                        scope, ast.Identifier(name=item.name), item.init,
                        label=f"initializer of '{item.name}'")
                continue
            if isinstance(item, ast.Assign):
                self._register_assign(scope, item.lhs, item.rhs,
                                      label="continuous assignment")
            elif isinstance(item, ast.Always):
                if item.is_sequential:
                    self._handle_seq_always(scope, item, patches)
                else:
                    self._register_comb_always(scope, item)
            elif isinstance(item, ast.Initial):
                continue  # ignored by synthesis
            elif isinstance(item, ast.Instance):
                self._handle_instance(scope, item, patches)
            else:
                raise ElaborationError(
                    f"unsupported module item {type(item).__name__} in "
                    f"module '{module.name}'"
                )

        scope.force_all()
        for patch in patches:
            patch()
        return scope

    # -- continuous assignments ----------------------------------------------

    def _register_assign(self, scope: Scope, lhs: ast.Expression,
                         rhs: ast.Expression, label: str) -> None:
        targets = lvalue_targets(scope, lhs)

        def force() -> None:
            bits = self.lower_expr(scope, rhs, width=len(targets))
            bits = bb.extend(self.netlist, bits, len(targets))
            for (name, index), net in zip(targets, bits):
                scope.bind(name, index, net, driver=driver)

        driver = Driver(f"{label} in {scope.path}", force)
        for name, index in targets:
            scope.register_driver(name, index, driver)

    # -- always blocks -------------------------------------------------------

    def _register_comb_always(self, scope: Scope, item: ast.Always) -> None:
        writes = _collect_writes(item.statement)
        if not writes:
            return

        def force() -> None:
            env = _ProcEnv(self, scope, sequential=False, consts={})
            self.exec_stmt(env, item.statement)
            for name in writes:
                row = env.wr.get(name)
                if row is None:
                    continue
                for index, net in enumerate(row):
                    if net is not None:
                        scope.bind(name, index, net, driver=driver)

        driver = Driver(f"always @(*) block in {scope.path}", force)
        for name in sorted(writes):
            for index in range(scope.width(name)):
                scope.register_driver(name, index, driver)

    def _handle_seq_always(self, scope: Scope, item: ast.Always,
                           patches: list[Callable[[], None]]) -> None:
        writes = _collect_writes(item.statement)
        if not writes:
            return
        dffs: list[tuple[str, int, int]] = []
        for name in sorted(writes):
            width = scope.width(name)
            for index in range(width):
                qname = f"{scope.path}.{name}"
                if width > 1:
                    qname += f"[{index}]"
                gid = self.netlist.add_dff(self.netlist.const0(), name=qname)
                scope.bind(name, index, gid)
                dffs.append((name, index, gid))

        def patch() -> None:
            env = _ProcEnv(self, scope, sequential=True, consts={})
            self.exec_stmt(env, item.statement)
            for name, index, gid in dffs:
                row = env.wr.get(name)
                data = row[index] if row is not None else scope.bits[name][index]
                self.netlist.set_fanins(gid, (data,))

        patches.append(patch)

    # -- instances ------------------------------------------------------------

    def _handle_instance(self, scope: Scope, inst: ast.Instance,
                         patches: list[Callable[[], None]]) -> None:
        child_path = f"{scope.path}.{inst.instance_name}"
        if not self.source.has_module(inst.module_name):
            raise ElaborationError(
                f"instance '{child_path}' refers to module "
                f"'{inst.module_name}' which is not defined in the source"
            )
        child_module = self.source.module(inst.module_name)
        overrides = instance_overrides(scope.params, inst, child_module,
                                       child_path)
        conn_map = instance_connections(inst, child_module, child_path)

        placeholders: dict[str, list[int]] = {}

        def bind_child_inputs(child_scope: Scope) -> None:
            for port in child_module.ports:
                if port.direction != "input":
                    continue
                width = child_scope.width(port.name)
                bufs = []
                for i in range(width):
                    pname = f"{child_path}.{port.name}"
                    if width > 1:
                        pname += f"[{i}]"
                    buf = self.netlist.add_gate(
                        GateType.BUF, (self.netlist.const0(),), name=pname)
                    child_scope.bind(port.name, i, buf)
                    bufs.append(buf)
                placeholders[port.name] = bufs

        child_scope = self._elaborate_scope(child_module, child_path,
                                            overrides, bind_child_inputs)

        for port in child_module.ports:
            if port.direction != "output":
                continue
            expr = conn_map.get(port.name)
            if expr is None:
                continue
            targets = lvalue_targets(scope, expr)
            bits = bb.extend(self.netlist,
                             child_scope.resolve_signal(port.name),
                             len(targets))
            for (name, index), net in zip(targets, bits):
                scope.bind(name, index, net)

        def patch() -> None:
            for port_name, bufs in placeholders.items():
                expr = conn_map.get(port_name)
                if expr is None:
                    bits = bb.constant(self.netlist, 0, len(bufs))
                else:
                    bits = bb.extend(
                        self.netlist,
                        self.lower_expr(scope, expr, width=len(bufs)),
                        len(bufs))
                for buf, net in zip(bufs, bits):
                    self.netlist.set_fanins(buf, (net,))

        patches.append(patch)

    # -- statement lowering ---------------------------------------------------

    def exec_stmt(self, env: _ProcEnv, stmt: Optional[ast.Statement]) -> None:
        if stmt is None:
            return
        if isinstance(stmt, ast.Block):
            for sub in stmt.statements:
                self.exec_stmt(env, sub)
            return
        if isinstance(stmt, (ast.BlockingAssign, ast.NonBlockingAssign)):
            self._exec_assign(env, stmt)
            return
        if isinstance(stmt, ast.If):
            self._exec_if(env, stmt)
            return
        if isinstance(stmt, ast.Case):
            self._exec_case(env, stmt)
            return
        if isinstance(stmt, ast.For):
            self._exec_for(env, stmt)
            return
        raise ElaborationError(
            f"unsupported procedural statement {type(stmt).__name__} in "
            f"{env.scope.path}"
        )

    def _exec_assign(self, env: _ProcEnv,
                     stmt: Union[ast.BlockingAssign, ast.NonBlockingAssign]
                     ) -> None:
        if isinstance(stmt.lhs, ast.Identifier) and stmt.lhs.name in env.consts:
            raise ElaborationError(
                f"assignment to loop variable '{stmt.lhs.name}' outside the "
                f"for-loop step is not supported in {env.scope.path}"
            )
        targets = lvalue_targets(env.scope, stmt.lhs, env.consts)
        bits = self.lower_expr(env.scope, stmt.rhs, reader=env.read,
                               consts=env.consts, width=len(targets))
        bits = bb.extend(self.netlist, bits, len(targets))
        env.write(targets, bits, blocking=isinstance(stmt, ast.BlockingAssign))

    def _exec_if(self, env: _ProcEnv, stmt: ast.If) -> None:
        cond_bits = self.lower_expr(env.scope, stmt.cond, reader=env.read,
                                    consts=env.consts)
        cond = bb.reduce_or(self.netlist, cond_bits)
        gtype = self.netlist._type[cond]
        if gtype == GateType.CONST1:
            self.exec_stmt(env, stmt.then_stmt)
            return
        if gtype == GateType.CONST0:
            self.exec_stmt(env, stmt.else_stmt)
            return
        env_t = env.branch()
        self.exec_stmt(env_t, stmt.then_stmt)
        env_f = env.branch()
        self.exec_stmt(env_f, stmt.else_stmt)
        env.merge(cond, env_t, env_f)

    def _exec_case(self, env: _ProcEnv, stmt: ast.Case) -> None:
        sel = self.lower_expr(env.scope, stmt.expr, reader=env.read,
                              consts=env.consts)
        arms: list[tuple[int, Optional[ast.Statement]]] = []
        default_stmt: Optional[ast.Statement] = None
        have_default = False
        for item in stmt.items:
            if item.conditions is None:
                if not have_default:
                    default_stmt = item.statement
                    have_default = True
                continue
            cond = self.netlist.const0()
            for expr in item.conditions:
                label = self.lower_expr(env.scope, expr, reader=env.read,
                                        consts=env.consts)
                cond = bb.b_or(self.netlist, cond,
                               bb.v_eq(self.netlist, sel, label))
            arms.append((cond, item.statement))

        def run_arms(env: _ProcEnv, k: int) -> None:
            if k == len(arms):
                self.exec_stmt(env, default_stmt)
                return
            cond, arm_stmt = arms[k]
            gtype = self.netlist._type[cond]
            if gtype == GateType.CONST1:
                self.exec_stmt(env, arm_stmt)
                return
            if gtype == GateType.CONST0:
                run_arms(env, k + 1)
                return
            env_t = env.branch()
            self.exec_stmt(env_t, arm_stmt)
            env_f = env.branch()
            run_arms(env_f, k + 1)
            env.merge(cond, env_t, env_f)

        run_arms(env, 0)

    def _exec_for(self, env: _ProcEnv, stmt: ast.For) -> None:
        for _ in unroll_for(stmt, env.scope.params, env.consts,
                            env.scope.path):
            self.exec_stmt(env, stmt.body)

    # -- expression lowering ---------------------------------------------------

    def lower_expr(self, scope: Scope, expr: ast.Expression,
                   reader: Optional[
                       Callable[..., list[int]]] = None,
                   consts: Optional[Mapping[str, int]] = None,
                   width: int = 0) -> list[int]:
        """Bit-blast an expression into a net-id vector (LSB first).

        ``width`` is the context width demanded by the assignment target (0
        for self-determined).  As in Verilog, it propagates through the
        width-transparent operators (``+ - & | ^ ~^ ~``, unary ``+``/``-``,
        ternary branches, the left shift operand) so carries are computed at
        the target width; comparison operands, concatenation parts, selects
        and shift amounts remain self-determined.
        """
        netlist = self.netlist

        def scope_read(name: str,
                       indices: Optional[list[int]] = None) -> list[int]:
            if indices is None:
                return scope.resolve_signal(name)
            return [scope.resolve_bit(name, i) for i in indices]

        read = reader if reader is not None else scope_read
        env = dict(scope.params)
        if consts:
            env.update(consts)

        def lower(node: ast.Expression, ctx: int = 0) -> list[int]:
            if isinstance(node, ast.Identifier):
                if node.name in env:
                    value = env[node.name]
                    base = bb.natural_width(value)
                    return bb.constant(netlist, value & ((1 << base) - 1),
                                       max(base, ctx))
                if node.name in scope.signals:
                    return bb.extend(netlist, read(node.name),
                                     max(scope.width(node.name), ctx))
                raise ElaborationError(
                    f"identifier '{node.name}' in {scope.path} is neither a "
                    f"declared signal nor a constant"
                )
            if isinstance(node, ast.IntConst):
                base = node.width if node.width is not None else \
                    bb.natural_width(node.value)
                return bb.constant(netlist, node.value & ((1 << base) - 1),
                                   max(base, ctx))
            if isinstance(node, ast.UnaryOp):
                return lower_unary(node, ctx)
            if isinstance(node, ast.BinaryOp):
                return lower_binary(node, ctx)
            if isinstance(node, ast.Ternary):
                cond = bb.reduce_or(netlist, lower(node.cond))
                true_bits = lower(node.true_value, ctx)
                false_bits = lower(node.false_value, ctx)
                return bb.v_mux(netlist, cond, false_bits, true_bits)
            if isinstance(node, ast.Concat):
                bits: list[int] = []
                for part in reversed(node.parts):
                    bits.extend(lower(part))
                return bits
            if isinstance(node, ast.Repeat):
                count = const_int(node.count, env, "replication count")
                if count < 1:
                    raise ElaborationError(
                        f"replication count must be positive, got {count}"
                    )
                return lower(node.value) * count
            if isinstance(node, ast.BitSelect):
                return lower_bit_select(node)
            if isinstance(node, ast.PartSelect):
                return lower_part_select(node)
            raise ElaborationError(
                f"unsupported expression {type(node).__name__} in {scope.path}"
            )

        def lower_unary(node: ast.UnaryOp, ctx: int) -> list[int]:
            op = node.op
            operand = lower(node.operand,
                            ctx if op in ("~", "+", "-") else 0)
            if op == "~":
                return bb.v_not(netlist, operand)
            if op == "+":
                return operand
            if op == "-":
                return bb.v_neg(netlist, operand)
            if op == "!":
                return [bb.b_not(netlist, bb.reduce_or(netlist, operand))]
            if op == "&":
                return [bb.reduce_and(netlist, operand)]
            if op == "|":
                return [bb.reduce_or(netlist, operand)]
            if op == "^":
                return [bb.reduce_xor(netlist, operand)]
            if op == "~&":
                return [bb.b_not(netlist, bb.reduce_and(netlist, operand))]
            if op == "~|":
                return [bb.b_not(netlist, bb.reduce_or(netlist, operand))]
            if op in ("~^", "^~"):
                return [bb.b_not(netlist, bb.reduce_xor(netlist, operand))]
            raise ElaborationError(f"unsupported unary operator {op!r}")

        def lower_binary(node: ast.BinaryOp, ctx: int) -> list[int]:
            op = node.op
            if op in ("/", "%", "**"):
                try:
                    value = evaluate(node, env)
                except ConstEvalError as exc:
                    raise ElaborationError(
                        f"non-constant '{op}' is not synthesizable in "
                        f"{scope.path}: {exc}"
                    ) from exc
                base = bb.natural_width(value)
                return bb.constant(netlist, value & ((1 << base) - 1),
                                   max(base, ctx))
            if op in ("<<", "<<<", ">>", ">>>"):
                left = lower(node.left, ctx)
                shifter = bb.shift_left_const if op in ("<<", "<<<") \
                    else bb.shift_right_const
                try:
                    amount = evaluate(node.right, env)
                except ConstEvalError:
                    amount_bits = lower(node.right)
                    dyn = bb.shift_left if op in ("<<", "<<<") \
                        else bb.shift_right
                    return dyn(netlist, left, amount_bits)
                if amount < 0:
                    raise ElaborationError(
                        f"negative shift amount {amount} in {scope.path}"
                    )
                return shifter(netlist, left, amount)
            sub_ctx = ctx if op in ("+", "-", "&", "|", "^", "~^", "^~") \
                else 0
            left = lower(node.left, sub_ctx)
            right = lower(node.right, sub_ctx)
            if op == "+":
                return bb.v_add(netlist, left, right)
            if op == "-":
                return bb.v_sub(netlist, left, right)
            if op == "*":
                product = bb.v_mul(netlist, left, right)
                return bb.extend(netlist, product, max(len(product), ctx))
            if op == "&":
                return bb.v_and(netlist, left, right)
            if op == "|":
                return bb.v_or(netlist, left, right)
            if op == "^":
                return bb.v_xor(netlist, left, right)
            if op in ("~^", "^~"):
                return bb.v_xnor(netlist, left, right)
            if op in ("==", "==="):
                return [bb.v_eq(netlist, left, right)]
            if op in ("!=", "!=="):
                return [bb.v_ne(netlist, left, right)]
            if op == "<":
                return [bb.v_ult(netlist, left, right)]
            if op == ">":
                return [bb.v_ult(netlist, right, left)]
            if op == "<=":
                return [bb.v_ule(netlist, left, right)]
            if op == ">=":
                return [bb.v_ule(netlist, right, left)]
            if op == "&&":
                return [bb.b_and(netlist, bb.reduce_or(netlist, left),
                                 bb.reduce_or(netlist, right))]
            if op == "||":
                return [bb.b_or(netlist, bb.reduce_or(netlist, left),
                                bb.reduce_or(netlist, right))]
            raise ElaborationError(f"unsupported binary operator {op!r}")

        def lower_bit_select(node: ast.BitSelect) -> list[int]:
            target = node.target
            strict = isinstance(target, ast.Identifier) and \
                target.name not in env and target.name in scope.signals
            try:
                index = evaluate(node.index, env)
            except ConstEvalError:
                tvec = lower(target)
                index_bits = lower(node.index)
                return [bb.select_bit(netlist, tvec, index_bits)]
            if strict:
                # Demand only the selected bit so per-bit feedback through a
                # vector (e.g. a carry chain) is not misreported as a cycle.
                width = scope.width(target.name)
                if not 0 <= index < width:
                    raise ElaborationError(
                        f"bit select {target.name}[{index}] out of range "
                        f"[{width - 1}:0] in {scope.path}"
                    )
                return read(target.name, [index])
            tvec = lower(target)
            if 0 <= index < len(tvec):
                return [tvec[index]]
            return [netlist.const0()]

        def lower_part_select(node: ast.PartSelect) -> list[int]:
            target = node.target
            strict = isinstance(target, ast.Identifier) and \
                target.name not in env and target.name in scope.signals
            msb = const_int(node.msb, env, "part-select msb")
            lsb = const_int(node.lsb, env, "part-select lsb")
            if msb < lsb or lsb < 0:
                raise ElaborationError(
                    f"part select [{msb}:{lsb}] must be written msb:lsb "
                    f"with a non-negative lsb"
                )
            if strict:
                width = scope.width(target.name)
                if msb >= width:
                    raise ElaborationError(
                        f"part select {target.name}[{msb}:{lsb}] out of "
                        f"range [{width - 1}:0] in {scope.path}"
                    )
                return read(target.name, list(range(lsb, msb + 1)))
            tvec = lower(target)
            return [
                tvec[i] if i < len(tvec) else netlist.const0()
                for i in range(lsb, msb + 1)
            ]

        return lower(expr, width)


def select_top(source: ast.Source, top: Optional[str],
               error: type[Exception]) -> str:
    """The top module's name: ``top`` if ``source`` defines it, else the
    source's only module.  Raises ``error`` with a diagnostic otherwise
    (shared by :func:`elaborate` and the :class:`Interpreter`)."""
    if top is not None:
        if not source.has_module(top):
            raise error(f"top module '{top}' not found in source")
        return top
    names = source.module_names()
    if not names:
        raise error("the source defines no module")
    if len(names) > 1:
        raise error(f"a top module name is required when the source "
                    f"defines multiple modules (found: {', '.join(names)})")
    return names[0]


def check_acyclic(source: ast.Source, top: str,
                  error: type[Exception]) -> None:
    """Raise ``error`` if a module below ``top`` instantiates one of its own
    ancestors.  Modules the source does not define are leaves here; the
    lowering reports them (shared by :func:`elaborate` and the
    :class:`Interpreter`)."""
    done: set[str] = set()

    def visit(name: str, ancestors: tuple[str, ...]) -> None:
        for inst in source.module(name).instances:
            child = inst.module_name
            if child in ancestors:
                raise error(f"recursive instantiation of module '{child}'")
            if child not in done and source.has_module(child):
                visit(child, ancestors + (child,))
        done.add(name)

    visit(top, (top,))


def check_params(module: ast.Module, params: Optional[Mapping[str, int]],
                 error: type[Exception]) -> None:
    """Raise ``error`` if ``params`` overrides a parameter the top module
    does not declare, or a ``localparam`` (shared by :func:`elaborate`
    and the :class:`Interpreter`)."""
    declared = {decl.name: decl.local for decl in module.param_decls}
    for name in params or ():
        if declared.get(name) is not False:
            kind = "local" if name in declared else "unknown"
            raise error(f"cannot override {kind} parameter '{name}' of "
                        f"top module '{module.name}'")


def elaborate(source: Union[str, ast.Source], top: Optional[str] = None,
              params: Optional[Mapping[str, int]] = None) -> Netlist:
    """Synthesize a parsed (or raw-text) Verilog design into a :class:`Netlist`.

    ``top`` may be omitted when the source contains exactly one module.
    ``params`` overrides parameters of the top module.  Vector ports become
    one primary input/output per bit named ``port[i]`` (plain ``port`` for
    scalars); use :func:`simulate_vectors` to drive the result word-wise,
    and :func:`repro.netlist.opt.optimize` to optimize it.
    """
    tracer = get_tracer()
    with tracer.span("elaborate") as span:
        if isinstance(source, str):
            with tracer.span("elaborate.parse", bytes=len(source)):
                source = parse(source)
        top = select_top(source, top, ElaborationError)
        span.set(top=top)
        with tracer.span("elaborate.lower", top=top) as lower_span:
            netlist = Elaborator(source, top, params).run()
            lower_span.set(gates=netlist.num_gates)
        span.set(gates=netlist.num_gates)
    return netlist


# ---------------------------------------------------------------------------
# Word-level simulation conveniences
# ---------------------------------------------------------------------------


def simulate_vectors(netlist: Netlist, inputs: Mapping[str, int],
                     state: Optional[dict[int, int]] = None
                     ) -> tuple[dict[str, int], dict[int, int]]:
    """Run one word-level cycle of a netlist.

    ``inputs`` maps *port* names (the elaborator's pre-bit-blasting names) to
    unsigned integers; outputs are packed back the same way.  ``state`` maps
    flip-flop gate ids to their current value (all zero by default); the
    next state comes back in the same form.
    """
    compiled = compile_netlist(netlist)
    outputs, next_bits = compiled.run_words(inputs, compiled.pack_state(state))
    return outputs, dict(zip(compiled.registers, next_bits))


def simulate_sequence(netlist: Netlist,
                      vectors: Iterable[Mapping[str, int]],
                      state: Optional[dict[int, int]] = None
                      ) -> list[dict[str, int]]:
    """Simulate a sequence of word-level input vectors (one per clock cycle).

    The netlist is levelized and code-generated once (kept in the
    netlist's store of derived data across calls).
    """
    compiled = compile_netlist(netlist)
    run_words = compiled.run_words
    packed_state: tuple[int, ...] = compiled.pack_state(state)
    results: list[dict[str, int]] = []
    for vector in vectors:
        outputs, packed_state = run_words(vector, packed_state)
        results.append(outputs)
    return results
