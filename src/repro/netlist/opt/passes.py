"""The optimization passes.

Every pass is a :class:`Pass` with a ``run(netlist) -> Netlist`` method.
:class:`SimplifyPass`, :class:`BalancePass` and :class:`SweepPass` drive a
:class:`~repro.netlist.opt.rebuild.Rebuilder` over the live cone;
:class:`ConstPropPass` and :class:`StrashPass` are thin round-trips through
the canonical AIG (:mod:`repro.netlist.aig`), whose hash-consing
constructor performs constant folding, identity rewriting and structural
hashing on every node it creates.  The stock passes:

* :class:`ConstPropPass` / :class:`StrashPass` — lower to the AIG and
  raise back: constants propagate, double inverters cancel, duplicate and
  complementary operands fold, and structurally identical cones merge in
  the unique table — global common-subexpression elimination for free;
* :class:`SimplifyPass` — gate-level identity rewrites that preserve gate
  types: double inverters, duplicate/complementary operands,
  mux-to-xor/and/or strength reduction;
* :class:`BalancePass` — rebuilds single-fanout chains of two-input
  ``AND``/``OR``/``XOR`` gates as depth-minimal trees (lowest-level operands
  pair first), shortening the critical path without duplicating logic;
* :class:`SweepPass` — the identity rebuild: drops everything outside the
  output cone (dead gates, dead flip-flops).

:class:`FraigPass` (SAT sweeping on the AIG) lives in
:mod:`repro.netlist.opt.fraig`.

All passes preserve the primary input/output interface and flip-flop names,
which is what lets :func:`repro.netlist.sat.check_equivalence` match the
optimized netlist against the original.
"""

from __future__ import annotations

import heapq
from typing import Optional

from ..aig import from_netlist, to_netlist
from ..logic import Gate, GateType, Netlist
from .rebuild import Rebuilder, identity_builder

#: Associative two-input chain types the balance pass restructures.
BALANCED_TYPES = {GateType.AND, GateType.OR, GateType.XOR}

_AND_FAMILY = {GateType.AND: False, GateType.NAND: True}
_OR_FAMILY = {GateType.OR: False, GateType.NOR: True}
_XOR_FAMILY = {GateType.XOR: False, GateType.XNOR: True}


class Pass:
    """Base class: a named netlist-to-netlist transformation.

    ``run`` must be a deterministic function of its input's structure
    and must never mutate the input netlist (returning it unchanged is
    fine).  :class:`~repro.netlist.opt.pipeline.PassManager` relies on
    both: within one run it hands back a pass's earlier output when the
    pass sees an input with the same content hash again.
    """

    name = "pass"

    def run(self, netlist: Netlist) -> Netlist:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


# ---------------------------------------------------------------------------
# Shared folding helpers (all inspect gates of the *result* netlist)
# ---------------------------------------------------------------------------


def _cval(rb: Rebuilder, net: int) -> Optional[int]:
    gtype = rb.gtype(net)
    if gtype == GateType.CONST0:
        return 0
    if gtype == GateType.CONST1:
        return 1
    return None


def _const(rb: Rebuilder, value: int) -> int:
    return rb.const1() if value else rb.const0()


def _not_operand(rb: Rebuilder, net: int) -> Optional[int]:
    """If ``net`` is an inverter in the result netlist, its operand."""
    gate = rb.result.gate(net)
    if gate.gtype == GateType.NOT:
        return gate.fanins[0]
    return None


def _emit_not(rb: Rebuilder, net: int, name: Optional[str] = None) -> int:
    """Inverter with constant and double-inverter folding."""
    value = _cval(rb, net)
    if value is not None:
        return _const(rb, 1 - value)
    operand = _not_operand(rb, net)
    if operand is not None:
        return operand
    return rb.emit(GateType.NOT, (net,), name=name)


def _fold_and_or(rb: Rebuilder, gtype: GateType, fanins: list[int],
                 dedup: bool) -> tuple[list[int], Optional[int], bool]:
    """Fold an AND/OR-family operand list.

    Returns ``(operands, forced, invert)``: either ``forced`` is a net id
    that already implements the whole gate, or ``operands`` is the reduced
    operand list and ``invert`` says whether the result must be inverted
    (NAND/NOR).  With ``dedup`` duplicate operands collapse and a
    complementary pair forces the dominating constant.
    """
    invert = _AND_FAMILY.get(gtype)
    if invert is None:
        invert = _OR_FAMILY[gtype]
        identity, dominating = 0, 1
    else:
        identity, dominating = 1, 0
    operands: list[int] = []
    seen: set[int] = set()
    for net in fanins:
        value = _cval(rb, net)
        if value == identity:
            continue
        if value == dominating:
            return [], _const(rb, dominating ^ (1 if invert else 0)), False
        if dedup:
            if net in seen:
                continue
            operand = _not_operand(rb, net)
            if operand is not None and operand in seen:
                return [], _const(rb, dominating ^ (1 if invert else 0)), False
            if any(_not_operand(rb, prev) == net for prev in operands):
                return [], _const(rb, dominating ^ (1 if invert else 0)), False
            seen.add(net)
        operands.append(net)
    if not operands:
        return [], _const(rb, identity ^ (1 if invert else 0)), False
    return operands, None, invert


def _fold_xor(rb: Rebuilder, gtype: GateType, fanins: list[int],
              dedup: bool) -> tuple[list[int], Optional[int], bool]:
    """Fold an XOR/XNOR operand list (same contract as :func:`_fold_and_or`).

    Constants fold into the inversion parity; with ``dedup`` duplicate
    operands cancel pairwise and a complementary pair contributes a fixed 1.
    """
    invert = _XOR_FAMILY[gtype]
    operands: list[int] = []
    for net in fanins:
        value = _cval(rb, net)
        if value is not None:
            invert ^= bool(value)
            continue
        if dedup and net in operands:
            operands.remove(net)
            continue
        operands.append(net)
    if dedup:
        changed = True
        while changed:
            changed = False
            for net in operands:
                operand = _not_operand(rb, net)
                if operand is not None and operand in operands:
                    operands.remove(net)
                    operands.remove(operand)
                    invert ^= True
                    changed = True
                    break
    if not operands:
        return [], _const(rb, 1 if invert else 0), False
    return operands, None, invert


def _fold_mux(rb: Rebuilder, select: int, data0: int,
              data1: int) -> Optional[int]:
    """Mux folds that never add gates; ``None`` when the mux must stay."""
    sel_value = _cval(rb, select)
    if sel_value is not None:
        return data1 if sel_value else data0
    if data0 == data1:
        return data0
    if _cval(rb, data0) == 0 and _cval(rb, data1) == 1:
        return select
    if _cval(rb, data0) == 1 and _cval(rb, data1) == 0:
        return _emit_not(rb, select)
    return None


def _finish_chain(rb: Rebuilder, gtype: GateType, operands: list[int],
                  invert: bool, name: Optional[str]) -> int:
    """Emit a reduced operand list as one gate (plus inverter if needed)."""
    if len(operands) == 1:
        base = operands[0]
    else:
        base = rb.emit(gtype, tuple(operands),
                       name=None if invert else name)
    return _emit_not(rb, base, name=name) if invert else base


# ---------------------------------------------------------------------------
# Constant propagation / structural hashing: AIG round-trips
# ---------------------------------------------------------------------------


class StrashPass(Pass):
    """Structural hashing: a round-trip through the canonical AIG.

    Lowering re-creates every live cone through
    :meth:`~repro.netlist.aig.AIG.aig_and`, whose unique table interns each
    node — so structurally identical cones merge, constants propagate, and
    duplicate/complementary operands fold, all in one pass.  Raising
    re-derives XOR/MUX gates and absorbs complement edges into gate
    variants, so the result stays in familiar gate-level vocabulary.
    """

    name = "strash"

    def run(self, netlist: Netlist) -> Netlist:
        result = to_netlist(from_netlist(netlist))
        # The AIG is canonical, not minimal: on rare mux/shift-heavy
        # structures raising costs a few gates over the source vocabulary.
        # An optimization pass must never make things worse, so keep the
        # input when the round-trip doesn't pay (ties take the canonical
        # form — it may still have merged or swept something).
        if result.num_gates > netlist.num_gates or \
                result.logic_levels() > netlist.logic_levels():
            return netlist
        return result


class ConstPropPass(StrashPass):
    """Constant propagation and folding through every live gate.

    Constant folding is built into the AIG constructor, so this is the
    same round-trip as :class:`StrashPass` — the name survives for
    pipelines and CLI ``--passes`` specs that request the classic pass
    vocabulary.
    """

    name = "constprop"


# ---------------------------------------------------------------------------
# Identity simplification
# ---------------------------------------------------------------------------


class SimplifyPass(Pass):
    """Double inverters, duplicate/complementary operands, mux rewrites."""

    name = "simplify"

    def run(self, netlist: Netlist) -> Netlist:
        def build(rb: Rebuilder, gate: Gate,
                  fanins: list[Optional[int]]) -> int:
            gtype = gate.gtype
            if gtype == GateType.BUF:
                return fanins[0]
            if gtype == GateType.NOT:
                return _emit_not(rb, fanins[0], name=gate.name)
            if gtype in _AND_FAMILY or gtype in _OR_FAMILY:
                base = GateType.AND if gtype in _AND_FAMILY else GateType.OR
                operands, forced, invert = _fold_and_or(rb, gtype, fanins,
                                                        dedup=True)
                if forced is not None:
                    return forced
                if len(operands) == len(fanins):
                    # Nothing folded — keep NAND/NOR rather than
                    # decomposing into base op + inverter.
                    return rb.emit(gtype, tuple(operands), name=gate.name)
                return _finish_chain(rb, base, operands, invert, gate.name)
            if gtype in _XOR_FAMILY:
                operands, forced, invert = _fold_xor(rb, gtype, fanins,
                                                     dedup=True)
                if forced is not None:
                    return forced
                if len(operands) == len(fanins) and \
                        invert == (gtype == GateType.XNOR):
                    return rb.emit(gtype, tuple(operands), name=gate.name)
                return _finish_chain(rb, GateType.XOR, operands, invert,
                                     gate.name)
            if gtype == GateType.MUX:
                return self._build_mux(rb, gate, fanins)
            return rb.emit(gtype, tuple(fanins), name=gate.name)

        return Rebuilder(netlist).run(build)

    @staticmethod
    def _build_mux(rb: Rebuilder, gate: Gate,
                   fanins: list[Optional[int]]) -> int:
        select, data0, data1 = fanins
        operand = _not_operand(rb, select)
        if operand is not None:
            # mux(~s, d0, d1) == mux(s, d1, d0)
            select, data0, data1 = operand, data1, data0
        folded = _fold_mux(rb, select, data0, data1)
        if folded is not None:
            return folded
        if _cval(rb, data0) == 0:
            return rb.emit(GateType.AND, (select, data1), name=gate.name)
        if _cval(rb, data1) == 1:
            return rb.emit(GateType.OR, (select, data0), name=gate.name)
        if _not_operand(rb, data1) == data0:
            # s ? ~d0 : d0  ==  s ^ d0
            return rb.emit(GateType.XOR, (select, data0), name=gate.name)
        if _not_operand(rb, data0) == data1:
            # s ? d1 : ~d1  ==  ~(s ^ d1)
            return rb.emit(GateType.XNOR, (select, data1), name=gate.name)
        return rb.emit(GateType.MUX, (select, data0, data1), name=gate.name)


# ---------------------------------------------------------------------------
# Chain balancing
# ---------------------------------------------------------------------------


class BalancePass(Pass):
    """Rebuild two-input AND/OR/XOR chains as depth-minimal trees.

    A chain gate is *absorbed* into its consumer when it has exactly one use,
    the same gate type as the consumer, and two fanins — so no logic is ever
    duplicated.  The collected operands are combined lowest-level-first
    (Huffman style), which minimizes the depth of the rebuilt tree.
    """

    name = "balance"

    def run(self, netlist: Netlist) -> Netlist:
        rb = Rebuilder(netlist)

        uses: dict[int, int] = {}
        consumer: dict[int, int] = {}
        for gid in rb.live:
            for fid in netlist.gates[gid].fanins:
                uses[fid] = uses.get(fid, 0) + 1
                consumer[fid] = gid
        for _, net in netlist.outputs:
            uses[net] = uses.get(net, 0) + 1
            consumer.pop(net, None)

        def absorbable(gid: int) -> bool:
            gate = netlist.gates[gid]
            if gate.gtype not in BALANCED_TYPES or len(gate.fanins) != 2:
                return False
            if uses.get(gid, 0) != 1 or gid not in consumer:
                return False
            parent = netlist.gates[consumer[gid]]
            return parent.gtype == gate.gtype and len(parent.fanins) == 2

        absorbed = {gid for gid in rb.live if absorbable(gid)}

        def collect(gid: int, out: list[int]) -> None:
            stack = list(reversed(netlist.gates[gid].fanins))
            while stack:
                fid = stack.pop()
                if fid in absorbed:
                    stack.extend(reversed(netlist.gates[fid].fanins))
                else:
                    out.append(rb.map[fid])

        def build(rb: Rebuilder, gate: Gate,
                  fanins: list[Optional[int]]) -> Optional[int]:
            if gate.gid in absorbed:
                return None
            if gate.gtype in BALANCED_TYPES and len(gate.fanins) == 2:
                operands: list[int] = []
                collect(gate.gid, operands)
                heap = [(rb.level(net), net) for net in operands]
                heapq.heapify(heap)
                while len(heap) > 1:
                    _, a = heapq.heappop(heap)
                    _, b = heapq.heappop(heap)
                    node = rb.emit(gate.gtype, (a, b),
                                   name=gate.name if len(heap) == 0 else None)
                    heapq.heappush(heap, (rb.level(node), node))
                return heap[0][1]
            return identity_builder(rb, gate, fanins)

        return rb.run(build)


# ---------------------------------------------------------------------------
# Dead-gate sweep
# ---------------------------------------------------------------------------


class SweepPass(Pass):
    """Drop every gate (and flip-flop) outside the primary-output cone."""

    name = "sweep"

    def run(self, netlist: Netlist) -> Netlist:
        return Rebuilder(netlist).run(identity_builder)
