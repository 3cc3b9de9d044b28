"""Cone-directed netlist reconstruction, and chain balancing built on it.

:func:`balance` never mutates a :class:`~repro.netlist.logic.Netlist` in
place.  Instead it drives a :class:`Rebuilder`, which walks the *live*
cone of the source netlist (everything reachable backwards from the primary
outputs, iterating through flip-flop data pins) in topological order and
asks a builder callback to re-emit each combinational gate into a fresh
netlist.  The callback returns the new net id for the gate — a freshly
created gate, or ``None`` when the gate was absorbed into its consumer.

The rebuilder guarantees the external interface survives:

* primary inputs are recreated first, in order, with their names (even when
  dead, so input vectors remain valid across optimization);
* live flip-flops are created up front against placeholder data pins (their
  Q net may feed its own data cone) and patched once the cone exists, with
  names preserved — names are the register-correspondence key used by the
  equivalence checker;
* primary outputs are re-registered by name onto the mapped nets.

Dead gates are swept by construction: anything outside the live cone is
simply never visited.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from ..logic import Gate, GateType, Netlist

#: Associative two-input chain types :func:`balance` restructures.
BALANCED_TYPES = {GateType.AND, GateType.OR, GateType.XOR}

#: A builder receives the rebuilder, the original gate and the new-netlist
#: net ids of its fanins; it returns the new net id implementing the gate,
#: or ``None`` when the gate has been absorbed into a consumer (only legal
#: when no output, flip-flop or unabsorbed gate reads it).
GateBuilder = Callable[["Rebuilder", Gate, list[Optional[int]]], Optional[int]]


def live_set(netlist: Netlist) -> set[int]:
    """Gate ids reachable backwards from any primary output.

    Flip-flops are traversed through their data pins, so the result is the
    full sequential support cone — everything outside it cannot influence an
    output on any cycle and is dead.
    """
    return netlist.transitive_fanin(
        (net for _, net in netlist.outputs), through_registers=True
    )


class Rebuilder:
    """Rebuilds the live cone of a netlist through a gate builder callback."""

    def __init__(self, source: Netlist):
        self.source = source
        self.result = Netlist(name=source.name)
        #: old net id -> new net id (``None`` for absorbed gates).
        self.map: dict[int, Optional[int]] = {}
        #: logic level of every net in the result netlist (sources at 0).
        self.levels: dict[int, int] = {}
        self.live = live_set(source)

    # -- emission helpers (used by builders) --------------------------------

    def const0(self) -> int:
        gid = self.result.const0()
        self.levels.setdefault(gid, 0)
        return gid

    def const1(self) -> int:
        gid = self.result.const1()
        self.levels.setdefault(gid, 0)
        return gid

    def emit(self, gtype: GateType, fanins: tuple[int, ...],
             name: Optional[str] = None) -> int:
        """Create a gate in the result netlist, tracking its logic level."""
        gid = self.result.add_gate(gtype, fanins, name=name)
        self.levels[gid] = 1 + max(
            (self.levels.get(f, 0) for f in fanins), default=0
        )
        return gid

    def level(self, net: int) -> int:
        """Logic level of a net in the result netlist."""
        return self.levels.get(net, 0)

    # -- the rebuild loop ---------------------------------------------------

    def run(self, build: GateBuilder) -> Netlist:
        source, result = self.source, self.result

        for gid in source.inputs:
            name = source.gates[gid].name or f"pi_{gid}"
            new = result.add_input(name)
            self.map[gid] = new
            self.levels[new] = 0

        live_dffs = [gid for gid in source.registers if gid in self.live]
        for gid in live_dffs:
            # Materialize a stable name for unnamed flip-flops: gids renumber
            # across rebuilds, and the name is the register-correspondence
            # key the equivalence checker matches on.
            name = source.gates[gid].name or f"dff_{gid}"
            new = result.add_dff(self.const0(), name=name)
            self.map[gid] = new
            self.levels[new] = 0

        for gid in source.topological_order():
            if gid not in self.live or gid in self.map:
                continue
            gate = source.gates[gid]
            if gate.gtype == GateType.CONST0:
                self.map[gid] = self.const0()
                continue
            if gate.gtype == GateType.CONST1:
                self.map[gid] = self.const1()
                continue
            fanins = [self.map[f] for f in gate.fanins]
            self.map[gid] = build(self, gate, fanins)

        for gid in live_dffs:
            data = self.map[self.source.gates[gid].fanins[0]]
            if data is None:
                raise AssertionError(
                    "flip-flop data cone was absorbed without replacement"
                )
            result.set_fanins(self.map[gid], (data,))

        for name, net in source.outputs:
            new = self.map[net]
            if new is None:
                raise AssertionError(
                    f"output '{name}' maps to an absorbed gate"
                )
            result.add_output(name, new)

        return result


def balance(netlist: Netlist) -> Netlist:
    """Rebuild two-input AND/OR/XOR chains as depth-minimal trees.

    A chain gate is *absorbed* into its consumer when it has exactly one use,
    the same gate type as the consumer, and two fanins — so no logic is ever
    duplicated.  The collected operands are combined lowest-level-first
    (Huffman style), which minimizes the depth of the rebuilt tree.  Like
    every rebuild, the result is a fresh netlist without dead logic.
    """
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
        return rb.emit(gate.gtype, tuple(fanins), name=gate.name)

    return rb.run(build)
