"""``optimize()``: lower once, run AIG passes, raise once, balance."""

from __future__ import annotations

import heapq
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional, Sequence

from ...obs import get_tracer
from ..aig import AIG, from_netlist, to_netlist
from ..logic import Gate, GateType, Netlist
from .fraig import FraigStats, fraig_sweep
from .rewrite import RewriteStats, rewrite_aig


class OptimizationError(Exception):
    """Raised on malformed pass specifications."""


def _rewrite(aig: AIG) -> tuple[AIG, dict]:
    stats = RewriteStats()
    return rewrite_aig(aig, stats=stats), stats.to_dict()


def _fraig(aig: AIG) -> tuple[AIG, dict]:
    stats = FraigStats()
    return fraig_sweep(aig, stats=stats).aig, stats.to_dict()


def _qor(aig: AIG) -> tuple[int, int]:
    """Live AND nodes and depth: what an AIG pass row records."""
    return sum(map(aig.is_and, aig.cone(aig.and_roots()))), aig.levels()


#: The AIG-to-AIG passes ``optimize(passes=...)`` accepts, by name.  Each
#: returns the new AIG plus the counters for its row's ``details``.
_AIG_PASSES: dict[str, Callable[[AIG], tuple[AIG, dict]]] = {
    "rewrite": _rewrite,
    "fraig": _fraig,
}


#: Associative gate types whose two-input chains :func:`balance` rebuilds.
_CHAIN_TYPES = (GateType.AND, GateType.OR, GateType.XOR)


def _is_chain(gate: Gate) -> bool:
    return gate.gtype in _CHAIN_TYPES and len(gate.fanins) == 2


def balance(netlist: Netlist) -> Netlist:
    """Rebuild two-input AND/OR/XOR chains as depth-minimal trees.

    A chain gate is *absorbed* into its consumer when it has exactly one
    use, the same gate type as the consumer, and two fanins, so no logic
    is ever duplicated.  The operands of a chain are combined
    lowest-level-first (Huffman style), which minimizes the depth of the
    rebuilt tree.

    The result is a fresh netlist holding only the live cone: everything
    reachable backwards from the primary outputs, through flip-flop data
    pins.  Every primary input is kept, in order, so input vectors stay
    valid; unnamed flip-flops are named ``dff_<gid>``, because register
    names are the correspondence key of the equivalence checker.
    """
    gates = netlist.gates
    live = netlist.transitive_fanin(
        (net for _, net in netlist.outputs), through_registers=True)
    uses: dict[int, int] = {}
    consumer: dict[int, int] = {}
    for gid in live:
        for fid in gates[gid].fanins:
            uses[fid] = uses.get(fid, 0) + 1
            consumer[fid] = gid
    for _, net in netlist.outputs:
        uses[net] = uses.get(net, 0) + 1
        consumer.pop(net, None)
    absorbed = {
        gid for gid in live
        if uses.get(gid) == 1 and gid in consumer and _is_chain(gates[gid])
        and _is_chain(gates[consumer[gid]])
        and gates[consumer[gid]].gtype == gates[gid].gtype
    }

    result = Netlist(name=netlist.name)
    new: dict[int, int] = {}    # source net -> result net
    level: dict[int, int] = {}  # result gate -> logic level (sources: 0)

    def emit(gtype: GateType, fanins: tuple[int, ...],
             name: Optional[str]) -> int:
        gid = result.add_gate(gtype, fanins, name=name)
        level[gid] = 1 + max(level.get(f, 0) for f in fanins)
        return gid

    for gid in netlist.inputs:
        new[gid] = result.add_input(gates[gid].name)
    # Flip-flops come first, on a placeholder data pin: their Q net may
    # feed their own data cone.  Constant zero is created on first use.
    registers = [gid for gid in netlist.registers if gid in live]
    for gid in registers:
        new[gid] = result.add_dff(result.const0(),
                                  name=gates[gid].name or f"dff_{gid}")
    for gid in netlist.topological_order():
        if gid not in live or gid in new or gid in absorbed:
            continue
        gate = gates[gid]
        if gate.gtype == GateType.CONST0:
            new[gid] = result.const0()
        elif gate.gtype == GateType.CONST1:
            new[gid] = result.const1()
        elif not _is_chain(gate):
            new[gid] = emit(gate.gtype, tuple(new[f] for f in gate.fanins),
                            gate.name)
        else:
            heap = []
            stack = list(reversed(gate.fanins))
            while stack:
                fid = stack.pop()
                if fid in absorbed:
                    stack.extend(reversed(gates[fid].fanins))
                else:
                    heap.append((level.get(new[fid], 0), new[fid]))
            heapq.heapify(heap)
            while len(heap) > 1:
                _, a = heapq.heappop(heap)
                _, b = heapq.heappop(heap)
                node = emit(gate.gtype, (a, b), None if heap else gate.name)
                heapq.heappush(heap, (level[node], node))
            new[gid] = heap[0][1]
    for gid in registers:
        result.set_fanins(new[gid], (new[gates[gid].fanins[0]],))
    for name, net in netlist.outputs:
        result.add_output(name, new[net])
    return result


@dataclass
class PassStats:
    """Size/depth/latency record for one step of :func:`optimize`.

    AIG pass rows count AND nodes and AIG depth; the ``balance`` row
    counts netlist gates and levels.
    """

    name: str
    gates_before: int
    gates_after: int
    levels_before: int
    levels_after: int
    registers_before: int
    registers_after: int
    seconds: float
    #: Pass-specific counters (rewrite and FRAIG report their
    #: statistics here).  ``None`` rows serialize without the key.
    details: Optional[dict] = field(default=None, compare=False)

    def to_dict(self) -> dict:
        record = asdict(self)
        if record["details"] is None:
            del record["details"]
        return record

    def __str__(self) -> str:
        unit = "ands " if self.name in _AIG_PASSES else "gates"
        return (
            f"{self.name:<10} {unit} {self.gates_before:>6} -> "
            f"{self.gates_after:<6} levels {self.levels_before:>4} -> "
            f"{self.levels_after:<4} regs {self.registers_before:>4} -> "
            f"{self.registers_after:<4} ({self.seconds * 1e3:.2f} ms)"
        )


@dataclass
class OptResult:
    """The outcome of :func:`optimize`: the new netlist plus its history."""

    netlist: Netlist
    stats: list[PassStats]
    gates_before: int
    levels_before: int

    @property
    def gates_after(self) -> int:
        return self.netlist.num_gates

    @property
    def levels_after(self) -> int:
        return self.netlist.logic_levels()

    @property
    def reduction(self) -> float:
        """Fractional gate-count reduction (0.0 when already empty)."""
        if self.gates_before == 0:
            return 0.0
        return 1.0 - self.gates_after / self.gates_before

    def summary(self) -> str:
        lines = [str(row) for row in self.stats]
        lines.append(
            f"total      gates {self.gates_before:>6} -> "
            f"{self.gates_after:<6} levels {self.levels_before:>4} -> "
            f"{self.levels_after:<4} ({self.reduction:.1%} gates removed)"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "gates_before": self.gates_before,
            "gates_after": self.gates_after,
            "levels_before": self.levels_before,
            "levels_after": self.levels_after,
            "reduction": self.reduction,
            "passes": [row.to_dict() for row in self.stats],
        }


def check_passes(passes: Sequence[str]) -> None:
    """Raise :class:`OptimizationError` on the first name in ``passes``
    that :func:`optimize` does not know."""
    for name in passes:
        if name not in _AIG_PASSES:
            known = ", ".join(sorted(_AIG_PASSES))
            raise OptimizationError(
                f"unknown pass '{name}' (known passes: {known})")


def optimize(netlist: Netlist,
             passes: Sequence[str] = ("rewrite",)) -> OptResult:
    """Optimize a netlist on the AIG.

    The netlist is lowered to the AIG once (which folds constants,
    cancels double inverters, merges structurally identical cones and
    drops logic outside the output cone), each named AIG pass in
    ``passes`` runs in order (``"rewrite"``: :func:`rewrite_aig`,
    ``"fraig"``: :func:`fraig_sweep`), and the result is raised back
    once.  Raising is canonical, not minimal, so the input is kept when
    the raised netlist has more gates or more levels.  A final
    :func:`balance` shortens AND/OR/XOR chains.

    The input netlist is left untouched; the result is always a fresh
    netlist, and :attr:`OptResult.stats` records each step.
    """
    check_passes(passes)
    gates_before = netlist.num_gates
    levels_before = netlist.logic_levels()
    stats: list[PassStats] = []
    tracer = get_tracer()
    with tracer.span("optimize", design=netlist.name,
                     gates=gates_before) as span:
        aig = from_netlist(netlist)
        after = _qor(aig)
        for name in passes:
            before = after
            start = time.perf_counter()
            with tracer.span(f"opt.{name}", ands=before[0]) as pass_span:
                aig, details = _AIG_PASSES[name](aig)
                elapsed = time.perf_counter() - start
                after = _qor(aig)
                pass_span.set(ands_after=after[0])
            stats.append(PassStats(
                name, before[0], after[0], before[1], after[1],
                aig.num_latches, aig.num_latches, elapsed, details))
        raised = to_netlist(aig)
        if raised.num_gates > gates_before or \
                raised.logic_levels() > levels_before:
            raised = netlist
        start = time.perf_counter()
        with tracer.span("opt.balance", gates=raised.num_gates) as pass_span:
            optimized = balance(raised)
            elapsed = time.perf_counter() - start
            pass_span.set(gates_after=optimized.num_gates)
        stats.append(PassStats(
            "balance", raised.num_gates, optimized.num_gates,
            raised.logic_levels(), optimized.logic_levels(),
            raised.num_registers, optimized.num_registers, elapsed))
        span.set(gates_after=optimized.num_gates, passes=len(stats))
    return OptResult(netlist=optimized, stats=stats,
                     gates_before=gates_before, levels_before=levels_before)
