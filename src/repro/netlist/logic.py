"""Gate-level netlist intermediate representation.

The elaborator lowers RTL into this bit-level boolean network; the optimizer,
technology mapper, simulator and security machinery all operate on it.

A :class:`Netlist` is a DAG of :class:`Gate` nodes identified by integer ids.
Primary inputs, constants and flip-flop outputs are sources; primary outputs
and flip-flop data pins are sinks.  Combinational gates are limited to a small
set of primitive functions which keeps downstream algorithms (AIG conversion,
cut enumeration, CNF encoding) simple.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Optional


class GateType(str, Enum):
    """Primitive gate functions supported by the netlist IR."""

    INPUT = "input"
    CONST0 = "const0"
    CONST1 = "const1"
    BUF = "buf"
    NOT = "not"
    AND = "and"
    OR = "or"
    XOR = "xor"
    XNOR = "xnor"
    NAND = "nand"
    NOR = "nor"
    MUX = "mux"   # fanins: (select, data0, data1) -> select ? data1 : data0
    DFF = "dff"   # fanins: (data,) — output is the registered value


#: Gate types with no combinational fanin requirements.
SOURCE_TYPES = {GateType.INPUT, GateType.CONST0, GateType.CONST1}

#: Expected fanin counts for each gate type (None = variable, >= 1).
_FANIN_COUNT = {
    GateType.INPUT: 0,
    GateType.CONST0: 0,
    GateType.CONST1: 0,
    GateType.BUF: 1,
    GateType.NOT: 1,
    GateType.AND: None,
    GateType.OR: None,
    GateType.XOR: None,
    GateType.XNOR: None,
    GateType.NAND: None,
    GateType.NOR: None,
    GateType.MUX: 3,
    GateType.DFF: 1,
}


class NetlistError(Exception):
    """Raised on structural errors (bad fanin counts, unknown nets, cycles)."""


@dataclass
class Gate:
    """A single node of the boolean network."""

    gid: int
    gtype: GateType
    fanins: tuple[int, ...] = ()
    name: Optional[str] = None

    @property
    def is_source(self) -> bool:
        return self.gtype in SOURCE_TYPES

    @property
    def is_register(self) -> bool:
        return self.gtype == GateType.DFF


class Netlist:
    """A mutable gate-level netlist."""

    def __init__(self, name: str = "netlist"):
        self.name = name
        self.gates: dict[int, Gate] = {}
        self.inputs: list[int] = []
        self.outputs: list[tuple[str, int]] = []
        self._next_id = 0
        self._const0: Optional[int] = None
        self._const1: Optional[int] = None
        self._input_index: dict[str, int] = {}
        self._output_index: dict[str, int] = {}
        self._topo_cache: Optional[tuple[int, ...]] = None
        self._registers_cache: Optional[tuple[int, ...]] = None
        #: ``(version, value)`` caches of :attr:`num_gates` and
        #: :meth:`logic_levels`, stale once ``version`` moves on.
        self._gates_cache: Optional[tuple[int, int]] = None
        self._levels_cache: Optional[tuple[int, int]] = None
        #: Monotonic structural revision, bumped on every mutation (including
        #: :meth:`add_output`, which does not disturb the topological order
        #: but does change what a compiled simulator must produce).  Derived
        #: artifacts such as :func:`repro.netlist.sim.compile_netlist` cache
        #: against it.
        self.version = 0
        #: Cache slot for :func:`repro.netlist.sim.compile_netlist` (a
        #: :class:`~repro.netlist.sim.CompiledNetlist` tagged with the
        #: ``version`` it was built from; stale entries are recompiled).
        self._compiled_cache = None
        #: Per-pass statistics attached by :func:`repro.netlist.opt.optimize`
        #: (``None`` until the netlist has been produced by the optimizer).
        self.opt_stats: Optional[list] = None

    # -- construction -----------------------------------------------------------

    def _new_id(self) -> int:
        gid = self._next_id
        self._next_id += 1
        return gid

    def _invalidate(self) -> None:
        self._topo_cache = None
        self._registers_cache = None
        self.version += 1

    def add_input(self, name: str) -> int:
        """Create a primary input bit and return its net id."""
        if name in self._input_index:
            raise NetlistError(f"duplicate primary input name '{name}'")
        gid = self._new_id()
        self.gates[gid] = Gate(gid=gid, gtype=GateType.INPUT, name=name)
        self.inputs.append(gid)
        self._input_index[name] = gid
        self._invalidate()
        return gid

    def _check_fanins(self, gtype: GateType,
                      fanins: tuple[int, ...]) -> None:
        expected = _FANIN_COUNT[gtype]
        if expected is not None and len(fanins) != expected:
            raise NetlistError(
                f"gate type {gtype.value} expects {expected} fanins, "
                f"got {len(fanins)}"
            )
        if expected is None and len(fanins) < 1:
            raise NetlistError(
                f"gate type {gtype.value} requires at least one fanin"
            )
        for fid in fanins:
            if fid not in self.gates:
                raise NetlistError(f"fanin net {fid} does not exist")

    def add_gate(self, gtype: GateType, fanins: Iterable[int],
                 name: Optional[str] = None) -> int:
        """Create a gate of type ``gtype`` driven by ``fanins``."""
        fanins = tuple(fanins)
        self._check_fanins(gtype, fanins)
        gid = self._new_id()
        self.gates[gid] = Gate(gid=gid, gtype=gtype, fanins=fanins, name=name)
        self._invalidate()
        return gid

    def set_fanins(self, gid: int, fanins: Iterable[int]) -> None:
        """Rewire the fanins of an existing gate (used to patch forward refs).

        The elaborator creates flip-flops before their data cone exists so the
        Q net can participate in the logic that computes its own next state;
        this patches the data pin in afterwards.
        """
        gate = self.gates.get(gid)
        if gate is None:
            raise NetlistError(f"gate {gid} does not exist")
        fanins = tuple(fanins)
        self._check_fanins(gate.gtype, fanins)
        gate.fanins = fanins
        self._invalidate()

    def const0(self) -> int:
        """Return the (unique) constant-zero net."""
        if self._const0 is None:
            gid = self._new_id()
            self.gates[gid] = Gate(gid=gid, gtype=GateType.CONST0, name="1'b0")
            self._const0 = gid
            self._invalidate()
        return self._const0

    def const1(self) -> int:
        """Return the (unique) constant-one net."""
        if self._const1 is None:
            gid = self._new_id()
            self.gates[gid] = Gate(gid=gid, gtype=GateType.CONST1, name="1'b1")
            self._const1 = gid
            self._invalidate()
        return self._const1

    def add_output(self, name: str, net: int) -> None:
        """Mark ``net`` as the primary output called ``name``."""
        if net not in self.gates:
            raise NetlistError(f"output net {net} does not exist")
        if name in self._output_index:
            raise NetlistError(f"duplicate primary output name '{name}'")
        self.outputs.append((name, net))
        self._output_index[name] = net
        self.version += 1

    def add_dff(self, data: int, name: Optional[str] = None) -> int:
        """Create a D flip-flop whose data pin is ``data``; returns Q net."""
        return self.add_gate(GateType.DFF, (data,), name=name)

    # -- convenience boolean constructors ----------------------------------------

    def make_not(self, a: int) -> int:
        return self.add_gate(GateType.NOT, (a,))

    def make_and(self, *nets: int) -> int:
        return self.add_gate(GateType.AND, nets)

    def make_or(self, *nets: int) -> int:
        return self.add_gate(GateType.OR, nets)

    def make_xor(self, a: int, b: int) -> int:
        return self.add_gate(GateType.XOR, (a, b))

    def make_mux(self, select: int, data0: int, data1: int) -> int:
        return self.add_gate(GateType.MUX, (select, data0, data1))

    # -- queries ------------------------------------------------------------------

    def gate(self, gid: int) -> Gate:
        return self.gates[gid]

    @property
    def num_gates(self) -> int:
        """Number of combinational gates (excludes sources and registers).

        Cached against the structural ``version`` counter.
        """
        cached = self._gates_cache
        if cached is not None and cached[0] == self.version:
            return cached[1]
        count = sum(
            1 for g in self.gates.values()
            if not g.is_source and not g.is_register
        )
        self._gates_cache = (self.version, count)
        return count

    @property
    def num_registers(self) -> int:
        return len(self.registers)

    @property
    def registers(self) -> list[int]:
        """Gate ids of all flip-flops, in id order.

        Cached (and invalidated on structural change) so per-cycle consumers
        like :func:`simulate` do not rescan every gate.
        """
        if self._registers_cache is None:
            self._registers_cache = tuple(sorted(
                g.gid for g in self.gates.values() if g.is_register))
        return list(self._registers_cache)

    def register_map(self) -> dict[str, int]:
        """Map each flip-flop's name to its gate id.

        Unnamed flip-flops get the synthetic name ``dff_<gid>``.  Names are
        the correspondence key used by the equivalence checker to match
        registers across netlists, so duplicates are rejected.
        """
        mapping: dict[str, int] = {}
        for gid in self.registers:
            name = self.gates[gid].name or f"dff_{gid}"
            if name in mapping:
                raise NetlistError(f"duplicate flip-flop name '{name}'")
            mapping[name] = gid
        return mapping

    def transitive_fanin(self, roots: Iterable[int],
                         through_registers: bool = False) -> set[int]:
        """All gate ids reachable backwards from ``roots`` (roots included).

        With ``through_registers`` the traversal continues through flip-flop
        data pins, yielding the full sequential support cone; otherwise
        flip-flops are treated as cut points (combinational cone).
        """
        seen: set[int] = set()
        stack = [gid for gid in roots]
        while stack:
            gid = stack.pop()
            if gid in seen:
                continue
            if gid not in self.gates:
                raise NetlistError(f"net {gid} does not exist")
            seen.add(gid)
            gate = self.gates[gid]
            if gate.is_register and not through_registers:
                continue
            stack.extend(gate.fanins)
        return seen

    @property
    def num_inputs(self) -> int:
        return len(self.inputs)

    @property
    def num_outputs(self) -> int:
        return len(self.outputs)

    def output_net(self, name: str) -> int:
        try:
            return self._output_index[name]
        except KeyError:
            raise KeyError(f"output '{name}' not found") from None

    def input_net(self, name: str) -> int:
        try:
            return self._input_index[name]
        except KeyError:
            raise KeyError(f"input '{name}' not found") from None

    def input_names(self) -> list[str]:
        return [self.gates[gid].name or f"pi_{gid}" for gid in self.inputs]

    def output_names(self) -> list[str]:
        return [name for name, _ in self.outputs]

    def fanout_map(self) -> dict[int, list[int]]:
        """Map each net id to the list of gate ids that consume it."""
        fanout: dict[int, list[int]] = {gid: [] for gid in self.gates}
        for gate in self.gates.values():
            for fid in gate.fanins:
                fanout[fid].append(gate.gid)
        return fanout

    def topological_order(self) -> list[int]:
        """Return gate ids in topological order.

        Flip-flop outputs are treated as sources (their data-pin dependency is
        sequential, not combinational), so any purely combinational cycle
        raises :class:`NetlistError`.

        The order is cached and invalidated on any structural change, so
        repeated calls (e.g. multi-cycle :func:`simulate` runs) pay the DFS
        only once.
        """
        if self._topo_cache is not None:
            return list(self._topo_cache)
        order: list[int] = []
        state: dict[int, int] = {}  # 0 = unvisited, 1 = visiting, 2 = done

        for start in self.gates:
            if state.get(start, 0) == 2:
                continue
            stack = [(start, iter(self._comb_fanins(start)))]
            state[start] = 1
            while stack:
                gid, fanin_iter = stack[-1]
                advanced = False
                for fid in fanin_iter:
                    status = state.get(fid, 0)
                    if status == 1:
                        raise NetlistError(
                            f"combinational cycle detected through net {fid}"
                        )
                    if status == 0:
                        state[fid] = 1
                        stack.append((fid, iter(self._comb_fanins(fid))))
                        advanced = True
                        break
                if not advanced:
                    state[gid] = 2
                    order.append(gid)
                    stack.pop()
        self._topo_cache = tuple(order)
        return order

    def _comb_fanins(self, gid: int) -> tuple[int, ...]:
        gate = self.gates[gid]
        if gate.is_source or gate.is_register:
            return ()
        return gate.fanins

    def logic_levels(self) -> int:
        """Longest combinational path length in gate levels.

        Cached against the structural ``version`` counter, like
        :meth:`content_hash`.
        """
        cached = self._levels_cache
        if cached is not None and cached[0] == self.version:
            return cached[1]
        level: dict[int, int] = {}
        for gid in self.topological_order():
            gate = self.gates[gid]
            if gate.is_source or gate.is_register:
                level[gid] = 0
            else:
                level[gid] = 1 + max((level[f] for f in gate.fanins), default=0)
        depth = max(level.values(), default=0)
        self._levels_cache = (self.version, depth)
        return depth

    def stats(self) -> dict[str, int]:
        """Basic size statistics of the netlist."""
        return {
            "inputs": self.num_inputs,
            "outputs": self.num_outputs,
            "gates": self.num_gates,
            "registers": self.num_registers,
            "levels": self.logic_levels(),
        }

    # -- serialization ------------------------------------------------------------

    def _codec_state(self) -> tuple:
        """The compact tuple codec behind pickling and content hashing.

        Carries only the structural identity of the netlist — gates (in id
        order), primary inputs/outputs, the id counter and the interned
        constant nets.  Derived artifacts (topological order, register
        cache, the compiled-simulator closure, optimizer statistics) are
        deliberately dropped: they are cheap to rebuild and some (the
        compiled ``exec`` closure) cannot cross a process boundary at all.
        """
        gates = tuple(
            (gate.gid, gate.gtype.value, gate.fanins, gate.name)
            for gate in (self.gates[gid] for gid in sorted(self.gates))
        )
        return (self.name, gates, tuple(self.inputs), tuple(self.outputs),
                self._next_id, self._const0, self._const1)

    def __reduce__(self):
        return _netlist_from_state, (self._codec_state(),)

    def to_bytes(self) -> bytes:
        """Canonical byte serialization of the structural identity.

        Deterministic for a given structure (gate ids are assigned in
        elaboration order, which is itself deterministic), so two
        elaborations of the same source produce identical bytes.  This is
        the on-disk design-library format and the preimage of
        :meth:`content_hash`.
        """
        return repr(self._codec_state()).encode("utf-8")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Netlist":
        """Inverse of :meth:`to_bytes`.

        The payload is a ``repr``-encoded codec tuple of ints, strings and
        ``None`` — parsed with :func:`ast.literal_eval`, never executed.
        """
        import ast
        return _netlist_from_state(ast.literal_eval(data.decode("utf-8")))

    def content_hash(self) -> str:
        """Stable structural content hash (hex SHA-256 of :meth:`to_bytes`).

        Equal for re-elaborations of the same design, different after any
        mutation that changes observable structure — the key the
        verification server's result cache shards on.  Cached against the
        structural ``version`` counter so repeat lookups are free.
        """
        cached = getattr(self, "_hash_cache", None)
        if cached is not None and cached[0] == self.version:
            return cached[1]
        digest = hashlib.sha256(self.to_bytes()).hexdigest()
        self._hash_cache = (self.version, digest)
        return digest

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Netlist({self.name!r}, inputs={self.num_inputs}, "
                f"outputs={self.num_outputs}, gates={self.num_gates}, "
                f"registers={self.num_registers})")


def _netlist_from_state(state: tuple) -> Netlist:
    """Rebuild a :class:`Netlist` from its :meth:`Netlist._codec_state`.

    Module-level so pickles stay small and version-tolerant (the codec
    tuple is data, not a class dict snapshot); indexes and caches are
    reconstructed rather than shipped.
    """
    name, gates, inputs, outputs, next_id, const0, const1 = state
    netlist = Netlist(name=name)
    for gid, gtype, fanins, gname in gates:
        netlist.gates[gid] = Gate(gid=gid, gtype=GateType(gtype),
                                  fanins=tuple(fanins), name=gname)
    netlist.inputs = list(inputs)
    netlist.outputs = [(oname, net) for oname, net in outputs]
    netlist._next_id = next_id
    netlist._const0 = const0
    netlist._const1 = const1
    netlist._input_index = {
        netlist.gates[gid].name or f"pi_{gid}": gid for gid in netlist.inputs
    }
    netlist._output_index = {oname: net for oname, net in netlist.outputs}
    return netlist


def simulate(netlist: Netlist, input_values: dict[str, int],
             state: Optional[dict[int, int]] = None,
             order: Optional[list[int]] = None) -> tuple[dict[str, int], dict[int, int]]:
    """Evaluate one combinational cycle of a netlist.

    ``input_values`` maps primary-input names to 0/1.  ``state`` maps register
    gate ids to their current Q value (defaults to all zero).  ``order`` may
    supply a precomputed topological order (from
    :meth:`Netlist.topological_order`) so multi-cycle drivers skip even the
    cache lookup.  Returns the output values and the next register state.
    """
    values: dict[int, int] = {}
    # ``state`` is only read, never written, so no defensive copy is needed.
    state = state if state is not None else {}

    for gid in netlist.inputs:
        name = netlist.gates[gid].name or f"pi_{gid}"
        if name not in input_values:
            raise NetlistError(f"missing value for input '{name}'")
        values[gid] = int(bool(input_values[name]))

    if order is None:
        order = netlist.topological_order()
    for gid in order:
        gate = netlist.gates[gid]
        if gate.gtype == GateType.INPUT:
            continue
        if gate.gtype == GateType.CONST0:
            values[gid] = 0
        elif gate.gtype == GateType.CONST1:
            values[gid] = 1
        elif gate.gtype == GateType.DFF:
            values[gid] = state.get(gid, 0)
        else:
            operands = [values[f] for f in gate.fanins]
            values[gid] = _eval_gate(gate.gtype, operands)

    gates = netlist.gates
    next_state = {
        gid: values[gates[gid].fanins[0]] for gid in netlist.registers
    }

    outputs = {name: values[net] for name, net in netlist.outputs}
    return outputs, next_state


def _eval_gate(gtype: GateType, operands: list[int]) -> int:
    if gtype == GateType.BUF:
        return operands[0]
    if gtype == GateType.NOT:
        return 1 - operands[0]
    if gtype == GateType.AND:
        return int(all(operands))
    if gtype == GateType.NAND:
        return int(not all(operands))
    if gtype == GateType.OR:
        return int(any(operands))
    if gtype == GateType.NOR:
        return int(not any(operands))
    if gtype == GateType.XOR:
        result = 0
        for value in operands:
            result ^= value
        return result
    if gtype == GateType.XNOR:
        result = 0
        for value in operands:
            result ^= value
        return 1 - result
    if gtype == GateType.MUX:
        select, data0, data1 = operands
        return data1 if select else data0
    raise NetlistError(f"cannot evaluate gate type {gtype.value}")
