"""Gate-level netlist intermediate representation.

The elaborator lowers RTL into this bit-level boolean network; the optimizer,
technology mapper, simulator and security machinery all operate on it.

A :class:`Netlist` is a DAG of nets identified by dense integer ids
``0 .. num_nets - 1``, in creation order.  Primary inputs, constants and
flip-flop outputs are sources; primary outputs and flip-flop data pins are
sinks.  Combinational gates are limited to a small set of primitive
functions which keeps downstream algorithms (AIG conversion, cut
enumeration, CNF encoding) simple.

Storage is three parallel per-net lists indexed by gate id, the layout the
:class:`~repro.netlist.aig.AIG` already uses: ``_type`` (the
:class:`GateType`), ``_fanins`` (a tuple of net ids) and ``_name`` (``None``
when unnamed).  There is no object per net.  The modules of this package
that walk every net (bit-blasting, AIG lowering, the reference simulator,
emission, balancing, equivalence checking) read those lists directly;
everyone else reads one net at a time through :meth:`Netlist.gate_type`,
:meth:`Netlist.fanins` and :meth:`Netlist.gate_name`, which reject an
unknown id.  :meth:`Netlist.add_gate` is the one builder of a gate (inputs,
constants and flip-flops have their own wrappers around it), and it checks
every id it is given to be an ``int`` (not a ``bool``) with
``0 <= id < num_nets``, because a list would quietly accept a negative
index.

Everything derived from the structure (topological order, registers, gate
count, levels, content hash, the compiled simulator) lives in one store,
filled on demand by :meth:`Netlist.cached` and cleared by each of the three
mutators, :meth:`Netlist.add_gate`, :meth:`Netlist.set_fanins` and
:meth:`Netlist.add_output`.
"""

from __future__ import annotations

import hashlib
from enum import Enum
from typing import Any, Callable, Iterable, Optional, TypeVar


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


# Every member under a module name, for the modules that walk every net:
# before Python 3.12 reading a member off the enum class goes through its
# metaclass, which costs such a loop about as much as its work.
INPUT, CONST0, CONST1 = GateType.INPUT, GateType.CONST0, GateType.CONST1
BUF, NOT, MUX, DFF = GateType.BUF, GateType.NOT, GateType.MUX, GateType.DFF
AND, OR, XOR = GateType.AND, GateType.OR, GateType.XOR
NAND, NOR, XNOR = GateType.NAND, GateType.NOR, GateType.XNOR

#: Net types that are not combinational gates: sources and flip-flops.
NON_COMB_TYPES = frozenset((INPUT, CONST0, CONST1, DFF))

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

T = TypeVar("T")

#: Each type's serialized value (``GateType.value`` is a property lookup).
_TYPE_VALUE = {gtype: gtype.value for gtype in GateType}


class NetlistError(Exception):
    """Raised on structural errors (bad fanin counts, unknown nets, cycles)."""


class Netlist:
    """A mutable gate-level netlist."""

    def __init__(self, name: str = "netlist"):
        self.name = name
        # Parallel per-net lists, indexed by gate id.
        self._type: list[GateType] = []
        self._fanins: list[tuple[int, ...]] = []
        self._name: list[Optional[str]] = []
        self.inputs: list[int] = []
        self.outputs: list[tuple[str, int]] = []
        self._const0: Optional[int] = None
        self._const1: Optional[int] = None
        self._input_index: dict[str, int] = {}
        self._output_index: dict[str, int] = {}
        #: Everything derived from the structure, keyed by the function
        #: that builds it (see :meth:`cached`).
        self._derived: dict[Callable[[Netlist], Any], Any] = {}

    # -- construction -----------------------------------------------------------

    def _is_net(self, gid: object) -> bool:
        return type(gid) is int and 0 <= gid < len(self._type)

    def add_input(self, name: str) -> int:
        """Create a primary input bit and return its net id."""
        if name in self._input_index:
            raise NetlistError(f"duplicate primary input name '{name}'")
        gid = self.add_gate(INPUT, (), name)
        self.inputs.append(gid)
        self._input_index[name] = gid
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
        count = len(self._type)
        for fid in fanins:
            if not (type(fid) is int and 0 <= fid < count):
                raise NetlistError(f"fanin net {fid!r} does not exist")

    def add_gate(self, gtype: GateType, fanins: Iterable[int],
                 name: Optional[str] = None) -> int:
        """Create a gate of type ``gtype`` driven by ``fanins``."""
        fanins = tuple(fanins)
        self._check_fanins(gtype, fanins)
        types = self._type
        gid = len(types)
        types.append(gtype)
        self._fanins.append(fanins)
        self._name.append(name)
        self._derived.clear()
        return gid

    def set_fanins(self, gid: int, fanins: Iterable[int]) -> None:
        """Rewire the fanins of an existing gate (used to patch forward refs).

        The elaborator creates flip-flops before their data cone exists so the
        Q net can participate in the logic that computes its own next state;
        this patches the data pin in afterwards.
        """
        if not self._is_net(gid):
            raise NetlistError(f"gate {gid!r} does not exist")
        fanins = tuple(fanins)
        gtype = self._type[gid]
        self._check_fanins(gtype, fanins)
        self._fanins[gid] = fanins
        self._derived.clear()

    def const0(self) -> int:
        """Return the (unique) constant-zero net."""
        if self._const0 is None:
            self._const0 = self.add_gate(CONST0, (), "1'b0")
        return self._const0

    def const1(self) -> int:
        """Return the (unique) constant-one net."""
        if self._const1 is None:
            self._const1 = self.add_gate(CONST1, (), "1'b1")
        return self._const1

    def add_output(self, name: str, net: int) -> None:
        """Mark ``net`` as the primary output called ``name``."""
        if not self._is_net(net):
            raise NetlistError(f"output net {net!r} does not exist")
        if name in self._output_index:
            raise NetlistError(f"duplicate primary output name '{name}'")
        self.outputs.append((name, net))
        self._output_index[name] = net
        self._derived.clear()

    def add_dff(self, data: int, name: Optional[str] = None) -> int:
        """Create a D flip-flop whose data pin is ``data``; returns Q net."""
        return self.add_gate(DFF, (data,), name=name)

    # -- queries ------------------------------------------------------------------

    def _net(self, gid: int) -> int:
        if not self._is_net(gid):
            raise NetlistError(f"net {gid!r} does not exist")
        return gid

    def gate_type(self, gid: int) -> GateType:
        """The :class:`GateType` of net ``gid``."""
        return self._type[self._net(gid)]

    def fanins(self, gid: int) -> tuple[int, ...]:
        """The fanin net ids of net ``gid`` (``()`` for a source)."""
        return self._fanins[self._net(gid)]

    def gate_name(self, gid: int) -> Optional[str]:
        """The name of net ``gid``, or ``None``."""
        return self._name[self._net(gid)]

    @property
    def num_nets(self) -> int:
        """Number of nets of every type (gate ids run ``0 .. num_nets-1``)."""
        return len(self._type)

    def cached(self, build: Callable[[Netlist], T]) -> T:
        """``build(self)``, computed once per structure.

        The one store of derived data: the topological order, registers,
        gate count, levels and content hash below, and the compiled
        simulator of :func:`repro.netlist.sim.compile_netlist`.
        :meth:`add_gate`, :meth:`set_fanins` and :meth:`add_output` each
        clear it, so a value is never served for an older structure.
        """
        store = self._derived
        if build in store:
            return store[build]
        value = store[build] = build(self)
        return value

    @property
    def num_gates(self) -> int:
        """Number of combinational gates (excludes sources and registers)."""
        return self.cached(_count_gates)

    @property
    def num_registers(self) -> int:
        return len(self.registers)

    @property
    def registers(self) -> list[int]:
        """Gate ids of all flip-flops, in id order.

        Cached so per-cycle consumers like :func:`simulate` do not rescan
        every gate.
        """
        return list(self.cached(_registers))

    def register_map(self) -> dict[str, int]:
        """Map each flip-flop's name to its gate id.

        Unnamed flip-flops get the synthetic name ``dff_<gid>``.  Names are
        the correspondence key used by the equivalence checker to match
        registers across netlists, so duplicates are rejected.
        """
        mapping: dict[str, int] = {}
        names = self._name
        for gid in self.registers:
            name = names[gid] or f"dff_{gid}"
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
        types, fanins = self._type, self._fanins
        seen: set[int] = set()
        stack = list(roots)
        # Fanins were checked when they were set, so only roots can be
        # unknown.
        for gid in stack:
            self._net(gid)
        while stack:
            gid = stack.pop()
            if gid in seen:
                continue
            seen.add(gid)
            if types[gid] is DFF and not through_registers:
                continue
            stack.extend(fanins[gid])
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
        names = self._name
        return [names[gid] or f"pi_{gid}" for gid in self.inputs]

    def output_names(self) -> list[str]:
        return [name for name, _ in self.outputs]

    def topological_order(self) -> list[int]:
        """Return gate ids in topological order.

        Flip-flop outputs are treated as sources (their data-pin dependency is
        sequential, not combinational), so any purely combinational cycle
        raises :class:`NetlistError`.

        The order is cached, so repeated calls (e.g. multi-cycle
        :func:`simulate` runs) pay the DFS only once.
        """
        return list(self.cached(_topological_order))

    def logic_levels(self) -> int:
        """Longest combinational path length in gate levels (cached)."""
        return self.cached(_logic_levels)

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
        """The compact tuple behind :meth:`to_bytes` and content hashing.

        Carries only the structural identity of the netlist — one
        ``(gid, type value, fanins, name)`` row per net (in id order),
        primary inputs/outputs, the net count and the interned constant
        nets.  Derived data (the :meth:`cached` store: topological order,
        registers, the compiled simulator, ...) is left out: it does not
        change what the netlist computes.
        """
        count = len(self._type)
        gates = tuple(zip(range(count),
                          map(_TYPE_VALUE.__getitem__, self._type),
                          self._fanins, self._name))
        return (self.name, gates, tuple(self.inputs), tuple(self.outputs),
                count, self._const0, self._const1)

    def to_bytes(self) -> bytes:
        """Canonical byte serialization of the structural identity.

        Deterministic for a given structure (gate ids are assigned in
        elaboration order, which is itself deterministic), so two
        elaborations of the same source produce identical bytes.  This is
        the preimage of :meth:`content_hash`.
        """
        return repr(self._codec_state()).encode("utf-8")

    def content_hash(self) -> str:
        """Stable structural content hash (hex SHA-256 of :meth:`to_bytes`).

        Equal for re-elaborations of the same design, different after any
        mutation that changes observable structure — the key the
        verification server's result cache shards on.  Cached, so repeat
        lookups are free.
        """
        return self.cached(_content_hash)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Netlist({self.name!r}, inputs={self.num_inputs}, "
                f"outputs={self.num_outputs}, gates={self.num_gates}, "
                f"registers={self.num_registers})")


# -- derived data, built by Netlist.cached ---------------------------------------


def _count_gates(netlist: Netlist) -> int:
    types = netlist._type
    return len(types) - sum(types.count(t) for t in NON_COMB_TYPES)


def _registers(netlist: Netlist) -> tuple[int, ...]:
    return tuple(gid for gid, gtype in enumerate(netlist._type)
                 if gtype is DFF)


def _topological_order(netlist: Netlist) -> tuple[int, ...]:
    types, fanins = netlist._type, netlist._fanins
    # A flip-flop's data pin is sequential: cut it here.
    comb = [() if gtype is DFF else fs
            for gtype, fs in zip(types, fanins)]
    order: list[int] = []
    state = bytearray(len(types))  # 0 = unvisited, 1 = visiting, 2 = done

    for start in range(len(types)):
        if state[start] == 2:
            continue
        stack = [(start, iter(comb[start]))]
        state[start] = 1
        while stack:
            gid, fanin_iter = stack[-1]
            advanced = False
            for fid in fanin_iter:
                status = state[fid]
                if status == 1:
                    raise NetlistError(
                        f"combinational cycle detected through net {fid}"
                    )
                if status == 0:
                    state[fid] = 1
                    stack.append((fid, iter(comb[fid])))
                    advanced = True
                    break
            if not advanced:
                state[gid] = 2
                order.append(gid)
                stack.pop()
    return tuple(order)


def _logic_levels(netlist: Netlist) -> int:
    types, fanins = netlist._type, netlist._fanins
    level = [0] * len(types)
    for gid in netlist.cached(_topological_order):
        if types[gid] not in NON_COMB_TYPES:
            level[gid] = 1 + max(
                (level[f] for f in fanins[gid]), default=0)
    return max(level, default=0)


def _content_hash(netlist: Netlist) -> str:
    return hashlib.sha256(netlist.to_bytes()).hexdigest()


def simulate(netlist: Netlist, input_values: dict[str, int],
             state: Optional[dict[int, int]] = None
             ) -> tuple[dict[str, int], dict[int, int]]:
    """Evaluate one combinational cycle of a netlist.

    ``input_values`` maps primary-input names to 0/1.  ``state`` maps register
    gate ids to their current Q value (defaults to all zero).  Returns the
    output values and the next register state.
    """
    values: dict[int, int] = {}
    # ``state`` is only read, never written, so no defensive copy is needed.
    state = state if state is not None else {}
    types, fanins = netlist._type, netlist._fanins

    for gid, name in zip(netlist.inputs, netlist.input_names()):
        if name not in input_values:
            raise NetlistError(f"missing value for input '{name}'")
        values[gid] = int(bool(input_values[name]))

    for gid in netlist.topological_order():
        gtype = types[gid]
        if gtype is INPUT:
            continue
        if gtype is CONST0:
            values[gid] = 0
        elif gtype is CONST1:
            values[gid] = 1
        elif gtype is DFF:
            values[gid] = state.get(gid, 0)
        else:
            operands = [values[f] for f in fanins[gid]]
            values[gid] = _eval_gate(gtype, operands)

    next_state = {
        gid: values[fanins[gid][0]] for gid in netlist.registers
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
