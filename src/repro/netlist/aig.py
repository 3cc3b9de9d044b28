"""Canonical and-inverter graph (AIG): the hash-consed core IR.

Every consumer of the gate-level netlist — the optimization passes, the
SAT-based equivalence checker and the compiled simulator — wants the same
canonical view: two-input ANDs, inversion as a free edge attribute, and
structurally identical cones merged.  This module provides that view once,
at construction time.

A node is an integer id; an *edge* (the unit every API works in) is a
**literal** ``2 * node + complement``.  Node 0 is the constant-false
source, so literal ``0`` is constant 0 and literal ``1`` is constant 1.
Primary inputs and latches (flip-flop Q pins) are leaf nodes; every other
node is a two-input AND of two literals.

:meth:`AIG.aig_and` is the only structural constructor and it canonicalizes
on every call: constant and identity operands fold (``x & 0 = 0``,
``x & 1 = x``), idempotence and complementation fold (``x & x = x``,
``x & ~x = 0``), operands are order-normalized, and the result is interned
in a unique table — so structural hashing is implicit and a cone built
twice *is* the same literal, with no separate strash pass.

Every pass that rebuilds a graph (rewriting, FRAIG sweeping, LUT
re-materialization) brackets its node loop with one pair of methods:
:meth:`AIG.start_rebuild` recreates the leaves and seeds the node-id ->
literal map, and :meth:`AIG.finish_rebuild` carries the outputs and
next-state functions across it.

:func:`from_netlist` lowers a :class:`~repro.netlist.logic.Netlist` into an
AIG and :func:`to_netlist` raises it back, re-deriving XOR/XNOR and MUX
gates from their AND patterns so round-trips do not bloat gate counts.
Primary input, primary output and register names survive both directions —
names are the correspondence key the equivalence checker matches on.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional, Sequence

from .logic import GateType, Netlist, NetlistError

#: Literal constants: node 0 is the constant-false source.
FALSE = 0
TRUE = 1

#: Node kinds (stored per node id).
_CONST = 0
_PI = 1
_LATCH = 2
_AND = 3


class AIGError(Exception):
    """Raised on structural errors (bad literals, duplicate names)."""


def aig_not(lit: int) -> int:
    """Complement an edge (free: flips the literal's low bit)."""
    return lit ^ 1


def lit_node(lit: int) -> int:
    """Node id of a literal."""
    return lit >> 1


def lit_compl(lit: int) -> int:
    """1 when the literal is complemented."""
    return lit & 1


class AIG:
    """A mutable and-inverter graph with a hash-consing unique table."""

    def __init__(self, name: str = "aig"):
        self.name = name
        # Parallel per-node arrays; node 0 is the constant-false source.
        self._kind: list[int] = [_CONST]
        self._fanin0: list[int] = [0]
        self._fanin1: list[int] = [0]
        self._name: list[Optional[str]] = [None]
        #: Primary-input node ids, in creation order.
        self.inputs: list[int] = []
        #: Latch (flip-flop) node ids, in creation order.
        self.latches: list[int] = []
        #: ``(name, literal)`` primary outputs, in registration order.
        self.outputs: list[tuple[str, int]] = []
        #: Latch node id -> next-state literal (unset until provided).
        self._next: dict[int, int] = {}
        #: Unique table: ``(lit0, lit1)`` with ``lit0 < lit1`` -> AND literal.
        self._table: dict[tuple[int, int], int] = {}
        self._input_index: dict[str, int] = {}
        self._output_index: dict[str, int] = {}
        self._latch_index: dict[str, int] = {}
        #: Monotonic structural revision (content-hash cache key).
        self.version = 0

    # -- construction -------------------------------------------------------

    def _new_node(self, kind: int, f0: int, f1: int,
                  name: Optional[str]) -> int:
        nid = len(self._kind)
        self._kind.append(kind)
        self._fanin0.append(f0)
        self._fanin1.append(f1)
        self._name.append(name)
        self.version += 1
        return nid

    def _check_lit(self, lit: int) -> None:
        if not 0 <= lit < 2 * len(self._kind):
            raise AIGError(f"literal {lit} references an unknown node")

    def add_input(self, name: str) -> int:
        """Create a primary input and return its (positive) literal."""
        if name in self._input_index:
            raise AIGError(f"duplicate primary input name '{name}'")
        nid = self._new_node(_PI, 0, 0, name)
        self.inputs.append(nid)
        self._input_index[name] = nid
        return nid << 1

    def add_latch(self, name: str) -> int:
        """Create a latch (flip-flop Q) and return its (positive) literal.

        The next-state function is supplied later via :meth:`set_next`
        (the Q literal may participate in its own data cone).
        """
        if name in self._latch_index:
            raise AIGError(f"duplicate latch name '{name}'")
        nid = self._new_node(_LATCH, 0, 0, name)
        self.latches.append(nid)
        self._latch_index[name] = nid
        return nid << 1

    def set_next(self, q_lit: int, next_lit: int) -> None:
        """Attach the next-state literal of the latch behind ``q_lit``."""
        nid = lit_node(q_lit)
        if lit_compl(q_lit) or nid >= len(self._kind) or \
                self._kind[nid] != _LATCH:
            raise AIGError(f"literal {q_lit} is not a latch output")
        self._check_lit(next_lit)
        self._next[nid] = next_lit
        self.version += 1

    def next_state(self, q_lit: int) -> int:
        """Next-state literal of the latch behind ``q_lit``."""
        nid = lit_node(q_lit)
        if nid not in self._next:
            raise AIGError(f"latch {nid} has no next-state function")
        return self._next[nid]

    def aig_and(self, a: int, b: int) -> int:
        """The canonical AND constructor: fold, normalize, hash-cons.

        All boolean structure is built through this single entry point, so
        constant/identity/idempotence folding and structural hashing apply
        to every node the graph ever contains.
        """
        self._check_lit(a)
        self._check_lit(b)
        if a == b:
            return a
        if a == b ^ 1:
            return FALSE
        if a == FALSE or b == FALSE:
            return FALSE
        if a == TRUE:
            return b
        if b == TRUE:
            return a
        if a > b:
            a, b = b, a
        key = (a, b)
        hit = self._table.get(key)
        if hit is not None:
            return hit
        lit = self._new_node(_AND, a, b, None) << 1
        self._table[key] = lit
        return lit

    # -- derived constructors (all reduce to aig_and) -----------------------

    def aig_or(self, a: int, b: int) -> int:
        return aig_not(self.aig_and(a ^ 1, b ^ 1))

    def aig_xor(self, a: int, b: int) -> int:
        """Canonical XOR: operand complements hoist to the output edge.

        ``x ^ ~y == ~(x ^ y)``, but built naively the two sides produce
        structurally different AND pairs the unique table cannot merge —
        so the structure is always built over positive operands and the
        parity returns as a complement on the result.
        """
        parity = (a & 1) ^ (b & 1)
        a &= ~1
        b &= ~1
        lit = aig_not(self.aig_and(
            aig_not(self.aig_and(a, b ^ 1)),
            aig_not(self.aig_and(a ^ 1, b)),
        ))
        return lit ^ parity

    def aig_mux(self, select: int, data0: int, data1: int) -> int:
        """``select ? data1 : data0`` (canonical select polarity).

        A complemented select swaps the data operands, so the two ways of
        writing the same mux meet in the unique table.  Data complements
        are left in place — hoisting them breaks sharing between muxes
        that pick from the same cones in different polarities.
        """
        if select & 1:
            select, data0, data1 = select ^ 1, data1, data0
        return aig_not(self.aig_and(
            aig_not(self.aig_and(select, data1)),
            aig_not(self.aig_and(select ^ 1, data0)),
        ))

    def _tree(self, op, lits: Sequence[int], unit: int) -> int:
        layer = sorted(lits)
        if not layer:
            return unit
        while len(layer) > 1:
            paired = [
                op(layer[i], layer[i + 1])
                for i in range(0, len(layer) - 1, 2)
            ]
            if len(layer) % 2:
                paired.append(layer[-1])
            layer = paired
        return layer[0]

    def aig_ands(self, lits: Iterable[int]) -> int:
        """Balanced AND tree over id-sorted operands."""
        return self._tree(self.aig_and, list(lits), TRUE)

    def aig_ors(self, lits: Iterable[int]) -> int:
        return self._tree(self.aig_or, list(lits), FALSE)

    def aig_xors(self, lits: Iterable[int]) -> int:
        return self._tree(self.aig_xor, list(lits), FALSE)

    def add_output(self, name: str, lit: int) -> None:
        """Register ``lit`` as the primary output called ``name``."""
        self._check_lit(lit)
        if name in self._output_index:
            raise AIGError(f"duplicate primary output name '{name}'")
        self.outputs.append((name, lit))
        self._output_index[name] = lit
        self.version += 1

    # -- rebuilding ---------------------------------------------------------

    def start_rebuild(self) -> tuple["AIG", dict[int, int]]:
        """Begin a rebuild: a fresh graph with this graph's inputs and
        latches, in order and by name, and the node-id -> literal map
        they seed (node 0 -> constant 0, each leaf -> its new literal).

        A pass then maps each AND node it keeps to a literal of the new
        graph and ends with :meth:`finish_rebuild`.
        """
        new = AIG(self.name)
        lit_map = {0: FALSE}
        for nid in self.inputs:
            lit_map[nid] = new.add_input(self._name[nid])
        for nid in self.latches:
            lit_map[nid] = new.add_latch(self._name[nid])
        return new, lit_map

    def finish_rebuild(self, new: "AIG", lit_map: dict[int, int]) -> None:
        """End a rebuild: attach this graph's outputs and next-state
        functions to ``new``, translating each literal through
        ``lit_map`` (the map :meth:`start_rebuild` seeded, covering every
        node the roots reach)."""
        for name, lit in self.outputs:
            new.add_output(name, lit_map[lit >> 1] ^ (lit & 1))
        for nid in self.latches:
            nxt = self._next.get(nid)
            if nxt is not None:
                new.set_next(lit_map[nid], lit_map[nxt >> 1] ^ (nxt & 1))

    # -- queries ------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._kind)

    @property
    def num_ands(self) -> int:
        return len(self._table)

    @property
    def num_inputs(self) -> int:
        return len(self.inputs)

    @property
    def num_latches(self) -> int:
        return len(self.latches)

    @property
    def num_outputs(self) -> int:
        return len(self.outputs)

    def kind(self, nid: int) -> int:
        return self._kind[nid]

    def is_and(self, nid: int) -> bool:
        return self._kind[nid] == _AND

    def fanins(self, nid: int) -> tuple[int, int]:
        """The two fanin literals of an AND node."""
        if self._kind[nid] != _AND:
            raise AIGError(f"node {nid} is not an AND node")
        return self._fanin0[nid], self._fanin1[nid]

    def node_name(self, nid: int) -> Optional[str]:
        return self._name[nid]

    def and_roots(self) -> list[int]:
        """Every literal the outside world observes: POs + latch nexts."""
        roots = [lit for _, lit in self.outputs]
        roots.extend(self._next[nid] for nid in self.latches
                     if nid in self._next)
        return roots

    def cone(self, roots: Iterable[int]) -> set[int]:
        """Node ids reachable backwards from the given literals.

        Latches and primary inputs are cut points (combinational cone).
        Node ids are created fanins-first, so iterating a cone in id order
        is a topological order.
        """
        seen: set[int] = set()
        stack = [lit_node(lit) for lit in roots]
        kinds, f0s, f1s = self._kind, self._fanin0, self._fanin1
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            if nid >= len(kinds):
                raise AIGError(f"node {nid} does not exist")
            seen.add(nid)
            if kinds[nid] == _AND:
                stack.append(f0s[nid] >> 1)
                stack.append(f1s[nid] >> 1)
        return seen

    def levels(self) -> int:
        """Longest path from a source to an observed root, in AND nodes."""
        cone = self.cone(self.and_roots())
        level = 0
        depth: dict[int, int] = {}
        kinds, f0s, f1s = self._kind, self._fanin0, self._fanin1
        for nid in sorted(cone):
            if kinds[nid] != _AND:
                depth[nid] = 0
                continue
            depth[nid] = 1 + max(depth.get(f0s[nid] >> 1, 0),
                                 depth.get(f1s[nid] >> 1, 0))
            level = max(level, depth[nid])
        return level

    def stats(self) -> dict[str, int]:
        """Basic size statistics (AND-node count, not netlist gates)."""
        return {
            "inputs": self.num_inputs,
            "outputs": self.num_outputs,
            "ands": self.num_ands,
            "latches": self.num_latches,
            "levels": self.levels(),
        }

    # -- serialization ------------------------------------------------------

    def _codec_state(self) -> tuple:
        """Compact tuple behind :meth:`to_bytes`: the parallel node arrays
        plus interface lists, nothing derived (the unique table, name
        indexes and the compiled-simulator/signature caches are left
        out).
        """
        return (self.name, tuple(self._kind), tuple(self._fanin0),
                tuple(self._fanin1), tuple(self._name),
                tuple(self.inputs), tuple(self.latches),
                tuple(self.outputs), tuple(sorted(self._next.items())))

    def to_bytes(self) -> bytes:
        """Canonical byte serialization (the :meth:`content_hash`
        preimage)."""
        return repr(self._codec_state()).encode("utf-8")

    def content_hash(self) -> str:
        """Stable structural content hash (hex SHA-256 of :meth:`to_bytes`),
        cached against the structural ``version`` counter."""
        cached = getattr(self, "_hash_cache", None)
        if cached is not None and cached[0] == self.version:
            return cached[1]
        digest = hashlib.sha256(self.to_bytes()).hexdigest()
        self._hash_cache = (self.version, digest)
        return digest

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"AIG({self.name!r}, inputs={self.num_inputs}, "
                f"outputs={self.num_outputs}, ands={self.num_ands}, "
                f"latches={self.num_latches})")


# ---------------------------------------------------------------------------
# Lowering: Netlist -> AIG
# ---------------------------------------------------------------------------


def insert_netlist(aig: AIG, netlist: Netlist,
                   input_lits: dict[int, int],
                   latch_lits: dict[int, int]) -> dict[int, int]:
    """Lower the observable cone of ``netlist`` into an existing AIG.

    ``input_lits`` / ``latch_lits`` map the netlist's primary-input and
    flip-flop gate ids to the AIG literals standing in for them — which is
    what lets the equivalence checker lower *two* netlists into one shared
    AIG so common cones hash-merge.  Returns a gate-id -> literal map
    covering every gate feeding an output or a register data pin.
    """
    gates = netlist.gates
    roots = [net for _, net in netlist.outputs]
    roots.extend(gates[gid].fanins[0] for gid in netlist.registers)
    cone = netlist.transitive_fanin(roots) if roots else set()
    lit_map: dict[int, int] = {}

    for gid in netlist.topological_order():
        if gid not in cone:
            continue
        gate = gates[gid]
        gtype = gate.gtype
        if gtype == GateType.INPUT:
            lit_map[gid] = input_lits[gid]
        elif gtype == GateType.DFF:
            lit_map[gid] = latch_lits[gid]
        elif gtype == GateType.CONST0:
            lit_map[gid] = FALSE
        elif gtype == GateType.CONST1:
            lit_map[gid] = TRUE
        elif gtype == GateType.BUF:
            lit_map[gid] = lit_map[gate.fanins[0]]
        elif gtype == GateType.NOT:
            lit_map[gid] = lit_map[gate.fanins[0]] ^ 1
        elif gtype in (GateType.AND, GateType.NAND):
            lit = aig.aig_ands(lit_map[f] for f in gate.fanins)
            lit_map[gid] = lit ^ 1 if gtype == GateType.NAND else lit
        elif gtype in (GateType.OR, GateType.NOR):
            lit = aig.aig_ors(lit_map[f] for f in gate.fanins)
            lit_map[gid] = lit ^ 1 if gtype == GateType.NOR else lit
        elif gtype in (GateType.XOR, GateType.XNOR):
            lit = aig.aig_xors(lit_map[f] for f in gate.fanins)
            lit_map[gid] = lit ^ 1 if gtype == GateType.XNOR else lit
        elif gtype == GateType.MUX:
            select, data0, data1 = (lit_map[f] for f in gate.fanins)
            lit_map[gid] = aig.aig_mux(select, data0, data1)
        else:  # pragma: no cover - GateType is closed
            raise NetlistError(f"cannot lower gate type {gtype.value}")
    return lit_map


def from_netlist(netlist: Netlist) -> AIG:
    """Lower a netlist to a hash-consed AIG.

    Primary inputs are recreated in order (even when dead, so stimulus
    stays valid), every flip-flop becomes a latch under the same
    register-correspondence name the rebuilder uses, and primary outputs
    keep their names.  Logic outside the output/next-state cone is dropped
    by construction.
    """
    aig = AIG(name=netlist.name)
    gates = netlist.gates
    input_lits = {
        gid: aig.add_input(gates[gid].name or f"pi_{gid}")
        for gid in netlist.inputs
    }
    latch_lits = {
        gid: aig.add_latch(gates[gid].name or f"dff_{gid}")
        for gid in netlist.registers
    }
    lit_map = insert_netlist(aig, netlist, input_lits, latch_lits)
    for gid in netlist.registers:
        aig.set_next(latch_lits[gid], lit_map[gates[gid].fanins[0]])
    for name, net in netlist.outputs:
        aig.add_output(name, lit_map[net])
    return aig


# ---------------------------------------------------------------------------
# Raising: AIG -> Netlist
# ---------------------------------------------------------------------------


def _match_mux(aig: AIG, nid: int) -> Optional[tuple[int, int, int]]:
    """Detect the MUX/XOR pattern rooted at AND node ``nid``.

    ``mux(s, e, t) = ~AND(~AND(s, t), ~AND(~s, e))`` — so when both fanin
    edges are complemented ANDs sharing a select variable in opposite
    polarity, ``~nid`` implements ``s ? t : e``.  Returns ``(s, e, t)``
    literals, or ``None`` when the node is a plain conjunction.
    """
    f0, f1 = aig.fanins(nid)
    if not (lit_compl(f0) and lit_compl(f1)):
        return None
    c0, c1 = lit_node(f0), lit_node(f1)
    if not (aig.is_and(c0) and aig.is_and(c1)):
        return None
    x0, x1 = aig.fanins(c0)
    y0, y1 = aig.fanins(c1)
    for s, t in ((x0, x1), (x1, x0)):
        if aig_not(s) == y0:
            return s, y1, t
        if aig_not(s) == y1:
            return s, y0, t
    return None


def to_netlist(aig: AIG) -> Netlist:
    """Raise an AIG back to a gate-level netlist.

    AND nodes whose structure matches the XOR or MUX pattern are re-derived
    as single ``XOR``/``XNOR``/``MUX`` gates (so lowering wide operators
    does not permanently triple their gate count).  Every other AND node
    becomes one two-input gate whose type absorbs as many complement edges
    as possible: complemented operands turn the node into ``OR``/``NOR``
    via De Morgan, and the emitted polarity follows the majority of the
    node's consumers (``NAND`` when most read it inverted) — so raising
    adds a shared ``NOT`` only where an edge polarity genuinely cannot be
    folded into a gate.  PI/PO/latch names round-trip exactly.
    """
    netlist = Netlist(name=aig.name)
    #: literal -> netlist net id.
    net_of: dict[int, int] = {}

    for nid in aig.inputs:
        net_of[nid << 1] = netlist.add_input(aig.node_name(nid))
    dff_net: dict[int, int] = {}
    for nid in aig.latches:
        dff = netlist.add_dff(netlist.const0(), name=aig.node_name(nid))
        dff_net[nid] = dff
        net_of[nid << 1] = dff

    def lit_net(lit: int) -> int:
        """Net id for a literal, creating shared NOT/const gates lazily."""
        hit = net_of.get(lit)
        if hit is not None:
            return hit
        if lit == FALSE:
            net = netlist.const0()
        elif lit == TRUE:
            net = netlist.const1()
        else:
            base = net_of.get(lit ^ 1)
            if base is None:
                raise AIGError(f"literal {lit} raised before its node")
            net = netlist.add_gate(GateType.NOT, (base,))
        net_of[lit] = net
        return net

    # Plan the raising: decide per reachable AND node whether it becomes a
    # MUX/XOR (absorbing its two child ANDs unless something else reads
    # them) and tally how often each literal polarity is consumed — the
    # polarity tally picks the emitted gate variant below.
    roots = aig.and_roots()
    plan: dict[int, Optional[tuple[int, int, int]]] = {}
    refs: dict[int, int] = {}
    for lit in roots:
        refs[lit] = refs.get(lit, 0) + 1
    stack = [lit_node(lit) for lit in roots]
    while stack:
        nid = stack.pop()
        if nid in plan or not aig.is_and(nid):
            continue
        match = _match_mux(aig, nid)
        if match is not None:
            s, e, t = match
            if lit_compl(s):
                s, e, t = aig_not(s), t, e
            match = (s, e, t)
            if t == aig_not(e):
                # XOR raising reads either polarity of its operands (the
                # complement folds into XOR-vs-XNOR parity), so it gets no
                # vote in the polarity tally — only reachability.
                stack.append(lit_node(s))
                stack.append(lit_node(e))
                plan[nid] = match
                continue
            reads = (s, e, t)
        else:
            f0, f1 = aig.fanins(nid)
            if lit_compl(f0) and lit_compl(f1):
                # Raised through De Morgan below: reads the positive edges.
                reads = (aig_not(f0), aig_not(f1))
            else:
                reads = (f0, f1)
        plan[nid] = match
        for lit in reads:
            refs[lit] = refs.get(lit, 0) + 1
            stack.append(lit_node(lit))

    for nid in sorted(plan):
        match = plan[nid]
        pos = nid << 1
        inverted = refs.get(pos ^ 1, 0) > refs.get(pos, 0)
        if match is not None:
            s, e, t = match
            if t == aig_not(e):
                # ~nid == mux(s, e, ~e) == s ^ e.  Read whichever polarity
                # of each operand already has a net and fold the leftover
                # complements into the gate's XOR-vs-XNOR parity.
                def pick(lit: int) -> int:
                    positive = lit & ~1
                    if positive in net_of:
                        return positive
                    if positive | 1 in net_of:
                        return positive | 1
                    return positive
                ls, le = pick(s), pick(e)
                parity = (lit_compl(s) ^ lit_compl(e) ^ lit_compl(ls) ^
                          lit_compl(le) ^ (0 if inverted else 1))
                gtype = GateType.XNOR if parity else GateType.XOR
                net_of[pos ^ (1 if inverted else 0)] = netlist.add_gate(
                    gtype, (lit_net(ls), lit_net(le)))
            else:
                net_of[pos ^ 1] = netlist.add_gate(
                    GateType.MUX, (lit_net(s), lit_net(e), lit_net(t)))
            continue
        f0, f1 = aig.fanins(nid)
        use_or = False
        if lit_compl(f0) and lit_compl(f1):
            # ~(~a & ~b) == a | b: raise through De Morgan, but only when
            # that strictly saves inverters — children may only provide
            # their complemented net (e.g. a raised MUX), and a shared NOT
            # on an AND operand is often cheaper than one per OR operand.
            cost_and = (f0 not in net_of) + (f1 not in net_of)
            cost_or = (aig_not(f0) not in net_of) + \
                (aig_not(f1) not in net_of)
            use_or = cost_or < cost_and
        if use_or:
            operands = (lit_net(aig_not(f0)), lit_net(aig_not(f1)))
            gtype = GateType.OR if inverted else GateType.NOR
        else:
            operands = (lit_net(f0), lit_net(f1))
            gtype = GateType.NAND if inverted else GateType.AND
        net_of[pos ^ (1 if inverted else 0)] = netlist.add_gate(
            gtype, operands)

    for nid in aig.latches:
        if nid in aig._next:
            netlist.set_fanins(dff_net[nid], (lit_net(aig._next[nid]),))
    for name, lit in aig.outputs:
        netlist.add_output(name, lit_net(lit))
    return netlist
