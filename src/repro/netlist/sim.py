"""Compiled single-pattern netlist simulation engine.

:func:`repro.netlist.logic.simulate` is an interpreter: one dict lookup, one
type dispatch and one Python-level boolean op per gate per cycle.  This
module trades a one-off compile step for a faster steady state:

* :func:`compile_netlist` levelizes the netlist once and emits a flat,
  straight-line Python function (generated source + ``exec``) with one
  line per live gate over *atoms* — a local name, ``0`` or ``1`` — so
  there are no per-gate dict lookups or type dispatch.  Each gate is
  translated as it is, with no constant folding: NOT, NAND, NOR and XNOR
  end in ``^ 1`` and a MUX is ``d1 if s else d0``.  BUF chains collapse
  into aliases, and gates outside the output/next-state cone are skipped.
* The function runs one stimulus pattern per call, every net a 0/1 int.
  Pattern-parallel simulation (one pattern per bit of a Python int) runs on
  the AIG instead: :func:`aig_signatures` / :func:`packed_eval` below.
* :meth:`CompiledNetlist.run_words` steps one word-level cycle; it is
  what :func:`~repro.netlist.elaborate.simulate_vectors` /
  ``simulate_sequence`` run, so word-level harnesses compare this engine
  with :class:`repro.netlist.interp.Interpreter` directly.  The per-gate
  :func:`~repro.netlist.logic.simulate` stays as the bit-level reference
  oracle.

The compiled function lives in the netlist's one store of derived data
(:meth:`~repro.netlist.logic.Netlist.cached`), which every mutation
clears, so repeated :func:`simulate_compiled` calls — e.g. SAT
counterexample replay — compile at most once per netlist structure.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, Optional, Sequence

from ..obs import get_tracer
from .aig import _AND, AIG
from .logic import (
    AND, BUF, CONST0, CONST1, MUX, NAND, NOR, NOT, OR, XNOR, XOR, Netlist,
    NetlistError,
)

_BIT_SUFFIX = re.compile(r"^(.+)\[(\d+)\]$")


def _split_bit_name(name: str) -> tuple[str, int]:
    """``"port[7]" -> ("port", 7)``; plain names map to bit 0."""
    match = _BIT_SUFFIX.match(name)
    if match is None:
        return name, 0
    return match.group(1), int(match.group(2))


def input_word_widths(netlist: Netlist) -> dict[str, int]:
    """Word width of each input port, derived from its bit-blasted names."""
    widths: dict[str, int] = {}
    for name in netlist.input_names():
        base, _ = _split_bit_name(name)
        widths[base] = widths.get(base, 0) + 1
    return widths


def _tuple_expr(items: Sequence[str]) -> str:
    if not items:
        return "()"
    return "(" + ", ".join(items) + ",)"


#: The operator joining an n-ary gate's operands, and whether the gate
#: inverts the result.
_NARY = {
    AND: (" & ", False), NAND: (" & ", True),
    OR: (" | ", False), NOR: (" | ", True),
    XOR: (" ^ ", False), XNOR: (" ^ ", True),
}


def _generate(netlist: Netlist) -> str:
    """The source of ``_cycle(I, S)`` for :class:`CompiledNetlist`."""
    registers = netlist.registers
    roots = [net for _, net in netlist.outputs]
    roots.extend(netlist.fanins(gid)[0] for gid in registers)
    roots.extend(registers)
    cone = netlist.transitive_fanin(roots)
    #: Every net's value as a source atom; BUFs alias their fanin's atom.
    atoms = {gid: f"i{k}" for k, gid in enumerate(netlist.inputs)}
    atoms.update((gid, f"s{k}") for k, gid in enumerate(registers))
    lines = ["def _cycle(I, S):"]
    if netlist.inputs:
        names = [f"i{k}" for k in range(len(netlist.inputs))]
        lines.append(f"    {_tuple_expr(names)} = I")
    if registers:
        names = [f"s{k}" for k in range(len(registers))]
        lines.append(f"    {_tuple_expr(names)} = S")
    for gid in netlist.topological_order():
        if gid not in cone or gid in atoms:
            continue
        gtype = netlist.gate_type(gid)
        ops = [atoms[fid] for fid in netlist.fanins(gid)]
        if gtype is CONST0:
            atoms[gid] = "0"
            continue
        if gtype is CONST1:
            atoms[gid] = "1"
            continue
        if gtype is BUF:
            atoms[gid] = ops[0]
            continue
        if gtype is NOT:
            expr = f"{ops[0]} ^ 1"
        elif gtype is MUX:
            expr = f"{ops[2]} if {ops[0]} else {ops[1]}"
        else:
            joiner, invert = _NARY[gtype]
            expr = joiner.join(ops)
            if invert:
                expr = f"({expr}) ^ 1"
        lines.append(f"    n{gid} = {expr}")
        atoms[gid] = f"n{gid}"
    out_atoms = [atoms[net] for _, net in netlist.outputs]
    ns_atoms = [atoms[netlist.fanins(gid)[0]] for gid in registers]
    lines.append(f"    return {_tuple_expr(out_atoms)}, "
                 f"{_tuple_expr(ns_atoms)}")
    return "\n".join(lines) + "\n"


class CompiledNetlist:
    """A netlist lowered to one straight-line Python function.

    The generated function has the signature ``_cycle(I, S)`` where ``I``
    is a tuple of primary-input bits (``netlist.inputs`` order) and ``S``
    a tuple of flip-flop Q bits (``netlist.registers`` order).  It returns
    ``(outputs, next_state)`` tuples of bits in ``netlist.outputs`` /
    register order.

    The generated source is kept on :attr:`source` for inspection.
    """

    def __init__(self, netlist: Netlist):
        self.name = netlist.name
        self.input_names = netlist.input_names()
        self.output_names = netlist.output_names()
        self.registers = netlist.registers
        #: (port base, bit index) per primary input / output, word packing.
        self._in_bits = [_split_bit_name(n) for n in self.input_names]
        self._out_bits = [_split_bit_name(n) for n in self.output_names]
        self.source = _generate(netlist)
        namespace: dict = {"__builtins__": {}}
        exec(compile(self.source, f"<compiled:{self.name}>", "exec"),
             namespace)
        self._fn = namespace["_cycle"]

    def run_words(self, inputs: Mapping[str, int], state: Sequence[int]
                  ) -> tuple[dict[str, int], tuple[int, ...]]:
        """One cycle with word-level port values.

        ``inputs`` maps port base names to unsigned integers (the
        :func:`~repro.netlist.elaborate.simulate_vectors` convention);
        outputs are packed back the same way.
        """
        try:
            bits = tuple(
                (int(inputs[base]) >> index) & 1
                for base, index in self._in_bits
            )
        except KeyError as exc:
            raise KeyError(
                f"missing value for input port '{exc.args[0]}'"
            ) from None
        out_bits, next_state = self._fn(bits, tuple(state))
        outputs: dict[str, int] = {}
        for (base, index), bit in zip(self._out_bits, out_bits):
            outputs[base] = outputs.get(base, 0) | (bit << index)
        return outputs, next_state

    def pack_state(self, state: Optional[Mapping[int, int]]
                   ) -> tuple[int, ...]:
        """A ``{register gid: Q bit}`` map as a registers-order state tuple."""
        if not state:
            return (0,) * len(self.registers)
        return tuple(int(bool(state.get(gid, 0))) for gid in self.registers)


def _compile(netlist: Netlist) -> CompiledNetlist:
    with get_tracer().span("sim.compile", design=netlist.name) as span:
        compiled = CompiledNetlist(netlist)
        span.set(inputs=len(compiled.input_names),
                 registers=len(compiled.registers))
    return compiled


def compile_netlist(netlist: Netlist) -> CompiledNetlist:
    """Compile (or fetch the cached compilation of) a netlist.

    The result is kept in the netlist's store of derived data
    (:meth:`~repro.netlist.logic.Netlist.cached`), so callers may invoke
    this per cycle without paying recompilation; any mutation clears the
    store, and the next call compiles afresh.
    """
    return netlist.cached(_compile)


def simulate_compiled(netlist: Netlist, input_values: Mapping[str, int],
                      state: Optional[Mapping[int, int]] = None
                      ) -> tuple[dict[str, int], dict[int, int]]:
    """Drop-in replacement for :func:`repro.netlist.logic.simulate`.

    Same bit-level contract — ``input_values`` maps primary-input *bit*
    names to 0/1, ``state`` maps register gate ids to Q values — but one
    compiled straight-line call instead of a per-gate interpretation loop.
    """
    compiled = compile_netlist(netlist)
    bits = []
    for name in compiled.input_names:
        if name not in input_values:
            raise NetlistError(f"missing value for input '{name}'")
        bits.append(int(bool(input_values[name])))
    out_bits, ns_bits = compiled._fn(tuple(bits), compiled.pack_state(state))
    outputs = dict(zip(compiled.output_names, out_bits))
    next_state = dict(zip(compiled.registers, ns_bits))
    return outputs, next_state


#: Cached elementary truth tables, keyed by variable count.
_ELEMENTARY: dict[int, tuple[int, ...]] = {}


def elementary_words(num_vars: int) -> tuple[int, ...]:
    """The packed *elementary* truth tables over ``num_vars`` variables.

    Word ``i`` enumerates variable ``i`` across all ``2**num_vars``
    assignments — bit ``m`` of word ``i`` is ``(m >> i) & 1``, so var 0 is
    ``0b...0101...``, var 1 is ``0b...0011...``, and so on.  Feeding these
    words into :func:`packed_eval` as a cone's leaf values turns the
    word-parallel simulator into a truth-table computer: each evaluated
    node's word *is* its truth table over those leaves.  This is the input
    convention the cut kernel (:mod:`repro.netlist.opt.cut`) builds on.
    """
    cached = _ELEMENTARY.get(num_vars)
    if cached is None:
        span = 1 << num_vars
        words = []
        for i in range(num_vars):
            # One period (``1 << i`` zeros, then as many ones), doubled
            # until it spans every assignment: a few big-int shifts per
            # word, not one per period, so exhaustive CEC stimulus over
            # ~20 leaves stays cheap.
            word = ((1 << (1 << i)) - 1) << (1 << i)
            width = 1 << (i + 1)
            while width < span:
                word |= word << width
                width <<= 1
            words.append(word)
        cached = tuple(words)
        _ELEMENTARY[num_vars] = cached
    return cached


def packed_eval(aig: AIG, words: dict[int, int], mask: int,
                nodes: Iterable[int]) -> dict[int, int]:
    """Word-parallel evaluation of AND ``nodes`` over preset leaf words.

    The packed-evaluation core shared by :func:`aig_signatures` (random
    stimulus over the whole graph, FRAIG/CEC signatures) and the per-cut
    truth tables of :mod:`repro.netlist.opt.cut` (elementary words over a
    cut's leaves).  ``words`` maps node id to packed value — one pattern
    per bit under ``mask`` — and must already hold every non-AND node the
    cone reads; each AND node in ``nodes`` (ascending ids, which is
    topological order) is assigned ``f0 & f1`` with complement edges read
    as ``value ^ mask``.  ``words`` is updated in place and returned.
    """
    f0s, f1s = aig._fanin0, aig._fanin1
    for nid in nodes:
        f0 = f0s[nid]
        f1 = f1s[nid]
        a = words[f0 >> 1]
        if f0 & 1:
            a ^= mask
        b = words[f1 >> 1]
        if f1 & 1:
            b ^= mask
        words[nid] = a & b
    return words


def aig_signatures(aig: AIG, inputs: Sequence[int], state: Sequence[int],
                   mask: int) -> tuple[int, ...]:
    """Packed simulation values for *every* node of an AIG.

    ``inputs`` / ``state`` follow ``aig.inputs`` / ``aig.latches`` order;
    each int packs one stimulus pattern per bit under ``mask``.  The result
    is indexed by node id and holds each node's (positive-literal) value —
    the simulation *signature* FRAIG groups candidate-equivalence
    classes by.  One :func:`packed_eval` sweep over the node array: the
    same word-packing core computes cut truth tables when fed
    :func:`elementary_words` instead of random stimulus.
    """
    words: dict[int, int] = {0: 0}
    words.update(zip(aig.inputs, inputs))
    words.update(zip(aig.latches, state))
    kinds = aig._kind
    packed_eval(aig, words, mask,
                (nid for nid in range(aig.num_nodes) if kinds[nid] == _AND))
    return tuple(words[nid] for nid in range(aig.num_nodes))
