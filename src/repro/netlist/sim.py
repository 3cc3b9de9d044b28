"""Compiled, pattern-parallel netlist simulation engine.

:func:`repro.netlist.logic.simulate` is an interpreter: one dict lookup, one
type dispatch and one Python-level boolean op per gate per stimulus pattern.
This module trades a one-off compile step for a much faster steady state:

* :func:`compile_netlist` levelizes the netlist once and emits a flat,
  straight-line Python function (generated source + ``exec``) with one
  bitwise expression per live gate — no per-gate dict lookups or type
  dispatch.  Constants are folded at compile time, BUF chains collapse into
  aliases, and gates outside the output/next-state cone are skipped.
* Every net is represented as a single Python int holding up to W stimulus
  patterns, one per bit, so ``a & b`` evaluates an AND gate across all W
  patterns in one interpreter step.  ``NOT x`` is ``x ^ M`` where ``M`` is
  the W-bit all-ones mask.
* :meth:`CompiledNetlist.run_words` steps one word-level cycle; it is
  what :func:`~repro.netlist.elaborate.simulate_vectors` /
  ``simulate_sequence`` run, so word-level harnesses compare this engine
  with :class:`repro.netlist.interp.Interpreter` directly.  The per-gate
  :func:`~repro.netlist.logic.simulate` stays as the bit-level reference
  oracle; this engine ran the width-16 ALU about 60x faster than it.

Compilation results are cached on the netlist (keyed by its structural
``version``), so repeated :func:`simulate_compiled` calls — e.g. SAT
counterexample replay — compile at most once per netlist revision.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, Optional, Sequence

from ..obs import get_tracer
from .aig import _AND, AIG
from .logic import (
    AND, BUF, CONST0, CONST1, DFF, INPUT, MUX, NAND, NOR, NOT, OR, XNOR, XOR,
    Netlist, NetlistError,
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


class CompiledNetlist:
    """A netlist lowered to one straight-line Python function.

    The generated function has the signature ``_cycle(I, S, M)`` where ``I``
    is a tuple of packed primary-input values (``netlist.inputs`` order),
    ``S`` a tuple of packed flip-flop Q values (``netlist.registers``
    order) and ``M`` the pattern mask (``(1 << W) - 1`` for W packed
    patterns).  It returns ``(outputs, next_state)`` tuples in
    ``netlist.outputs`` / register order.  AIGs are not compiled: they
    are simulated by :func:`aig_signatures` / :func:`packed_eval`.

    The generated source is kept on :attr:`source` for inspection.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.name = netlist.name
        self.version = netlist.version
        self.input_gids = list(netlist.inputs)
        self.input_names = netlist.input_names()
        self.output_names = netlist.output_names()
        self.registers = netlist.registers
        #: (port base, bit index) per primary input / output, word packing.
        self._in_bits = [_split_bit_name(n) for n in self.input_names]
        self._out_bits = [_split_bit_name(n) for n in self.output_names]
        self.source = self._generate()
        namespace: dict = {"__builtins__": {}}
        exec(compile(self.source, f"<compiled:{self.name}>", "exec"),
             namespace)
        self._fn = namespace["_cycle"]

    # -- code generation -----------------------------------------------------

    def _generate(self) -> str:
        netlist = self.netlist
        types, fanins = netlist._type, netlist._fanins
        roots = [net for _, net in netlist.outputs]
        roots.extend(fanins[gid][0] for gid in self.registers)
        roots.extend(self.registers)
        cone = netlist.transitive_fanin(roots) if roots else set()

        input_pos = {gid: k for k, gid in enumerate(self.input_gids)}
        reg_pos = {gid: k for k, gid in enumerate(self.registers)}
        #: Every net's value as a source *atom*: a local variable name,
        #: ``"0"`` or ``"M"`` — aliases collapse BUF chains and folded
        #: constants without emitting code.
        exprs: dict[int, str] = {}
        consts: dict[int, int] = {}
        lines: list[str] = ["def _cycle(I, S, M):"]
        if self.input_gids:
            unpack = _tuple_expr([f"i{k}" for k in range(len(self.input_gids))])
            lines.append(f"    {unpack} = I")
        if self.registers:
            unpack = _tuple_expr([f"s{k}" for k in range(len(self.registers))])
            lines.append(f"    {unpack} = S")

        def emit(gid: int, expr: str) -> None:
            lines.append(f"    n{gid} = {expr}")
            exprs[gid] = f"n{gid}"

        def alias(gid: int, fid: int) -> None:
            exprs[gid] = exprs[fid]
            if fid in consts:
                consts[gid] = consts[fid]

        def set_const(gid: int, value: int) -> None:
            consts[gid] = value
            exprs[gid] = "M" if value else "0"

        def and_or(gid: int, fanins: tuple[int, ...], is_and: bool,
                   invert: bool) -> None:
            dominating = 0 if is_and else 1
            ops: list[str] = []
            seen: set[int] = set()
            for fid in fanins:
                c = consts.get(fid)
                if c is not None:
                    if c == dominating:
                        set_const(gid, dominating ^ invert)
                        return
                    continue  # identity operand folds away
                if fid in seen:
                    continue  # x & x == x, x | x == x
                seen.add(fid)
                ops.append(exprs[fid])
            if not ops:
                set_const(gid, (1 - dominating) ^ invert)
                return
            joined = (" & " if is_and else " | ").join(ops)
            if invert:
                emit(gid, f"({joined}) ^ M" if len(ops) > 1
                     else f"{ops[0]} ^ M")
            elif len(ops) == 1:
                exprs[gid] = ops[0]
            else:
                emit(gid, joined)

        def xor(gid: int, fanins: tuple[int, ...], invert: bool) -> None:
            parity = 1 if invert else 0
            counts: dict[int, int] = {}
            order_ids: list[int] = []
            for fid in fanins:
                c = consts.get(fid)
                if c is not None:
                    parity ^= c
                    continue
                if fid not in counts:
                    order_ids.append(fid)
                counts[fid] = counts.get(fid, 0) + 1
            ops = [exprs[fid] for fid in order_ids if counts[fid] % 2]
            if not ops:
                set_const(gid, parity)
                return
            if parity:
                ops.append("M")
            if len(ops) == 1:
                exprs[gid] = ops[0]
            else:
                emit(gid, " ^ ".join(ops))

        def mux(gid: int, fanins: tuple[int, ...]) -> None:
            sel, d0, d1 = fanins
            cs = consts.get(sel)
            if cs is not None:
                alias(gid, d1 if cs else d0)
                return
            if exprs[d0] == exprs[d1]:
                alias(gid, d0)
                return
            se, e0, e1 = exprs[sel], exprs[d0], exprs[d1]
            c0, c1 = consts.get(d0), consts.get(d1)
            if c0 == 0 and c1 == 1:
                exprs[gid] = se
            elif c0 == 1 and c1 == 0:
                emit(gid, f"{se} ^ M")
            elif c1 == 1:
                emit(gid, f"{se} | {e0}")
            elif c1 == 0:
                emit(gid, f"({se} ^ M) & {e0}")
            elif c0 == 0:
                emit(gid, f"{se} & {e1}")
            elif c0 == 1:
                emit(gid, f"({se} ^ M) | {e1}")
            else:
                emit(gid, f"({se} & {e1}) | (({se} ^ M) & {e0})")

        for gid in netlist.topological_order():
            if gid not in cone:
                continue
            gtype = types[gid]
            fs = fanins[gid]
            if gtype is INPUT:
                exprs[gid] = f"i{input_pos[gid]}"
            elif gtype is DFF:
                exprs[gid] = f"s{reg_pos[gid]}"
            elif gtype is CONST0:
                set_const(gid, 0)
            elif gtype is CONST1:
                set_const(gid, 1)
            elif gtype is BUF:
                alias(gid, fs[0])
            elif gtype is NOT:
                fid = fs[0]
                c = consts.get(fid)
                if c is not None:
                    set_const(gid, 1 - c)
                else:
                    emit(gid, f"{exprs[fid]} ^ M")
            elif gtype is AND or gtype is NAND:
                and_or(gid, fs, is_and=True, invert=gtype is NAND)
            elif gtype is OR or gtype is NOR:
                and_or(gid, fs, is_and=False, invert=gtype is NOR)
            elif gtype is XOR or gtype is XNOR:
                xor(gid, fs, invert=gtype is XNOR)
            elif gtype is MUX:
                mux(gid, fs)
            else:  # pragma: no cover - GateType is closed
                raise NetlistError(f"cannot compile gate type {gtype.value}")

        out_exprs = [exprs[net] for _, net in netlist.outputs]
        ns_exprs = [exprs[fanins[gid][0]] for gid in self.registers]
        lines.append(f"    return {_tuple_expr(out_exprs)}, "
                     f"{_tuple_expr(ns_exprs)}")
        return "\n".join(lines) + "\n"

    # -- raw packed interface ------------------------------------------------

    def run(self, inputs: Sequence[int], state: Sequence[int],
            mask: int = 1) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """One packed cycle over raw per-net values.

        ``inputs`` / ``state`` follow ``netlist.inputs`` /
        ``netlist.registers`` order; each int carries one pattern per bit
        under ``mask``.  Returns packed ``(outputs, next_state)`` tuples.
        """
        return self._fn(tuple(inputs), tuple(state), mask)

    # -- word-level single-pattern interface ---------------------------------

    def run_words(self, inputs: Mapping[str, int], state: Sequence[int]
                  ) -> tuple[dict[str, int], tuple[int, ...]]:
        """One single-pattern cycle with word-level port values.

        ``inputs`` maps port base names to unsigned integers (the
        :func:`~repro.netlist.elaborate.simulate_vectors` convention);
        outputs are packed back the same way.
        """
        try:
            packed = tuple(
                (int(inputs[base]) >> index) & 1
                for base, index in self._in_bits
            )
        except KeyError as exc:
            raise KeyError(
                f"missing value for input port '{exc.args[0]}'"
            ) from None
        out_bits, next_state = self._fn(packed, tuple(state), 1)
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


def compile_netlist(netlist: Netlist) -> CompiledNetlist:
    """Compile (or fetch the cached compilation of) a netlist.

    The result is cached on the netlist and keyed by its structural
    ``version``, so callers may invoke this per cycle without paying
    recompilation; any mutation triggers a fresh compile on the next call.
    """
    cached = netlist._compiled_cache
    if cached is not None and cached.version == netlist.version:
        return cached
    with get_tracer().span("sim.compile", design=netlist.name) as span:
        compiled = CompiledNetlist(netlist)
        span.set(inputs=len(compiled.input_names),
                 registers=len(compiled.registers))
    netlist._compiled_cache = compiled
    return compiled


def simulate_compiled(netlist: Netlist, input_values: Mapping[str, int],
                      state: Optional[Mapping[int, int]] = None
                      ) -> tuple[dict[str, int], dict[int, int]]:
    """Drop-in replacement for :func:`repro.netlist.logic.simulate`.

    Same bit-level contract — ``input_values`` maps primary-input *bit*
    names to 0/1, ``state`` maps register gate ids to Q values — but one
    compiled straight-line call instead of a per-gate interpretation loop.
    """
    compiled = compile_netlist(netlist)
    packed = []
    for name in compiled.input_names:
        if name not in input_values:
            raise NetlistError(f"missing value for input '{name}'")
        packed.append(int(bool(input_values[name])))
    out_bits, ns_bits = compiled._fn(tuple(packed),
                                     compiled.pack_state(state), 1)
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
