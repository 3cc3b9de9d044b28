"""Structural Verilog emission: the inverse of elaboration.

:func:`netlist_to_verilog` prints a gate-level :class:`Netlist` as a
synthesizable Verilog module that the project's own frontend parses and
re-elaborates.  Bit-blasted port names (``a[3]``) are regrouped into
vector port declarations, and flip-flops become ``reg`` declarations
driven from one ``always @(posedge <clock>)`` block.  A combinational
gate with exactly one combinational reader is printed, in parentheses,
inside that reader's expression; every other gate (read several times,
driving a port or a register's next state, or past the
:data:`MAX_NESTING` cap) is one ``wire wN = expr;`` declaration, so a
LUT netlist, whose LUTs split into chains of single-reader gates, is
re-read as about a third of the text.

Round-trip fidelity is the design goal: re-elaborating the emitted text
yields a netlist with the same primary input/output interface, and —
for registers owned by the top scope, which the elaborator names
``<top>.<reg>[<bit>]`` — the same register-correspondence names, so
:func:`repro.netlist.sat.check_equivalence` can prove the round trip
lossless.  Registers inherited from flattened sub-instances keep their
hierarchical names only in sanitized form (dots become underscores), so
they re-elaborate as fresh registers; outputs still prove equivalent
whenever the optimizer has already swept such registers into top-level
state.

Flip-flops in this IR are implicitly clocked; the emitted ``always``
block needs an explicit clock net, so the emitter reuses a scalar
primary input named :data:`CLOCK` (``"clk"``) when the design has one
and otherwise adds a fresh clock input (changing the interface —
flagged in the emitted header comment).
"""

from __future__ import annotations

import re
from collections import Counter

from .logic import (
    AND, BUF, CONST0, CONST1, DFF, INPUT, MUX, NAND, NON_COMB_TYPES, NOR, NOT,
    OR, XNOR, XOR, Netlist, NetlistError,
)
from .sim import _split_bit_name

_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_$]*$")

#: Name of the scalar input the emitted ``always`` block is clocked by.
CLOCK = "clk"

#: Deepest parenthesis nesting of an emitted expression.  The frontend
#: parses and lowers expressions recursively, so a long chain of
#: single-reader gates is cut into named wires at this depth.
MAX_NESTING = 8

_OPS = {AND: " & ", NAND: " & ", OR: " | ", NOR: " | ",
        XOR: " ^ ", XNOR: " ^ "}
_INVERTED = frozenset((NAND, NOR, XNOR))


class EmitError(NetlistError):
    """Raised when a netlist cannot be printed as Verilog."""


def _sanitize(name: str, used: set[str]) -> str:
    """Turn an arbitrary net name into a fresh Verilog identifier."""
    ident = re.sub(r"[^A-Za-z0-9_$]", "_", name)
    if not ident or not _IDENT.match(ident):
        ident = f"_{ident}"
    while ident in used:
        ident += "_"
    return ident


def _group_bits(names: list[str], kind: str) -> dict[str, dict[int, int]]:
    """Group bit-blasted names into ``{base: {index: position}}`` words.

    A plain name is a scalar (represented as ``{0: pos}`` with a marker
    index set of exactly ``{0}`` and the original name equal to the base);
    ``base[i]`` names form vectors, which must cover ``0..max`` densely.
    """
    words: dict[str, dict[int, int]] = {}
    scalars: set[str] = set()
    for pos, name in enumerate(names):
        base, index = _split_bit_name(name)
        if base == name:
            scalars.add(base)
        if base in words and index in words[base]:
            raise EmitError(f"duplicate {kind} bit '{name}'")
        words.setdefault(base, {})[index] = pos
    for base, bits in words.items():
        if base in scalars:
            if len(bits) != 1:
                raise EmitError(
                    f"{kind} '{base}' is both a scalar and a vector")
            continue
        if sorted(bits) != list(range(len(bits))):
            raise EmitError(
                f"{kind} vector '{base}' has gaps in its bit indices")
        if len(bits) == 1:
            # A lone '<base>[0]' port cannot survive the frontend: the
            # elaborator names width-1 ports plain '<base>', so the
            # re-elaborated interface would no longer match.  (The
            # elaborator itself never produces this shape.)
            raise EmitError(
                f"{kind} '{base}[0]' is a single-bit vector; the frontend "
                f"would re-elaborate it as scalar '{base}', breaking the "
                f"round trip")
        if not _IDENT.match(base):
            raise EmitError(f"{kind} '{base}' is not a Verilog identifier")
    return words


def _port_decl(direction: str, base: str, bits: dict[int, int],
               names: list[str], reg: bool = False) -> str:
    kind = f"{direction} reg" if reg else direction
    if len(bits) == 1 and names[next(iter(bits.values()))] == base:
        return f"{kind} {base}"
    return f"{kind} [{len(bits) - 1}:0] {base}"


def netlist_to_verilog(netlist: Netlist) -> str:
    """Print a netlist as a structural Verilog module."""
    types, fanins, names = netlist._type, netlist._fanins, netlist._name
    input_names = netlist.input_names()
    output_names = netlist.output_names()
    in_words = _group_bits(input_names, "input")
    out_words = _group_bits(output_names, "output")
    overlap = set(in_words) & set(out_words)
    if overlap:
        raise EmitError(
            f"ports used as both input and output: {sorted(overlap)}")

    used: set[str] = set(in_words) | set(out_words)

    # -- registers: regroup flip-flops into words, preferring the names the
    #    elaborator would re-create ("<top>.<reg>[<bit>]" -> "<reg>").
    reg_map = netlist.register_map()
    prefix = f"{netlist.name}."
    reg_words: dict[str, dict[int, int]] = {}
    scalar_regs: set[str] = set()
    for name in sorted(reg_map):
        local = name[len(prefix):] if name.startswith(prefix) else name
        base, index = _split_bit_name(local)
        if local == base:
            scalar_regs.add(base)
        word = reg_words.setdefault(base, {})
        if index in word:
            raise EmitError(f"duplicate register bit '{name}'")
        word[index] = reg_map[name]
    for base in scalar_regs:
        if len(reg_words[base]) != 1:
            raise EmitError(
                f"register '{base}' is both a scalar and a vector")

    # An output word whose every bit is driven directly by the matching
    # register word can be declared `output reg` and written in place —
    # exactly what `output reg [W-1:0] q` elaborated from, so the round
    # trip restores the original declaration.
    output_regs: set[str] = set()
    out_net = dict(netlist.outputs)
    for base, bits in out_words.items():
        word = reg_words.get(base)
        if word is None or sorted(word) != sorted(bits):
            continue
        if all(out_net[output_names[pos]] == word[index]
               for index, pos in bits.items()):
            output_regs.add(base)

    reg_decl_names: dict[str, str] = {}
    for base in sorted(reg_words):
        if base in output_regs:
            decl = base  # shares the output port declaration
        elif _IDENT.match(base) and base not in used:
            decl = base
        else:
            decl = _sanitize(base, used)
        reg_decl_names[base] = decl
        used.add(decl)

    # -- clock: reuse a scalar input, or add one.
    clock_name = None
    added_clock = False
    if reg_map:
        scalar_inputs = {
            name for name in input_names
            if _split_bit_name(name)[0] == name
        }
        if CLOCK in scalar_inputs:
            clock_name = CLOCK
        else:
            clock_name = _sanitize(CLOCK, used)
            used.add(clock_name)
            added_clock = True

    # -- wire naming for combinational gates: the prefix must not produce
    #    any `<prefix><digits>` name a port or register already claimed,
    #    re-scanning all names after every bump ("w3" forces "w_", which
    #    "w_5" may force further).
    wire_prefix = "w"
    while any(re.fullmatch(f"{re.escape(wire_prefix)}\\d+", name)
              for name in used):
        wire_prefix += "_"

    reg_of_gid: dict[int, str] = {}
    for base, word in reg_words.items():
        decl = reg_decl_names[base]
        for index, gid in word.items():
            reg_of_gid[gid] = decl if base in scalar_regs \
                else f"{decl}[{index}]"

    def token(net: int) -> str:
        gtype = types[net]
        if gtype is INPUT:
            name = names[net] or f"pi_{net}"
            base, index = _split_bit_name(name)
            return base if name == base else f"{base}[{index}]"
        if gtype is CONST0:
            return "1'b0"
        if gtype is CONST1:
            return "1'b1"
        if gtype is DFF:
            return reg_of_gid[net]
        return f"{wire_prefix}{net}"

    # -- combinational gates: a gate read once, by another combinational
    #    gate, is printed in parentheses inside its reader's expression.
    #    Multi-reader gates, gates that drive a port or a register, and
    #    gates whose text would nest deeper than MAX_NESTING stay wires.
    comb = [
        gid for gid in netlist.topological_order()
        if types[gid] not in NON_COMB_TYPES
    ]
    readers = Counter(f for gid in comb for f in fanins[gid])
    pinned = {net for _, net in netlist.outputs}
    pinned.update(fanins[gid][0] for gid in reg_map.values())
    text: dict[int, str] = {}  # expressions not inlined (yet), in order
    depth: dict[int, int] = {}  # deepest parenthesis nesting of each

    for gid in comb:
        gtype = types[gid]
        extra = 1 if gtype in _INVERTED else 0  # the '~(' of NAND & co.
        nesting = extra
        operands = []
        for f in fanins[gid]:
            if (f in text and readers[f] == 1 and f not in pinned
                    and depth[f] + 1 + extra <= MAX_NESTING):
                nesting = max(nesting, depth[f] + 1 + extra)
                operands.append(f"({text.pop(f)})")
            else:
                operands.append(token(f))
        if gtype is BUF:
            expr = operands[0]
        elif gtype is NOT:
            expr = f"~{operands[0]}"
        elif gtype is MUX:
            select, data0, data1 = operands
            expr = f"{select} ? {data1} : {data0}"
        else:
            expr = _OPS[gtype].join(operands)
            if extra:
                expr = f"~({expr})"
        text[gid] = expr
        depth[gid] = nesting

    # -- assemble the module text.
    ports: list[str] = []
    seen_bases: set[str] = set()
    for name in input_names:
        base, _ = _split_bit_name(name)
        if base in seen_bases:
            continue
        seen_bases.add(base)
        ports.append(_port_decl("input", base, in_words[base], input_names))
    if added_clock:
        ports.append(f"input {clock_name}")
    for name in output_names:
        base, _ = _split_bit_name(name)
        if base in seen_bases:
            continue
        seen_bases.add(base)
        ports.append(_port_decl("output", base, out_words[base],
                                output_names, reg=base in output_regs))

    lines = [f"// emitted by repro.netlist.emit from netlist "
             f"'{netlist.name}'"]
    if added_clock:
        lines.append(f"// note: clock input '{clock_name}' was added "
                     f"(no scalar input named '{CLOCK}' existed)")
    lines.append(f"module {netlist.name} (")
    lines.extend(f"  {port}," for port in ports[:-1])
    if ports:
        lines.append(f"  {ports[-1]}")
    lines.append(");")

    for base in sorted(reg_words):
        if base in output_regs:
            continue
        decl = reg_decl_names[base]
        if base in scalar_regs:
            lines.append(f"  reg {decl};")
        else:
            # Declare at least two bits: a '[0:0]' reg would re-elaborate
            # under the plain name, losing the '<base>[0]' register
            # correspondence.  A padded upper bit elaborates into a dead
            # hold flip-flop that matches nothing and stays free in the
            # equivalence check.
            width = max(max(reg_words[base]) + 1, 2)
            lines.append(f"  reg [{width - 1}:0] {decl};")

    lines.extend(f"  wire {wire_prefix}{gid} = {expr};"
                 for gid, expr in text.items())

    for name, net in netlist.outputs:
        base, index = _split_bit_name(name)
        if base in output_regs:
            continue
        target = base if name == base else f"{base}[{index}]"
        lines.append(f"  assign {target} = {token(net)};")

    if reg_map:
        lines.append(f"  always @(posedge {clock_name}) begin")
        for base in sorted(reg_words):
            word = reg_words[base]
            for index in sorted(word):
                gid = word[index]
                data = fanins[gid][0]
                lines.append(
                    f"    {reg_of_gid[gid]} <= {token(data)};")
        lines.append("  end")

    lines.append("endmodule")
    return "\n".join(lines) + "\n"
