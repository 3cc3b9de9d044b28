"""Bit-blasting primitives: word-level operators over vectors of net ids.

Every function takes the target :class:`~repro.netlist.logic.Netlist` plus one
or more *bit vectors* — Python lists of net ids, least significant bit first —
and returns a new bit vector implementing the word-level operator out of the
primitive :class:`~repro.netlist.logic.GateType` functions (ripple-carry
adders, shift-add multipliers, borrow comparators, mux-tree selects and
barrel shifters).

The single-bit constructors fold constants eagerly (``AND`` with ``1'b0``
collapses to ``1'b0`` and so on), which keeps the zero-extension and mux
plumbing generated by the elaborator from bloating the netlist.

Width semantics
---------------
The elaborator and the reference vector interpreter must agree *exactly* on
result widths, so the rules live here in one place (:func:`binary_width`):

* ``+ - & | ^ ~^`` — ``max(wl, wr)`` with zero-extension (carry/borrow out of
  the result width is dropped);
* ``*`` — ``wl + wr``;
* shifts — width of the left operand;
* comparisons, equality and logical operators — 1 bit;
* all values are treated as unsigned.
"""

from __future__ import annotations

from .logic import AND, CONST0, CONST1, MUX, NOT, OR, XOR, Netlist

#: Bit vector type alias: net ids, LSB first.
Bits = list


def natural_width(value: int) -> int:
    """Width of an unsized constant: its bit length, minimum 1."""
    return max(1, value.bit_length())


def binary_width(op: str, wl: int, wr: int) -> int:
    """Result width of a binary operator given its operand widths."""
    if op in ("+", "-"):
        return max(wl, wr)
    if op == "*":
        return wl + wr
    if op in ("&", "|", "^", "~^", "^~"):
        return max(wl, wr)
    if op in ("<<", "<<<", ">>", ">>>"):
        return wl
    if op in ("<", ">", "<=", ">=", "==", "!=", "===", "!==", "&&", "||"):
        return 1
    raise ValueError(f"no width rule for binary operator {op!r}")


# ---------------------------------------------------------------------------
# Folding single-bit constructors
# ---------------------------------------------------------------------------


def b_not(netlist: Netlist, a: int) -> int:
    gtype = netlist._type[a]
    if gtype is CONST0:
        return netlist.const1()
    if gtype is CONST1:
        return netlist.const0()
    if gtype is NOT:
        return netlist._fanins[a][0]
    return netlist.add_gate(NOT, (a,))


def b_and(netlist: Netlist, a: int, b: int) -> int:
    types = netlist._type
    ta, tb = types[a], types[b]
    if ta is CONST0 or tb is CONST0:
        return netlist.const0()
    if ta is CONST1:
        return b
    if tb is CONST1:
        return a
    if a == b:
        return a
    return netlist.add_gate(AND, (a, b))


def b_or(netlist: Netlist, a: int, b: int) -> int:
    types = netlist._type
    ta, tb = types[a], types[b]
    if ta is CONST1 or tb is CONST1:
        return netlist.const1()
    if ta is CONST0:
        return b
    if tb is CONST0:
        return a
    if a == b:
        return a
    return netlist.add_gate(OR, (a, b))


def b_xor(netlist: Netlist, a: int, b: int) -> int:
    types = netlist._type
    ta, tb = types[a], types[b]
    if ta is CONST0:
        return b
    if tb is CONST0:
        return a
    if ta is CONST1:
        return b_not(netlist, b)
    if tb is CONST1:
        return b_not(netlist, a)
    if a == b:
        return netlist.const0()
    return netlist.add_gate(XOR, (a, b))


def b_xnor(netlist: Netlist, a: int, b: int) -> int:
    return b_not(netlist, b_xor(netlist, a, b))


def b_mux(netlist: Netlist, select: int, data0: int, data1: int) -> int:
    """``select ? data1 : data0`` with constant folding."""
    types = netlist._type
    ts = types[select]
    if ts is CONST0:
        return data0
    if ts is CONST1:
        return data1
    if data0 == data1:
        return data0
    t0, t1 = types[data0], types[data1]
    if t0 is CONST0 and t1 is CONST1:
        return select
    if t0 is CONST1 and t1 is CONST0:
        return b_not(netlist, select)
    return netlist.add_gate(MUX, (select, data0, data1))


# ---------------------------------------------------------------------------
# Vector helpers
# ---------------------------------------------------------------------------


def constant(netlist: Netlist, value: int, width: int) -> Bits:
    """Encode an unsigned constant as a bit vector of the given width."""
    if width < 1:
        raise ValueError("constant width must be >= 1")
    return [
        netlist.const1() if (value >> i) & 1 else netlist.const0()
        for i in range(width)
    ]


def extend(netlist: Netlist, bits: Bits, width: int) -> Bits:
    """Zero-extend or truncate a vector to exactly ``width`` bits."""
    if len(bits) >= width:
        return list(bits[:width])
    return list(bits) + [netlist.const0()] * (width - len(bits))


def v_not(netlist: Netlist, a: Bits) -> Bits:
    return [b_not(netlist, bit) for bit in a]


def _elementwise(netlist: Netlist, fn, a: Bits, b: Bits) -> Bits:
    width = max(len(a), len(b))
    a = extend(netlist, a, width)
    b = extend(netlist, b, width)
    return [fn(netlist, x, y) for x, y in zip(a, b)]


def v_and(netlist: Netlist, a: Bits, b: Bits) -> Bits:
    return _elementwise(netlist, b_and, a, b)


def v_or(netlist: Netlist, a: Bits, b: Bits) -> Bits:
    return _elementwise(netlist, b_or, a, b)


def v_xor(netlist: Netlist, a: Bits, b: Bits) -> Bits:
    return _elementwise(netlist, b_xor, a, b)


def v_xnor(netlist: Netlist, a: Bits, b: Bits) -> Bits:
    return _elementwise(netlist, b_xnor, a, b)


def reduce_or(netlist: Netlist, a: Bits) -> int:
    result = a[0]
    for bit in a[1:]:
        result = b_or(netlist, result, bit)
    return result


def reduce_and(netlist: Netlist, a: Bits) -> int:
    result = a[0]
    for bit in a[1:]:
        result = b_and(netlist, result, bit)
    return result


def reduce_xor(netlist: Netlist, a: Bits) -> int:
    result = a[0]
    for bit in a[1:]:
        result = b_xor(netlist, result, bit)
    return result


def v_mux(netlist: Netlist, select: int, data0: Bits, data1: Bits) -> Bits:
    """Word-level 2:1 mux: ``select ? data1 : data0``."""
    width = max(len(data0), len(data1))
    data0 = extend(netlist, data0, width)
    data1 = extend(netlist, data1, width)
    return [b_mux(netlist, select, d0, d1) for d0, d1 in zip(data0, data1)]


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------


def ripple_add(netlist: Netlist, a: Bits, b: Bits, width: int,
               carry_in: int | None = None) -> Bits:
    """Ripple-carry addition truncated to ``width`` bits."""
    a = extend(netlist, a, width)
    b = extend(netlist, b, width)
    carry = carry_in if carry_in is not None else netlist.const0()
    out: Bits = []
    for x, y in zip(a, b):
        partial = b_xor(netlist, x, y)
        out.append(b_xor(netlist, partial, carry))
        carry = b_or(netlist, b_and(netlist, x, y),
                     b_and(netlist, carry, partial))
    return out


def v_add(netlist: Netlist, a: Bits, b: Bits) -> Bits:
    return ripple_add(netlist, a, b, max(len(a), len(b)))


def v_sub(netlist: Netlist, a: Bits, b: Bits) -> Bits:
    """Two's-complement subtraction: ``a + ~b + 1`` at ``max`` width."""
    width = max(len(a), len(b))
    b_inv = v_not(netlist, extend(netlist, b, width))
    return ripple_add(netlist, a, b_inv, width, carry_in=netlist.const1())


def v_neg(netlist: Netlist, a: Bits) -> Bits:
    return v_sub(netlist, constant(netlist, 0, len(a)), a)


def v_mul(netlist: Netlist, a: Bits, b: Bits) -> Bits:
    """Shift-and-add multiplier producing ``len(a) + len(b)`` bits."""
    width = len(a) + len(b)
    acc = constant(netlist, 0, width)
    for i, select in enumerate(b):
        shifted = extend(
            netlist, [netlist.const0()] * i + list(a), width
        )
        partial = [b_and(netlist, bit, select) for bit in shifted]
        acc = ripple_add(netlist, acc, partial, width)
    return acc


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------


def v_eq(netlist: Netlist, a: Bits, b: Bits) -> int:
    return reduce_and(netlist, v_xnor(netlist, a, b))


def v_ne(netlist: Netlist, a: Bits, b: Bits) -> int:
    return b_not(netlist, v_eq(netlist, a, b))


def v_ult(netlist: Netlist, a: Bits, b: Bits) -> int:
    """Unsigned ``a < b`` as the borrow out of ``a - b``."""
    width = max(len(a), len(b))
    a = extend(netlist, a, width)
    b = extend(netlist, b, width)
    borrow = netlist.const0()
    for x, y in zip(a, b):
        below = b_and(netlist, b_not(netlist, x), y)
        same = b_xnor(netlist, x, y)
        borrow = b_or(netlist, below, b_and(netlist, same, borrow))
    return borrow


def v_ule(netlist: Netlist, a: Bits, b: Bits) -> int:
    return b_not(netlist, v_ult(netlist, b, a))


# ---------------------------------------------------------------------------
# Shifts and selects
# ---------------------------------------------------------------------------


def shift_left_const(netlist: Netlist, a: Bits, amount: int) -> Bits:
    if amount >= len(a):
        return constant(netlist, 0, len(a))
    return extend(netlist, [netlist.const0()] * amount + list(a), len(a))


def shift_right_const(netlist: Netlist, a: Bits, amount: int) -> Bits:
    if amount >= len(a):
        return constant(netlist, 0, len(a))
    return extend(netlist, list(a[amount:]), len(a))


def _barrel(netlist: Netlist, a: Bits, amount: Bits, stage) -> Bits:
    result = list(a)
    for i, select in enumerate(amount):
        if (1 << i) >= len(a):
            # Any set high-order amount bit shifts everything out.
            result = v_mux(netlist, select, result,
                           constant(netlist, 0, len(a)))
        else:
            result = v_mux(netlist, select, result, stage(result, 1 << i))
    return result


def shift_left(netlist: Netlist, a: Bits, amount: Bits) -> Bits:
    return _barrel(netlist, a, amount,
                   lambda bits, n: shift_left_const(netlist, bits, n))


def shift_right(netlist: Netlist, a: Bits, amount: Bits) -> Bits:
    return _barrel(netlist, a, amount,
                   lambda bits, n: shift_right_const(netlist, bits, n))


def select_bit(netlist: Netlist, a: Bits, index: Bits) -> int:
    """Dynamic bit select ``a[index]``; out-of-range indices read as 0."""
    return shift_right(netlist, a, index)[0]
