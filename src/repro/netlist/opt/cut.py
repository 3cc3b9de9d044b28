"""k-feasible cut enumeration and NPN canonicalization over the AIG.

This is the shared truth-table kernel behind DAG-aware rewriting
(:mod:`repro.netlist.opt.rewrite`) and the priority-cut LUT mapper
(:mod:`repro.netlist.opt.map`):

* :func:`enumerate_cuts` computes, bottom-up, the k-feasible cuts of every
  node in a cone — each cut a set of *leaf* nodes such that every path from
  the node to the primary inputs passes through a leaf.  Leaf sets are
  ``int`` bitmasks while merging, so union, size and dominance checks are
  single integer operations.  A kept merge reuses its child cuts' leaf
  tuples where their leaves do not interleave (the cases are listed in
  :func:`_enumerate`).
* :func:`enumerate_cut_truths` also carries each cut's truth table,
  composed from its two child cuts' tables during enumeration (stretch
  each over the merged leaves, complement per fanin edge, AND) — this is
  what the rewriter consumes.  The same merge cases spare most
  stretches.
* :func:`cut_truth` evaluates a cut's cone with packed *elementary* words
  (:func:`repro.netlist.sim.elementary_words` fed through
  :func:`repro.netlist.sim.packed_eval` — the same word-parallel core that
  drives FRAIG signatures), yielding the node's truth table over the cut
  leaves as a single int.  It is the reference oracle for the carried
  tables, and the mapper uses it for the few cuts it finally selects.
* :func:`npn_canon` reduces a 4-input truth table to its NPN class
  representative (input permutation x input negation x output negation:
  24 * 16 * 2 = 768 transforms, 222 classes over the 65536 functions) and
  reports the transform that maps the representative back onto the
  function — exactly what a rewriter needs to instantiate a precomputed
  optimal structure for the class over concrete cut-leaf literals.
* :func:`build_truth` materializes an arbitrary <= 6-input truth table
  into an AIG: <= 4 inputs via the precomputed size-optimal NPN structure
  library (:mod:`repro.netlist.opt.npn4`), 5-6 inputs by Shannon
  cofactoring into muxes of library cones.
"""

from __future__ import annotations

from itertools import chain, permutations
from typing import Iterable, Optional, Sequence

from ..aig import _AND, AIG
from ..sim import elementary_words, packed_eval
from .npn4 import NPN4_LIBRARY

__all__ = [
    "enumerate_cuts",
    "enumerate_cut_truths",
    "cut_cone",
    "cut_truth",
    "npn_canon",
    "npn_canonical",
    "build_truth",
]

_ONES4 = 0xFFFF


# ---------------------------------------------------------------------------
# Cut enumeration
# ---------------------------------------------------------------------------

def _swap_masks(k: int) -> tuple[tuple[int, int, int, int], ...]:
    """Per adjacent variable pair ``(j, j + 1)`` of a k-variable table:
    the masks and shift that exchange the two variables."""
    span = 1 << k
    out = []
    for j in range(k - 1):
        keep = m10 = m01 = 0
        for m in range(span):
            lo, hi = (m >> j) & 1, (m >> (j + 1)) & 1
            if lo == hi:
                keep |= 1 << m
            elif lo:
                m10 |= 1 << m
            else:
                m01 |= 1 << m
        out.append((keep, m10, m01, 1 << j))
    return tuple(out)


def _stretch(tt: int, positions: tuple[int, ...],
             swaps: Sequence[tuple[int, int, int, int]]) -> int:
    """Re-express a cut table over a superset of its leaves.

    ``tt`` depends on variables ``0..len(positions)-1`` only; variable
    ``i`` moves to ``positions[i]`` (ascending), by adjacent swaps from
    the top variable down, so every swap partner is a variable the
    table does not depend on.
    """
    for i in range(len(positions) - 1, -1, -1):
        for j in range(i, positions[i]):
            keep, m10, m01, s = swaps[j]
            tt = (tt & keep) | ((tt & m10) << s) | ((tt & m01) >> s)
    return tt


def _enumerate(aig: AIG, k: int, limit: int, nodes: Optional[Sequence[int]],
               truths: bool
               ) -> tuple[dict[int, list[tuple[int, ...]]],
                          Optional[dict[int, tuple[int, ...]]]]:
    """The cut enumeration behind :func:`enumerate_cuts` and
    :func:`enumerate_cut_truths`.

    Leaf sets are ``int`` bitmasks while merging (union ``|``, size
    ``bit_count``, domination ``p & u == p``); leaf tuples — and, with
    ``truths``, the tables — are built only for the cuts that are kept,
    by case: when every leaf of one child cut precedes every leaf of the
    other, the merged tuple is the two joined, the lower child's table
    stands as is and the upper one's only shifts its variables up; when
    the union is one child, that child's tuple and table stand as is.
    Only an interleaved union is sorted and both tables stretched.
    """
    if nodes is None:
        nodes = sorted(aig.cone(aig.and_roots()))
    kinds, fanin0, fanin1 = aig._kind, aig._fanin0, aig._fanin1
    full = (1 << (1 << k)) - 1
    var0 = elementary_words(k)[0] if k else 0
    swaps = _swap_masks(k)
    # Stretched tables, by (table, leaf positions) and, for a table whose
    # variables all shift up by ``s``, by (table, s).
    stretched: dict[tuple, int] = {}
    # Per node: its cuts, and as tuples (ints only, so the cyclic GC
    # stops tracking them) their bitmasks and truth tables.
    cuts: dict[int, list[tuple[int, ...]]] = {}
    masks: dict[int, tuple[int, ...]] = {}
    tables: dict[int, tuple[int, ...]] = {}

    def expand(tt: int, sub: tuple[int, ...], leaves: tuple[int, ...]
               ) -> int:
        positions = tuple(map(leaves.index, sub))
        if positions[-1] == len(positions) - 1:
            return tt
        key = (tt, positions)
        out = stretched.get(key)
        if out is None:
            out = stretched[key] = _stretch(tt, positions, swaps)
        return out

    def shift(tt: int, s: int, n: int) -> int:
        key = (tt, s)
        out = stretched.get(key)
        if out is None:
            out = stretched[key] = _stretch(tt, tuple(range(s, s + n)), swaps)
        return out

    for nid in nodes:
        node_cuts = cuts[nid] = [(nid,)]
        masks[nid] = (1 << nid,)
        tables[nid] = (var0,)
        if kinds[nid] != _AND:
            continue
        f0, f1 = fanin0[nid], fanin1[nid]
        n0, n1 = f0 >> 1, f1 >> 1
        l0 = cuts.get(n0) or [(n0,)]
        l1 = cuts.get(n1) or [(n1,)]
        m0 = masks.get(n0) or (1 << n0,)
        m1 = masks.get(n1) or (1 << n1,)
        t0 = tables.get(n0) or (var0,)
        t1 = tables.get(n1) or (var0,)
        node_tables = [var0]
        # Bucketing by size keeps insertion order within a size — the
        # same order as a stable sort of the merges by length.  A repeated
        # union needs no set to drop it: its first copy, or the cut that
        # dominated that copy, dominates it.
        by_size: list[list[tuple[int, int, int]]] = [[] for _ in range(k + 1)]
        for i, ma in enumerate(m0):
            for j, mb in enumerate(m1):
                u = ma | mb
                size = u.bit_count()
                if size <= k:
                    by_size[size].append((u, i, j))
        kept: list[int] = []
        for u, i, j in chain.from_iterable(by_size):
            for prev in kept:
                if prev & u == prev:
                    break
            else:
                kept.append(u)
                a, b = l0[i], l1[j]
                if a[-1] < b[0]:
                    leaves = a + b
                    if truths:
                        ta, tb = t0[i], shift(t1[j], len(a), len(b))
                elif b[-1] < a[0]:
                    leaves = b + a
                    if truths:
                        ta, tb = shift(t0[i], len(b), len(a)), t1[j]
                elif u == m0[i]:
                    leaves = a
                    if truths:
                        ta, tb = t0[i], expand(t1[j], b, a)
                elif u == m1[j]:
                    leaves = b
                    if truths:
                        ta, tb = expand(t0[i], a, b), t1[j]
                else:
                    leaves = tuple(sorted({*a, *b}))
                    if truths:
                        ta = expand(t0[i], a, leaves)
                        tb = expand(t1[j], b, leaves)
                node_cuts.append(leaves)
                if truths:
                    if f0 & 1:
                        ta ^= full
                    if f1 & 1:
                        tb ^= full
                    node_tables.append(ta & tb)
                if len(kept) >= limit:
                    break
        masks[nid] = (1 << nid, *kept)
        if truths:
            tables[nid] = tuple(node_tables)
    return cuts, (tables if truths else None)


def enumerate_cuts(aig: AIG, k: int = 4, limit: int = 8,
                   nodes: Optional[Sequence[int]] = None
                   ) -> dict[int, list[tuple[int, ...]]]:
    """Bottom-up k-feasible cut sets for every node of a cone.

    ``nodes`` defaults to the live cone of the AIG's outputs/next-state
    roots, in ascending-id (= topological) order.  Each node maps to a
    list of cuts — ascending tuples of leaf node ids — whose first entry
    is always the trivial cut ``(node,)``.  For an AND node the non-trivial
    cuts are the pairwise merges of its fanins' cut sets, deduplicated,
    filtered for domination (a cut whose leaves are a superset of another
    kept cut is redundant) and capped at ``limit`` per node, smallest
    first.  The cap is what makes this a *priority*-cut enumeration: cost
    is linear in ``limit**2`` per node instead of exponential.
    """
    return _enumerate(aig, k, limit, nodes, False)[0]


def enumerate_cut_truths(aig: AIG, k: int = 4, limit: int = 8,
                         nodes: Optional[Sequence[int]] = None
                         ) -> tuple[dict[int, list[tuple[int, ...]]],
                                    dict[int, tuple[int, ...]]]:
    """:func:`enumerate_cuts` plus each cut's truth table.

    Returns ``(cuts, tables)`` with ``tables[node][i]`` the function of
    ``cuts[node][i]``.  A kept cut's table is composed from its two child
    cuts' tables: each is stretched over the merged leaves, complemented
    when its fanin edge is, and the two are ANDed — no cone is simulated.
    Tables are ``k``-variable tables that depend on the first
    ``len(cut)`` variables only (a 4-cut table is ready for
    :func:`npn_canon` at any cut size), so the low ``2**len(cut)`` bits
    equal :func:`cut_truth` of the cut, which stays the reference oracle.
    """
    return _enumerate(aig, k, limit, nodes, True)


def cut_cone(aig: AIG, root: int, leaves: Iterable[int]) -> list[int]:
    """AND nodes strictly inside the cut's cone, ascending (topological)."""
    boundary = set(leaves)
    cone: set[int] = set()
    stack = [root]
    while stack:
        nid = stack.pop()
        if nid in cone or nid in boundary:
            continue
        cone.add(nid)
        f0, f1 = aig.fanins(nid)
        stack.append(f0 >> 1)
        stack.append(f1 >> 1)
    return sorted(cone)


def cut_truth(aig: AIG, root: int, leaves: Sequence[int]) -> int:
    """Truth table of ``root`` (positive literal) over the cut ``leaves``.

    Seeds the leaves with elementary words and runs the packed evaluator
    over the cut cone; the root's word is its truth table, one bit per
    assignment of the ``len(leaves)`` variables (leaf ``i`` = variable
    ``i``).
    """
    num_vars = len(leaves)
    mask = (1 << (1 << num_vars)) - 1
    elem = elementary_words(num_vars)
    words = {leaf: elem[i] for i, leaf in enumerate(leaves)}
    if root in words:
        return words[root]
    words[0] = 0
    packed_eval(aig, words, mask, cut_cone(aig, root, leaves))
    return words[root]


# ---------------------------------------------------------------------------
# NPN canonicalization of 4-input functions
# ---------------------------------------------------------------------------

#: The 384 input transforms (24 permutations x 16 negation masks), stored
#: as 16-entry source-index maps: applying transform ``t`` to a truth
#: table reads result bit ``m`` from source bit ``_NPN_MAPS[t][m]``, i.e.
#: ``T(f)(x0..x3) = f(x_{p(0)} ^ n_0, ..., x_{p(3)} ^ n_3)``.
_NPN_PERMS: list[tuple[int, ...]] = []
_NPN_NEGS: list[int] = []
_NPN_MAPS: list[tuple[int, ...]] = []


def _build_transforms() -> None:
    for perm in permutations(range(4)):
        for neg in range(16):
            m16 = []
            for m in range(16):
                src = 0
                for i in range(4):
                    bit = ((m >> perm[i]) & 1) ^ ((neg >> i) & 1)
                    src |= bit << i
                m16.append(src)
            _NPN_PERMS.append(perm)
            _NPN_NEGS.append(neg)
            _NPN_MAPS.append(tuple(m16))


_build_transforms()


def _apply_map(tt: int, m16: Sequence[int]) -> int:
    out = 0
    for m in range(16):
        if (tt >> m16[m]) & 1:
            out |= 1 << m
    return out


#: Lazy class-closure cache: tt -> (canonical tt, transform index, output
#: negation) such that tt == apply(transform, canon) ^ (out * 0xFFFF).
#: The first lookup in a class computes the canonical form, then fills the
#: cache for *every* member by transforming the representative — so each
#: of the 222 classes pays the 768-transform scan at most twice in total.
_CANON_CACHE: dict[int, tuple[int, int, int]] = {}

#: Per-member alternates: tt -> packed ``t * 2 + out`` transform codes.
#: Distinct transforms reaching the same member instantiate the class
#: structure over the cut leaves in distinct ways — the rewriter probes
#: each for sharing with already-built logic.
_TRANS_LISTS: dict[int, list[int]] = {}
_MAX_TRANSFORMS = 4


def npn_canon(tt: int) -> tuple[int, tuple[int, ...], int, int]:
    """Canonical NPN representative of a 4-input truth table.

    Returns ``(canon, perm, neg, out)`` with the transform mapping the
    representative back onto ``tt``::

        tt(x0, x1, x2, x3) == canon(x_{perm[0]} ^ neg_0, ...,
                                    x_{perm[3]} ^ neg_3) ^ out

    so a structure computing ``canon`` over formal inputs ``v0..v3``
    computes ``tt`` when input ``i`` is fed the literal for
    ``x_{perm[i]}`` complemented by bit ``i`` of ``neg``, with the root
    complemented by ``out``.  The canonical form is the minimum integer
    over all 768 transforms — a true class invariant.
    """
    tt &= _ONES4
    hit = _CANON_CACHE.get(tt)
    if hit is None:
        canon = _ONES4
        for m16 in _NPN_MAPS:
            g = _apply_map(tt, m16)
            if g < canon:
                canon = g
            g ^= _ONES4
            if g < canon:
                canon = g
        setdefault = _CANON_CACHE.setdefault
        lists = _TRANS_LISTS
        for t, m16 in enumerate(_NPN_MAPS):
            g = _apply_map(canon, m16)
            setdefault(g, (canon, t, 0))
            setdefault(g ^ _ONES4, (canon, t, 1))
            lst = lists.get(g)
            if lst is None:
                lists[g] = [t * 2]
            elif len(lst) < _MAX_TRANSFORMS:
                lst.append(t * 2)
            gi = g ^ _ONES4
            lst = lists.get(gi)
            if lst is None:
                lists[gi] = [t * 2 + 1]
            elif len(lst) < _MAX_TRANSFORMS:
                lst.append(t * 2 + 1)
        hit = _CANON_CACHE[tt]
    canon, t, out = hit
    return canon, _NPN_PERMS[t], _NPN_NEGS[t], out


def npn_canonical(tt: int) -> int:
    """Just the canonical representative of ``tt`` (class invariant)."""
    return npn_canon(tt)[0]


def npn_transforms(tt: int) -> list[tuple[tuple[int, ...], int, int]]:
    """Alternate ``(perm, neg, out)`` transforms mapping the canonical
    representative onto ``tt`` (same convention as :func:`npn_canon`).

    Distinct transforms yield functionally identical but structurally
    different instantiations of the class structure — candidate diversity
    for DAG-aware rewriting's sharing probe.  At most
    ``_MAX_TRANSFORMS`` per member are kept during the class fill.
    """
    tt &= _ONES4
    if tt not in _CANON_CACHE:
        npn_canon(tt)
    return [(_NPN_PERMS[code >> 1], _NPN_NEGS[code >> 1], code & 1)
            for code in _TRANS_LISTS[tt]]


# ---------------------------------------------------------------------------
# Truth table -> AIG structure
# ---------------------------------------------------------------------------

def _pad_to_4(tt: int, num_vars: int) -> int:
    """Zero-extend a <4-var truth table to 16 bits by block replication,
    making it a 4-var function that ignores the extra (high) variables."""
    span = 1 << num_vars
    while span < 16:
        tt |= tt << span
        span <<= 1
    return tt & _ONES4


def _build4(aig: AIG, tt: int, input_lits: Sequence[int]) -> int:
    """Instantiate the library structure for ``tt`` over 4 input literals."""
    canon, perm, neg, out = npn_canon(tt)
    root, nodes = NPN4_LIBRARY[canon]
    # Library literal encoding: slot 0 = const-false, slots 1-4 = the
    # structure's formal inputs v0..v3, slot 5+i = the i-th AND below.
    # Formal input i of the canonical structure receives x_{perm[i]}^neg_i.
    slots: list[int] = [0]
    slots.extend(input_lits[perm[i]] ^ ((neg >> i) & 1) for i in range(4))

    def resolve(slot_lit: int) -> int:
        return slots[slot_lit >> 1] ^ (slot_lit & 1)

    for l0, l1 in nodes:
        slots.append(aig.aig_and(resolve(l0), resolve(l1)))
    return resolve(root) ^ out


def build_truth(aig: AIG, tt: int, num_vars: int,
                input_lits: Sequence[int]) -> int:
    """Build the ``num_vars``-input function ``tt`` into ``aig``.

    ``input_lits[i]`` is the literal feeding variable ``i``; returns the
    output literal.  Functions of <= 4 inputs instantiate the size-optimal
    NPN library structure; 5- and 6-input functions Shannon-expand on the
    top variable into a mux of two smaller cones (the LUT mapper's k=6
    emission path).
    """
    if num_vars <= 4:
        lits4 = list(input_lits[:num_vars]) + [0] * (4 - num_vars)
        return _build4(aig, _pad_to_4(tt & ((1 << (1 << num_vars)) - 1),
                                      num_vars), lits4)
    half = 1 << (num_vars - 1)
    lo = tt & ((1 << half) - 1)
    hi = (tt >> half) & ((1 << half) - 1)
    if lo == hi:
        return build_truth(aig, lo, num_vars - 1, input_lits)
    f0 = build_truth(aig, lo, num_vars - 1, input_lits)
    f1 = build_truth(aig, hi, num_vars - 1, input_lits)
    return aig.aig_mux(input_lits[num_vars - 1], f0, f1)
