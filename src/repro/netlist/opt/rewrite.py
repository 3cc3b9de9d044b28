"""DAG-aware rewriting: replace 4-cut cones with optimal NPN structures.

The classic ABC ``rewrite`` pass on this repo's hash-consed AIG.  For
every AND node, in topological order, the pass takes its 4-feasible cuts
together with their truth tables, which cut enumeration composes as it
goes (:func:`repro.netlist.opt.cut.enumerate_cut_truths`; no cone is
re-simulated — :func:`~repro.netlist.opt.cut.cut_truth` stays as the
reference oracle), and asks whether instantiating the precomputed
size-optimal structure for the function's NPN class would beat
rebuilding the node as-is:

* *saved* is the size of the node's maximal fanout-free cone w.r.t. the
  cut — the nodes that die with it, measured by one dereference walk
  over live fanout counts (:func:`_mffc`) that tallies the released
  references in a local map; committing a cut subtracts that tally, so
  the size a choice is made on and the release it commits are one walk;
* *cost* is the number of genuinely new AND nodes the replacement would
  insert, probed against the output graph's unique table *without*
  inserting anything — logic already built (by earlier replacements, by
  sharing with untouched cones) is free, which is what makes the pass
  DAG-aware rather than tree-local.  Rebuilding the node as it is costs
  one unique-table lookup unless a fold applies.  A probe is bounded:
  only a gain of at least ``max(rebuild gain, best gain so far)`` can
  change the choice, so the probe stops as soon as its cost rules that
  out, and is skipped when even a free structure could not reach it;
  the levels of the nodes it would add are worked out only for a probe
  that stays within its budget.  A function's cached
  NPN transforms often build the same ANDs over the cut's leaves; each
  table's plan groups them by that *leaf program*, and a cut probes each
  group once (:attr:`RewriteStats.probes` counts the probes run).

On top of the structural probe, every sweep keeps a *functional
cut-sweep table*: each committed node registers, for every cut evaluated
on it, the key (NPN class of the cut function, concrete literals feeding
the canonical inputs) mapped to its output literal.  A later node whose
cut hits an existing key computes the *same function of the same
literals* through a possibly completely different structure — it merges
into the committed cone at zero cost, harvesting its whole MFFC.  This
catches functional redundancy structural hashing can never see, without
any SAT.

A replacement is committed when it strictly saves nodes, or saves nothing
but strictly reduces the node's level (zero-gain depth rescue).
:func:`rewrite_aig` is one sweep — a single topological rebuild — plus a
compaction of the survivor cone, as ABC's ``rewrite`` is one pass.  A
second sweep over its output rebuilds the same AIG on every test and
benchmark design, so there is no sweep loop; a caller that wants more
effort runs the pass again (``optimize(passes=("rewrite", "rewrite"))``).
It is the ``rewrite`` pass of :func:`repro.netlist.opt.optimize`, which
runs it by default; listed ahead of ``fraig``, it lets SAT sweeping see
the smaller graph.

The sweep's gain is a prediction made against the graph as it stood:
:attr:`RewriteStats.nodes_saved` sums the committed gains, while
``ands_before - ands_after`` is the saving actually realized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...obs import get_tracer
from ..aig import _AND, AIG
from .cut import enumerate_cut_truths, npn_canon, npn_transforms
from .npn4 import NPN4_LIBRARY

__all__ = ["RewriteStats", "rewrite_aig"]


@dataclass
class RewriteStats:
    """Counters for one :func:`rewrite_aig` run.

    ``nodes_saved`` is the *predicted* saving (the sum of the committed
    replacements' gains); ``ands_before - ands_after`` is the *realized*
    one.  When the sweep grows the graph its result is discarded, so
    ``replacements``, ``zero_gain_depth`` and ``nodes_saved`` read 0.
    ``probes`` counts the structure probes the cut loop ran, not the
    per-node probe of rebuilding the node as-is.
    """

    ands_before: int = 0
    ands_after: int = 0
    cuts_evaluated: int = 0
    replacements: int = 0
    zero_gain_depth: int = 0
    nodes_saved: int = 0
    probes: int = 0

    def to_dict(self) -> dict:
        return {
            "ands_before": self.ands_before,
            "ands_after": self.ands_after,
            "cuts_evaluated": self.cuts_evaluated,
            "replacements": self.replacements,
            "zero_gain_depth": self.zero_gain_depth,
            "nodes_saved": self.nodes_saved,
            "probes": self.probes,
        }


def _mffc(aig: AIG, refs: dict[int, int], nid: int,
          leaves: tuple[int, ...], stop: set[int]
          ) -> tuple[int, dict[int, int]]:
    """``nid``'s MFFC size w.r.t. the cut ``leaves``, and the fanin
    references that removing the cone would release, by node.

    The edge walk of Abc_NodeDeref, with the released references tallied
    in a local map instead of taken off ``refs``: an AND fanin all of
    whose references are released dies with the cone and is descended
    into, unless it is a cut leaf or an already-replaced node (whose old
    fanins were released when it was rewritten).  The caller that commits
    the cut subtracts the tally from ``refs``.
    """
    kinds, fanin0, fanin1 = aig._kind, aig._fanin0, aig._fanin1
    released: dict[int, int] = {}
    size = 1
    stack = [nid]
    while stack:
        node = stack.pop()
        for fn in (fanin0[node] >> 1, fanin1[node] >> 1):
            count = released[fn] = released.get(fn, 0) + 1
            if count == refs[fn] and kinds[fn] == _AND \
                    and fn not in leaves and fn not in stop:
                size += 1
                stack.append(fn)
    return size, released


#: Virtual literals for not-yet-inserted nodes during a cost probe start
#: far above any real literal (node ids only grow by insertion).
_VIRT_BASE = 1 << 40


def _probe_structure(new: AIG, levels: dict[int, int], root: int,
                     nodes: tuple, inputs: tuple[int, ...], budget: int
                     ) -> Optional[tuple[int, int, Optional[int]]]:
    """Dry-run a structure against ``new``'s unique table.

    ``inputs`` are the literals on the structure's inputs, slots 1 and
    up: a library structure's formal inputs, or the cut's four leaves
    for a leaf program (see :func:`_leaf_program`).
    Mirrors :meth:`AIG.aig_and`'s folding exactly but inserts nothing:
    structure nodes that fold away or already exist are free, anything
    else becomes a virtual literal costing one node.  Returns
    ``(cost, level, real_root_lit)`` where ``real_root_lit`` is the
    concrete output literal when the whole structure resolved to existing
    logic (cost 0), else None.  Returns None as soon as the cost exceeds
    ``budget`` — the caller has no use for a candidate that expensive.
    """
    table = new._table
    # Virtual nodes created so far, by fanin key, in creation order; their
    # levels are worked out only for a probe that stays within budget.
    vtable: dict[tuple[int, int], int] = {}
    vals = [0, *inputs]
    cost = 0
    for l0, l1 in nodes:
        a = vals[l0 >> 1] ^ (l0 & 1)
        b = vals[l1 >> 1] ^ (l1 & 1)
        if a == b:
            r = a
        elif a == (b ^ 1) or a == 0 or b == 0:
            r = 0
        elif a == 1:
            r = b
        elif b == 1:
            r = a
        else:
            # A key with a virtual literal misses the real table.
            key = (a, b) if a < b else (b, a)
            r = table.get(key) or vtable.get(key)
            if r is None:
                if cost >= budget:
                    return None
                r = vtable[key] = _VIRT_BASE + 2 * cost
                cost += 1
        vals.append(r)
    out = vals[root >> 1] ^ (root & 1)
    if out < _VIRT_BASE:
        return cost, levels.get(out >> 1, 0), out
    vlevel: dict[int, int] = {}
    for (a, b), r in vtable.items():
        la = levels.get(a >> 1, 0) if a < _VIRT_BASE else vlevel[a >> 1]
        lb = levels.get(b >> 1, 0) if b < _VIRT_BASE else vlevel[b >> 1]
        vlevel[r >> 1] = 1 + (la if la >= lb else lb)
    return cost, vlevel[out >> 1], None


def _rebuild_as_is(new: AIG, levels: dict[int, int], a: int, b: int
                   ) -> tuple[int, int, Optional[int]]:
    """What rebuilding the AND of ``a`` and ``b`` would cost: the answer
    of the one-node probe ``_probe_structure(new, levels, 6, ((2, 4),),
    (a, b), 1)`` without its per-call setup — the same folds, else one
    unique-table lookup."""
    if a == b:
        r = a
    elif a == (b ^ 1) or a == 0 or b == 0:
        r = 0
    elif a == 1:
        r = b
    elif b == 1:
        r = a
    else:
        r = new._table.get((a, b) if a < b else (b, a))
        if r is None:
            la = levels.get(a >> 1, 0)
            lb = levels.get(b >> 1, 0)
            return 1, 1 + (la if la >= lb else lb), None
    return 0, levels.get(r >> 1, 0), r


def _build_structure(new: AIG, levels: dict[int, int], root: int,
                     nodes: tuple, inputs: tuple[int, ...]) -> int:
    """Actually insert a library structure; keeps ``levels`` current."""
    vals = [0, *inputs]
    for l0, l1 in nodes:
        a = vals[l0 >> 1] ^ (l0 & 1)
        b = vals[l1 >> 1] ^ (l1 & 1)
        r = new.aig_and(a, b)
        nid = r >> 1
        if nid not in levels:
            f0, f1 = new.fanins(nid)
            la = levels.get(f0 >> 1, 0)
            lb = levels.get(f1 >> 1, 0)
            levels[nid] = 1 + (la if la >= lb else lb)
        vals.append(r)
    return vals[root >> 1] ^ (root & 1)


#: Per 4-input truth table (so at most 65536 entries, like the NPN caches
#: in :mod:`repro.netlist.opt.cut`): its NPN class, the class's library
#: structure, the cached transforms onto the table, each decoded to
#: ``(perm[0..3], negation bit 0..3, output complement, group)``, and the
#: groups' leaf programs (see :func:`_leaf_program`).
_PLANS: dict[int, tuple] = {}


def _leaf_program(root: int, nodes: tuple, perm: tuple[int, ...],
                  flips: tuple[int, ...]) -> tuple[int, tuple]:
    """A transform's structure relabeled over the cut's leaf slots.

    Formal input ``i`` of the library structure ``(root, nodes)`` is fed
    by leaf slot ``perm[i]``, complemented when ``flips[i]``; the result
    is ``(root, nodes)`` in :func:`_probe_structure`'s format with the
    four leaf literals as its inputs and each node's fanins in ascending
    order.  Transforms with equal programs build the same ANDs over any
    leaf literals, so a probe of one answers for all of them.
    """
    slots = [0, *(2 * (p + 1) ^ f for p, f in zip(perm, flips))]

    def relabel(lit: int) -> int:
        # Slots 0-4 are the constant and the formal inputs; AND nodes
        # keep their literals.
        return slots[lit >> 1] ^ (lit & 1) if lit >> 1 < 5 else lit

    return relabel(root), tuple(tuple(sorted((relabel(l0), relabel(l1))))
                                for l0, l1 in nodes)


def _plan(tt4: int) -> tuple:
    """Compute and cache the :data:`_PLANS` entry of ``tt4``."""
    canon = npn_canon(tt4)[0]
    root, nodes = NPN4_LIBRARY[canon]
    groups: dict[tuple[int, tuple], int] = {}
    transforms = []
    for perm, neg, out in npn_transforms(tt4):
        flips = tuple((neg >> i) & 1 for i in range(4))
        program = _leaf_program(root ^ out, nodes, perm, flips)
        group = groups.setdefault(program, len(groups))
        transforms.append((*perm, *flips, out, group))
    plan = _PLANS[tt4] = (canon, root, nodes, tuple(transforms),
                          tuple(groups))
    return plan


def _sweep(aig: AIG, live: list[int], stats: RewriteStats) -> AIG:
    """One topological rewrite-and-rebuild sweep over the ascending
    ``live`` cone; returns the new AIG (its table may hold garbage —
    callers compact via :func:`_copy_live`)."""
    tracer = get_tracer()
    with tracer.span("rewrite.cuts"):
        cuts, tables = enumerate_cut_truths(aig, 4, nodes=live)
    with tracer.span("rewrite.eval") as span:
        new = _evaluate(aig, live, cuts, tables, stats)
        span.set(replacements=stats.replacements, probes=stats.probes)
    return new


def _evaluate(aig: AIG, live: list[int], cuts: dict, tables: dict,
              stats: RewriteStats) -> AIG:
    """The sweep's node loop: rebuild ``live`` into a new AIG, committing
    the best replacement found among each node's ``cuts``."""
    refs: dict[int, int] = {nid: 0 for nid in live}
    refs[0] = 0
    kinds = aig._kind
    for nid in live:
        if kinds[nid] == _AND:
            refs[aig._fanin0[nid] >> 1] += 1
            refs[aig._fanin1[nid] >> 1] += 1
    for lit in aig.and_roots():
        refs[lit >> 1] += 1

    new, lit_map = aig.start_rebuild()
    # Leaves sit at level 0; a literal that folds to a leaf must read it.
    levels: dict[int, int] = {lit >> 1: 0 for lit in lit_map.values()}

    replaced: set[int] = set()
    # Functional cut-sweep table: (NPN canon, concrete literals feeding
    # the canonical inputs) -> committed literal computing the canonical
    # function of those literals.  A hit means a functionally identical
    # cone (possibly structured completely differently) already exists in
    # the output graph, so the node merges into it at zero cost.
    func_map: dict[tuple[int, int, int, int, int], int] = {}
    evaluated = probes = 0
    for nid in live:
        if kinds[nid] != _AND:
            continue
        f0 = aig._fanin0[nid]
        f1 = aig._fanin1[nid]
        m0 = lit_map[f0 >> 1] ^ (f0 & 1)
        m1 = lit_map[f1 >> 1] ^ (f1 & 1)
        # Baseline: rebuild the node as-is.
        d_cost, d_level, d_lit = _rebuild_as_is(new, levels, m0, m1)
        d_gain = 1 - d_cost

        best = None
        # Flat: each evaluated transform's sweep-table key, then its
        # output complement.
        cut_keys: list = []
        for cut, tt4 in zip(cuts[nid], tables[nid]):
            if len(cut) < 2:
                continue
            evaluated += 1
            saved = _mffc(aig, refs, nid, cut, replaced)[0]
            canon, lib_root, lib_nodes, transforms, programs = \
                _PLANS.get(tt4) or _plan(tt4)
            leaf_lits = [lit_map[leaf] for leaf in cut]
            leaf_lits += [0] * (4 - len(leaf_lits))
            # Every cached transform instantiates the class structure
            # over the same leaves, and each yields a functional key for
            # the cut-sweep table.  Transforms whose leaf programs are
            # equal build the same ANDs, so each group is probed for
            # sharing at most once: within a cut the floor only rises
            # and an equal (gain, level) never replaces ``best``, so a
            # later member could not be chosen.
            probed = 0
            for p0, p1, p2, p3, n0, n1, n2, n3, out, group in transforms:
                key = (canon, leaf_lits[p0] ^ n0, leaf_lits[p1] ^ n1,
                       leaf_lits[p2] ^ n2, leaf_lits[p3] ^ n3)
                cut_keys.append(key)
                cut_keys.append(out)
                hit = func_map.get(key)
                if hit is not None:
                    # A committed cone already computes this function of
                    # these exact literals: merge for free, the whole
                    # MFFC is the gain.
                    gain = saved
                    level = levels.get(hit >> 1, 0)
                    cand = (gain, level, cut, 0, (), (), hit ^ out)
                else:
                    if probed >> group & 1:
                        continue
                    # Only a gain of at least ``floor`` can be committed
                    # or beat the best so far, so the probe stops once
                    # its cost passes ``saved - floor``.
                    floor = d_gain if best is None else best[0]
                    if saved < floor:
                        continue
                    probed |= 1 << group
                    probes += 1
                    prog_root, prog_nodes = programs[group]
                    probe = _probe_structure(new, levels, prog_root,
                                             prog_nodes, leaf_lits,
                                             saved - floor)
                    if probe is None:
                        continue
                    cost, level, real = probe
                    gain = saved - cost
                    cand = (gain, level, cut, lib_root ^ out, lib_nodes,
                            key[1:], real)
                if gain < d_gain or (gain == d_gain and level >= d_level):
                    continue
                if best is None or gain > best[0] or \
                        (gain == best[0] and level < best[1]):
                    best = cand

        if best is None:
            if d_lit is None:
                d_lit = new.aig_and(m0, m1)
                levels[d_lit >> 1] = d_level
            lit_map[nid] = d_lit
        else:
            gain, level, cut, root, nodes, inputs, real = best
            stats.replacements += 1
            if gain > d_gain:
                stats.nodes_saved += gain - d_gain
            else:
                stats.zero_gain_depth += 1
            released = _mffc(aig, refs, nid, cut, replaced)[1]
            for fn, count in released.items():
                refs[fn] -= count
            for leaf in cut:
                refs[leaf] += 1
            replaced.add(nid)
            if real is not None:
                lit_map[nid] = real
            else:
                lit_map[nid] = _build_structure(new, levels, root, nodes,
                                                inputs)
        # Register every evaluated cut's function of the final literal in
        # the sweep table so later nodes can merge into this cone.
        final = lit_map[nid]
        flat = iter(cut_keys)
        for key, out in zip(flat, flat):
            func_map.setdefault(key, final ^ out)
    stats.cuts_evaluated += evaluated
    stats.probes += probes
    aig.finish_rebuild(new, lit_map)
    return new


def _copy_live(aig: AIG) -> AIG:
    """Compact: copy only the live cone into a fresh AIG (drops the
    garbage that probing-then-rebuilding leaves in the unique table)."""
    out, lit_map = aig.start_rebuild()
    for nid in sorted(aig.cone(aig.and_roots())):
        if aig.is_and(nid):
            f0, f1 = aig.fanins(nid)
            lit_map[nid] = out.aig_and(lit_map[f0 >> 1] ^ (f0 & 1),
                                       lit_map[f1 >> 1] ^ (f1 & 1))
    aig.finish_rebuild(out, lit_map)
    return out


def rewrite_aig(aig: AIG, stats: Optional[RewriteStats] = None) -> AIG:
    """Run one rewrite sweep and return the compacted result.

    The sweep rebuilds the live cone once (see :func:`_sweep`) and
    :func:`_copy_live` compacts it.  If that grew the live AND count the
    input is returned unchanged (and ``stats`` reports no replacements).
    Purely structural — no SAT calls — so the cost is a small constant
    factor over plain strashing.
    """
    tracer = get_tracer()
    if stats is None:
        stats = RewriteStats()
    live = sorted(aig.cone(aig.and_roots()))
    before = stats.ands_before = sum(map(aig.is_and, live))
    with tracer.span("rewrite", ands_before=before) as span:
        swept = _sweep(aig, live, stats)
        with tracer.span("rewrite.compact"):
            swept = _copy_live(swept)
        if swept.num_ands > before:
            # The sweep grew the graph: keep the input, commit nothing.
            swept = aig
            stats.replacements = stats.zero_gain_depth = 0
            stats.nodes_saved = 0
            stats.ands_after = before
        else:
            stats.ands_after = swept.num_ands
        span.set(ands_after=stats.ands_after)
    return swept
