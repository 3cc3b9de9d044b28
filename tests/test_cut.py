"""Tests for the shared cut/NPN kernel, DAG-aware rewriting and LUT mapping.

The NPN canonicalizer is checked against a brute-force oracle over the
*entire* 4-input function space (all 65536 truth tables), the structure
library is independently re-evaluated entry by entry, and the rewrite and
mapping passes are verified the same way every other pass in this repo is:
SAT-proven equivalence on every elaborator test design, plus emit ->
re-elaborate -> CEC round trips for the mapped netlists.
"""

import itertools
import random

import pytest

from repro.netlist import elaborate
from repro.netlist.aig import AIG, from_netlist, to_netlist
from repro.netlist.emit import netlist_to_verilog
from repro.netlist.opt import (
    FraigStats,
    build_truth,
    cut_truth,
    enumerate_cut_truths,
    enumerate_cuts,
    fraig_sweep,
    map_aig,
    npn_canon,
    npn_canonical,
    optimize,
    rewrite_aig,
)
from repro.netlist.opt.cut import npn_transforms
from repro.netlist.opt.map import MapStats
from repro.netlist.opt.npn4 import NPN4_LIBRARY
from repro.netlist.opt.rewrite import (
    _PLANS,
    RewriteStats,
    _build_structure,
    _copy_live,
    _live_ands,
    _plan,
    _probe_structure,
    _sweep,
)
from repro.netlist.sat import check_equivalence
from repro.netlist.sim import aig_signatures, elementary_words
from repro.obs import Tracer, use_tracer

from test_opt import DESIGNS, DESIGN_IDS, _assert_equivalent
from test_serialize import DESIGNS as BENCH_DESIGNS
from test_serialize import _design_id, designs as bench_designs

_MASK16 = 0xFFFF

#: Truth tables of the four elementary variables over all 16 minterms
#: (bit ``x`` of variable ``i``'s table = bit ``i`` of the index ``x``).
_VARS4 = (0xAAAA, 0xCCCC, 0xF0F0, 0xFF00)


def _oracle_transform(tt: int, perm, neg: int, out: int) -> int:
    """Brute-force reference for the NPN transform semantics:
    ``result(x) = tt'`` such that ``result == canon`` iff
    ``tt(x) == canon(x_{perm[i]} ^ neg_i) ^ out`` for every minterm."""
    res = 0
    for x in range(16):
        y = 0
        for i in range(4):
            y |= (((x >> perm[i]) & 1) ^ ((neg >> i) & 1)) << i
        if ((tt >> x) & 1) ^ out:
            res |= 1 << y
    return res


# ---------------------------------------------------------------------------
# NPN canonicalization: brute-force oracle over all 2^16 functions
# ---------------------------------------------------------------------------


def test_npn_class_count_is_222_over_all_functions():
    """All 65536 4-input functions fall into exactly 222 NPN classes."""
    canons = {npn_canonical(tt) for tt in range(1 << 16)}
    assert len(canons) == 222
    # Every canon is itself a member of its own class.
    assert all(npn_canonical(c) == c for c in canons)
    # The canonical form is the class minimum, so no member is smaller.
    assert all(npn_canonical(tt) <= tt for tt in range(1 << 16))


def test_npn_canon_transform_is_sound_for_every_function():
    """The (perm, neg, out) returned for every function reproduces it."""
    for tt in range(1 << 16):
        canon, perm, neg, out = npn_canon(tt)
        y = 0
        for x in range(16):
            idx = 0
            for i in range(4):
                idx |= (((x >> perm[i]) & 1) ^ ((neg >> i) & 1)) << i
            y |= (((canon >> idx) & 1) ^ out) << x
        assert y == tt, f"transform for {tt:#06x} does not reproduce it"


def test_npn_canonical_invariant_under_random_transforms():
    rng = random.Random(2022)
    perms = list(itertools.permutations(range(4)))
    for _ in range(500):
        tt = rng.getrandbits(16)
        perm = perms[rng.randrange(24)]
        neg = rng.getrandbits(4)
        out = rng.getrandbits(1)
        other = _oracle_transform(tt, perm, neg, out)
        assert npn_canonical(other) == npn_canonical(tt)


def test_npn_transforms_all_sound():
    rng = random.Random(7)
    for _ in range(200):
        tt = rng.getrandbits(16)
        canon = npn_canonical(tt)
        alts = npn_transforms(tt)
        assert 1 <= len(alts) <= 4
        for perm, neg, out in alts:
            restored = 0
            for x in range(16):
                idx = 0
                for i in range(4):
                    idx |= (((x >> perm[i]) & 1) ^ ((neg >> i) & 1)) << i
                restored |= (((canon >> idx) & 1) ^ out) << x
            assert restored == tt


# ---------------------------------------------------------------------------
# The precomputed structure library
# ---------------------------------------------------------------------------


def _eval_structure(root: int, nodes) -> int:
    """Independently evaluate a library structure over the elementary
    variable truth tables (slot 0 = const false, slots 1-4 = v0..v3)."""
    vals = [0, *_VARS4]
    for l0, l1 in nodes:
        a = vals[l0 >> 1] ^ (-(l0 & 1) & _MASK16)
        b = vals[l1 >> 1] ^ (-(l1 & 1) & _MASK16)
        vals.append(a & b)
    return (vals[root >> 1] ^ (-(root & 1) & _MASK16)) & _MASK16


def test_npn4_library_covers_every_class_correctly():
    canons = {npn_canonical(tt) for tt in range(1 << 16)}
    assert set(NPN4_LIBRARY) == canons
    for canon, (root, nodes) in NPN4_LIBRARY.items():
        assert _eval_structure(root, nodes) == canon


# ---------------------------------------------------------------------------
# Cut enumeration and cut truth tables
# ---------------------------------------------------------------------------


def _aig_node_truth(aig: AIG, nid: int, var_of: dict) -> int:
    """Brute-force truth table of ``nid`` over the vars in ``var_of``."""
    n = len(var_of)
    words = [0] * aig.num_nodes
    elem = elementary_words(n)
    for leaf, var in var_of.items():
        words[leaf] = elem[var]
    mask = (1 << (1 << n)) - 1
    for node in sorted(aig.cone([nid << 1])):
        if node in var_of or not aig.is_and(node):
            continue
        f0, f1 = aig.fanins(node)
        a = words[f0 >> 1] ^ (-(f0 & 1) & mask)
        b = words[f1 >> 1] ^ (-(f1 & 1) & mask)
        words[node] = a & b
    return words[nid] & mask


def test_cut_enumeration_and_truths_on_small_design():
    source = """
    module f (input a, input b, input c, input d, output y);
      assign y = (a & b) | (c ^ d);
    endmodule
    """
    aig = from_netlist(elaborate(source, top="f"))
    cuts = enumerate_cuts(aig, k=4)
    for nid, node_cuts in cuts.items():
        assert node_cuts[0] == (nid,), "trivial cut must come first"
        for cut in node_cuts:
            assert len(cut) <= 4
            assert list(cut) == sorted(cut)
            tt = cut_truth(aig, nid, cut)
            var_of = {leaf: i for i, leaf in enumerate(cut)}
            assert tt == _aig_node_truth(aig, nid, var_of)


def _reference_cuts(aig: AIG, k: int, limit: int) -> dict:
    """Sorted-merge priority-cut enumeration over leaf tuples and sets:
    the plain statement of the algorithm the bitmask kernel implements."""
    cuts = {}
    for nid in sorted(aig.cone(aig.and_roots())):
        if not aig.is_and(nid):
            cuts[nid] = [(nid,)]
            continue
        f0, f1 = aig.fanins(nid)
        merged = []
        for a in cuts[f0 >> 1]:
            for b in cuts[f1 >> 1]:
                union = tuple(sorted(set(a) | set(b)))
                if len(union) <= k and union not in merged:
                    merged.append(union)
        merged.sort(key=len)
        kept = []
        for cand in merged:
            if not any(set(prev) <= set(cand) for prev in kept):
                kept.append(cand)
                if len(kept) >= limit:
                    break
        cuts[nid] = [(nid,)] + kept
    return cuts


@pytest.mark.parametrize("k,limit", [(4, 8), (6, 8), (3, 2)])
@pytest.mark.parametrize("name,source,top,params", DESIGNS, ids=DESIGN_IDS)
def test_enumerate_cuts_matches_reference(name, source, top, params, k,
                                          limit):
    aig = from_netlist(elaborate(source, top=top, params=params))
    assert enumerate_cuts(aig, k, limit) == _reference_cuts(aig, k, limit)


@pytest.mark.parametrize("k", [4, 6])
@pytest.mark.parametrize("name,source,top,params", DESIGNS, ids=DESIGN_IDS)
def test_carried_truth_tables_match_cut_truth(name, source, top, params, k):
    """Tables composed during enumeration equal the cone-simulating
    oracle on every kept cut, as k-variable tables that ignore the
    variables past the cut's leaves."""
    aig = from_netlist(elaborate(source, top=top, params=params))
    cuts, tables = enumerate_cut_truths(aig, k)
    assert cuts == enumerate_cuts(aig, k)
    for nid, node_cuts in cuts.items():
        assert len(tables[nid]) == len(node_cuts)
        for cut, tt in zip(node_cuts, tables[nid]):
            want, span = cut_truth(aig, nid, cut), 1 << len(cut)
            while span < 1 << k:
                want |= want << span
                span <<= 1
            assert tt == want, (nid, cut)


@pytest.mark.parametrize("num_vars", [2, 3, 4, 5, 6])
def test_build_truth_realizes_arbitrary_functions(num_vars):
    rng = random.Random(num_vars)
    span = 1 << num_vars
    mask = (1 << span) - 1
    for _ in range(20):
        tt = rng.getrandbits(span)
        aig = AIG("tt")
        lits = [aig.add_input(f"x{i}") for i in range(num_vars)]
        aig.add_output("y", build_truth(aig, tt, num_vars, lits))
        sigs = aig_signatures(aig, elementary_words(num_vars), [], mask)
        (_, out_lit), = aig.outputs
        got = sigs[out_lit >> 1] ^ (-(out_lit & 1) & mask)
        assert got & mask == tt


# ---------------------------------------------------------------------------
# DAG-aware rewriting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,source,top,params", DESIGNS, ids=DESIGN_IDS)
def test_rewrite_cec_round_trip(name, source, top, params):
    netlist = elaborate(source, top=top, params=params)
    aig = from_netlist(netlist)
    stats = RewriteStats()
    rewritten = rewrite_aig(aig, stats=stats)
    assert stats.ands_after <= stats.ands_before
    _assert_equivalent(netlist, to_netlist(rewritten))


#: Per design: the ``content_hash()`` of ``rewrite_aig`` on the elaborated
#: AIG, then ``optimize()`` gates and levels, then the ``content_hash()``
#: of the optimized netlist.  The rewrite digests are pinned from the
#: sorted-merge / cone-simulating rewriter; the bitmask kernel, carried
#: truth tables and bounded probing must not move them.  The netlist
#: digests pin the optimized netlists gate for gate, ids and names
#: included, so a restructured ``balance`` must not move them either.
PINNED = {
    "rca": ("2854d79834f8674e82b2829933105640150f5f7ef2f354bdffe951cdf03bf182",
            20, 9,
            "fabe8af80bbfcb09744eb66d4f5243cc154d0d141e67a6e4220fa9b32ae28dfa"),
    "alu": ("35ed6f1fe3009d65af27c71a3389dd426b2fe29ed59bdb404c27b9d174dd9063",
            95, 18,
            "a05c7bf99b59eeeda43c0949c19c88f855caa0c08e9461ab4a9a256ca75f9e93"),
    "alu_w8": ("2cc5a9978a6130f448d86c2fc0fba42a2608c7117fc479b61e5690df56cdd48e",
               183, 27,
               "d158e1a54eae67850368c84a89f2fe3046db230978689e771b3b104aa314b777"),
    "counter": ("1aa45d3c70386adfd5123dda22f30522b39b77f6735bc9df95746feefaccfa5a",
                15, 5,
                "2952665f6e1f9c579e02dc69131b8570010508b1c421e739a1c97958dbdd5d30"),
    "fsm": ("7ec2d3f89af0bf0874522a96bfecd88ba0cc3933f6deddbd26dd59fca113dfcd",
            8, 4,
            "5896a4d503d6af7fc43349c0488852fb237583fe9839bce66b318537ce6fc45e"),
    "muxtree": ("96ff6a2f62b6ee8dfd9e78efdda2bfcd4749871d34bb16b509cc7d0586733169",
                7, 3,
                "f6cb2c31824dfde86306a07d312f329034d54a20f8284564016791fe3a7526e1"),
    "shifter": ("1f845300ea5ba90ff5fd08894f71e261b0e7ef5df834f7163b2d101c7a633242",
                143, 20,
                "13fa58b564dc0d6f80f186e7d1396859c1a7e5fbbd3b92f83d79fcca94637828"),
    "forloop": ("7a88cd6f916b291965285375208e013d83fb552f31e9339f7b56440897ee6368",
                0, 0,
                "16e9339c7d7a26e16b2db9dd9bc35c8935216e91b74fc75a1df0e461c67431fc"),
    "shiftreg": ("56876afe53c0a6d0d0362ab997123c64bf78db7698c2351e4a9dcace51cd7968",
                 0, 0,
                 "e5721d0ef3d0757861a82aa6dfe0d2b593086495a8da33109e4acfcf5c1e7061"),
}


@pytest.mark.parametrize("name,source,top,params", DESIGNS, ids=DESIGN_IDS)
def test_rewrite_and_optimize_match_pinned_results(name, source, top,
                                                   params):
    netlist = elaborate(source, top=top, params=params)
    digest, gates, levels, optimized = PINNED[name]
    assert rewrite_aig(from_netlist(netlist)).content_hash() == digest
    result = optimize(netlist)
    assert (result.gates_after, result.levels_after) == (gates, levels)
    assert result.netlist.content_hash() == optimized


@pytest.mark.parametrize("name,source,top,params", DESIGNS, ids=DESIGN_IDS)
def test_compacted_sweep_has_only_live_ands(name, source, top, params):
    """``rewrite_aig`` counts a compacted sweep by ``num_ands``: after
    ``_copy_live`` every AND in the unique table is live."""
    aig = from_netlist(elaborate(source, top=top, params=params))
    swept = _sweep(aig, RewriteStats())
    compact = _copy_live(swept)
    assert compact.num_ands == len(_live_ands(compact)) \
        == len(_live_ands(swept))


def test_probe_stops_once_cost_passes_budget():
    canon = max(NPN4_LIBRARY, key=lambda c: len(NPN4_LIBRARY[c][1]))
    root, nodes = NPN4_LIBRARY[canon]
    new = AIG("probe")
    inputs = tuple(new.add_input(f"x{i}") for i in range(4))
    levels = {0: 0, **{lit >> 1: 0 for lit in inputs}}
    cost, level, real = _probe_structure(new, levels, root, nodes, inputs,
                                         len(nodes))
    assert cost == len(nodes) and real is None
    assert _probe_structure(new, levels, root, nodes, inputs,
                            cost - 1) is None
    assert _probe_structure(new, levels, root, nodes, inputs,
                            cost) == (cost, level, None)
    # Built logic is free: once the structure exists the probe costs 0
    # and resolves to the real root literal under any budget.
    built = _build_structure(new, levels, root, nodes, inputs)
    assert _probe_structure(new, levels, root, nodes, inputs, 0) == \
        (0, level, built)


def _wide_alu():
    from test_elaborate import ALU

    return elaborate(ALU, top="alu", params={"W": 16})


def _design_plans() -> list[tuple]:
    """The :data:`_PLANS` entries of every 4-cut of the test designs."""
    seen = set()
    for name, source, top, params in DESIGNS:
        aig = from_netlist(elaborate(source, top=top, params=params))
        live = sorted(aig.cone(aig.and_roots()))
        cuts, tables = enumerate_cut_truths(aig, 4, 8, live)
        for nid in cuts:
            seen.update(tt for cut, tt in zip(cuts[nid], tables[nid])
                        if len(cut) >= 2)
    return [_PLANS.get(tt) or _plan(tt) for tt in sorted(seen)]


def test_leaf_programs_probe_like_their_transforms():
    """A group's leaf program answers every member's probe exactly:
    same ``(cost, level, real)`` (or the same refusal) under every
    budget, on a graph that already holds logic, and over leaf literals
    that repeat, complement each other or are constant."""
    new = AIG("probe")
    xs = [new.add_input(f"x{i}") for i in range(4)]
    levels = {0: 0, **{lit >> 1: 0 for lit in xs}}
    built = list(xs)
    for canon in list(NPN4_LIBRARY)[10:40:3]:
        root, nodes = NPN4_LIBRARY[canon]
        built.append(_build_structure(new, levels, root, nodes,
                                      (xs[1], xs[3] ^ 1, xs[0], xs[2])))
    rng = random.Random(7)
    pool = [0, 1, *built, *(lit ^ 1 for lit in built)]
    leaf_sets = [
        xs,
        [xs[2], xs[0], xs[3], xs[1] ^ 1],
        [xs[0], xs[0], xs[1], xs[2]],
        [xs[0], xs[0] ^ 1, xs[1], xs[1] ^ 1],
        [0, 1, xs[0], xs[1]],
        [xs[0], xs[1], 0, 0],
        *([rng.choice(pool) for _ in range(4)] for _ in range(6)),
    ]
    plans = _design_plans()
    assert any(len(p[4]) < len(p[3]) for p in plans)
    checked = 0
    for canon, lib_root, lib_nodes, transforms, programs in plans:
        for p0, p1, p2, p3, n0, n1, n2, n3, out, group in transforms:
            prog_root, prog_nodes = programs[group]
            for leaves in leaf_sets:
                inputs = (leaves[p0] ^ n0, leaves[p1] ^ n1,
                          leaves[p2] ^ n2, leaves[p3] ^ n3)
                for budget in range(len(lib_nodes) + 1):
                    assert _probe_structure(
                        new, levels, lib_root ^ out, lib_nodes, inputs,
                        budget) == _probe_structure(
                        new, levels, prog_root, prog_nodes, leaves, budget)
                    checked += 1
    assert checked > 1000


def test_rewrite_probes_each_leaf_program_once_per_cut():
    """The W=16 ALU's probe count is deterministic.  Probing every
    transform of every cut, as before leaf programs were grouped, took
    12941 probes over the same 3744 cuts."""
    stats = RewriteStats()
    rewrite_aig(from_netlist(_wide_alu()), stats=stats)
    assert (stats.cuts_evaluated, stats.probes) == (3744, 5182)
    assert stats.to_dict()["probes"] == stats.probes


@pytest.mark.parametrize("name,source,top,params",
                         [*DESIGNS, ("alu_w16", None, "alu", None)],
                         ids=[*DESIGN_IDS, "alu_w16"])
def test_rewrite_is_idempotent(name, source, top, params):
    """A second sweep over a rewritten AIG rebuilds it byte for byte,
    which is why ``rewrite_aig`` runs exactly one sweep."""
    netlist = (_wide_alu() if source is None
               else elaborate(source, top=top, params=params))
    once = rewrite_aig(from_netlist(netlist))
    assert rewrite_aig(once).content_hash() == once.content_hash()


#: The carry-save array multiplier of the flow benchmark, on whose AIG a
#: rewrite sweep grows the graph (300 -> 318 live ANDs at W=6).
MULTIPLIER = """
module multiplier #(parameter W = 6) (
  input [W-1:0] a, input [W-1:0] b,
  output reg [2*W-1:0] p
);
  reg [2*W-1:0] aw;
  reg [2*W-1:0] row;
  reg [2*W-1:0] s;
  reg [2*W-1:0] c;
  reg [2*W-1:0] t;
  integer i;
  always @(*) begin
    aw = a;
    s = 0;
    c = 0;
    for (i = 0; i < W; i = i + 1) begin
      row = b[i] ? (aw << i) : 0;
      t = s ^ row ^ c;
      c = ((s & row) | (s & c) | (row & c)) << 1;
      s = t;
    end
    p = s + c;
  end
endmodule
"""


def test_rewrite_counters_are_zero_when_the_sweep_grows():
    """A discarded sweep commits nothing: ``nodes_saved`` (the predicted
    saving) must not claim replacements the result does not contain."""
    aig = from_netlist(elaborate(MULTIPLIER, top="multiplier"))
    sweep_stats = RewriteStats()
    grown = _copy_live(_sweep(aig, sweep_stats))
    assert grown.num_ands > len(_live_ands(aig))
    assert sweep_stats.replacements > 0 and sweep_stats.nodes_saved > 0

    stats = RewriteStats()
    assert rewrite_aig(aig, stats=stats) is aig
    assert stats.ands_after == stats.ands_before == len(_live_ands(aig))
    assert stats.cuts_evaluated == sweep_stats.cuts_evaluated
    assert (stats.replacements, stats.zero_gain_depth,
            stats.nodes_saved) == (0, 0, 0)


def test_rewrite_counters_on_a_shrinking_sweep():
    """On the wide ALU the sweep is kept and its counters stand: the
    realized saving is the live-AND delta, which the predicted
    ``nodes_saved`` overstates on this design."""
    aig = from_netlist(_wide_alu())
    stats = RewriteStats()
    rewritten = rewrite_aig(aig, stats=stats)
    assert stats.ands_after == rewritten.num_ands < stats.ands_before
    assert stats.replacements > 0
    assert 0 < stats.ands_before - stats.ands_after <= stats.nodes_saved


def test_rewrite_reduces_wide_alu_beyond_strash_balance():
    """The acceptance floor: rewrite finds real savings structural
    hashing misses on the W=16 ALU datapath."""
    from test_elaborate import ALU

    netlist = elaborate(ALU, top="alu", params={"W": 16})
    aig = from_netlist(netlist)
    rewritten = rewrite_aig(aig)
    assert rewritten.num_ands < aig.num_ands
    _assert_equivalent(netlist, to_netlist(rewritten))


# ---------------------------------------------------------------------------
# QoR floors on the benchmark generators (perfbench/designs.py)
# ---------------------------------------------------------------------------


def _bench_aig(factory, width):
    design = factory(width)
    return from_netlist(elaborate(design.src, top=design.top))


@pytest.mark.parametrize("factory", BENCH_DESIGNS, ids=_design_id)
def test_fraig_never_increases_live_ands(factory):
    """Merges only redirect fanouts onto existing nodes, so the live AND
    count can only shrink (adder 70 -> 68, ALU 275 -> 252, multiplier
    300 -> 296 at W=6)."""
    aig = _bench_aig(factory, 6)
    stats = FraigStats()
    fraig_sweep(aig, stats=stats)
    assert stats.ands_before == aig.num_ands
    assert stats.ands_after <= stats.ands_before


def test_rewrite_removes_five_percent_of_the_benchmark_alu():
    """The rewrite floor on the W=16 benchmark ALU: at least 5% of the
    structurally hashed AND nodes go (755 -> 696, 7.8%, today)."""
    aig = _bench_aig(bench_designs.alu, 16)
    rewritten = rewrite_aig(aig)
    assert rewritten.num_ands <= 0.95 * aig.num_ands


def test_fraig_after_rewrite_makes_no_more_sat_checks():
    """Rewriting first must not make the downstream SAT sweep work
    harder on the W=16 benchmark ALU (58 -> 32 SAT checks today)."""
    aig = _bench_aig(bench_designs.alu, 16)
    checks = []
    for graph in (aig, rewrite_aig(aig)):
        stats = FraigStats()
        fraig_sweep(graph, stats=stats)
        checks.append(stats.sat_checks)
    assert checks[1] <= checks[0]


# ---------------------------------------------------------------------------
# Priority-cut LUT mapping
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [4, 6])
@pytest.mark.parametrize("name,source,top,params", DESIGNS, ids=DESIGN_IDS)
def test_map_emit_reelaborate_cec(name, source, top, params, k):
    """k-LUT mapping round-trips through Verilog emission and CEC."""
    netlist = elaborate(source, top=top, params=params)
    result = map_aig(from_netlist(netlist), k=k)
    assert result.lut_count == len(result.luts)
    for lut in result.luts:
        assert 0 < len(lut.inputs) <= k
    mapped = result.to_netlist()
    _assert_equivalent(netlist, mapped)
    # Emit -> re-elaborate -> CEC: the mapped netlist survives the
    # Verilog round trip.
    emitted = netlist_to_verilog(mapped)
    reloaded = elaborate(emitted, top=netlist.name)
    _assert_equivalent(netlist, reloaded)


@pytest.mark.parametrize("name,source,top,params", DESIGNS, ids=DESIGN_IDS)
def test_map_depth_never_exceeds_depth_target(name, source, top, params):
    """Area recovery must never undo the depth pass's guarantee."""
    netlist = elaborate(source, top=top, params=params)
    for k in (4, 6):
        stats = MapStats()
        result = map_aig(from_netlist(netlist), k=k, stats=stats)
        assert result.depth <= stats.depth_target


def test_map_rejects_bad_lut_sizes():
    aig = AIG("x")
    aig.add_output("y", aig.add_input("a"))
    with pytest.raises(ValueError):
        map_aig(aig, k=1)
    with pytest.raises(ValueError):
        map_aig(aig, k=7)


# ---------------------------------------------------------------------------
# FRAIG reuses caller-provided signatures
# ---------------------------------------------------------------------------


def test_fraig_accepts_precomputed_signatures():
    """Handing stage-1 stimulus + signatures in changes nothing but the
    work: the sweep result is identical to computing them internally."""
    from test_elaborate import ALU

    netlist = elaborate(ALU, top="alu", params={"W": 8})
    aig = from_netlist(netlist)
    patterns = 64
    rng = random.Random(99)
    leaves = list(aig.inputs) + list(aig.latches)
    words = {nid: rng.getrandbits(patterns) for nid in leaves}
    mask = (1 << patterns) - 1
    sigs = aig_signatures(
        aig,
        [words[nid] for nid in aig.inputs],
        [words[nid] for nid in aig.latches],
        mask,
    )
    with_sigs = fraig_sweep(aig, patterns=patterns,
                            words=words, signatures=sigs)
    without = fraig_sweep(aig, patterns=patterns, words=words)
    assert with_sigs.aig.num_ands == without.aig.num_ands
    assert with_sigs.stats.proven == without.stats.proven
    _assert_equivalent(netlist, to_netlist(with_sigs.aig))


@pytest.mark.parametrize("certify", [False, True])
def test_cec_sweep_skips_pairs_a_counterexample_separates(certify):
    """Candidate pairs that a counterexample found earlier in the same
    round already separates are refuted by simulation, not SAT.  Merges
    still need an UNSAT proof, so the proofs, the sweep-proven outputs
    and the verdict are those of the unfiltered sweep (19 proofs and 17
    outputs, in 6 rounds, on this miter)."""
    netlist = _wide_alu()
    optimized = optimize(netlist).netlist
    tracer = Tracer()
    with use_tracer(tracer):
        verdict = check_equivalence(netlist, optimized, certify=certify)
    assert verdict.equivalent
    assert verdict.sweep_proven == verdict.compared == 17
    (sweep,) = [r.args for r in tracer.records if r.name == "fraig"]
    assert sweep["sim_refuted"] > 0
    assert sweep["sat_checks"] == sweep["proven"] + sweep["refuted"]
    assert (sweep["proven"], sweep["rounds"]) == (19, 6)
    rounds = [r.args for r in tracer.records if r.name == "fraig.round"]
    assert sum(r["sim_refuted"] for r in rounds) == sweep["sim_refuted"]
    if certify:
        # Every merge proof passed the DRAT checker (proofs_failed == 0).
        assert verdict.proof_checked is True


def test_fraig_filter_keeps_complemented_pairs_for_sat():
    """Under stimulus where ``b == c``, ``a & b`` and ``a & c`` collide and
    SAT refutes them with a counterexample (``a = 1``, ``b != c``).  Later
    in the same round that counterexample separates ``a & ~c`` from
    ``a & ~b`` (no SAT call), but must not separate XNOR(a, b) from its
    complement XOR(a, b): that pair still goes to SAT and merges."""
    aig = AIG("filter")
    a, b, c = (aig.add_input(name) for name in "abc")

    def or_(x, y):
        return aig.aig_and(x ^ 1, y ^ 1) ^ 1

    ab, ac = aig.aig_and(a, b), aig.aig_and(a, c)
    xor = or_(aig.aig_and(a, b ^ 1), aig.aig_and(a ^ 1, b))
    xnor = or_(ab, aig.aig_and(a ^ 1, b ^ 1))
    a_not_c = aig.aig_and(a, c ^ 1)
    for name, lit in (("ab", ab), ("ac", ac), ("xor", xor), ("xnor", xnor),
                      ("a_not_c", a_not_c)):
        aig.add_output(name, lit)
    words = {a >> 1: 0b0101, b >> 1: 0b0011, c >> 1: 0b0011}
    swept = fraig_sweep(aig, patterns=4, words=words)
    stats = swept.stats
    assert (stats.refuted, stats.sim_refuted, stats.proven) == (1, 1, 1)
    assert stats.sat_checks == stats.proven + stats.refuted
    assert swept.map_lit(xnor) == swept.map_lit(xor) ^ 1
    assert swept.map_lit(ab) != swept.map_lit(ac)
    _assert_equivalent(to_netlist(aig), to_netlist(swept.aig))
