"""Priority-cut k-LUT technology mapping over the AIG.

The classic depth-then-area mapping flow on top of the shared cut/NPN
kernel (:mod:`repro.netlist.opt.cut`):

1. **Depth pass** — every AND node picks, among its priority cuts, the
   one minimizing LUT-level arrival time (area flow breaks ties); the
   maximum root arrival becomes the mapping's depth target.
2. **Area-flow pass** — required times are propagated backwards through
   the chosen cover; each node then re-picks the cheapest cut by area
   flow (a fanout-discounted estimate of global area) among cuts meeting
   its required time.
3. **Exact-area pass** — the cover is reference-counted at the LUT level
   and each covered node greedily trials its cuts with the incremental
   dereference/re-reference area measure (a cut's exact area = LUTs that
   would vanish if it were deselected), committing strict improvements.

Area recovery is bounded by a depth guarantee: if the refined cover ends
deeper than the depth pass's target, the mapper falls back to the stored
depth-pass cuts, so :attr:`MapResult.depth` never exceeds the
depth-optimal mapping the first pass found.

The result is a LUT network over source-AIG node ids with per-LUT truth
tables.  :meth:`MapResult.to_netlist` re-materializes it as a gate-level
netlist (each LUT rebuilt from its truth table via the NPN structure
library / Shannon decomposition), which flows through the existing
Verilog emitter and is checked by the existing CEC path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...obs import get_tracer
from ..aig import _AND, AIG, to_netlist
from ..logic import Netlist
from .cut import build_truth, cut_truth, enumerate_cuts

__all__ = ["LUT", "MapStats", "MapResult", "map_aig"]

_INF = float("inf")


@dataclass(frozen=True)
class LUT:
    """One mapped LUT: ``output`` computes ``truth`` over ``inputs``.

    All ids are source-AIG node ids; ``truth`` holds ``2**len(inputs)``
    bits, input ``i`` of the cut being truth-table variable ``i``.
    """

    output: int
    inputs: tuple[int, ...]
    truth: int


@dataclass
class MapStats:
    """Counters for one :func:`map_aig` run."""

    k: int = 0
    ands: int = 0
    lut_count: int = 0
    depth: int = 0
    depth_target: int = 0
    area_flow_luts: int = 0
    exact_area_luts: int = 0
    depth_fallback: bool = False

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "ands": self.ands,
            "lut_count": self.lut_count,
            "depth": self.depth,
            "depth_target": self.depth_target,
            "area_flow_luts": self.area_flow_luts,
            "exact_area_luts": self.exact_area_luts,
            "depth_fallback": self.depth_fallback,
        }


@dataclass
class MapResult:
    """A k-LUT cover of the source AIG.

    ``luts`` are in topological (ascending output id) order; ``depth`` is
    the LUT-level depth of the cover; ``stats`` carries the per-pass
    counters including the depth pass's ``depth_target`` the final cover
    is guaranteed not to exceed.
    """

    aig: AIG
    k: int
    luts: list[LUT]
    depth: int
    stats: MapStats

    @property
    def lut_count(self) -> int:
        return len(self.luts)

    def to_netlist(self) -> Netlist:
        """Re-materialize the LUT network as a gate-level netlist.

        Each LUT's truth table is rebuilt into a fresh AIG over its cut
        leaves (NPN library for <=4 inputs, Shannon muxes above), then
        lowered through the standard AIG-to-netlist path — the interface
        (PI/PO/latch names) matches the source, so the result CECs
        against the original design.
        """
        src = self.aig
        out = AIG(src.name)
        lit_map = {0: 0}
        for nid in src.inputs:
            lit_map[nid] = out.add_input(src.node_name(nid))
        for nid in src.latches:
            lit_map[nid] = out.add_latch(src.node_name(nid))
        for lut in self.luts:
            lits = [lit_map[leaf] for leaf in lut.inputs]
            lit_map[lut.output] = build_truth(out, lut.truth,
                                              len(lut.inputs), lits)
        for name, lit in src.outputs:
            out.add_output(name, lit_map[lit >> 1] ^ (lit & 1))
        for qnid in src.latches:
            if qnid in src._next:
                nxt = src._next[qnid]
                out.set_next(lit_map[qnid],
                             lit_map[nxt >> 1] ^ (nxt & 1))
        return to_netlist(out)

    def to_report(self) -> dict:
        return {
            "k": self.k,
            "lut_count": self.lut_count,
            "depth": self.depth,
            "depth_target": self.stats.depth_target,
        }


def _root_nodes(aig: AIG) -> set[int]:
    return {lit >> 1 for lit in aig.and_roots()}


def _cover_of(aig: AIG, best_cut: dict[int, tuple[int, ...]],
              roots: set[int]) -> list[int]:
    """Covered AND nodes (those realized as LUTs), ascending id."""
    kinds = aig._kind
    needed: set[int] = set()
    stack = [nid for nid in roots if kinds[nid] == _AND]
    while stack:
        nid = stack.pop()
        if nid in needed:
            continue
        needed.add(nid)
        for leaf in best_cut[nid]:
            if kinds[leaf] == _AND:
                stack.append(leaf)
    return sorted(needed)


def map_aig(aig: AIG, k: int = 4,
            stats: Optional[MapStats] = None) -> MapResult:
    """Map the live cone of ``aig`` into k-input LUTs (2 <= k <= 6)."""
    if not 2 <= k <= 6:
        raise ValueError("LUT size k must be between 2 and 6")
    tracer = get_tracer()
    if stats is None:
        stats = MapStats()
    stats.k = k
    kinds = aig._kind
    live = sorted(aig.cone(aig.and_roots()))
    ands = [nid for nid in live if kinds[nid] == _AND]
    stats.ands = len(ands)
    roots = _root_nodes(aig)

    with tracer.span("map", k=k, ands=len(ands)):
        cuts = enumerate_cuts(aig, k, nodes=live)
        # Structural fanout counts discount shared logic in area flow.
        refs: dict[int, int] = {nid: 0 for nid in live}
        refs[0] = 0
        for nid in ands:
            refs[aig._fanin0[nid] >> 1] += 1
            refs[aig._fanin1[nid] >> 1] += 1
        for lit in aig.and_roots():
            refs[lit >> 1] += 1

        arrival: dict[int, int] = {nid: 0 for nid in live
                                   if kinds[nid] != _AND}
        arrival[0] = 0
        flow: dict[int, float] = {nid: 0.0 for nid in arrival}
        best_cut: dict[int, tuple[int, ...]] = {}

        # -- pass 1: depth-oriented ------------------------------------
        with tracer.span("map.depth"):
            for nid in ands:
                best = None
                for cut in cuts[nid][1:]:
                    arr = 1 + max(arrival[leaf] for leaf in cut)
                    af = 1.0 + sum(flow[leaf] for leaf in cut)
                    if best is None or (arr, af) < (best[0], best[1]):
                        best = (arr, af, cut)
                arr, af, cut = best
                best_cut[nid] = cut
                arrival[nid] = arr
                flow[nid] = af / max(1, refs[nid])
        depth_target = max((arrival[nid] for nid in roots), default=0)
        stats.depth_target = depth_target
        depth_cuts = dict(best_cut)
        cover = _cover_of(aig, best_cut, roots)

        def required_times() -> dict[int, float]:
            req: dict[int, float] = {nid: depth_target for nid in roots}
            for nid in reversed(cover):
                r = req.get(nid, depth_target)
                for leaf in best_cut[nid]:
                    limit = r - 1
                    if req.get(leaf, _INF) > limit:
                        req[leaf] = limit
            return req

        # -- pass 2: area flow under required times --------------------
        with tracer.span("map.area_flow"):
            req = required_times()
            for nid in ands:
                need = req.get(nid, _INF)
                best = None
                fallback = None
                for cut in cuts[nid][1:]:
                    arr = 1 + max(arrival[leaf] for leaf in cut)
                    af = 1.0 + sum(flow[leaf] for leaf in cut)
                    if fallback is None or (arr, af) < fallback[:2]:
                        fallback = (arr, af, cut)
                    if arr > need:
                        continue
                    if best is None or (af, arr) < (best[0], best[1]):
                        best = (af, arr, cut)
                if best is None:
                    arr, af, cut = fallback
                else:
                    af, arr, cut = best
                best_cut[nid] = cut
                arrival[nid] = arr
                flow[nid] = af / max(1, refs[nid])
            cover = _cover_of(aig, best_cut, roots)
            stats.area_flow_luts = len(cover)

        # -- pass 3: exact area ----------------------------------------
        with tracer.span("map.exact_area"):
            map_refs: dict[int, int] = {nid: 0 for nid in live}
            for nid in roots:
                if kinds[nid] == _AND:
                    map_refs[nid] += 1
            for nid in cover:
                for leaf in best_cut[nid]:
                    map_refs[leaf] += 1

            def cut_ref(cut: tuple[int, ...]) -> int:
                area = 1
                for leaf in cut:
                    if kinds[leaf] == _AND:
                        if map_refs[leaf] == 0:
                            area += cut_ref(best_cut[leaf])
                        map_refs[leaf] += 1
                return area

            def cut_deref(cut: tuple[int, ...]) -> int:
                area = 1
                for leaf in cut:
                    if kinds[leaf] == _AND:
                        map_refs[leaf] -= 1
                        if map_refs[leaf] == 0:
                            area += cut_deref(best_cut[leaf])
                return area

            req = required_times()
            for nid in reversed(cover):
                if map_refs[nid] == 0:
                    continue
                need = req.get(nid, _INF)
                current = best_cut[nid]
                old_area = cut_deref(current)
                best = (old_area, 1 + max(arrival[leaf]
                                          for leaf in current), current)
                for cut in cuts[nid][1:]:
                    if cut == current:
                        continue
                    arr = 1 + max(arrival[leaf] for leaf in cut)
                    if arr > need:
                        continue
                    area = cut_ref(cut)
                    cut_deref(cut)
                    if (area, arr) < (best[0], best[1]):
                        best = (area, arr, cut)
                _, arr, chosen = best
                best_cut[nid] = chosen
                arrival[nid] = arr
                cut_ref(chosen)
            cover = _cover_of(aig, best_cut, roots)
            stats.exact_area_luts = len(cover)

        # -- depth guarantee -------------------------------------------
        for nid in ands:
            if nid in best_cut:
                arrival[nid] = 1 + max(arrival[leaf]
                                       for leaf in best_cut[nid])
        depth = max((arrival[nid] for nid in roots), default=0)
        if depth > depth_target:
            best_cut = depth_cuts
            cover = _cover_of(aig, best_cut, roots)
            for nid in ands:
                arrival[nid] = 1 + max(arrival[leaf]
                                       for leaf in best_cut[nid])
            depth = max((arrival[nid] for nid in roots), default=0)
            stats.depth_fallback = True

        luts = [LUT(nid, best_cut[nid],
                    cut_truth(aig, nid, best_cut[nid]))
                for nid in cover]
        stats.lut_count = len(luts)
        stats.depth = depth
    return MapResult(aig=aig, k=k, luts=luts, depth=depth, stats=stats)
