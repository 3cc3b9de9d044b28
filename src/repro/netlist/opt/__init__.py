"""Netlist optimization: a composable pass pipeline over the gate-level IR.

Typical use::

    from repro.netlist import elaborate
    from repro.netlist.opt import optimize

    netlist = elaborate(source, top="alu")
    result = optimize(netlist)           # default pipeline, run to fixpoint
    print(result.summary())              # per-pass gate/depth/latency table
    smaller = result.netlist

Every pass preserves the primary input/output interface and flip-flop
names, so any optimized netlist can be formally checked against its source
with :func:`repro.netlist.sat.check_equivalence`.
"""

from .cut import (build_truth, cut_truth, enumerate_cut_truths,
                  enumerate_cuts, npn_canon, npn_canonical)
from .fraig import (FraigPass, FraigStats, SweepResult, fraig_sweep,
                    fraig_sweep_map)
from .map import LUT, MapResult, MapStats, map_aig
from .rewrite import RewritePass, RewriteStats, rewrite_aig
from .passes import (
    BalancePass,
    ConstPropPass,
    Pass,
    SimplifyPass,
    StrashPass,
    SweepPass,
)
from .pipeline import (
    DEFAULT_PIPELINE,
    OptimizationError,
    OptResult,
    PASS_REGISTRY,
    PassManager,
    PassStats,
    optimize,
    resolve_passes,
)
from .rebuild import Rebuilder, live_set

__all__ = [
    "BalancePass",
    "ConstPropPass",
    "FraigPass",
    "FraigStats",
    "fraig_sweep",
    "fraig_sweep_map",
    "SweepResult",
    "build_truth",
    "cut_truth",
    "enumerate_cuts",
    "enumerate_cut_truths",
    "npn_canon",
    "npn_canonical",
    "LUT",
    "MapResult",
    "MapStats",
    "map_aig",
    "RewritePass",
    "RewriteStats",
    "rewrite_aig",
    "Pass",
    "SimplifyPass",
    "StrashPass",
    "SweepPass",
    "DEFAULT_PIPELINE",
    "OptimizationError",
    "OptResult",
    "PASS_REGISTRY",
    "PassManager",
    "PassStats",
    "optimize",
    "resolve_passes",
    "Rebuilder",
    "live_set",
]
