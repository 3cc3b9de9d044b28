"""Netlist optimization on the AIG, plus k-LUT mapping.

Typical use::

    from repro.netlist import elaborate
    from repro.netlist.opt import optimize

    netlist = elaborate(source, top="alu")
    result = optimize(netlist)           # lower, rewrite, raise, balance
    print(result.summary())              # per-step size/depth/latency table
    smaller = result.netlist

:func:`optimize` preserves the primary input/output interface and
flip-flop names, so any optimized netlist can be formally checked against
its source with :func:`repro.netlist.sat.check_equivalence`.  Its last
step, :func:`balance`, is the one netlist-to-netlist pass: it copies the
live cone into a fresh netlist, rebuilding AND/OR/XOR chains as
depth-minimal trees.
"""

from .cut import (build_truth, cut_truth, enumerate_cut_truths,
                  enumerate_cuts, npn_canon, npn_canonical)
from .fraig import FraigStats, SweepResult, fraig_sweep
from .map import LUT, MapResult, MapStats, map_aig
from .rewrite import RewriteStats, rewrite_aig
from .pipeline import (OptimizationError, OptResult, PassStats, balance,
                       check_passes, optimize)

__all__ = [
    "FraigStats",
    "fraig_sweep",
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
    "RewriteStats",
    "rewrite_aig",
    "OptimizationError",
    "OptResult",
    "PassStats",
    "optimize",
    "check_passes",
    "balance",
]
