"""Reproduction of the ALICE eFPGA-redaction flow (DAC'22).

Subpackages:

* :mod:`repro.verilog` — self-contained synthesizable-subset Verilog
  frontend (lexer, parser, AST, code generator, hierarchy and dataflow
  analyses);
* :mod:`repro.netlist` — gate-level netlist IR, the RTL elaborator that
  lowers parsed designs into it, a bit-level simulator and a vector-level
  reference interpreter;
* :mod:`repro.netlist.sim` — the compiled bit-parallel simulation engine
  (netlists levelized and code-generated into straight-line Python, up to
  W stimulus patterns packed per net), the default behind
  ``simulate_vectors`` / ``simulate_sequence``;
* :mod:`repro.netlist.opt` — the optimization pass pipeline (constant
  propagation, structural hashing, identity simplification, chain
  balancing, cut-based DAG-aware rewriting over the NPN structure
  library, dead-gate sweep) with per-pass statistics, plus the
  priority-cut k-LUT technology mapper (``opt.map``) on the shared
  cut/truth-table kernel (``opt.cut``);
* :mod:`repro.netlist.sat` — Tseitin CNF encoding of AIG cones, a small
  CDCL solver and miter-based combinational equivalence checking, used to
  formally verify every optimization;
* :mod:`repro.obs` — the unified tracing & metrics layer: hierarchical
  span tracing across every engine above, a histogram registry for
  per-solve distributions, solver progress events, and Chrome-trace /
  ndjson / profile exporters (CLI ``--trace`` / ``--profile`` / ``-v``).

``python -m repro design.v`` runs the full parse → elaborate → optimize →
verify flow from the command line (see :mod:`repro.cli`).
"""

from . import netlist, obs, verilog

__all__ = ["netlist", "obs", "verilog"]

__version__ = "0.10.0"
