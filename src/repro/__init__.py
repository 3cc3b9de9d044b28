"""Reproduction of the ALICE eFPGA-redaction flow (DAC'22).

Subpackages:

* :mod:`repro.verilog` — self-contained synthesizable-subset Verilog
  frontend (lexer, parser, AST, constant evaluator, code generator);
* :mod:`repro.netlist` — gate-level netlist IR, the RTL elaborator that
  lowers parsed designs into it, a bit-level simulator and a vector-level
  reference interpreter;
* :mod:`repro.netlist.sim` — the compiled simulation engine (netlists
  levelized and code-generated into straight-line Python that runs one
  stimulus pattern per call), the engine behind ``simulate_vectors`` /
  ``simulate_sequence``;
* :mod:`repro.netlist.opt` — AIG optimization: ``optimize()`` lowers the
  netlist to the AIG once, runs cut-based DAG-aware rewriting over the
  NPN structure library or FRAIG sweeping, raises once and balances,
  with per-pass statistics; plus the priority-cut k-LUT technology
  mapper (``opt.map``) on the shared cut/truth-table kernel
  (``opt.cut``);
* :mod:`repro.netlist.sat` — Tseitin CNF encoding of AIG cones, a small
  CDCL solver and miter-based combinational equivalence checking, used to
  formally verify every optimization;
* :mod:`repro.obs` — the unified tracing layer: hierarchical span
  tracing and instant events (solver progress, FRAIG proofs) across
  every engine above in one record list, and the views over it —
  Chrome-trace / ndjson / profile exporters and per-solve distribution
  summaries (CLI ``--trace`` / ``--profile`` / ``-v``).

``python -m repro design.v`` runs the full parse → elaborate → optimize →
verify flow from the command line (see :mod:`repro.cli`).
"""

from . import netlist, obs, verilog

__all__ = ["netlist", "obs", "verilog"]

__version__ = "0.10.0"
