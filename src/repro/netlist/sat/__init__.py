"""SAT machinery for the netlist IR: Tseitin CNF encoding of AIG cones, a
small CDCL solver, and miter-based combinational equivalence checking.

Typical use::

    from repro.netlist import elaborate
    from repro.netlist.opt import optimize
    from repro.netlist.sat import check_equivalence

    before = elaborate(source, top="alu")
    after = optimize(before).netlist
    verdict = check_equivalence(before, after)
    assert verdict.equivalent     # UNSAT miter == formally proven

On disagreement the result carries a replayed, simulator-confirmed
:class:`Counterexample` naming the differing outputs or next-state
functions; on UNSAT, ``check_equivalence(certify=True)`` has the solver
log a DRAT proof (:class:`ProofLog` via ``Solver.set_proof``) and
re-verifies it with the independent RUP checker (:func:`check_drat`) —
both verdict polarities are then certified by machinery that shares no
code with the solver.
"""

from .cec import (
    CECError,
    Counterexample,
    EquivalenceResult,
    ShardVerdict,
    check_equivalence,
    replay_counterexample,
)
from .cnf import CNF, aig_lit_sat, encode_aig_cone
from .partition import extract_cone, partition_pairs, solve_pairs_parallel
from .preprocess import PreprocessResult, PreprocessStats, preprocess
from .proof import (
    DratCheckResult,
    ProofLog,
    check_drat,
    format_drat_step,
    parse_drat,
)
from .solver import Solver, SolverResult, SolverStats, luby, solve

__all__ = [
    "CECError",
    "Counterexample",
    "EquivalenceResult",
    "ShardVerdict",
    "check_equivalence",
    "replay_counterexample",
    "CNF",
    "aig_lit_sat",
    "encode_aig_cone",
    "extract_cone",
    "partition_pairs",
    "solve_pairs_parallel",
    "PreprocessResult",
    "PreprocessStats",
    "preprocess",
    "DratCheckResult",
    "ProofLog",
    "check_drat",
    "format_drat_step",
    "parse_drat",
    "Solver",
    "SolverResult",
    "SolverStats",
    "luby",
    "solve",
]
