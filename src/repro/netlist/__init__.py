"""Gate-level netlist IR, RTL elaborator, optimizer, simulator, reference
interpreter and SAT-based equivalence checker.

The canonical pipeline is ``elaborate(source, top=...) -> Netlist`` followed
by :func:`simulate` (bit-level) or :func:`simulate_vectors` /
:func:`simulate_sequence` (word-level; both route through the compiled
bit-parallel engine in :mod:`repro.netlist.sim` by default).
:func:`compile_netlist` levelizes a netlist into a straight-line Python
function and :class:`CompiledSim` drives it statefully, packing up to W
stimulus patterns per net.  :mod:`repro.netlist.opt` shrinks a netlist
by rewriting it on the AIG (``elaborate(..., optimize=True)`` runs it
inline); :mod:`repro.netlist.sat` proves an optimized netlist equivalent to
its source via a Tseitin-encoded miter.  :class:`Interpreter` executes the
same designs directly at vector level and serves as the elaborator's
round-trip oracle.
"""

from . import aig, opt, sat, sim
from .aig import AIG, AIGError, from_netlist, to_netlist
from .bitblast import binary_width, natural_width
from .elaborate import (
    Elaborator,
    elaborate,
    simulate_sequence,
    simulate_vectors,
)
from .environment import ElaborationError, Scope
from .interp import Interpreter, InterpreterError
from .logic import Gate, GateType, Netlist, NetlistError, simulate
from .opt import OptResult, PassStats, optimize
from .sat import EquivalenceResult, check_equivalence
from .sim import CompiledNetlist, CompiledSim, compile_netlist, simulate_compiled

__all__ = [
    "AIG",
    "AIGError",
    "from_netlist",
    "to_netlist",
    "binary_width",
    "natural_width",
    "Elaborator",
    "elaborate",
    "simulate_sequence",
    "simulate_vectors",
    "ElaborationError",
    "Scope",
    "Interpreter",
    "InterpreterError",
    "Gate",
    "GateType",
    "Netlist",
    "NetlistError",
    "simulate",
    "aig",
    "opt",
    "sat",
    "sim",
    "CompiledNetlist",
    "CompiledSim",
    "compile_netlist",
    "simulate_compiled",
    "OptResult",
    "PassStats",
    "optimize",
    "EquivalenceResult",
    "check_equivalence",
]
