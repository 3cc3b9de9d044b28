"""Pass manager: composition, fixpoint iteration and per-pass statistics."""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence, Union

from ...obs import get_tracer
from ..logic import Netlist
from .fraig import FraigPass
from .passes import (
    BalancePass,
    ConstPropPass,
    Pass,
    SimplifyPass,
    StrashPass,
    SweepPass,
)
from .rewrite import RewritePass

#: Registry of stock passes by name (CLI ``--passes`` and tests use this).
PASS_REGISTRY: dict[str, type[Pass]] = {
    cls.name: cls
    for cls in (ConstPropPass, SimplifyPass, StrashPass, BalancePass,
                SweepPass, FraigPass, RewritePass)
}

#: The default pipeline: clean identities, canonicalize through the AIG
#: (which folds constants and shares structure in one round-trip —
#: ``constprop`` stays in the registry as an alias but would duplicate
#: ``strash`` here), shorten chains, rewrite 4-cut cones against the NPN
#: structure library, then sweep what died along the way.  ``fraig`` stays
#: opt-in (SAT cost), but when it runs it now sees the rewritten graph.
DEFAULT_PIPELINE = ("simplify", "strash", "balance", "rewrite", "sweep")

PassSpec = Union[str, Pass]


class OptimizationError(Exception):
    """Raised on malformed pass specifications."""


def resolve_passes(passes: Optional[Sequence[PassSpec]] = None) -> list[Pass]:
    """Instantiate a pass list from names and/or :class:`Pass` objects."""
    resolved: list[Pass] = []
    for spec in (passes if passes is not None else DEFAULT_PIPELINE):
        if isinstance(spec, Pass):
            resolved.append(spec)
        elif isinstance(spec, str):
            cls = PASS_REGISTRY.get(spec)
            if cls is None:
                known = ", ".join(sorted(PASS_REGISTRY))
                raise OptimizationError(
                    f"unknown pass '{spec}' (known passes: {known})"
                )
            resolved.append(cls())
        else:
            raise OptimizationError(
                f"pass spec must be a name or Pass instance, "
                f"got {type(spec).__name__}"
            )
    return resolved


@dataclass
class PassStats:
    """Size/depth/latency record for one pass execution."""

    name: str
    iteration: int
    gates_before: int
    gates_after: int
    levels_before: int
    levels_after: int
    registers_before: int
    registers_after: int
    seconds: float
    #: Optional pass-specific counters (a pass exposes them by defining
    #: ``stats_dict()`` — FRAIG reports its sweep and aggregated solver
    #: statistics here).  ``None`` rows serialize without the key.
    details: Optional[dict] = field(default=None, compare=False)

    @property
    def gates_removed(self) -> int:
        return self.gates_before - self.gates_after

    def to_dict(self) -> dict:
        record = asdict(self)
        if record["details"] is None:
            del record["details"]
        return record

    def __str__(self) -> str:
        return (
            f"{self.name:<10} gates {self.gates_before:>6} -> "
            f"{self.gates_after:<6} levels {self.levels_before:>4} -> "
            f"{self.levels_after:<4} regs {self.registers_before:>4} -> "
            f"{self.registers_after:<4} ({self.seconds * 1e3:.2f} ms)"
        )


class PassManager:
    """Runs a pass pipeline, optionally iterating it to a fixpoint.

    The pipeline is re-run while a full iteration still improves gate count
    or logic depth, bounded by ``max_iterations``.  Every pass execution is
    timed and recorded as a :class:`PassStats` row.

    Within one :meth:`run`, a pass handed a netlist whose
    :meth:`~repro.netlist.logic.Netlist.content_hash` it has already
    processed returns its earlier output instead of redoing the work
    (passes are deterministic functions of their input).  Such a row
    records no pass work (``details=None``) and its span is marked
    ``reused``.  The memo lives for one :meth:`run` only.
    """

    def __init__(self, passes: Optional[Sequence[PassSpec]] = None,
                 fixpoint: bool = True, max_iterations: int = 8):
        if max_iterations < 1:
            raise OptimizationError("max_iterations must be >= 1")
        self.passes = resolve_passes(passes)
        self.fixpoint = fixpoint
        self.max_iterations = max_iterations if fixpoint else 1

    def run(self, netlist: Netlist) -> tuple[Netlist, list[PassStats]]:
        stats: list[PassStats] = []
        tracer = get_tracer()
        current = netlist
        # Per pass position: the (input, output) pairs it has produced.
        memo: list[list[tuple[Netlist, Netlist]]] = [[] for _ in self.passes]
        for iteration in range(1, self.max_iterations + 1):
            gates = current.num_gates
            levels = current.logic_levels()
            for index, opt_pass in enumerate(self.passes):
                before = current.stats()
                start = time.perf_counter()
                with tracer.span(f"opt.{opt_pass.name}",
                                 iteration=iteration,
                                 gates=before["gates"]) as span:
                    reused = _lookup(memo[index], current)
                    if reused is None:
                        result = opt_pass.run(current)
                        memo[index].append((current, result))
                        current = result
                    else:
                        current = reused
                        span.set(reused=True)
                    elapsed = time.perf_counter() - start
                    after = current.stats()
                    span.set(gates_after=after["gates"])
                details = None
                if reused is None:
                    details = getattr(opt_pass, "stats_dict",
                                      lambda: None)()
                stats.append(PassStats(
                    name=opt_pass.name,
                    iteration=iteration,
                    gates_before=before["gates"],
                    gates_after=after["gates"],
                    levels_before=before["levels"],
                    levels_after=after["levels"],
                    registers_before=before["registers"],
                    registers_after=after["registers"],
                    seconds=elapsed,
                    details=details,
                ))
            if current.num_gates >= gates and current.logic_levels() >= levels:
                break
        return current, stats


def _lookup(seen: list[tuple[Netlist, Netlist]],
            netlist: Netlist) -> Optional[Netlist]:
    """The output recorded for an input with ``netlist``'s content hash.

    The cached gate count screens out most candidates, so a netlist is
    hashed only when an earlier input of the same size exists.
    """
    for source, output in seen:
        if source.num_gates == netlist.num_gates and \
                source.content_hash() == netlist.content_hash():
            return output
    return None


@dataclass
class OptResult:
    """The outcome of :func:`optimize`: the new netlist plus its history."""

    netlist: Netlist
    stats: list[PassStats]
    gates_before: int
    levels_before: int

    @property
    def gates_after(self) -> int:
        return self.netlist.num_gates

    @property
    def levels_after(self) -> int:
        return self.netlist.logic_levels()

    @property
    def reduction(self) -> float:
        """Fractional gate-count reduction (0.0 when already empty)."""
        if self.gates_before == 0:
            return 0.0
        return 1.0 - self.gates_after / self.gates_before

    def summary(self) -> str:
        lines = [str(row) for row in self.stats]
        lines.append(
            f"total      gates {self.gates_before:>6} -> "
            f"{self.gates_after:<6} levels {self.levels_before:>4} -> "
            f"{self.levels_after:<4} ({self.reduction:.1%} gates removed)"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "gates_before": self.gates_before,
            "gates_after": self.gates_after,
            "levels_before": self.levels_before,
            "levels_after": self.levels_after,
            "reduction": self.reduction,
            "passes": [row.to_dict() for row in self.stats],
        }


def optimize(netlist: Netlist,
             passes: Optional[Sequence[PassSpec]] = None,
             fixpoint: bool = True,
             max_iterations: int = 8) -> OptResult:
    """Optimize a netlist through a (default or custom) pass pipeline.

    The input netlist is left untouched; the result carries the per-pass
    statistics both in :attr:`OptResult.stats` and on the returned netlist's
    ``opt_stats`` attribute.
    """
    manager = PassManager(passes, fixpoint=fixpoint,
                          max_iterations=max_iterations)
    gates_before = netlist.num_gates
    levels_before = netlist.logic_levels()
    tracer = get_tracer()
    with tracer.span("optimize", design=netlist.name,
                     gates=gates_before) as span:
        optimized, stats = manager.run(netlist)
        span.set(gates_after=optimized.num_gates,
                 passes=len(stats))
    if tracer.enabled:
        tracer.metrics.counter("opt.passes_run").inc(len(stats))
        tracer.metrics.counter("opt.gates_removed").inc(
            gates_before - optimized.num_gates)
    optimized.opt_stats = stats
    return OptResult(netlist=optimized, stats=stats,
                     gates_before=gates_before, levels_before=levels_before)
