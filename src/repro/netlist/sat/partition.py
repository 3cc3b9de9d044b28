"""Per-output-pair partitioning of the CEC miter into parallel SAT shards.

A multi-output miter is embarrassingly parallel: every root pair (output
or next-state function) can be decided by its own solver over its own
fanin cone.  With ``jobs=N``,
:func:`~repro.netlist.sat.cec.check_equivalence` hands the root pairs
that survive its stages 1–2 to this module, which solves them on a
:mod:`multiprocessing` pool:

* :func:`partition_pairs` splits the pairs into size-balanced groups
  (greedy largest-cone-first bin packing, so one huge output does not
  serialize the batch behind it);
* :func:`solve_partition` is the module-level worker entry point and a
  thin wrapper: it copies the group's cone into a fresh AIG
  (:func:`extract_cone`), re-simulates that shard under the stimulus
  words the parent sent by leaf name, and runs the same stage-3/4 shard
  solve the serial path runs in-process
  (:func:`~repro.netlist.sat.cec._solve_shard`: encode, eliminate
  variables, seeded solve, model reconstruction and, when asked, the DRAT check
  against the shard's own CNF);
* :func:`solve_pairs_parallel` drives the pool: payloads are dispatched
  with ``imap_unordered`` and **the first refuting worker cancels its
  siblings** (a counterexample for any pair refutes the whole miter, so
  finishing the other shards would be wasted work).

Verdict parity with the serial path is a hard guarantee: partitioning
changes *who* solves each pair, never *what* is asked, and a SAT model
is still replayed through the simulator by the caller before it is
believed.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ...obs import Tracer, get_tracer, use_tracer
from ..aig import AIG, _AND, _LATCH, _PI
from ..sim import aig_signatures
from .cec import ShardVerdict, _solve_shard


def extract_cone(aig: AIG, roots: Sequence[int]
                 ) -> tuple[AIG, dict[int, int]]:
    """Copy the combinational cone of ``roots`` into a fresh AIG.

    Primary inputs and latches inside the cone become leaves of the new
    graph under their original names (latch next-state functions are not
    carried — the shard is a combinational proof obligation).  Returns
    ``(sub, lit_of)`` where ``lit_of`` maps original node ids to the
    positive literal standing for them in ``sub``; translate a literal
    with ``lit_of[lit >> 1] ^ (lit & 1)``.  Node ids ascend fanins-first
    in the source graph, so iterating the cone in id order is topological.
    """
    sub = AIG(name=aig.name)
    lit_of: dict[int, int] = {0: 0}
    for nid in sorted(aig.cone(roots)):
        if nid == 0:
            continue
        kind = aig.kind(nid)
        if kind == _PI:
            lit_of[nid] = sub.add_input(aig.node_name(nid) or f"pi_{nid}")
        elif kind == _LATCH:
            lit_of[nid] = sub.add_latch(aig.node_name(nid) or
                                        f"latch_{nid}")
        elif kind == _AND:
            f0, f1 = aig.fanins(nid)
            lit_of[nid] = sub.aig_and(lit_of[f0 >> 1] ^ (f0 & 1),
                                      lit_of[f1 >> 1] ^ (f1 & 1))
    return sub, lit_of


def partition_pairs(aig: AIG, pairs: Sequence[tuple[int, int]],
                    jobs: int) -> list[list[tuple[int, int]]]:
    """Split root pairs into at most ``jobs`` size-balanced groups.

    Greedy bin packing by fanin-cone size, largest first into the
    currently lightest group — cones shared between pairs in the *same*
    group are encoded once (the worker builds one shard for the whole
    group), while sharing across groups is re-encoded per worker, the
    price of independence.
    """
    jobs = max(1, min(jobs, len(pairs)))
    if jobs == 1:
        return [list(pairs)]
    sized = sorted(
        ((len(aig.cone(pair)), pair) for pair in pairs),
        key=lambda item: item[0], reverse=True)
    groups: list[list[tuple[int, int]]] = [[] for _ in range(jobs)]
    loads = [0] * jobs
    for size, pair in sized:
        k = loads.index(min(loads))
        groups[k].append(pair)
        loads[k] += size
    return [group for group in groups if group]


def solve_partition(payload: tuple) -> tuple[ShardVerdict, list]:
    """Worker entry point: decide one group of the miter's root pairs.

    Module-level (and all-picklable in and out) so it crosses the
    :mod:`multiprocessing` boundary.  Returns the shard's verdict and,
    when the parent is tracing, the spans this worker recorded.
    """
    (aig, pairs, pi_lits, latch_lits, words_by_name, num_patterns,
     trace, certify) = payload
    tracer = Tracer() if trace else get_tracer()
    with use_tracer(tracer), tracer.span("cec.partition",
                                         pairs=len(pairs)) as span:
        sub, lit_of = extract_cone(aig,
                                   [lit for pair in pairs for lit in pair])

        def sub_lit(lit: int) -> int:
            return lit_of[lit >> 1] ^ (lit & 1)

        def leaves(lits: dict[str, int]) -> dict[str, int]:
            return {name: sub_lit(lit) for name, lit in lits.items()
                    if (lit >> 1) in lit_of}

        sigs = None
        mask = 0
        if words_by_name is not None:
            mask = (1 << num_patterns) - 1
            sigs = aig_signatures(
                sub,
                [words_by_name.get(sub.node_name(nid), 0)
                 for nid in sub.inputs],
                [words_by_name.get(sub.node_name(nid), 0)
                 for nid in sub.latches],
                mask,
            )
        shard = _solve_shard(
            sub, [(sub_lit(b), sub_lit(a)) for b, a in pairs],
            leaves(pi_lits), leaves(latch_lits), sigs, mask, num_patterns,
            certify=certify)
        span.set(ands=sub.num_ands, satisfiable=shard.satisfiable,
                 conflicts=shard.stats.conflicts)
    return shard, tracer.records if trace else []


def solve_pairs_parallel(aig: AIG, pairs: Sequence[tuple[int, int]],
                         pi_lits: dict[str, int],
                         latch_lits: dict[str, int],
                         jobs: int,
                         words_by_name: Optional[dict[str, int]] = None,
                         num_patterns: int = 0,
                         *, certify: bool = False
                         ) -> tuple[list[ShardVerdict], int]:
    """Partition ``pairs``, solve the groups on a process pool.

    ``certify`` goes to every shard solve unchanged.  The pool is sized
    to the number of groups; results stream back through
    ``imap_unordered`` and the first
    satisfiable shard terminates the pool (its siblings' UNSAT answers
    cannot change the verdict).  Returns the completed shards' verdicts
    and the number of groups.  Recorded worker spans are stitched into
    the ambient tracer under synthetic worker thread ids.
    """
    import multiprocessing

    tracer = get_tracer()
    groups = partition_pairs(aig, pairs, jobs)
    payloads = [(aig, group, pi_lits, latch_lits, words_by_name,
                 num_patterns, tracer.enabled, certify)
                for group in groups]
    shards: list[ShardVerdict] = []
    with multiprocessing.Pool(processes=len(payloads)) as pool:
        for worker, (shard, spans) in enumerate(
                pool.imap_unordered(solve_partition, payloads)):
            shards.append(shard)
            if tracer.enabled:
                tracer.adopt(spans, tid=10_000_000 + worker)
            if shard.satisfiable:
                # First refuting worker cancels its siblings.
                pool.terminate()
                break
    return shards, len(groups)
