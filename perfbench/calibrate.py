"""How fast the machine runs interpreted code right now.

The benchmark runs on a few cores of a host shared with other tenants.
Their load changes how fast the same code runs, by 2x and more within
minutes on a 2-vCPU Xeon guest, and CPU time grows with it as much as
wall time does, so raw times from runs minutes apart are not comparable.

:func:`sample` times three fixed pure-Python kernels that import nothing
from the program: a dict-heavy integer loop, a hash-consed AND-graph
build and a clause-watching pass, the shapes of code the program spends
its time in.  The geometric mean of their times says how fast the
machine runs right now.  A run takes samples next to its ops and scales
its median op wall time by ``REFERENCE_S`` over their median, raised to
``SENSITIVITY``: the op's time on a machine on which one sample takes
``REFERENCE_S``.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import time

#: Seconds one sample takes on the reference machine: a 2-vCPU Xeon
#: guest while the other tenants of its host are idle.  Scaled times then
#: read as that machine's wall times.
REFERENCE_S = 0.012
#: How the program's ops slow down with the kernels: a load that makes a
#: sample k times slower makes an op about k ** SENSITIVITY times slower.
#: Fitted on three sets of ten runs of every workload on the host above,
#: with samples from 10 to 31 ms: the set medians then agree within 3%,
#: where a plain ratio (1.0) left them 9% apart.
SENSITIVITY = 0.75


def _dict_loop(n: int = 20000) -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(n):
        key = (i * 2654435761) & 0x3FFF
        table[key] = table.get(key, 0) + 1
        acc ^= key << (i & 7)
    return acc + len(sorted(table.items()))


class _Node:
    __slots__ = ("a", "b", "level")

    def __init__(self, a: int, b: int, level: int) -> None:
        self.a, self.b, self.level = a, b, level


def _and_graph(n: int = 6000) -> int:
    rng = random.Random(7)
    nodes = [_Node(-1, -1, 0) for _ in range(64)]
    unique: dict[tuple[int, int], int] = {}
    for _ in range(n):
        a = rng.randrange(len(nodes)) * 2 + rng.getrandbits(1)
        b = rng.randrange(len(nodes)) * 2 + rng.getrandbits(1)
        key = (min(a, b), max(a, b))
        if key not in unique:
            unique[key] = len(nodes)
            level = 1 + max(nodes[a >> 1].level, nodes[b >> 1].level)
            nodes.append(_Node(key[0], key[1], level))
    return max(node.level for node in nodes)


def _clause_watch(n: int = 3000, variables: int = 400) -> int:
    rng = random.Random(3)
    clauses = [[rng.randrange(1, variables) * rng.choice((1, -1))
                for _ in range(3)] for _ in range(n)]
    watches: dict[int, list[int]] = {}
    for index, clause in enumerate(clauses):
        for lit in clause[:2]:
            watches.setdefault(-lit, []).append(index)
    unassigned = 0
    for step in range(3, 7):
        assign: dict[int, bool] = {}
        for var in range(1, variables, step):
            assign[var] = True
            for index in watches.get(-var, ()):
                unassigned += sum(1 for lit in clauses[index]
                                  if abs(lit) not in assign)
    return unassigned


KERNELS = (_dict_loop, _and_graph, _clause_watch)


def sample() -> float:
    """Geometric mean of the kernels' wall times, in seconds.

    The cyclic garbage collector is off meanwhile: a collection would
    scan the caller's heap, whose size has nothing to do with the
    machine's speed.
    """
    logs = 0.0
    gc.disable()
    try:
        for kernel in KERNELS:
            t0 = time.perf_counter()
            kernel()
            logs += math.log(time.perf_counter() - t0)
    finally:
        gc.enable()
    return math.exp(logs / len(KERNELS))


def scaled(wall: float, samples: list[float]) -> float:
    """``wall`` seconds on the reference machine, given the samples
    taken around the work."""
    return wall * (REFERENCE_S / statistics.median(samples)) ** SENSITIVITY
