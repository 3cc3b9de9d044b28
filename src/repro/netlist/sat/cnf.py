"""CNF formulas and Tseitin encoding of AIG cones.

Literals follow the DIMACS convention: variables are positive integers,
``v`` means *true*, ``-v`` means *false*.  :class:`CNF` is a plain clause
container.  :func:`encode_aig_cone` encodes the cone of a set of AIG
literals: every node is a two-input AND, so each costs exactly three
clauses, inversion is free (a complemented edge is just a negated DIMACS
literal), and the hash-consing the AIG performed at construction time
has already merged shared structure.  Primary inputs and latches are
leaf variables supplied by the caller, which is what lets incremental
callers share them between calls.

The encoder is additionally **structure-aware**: AND nodes whose local
shape spells XOR, MUX, or 3-input majority — the cells arithmetic lowers
to, a full adder being one XOR3 and one MAJ3 — are encoded as one direct
constraint over their operand variables instead of per-AND triples.  The interior nodes of a matched
cone are absorbed: no auxiliary variable, no clauses.  This matters for
CDCL behaviour, not just size: the Tseitin decomposition of an XOR hides
the parity from unit propagation behind auxiliary variables, while the
direct 4-clause form propagates as soon as any two pins are known.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..aig import AIG, _match_mux, lit_compl, lit_node


class CNF:
    """A conjunction of clauses over positive-integer variables."""

    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: list[tuple[int, ...]] = []

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, *lits: int) -> None:
        for lit in lits:
            if lit == 0 or abs(lit) > self.num_vars:
                raise ValueError(f"literal {lit} references an unknown var")
        self.clauses.append(lits)

    def __len__(self) -> int:
        return len(self.clauses)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CNF(vars={self.num_vars}, clauses={len(self.clauses)})"


def aig_lit_sat(var_map: dict[int, int], lit: int) -> int:
    """DIMACS literal for an AIG edge: complement becomes negation."""
    var = var_map[lit_node(lit)]
    return -var if lit_compl(lit) else var


def _match_maj(aig: AIG, nid: int) -> Optional[tuple[int, int, int]]:
    """Detect ``~nid == MAJ(a, b, c)`` rooted at AND node ``nid``.

    The carry of a full adder lowers to
    ``(a & b) | (a & c) | (b & c)`` — an OR tree over three 2-literal
    products.  ``~nid`` is expanded as a disjunction by De Morgan
    (complemented AND edges split into their negated fanins); a match
    requires exactly three leaves, each a *positive* AND edge, whose
    fanin pairs are the three 2-subsets of three distinct literals.  The
    expansion is De Morgan throughout, so any structural match is
    semantically exact regardless of what the netlist "meant".  Returns
    the ``(a, b, c)`` operand literals, or ``None``.
    """
    leaves: list[int] = []
    stack = [(nid << 1) | 1]
    while stack:
        lit = stack.pop()
        node = lit >> 1
        if (lit & 1) and aig.is_and(node) and \
                len(leaves) + len(stack) < 3:
            f0, f1 = aig.fanins(node)
            stack.append(f0 ^ 1)
            stack.append(f1 ^ 1)
            continue
        leaves.append(lit)
        if len(leaves) > 3:
            return None
    if len(leaves) != 3:
        return None
    pairs = []
    for lit in leaves:
        if lit & 1 or not aig.is_and(lit >> 1):
            return None
        pairs.append(frozenset(aig.fanins(lit >> 1)))
    operands = frozenset().union(*pairs)
    if len(operands) != 3 or len({o >> 1 for o in operands}) != 3:
        return None
    a, b, c = sorted(operands)
    if {frozenset((a, b)), frozenset((a, c)),
            frozenset((b, c))} != set(pairs):
        return None
    return a, b, c


_LEAF = ("leaf",)


def encode_aig_cone(cnf: CNF, aig: AIG, roots: Iterable[int],
                    var_map: Optional[dict[int, int]] = None
                    ) -> dict[int, int]:
    """Tseitin-encode the cone of the given AIG literals into ``cnf``.

    Returns a map from node id to CNF variable; use :func:`aig_lit_sat` to
    turn an edge into a signed DIMACS literal.  A plain AND node costs
    three clauses (``y -> a``, ``y -> b``, ``a & b -> y``); primary inputs
    and latches are free leaf variables; the constant node is pinned false
    by a unit clause.  ``var_map``
    may carry the result of a previous call over the same AIG so shared
    cones encode once — the incremental-solving workhorse of FRAIG.

    The walk pattern-matches each AND node before descending: XOR cones
    (4 clauses), MUX cones (6), and 3-input majority cones (6) encode
    directly over their operand variables, and the matched interior nodes
    are *absorbed* — they get no CNF variable unless some other root path
    references them (in which case they are simply encoded on that path
    as usual).
    """
    if var_map is None:
        var_map = {}
    clauses = cnf.clauses
    # Plan the *unencoded* cone: nodes already in var_map are fully
    # encoded (their fanins were encoded with them), so the traversal
    # stops there — incremental callers like FRAIG pay per new node, not
    # per full cone.  Pattern operands always have smaller node ids than
    # the pattern root (AIG fanins precede their node), so emitting the
    # plan in id order is operands-first.
    plan: dict[int, tuple] = {}
    seen: set[int] = set()
    stack = [lit_node(lit) for lit in roots]
    while stack:
        nid = stack.pop()
        if nid in seen or nid in var_map:
            continue
        seen.add(nid)
        if not aig.is_and(nid):
            plan[nid] = _LEAF
            continue
        m = _match_maj(aig, nid)
        if m is not None:
            a, b, c = m
            plan[nid] = ("maj", a, b, c)
            stack.append(a >> 1)
            stack.append(b >> 1)
            stack.append(c >> 1)
            continue
        m = _match_mux(aig, nid)
        if m is not None:
            s, e, t = m
            if t == e ^ 1:
                plan[nid] = ("xor", s, e)
                stack.append(s >> 1)
                stack.append(e >> 1)
            else:
                plan[nid] = ("mux", s, e, t)
                stack.append(s >> 1)
                stack.append(e >> 1)
                stack.append(t >> 1)
            continue
        f0, f1 = aig.fanins(nid)
        plan[nid] = ("and", f0, f1)
        stack.append(f0 >> 1)
        stack.append(f1 >> 1)
    for nid in sorted(plan):
        entry = plan[nid]
        kind = entry[0]
        if kind == "leaf":
            if nid == 0:
                var = cnf.new_var()
                clauses.append((-var,))
                var_map[nid] = var
            else:
                var_map[nid] = cnf.new_var()
            continue
        if kind == "and":
            a = aig_lit_sat(var_map, entry[1])
            b = aig_lit_sat(var_map, entry[2])
            y = cnf.new_var()
            clauses.append((-y, a))
            clauses.append((-y, b))
            clauses.append((y, -a, -b))
        elif kind == "xor":
            # ~nid = s ^ e, i.e. y <-> (S == E).
            s = aig_lit_sat(var_map, entry[1])
            e = aig_lit_sat(var_map, entry[2])
            y = cnf.new_var()
            clauses.append((-y, -s, e))
            clauses.append((-y, s, -e))
            clauses.append((y, s, e))
            clauses.append((y, -s, -e))
        elif kind == "mux":
            # ~nid = s ? t : e, i.e. y <-> ~(s ? t : e).
            s = aig_lit_sat(var_map, entry[1])
            e = aig_lit_sat(var_map, entry[2])
            t = aig_lit_sat(var_map, entry[3])
            y = cnf.new_var()
            clauses.append((-s, -t, -y))
            clauses.append((-s, t, y))
            clauses.append((s, -e, -y))
            clauses.append((s, e, y))
            # Redundant but propagation-friendly: agreeing data pins
            # decide y without the select.
            clauses.append((-t, -e, -y))
            clauses.append((t, e, y))
        else:
            # ~nid = MAJ(a, b, c): any two true operands force ~y, any
            # two false force y.
            a = aig_lit_sat(var_map, entry[1])
            b = aig_lit_sat(var_map, entry[2])
            c = aig_lit_sat(var_map, entry[3])
            y = cnf.new_var()
            clauses.append((y, a, b))
            clauses.append((y, a, c))
            clauses.append((y, b, c))
            clauses.append((-y, -a, -b))
            clauses.append((-y, -a, -c))
            clauses.append((-y, -b, -c))
        var_map[nid] = y
    return var_map
