"""Tests for the flat-array CDCL engine (`repro.netlist.sat.solver`).

The production solver is cross-checked three ways: against a brute-force
enumerator on randomized 3-SAT instances, against the retained reference
implementation (`tests/reference_solver.py`) on instances too large to
enumerate, and against fresh-solver oracles for incremental
assumption-and-add sequences.  The engine's internals get direct
coverage too: the Luby sequence, the lazy VSIDS heap's invariants, and
the guarantee that clause-database reduction never drops a clause that
is the reason of a current-trail assignment.
"""

from __future__ import annotations

import random

import pytest

from repro.netlist.sat.solver import Model, Solver, luby

from reference_solver import ReferenceSolver, reference_solve


# ---------------------------------------------------------------------------
# Instance helpers
# ---------------------------------------------------------------------------


def random_instance(rng: random.Random, num_vars: int,
                    num_clauses: int) -> list[tuple[int, ...]]:
    """A random <=3-SAT instance over ``num_vars`` variables."""
    clauses = []
    for _ in range(num_clauses):
        k = rng.randint(1, 3)
        chosen = rng.sample(range(1, num_vars + 1), min(k, num_vars))
        clauses.append(tuple(v if rng.random() < 0.5 else -v
                             for v in chosen))
    return clauses


def brute_force_sat(num_vars: int, clauses) -> bool:
    """Exhaustive satisfiability check via bit-mask enumeration."""
    masked = []
    for clause in clauses:
        pos = neg = 0
        for lit in clause:
            if lit > 0:
                pos |= 1 << (lit - 1)
            else:
                neg |= 1 << (-lit - 1)
        masked.append((pos, neg))
    full = (1 << num_vars) - 1
    for assignment in range(1 << num_vars):
        inverse = assignment ^ full
        if all(assignment & pos or inverse & neg for pos, neg in masked):
            return True
    return False


def check_model(model, clauses) -> None:
    for clause in clauses:
        assert any(model[abs(lit)] == (lit > 0) for lit in clause), \
            f"model violates clause {clause}"


def pigeonhole(pigeons: int, holes: int) -> tuple[int, list[tuple[int, ...]]]:
    """PHP(p, h): UNSAT when p > h, and conflict-heavy to prove."""
    def var(p: int, h: int) -> int:
        return p * holes + h + 1

    clauses = [tuple(var(p, h) for h in range(holes))
               for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append((-var(p1, h), -var(p2, h)))
    return pigeons * holes, clauses


# ---------------------------------------------------------------------------
# Randomized cross-checks
# ---------------------------------------------------------------------------


def test_random_3sat_vs_brute_force():
    rng = random.Random(2022)
    for _ in range(150):
        num_vars = rng.randint(1, 12)
        clauses = random_instance(rng, num_vars, rng.randint(1, 5 * num_vars))
        expected = brute_force_sat(num_vars, clauses)
        result = Solver(num_vars, clauses).solve()
        assert result.satisfiable == expected, clauses
        if result.satisfiable:
            check_model(result.model, clauses)


def test_random_3sat_larger_instances_vs_brute_force():
    rng = random.Random(7)
    for num_vars in (14, 16):
        clauses = random_instance(rng, num_vars, 4 * num_vars)
        expected = brute_force_sat(num_vars, clauses)
        result = Solver(num_vars, clauses).solve()
        assert result.satisfiable == expected
        if result.satisfiable:
            check_model(result.model, clauses)


def test_random_3sat_vs_reference_solver():
    rng = random.Random(99)
    for _ in range(60):
        num_vars = rng.randint(5, 30)
        clauses = random_instance(rng, num_vars, rng.randint(1, 4 * num_vars))
        result = Solver(num_vars, clauses).solve()
        reference = reference_solve(num_vars, clauses)
        assert result.satisfiable == reference.satisfiable, clauses
        if result.satisfiable:
            check_model(result.model, clauses)
            check_model(reference.model, clauses)


def test_incremental_assumption_sequences_vs_fresh_oracles():
    rng = random.Random(5)
    for _ in range(25):
        num_vars = rng.randint(4, 16)
        clauses = random_instance(rng, num_vars, 2 * num_vars)
        incremental = Solver(num_vars, clauses)
        mirror = ReferenceSolver(num_vars, clauses)
        accumulated = list(clauses)
        dead = False
        for _ in range(6):
            if not dead and rng.random() < 0.5:
                extra = random_instance(rng, num_vars, 1)[0]
                incremental.add_clause(extra)
                mirror.add_clause(extra)
                accumulated.append(extra)
            assumptions = tuple(
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, num_vars + 1),
                                    rng.randint(0, min(3, num_vars))))
            got = incremental.solve(assumptions=assumptions).satisfiable
            # Fresh oracle: assumptions become unit clauses.
            units = [(lit,) for lit in assumptions]
            fresh = Solver(num_vars, accumulated + units)
            assert got == fresh.solve().satisfiable, \
                (accumulated, assumptions)
            assert got == mirror.solve(assumptions=assumptions).satisfiable
            if not got and not assumptions:
                dead = True  # clause set itself is UNSAT: stays UNSAT


# ---------------------------------------------------------------------------
# Luby sequence
# ---------------------------------------------------------------------------


def test_luby_prefix():
    assert [luby(i) for i in range(1, 16)] == \
        [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def test_luby_peaks_at_power_boundaries():
    for k in range(1, 12):
        assert luby((1 << k) - 1) == 1 << (k - 1)
        assert luby(1 << k) == 1


def test_luby_rejects_non_positive():
    with pytest.raises(ValueError):
        luby(0)


# ---------------------------------------------------------------------------
# VSIDS heap invariants
# ---------------------------------------------------------------------------


def _check_vsids_invariants(solver: Solver) -> None:
    heap = solver.heap
    # Binary min-heap property over (-activity, var) entries.
    for i in range(1, len(heap)):
        assert heap[(i - 1) // 2] <= heap[i]
    # Entries are well-formed: known var, recorded activity no fresher
    # than the variable's current one (bumps only grow activity).
    for neg_act, var in heap:
        assert 1 <= var <= solver.num_vars
        assert -neg_act <= solver.activity[var] + 1e-12
    # Coverage: at the root level, every non-root-assigned variable is
    # reachable by future decisions — through a current-activity heap
    # entry when bumped, through the pool otherwise.
    assert not solver.trail_lim
    root_assigned = {enc >> 1 for enc in solver.trail}
    fresh = {var for neg_act, var in heap
             if -neg_act == solver.activity[var]}
    pooled = set(solver.pool)
    for var in range(1, solver.num_vars + 1):
        if var in root_assigned:
            continue
        if solver.activity[var] == 0.0:
            assert var in pooled, f"zero-activity var {var} unpooled"
        else:
            assert var in fresh, f"bumped var {var} lost by the heap"


def test_vsids_heap_invariants_after_conflicts():
    num_vars, clauses = pigeonhole(6, 5)
    solver = Solver(num_vars, clauses)
    assert not solver.solve().satisfiable
    assert solver.stats.conflicts > 0
    _check_vsids_invariants(solver)


def test_vsids_heap_invariants_through_incremental_use():
    rng = random.Random(11)
    num_vars = 20
    solver = Solver(num_vars, random_instance(rng, num_vars, 40))
    for _ in range(5):
        solver.solve(assumptions=tuple(
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, num_vars + 1), 2)))
        _check_vsids_invariants(solver)


# ---------------------------------------------------------------------------
# Clause-database reduction and arena GC
# ---------------------------------------------------------------------------


class _ReduceAuditingSolver(Solver):
    """Asserts after every reduction that no current reason clause died."""

    audits = 0

    def _reduce_db(self):
        super()._reduce_db()
        self.audits += 1
        for enc in self.trail:
            reason = self.reason[enc >> 1]
            if reason >= 0:
                assert self.c_len[reason] > 0, \
                    f"reduction dropped the reason clause of literal {enc}"
                # The implied literal must still head the clause.
                assert self.lits[self.c_off[reason]] == enc


def test_reduce_db_keeps_reason_clauses_of_the_trail():
    num_vars, clauses = pigeonhole(7, 6)
    solver = _ReduceAuditingSolver(num_vars, clauses)
    solver.max_learnts = 12  # force frequent reductions
    assert not solver.solve().satisfiable
    assert solver.audits > 0
    assert solver.stats.reduced_clauses > 0


def test_reduce_db_and_gc_preserve_verdicts():
    rng = random.Random(31)
    for _ in range(20):
        num_vars = rng.randint(8, 14)
        clauses = random_instance(rng, num_vars, 5 * num_vars)
        solver = Solver(num_vars, clauses)
        solver.max_learnts = 8
        result = solver.solve()
        assert result.satisfiable == brute_force_sat(num_vars, clauses)
        if result.satisfiable:
            check_model(result.model, clauses)


def test_arena_gc_compacts_dead_clauses():
    num_vars, clauses = pigeonhole(7, 6)
    solver = Solver(num_vars, clauses)
    solver.max_learnts = 12
    assert not solver.solve().satisfiable
    assert solver.stats.gc_runs > 0
    # After compaction every live clause's arena slice is intact.
    for cref in range(len(solver.c_off)):
        length = solver.c_len[cref]
        if length:
            assert solver.c_off[cref] + length <= len(solver.lits)


def test_glue_clauses_survive_reduction():
    num_vars, clauses = pigeonhole(7, 6)
    solver = Solver(num_vars, clauses)
    solver.max_learnts = 12
    assert not solver.solve().satisfiable
    for cref in solver.learnts:
        assert solver.c_len[cref] > 0


# ---------------------------------------------------------------------------
# Streaming ingestion and the lazy model
# ---------------------------------------------------------------------------


def test_init_streams_clauses_from_a_generator():
    def generated():
        yield (1, 2)
        yield [-1, 2]
        yield iter((1, -2))

    result = Solver(2, generated()).solve()
    assert result.satisfiable
    assert result.model[1] is True and result.model[2] is True


def test_add_clauses_bulk_entry_point():
    solver = Solver(3, [(1, 2, 3)])
    solver.add_clauses([(-1,), (-2,)])
    result = solver.solve()
    assert result.satisfiable
    assert result.model[3] is True
    solver.add_clauses(((-3,),))
    assert not solver.solve().satisfiable


def test_problem_clause_simplification():
    # Tautologies vanish, duplicate literals collapse.
    assert Solver(2, [(1, -1)]).solve().satisfiable
    result = Solver(2, [(1, 1, 2), (-2, -2)]).solve()
    assert result.satisfiable
    assert result.model[2] is False


def test_clauses_simplify_against_root_assignments():
    solver = Solver(3, [(1,)])
    assert solver.solve().satisfiable
    # Satisfied at root: vanishes.  False at root: literal dropped.
    solver.add_clause((1, 2))
    solver.add_clause((-1, 3))
    result = solver.solve()
    assert result.satisfiable
    assert result.model[3] is True


def test_model_is_mapping_like():
    result = Solver(3, [(1,), (-2,), (3,)]).solve()
    model = result.model
    assert isinstance(model, Model)
    assert model == {1: True, 2: False, 3: True}
    assert model[2] is False
    assert model.get(3) is True
    assert model.get(99, False) is False
    assert 3 in model and 4 not in model
    assert len(model) == 3
    assert list(model) == [1, 2, 3]
    assert dict(model.items()) == {1: True, 2: False, 3: True}
    with pytest.raises(KeyError):
        model[4]


def test_model_survives_further_solving():
    # The snapshot must not alias live solver state.
    solver = Solver(2, [(1, 2)])
    first = solver.solve(assumptions=(1, -2)).model
    assert first[1] is True and first[2] is False
    second = solver.solve(assumptions=(-1, 2)).model
    assert first[1] is True and first[2] is False
    assert second[1] is False and second[2] is True


# ---------------------------------------------------------------------------
# Stats surface
# ---------------------------------------------------------------------------


def test_stats_expose_lbd_reduction_and_gc_counters():
    num_vars, clauses = pigeonhole(6, 5)
    solver = Solver(num_vars, clauses)
    assert not solver.solve().satisfiable
    stats = solver.stats.to_dict()
    for key in ("decisions", "conflicts", "propagations", "learned_clauses",
                "learned_literals", "restarts", "lbd_sum", "reduced_clauses",
                "gc_runs"):
        assert key in stats
    assert stats["lbd_sum"] > 0
    assert stats["conflicts"] > 0


def test_reference_solver_package_surface():
    result = reference_solve(2, [(1, 2), (-1,)])
    assert result.satisfiable
    assert result.model == {1: False, 2: True}


# ---------------------------------------------------------------------------
# Search seeding (phase + activity)
# ---------------------------------------------------------------------------


def test_seed_phases_steers_unconstrained_decisions():
    # One clause over three free variables.  All-True phases: the first
    # decision already satisfies the clause and every later decision
    # follows its seeded phase, so the model is all-True.  All-False
    # phases: decisions go False until the clause becomes unit, so
    # exactly one variable ends up True.
    solver = Solver(3, [(1, 2, 3)])
    solver.seed_phases({1: True, 2: True, 3: True})
    model = solver.solve().model
    assert model[1] and model[2] and model[3]

    solver = Solver(3, [(1, 2, 3)])
    solver.seed_phases({1: False, 2: False, 3: False})
    model = solver.solve().model
    assert sum(model[v] for v in (1, 2, 3)) == 1


def test_seed_activity_controls_decision_order():
    # (1 or 2) with all-False phases: whichever variable is decided
    # first goes False and forces the other True.  The activity seed
    # picks the victim.
    for boosted, forced in ((1, 2), (2, 1)):
        solver = Solver(2, [(1, 2)])
        solver.seed_phases({1: False, 2: False})
        solver.seed_activity({boosted: 1.0})
        model = solver.solve().model
        assert model[boosted] is False
        assert model[forced] is True


def test_seeding_ignores_unknown_and_nonpositive_entries():
    solver = Solver(2, [(1, 2)])
    solver.seed_phases({0: True, 99: False})
    solver.seed_activity({0: 1.0, 99: 1.0, 1: -3.0, 2: 0.0})
    assert solver.solve().satisfiable
