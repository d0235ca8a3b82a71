import json
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import support
from lexres import (
    BudgetError,
    Monomial,
    RingContext,
    euler_characteristic_numerator,
    hilbert_numerator,
    linear_quotients_check,
    power_generators,
    random_rank_check,
)
from lexres.lexsegment import LexSegmentSpec
from lexres.modp import DEFAULT_PRIME, rank_mod
from lexres import monomials, resolution, verify
from lexres.resolution import DifferentialMatrix
from lexres.verify import HilbertNumerator, _evaluate_dense, rank_positions_ok


def _rows(ctx, gens):
    """The exponent rows of the monomials gens, as hilbert_numerator reads them."""
    return np.array([g.exponents for g in gens], dtype=np.int64).reshape(-1, ctx.n)


def test_hilbert_example(example_power):
    n = hilbert_numerator(example_power.exponent_matrix)
    assert dict(n.coeffs) == {0: 1, 2: -5, 3: 6, 4: -2}
    assert str(n) == "1 - 5t^2 + 6t^3 - 2t^4"


def test_hilbert_trivial_cases(ring4):
    assert dict(hilbert_numerator(_rows(ring4, [])).coeffs) == {0: 1}
    assert dict(hilbert_numerator(np.array([[1, 0, 2, 0]])).coeffs) == {0: 1, 3: -1}
    assert dict(hilbert_numerator(np.array([[0, 0, 0, 0]])).coeffs) == {}


def test_hilbert_pure_powers():
    rows = np.array([[2, 0, 0, 0], [0, 3, 0, 0]])
    # complete intersection: (1 - t^2)(1 - t^3)
    assert dict(hilbert_numerator(rows).coeffs) == {0: 1, 2: -1, 3: -1, 5: 1}


def test_hilbert_matches_inclusion_exclusion(example_power):
    assert hilbert_numerator(example_power.exponent_matrix) == (
        support.hilbert_numerator_inclusion_exclusion(example_power.exponent_matrix)
    )


def test_hilbert_inclusion_exclusion_random():
    rng = random.Random(19)
    for n in (3, 4):
        ctx = RingContext(n)
        for _ in range(15):
            gens = {support.random_monomial(rng, ctx, 4) for _ in range(rng.randrange(1, 9))}
            rows = _rows(ctx, [g for g in gens if not g.is_one()])
            if not len(rows):
                continue
            assert hilbert_numerator(rows) == support.hilbert_numerator_inclusion_exclusion(rows)


def _hilbert(monkeypatch, rows, budget: int):
    """hilbert_numerator(rows) with DEFAULT_HILBERT_BUDGET set to budget."""
    monkeypatch.setattr(verify, "DEFAULT_HILBERT_BUDGET", budget)
    return hilbert_numerator(rows)


def test_hilbert_budget(monkeypatch):
    # this ideal's lcm grid fits _GRID_CELLS, so at the default it is one
    # node; with no node counted in the grid the recursion splits past 3
    monkeypatch.setattr(verify, "_GRID_CELLS", 0)
    ctx = RingContext(6)
    rng = random.Random(4)
    gens = list({support.random_monomial(rng, ctx, 6) for _ in range(40)})
    rows = _rows(ctx, [g for g in gens if g.degree >= 2])
    with pytest.raises(BudgetError):
        _hilbert(monkeypatch, rows, 3)


def test_hilbert_budget_edge(example_power_squared, monkeypatch):
    # the recursion's node count on the large benchmark instance and on the
    # worked example at k=2: a drifting memo key or pivot order moves the
    # budget at which verify prints [SKIP].  With _GRID_CELLS at 0 every node
    # splits; at the default, both whole ideals are counted in their grids
    # (64,827 cells for large)
    spec, _ = support.build_family_spec(6, (1, 0, 0, 1, 1, 1), (0, 1, 0, 0, 0, 3))
    large = power_generators(spec, 2).exponent_matrix
    for cells, gens, nodes in ((0, large, 119), (0, example_power_squared.exponent_matrix, 15),
                               (verify._GRID_CELLS, large, 1),
                               (verify._GRID_CELLS, example_power_squared.exponent_matrix, 1)):
        monkeypatch.setattr(verify, "_GRID_CELLS", cells)
        _hilbert(monkeypatch, gens, nodes)
        with pytest.raises(BudgetError, match=f"exceeded {nodes - 1} nodes"):
            _hilbert(monkeypatch, gens, nodes - 1)


def test_hilbert_ladder_row_n7_at_the_default_grid(monkeypatch):
    # x1x4x5x6x7 / x2x7^4 at k=2 does not fit the grid whole: at the default
    # _GRID_CELLS the recursion splits it, takes colons and ends in 25 nodes
    spec, _ = support.build_family_spec(7, (1, 0, 0, 1, 1, 1, 1), (0, 1, 0, 0, 0, 0, 4))
    gens = power_generators(spec, 2).exponent_matrix
    assert str(_hilbert(monkeypatch, gens, 25)) == (
        "1 - 2225t^10 + 10513t^11 - 20676t^12 + 21554t^13 - 12478t^14 + 3767t^15 - 456t^16")
    with pytest.raises(BudgetError, match="exceeded 24 nodes"):
        _hilbert(monkeypatch, gens, 24)


def _hilbert_nodes(monkeypatch, gens) -> int:
    """The least budget hilbert_numerator accepts, by bisection."""
    refused, accepted = 0, 1
    while True:
        try:
            _hilbert(monkeypatch, gens, accepted)
            break
        except BudgetError:
            refused, accepted = accepted, 2 * accepted
    while accepted - refused > 1:
        mid = (refused + accepted) // 2
        try:
            _hilbert(monkeypatch, gens, mid)
            accepted = mid
        except BudgetError:
            refused = mid
    return accepted


def _exponent_lists():
    """n <= 8 and up to 9 exponent rows of mixed degrees, duplicates and the
    unit monomial included; one exponent may be raised to 127 or 128."""

    def build(args):
        n, rows, dups, big, at = args
        rows = [list(r) for r in rows + [rows[i % len(rows)] for i in dups if rows]]
        if rows and big:
            rows[at % len(rows)][at % n] = big
        return n, [tuple(r) for r in rows]

    small = st.sampled_from((0, 0, 0, 1, 1, 2, 3))
    return st.integers(2, 8).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(*[small] * n), max_size=9),
        st.lists(st.integers(0, 8), max_size=3), st.sampled_from((0, 127, 128)),
        st.integers(0, 71),
    )).map(build)


@pytest.mark.parametrize("chunk", [monomials._SCAN_CHUNK_CELLS, 1], ids=["packed", "scan"])
def test_hilbert_matches_loop_with_exact_budget(chunk, monkeypatch):
    # the colon's one first_divisors scan, with every free row packed into
    # one chunk (the default _SCAN_CHUNK_CELLS) and scanned one free row per
    # chunk: the same numerator as the numpy loop, and the same node count,
    # so the same budget boundary, with no node counted in the grid, as the
    # loop counts none
    monkeypatch.setattr("lexres.monomials._SCAN_CHUNK_CELLS", chunk)
    monkeypatch.setattr(verify, "_GRID_CELLS", 0)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(case=_exponent_lists())
    @example(case=(3, []))
    @example(case=(4, [(0, 0, 0, 0), (1, 2, 0, 0), (1, 2, 0, 0)]))  # the unit ideal
    @example(case=(3, [(127, 1, 0), (128, 0, 1), (0, 1, 1), (127, 0, 1)]))
    @example(case=(3, [(128, 128, 0), (127, 128, 1), (1, 0, 128)]))
    @example(case=(3, [(2, 1, 0), (2, 0, 1), (0, 1, 1)]))  # no divided row is free of x
    @example(case=(3, [(1, 1, 0), (1, 0, 1)]))  # no row is free of x
    def check(case):
        n, rows = case
        gens = np.array(rows, dtype=np.int64).reshape(-1, n)
        nodes = _hilbert_nodes(monkeypatch, gens)
        got = _hilbert(monkeypatch, gens, nodes)
        assert got == support.hilbert_numerator_loop(gens, budget=nodes)
        with pytest.raises(BudgetError, match=f"exceeded {nodes - 1} nodes"):
            _hilbert(monkeypatch, gens, nodes - 1)
        with pytest.raises(BudgetError, match=f"exceeded {nodes - 1} nodes"):
            support.hilbert_numerator_loop(gens, budget=nodes - 1)

    check()


def _staircase_cases():
    """n <= 6 and 1 to 8 rows of exponents 0..4, with repeated rows, rows
    above a drawn one (so not minimal), now and then the unit monomial and a
    column set to 0 (none when zero = n); one exponent may be 127 or 128,
    and two columns may carry pure powers near 2^62, each in a row of its
    own: no row's degree passes int64, but the lcm's does."""

    def build(args):
        n, rows, dups, above, zero, big, at, huge, unit = args
        rows = [list(r) for r in rows]
        rows += [list(rows[i % len(rows)]) for i in dups if rows]
        rows += [[a + b for a, b in zip(rows[i % len(rows)], step)] for i, step in above if rows]
        if rows and big:
            rows[at % len(rows)][at % n] = big
        for row in rows if zero < n else ():
            row[zero] = 0
        for col, e in zip((at % n, (at + 1) % n), huge):
            rows.append([e * (j == col) for j in range(n)])
        return n, [tuple(r) for r in rows + [[0] * n] * unit]

    small = st.sampled_from((0, 0, 1, 1, 2, 3, 4))
    return st.integers(2, 6).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(*[small] * n), min_size=1, max_size=8),
        st.lists(st.integers(0, 7), max_size=2),
        st.lists(st.tuples(st.integers(0, 7), st.tuples(*[small] * n)), max_size=2),
        st.integers(0, n), st.sampled_from((0, 127, 128)), st.integers(0, 47),
        st.sampled_from(((), (), (), (2**62 - 1, 2**62 + 3), (2**62, 2**62))),
        st.sampled_from((0,) * 5 + (1,)),
    )).map(build)


@pytest.mark.parametrize("cells", [verify._GRID_CELLS, 16], ids=["default", "small"])
def test_hilbert_staircase_matches_recursion(cells, monkeypatch):
    # a node counted in its lcm grid has the numerator that splitting it
    # gives, and that inclusion-exclusion gives: at the default _GRID_CELLS,
    # where these whole ideals fit one grid, and at 16 cells, where the
    # recursion splits down to grids.  An lcm of degree near 2^63 passes the
    # bound on the grid's polynomial axis, so those ideals reach the
    # recursion, and no array of the base case passes _GRID_CELLS int64 cells
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(case=_staircase_cases())
    @example(case=(3, []))  # the empty ideal
    @example(case=(4, [(0, 0, 0, 0), (1, 2, 0, 0), (1, 2, 0, 0)]))  # the unit ideal
    @example(case=(4, [(1, 1, 0, 0), (0, 1, 1, 0), (2**62 - 1, 0, 0, 0), (0, 0, 2**62 + 3, 0)]))
    @example(case=(3, [(127, 1, 0), (128, 0, 1), (0, 1, 1), (127, 0, 1)]))
    def check(case):
        n, rows = case
        gens = np.array(rows, dtype=np.int64).reshape(-1, n)
        monkeypatch.setattr(verify, "_GRID_CELLS", 0)
        split = hilbert_numerator(gens)
        monkeypatch.setattr(verify, "_GRID_CELLS", cells)
        tracemalloc.start()
        try:
            got = hilbert_numerator(gens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == split == support.hilbert_numerator_inclusion_exclusion(gens)
        assert peak < 2 * 8 * verify._GRID_CELLS + (1 << 20)

    check()


def test_euler_example(example_resolution):
    rc, _ = example_resolution
    assert dict(euler_characteristic_numerator(rc).coeffs) == {
        0: 1,
        2: -5,
        3: 6,
        4: -2,
    }
    assert euler_characteristic_numerator(rc) == hilbert_numerator(rc.power.exponent_matrix)


def test_euler_single_generator():
    ctx = RingContext(3)
    u = Monomial(ctx, (1, 1, 0))
    spec = LexSegmentSpec(ctx=ctx, d=2, u=u, v=u)
    qs = linear_quotients_check(power_generators(spec, 1))
    rc, _ = support.resolve(qs)
    assert dict(euler_characteristic_numerator(rc).coeffs) == {0: 1, 2: -1}
    assert euler_characteristic_numerator(rc) == hilbert_numerator(rc.power.exponent_matrix)


def test_euler_squared(example_quotients_squared):
    rc, _ = support.resolve(example_quotients_squared)
    assert euler_characteristic_numerator(rc) == hilbert_numerator(rc.power.exponent_matrix)


def test_hilbert_numerator_repr():
    h = HilbertNumerator.from_dict({0: 1, 2: 0, 1: -1})
    assert dict(h.coeffs) == {0: 1, 1: -1}
    assert str(HilbertNumerator.from_dict({})) == "0"


def test_rank_check_example(example_resolution):
    rc, mats = example_resolution
    report = random_rank_check(rc, seed=0, trials=5, differentials=mats.items())
    assert report.passed
    assert report.trials[0].ranks == (1, 4, 2)
    # the points are nonzero residues mod the prime 2^31 - 1
    assert DEFAULT_PRIME == 2**31 - 1
    assert all(0 < c < DEFAULT_PRIME for t in report.trials for c in t.point)
    # determinism: same seed, same points and ranks
    again = random_rank_check(rc, seed=0, trials=5, differentials=mats.items())
    assert [t.point for t in again.trials] == [t.point for t in report.trials]
    assert rank_positions_ok((1, 2, 1), (1, 1))
    assert not rank_positions_ok((1, 2, 2), (1, 1))


def test_rank_check_squared(example_quotients_squared):
    rc, mats = support.resolve(example_quotients_squared)
    report = random_rank_check(rc, seed=1, trials=3, differentials=mats.items())
    assert report.passed
    # sub-additivity sanity at every position
    for t in report.trials:
        for i, mat in mats.items():
            assert t.ranks[i] <= min(mat.nrows, mat.ncols)


P = DEFAULT_PRIME


def _shape_resolution():
    spec, _ = support.build_family_spec(5, (1, 0, 1, 1, 0), (0, 1, 0, 0, 2))
    return support.resolve(linear_quotients_check(power_generators(spec, 2)))


def _assert_true_ranks(rc, mats, report):
    """Every reported rank is the rank of the evaluated matrix at its point."""
    for t in report.trials:
        point = np.array(t.point, dtype=np.int64)
        d0 = [math.prod(pow(c, e, P) for c, e in zip(t.point, g)) % P for g in rc.power.exponent_matrix.tolist()]
        assert t.ranks[0] == rank_mod(np.array([d0], dtype=np.int64))
        assert len(t.ranks) == len(mats) + 1
        for i, mat in mats.items():
            assert t.ranks[i] == rank_mod(_evaluate_dense(mat, point, P)), (i, t.point)


def test_witness_tier_agrees_with_dense():
    rc, mats = _shape_resolution()
    report = random_rank_check(rc, seed=3, trials=2, differentials=mats.items())
    assert report.passed
    for t in report.trials:
        assert t.methods == ("dense",) + ("witness",) * len(mats)
    _assert_true_ranks(rc, mats, report)


def _fallback_only_at(positions, mats):
    """The methods of a trial where the given positions alone left the witness route."""
    return ("dense",) + tuple("dense-fallback" if j in positions else "witness" for j in sorted(mats))


def test_rank_check_detects_corruption(example_quotients):
    rc, mats = support.resolve(example_quotients)
    # corrupt one entry of d1 (the first of column 0): change its variable;
    # d1 then composes to nonzero with d0 and with d2
    mat = mats[1]
    assert mat.cols[0] == 0
    mat.vars[0] = (mat.vars[0] % 4) + 1
    report = random_rank_check(rc, seed=5, trials=2, differentials=mats.items())
    assert not report.passed
    assert report.composed == [False, False, True]
    assert [t.ranks for t in report.trials] == [(1, 5, 2)] * 2
    assert all(t.methods == _fallback_only_at({1, 2}, mats) for t in report.trials)
    _assert_true_ranks(rc, mats, report)


def test_witness_tier_detects_corruption():
    spec, _ = support.build_family_spec(5, (1, 0, 0, 1, 1), (0, 0, 1, 0, 2))
    qs = linear_quotients_check(power_generators(spec, 2))
    rc, mats = support.resolve(qs)
    # flip the sign of the first entry of column 0 of d2: the shapes hold,
    # d1 ∘ d2 and d2 ∘ d3 do not vanish
    mat = mats[2]
    assert mat.cols[0] == 0
    mat.signs[0] = -mat.signs[0]
    report = random_rank_check(rc, seed=6, trials=2, differentials=mats.items())
    assert not report.passed
    assert report.composed == [True, False, False, True, True]
    assert [t.ranks for t in report.trials] == [(1, 92, 169, 99, 17)] * 2
    assert all(t.methods == _fallback_only_at({2, 3}, mats) for t in report.trials)
    _assert_true_ranks(rc, mats, report)


def test_witness_structure_rejects_broken_shape():
    spec, _ = support.build_family_spec(5, (1, 0, 1, 1, 0), (0, 1, 0, 0, 2))
    qs = linear_quotients_check(power_generators(spec, 2))
    i = 2
    s_star = {w: min(st) for w, st in enumerate(qs.sets) if st}
    corruptions = ("diagonal variable", "diagonal sign", "later block", "same block",
                   "diagonal dropped", "cancelled diagonal")
    for corruption in corruptions:
        rc, mats = support.resolve(qs)
        everywhere = sorted(mats)
        kappa = [support.witness_shape(rc, mats, j)[0] for j in everywhere]
        assert [support.witness_shape(rc, mats, j) for j in everywhere] == [(k, True) for k in kappa]
        mat, (row_gen, row_sigma), (col_gen, col_sigma) = mats[i], rc.symbols(i), rc.symbols(i + 1)
        gens, sigmas = col_gen.tolist(), col_sigma.tolist()
        # witness rows f(tau; w), s* not in tau, by generator
        witness_rows = [
            r for r, (g, tau) in enumerate(zip(row_gen.tolist(), row_sigma.tolist()))
            if g in s_star and s_star[g] not in tau
        ]
        # a witness column with a g-term, whose generator has another witness row
        c = next(
            c for c, g in enumerate(gens)
            if s_star.get(g) in sigmas[c] and (mat.vars[mat.cols == c] != s_star[g]).any()
            and sum(row_gen[r] == g for r in witness_rows) > 1
        )
        ss = s_star[gens[c]]
        own = rc.row_finder()(col_gen[c:c + 1], np.array([[s for s in sigmas[c] if s != ss]]))[0]
        in_col = np.flatnonzero(mat.cols == c)
        diagonal = next(p for p in in_col if mat.vars[p] == ss)
        g_term = next(p for p in in_col if mat.vars[p] != ss)
        if corruption == "diagonal variable":
            # the Koszul entry +-x_{s*} of a witness column loses its variable
            mat.vars[diagonal] = next(v for v in range(1, 6) if v != ss)
        elif corruption == "diagonal sign":
            # a diagonal entry 2*x_{s*}: the determinant is no longer a monomial
            mat.signs[diagonal] = 2 * mat.signs[diagonal]
        elif corruption == "later block":
            # an off-diagonal entry of W moved to a witness row of a later block
            mat.rows[g_term] = max(witness_rows, key=lambda r: row_gen[r])
        elif corruption == "same block":
            # ... or to another witness row of the column's own block
            mat.rows[g_term] = next(r for r in witness_rows if row_gen[r] == gens[c] and r != own)
        elif corruption == "diagonal dropped":
            keep = np.arange(mat.entry_count()) != diagonal
            mat.rows, mat.cols, mat.signs, mat.vars = (a[keep] for a in mat.arrays)
        else:
            # a second +-x_{s*} in the diagonal cell, of the other sign: the cell is 0
            mat.rows, mat.cols, mat.signs, mat.vars = (
                np.insert(a, diagonal + 1, v) for a, v in zip(mat.arrays, (own, c, -mat.signs[diagonal], ss))
            )
        # kappa counts the witness columns, whatever their entries
        shapes = [support.witness_shape(rc, mats, j) for j in everywhere]
        assert shapes == [(k, j != i) for j, k in zip(everywhere, kappa)], corruption
        # d_i falls back for its own shape, d_{i+1} for d_i's
        report = random_rank_check(rc, seed=2, trials=1, differentials=mats.items())
        assert report.trials[0].methods == _fallback_only_at({i, i + 1}, mats), corruption
        _assert_true_ranks(rc, mats, report)


def test_dense_fallback_budget_edge(example_quotients, monkeypatch):
    # another variable in one entry of d1 of the worked example sends d1
    # (5 x 6 = 30 cells) and d2 (6 x 2) to the dense fallback; each matrix
    # is counted against ENTRY_BUDGET before it is built
    rc, mats = support.resolve(example_quotients)
    mats[1].vars[0] = mats[1].vars[0] % 4 + 1
    monkeypatch.setattr(verify, "ENTRY_BUDGET", 30)
    report = random_rank_check(rc, seed=5, trials=2, differentials=mats.items())
    assert report.trials[0].methods == ("dense", "dense-fallback", "dense-fallback")
    monkeypatch.setattr(verify, "ENTRY_BUDGET", 29)
    with pytest.raises(BudgetError, match="^the dense fallback on a 5 x 6 differential has 30 cells, "
                                          "over the budget 29$"):
        random_rank_check(rc, seed=5, trials=2, differentials=mats.items())


def _large_resolution():
    spec, _ = support.build_family_spec(6, (1, 0, 0, 1, 1, 1), (0, 1, 0, 0, 0, 3))
    return support.resolve(linear_quotients_check(power_generators(spec, 2)))


def _oracle_resolution():
    ctx = RingContext(5)
    u, v = Monomial(ctx, (1, 2, 0, 0, 0)), Monomial(ctx, (0, 1, 0, 0, 2))
    spec = LexSegmentSpec(ctx=ctx, d=3, u=u, v=v)
    return support.resolve(linear_quotients_check(power_generators(spec, 2)))


@pytest.mark.parametrize("build", [_shape_resolution, _oracle_resolution], ids=["classified", "oracle"])
def test_sparse_rank_matches_loop_on_differentials(build):
    rc, mats = build()
    point = np.random.default_rng(12).integers(1, P, size=rc.power.spec.ctx.n)
    for flipped in (False, True):  # clean, then one sign flipped per differential
        for mat in mats.values():
            if flipped:
                mat.signs[len(mat.signs) // 2] *= -1
            dense = _evaluate_dense(mat, point, P)
            assert rank_mod(dense) == support.rank_mod_loop(dense)


@pytest.mark.parametrize("build", [_large_resolution, _oracle_resolution], ids=["large", "oracle"])
def test_rank_check_premises_each_alone(build, monkeypatch):
    # each premise of the certificate broken alone, on a correct complex
    rc, mats = build()
    pd, j = len(rc.betti) - 1, 2
    clean = random_rank_check(rc, seed=4, trials=2, differentials=mats.items())
    assert clean.composed == support.composed(rc, mats) == [True] * pd
    assert all(t.methods == _fallback_only_at(set(), mats) for t in clean.trials)

    def run(target, fake):
        with monkeypatch.context() as m:
            m.setattr(target, fake)
            report = random_rank_check(rc, seed=4, trials=2, differentials=mats.items())
        assert [t.ranks for t in report.trials] == [t.ranks for t in clean.trials]
        return report

    # d_j unshaped: d_j loses its lower bound, d_{j+1} its upper bound
    shape = verify._witness_shape
    report = run("lexres.verify._witness_shape",
                 lambda mat, *args: (shape(mat, *args)[0], mat is not mats[j]))
    assert all(t.methods == _fallback_only_at({j, j + 1}, mats) for t in report.trials)
    # d_{j-1} ∘ d_j unproved: only d_j's upper bound goes
    compose = resolution.compose_check
    report = run("lexres.resolution.compose_check",
                 lambda lower, upper: upper is not mats[j] and compose(lower, upper))
    assert report.composed == [i != j - 1 for i in range(pd)]
    assert all(t.methods == _fallback_only_at({j}, mats) for t in report.trials)


def test_rank_check_composition_premise_with_shapes_intact():
    # a flipped Koszul sign in a column of d_j that is no witness: both
    # shapes hold, but d_{j-1} ∘ d_j and d_j ∘ d_{j+1} no longer vanish
    rc, mats = _large_resolution()
    pd, j = len(rc.betti) - 1, 2
    mat, (gen, sigma) = mats[j], rc.symbols(j + 1)
    s_star = np.array([min(s) if s else 0 for s in rc.quotients.sets])[gen]
    koszul = gen[mat.cols] == rc.symbols(j)[0][mat.rows]
    e = np.flatnonzero(koszul & ~(sigma[mat.cols] == s_star[mat.cols][:, None]).any(axis=1))[0]
    mat.signs[e] *= -1
    assert all(support.witness_shape(rc, mats, i)[1] for i in mats)
    report = random_rank_check(rc, seed=4, trials=2, differentials=mats.items())
    assert report.composed == support.composed(rc, mats)
    assert report.composed == [i not in (j - 1, j) for i in range(pd)]
    assert all(t.methods == _fallback_only_at({j, j + 1}, mats) for t in report.trials)
    _assert_true_ranks(rc, mats, report)


def _small_pinned():
    pinned = json.loads(WORKLOADS.read_text())
    return [
        support.cli_resolution(support.instance_argv(i))
        for name in ("family", "oracle") for i in pinned[name]["instances"] if i["n"] <= 5
    ]


def test_mutated_complexes_report_true_ranks():
    # one entry of a small pinned complex mutated: flipped or doubled sign,
    # another variable, moved to an empty cell of its column, or dropped;
    # whatever the certificate decides, every rank is the evaluated rank
    complexes = _small_pinned()

    @settings(derandomize=True, database=None, max_examples=120, deadline=None)
    @given(which=st.integers(0, len(complexes) - 1), i=st.integers(1, 8), at=st.floats(0, 1),
           kind=st.sampled_from(("sign", "var", "move", "drop", "double")), seed=st.integers(0, 9))
    def check(which, i, at, kind, seed):
        rc, mats0 = complexes[which]
        i = 1 + (i - 1) % len(mats0)
        mats = {
            j: DifferentialMatrix(m.nrows, m.ncols, *(a.copy() for a in m.arrays))
            for j, m in mats0.items()
        }
        mat, n = mats[i], rc.power.spec.ctx.n
        e = min(int(at * mat.entry_count()), mat.entry_count() - 1)
        if kind == "sign":
            mat.signs[e] *= -1
        elif kind == "double":
            mat.signs[e] *= 2
        elif kind == "var":
            mat.vars[e] = mat.vars[e] % n + 1
        elif kind == "drop":
            keep = np.arange(mat.entry_count()) != e
            mat.rows, mat.cols, mat.signs, mat.vars = (a[keep] for a in mat.arrays)
        else:
            empty = np.setdiff1d(np.arange(mat.nrows), mat.rows[mat.cols == mat.cols[e]])
            if not len(empty):
                return
            mat.rows[e] = empty[e % len(empty)]
        _assert_true_ranks(rc, mats, random_rank_check(rc, seed=seed, trials=2, differentials=mats.items()))

    check()


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json"


@pytest.mark.parametrize("seed", [0, 7, -3])
def test_witness_ranks_are_true_ranks_on_pinned_instances(seed):
    # every pinned family, oracle and self-test instance of the benchmark
    pinned = json.loads(WORKLOADS.read_text())
    for name in ("family", "oracle", "selftest"):
        for inst in pinned[name]["instances"]:
            rc, mats = support.cli_resolution(support.instance_argv(inst))
            report = random_rank_check(rc, seed=seed, trials=2, differentials=mats.items())
            assert report.passed, inst["id"]
            for t in report.trials:
                assert t.methods == _fallback_only_at(set(), mats), inst["id"]
            _assert_true_ranks(rc, mats, report)



def test_witness_count_is_a_binomial_sum_on_pinned_instances():
    # kappa_i = sum_w C(|set(w)| - 1, i - 1) over the nonempty sets, and
    # every d_i is shaped, at every position of every pinned family, oracle
    # and self-test instance
    pinned = json.loads(WORKLOADS.read_text())
    for name in ("family", "oracle", "selftest"):
        for inst in pinned[name]["instances"]:
            rc, mats = support.cli_resolution(support.instance_argv(inst))
            sizes = [len(s) for s in rc.quotients.sets if s]
            for i in mats:
                kappa = sum(math.comb(m - 1, i - 1) for m in sizes)
                assert support.witness_shape(rc, mats, i) == (kappa, True), (inst["id"], i)
