import dataclasses
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from lexres import (
    CheckFailure,
    Monomial,
    RingContext,
    closed_form_table,
    compose_check,
    compose_check_d0,
    linear_quotients_check,
    make_classified_spec,
    power_generators,
)
from lexres import resolution
from lexres.cli import main
from lexres.decomposition import regularity_check_oracle
from lexres.lexsegment import LexSegmentSpec
from lexres.resolution import DifferentialMatrix, ResolutionComplex, stream_resolution

# the three displayed differentials of the worked example, transcribed as
# row-major grids against the documented basis ordering
D0_GRID = [["x2x4", "x1x4", "x2x3", "x1x3", "x2^2"]]
D1_GRID = [
    ["x1", "x3", "0", "0", "0", "x2"],
    ["-x2", "0", "0", "x3", "0", "0"],
    ["0", "-x4", "x1", "0", "x2", "0"],
    ["0", "0", "-x2", "-x4", "0", "0"],
    ["0", "0", "0", "0", "-x3", "-x4"],
]
D2_GRID = [
    ["-x3", "0"],
    ["x1", "x2"],
    ["x4", "0"],
    ["-x2", "0"],
    ["0", "x4"],
    ["0", "-x3"],
]


def test_example_basis_order(example_resolution):
    rc, _ = example_resolution
    assert support.labels(rc, 2) == [
        "f({2};u2)",
        "f({4};u3)",
        "f({2};u4)",
        "f({4};u4)",
        "f({3};u5)",
        "f({4};u5)",
    ]
    assert support.labels(rc, 3) == ["f({2,4};u4)", "f({3,4};u5)"]
    assert len(rc.betti) == 4  # no F_4


def test_example_matrices_exact(example_resolution):
    assert support.matrix_grid(*example_resolution, 0) == D0_GRID
    assert support.matrix_grid(*example_resolution, 1) == D1_GRID
    assert support.matrix_grid(*example_resolution, 2) == D2_GRID


def test_example_betti_and_shifts(example_resolution):
    rc, _ = example_resolution
    assert rc.betti == (1, 5, 6, 2)
    assert rc.shifts == ((0, 1), (-2, 5), (-3, 6), (-4, 2))
    assert tuple(len(rc.symbols(i)[0]) for i in (1, 2, 3)) == (5, 6, 2)


def test_zero_rule_dropped_term(example_resolution):
    # the column f({3,4};u5) drops the x2 f({3};u1) term since {3} ⊄ set(u1)
    mat = example_resolution[1][2]
    col = mat.rows[mat.cols == 1]
    assert len(col) == 3


def test_compose_and_minimality(example_resolution):
    rc, mats = example_resolution
    assert support.composed(rc, mats) == [True] * 3
    assert support.minimal(rc, mats)


def test_degree_homogeneity(example_resolution, example_quotients_squared):
    # every entry of d_i is multidegree-homogeneous: f(sigma; w) has multidegree
    # w * prod_{s in sigma} x_s, and the entry's variable makes up the difference
    for rc, mats in (example_resolution, support.resolve(example_quotients_squared)):
        gens = rc.power.exponent_matrix
        n = gens.shape[1]

        def multidegree(i, rows):
            gen, sigma = rc.symbols(i)
            out = gens[gen[rows]].copy()
            for pos in range(sigma.shape[1]):
                out[np.arange(len(rows)), sigma[rows, pos] - 1] += 1
            return out

        for i, mat in mats.items():
            var = np.eye(n, dtype=np.int64)[mat.vars - 1]
            col = multidegree(i + 1, mat.cols)
            row = multidegree(i, mat.rows)
            assert (col == row + var).all(), i


def test_single_generator_resolution():
    ctx = RingContext(3)
    u = Monomial(ctx, (1, 1, 0))
    spec = LexSegmentSpec(ctx=ctx, d=2, u=u, v=u)
    qs = linear_quotients_check(power_generators(spec, 1))
    rc, mats = support.resolve(qs)
    assert rc.betti == (1, 1)
    assert len(rc.betti) - 1 == 1 and mats == {}
    assert support.composed(rc, mats) == [True]
    assert support.minimal(rc, mats)


def test_rank_identity_binomials(example_quotients_squared):
    rc, _ = support.resolve(example_quotients_squared)
    sets = example_quotients_squared.sets
    assert rc.betti == (1, *(sum(math.comb(len(s), r) for s in sets) for r in range(max(map(len, sets)) + 1)))
    for i, (gens, sigmas) in support.bases(rc).items():
        assert len(gens) == rc.betti[i]
        # the rows are distinct (i-1)-subsets of set(gen), so the count is the binomial sum
        assert len(set(zip(gens, map(tuple, sigmas)))) == len(gens)
        for gen, sigma in zip(gens, sigmas):
            assert sigma == sorted(set(sigma)) and set(sigma) <= set(sets[gen])


def test_complex_holds_its_quotients_alone(example_quotients_squared):
    # every basis is computed from the layout when a stage asks for it:
    # every array the complex holds has |G| rows, but the binomial table of
    # the widest set, and none is sized by a Betti number past beta_1 = |G|,
    # before or after its differentials are built
    rc, differentials = stream_resolution(example_quotients_squared)
    r, top = len(example_quotients_squared.member), 3
    layout = {"sizes": (r,), "starts": (r, top + 1), "padded": (r, top), "binom": (top + 1, top + 1)}
    assert rc.betti == (1, r, 24, 13, 2)

    def held():
        return {key: a.shape for key, a in vars(rc).items() if isinstance(a, np.ndarray)}

    assert vars(rc).keys() == {"quotients", "betti", *layout} and held() == layout
    assert len(dict(differentials)) == len(rc.betti) - 2
    assert vars(rc).keys() == {"quotients", "betti", *layout} and held() == layout


def test_basis_requires_linear():
    ctx = RingContext(3)
    from lexres.quotients import linear_quotients_check as lq

    a = Monomial(ctx, (2, 0, 0))
    b = Monomial(ctx, (0, 2, 0))
    spec = LexSegmentSpec(ctx=ctx, d=2, u=a, v=b)
    pi = support.power_ideal(spec, 1, (b, a))
    qs = lq(pi)
    # a failed check on well-formed input, never an input error
    with pytest.raises(CheckFailure, match="cannot resolve: linear quotients fail"):
        stream_resolution(qs)


def test_unclassified_spec_builds_from_the_definitional_table(capsys):
    # L(x1x2, x2x3) is outside the classified shape (x2 | v, so l is unset):
    # the library takes the definitional g, never the closed form, and builds
    # the complex that `export --oracle-g` writes
    ctx = RingContext(3)
    spec, _, _ = make_classified_spec(Monomial(ctx, (1, 1, 0)), Monomial(ctx, (0, 1, 1)))
    assert spec.l is None
    qs = linear_quotients_check(power_generators(spec, 2))
    rc, mats = support.resolve(qs)
    assert "closed" not in qs.g_tables and "oracle" in qs.g_tables
    assert all(support.composed(rc, mats))
    assert main(["export", "--format", "json", "--n", "3", "--u", "x1x2", "--v", "x2x3", "--k", "2",
                 "--oracle-g"]) == 0
    assert capsys.readouterr().out == support.resolution_to_json(rc, mats)


def test_family_sample_k3_properties():
    rng = random.Random(12)
    picks = rng.sample(support.theorem_family_specs(), 3)
    for n, d, l, ue, ve in picks:
        spec, _ = support.build_family_spec(n, ue, ve)
        qs = linear_quotients_check(power_generators(spec, 3))
        rc, mats = support.resolve(qs)
        assert all(support.composed(rc, mats))
        assert support.minimal(rc, mats)
        assert len(rc.betti) - 1 == 1 + max(len(s) for s in qs.sets)


def test_closed_form_table_equals_definitional_table(example_spec, example_quotients):
    # the worked example, with and without its split index l, assembles from
    # the definitional table alone, and the closed form equals that table
    a, a_mats = support.resolve(example_quotients)
    qs = linear_quotients_check(power_generators(dataclasses.replace(example_spec, l=None), 1))
    b, b_mats = support.resolve(qs)
    for q in (example_quotients, qs):
        assert "closed" not in q.g_tables and "oracle" in q.g_tables
    assert a_mats == b_mats
    assert support.bases(a) == support.bases(b)
    closed, oracle = closed_form_table(example_quotients), example_quotients.g_tables["oracle"]
    assert all(np.array_equal(c, o) for c, o in zip(closed, oracle))


def test_compose_check_matches_loop_on_corruptions(example_quotients_squared):
    rng = random.Random(17)
    spec, _ = support.build_family_spec(5, (1, 0, 1, 1, 0), (0, 1, 0, 0, 2))
    failures = 0
    for qs in (example_quotients_squared, linear_quotients_check(power_generators(spec, 2))):
        rc, mats = support.resolve(qs)
        n = qs.power.spec.ctx.n
        for i, mat in mats.items():
            for _ in range(12):
                p = rng.randrange(mat.entry_count())
                field = rng.choice([mat.signs, mat.vars, mat.rows])
                old = int(field[p])
                if field is mat.signs:
                    # a flipped, doubled or zeroed sign, so that groups also sum
                    # values other than +-1
                    field[p] = rng.choice([-old, 2 * old, 0])
                elif field is mat.vars:
                    # 0 and n + 1 stand for malformed imported entries
                    field[p] = rng.choice([v for v in range(0, n + 2) if v != old])
                else:
                    field[p] = rng.choice([r for r in range(mat.nrows) if r != old] or [old])
                for j in (i - 1, i):
                    got = support.compose_at(rc, mats, j)
                    assert got == support.compose_check_loop(rc, mats, j), (i, j, p)
                    failures += not got
                field[p] = old
            assert all(support.composed(rc, mats))
    assert failures


@pytest.mark.parametrize("cap", [40, 1])
def test_compose_check_matches_loop_on_corruptions_in_ranges(example_quotients_squared,
                                                             monkeypatch, cap):
    # with a pair cap of 1 every column is a range of its own; 40 puts a few
    # columns together
    monkeypatch.setattr("lexres.resolution._COMPOSE_PAIRS", cap)
    test_compose_check_matches_loop_on_corruptions(example_quotients_squared)


def test_compose_check_ranges_bound_its_memory(monkeypatch):
    # d2 ∘ d3 of the large benchmark instance: 22,822 products in one
    # range at the default cap, ranges of at most 4,096 below it
    spec, _ = support.build_family_spec(6, (1, 0, 0, 1, 1, 1), (0, 1, 0, 0, 0, 3))
    _, mats = support.resolve(linear_quotients_check(power_generators(spec, 2)))

    def peak():
        tracemalloc.start()
        try:
            assert compose_check(mats[2], mats[3])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    whole = peak()
    monkeypatch.setattr("lexres.resolution._COMPOSE_PAIRS", 1 << 12)
    assert peak() < whole / 2


def test_compose_check_blocks_bound_its_memory(monkeypatch):
    # every consecutive pair of the n=7, k=2 ladder row (x1x4x5x6x7 / x2x7^4):
    # at a cap of 2^12 the peak is bounded by the cap and by the column count
    # of d_i (its column starts and widths), not by the entry counts, which
    # reach 109,602 in d3
    cap = 1 << 12
    monkeypatch.setattr("lexres.resolution._COMPOSE_PAIRS", cap)
    spec, _ = support.build_family_spec(7, (1, 0, 0, 1, 1, 1, 1), (0, 1, 0, 0, 0, 0, 4))
    _, mats = support.resolve(linear_quotients_check(power_generators(spec, 2)))
    assert max(mats) == 6
    for i in range(1, max(mats)):
        tracemalloc.start()
        try:
            assert compose_check(mats[i], mats[i + 1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 96 * cap + 32 * mats[i].ncols, (i, peak)


def test_compose_check_blocks_match_loop_property(monkeypatch):
    # classified shapes and unclassified pairs, which resolve with the
    # definitional g as --oracle-g does: at caps 1, 7 and the default, every
    # d_i ∘ d_{i+1} with i >= 1 agrees with the loop, on the assembled complex
    # and after one entry of d_i or d_{i+1} is corrupted
    seen, caps = set(), (1, 7, resolution._COMPOSE_PAIRS)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(spec=support.small_specs(), k=st.integers(1, 2), data=st.data())
    def check(spec, k, data):
        qs = linear_quotients_check(power_generators(spec, k))
        if not qs.is_linear or not regularity_check_oracle(qs).regular:
            return
        rc, mats = support.resolve(qs)
        n = spec.ctx.n
        for i in range(1, len(rc.betti) - 2):
            mat = mats[data.draw(st.sampled_from([i, i + 1]))]
            p = data.draw(st.integers(0, mat.entry_count() - 1))
            name = data.draw(st.sampled_from(["signs", "vars", "rows"]))
            field = getattr(mat, name)
            old = int(field[p])
            # as in the corruption test above: a sign flipped, doubled or
            # zeroed, a var outside 1..n included, a row moved
            new = {"signs": [-old, 2 * old, 0], "vars": [v for v in range(n + 2) if v != old],
                   "rows": [r for r in range(mat.nrows) if r != old] or [old]}[name]
            for value in (old, data.draw(st.sampled_from(new))):
                field[p] = value
                expected = support.compose_check_loop(rc, mats, i)
                for cap in caps:
                    monkeypatch.setattr(resolution, "_COMPOSE_PAIRS", cap)
                    assert compose_check(mats[i], mats[i + 1]) == expected, (i, cap, value)
                seen.add((spec.l is not None, expected))
            field[p] = old

    check()
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("n, power", [(40, 1), (4, 2**32 - 1)], ids=["n40", "x1^(2^32-1)"])
def test_compose_check_d0_beyond_int64_row_keys(n, power):
    # u1 = x1^a x2 x_{n-1} and u2 = x1^a x2 x_n: d1 sends f({n-1}; u2) to
    # x_n u1 - x_{n-1} u2.  With the g-term's x_n changed to x_{n-1}, the
    # terms x_{n-1} u1 and x_{n-1} u2 differ only in the exponents of x_{n-1}
    # and x_n.  Packed into one int64 with a field per variable, as wide as
    # the largest exponent needs, both of those fields lie past bit 64 and
    # the two keys would be equal; rows compared as raw bytes stay apart
    ctx = RingContext(n)
    e1 = [0] * n
    e1[0], e1[1] = power, 1
    e2 = list(e1)
    e1[n - 2], e2[n - 1] = 1, 1
    u1, u2 = Monomial(ctx, e1), Monomial(ctx, e2)
    pi = support.power_ideal(LexSegmentSpec(ctx=ctx, d=u1.degree, u=u1, v=u2), 1, (u1, u2))
    rc, mats = support.resolve(linear_quotients_check(pi))
    d1 = mats[1]
    assert d1.vars.tolist() == [n, n - 1] and compose_check_d0(pi.exponent_matrix, d1)
    d1.vars[0] = n - 1
    terms = [tuple(e + (j == v - 1) for j, e in enumerate(pi.exponent_matrix[r].tolist()))
             for r, v in zip(d1.rows.tolist(), d1.vars.tolist())]
    width = max(map(max, terms)).bit_length()
    packed = [sum(e << (width * j) for j, e in enumerate(t)) % 2**64 for t in terms]
    assert terms[0] != terms[1] and packed[0] == packed[1]
    assert not compose_check_d0(pi.exponent_matrix, d1)
    assert not support.compose_check_loop(rc, mats, 0)


def test_resolution_basis_matches_loop():
    # classified shapes, unclassified pairs as --oracle-g resolves them, and
    # any sorted sets on their generators, the empty one and all of 1..n
    # included: symbols(i) is the loop's basis, whose sizes are the Betti
    # numbers, the row found through the layout for each symbol is its
    # position, and a tau outside set(w) finds -1
    seen = set()

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(spec=support.small_specs(), k=st.integers(1, 2), seed=st.integers(0, 2**32))
    def check(spec, k, seed):
        qs = linear_quotients_check(power_generators(spec, k))
        if not qs.is_linear:
            return
        rng, n = random.Random(seed), spec.ctx.n
        sets = [sorted(rng.sample(range(1, n + 1), rng.randrange(n + 1))) for _ in qs.sets]
        sets[rng.randrange(len(sets))] = rng.choice([[], list(range(1, n + 1))])
        for structure in (qs, support.quotient_structure(qs.power, sets)):
            rc = ResolutionComplex(quotients=structure)
            loop = support.resolution_basis_loop(structure)
            find = rc.row_finder()
            assert loop.keys() == set(range(1, len(rc.betti)))
            assert rc.betti == (1, *(len(gen) for gen, _ in loop.values()))
            for i, (gen, sigma) in loop.items():
                assert all(a.dtype == np.int64 and np.array_equal(a, b) for a, b in zip(rc.symbols(i), (gen, sigma)))
                assert find(gen, sigma).tolist() == list(range(len(gen))), i
                # every generator against three random (i-1)-subsets of 1..n
                w = np.arange(len(sets)).repeat(3)
                tau = np.array([sorted(rng.sample(range(1, n + 1), i - 1)) for _ in w],
                               dtype=np.int64).reshape(len(w), i - 1)
                where = {(g, tuple(t)): r for r, (g, t) in enumerate(zip(gen.tolist(), sigma.tolist()))}
                expected = [where.get((g, tuple(t)), -1) for g, t in zip(w.tolist(), tau.tolist())]
                assert find(w, tau).tolist() == expected, i
                seen.update(("inside", e >= 0) for e in expected)
        seen.add(("classified", spec.l is not None))

    check()
    assert seen == {(kind, b) for kind in ("inside", "classified") for b in (True, False)}


@pytest.mark.parametrize("field, value", [
    ("row", 2**31), ("column", -(2**31) - 1), ("sign", 128), ("sign", -129), ("var", 2**15), ("var", -(2**15) - 1),
])
def test_differential_refuses_values_past_its_types(field, value):
    # rows and columns are int32, signs int8 and vars int16: a value past
    # its type is refused, never wrapped
    cells = {"row": [0], "column": [0], "sign": [1], "var": [1]}
    cells[field] = [value]
    with pytest.raises(ValueError, match=f"a {field} outside"):
        DifferentialMatrix(1, 1, *cells.values())


def test_differential_keeps_the_limits_of_its_types():
    limits = ([0, 2**31 - 1], [-(2**31), 2**31 - 1], [-128, 127], [-(2**15), 2**15 - 1])
    mat = DifferentialMatrix(2, 2, *limits)
    assert [a.dtype.itemsize for a in mat.arrays] == [4, 4, 1, 2]
    assert [a.tolist() for a in mat.arrays] == list(limits)

