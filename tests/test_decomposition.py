import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from lexres import decomposition
from lexres import (
    CheckFailure,
    InvariantError,
    Monomial,
    RingContext,
    closed_form_matches_oracle,
    closed_form_table,
    linear_quotients_check,
    oracle_table,
    power_generators,
    regularity_check_oracle,
    stream_resolution,
    variable,
)
from lexres.lexsegment import LexSegmentSpec
from lexres.quotients import high_branch, pair_arrays


def test_closed_form_table_example_values(example_quotients, example_power):
    g, coeff = closed_form_table(example_quotients)
    u1, u2, u3, u4, u5 = support.monomials(example_power)
    gen, s, X = pair_arrays(example_quotients)
    high = dict(zip(zip(gen.tolist(), s.tolist()), high_branch(example_power, gen, X)[1].tolist()))
    for (i, s), (branch, want, var) in {
        (3, 2): (True, u3, "x1"),  # x2*u4: high branch
        (3, 4): (False, u2, "x3"),  # x4*u4: low branch
        (4, 4): (True, u1, "x2"),  # x4*u5: high branch
    }.items():
        assert high[i, s] == branch
        assert support.monomials(example_power)[g[i, s - 1]] == want
        assert str(variable(u1.ctx, int(coeff[i, s - 1]))) == var


def _set_pairs(qs):
    """The (|G|, n) mask of the pairs (i, s) with s in set(m_i), at [i, s-1]."""
    on = np.zeros((len(qs.sets), qs.power.spec.ctx.n), dtype=bool)
    for i, st in enumerate(qs.sets):
        on[i, [s - 1 for s in st]] = True
    return on


def _assert_dense(qs, table):
    """Both arrays of a table are -1 exactly off the set pairs."""
    on = _set_pairs(qs)
    for a in table:
        assert a.dtype == np.int64 and a.shape == on.shape
        assert ((a >= 0) == on).all()
        assert (a[~on] == -1).all()


def test_tables_cover_exactly_the_set_pairs(example_quotients):
    # set(u1) is empty, so row u1 holds no pair and (u1, x3) is -1; every
    # table has the layout of the member matrix
    for table in (closed_form_table(example_quotients), oracle_table(example_quotients)):
        _assert_dense(example_quotients, table)
        assert table[0].shape == example_quotients.member.shape == (5, 4)
        assert (table[0][0] == -1).all()
    # only the definitional table, the one assembly reads, is cached
    assert "closed" not in example_quotients.g_tables and "oracle" in example_quotients.g_tables


def test_g_oracle_examples(example_quotients, example_power):
    ctx = example_power.spec.ctx
    u1, u2, u3, u4, u5 = support.monomials(example_power)
    assert support.g_oracle(example_quotients, Monomial(ctx, (1, 1, 1, 0))) == u3
    assert support.g_oracle(example_quotients, Monomial(ctx, (0, 2, 0, 1))) == u1
    for g in support.monomials(example_power):
        assert support.g_oracle(example_quotients, g) == g
    with pytest.raises(ValueError):
        support.g_oracle(example_quotients, Monomial(ctx, (1, 0, 0, 0)))


def test_g_oracle_minimality(example_quotients, example_power):
    # nothing earlier in the order divides x_s * m than the oracle's result
    gens = support.monomials(example_power)
    for m, st in zip(gens, example_quotients.sets):
        for s in st:
            x = m * variable(m.ctx, s)
            idx = support.g_oracle_index(example_quotients, x)
            for earlier in gens[:idx]:
                assert not support.divides(earlier, x)


def test_closed_equals_oracle_example(example_quotients):
    ok, mismatch = closed_form_matches_oracle(example_quotients)
    assert ok, mismatch


def test_closed_equals_oracle_squared(example_quotients_squared):
    ok, mismatch = closed_form_matches_oracle(example_quotients_squared)
    assert ok, mismatch


def test_coefficient_times_g(example_quotients, example_power):
    g_of, coeff_of = closed_form_table(example_quotients)
    gens = support.monomials(example_power)
    gen, col = np.nonzero(g_of >= 0)
    for i, s, g, coeff in zip(*(a.tolist() for a in (gen, col + 1, g_of[gen, col], coeff_of[gen, col]))):
        m = gens[i]
        x = variable(m.ctx, coeff)
        assert x * gens[g] == m * variable(m.ctx, s)
        assert x.degree == 1


def test_corrupted_table_entry_is_reported(example_spec, monkeypatch):
    qs = linear_quotients_check(power_generators(example_spec, 1))
    gens = support.monomials(qs.power)
    corrupted = closed_form_table(qs)
    corrupted[0][3, 3] = 0  # g(x4*u4) = u2
    monkeypatch.setattr(decomposition, "closed_form_table", lambda qs: corrupted)
    ok, mismatch = closed_form_matches_oracle(qs)
    assert not ok
    assert mismatch == (gens[3], 4, gens[0], gens[1])


_SMALL_SHAPES = [spec for spec in support.theorem_family_specs() if spec[0] <= 5]


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(shape=st.sampled_from(_SMALL_SHAPES), k=st.integers(1, 2))
def test_tables_agree_property(shape, k):
    n, d, l, ue, ve = shape
    spec, _ = support.build_family_spec(n, ue, ve)
    qs = linear_quotients_check(power_generators(spec, k))
    closed = closed_form_table(qs)
    oracle = oracle_table(qs)
    assert np.array_equal(closed[0], oracle[0])
    assert np.array_equal(closed[1], oracle[1])
    gen, col = np.nonzero(closed[0] >= 0)
    gens = support.monomials(qs.power)
    for i, s, g in zip(gen.tolist(), (col + 1).tolist(), closed[0][gen, col].tolist()):
        m = gens[i]
        assert support.g_oracle_index(qs, m * variable(m.ctx, s)) == g


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(spec=support.small_specs(), k=st.integers(1, 2))
def test_tables_are_minus_one_exactly_off_the_set_pairs(spec, k):
    # classified shapes and random pairs, linear or not: the oracle's table
    # always, the closed form's where the spec has a split index
    qs = linear_quotients_check(power_generators(spec, k))
    _assert_dense(qs, oracle_table(qs))
    if spec.l is not None:
        _assert_dense(qs, closed_form_table(qs))


def test_regularity_example(example_quotients):
    report = regularity_check_oracle(example_quotients)
    assert report.regular
    # spot value: set(g(x4 * u5)) = set(u1) = {} subset of {3, 4}
    qs = example_quotients
    gens = support.monomials(qs.power)
    g = support.g_oracle(qs, gens[4] * variable(qs.power.spec.ctx, 4))
    assert qs.sets[gens.index(g)] == ()


def test_regularity_squared(example_quotients_squared):
    assert regularity_check_oracle(example_quotients_squared).regular


def test_regularity_reports_first_counterexample(example_power):
    # with 3 added to set(u2) = set(x1x4), g(x4 * u4) = u2 breaks regularity;
    # assembly reads the definitional g and checks it, on the classified
    # shape too
    sets = [(), (2, 3), (4,), (2, 4), (3, 4)]
    assert example_power.spec.l is not None
    qs = support.quotient_structure(example_power, sets)
    report = regularity_check_oracle(qs)
    assert not report.regular
    assert report.counterexample == (support.monomials(example_power)[3], 4, 3)
    assert report.describe() == "not regular: t=3 in set(g(x4*x1x3)) but not in set(x1x3)"
    with pytest.raises(CheckFailure, match="cannot resolve: decomposition function not regular"):
        stream_resolution(qs)


def test_regularity_single_generator():
    ctx = RingContext(3)
    u = Monomial(ctx, (1, 1, 0))
    spec = LexSegmentSpec(ctx=ctx, d=2, u=u, v=u)
    qs = linear_quotients_check(power_generators(spec, 1))
    assert regularity_check_oracle(qs).regular


def test_requires_classified_spec():
    ctx = RingContext(3)
    u = Monomial(ctx, (1, 1, 0))
    spec = LexSegmentSpec(ctx=ctx, d=2, u=u, v=u)
    qs = linear_quotients_check(power_generators(spec, 1))
    with pytest.raises(ValueError, match="spec is not classified"):
        closed_form_table(qs)


def test_family_samples_closed_equals_oracle():
    rng = random.Random(6)
    picks = rng.sample(support.theorem_family_specs(), 6)
    for n, d, l, ue, ve in picks:
        spec, _ = support.build_family_spec(n, ue, ve)
        for k in (1, 2):
            qs = linear_quotients_check(power_generators(spec, k))
            ok, mismatch = closed_form_matches_oracle(qs)
            assert ok, (n, d, l, ue, k, mismatch)
            assert regularity_check_oracle(qs).regular


def test_oracle_on_mixed_degrees_raises():
    # a hand-built structure skips linear_quotients_check, so the table it
    # reads raises for it: x_s * m_i may then have divisors that are not
    # exchange neighbours
    ctx = RingContext(3)
    a, b = Monomial(ctx, (1, 1, 0)), Monomial(ctx, (0, 1, 2))
    pi = support.power_ideal(LexSegmentSpec(ctx=ctx, d=2, u=a, v=a), 1, (a, b))
    qs = support.quotient_structure(pi, [(), (1,)])
    with pytest.raises(InvariantError, match=r"degrees \[2, 3\], not one"):
        oracle_table(qs)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(n=st.integers(2, 5), d=st.integers(1, 3), data=st.data())
def test_oracle_table_matches_scan_on_any_sets(n, d, data):
    # one-degree generators in any order with arbitrary sets: the neighbour
    # lookup gives the earliest divisor and its cofactor on every pair
    ctx = RingContext(n)
    gens = data.draw(st.lists(st.sampled_from(support.all_monomials(ctx, d)), min_size=1,
                              max_size=10, unique=True))
    gens = data.draw(st.permutations(gens))
    subsets = st.sets(st.integers(1, n)).map(lambda st_: tuple(sorted(st_)))
    sets = data.draw(st.lists(subsets, min_size=len(gens), max_size=len(gens)))
    pi = support.power_ideal(LexSegmentSpec(ctx=ctx, d=d, u=gens[0], v=gens[0]), 1, gens)
    qs = support.quotient_structure(pi, sets)
    table = oracle_table(qs)
    _assert_dense(qs, table)
    g_of, coeff_of = table
    gen, col = np.nonzero(g_of >= 0)
    for i, s, g, coeff in zip(*(a.tolist() for a in (gen, col + 1, g_of[gen, col], coeff_of[gen, col]))):
        x = gens[i] * variable(ctx, s)
        assert g == support.g_oracle_index(qs, x)
        assert gens[g] * variable(ctx, coeff) == x
