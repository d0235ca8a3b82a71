import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from lexres import (
    BudgetError,
    InvariantError,
    Monomial,
    RingContext,
    enumerate_lexsegment,
    lexsegment,
    power_generators,
    powers,
)
from lexres.lexsegment import LexSegmentSpec


def test_example_order_k1(example_power):
    assert [str(g) for g in support.monomials(example_power)] == [
        "x2x4",
        "x1x4",
        "x2x3",
        "x1x3",
        "x2^2",
    ]


def test_example_k2_count_and_collision(example_spec, example_power_squared):
    gens = example_power_squared.exponent_matrix.tolist()
    assert len(gens) == 14  # 15 unordered pairs, one collision
    assert [1, 1, 1, 1] in gens  # u1u4 = u2u3
    segment = enumerate_lexsegment(example_spec.u, example_spec.v)
    assert set(map(tuple, gens)) == support.brute_power_products(segment, 2)


def test_single_generator_power():
    ctx = RingContext(3)
    u = Monomial(ctx, (1, 1, 0))
    spec = LexSegmentSpec(ctx=ctx, d=2, u=u, v=u)
    pi = power_generators(spec, 4)
    assert pi.exponent_matrix.tolist() == [[4, 4, 0]]


def test_increasing_revlex_and_minimality(example_spec):
    for k in (1, 2, 3):
        pi = power_generators(example_spec, k)
        gens = support.monomials(pi)
        for a, b in zip(gens, gens[1:]):
            assert support.cmp_revlex(a, b) < 0
        for i, a in enumerate(gens):
            for b in gens[i + 1 :]:
                assert not support.divides(a, b) and not support.divides(b, a)


def test_products_match_tuple_oracle(example_spec):
    segment = enumerate_lexsegment(example_spec.u, example_spec.v)
    for k in (1, 2, 3):
        pi = power_generators(example_spec, k)
        assert set(map(tuple, pi.exponent_matrix.tolist())) == support.brute_power_products(segment, k)


def test_bar_degree_bound_on_family():
    rng = random.Random(5)
    picks = rng.sample(support.theorem_family_specs(), 8)
    for n, d, l, ue, ve in picks:
        spec, cls = support.build_family_spec(n, ue, ve)
        assert cls.linear_form_l == l
        for k in (1, 2):
            pi = power_generators(spec, k)
            for g in support.monomials(pi):
                assert support.bar_degree(g, l) >= k


def test_budget_guard(example_spec, monkeypatch):
    monkeypatch.setattr(lexsegment, "DEFAULT_PRODUCT_BUDGET", 100)
    with pytest.raises(BudgetError):
        power_generators(example_spec, 12)
    assert math.comb(5 + 12 - 1, 12) > 100


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(size=st.integers(1, 60), k=st.integers(1, 200), cap=st.integers(1, 2**70))
def test_multiset_count_is_exact_up_to_its_cap(size, k, cap):
    # C(size + k - 1, k) where it is at most cap, and None past it
    count = math.comb(size + k - 1, k)
    assert powers._multisets(size, k, cap) == (count if count <= cap else None)


def test_neighbours_example(example_power):
    # generators x2x4, x1x4, x2x3, x1x3, x2^2: x2 * x1x4 / x1 = x2x4, and
    # x3 * x1x4 / x4 = x1x3; x2 does not divide x3 * x1x4
    N = example_power.neighbours
    assert N.shape == (5, 4, 4) and N is example_power.neighbours
    assert N[1, 1, 0] == 0 and N[1, 2, 3] == 3
    assert N[1, 2, 1] == 5 and N[1, 0, 3] == 5  # x1^2 is not a generator
    assert all((N[i].diagonal() == i).all() for i in range(5))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(n=st.integers(2, 5), d=st.integers(1, 3), data=st.data())
def test_neighbours_match_loop_on_shuffled_sets(n, d, data):
    # one-degree generator sets in any order, every (i, s, t) against the dict loop
    ctx = RingContext(n)
    gens = data.draw(st.lists(st.sampled_from(support.all_monomials(ctx, d)), min_size=1,
                              max_size=12, unique=True))
    gens = data.draw(st.permutations(gens))
    pi = support.power_ideal(LexSegmentSpec(ctx=ctx, d=d, u=gens[0], v=gens[0]), 1, gens)
    table = support.neighbours_loop(pi)
    assert pi.neighbours.tolist() == table
    # the earliest neighbour per (i, s) and its 1-based t, computed once
    g, t = pi.earliest
    assert g.tolist() == [[min(row) for row in rows] for rows in table]
    assert t.tolist() == [[row.index(min(row)) + 1 for row in rows] for rows in table]
    assert pi.earliest[0] is g


def test_neighbours_beyond_int64_row_keys():
    # quotient rows with one digit per variable in base 4 would need 4^40 > 2^63;
    # compared as raw bytes they stay exact
    n = 40
    ue, ve = [0] * n, [0] * n
    ue[0], ue[2], ve[1], ve[n - 1] = 1, 1, 1, 1  # L(x1x3, x2x40)
    spec, _ = support.build_family_spec(n, tuple(ue), tuple(ve))
    pi = power_generators(spec, 1)
    assert int(pi.exponent_matrix.max()) + 2 == 4
    N = pi.neighbours
    assert N.tolist() == support.neighbours_loop(pi)
    assert (N < len(pi)).sum() > len(pi) * n  # neighbours off the diagonal


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(spec=support.small_specs(), k=st.integers(1, 3))
def test_power_generators_match_loop(spec, k):
    pi = power_generators(spec, k)
    ref = support.power_generators_loop(spec, k)
    assert pi.exponent_matrix.dtype == np.int64 and pi.exponent_matrix.shape == (len(pi), spec.ctx.n)
    assert np.array_equal(pi.exponent_matrix, ref.exponent_matrix)


def test_bar_degree_violation_matches_loop():
    # a split index forced onto a segment reaching x3^2 and x4^2, whose bar
    # degree is 0
    ctx = RingContext(4)
    spec = LexSegmentSpec(
        ctx=ctx, d=2, u=Monomial(ctx, (1, 0, 0, 1)), v=Monomial(ctx, (0, 0, 0, 2)), l=2
    )
    for k in (1, 2):
        with pytest.raises(InvariantError) as got:
            power_generators(spec, k)
        with pytest.raises(InvariantError) as ref:
            support.power_generators_loop(spec, k)
        assert str(got.value) == str(ref.value) == f"generator x4^{2 * k} has bar-degree < k={k}"


def test_power_generators_hold_only_their_matrix():
    # the n=7, k=2 ladder row x1x4x5x6x7 / x2x7^4: G(I^2) is stored once, as
    # its int64 matrix, so what the call leaves allocated is that matrix
    spec, _ = support.build_family_spec(7, (1, 0, 0, 1, 1, 1, 1), (0, 1, 0, 0, 0, 0, 4))
    tracemalloc.start()
    try:
        pi = power_generators(spec, 2)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pi.exponent_matrix.shape == (2225, 7)
    assert held <= pi.exponent_matrix.nbytes + 64 * 1024
