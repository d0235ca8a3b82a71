import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import support
from lexres import Monomial, RingContext, cmp_lex, one, variable
from lexres.monomials import first_divisors, minimal_rows
from support import bar_degree, cmp_prec, cmp_revlex, min_tilde_index


@pytest.fixture
def ctx():
    return RingContext(4)


def test_from_exponents(ctx):
    m = Monomial(ctx, [1, 0, 1, 0])
    assert str(m) == "x1x3"
    assert m.degree == 2
    assert one(ctx).degree == 0
    assert str(one(ctx)) == "1"
    sq = Monomial(ctx, [0, 2, 0, 0])
    assert str(sq) == "x2^2" and sq.degree == 2


def test_from_exponents_errors(ctx):
    with pytest.raises(ValueError):
        Monomial(ctx, [1, 0, 1])
    with pytest.raises(ValueError):
        Monomial(ctx, [1, 0, -1, 0])
    with pytest.raises(ValueError):
        RingContext(1)


def test_cmp_lex_example_values(ctx):
    u = Monomial(ctx, (1, 0, 1, 0))  # x1x3
    v = Monomial(ctx, (0, 1, 0, 1))  # x2x4
    assert cmp_lex(u, v) > 0
    assert cmp_lex(Monomial(ctx, (0, 2, 0, 0)), Monomial(ctx, (0, 1, 0, 1))) > 0
    assert cmp_lex(u, u) == 0


def test_cmp_revlex_example_order(ctx):
    # u1 = x2x4 < u2 = x1x4 < u3 = x2x3 < u4 = x1x3 < u5 = x2^2
    u1 = Monomial(ctx, (0, 1, 0, 1))
    u2 = Monomial(ctx, (1, 0, 0, 1))
    u5 = Monomial(ctx, (0, 2, 0, 0))
    u4 = Monomial(ctx, (1, 0, 1, 0))
    assert cmp_revlex(u1, u2) < 0
    assert cmp_revlex(u5, u4) > 0
    assert cmp_revlex(u4, u4) == 0
    with pytest.raises(ValueError):
        cmp_revlex(u1, Monomial(ctx, (1, 1, 1, 0)))


def test_cmp_prec_examples(ctx):
    x3x4 = Monomial(ctx, (0, 0, 1, 1))
    x2x4 = Monomial(ctx, (0, 1, 0, 1))
    x2x3 = Monomial(ctx, (0, 1, 1, 0))
    assert cmp_prec(x3x4, x2x4, 2) < 0  # bar-degrees 0 < 1
    assert cmp_prec(x2x3, x2x4, 2) > 0  # equal bar-degree, lex decides
    assert cmp_prec(x2x4, x2x4, 2) == 0
    with pytest.raises(ValueError):
        cmp_prec(x3x4, x2x4, 4)
    assert bar_degree(Monomial(ctx, (0, 1, 0, 2)), 2) == 1


def test_arithmetic(ctx):
    u4 = Monomial(ctx, (1, 0, 1, 0))
    assert Monomial(ctx, (1, 1, 0, 1)).try_divide(Monomial(ctx, (1, 0, 0, 1))) == variable(ctx, 2)
    assert Monomial(ctx, (1, 0, 0, 1)).try_divide(Monomial(ctx, (0, 1, 0, 1))) is None
    assert min_tilde_index(u4, 2) == 3
    assert u4.min_index() == 1
    with pytest.raises(ValueError):
        one(ctx).min_index()
    with pytest.raises(ValueError):
        min_tilde_index(Monomial(ctx, (1, 1, 0, 0)), 2)


def test_pow_and_roundtrip(ctx):
    v = Monomial(ctx, (0, 1, 0, 1))
    assert v**3 == Monomial(ctx, (0, 3, 0, 3))
    rng = random.Random(7)
    for _ in range(200):
        a = support.random_monomial(rng, ctx, 5)
        b = support.random_monomial(rng, ctx, 5)
        assert (a * b).try_divide(b) == a


def test_orders_match_brute_force():
    rng = random.Random(11)
    for n in (2, 3, 5):
        ctx = RingContext(n)
        for _ in range(300):
            a = support.random_monomial(rng, ctx, 6)
            b = support.random_monomial(rng, ctx, 6)
            assert cmp_lex(a, b) == support.brute_cmp_lex(a, b)


def test_orders_are_total_orders():
    rng = random.Random(13)
    ctx = RingContext(4)
    pool = [support.random_monomial_of_degree(rng, ctx, 4) for _ in range(60)]
    for cmp_fn in (
        cmp_lex,
        cmp_revlex,
        lambda a, b: cmp_prec(a, b, 2),
    ):
        for a in pool[:25]:
            for b in pool[:25]:
                # antisymmetry, and equality only for identical monomials
                assert cmp_fn(a, b) == -cmp_fn(b, a)
                if cmp_fn(a, b) == 0:
                    assert a == b
        for a in pool[:12]:
            for b in pool[:12]:
                for c in pool[:12]:
                    if cmp_fn(a, b) >= 0 and cmp_fn(b, c) >= 0:
                        assert cmp_fn(a, c) >= 0


def test_context_mismatch():
    a = Monomial(RingContext(3), (1, 0, 0))
    b = Monomial(RingContext(4), (1, 0, 0, 0))
    with pytest.raises(ValueError):
        cmp_lex(a, b)
    with pytest.raises(ValueError):
        a * b


def _exponent_rows(width):
    return st.lists(st.tuples(*[st.integers(0, 3)] * width), max_size=12)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(case=st.integers(1, 4).flatmap(lambda w: st.tuples(st.just(w), _exponent_rows(w),
                                                          _exponent_rows(w))))
@example(case=(3, [], [(1, 0, 2)]))  # empty G
@example(case=(3, [(1, 0, 0)], []))  # empty X
@example(case=(2, [(0, 1), (1, 1), (0, 1)], [(0, 1), (1, 1), (0, 1), (0, 0)]))  # duplicates
@example(case=(3, [(2, 1, 0), (0, 0, 0)], [(1, 1, 1), (2, 1, 0)]))  # a zero row
@example(case=(1, [(3,), (1,), (2,), (1,)], [(0,), (2,), (5,)]))  # a single column
def test_divisibility_scan_matches_loops(case):
    width, G, X = case
    Ga, Xa = (np.array(rows, dtype=np.int64).reshape(len(rows), width) for rows in (G, X))
    assert first_divisors(Ga, Xa).tolist() == support.first_divisors_loop(G, X)
    for rows, arr in ((G, Ga), (X, Xa)):
        minimal = minimal_rows(arr)
        assert minimal.shape[1] == width
        assert [tuple(r) for r in minimal.tolist()] == support.minimal_rows_loop(rows)
        # the first divisor of each minimal row is the row itself
        assert first_divisors(minimal, minimal).tolist() == list(range(len(minimal)))


def test_divisibility_scan_across_chunks(monkeypatch):
    rng = np.random.default_rng(5)
    G, X = rng.integers(0, 3, size=(7, 3)), rng.integers(0, 4, size=(50, 3))
    whole = first_divisors(G, X).tolist()
    monkeypatch.setattr("lexres.monomials._SCAN_CHUNK_CELLS", 10)  # one row of X per chunk
    assert first_divisors(G, X).tolist() == whole
    assert whole == support.first_divisors_loop(G.tolist(), X.tolist())
