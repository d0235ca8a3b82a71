import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from lexres import (
    InvariantError,
    Monomial,
    RingContext,
    classify_linear_form,
    enumerate_lexsegment,
    is_completely_lexsegment,
    make_classified_spec,
    normalize_spec,
    shadow,
)
from lexres.lexsegment import LexSegmentSpec, lex_max, lex_min, lex_rank


def M(ctx, *exps):
    return Monomial(ctx, exps)


def test_example_segment(ring4):
    seg = enumerate_lexsegment(M(ring4, 1, 0, 1, 0), M(ring4, 0, 1, 0, 1))
    assert [str(m) for m in seg] == ["x1x3", "x1x4", "x2^2", "x2x3", "x2x4"]


def test_single_point_segment(ring4):
    u = M(ring4, 1, 0, 1, 0)
    assert enumerate_lexsegment(u, u) == [u]


def test_degree2_two_vars():
    ctx = RingContext(2)
    seg = enumerate_lexsegment(M(ctx, 2, 0), M(ctx, 0, 2))
    assert [str(m) for m in seg] == ["x1^2", "x1x2", "x2^2"]
    assert [m.exponents for m in seg] == [m.exponents for m in support.interval_filter(M(ctx, 2, 0), M(ctx, 0, 2))]


def test_segment_errors(ring4):
    with pytest.raises(ValueError):
        enumerate_lexsegment(M(ring4, 0, 1, 0, 1), M(ring4, 1, 0, 1, 0))
    with pytest.raises(ValueError):
        enumerate_lexsegment(M(ring4, 1, 0, 0, 0), M(ring4, 0, 1, 0, 1))


def test_segment_matches_filter_oracle():
    rng = random.Random(3)
    for n in (3, 4, 5):
        ctx = RingContext(n)
        for d in (2, 3, 4):
            for _ in range(10):
                a = support.random_monomial_of_degree(rng, ctx, d)
                b = support.random_monomial_of_degree(rng, ctx, d)
                if support.brute_cmp_lex(a, b) < 0:
                    a, b = b, a
                seg = enumerate_lexsegment(a, b)
                assert [m.exponents for m in seg] == [m.exponents for m in support.interval_filter(a, b)]


def test_lex_rank_is_the_position_in_the_degree_slice():
    for n in (2, 3, 5):
        for d in (0, 1, 3):
            ctx = RingContext(n)
            ordered = sorted(support.all_monomials(ctx, d), key=lambda m: m.exponents, reverse=True)
            assert [lex_rank(m) for m in ordered] == list(range(len(ordered)))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(n=st.integers(2, 6), d=st.integers(1, 4), data=st.data())
def test_lex_rank_counts_the_segment(n, d, data):
    # |L(u, v)| from two ranks, against the lex walk
    monomials = support.all_monomials(RingContext(n), d)
    a, b = (data.draw(st.sampled_from(monomials)) for _ in range(2))
    u, v = (a, b) if support.brute_cmp_lex(a, b) >= 0 else (b, a)
    assert lex_rank(v) - lex_rank(u) + 1 == len(enumerate_lexsegment(u, v))


def test_shadow_basics(ring4):
    assert shadow([]) == set()
    sh = shadow([M(ring4, 0, 0, 0, 2)])
    assert sh == {
        M(ring4, 1, 0, 0, 2),
        M(ring4, 0, 1, 0, 2),
        M(ring4, 0, 0, 1, 2),
        M(ring4, 0, 0, 0, 3),
    }


def test_shadow_of_example_segment(ring4):
    seg = enumerate_lexsegment(M(ring4, 1, 0, 1, 0), M(ring4, 0, 1, 0, 1))
    sh = shadow(seg)
    assert len(sh) == 14
    assert lex_max(sh) == M(ring4, 2, 0, 1, 0)
    assert lex_min(sh) == M(ring4, 0, 1, 0, 2)
    assert sh == support.shadow_by_divisibility(seg)


def test_iterated_shadow_matches_divisibility(ring4):
    seg = enumerate_lexsegment(M(ring4, 1, 0, 1, 0), M(ring4, 0, 1, 0, 1))
    sh2 = shadow(shadow(seg))
    assert sh2 == support.shadow_by_divisibility(seg, steps=2)


def test_completely_lex_failing_case():
    ctx = RingContext(3)
    spec = LexSegmentSpec(ctx=ctx, d=1, u=M(ctx, 0, 1, 0), v=M(ctx, 0, 1, 0))
    verdict = is_completely_lexsegment(spec, depth=1, first_shadow_persistence=False)
    assert verdict.status == "no"
    assert verdict.failing_depth == 1
    assert verdict.witness == M(ctx, 1, 0, 1)


def test_completely_lex_passing_case():
    ctx = RingContext(2)
    spec = LexSegmentSpec(ctx=ctx, d=2, u=M(ctx, 2, 0), v=M(ctx, 2, 0))
    verdict = is_completely_lexsegment(spec, depth=3, first_shadow_persistence=False)
    assert verdict.status == "unknown"
    assert verdict.depth_checked == 3
    promoted = is_completely_lexsegment(spec, depth=3, first_shadow_persistence=True)
    assert promoted.status == "yes"


def test_completely_lex_reports_what_enumeration_finds(example_spec):
    # the shadow probe reports its own enumeration; no label is hard-coded
    verdict = is_completely_lexsegment(example_spec, depth=2, first_shadow_persistence=False)
    if verdict.status == "no":
        seg = enumerate_lexsegment(example_spec.u, example_spec.v)
        sh = set(seg)
        for _ in range(verdict.failing_depth):
            sh = shadow(sh)
        assert verdict.witness not in sh
        assert support.brute_cmp_lex(lex_max(sh), verdict.witness) >= 0
        assert support.brute_cmp_lex(verdict.witness, lex_min(sh)) >= 0
    else:
        assert verdict.status == "unknown"


def test_witness_consistency_random():
    rng = random.Random(17)
    checked = 0
    for _ in range(120):
        n = rng.choice((3, 4))
        ctx = RingContext(n)
        d = rng.choice((2, 3))
        u, v = support.random_normalized_pair(rng, ctx, d)
        spec = LexSegmentSpec(ctx=ctx, d=d, u=u, v=v)
        verdict = is_completely_lexsegment(spec, depth=2, first_shadow_persistence=False)
        if verdict.status == "no":
            checked += 1
            current = set(enumerate_lexsegment(u, v))
            for _ in range(verdict.failing_depth):
                current = shadow(current)
            assert verdict.witness not in current
            assert support.brute_cmp_lex(lex_max(current), verdict.witness) > 0
            assert support.brute_cmp_lex(verdict.witness, lex_min(current)) > 0
    assert checked > 0


def test_normalize_shift(ring4):
    # (x1^2 x3, x1 x2^2) -> (x1x3, x2^2), shift 1
    spec, record = normalize_spec(M(ring4, 2, 0, 1, 0), M(ring4, 1, 2, 0, 0))
    assert spec.u == M(ring4, 1, 0, 1, 0)
    assert spec.v == M(ring4, 0, 2, 0, 0)
    assert record.shift == 1 and not record.ring_drop
    assert spec.d == 2


def test_normalize_identity(ring4):
    spec, record = normalize_spec(M(ring4, 1, 0, 1, 0), M(ring4, 0, 1, 0, 1))
    assert record.shift == 0
    assert spec.u == M(ring4, 1, 0, 1, 0)


def test_normalize_ring_drop():
    ctx = RingContext(3)
    spec, record = normalize_spec(M(ctx, 2, 1, 0), M(ctx, 2, 0, 1))
    assert record.ring_drop and record.shift == 2
    assert spec.u == M(ctx, 0, 1, 0) and spec.v == M(ctx, 0, 0, 1)
    assert spec.d == 1


def test_normalize_requires_x1(ring4):
    with pytest.raises(ValueError):
        normalize_spec(M(ring4, 0, 2, 0, 0), M(ring4, 0, 1, 0, 1))


def test_classify_example(ring4):
    spec, _ = normalize_spec(M(ring4, 1, 0, 1, 0), M(ring4, 0, 1, 0, 1))
    cls = classify_linear_form(spec)
    assert cls.linear_form_l == 2


def test_classify_negative():
    ctx = RingContext(3)
    spec, _ = normalize_spec(M(ctx, 1, 1, 0), M(ctx, 0, 2, 0))
    cls = classify_linear_form(spec)
    assert cls.linear_form_l is None  # v = x2^2 is not x2x3


def test_classify_ring_drop():
    # (x1^2x2, x1^2x3) normalizes to (x2, x3): x1 divides neither end
    ctx = RingContext(3)
    spec, record = normalize_spec(M(ctx, 2, 1, 0), M(ctx, 2, 0, 1))
    cls = classify_linear_form(spec)
    assert record.ring_drop and cls.linear_form_l is None
    assert cls.notes.startswith("ring drop: ")


def test_classify_needs_x1_free_v(ring4):
    spec = LexSegmentSpec(ctx=ring4, d=2, u=M(ring4, 2, 0, 0, 0), v=M(ring4, 1, 0, 0, 1))
    with pytest.raises(InvariantError, match="x1 divides v = x1x4"):
        classify_linear_form(spec)


def test_classify_degree3(ring4):
    spec, _ = normalize_spec(M(ring4, 1, 0, 2, 0), M(ring4, 0, 1, 0, 2))
    cls = classify_linear_form(spec)
    assert cls.linear_form_l == 2


def test_classify_l_rederivation(ring4):
    spec, _, cls = make_classified_spec(M(ring4, 1, 0, 0, 1), M(ring4, 0, 0, 1, 1))
    assert cls.linear_form_l == spec.v.min_index() == 3
    assert spec.l == 3


def test_shadow_extremes_property():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.choice((3, 4, 5))
        ctx = RingContext(n)
        d = rng.choice((2, 3))
        u, v = support.random_normalized_pair(rng, ctx, d)
        seg = enumerate_lexsegment(u, v)
        sh = shadow(seg)
        assert lex_max(sh) == Monomial(ctx, (u.exponents[0] + 1,) + u.exponents[1:])
        assert lex_min(sh) == Monomial(ctx, v.exponents[:-1] + (v.exponents[-1] + 1,))
