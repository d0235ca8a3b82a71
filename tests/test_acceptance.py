"""Acceptance suite: one test per criterion, one summary line each.

The instance family is every (l, exponent) pattern of the classified shape
for n in 3..6, d in 2..3, powers k <= 3, capped at 3000 generators.
"""

import functools
import random
import time

import numpy as np
import pytest

import support
from lexres import (
    BudgetError,
    Monomial,
    RingContext,
    classify_linear_form,
    closed_form_matches_oracle,
    colon_minimal_generators,
    enumerate_lexsegment,
    euler_characteristic_numerator,
    hilbert_numerator,
    is_completely_lexsegment,
    linear_quotients_check,
    normalize_spec,
    power_generators,
    random_rank_check,
    regularity_check_oracle,
    set_bound_report,
    shadow,
)
from lexres.lexsegment import LexSegmentSpec, lex_max, lex_min

GENERATOR_CAP = 3000


def criterion(fn):
    """Print the required one-line verdict also when a criterion fails."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            fn(*args, **kwargs)
        except BaseException as exc:
            num = fn.__name__.split("_")[2]
            print(f"\n[FAIL] criterion {num}: {exc}")
            raise

    return wrapper


@pytest.fixture(scope="module")
def family():
    """All family instances with their quotient structures, built once."""
    instances = []
    for n, d, l, ue, ve in support.theorem_family_specs():
        spec, cls = support.build_family_spec(n, ue, ve)
        assert cls.linear_form_l == l
        for k in (1, 2, 3):
            pi = power_generators(spec, k)
            if len(pi) > GENERATOR_CAP:
                continue
            qs = linear_quotients_check(pi)
            instances.append(((n, d, l, ue, k), qs))
    return instances


@pytest.fixture(scope="module")
def complexes(family):
    """The resolution of every linear family instance, (rc, {i: d_i}), built once."""
    return {key: support.resolve(qs) for key, qs in family if qs.is_linear}


@criterion
def test_criterion_1_golden_worked_example():
    t0 = time.time()
    ctx = RingContext(4)
    u = Monomial(ctx, (1, 0, 1, 0))
    v = Monomial(ctx, (0, 1, 0, 1))
    spec, _ = normalize_spec(u, v)
    cls = classify_linear_form(spec)
    assert cls.linear_form_l == 2
    import dataclasses

    spec = dataclasses.replace(spec, l=2)
    pi = power_generators(spec, 1)
    assert [str(g) for g in support.monomials(pi)] == ["x2x4", "x1x4", "x2x3", "x1x3", "x2^2"]
    qs = linear_quotients_check(pi)
    assert qs.sets == [(), (2,), (4,), (2, 4), (3, 4)]
    support.require_agreement(qs)
    rc, mats = support.resolve(qs)
    assert rc.betti == (1, 5, 6, 2)
    assert support.matrix_grid(rc, mats, 0) == [["x2x4", "x1x4", "x2x3", "x1x3", "x2^2"]]
    assert support.matrix_grid(rc, mats, 1) == [
        ["x1", "x3", "0", "0", "0", "x2"],
        ["-x2", "0", "0", "x3", "0", "0"],
        ["0", "-x4", "x1", "0", "x2", "0"],
        ["0", "0", "-x2", "-x4", "0", "0"],
        ["0", "0", "0", "0", "-x3", "-x4"],
    ]
    assert support.matrix_grid(rc, mats, 2) == [
        ["-x3", "0"],
        ["x1", "x2"],
        ["x4", "0"],
        ["-x2", "0"],
        ["0", "x4"],
        ["0", "-x3"],
    ]
    elapsed = time.time() - t0
    assert elapsed < 1.0
    print(f"\n[PASS] criterion 1: golden worked example reproduced exactly in {elapsed:.2f}s")


@criterion
def test_criterion_2_complex_property_suite(family, complexes):
    t0 = time.time()
    for key, qs in family:
        assert qs.is_linear, f"linear quotients fail on {key}"
        assert set_bound_report(qs) == [], f"set(m) bounds fail on {key}"
        rc, mats = complexes[key]
        for i, composed in enumerate(support.composed(rc, mats)):
            assert composed, f"d{i} ∘ d{i + 1} != 0 on {key}"
        assert support.minimal(rc, mats), f"minimality fails on {key}"
    elapsed = time.time() - t0
    assert elapsed < 300, f"criterion 2 exceeded the 5 minute target: {elapsed:.0f}s"
    print(
        f"\n[PASS] criterion 2: linear quotients, set(m) bounds, d∘d = 0 and minimality "
        f"on all {len(family)} instances in {elapsed:.1f}s"
    )


@criterion
def test_criterion_3_decomposition_equivalence(family):
    t0 = time.time()
    pairs = 0
    for key, qs in family:
        ok, mismatch = closed_form_matches_oracle(qs)
        assert ok, f"closed form != oracle on {key}: {mismatch}"
        pairs += sum(len(s) for s in qs.sets)
        report = regularity_check_oracle(qs)
        assert report.regular, f"not regular on {key}: {report.describe()}"
    print(
        f"\n[PASS] criterion 3: closed-form g equals definitional g and the decomposition "
        f"function is regular on all {len(family)} instances ({pairs} (m, s) pairs) "
        f"in {time.time() - t0:.1f}s"
    )


@criterion
def test_criterion_4_euler_hilbert_identity(complexes):
    t0 = time.time()
    checked = 0
    for key, (rc, _) in complexes.items():
        try:
            numerator = hilbert_numerator(rc.power.exponent_matrix)
        except BudgetError as exc:
            pytest.fail(f"Hilbert recursion over budget on {key}: {exc}")
        assert euler_characteristic_numerator(rc) == numerator, f"Euler/Hilbert mismatch on {key}"
        checked += 1
    # the worked example, explicitly
    ctx = RingContext(4)
    spec = LexSegmentSpec(
        ctx=ctx, d=2, u=Monomial(ctx, (1, 0, 1, 0)), v=Monomial(ctx, (0, 1, 0, 1)), l=2
    )
    pi = power_generators(spec, 1)
    assert dict(hilbert_numerator(pi.exponent_matrix).coeffs) == {0: 1, 2: -5, 3: 6, 4: -2}
    print(
        f"\n[PASS] criterion 4: alternating basis degrees equal the Hilbert numerator on "
        f"all {checked} instances (none over budget) in {time.time() - t0:.1f}s; "
        f"worked example numerator = 1 - 5t^2 + 6t^3 - 2t^4"
    )


@criterion
def test_criterion_5_rank_additivity(family, complexes):
    t0 = time.time()
    for key, (rc, mats) in complexes.items():
        report = random_rank_check(rc, seed=20240 + key[4], trials=5, differentials=mats.items())
        assert report.passed, f"rank additivity fails on {key}: ranks {[t.ranks for t in report.trials]}"
    # the worked example ranks
    ctx = RingContext(4)
    spec = LexSegmentSpec(
        ctx=ctx, d=2, u=Monomial(ctx, (1, 0, 1, 0)), v=Monomial(ctx, (0, 1, 0, 1)), l=2
    )
    rc, mats = support.resolve(linear_quotients_check(power_generators(spec, 1)))
    report = random_rank_check(rc, seed=0, trials=5, differentials=mats.items())
    assert report.passed and report.trials[0].ranks == (1, 4, 2)
    print(
        f"\n[PASS] criterion 5: rank additivity at 5 random points per instance on all "
        f"{len(family)} instances in {time.time() - t0:.1f}s; worked example ranks (1, 4, 2)"
    )


@criterion
def test_criterion_6_oracle_equivalences():
    t0 = time.time()
    rng = random.Random(1234)
    # lexsegment enumeration vs full-degree filtering, n <= 5, d <= 4
    seg_checks = 0
    for n in (3, 4, 5):
        ctx = RingContext(n)
        for d in (2, 3, 4):
            slice_ = support.all_monomials(ctx, d)
            pairs = (
                [(u, v) for u in slice_ for v in slice_ if support.brute_cmp_lex(u, v) >= 0]
                if len(slice_) <= 16
                else [
                    sorted(rng.sample(slice_, 2), key=lambda m: m.exponents, reverse=True)
                    for _ in range(40)
                ]
            )
            for u, v in pairs:
                seg = enumerate_lexsegment(u, v)
                assert [m.exponents for m in seg] == [
                    m.exponents for m in support.interval_filter(u, v)
                ]
                seg_checks += 1
    # shadow vs divisibility characterization
    shadow_checks = 0
    for _ in range(30):
        n = rng.choice((3, 4, 5))
        ctx = RingContext(n)
        d = rng.choice((2, 3))
        u, v = support.random_normalized_pair(rng, ctx, d)
        seg = enumerate_lexsegment(u, v)
        assert shadow(seg) == support.shadow_by_divisibility(seg)
        assert shadow(shadow(seg)) == support.shadow_by_divisibility(seg, steps=2)
        shadow_checks += 1
    # hilbert numerator: pivot recursion vs inclusion-exclusion for |G| <= 12
    hilbert_checks = 0
    for _ in range(40):
        n = rng.choice((3, 4, 5))
        ctx = RingContext(n)
        gens = list({support.random_monomial(rng, ctx, 5) for _ in range(rng.randrange(1, 13))})
        rows = np.array([g.exponents for g in gens if not g.is_one()][:12], dtype=np.int64).reshape(-1, n)
        if not len(rows):
            continue
        assert hilbert_numerator(rows) == support.hilbert_numerator_inclusion_exclusion(rows)
        hilbert_checks += 1
    # colon membership both ways, 1000 random monomials per instance
    ctx = RingContext(4)
    spec = LexSegmentSpec(
        ctx=ctx, d=2, u=Monomial(ctx, (1, 0, 1, 0)), v=Monomial(ctx, (0, 1, 0, 1)), l=2
    )
    colon_instances = [power_generators(spec, 1), power_generators(spec, 2)]
    spec6, _ = support.build_family_spec(5, (1, 0, 0, 1, 1), (0, 0, 1, 0, 2))
    colon_instances.append(power_generators(spec6, 2))
    for pi in colon_instances:
        gens, G = support.monomials(pi), pi.exponent_matrix
        for _ in range(1000):
            i = rng.randrange(1, len(gens))
            z = support.random_monomial(rng, pi.spec.ctx, 4)
            colon = [Monomial(pi.spec.ctx, row) for row in colon_minimal_generators(G[:i], G[i]).tolist()]
            assert support.in_monomial_ideal(colon, z) == support.in_monomial_ideal(
                gens[:i], z * gens[i]
            )
    print(
        f"\n[PASS] criterion 6: oracle equivalences (segments {seg_checks}, shadows "
        f"{shadow_checks}, hilbert {hilbert_checks}, colon 3x1000) in {time.time() - t0:.1f}s"
    )


@criterion
def test_criterion_7_classifier_behavior():
    t0 = time.time()
    # positives: every family pattern classifies yes with the right l
    for n, d, l, ue, ve in support.theorem_family_specs():
        spec, cls = support.build_family_spec(n, ue, ve)
        assert cls.linear_form_l == l, (n, d, l, ue, ve)
    # negatives: 50 randomized normalized pairs outside the pattern
    rng = random.Random(77)
    negatives = 0
    while negatives < 50:
        n = rng.choice((3, 4, 5, 6))
        ctx = RingContext(n)
        d = rng.choice((2, 3))
        u, v = support.random_normalized_pair(rng, ctx, d)
        expected_l = None
        if u.exponent(1) == 1 and not v.is_one():
            l = v.min_index()
            ve = [0] * n
            if 2 <= l <= n - 1:
                ve[l - 1] = 1
                ve[n - 1] += d - 1
                if v.exponents == tuple(ve) and not any(u.exponent(i) for i in range(2, l + 1)):
                    expected_l = l
        if expected_l is not None:
            continue  # matched the pattern: not a negative
        spec = LexSegmentSpec(ctx=ctx, d=d, u=u, v=v)
        cls = classify_linear_form(spec)
        assert cls.linear_form_l is None, (u, v, cls)
        negatives += 1
    # completely-lexsegment probe: every 'no' carries a valid witness
    witnessed = 0
    attempts = 0
    while witnessed < 20 and attempts < 500:
        attempts += 1
        n = rng.choice((3, 4))
        ctx = RingContext(n)
        d = rng.choice((2, 3))
        u, v = support.random_normalized_pair(rng, ctx, d)
        spec = LexSegmentSpec(ctx=ctx, d=d, u=u, v=v)
        verdict = is_completely_lexsegment(spec, depth=2, first_shadow_persistence=False)
        if verdict.status == "no":
            current = set(enumerate_lexsegment(u, v))
            for _ in range(verdict.failing_depth):
                current = shadow(current)
            assert verdict.witness not in current
            assert support.brute_cmp_lex(lex_max(current), verdict.witness) > 0
            assert support.brute_cmp_lex(verdict.witness, lex_min(current)) > 0
            witnessed += 1
    assert witnessed >= 20
    # the worked example's label is reported from enumeration, not asserted:
    # the probe must simply be consistent with its own witness semantics
    ctx = RingContext(4)
    spec = LexSegmentSpec(
        ctx=ctx, d=2, u=Monomial(ctx, (1, 0, 1, 0)), v=Monomial(ctx, (0, 1, 0, 1)), l=2
    )
    verdict = is_completely_lexsegment(spec, depth=3, first_shadow_persistence=False)
    assert verdict.status in ("no", "unknown")
    if verdict.status == "no":
        assert verdict.witness is not None
    print(
        f"\n[PASS] criterion 7: classifier exact on {len(support.theorem_family_specs())} "
        f"positive patterns, 50 randomized negatives rejected, {witnessed} shadow-probe "
        f"witnesses validated in {time.time() - t0:.1f}s"
    )
