import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from lexres import (
    CheckFailure,
    InvariantError,
    Monomial,
    RingContext,
    colon_minimal_generators,
    linear_quotients_check,
    oracle_table,
    power_generators,
    set_bound_report,
    variable,
)
from lexres.lexsegment import LexSegmentSpec
from lexres.powers import PowerIdeal


def test_example_sets(example_quotients):
    assert example_quotients.is_linear
    assert example_quotients.sets == [(), (2,), (4,), (2, 4), (3, 4)]


def test_colon_examples(example_power):
    G = example_power.exponent_matrix  # x2x4, x1x4, x2x3, x1x3, x2^2
    # (u1, u2, u3) : u4 = (x4, x2), sorted by (degree, lex)
    assert colon_minimal_generators(G[:3], G[3]).tolist() == [[0, 0, 0, 1], [0, 1, 0, 0]]
    assert colon_minimal_generators(G[:1], G[1]).tolist() == [[0, 1, 0, 0]]
    assert colon_minimal_generators(G[:0], G[0]).shape == (0, 4)


def test_colon_with_nonlinear_result():
    a, b = np.array([[2, 0, 0]]), np.array([0, 0, 2])
    # gcd is 1: the quotient is x1^2, degree 2
    assert colon_minimal_generators(a, b).tolist() == [[2, 0, 0]]


def test_colon_membership_oracle_bothways(example_power, example_power_squared):
    rng = random.Random(41)
    for pi in (example_power, example_power_squared):
        gens, G = support.monomials(pi), pi.exponent_matrix
        for _ in range(1000):
            i = rng.randrange(1, len(gens))
            prefix = gens[:i]
            m = gens[i]
            colon = [Monomial(pi.spec.ctx, row) for row in colon_minimal_generators(G[:i], G[i]).tolist()]
            z = support.random_monomial(rng, pi.spec.ctx, 4)
            in_colon = support.in_monomial_ideal(colon, z)
            in_prefix_after_mul = support.in_monomial_ideal(prefix, z * m)
            assert in_colon == in_prefix_after_mul


def test_linear_quotients_k2(example_quotients_squared):
    qs = example_quotients_squared
    assert qs.is_linear
    assert qs.sets[0] == ()
    assert set_bound_report(qs) == []
    # independent recomputation through the public colon operation
    G = qs.power.exponent_matrix
    for i in range(1, len(G)):
        colon = colon_minimal_generators(G[:i], G[i])
        assert (colon.sum(axis=1) == 1).all()
        assert tuple(sorted(colon.argmax(axis=1) + 1)) == qs.sets[i]


def test_membership_characterization_remark(example_quotients):
    # s in set(m) iff there are w <_revlex m and t with x_s m = x_t w
    pi = example_quotients.power
    gens = support.monomials(pi)
    ctx = pi.spec.ctx
    for i, (m, st) in enumerate(zip(gens, example_quotients.sets)):
        for s in range(1, ctx.n + 1):
            witness = None
            for w in gens[:i]:
                q = (m * Monomial(ctx, tuple(1 if j == s - 1 else 0 for j in range(ctx.n)))).try_divide(w)
                if q is not None and q.degree == 1:
                    witness = (w, q.min_index())
                    break
            assert (s in st) == (witness is not None)
            if witness is not None:
                w, t = witness
                assert s > t
                assert m.exponents[t - 1] >= 1


def test_failure_is_data():
    # increasing revlex orders these as x2^2, x1^2; the colon
    # (x2^2):(x1^2) is generated by x2^2, which is not a variable
    ctx = RingContext(3)
    a = Monomial(ctx, (2, 0, 0))
    b = Monomial(ctx, (0, 2, 0))
    spec = LexSegmentSpec(ctx=ctx, d=2, u=a, v=b)
    pi = support.power_ideal(spec, 1, sorted([a, b], key=support.revlex_key))
    assert pi.exponent_matrix.tolist() == [[0, 2, 0], [2, 0, 0]]
    qs = linear_quotients_check(pi)
    assert not qs.is_linear
    assert qs.failure_index == 1
    assert qs.offending == b


def test_single_generator_profile():
    ctx = RingContext(3)
    u = Monomial(ctx, (1, 1, 0))
    spec = LexSegmentSpec(ctx=ctx, d=2, u=u, v=u)
    qs = linear_quotients_check(power_generators(spec, 2))
    assert qs.is_linear and qs.sets == [()]


def test_profile_example(example_quotients, example_quotients_squared):
    assert sorted(len(s) for s in example_quotients.sets) == [0, 1, 1, 2, 2]
    profile = sorted(len(s) for s in example_quotients_squared.sets)
    assert len(profile) == 14 and profile[0] == 0


def test_set_lemmas_on_family_samples():
    rng = random.Random(2)
    picks = rng.sample(support.theorem_family_specs(), 6)
    for n, d, l, ue, ve in picks:
        spec, _ = support.build_family_spec(n, ue, ve)
        for k in (1, 2):
            qs = linear_quotients_check(power_generators(spec, k))
            assert qs.is_linear
            assert set_bound_report(qs) == []


def _report_or_error(fn, qs, error):
    # a generator without support beyond x_l is a failed check in the library
    # (CheckFailure) and an undefined min_tilde_index in the reference loop
    try:
        return fn(qs)
    except error as exc:
        return f"no tilde support: {exc}"


def test_set_bound_report_matches_loop():
    rng = random.Random(31)
    seen = {"min-bound": 0, "tilde-min-bound": 0, "error": 0}

    def compare(qs):
        got = _report_or_error(set_bound_report, qs, CheckFailure)
        assert got == _report_or_error(support.set_bound_report_loop, qs, ValueError)
        if isinstance(got, str):
            seen["error"] += 1
        for violation in [] if isinstance(got, str) else got:
            seen[violation.bound] += 1

    for n, d, l, ue, ve in support.theorem_family_specs():
        spec, _ = support.build_family_spec(n, ue, ve)
        for k in (1, 2):
            qs = linear_quotients_check(power_generators(spec, k))
            assert set_bound_report(qs) == support.set_bound_report_loop(qs) == []
            # add a variable to a few set(m), so that either bound can fail
            sets = [list(st) for st in qs.sets]
            for w in rng.sample(range(len(sets)), min(4, len(sets))):
                sets[w] = sorted(set(sets[w]) | {rng.randrange(1, n + 1)})
            compare(support.quotient_structure(qs.power, sets))
    # random pairs with a split index forced on them and random sets: here the
    # tilde test also meets generators without support beyond x_l
    for _ in range(60):
        n = rng.randrange(3, 6)
        ctx = RingContext(n)
        u, v = support.random_normalized_pair(rng, ctx, rng.randrange(2, 4))
        spec = LexSegmentSpec(ctx=ctx, d=u.degree, u=u, v=v, l=rng.randrange(2, n))
        k = rng.randrange(1, 3)
        pi = PowerIdeal(spec, k, power_generators(LexSegmentSpec(ctx, u.degree, u, v), k).exponent_matrix)
        sets = [tuple(sorted(rng.sample(range(1, n + 1), rng.randrange(0, n)))) for _ in range(len(pi))]
        compare(support.quotient_structure(pi, sets))
    assert all(seen.values()), seen


def _colon_members(pi, rows):
    """set(m_i) for the first `rows` generators by the definition, as a
    (rows, n) mask: x_s is in (m_1..m_{i-1}) : m_i when an earlier generator
    divides x_s * m_i."""
    G, n = pi.exponent_matrix, pi.spec.ctx.n
    member = np.zeros((rows, n), dtype=bool)
    for i in range(rows):
        X = G[i] + np.eye(n, dtype=np.int64)  # x_s * m_i, one row per s
        member[i] = (G[:i, None, :] <= X[None]).all(axis=2).any(axis=0)
    return member


def test_member_and_definitional_table_match_the_definitions():
    # classified shapes, unclassified ones that build with --oracle-g, and
    # failing linear quotients, whose member matrix is the prefix before the
    # failure: member holds the colon sets, and the definitional table the
    # earliest divisor and its cofactor on every pair, -1 off them
    seen = set()

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(spec=support.small_specs(), k=st.integers(1, 3))
    def check(spec, k):
        pi = power_generators(spec, k)
        qs = linear_quotients_check(pi)
        rows = len(pi) if qs.is_linear else qs.failure_index
        assert qs.member.dtype == bool and qs.member.shape == (rows, spec.ctx.n)
        assert np.array_equal(qs.member, _colon_members(pi, rows))
        g_of, coeff_of = oracle_table(qs)
        assert (g_of[~qs.member] == -1).all() and (coeff_of[~qs.member] == -1).all()
        gens, ctx = support.monomials(pi), spec.ctx
        gen, col = np.nonzero(qs.member)
        for i, s, g, t in zip(*(a.tolist() for a in (gen, col + 1, g_of[gen, col], coeff_of[gen, col]))):
            x = gens[i] * variable(ctx, s)
            assert g == support.g_oracle_index(qs, x)
            assert gens[g] * variable(ctx, t) == x
        seen.add("classified" if spec.l is not None else "oracle-g" if qs.is_linear else "failure")

    check()
    assert seen == {"classified", "oracle-g", "failure"}


def _outcome(check, pi):
    """Everything linear_quotients_check reports, or the error it raises."""
    try:
        qs = check(pi)
    except CheckFailure as exc:
        return type(exc).__name__, str(exc)
    return qs.status, qs.sets, qs.failure_index, qs.offending


def test_linear_quotients_match_loop_on_powers():
    seen = set()

    @settings(derandomize=True, database=None, max_examples=120, deadline=None)
    @given(spec=support.small_specs(), k=st.integers(1, 3))
    def check(spec, k):
        pi = power_generators(spec, k)
        got = _outcome(linear_quotients_check, pi)
        assert got == _outcome(support.linear_quotients_loop, pi)
        seen.add(got[0])

    check()
    assert seen == {"linear", "failure"}


def test_linear_quotients_match_loop_on_shuffled_sets():
    # one-degree generator sets in any order: colons fail, and a variable of
    # set(m) at or below min(m) breaks the increasing-revlex invariant
    seen = set()

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 5),
        d=st.integers(1, 3),
        data=st.data(),
    )
    def check(n, d, data):
        ctx = RingContext(n)
        pool = support.all_monomials(ctx, d)
        gens = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12, unique=True))
        gens = data.draw(st.permutations(gens))
        pi = support.power_ideal(LexSegmentSpec(ctx=ctx, d=d, u=gens[0], v=gens[0]), 1, gens)
        got = _outcome(linear_quotients_check, pi)
        assert got == _outcome(support.linear_quotients_loop, pi)
        seen.add(got[0])

    check()
    assert seen == {"linear", "failure", "InvariantError"}


def test_linear_quotients_across_scan_chunks(monkeypatch, example_power_squared):
    # the colon scan takes rows in prefix blocks [0], [1, 2], [3..6], [7..14],
    # [15..30]: besides two orders of the worked example squared, a colon
    # failing on either side of each block edge, and a linear sequence whose
    # last block is partial.  The degree-2 monomials of x1..x6 in increasing
    # revlex have linear quotients, and x7^2 fails after any prefix of them,
    # its colon being that prefix
    rng = random.Random(8)
    spec = example_power_squared.spec
    order = list(range(len(example_power_squared)))
    rng.shuffle(order)
    cases = [example_power_squared, PowerIdeal(spec, 2, example_power_squared.exponent_matrix[order])]
    ctx, edges = RingContext(7), (1, 2, 3, 6, 7, 14, 15)
    linear = sorted((m for m in support.all_monomials(ctx, 2) if m.exponents[6] == 0), key=support.revlex_key)
    bad = variable(ctx, 7) * variable(ctx, 7)
    for gens in [linear] + [linear[:f] + [bad] + linear[f:] for f in edges]:
        cases.append(support.power_ideal(LexSegmentSpec(ctx=ctx, d=2, u=gens[0], v=gens[0]), 1, gens))
    whole = [_outcome(linear_quotients_check, pi) for pi in cases]
    assert [o[0] for o in whole[:3]] == ["linear", "failure", "linear"]
    assert [o[2] for o in whole[2:]] == [None, *edges]
    monkeypatch.setattr("lexres.monomials._SCAN_CHUNK_CELLS", 1)  # one row per chunk
    assert [_outcome(linear_quotients_check, pi) for pi in cases] == whole
    assert whole == [_outcome(support.linear_quotients_loop, pi) for pi in cases]


def test_mixed_degrees_raise():
    ctx = RingContext(3)
    a, b = Monomial(ctx, (1, 1, 0)), Monomial(ctx, (0, 1, 2))
    pi = support.power_ideal(LexSegmentSpec(ctx=ctx, d=2, u=a, v=a), 1, (a, b))
    with pytest.raises(InvariantError, match=r"degrees \[2, 3\], not one"):
        linear_quotients_check(pi)


def test_linear_quotients_on_int64_rows_at_n40():
    # forty columns of int64 exponents: the colon scan compares whole rows,
    # with the columns off set(m) raised to their maximum, and builds no key
    # from them
    n = 40
    ue, ve = [0] * n, [0] * n
    ue[0], ue[2], ve[1], ve[n - 1] = 1, 1, 1, 1  # L(x1x3, x2x40), l = 2
    spec, cls = support.build_family_spec(n, tuple(ue), tuple(ve))
    assert cls.linear_form_l == 2
    pi = power_generators(spec, 1)
    assert pi.exponent_matrix.dtype == np.int64 and pi.exponent_matrix.shape[1] == n
    assert int(pi.exponent_matrix.max()) == 2
    got = _outcome(linear_quotients_check, pi)
    assert got == _outcome(support.linear_quotients_loop, pi)
    assert got[0] == "linear" and max(map(len, got[1])) >= 2
