import json
import random
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
    assemble_resolution,
    euler_characteristic_numerator,
    hilbert_numerator,
    linear_quotients_check,
    power_generators,
    random_rank_check,
)
from lexres.cli import JobSpec, _build_resolution
from lexres.lexsegment import LexSegmentSpec
from lexres.modp import DEFAULT_PRIME, rank_mod
from lexres.verify import (
    HilbertNumerator, _build_witness_structure, _d0_rank, _evaluate_dense, _position_groups,
    _residues, _witness_ranks, _witness_solve, rank_positions_ok,
)


def test_hilbert_example(example_power):
    n = hilbert_numerator(example_power.generators)
    assert n.as_dict() == {0: 1, 2: -5, 3: 6, 4: -2}
    assert str(n) == "1 - 5t^2 + 6t^3 - 2t^4"


def test_hilbert_trivial_cases(ring4):
    assert hilbert_numerator([]).as_dict() == {0: 1}
    m = Monomial(ring4, (1, 0, 2, 0))
    assert hilbert_numerator([m]).as_dict() == {0: 1, 3: -1}
    assert hilbert_numerator([Monomial(ring4, (0, 0, 0, 0))]).as_dict() == {}


def test_hilbert_pure_powers(ring4):
    gens = [Monomial(ring4, (2, 0, 0, 0)), Monomial(ring4, (0, 3, 0, 0))]
    # complete intersection: (1 - t^2)(1 - t^3)
    assert hilbert_numerator(gens).as_dict() == {0: 1, 2: -1, 3: -1, 5: 1}


def test_hilbert_matches_inclusion_exclusion(example_power):
    assert hilbert_numerator(example_power.generators) == (
        support.hilbert_numerator_inclusion_exclusion(example_power.generators)
    )


def test_hilbert_inclusion_exclusion_random():
    rng = random.Random(19)
    for n in (3, 4):
        ctx = RingContext(n)
        for _ in range(15):
            gens = {support.random_monomial(rng, ctx, 4) for _ in range(rng.randrange(1, 9))}
            gens = [g for g in gens if not g.is_one()]
            if not gens:
                continue
            assert hilbert_numerator(gens) == support.hilbert_numerator_inclusion_exclusion(gens)


def test_hilbert_budget():
    ctx = RingContext(6)
    rng = random.Random(4)
    gens = list({support.random_monomial(rng, ctx, 6) for _ in range(40)})
    gens = [g for g in gens if g.degree >= 2]
    with pytest.raises(BudgetError):
        hilbert_numerator(gens, budget=3)


def test_hilbert_budget_edge(example_power_squared):
    # the recursion's node count on the large benchmark instance and on the
    # worked example at k=2: a drifting memo key or pivot order moves the
    # budget at which verify prints [SKIP]
    spec, _ = support.build_family_spec(6, (1, 0, 0, 1, 1, 1), (0, 1, 0, 0, 0, 3))
    large = power_generators(spec, 2).generators
    for gens, nodes in ((large, 119), (example_power_squared.generators, 15)):
        hilbert_numerator(gens, budget=nodes)
        with pytest.raises(BudgetError, match=f"exceeded {nodes - 1} nodes"):
            hilbert_numerator(gens, budget=nodes - 1)


def _hilbert_nodes(gens) -> int:
    """The least budget hilbert_numerator accepts, by bisection."""
    refused, accepted = 0, 1
    while True:
        try:
            hilbert_numerator(gens, budget=accepted)
            break
        except BudgetError:
            refused, accepted = accepted, 2 * accepted
    while accepted - refused > 1:
        mid = (refused + accepted) // 2
        try:
            hilbert_numerator(gens, budget=mid)
            accepted = mid
        except BudgetError:
            refused = mid
    return accepted


def _exponent_lists():
    """n <= 8 and up to 9 exponent rows of mixed degrees, duplicates and the
    unit monomial included; one exponent may be raised to either side of the
    one-byte field of the packed divisibility test (127, 128)."""

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


@pytest.mark.parametrize("cut", [0, 10**9], ids=["scan", "packed"])
def test_hilbert_matches_loop_with_exact_budget(cut, monkeypatch):
    # the colon's divisibility test by one first_divisors scan (cut 0) and by
    # packed ints only (a huge cut): the same numerator as the numpy loop, and
    # the same node count, so the same budget boundary
    monkeypatch.setattr("lexres.verify._COLON_SCAN_PAIRS", cut)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(case=_exponent_lists())
    @example(case=(3, []))
    @example(case=(4, [(0, 0, 0, 0), (1, 2, 0, 0), (1, 2, 0, 0)]))  # the unit ideal
    @example(case=(3, [(127, 1, 0), (128, 0, 1), (0, 1, 1), (127, 0, 1)]))
    @example(case=(3, [(128, 128, 0), (127, 128, 1), (1, 0, 128)]))
    def check(case):
        n, rows = case
        gens = [Monomial(RingContext(n), r) for r in rows]
        nodes = _hilbert_nodes(gens)
        got = hilbert_numerator(gens, budget=nodes)
        assert got == support.hilbert_numerator_loop(gens, budget=nodes)
        for hilbert in (hilbert_numerator, support.hilbert_numerator_loop):
            with pytest.raises(BudgetError, match=f"exceeded {nodes - 1} nodes"):
                hilbert(gens, budget=nodes - 1)

    check()


def test_euler_example(example_resolution):
    assert euler_characteristic_numerator(example_resolution).as_dict() == {
        0: 1,
        2: -5,
        3: 6,
        4: -2,
    }
    assert euler_characteristic_numerator(example_resolution) == hilbert_numerator(
        example_resolution.power.generators
    )


def test_euler_single_generator():
    ctx = RingContext(3)
    u = Monomial(ctx, (1, 1, 0))
    spec = LexSegmentSpec(ctx=ctx, d=2, u=u, v=u)
    qs = linear_quotients_check(power_generators(spec, 1))
    rc = assemble_resolution(qs, use_oracle=True)
    assert euler_characteristic_numerator(rc).as_dict() == {0: 1, 2: -1}
    assert euler_characteristic_numerator(rc) == hilbert_numerator(rc.power.generators)


def test_euler_squared(example_quotients_squared):
    rc = assemble_resolution(example_quotients_squared)
    assert euler_characteristic_numerator(rc) == hilbert_numerator(rc.power.generators)


def test_hilbert_numerator_repr():
    h = HilbertNumerator.from_dict({0: 1, 2: 0, 1: -1})
    assert h.as_dict() == {0: 1, 1: -1}
    assert str(HilbertNumerator.from_dict({})) == "0"


def test_rank_check_example(example_resolution):
    report = random_rank_check(example_resolution, seed=0, trials=5)
    assert report.passed
    assert report.trials[0].ranks == (1, 4, 2)
    assert report.modulus == 2**31 - 1
    # determinism: same seed, same points and ranks
    again = random_rank_check(example_resolution, seed=0, trials=5)
    assert [t.point for t in again.trials] == [t.point for t in report.trials]
    assert rank_positions_ok((1, 2, 1), (1, 1))
    assert not rank_positions_ok((1, 2, 2), (1, 1))


def test_rank_check_squared(example_quotients_squared):
    rc = assemble_resolution(example_quotients_squared)
    report = random_rank_check(rc, seed=1, trials=3)
    assert report.passed
    # sub-additivity sanity at every position
    for t in report.trials:
        for i in range(1, rc.proj_dim):
            mat = rc.matrices[i]
            assert t.ranks[i] <= min(mat.nrows, mat.ncols)


def _shape_resolution():
    spec, _ = support.build_family_spec(5, (1, 0, 1, 1, 0), (0, 1, 0, 0, 2))
    return assemble_resolution(linear_quotients_check(power_generators(spec, 2)))


def test_witness_tier_agrees_with_dense():
    rc = _shape_resolution()
    report = random_rank_check(rc, seed=3, trials=2)
    assert report.passed
    p = report.modulus
    for t in report.trials:
        assert t.methods == ("dense",) + ("witness",) * (rc.proj_dim - 1)
        point = np.array(t.point, dtype=np.int64)
        for i in range(1, rc.proj_dim):
            dense = _evaluate_dense(rc.matrices[i], point, p)
            assert rank_mod(dense) == t.ranks[i]


def _fallback_only_at(i, proj_dim):
    """The methods of a trial where d_i alone left the witness route."""
    return ("dense",) + tuple("dense-fallback" if j == i else "witness" for j in range(1, proj_dim))


def test_rank_check_detects_corruption(example_quotients):
    rc = assemble_resolution(example_quotients)
    # corrupt one entry of d1 (the first of column 0): change its variable
    mat = rc.matrices[1]
    assert mat.cols[0] == 0
    mat.vars[0] = (mat.vars[0] % 4) + 1
    report = random_rank_check(rc, seed=5, trials=2)
    assert not report.passed
    assert all(t.methods == _fallback_only_at(1, rc.proj_dim) for t in report.trials)


def test_witness_tier_detects_corruption():
    spec, _ = support.build_family_spec(5, (1, 0, 0, 1, 1), (0, 0, 1, 0, 2))
    qs = linear_quotients_check(power_generators(spec, 2))
    rc = assemble_resolution(qs)
    # flip the sign of the first entry of column 0 of d2
    mat = rc.matrices[2]
    assert mat.cols[0] == 0
    mat.signs[0] = -mat.signs[0]
    report = random_rank_check(rc, seed=6, trials=2)
    assert not report.passed
    assert all(t.methods == _fallback_only_at(2, rc.proj_dim) for t in report.trials)


def test_witness_structure_rejects_broken_shape():
    spec, _ = support.build_family_spec(5, (1, 0, 1, 1, 0), (0, 1, 0, 0, 2))
    qs = linear_quotients_check(power_generators(spec, 2))
    i = 2
    s_star = {w: min(st) for w, st in enumerate(qs.sets) if st}
    for corruption in ("diagonal variable", "diagonal sign", "later block"):
        rc = assemble_resolution(qs)
        everywhere = list(range(1, rc.proj_dim))
        assert _build_witness_structure(rc, [i]).shaped.tolist() == [True]
        assert _build_witness_structure(rc, everywhere).shaped.all()
        mat, rows, cols = rc.matrices[i], rc.bases[i], rc.bases[i + 1]
        gens, sigmas = cols.gen.tolist(), cols.sigma.tolist()
        c = next(c for c, g in enumerate(gens) if s_star.get(g) in sigmas[c])
        ss = s_star[gens[c]]
        in_col = np.flatnonzero(mat.cols == c)
        if corruption == "diagonal variable":
            # the Koszul entry +-x_{s*} of a witness column loses its variable
            p = next(p for p in in_col if mat.vars[p] == ss)
            mat.vars[p] = next(v for v in range(1, 6) if v != ss)
        elif corruption == "diagonal sign":
            # a diagonal entry 2*x_{s*}: the inverse would no longer be +-1/x_{s*}
            p = next(p for p in in_col if mat.vars[p] == ss)
            mat.signs[p] = 2 * mat.signs[p]
        else:
            # an off-diagonal entry of W moved to a witness row of a block not before it
            p = next(p for p in in_col if mat.vars[p] != ss)
            witness_rows = [
                r for r, (g, sigma) in enumerate(zip(rows.gen.tolist(), rows.sigma.tolist()))
                if g in s_star and s_star[g] not in sigma
            ]
            mat.rows[p] = max(witness_rows, key=lambda r: rows.gen[r])
        assert _build_witness_structure(rc, [i]).shaped.tolist() == [False], corruption
        # stacked with the others, the broken position alone falls back
        shaped = _build_witness_structure(rc, everywhere).shaped
        assert shaped.tolist() == [j != i for j in everywhere]
        report = random_rank_check(rc, seed=2, trials=1)
        assert report.trials[0].methods == _fallback_only_at(i, rc.proj_dim), corruption


P = DEFAULT_PRIME


def _inverses(points):
    return np.array([[pow(int(c), P - 2, P) for c in pt] for pt in points], dtype=np.int64)


class _Words:
    """Stands in for random.Random: its random bytes are the given 32-bit words."""

    def __init__(self, words):
        self.stream = b"".join(w.to_bytes(4, "little") for w in words)

    def randbytes(self, n):
        out, self.stream = self.stream[:n], self.stream[n:]
        return out


def test_residues_reject_words_from_p_up():
    # p itself is rejected, not reduced to 0; the top bit of a word is
    # dropped, and a rejected word is replaced from the words that follow
    rng = _Words([5, P, 2**31 + 7, P - 1, 0])
    assert _residues(rng, 3, P).tolist() == [5, 7, P - 1]
    assert rng.stream == (0).to_bytes(4, "little")
    assert _residues(_Words([]), 0, P).dtype == np.int64


def test_residues_are_the_words_below_p_in_order():
    # a modulus that rejects about half the words, against one word at a time
    p, ref, expected = 2**30 + 3, random.Random(3), []
    while len(expected) < 1000:
        word = ref.getrandbits(32) & 0x7FFFFFFF
        if word < p:
            expected.append(word)
    assert _residues(random.Random(3), 1000, p).tolist() == expected


def _witness_blocks(rc, i):
    """The generator of each witness column of d_i, f(sigma; w) with
    s* = min(set(w)) in sigma, in column order."""
    cols = rc.bases[i + 1]
    s_star = [min(s) if s else 0 for s in rc.quotients.sets]
    return [g for g, sigma in zip(cols.gen.tolist(), cols.sigma.tolist()) if s_star[g] in sigma]


def _large_resolution():
    spec, _ = support.build_family_spec(6, (1, 0, 0, 1, 1, 1), (0, 1, 0, 0, 0, 3))
    return assemble_resolution(linear_quotients_check(power_generators(spec, 2)))


def _oracle_resolution():
    ctx = RingContext(5)
    u, v = Monomial(ctx, (1, 2, 0, 0, 0)), Monomial(ctx, (0, 1, 0, 0, 2))
    spec = LexSegmentSpec(ctx=ctx, d=3, u=u, v=v)
    return assemble_resolution(linear_quotients_check(power_generators(spec, 2)), use_oracle=True)


@pytest.mark.parametrize("build", [_large_resolution, _oracle_resolution], ids=["large", "oracle"])
def test_witness_sweeps_match_block_loop(build):
    # one solve over every position stacked, against the loop on each
    # position's own structure
    rc = build()
    positions = list(range(1, rc.proj_dim))
    st = _build_witness_structure(rc, positions)
    assert st.shaped.all()
    rng = np.random.default_rng(11)
    points = rng.integers(1, P, size=(3, rc.power.spec.ctx.n))
    rhs = rng.integers(0, P, size=(len(st.diag_sign), 3, 4))
    x = rhs.copy()
    assert _witness_solve(st, points, _inverses(points), x, P).all()
    ends = np.cumsum([0, *st.kappa])
    for k, i in enumerate(positions):
        own = _build_witness_structure(rc, [i])
        part = slice(ends[k], ends[k + 1])
        block = _witness_blocks(rc, i)
        for t in range(3):
            loop = support.witness_solve_loop(own, block, points[t], rhs[part, t], P)
            assert x[part, t].tolist() == loop


@pytest.mark.parametrize("build", [_shape_resolution, _oracle_resolution], ids=["classified", "oracle"])
def test_sparse_rank_matches_loop_on_differentials(build):
    rc = build()
    point = np.random.default_rng(12).integers(1, P, size=rc.power.spec.ctx.n)
    for flipped in (False, True):  # clean, then one sign flipped per differential
        for i in range(1, rc.proj_dim):
            mat = rc.matrices[i]
            if flipped:
                mat.signs[len(mat.signs) // 2] *= -1
            dense = _evaluate_dense(mat, point, P)
            assert rank_mod(dense) == support.rank_mod_loop(dense)


def test_witness_sweeps_settle_after_the_longest_chain():
    # d1 of the large instance has a chain of g-terms 24 witnesses long, so
    # the 24th sweep is the first that repeats
    st = _build_witness_structure(_large_resolution(), [1])
    rng = np.random.default_rng(4)
    points = rng.integers(1, P, size=(2, 6))
    rhs = rng.integers(0, P, size=(len(st.diag_sign), 2, 4))
    assert st.sweep_cap == st.kappa[0] == 339
    st.sweep_cap = 23
    assert _witness_solve(st, points, _inverses(points), rhs.copy(), P).tolist() == [False]
    st.sweep_cap = 24
    assert _witness_solve(st, points, _inverses(points), rhs.copy(), P).tolist() == [True]


def test_witness_sweeps_stop_on_a_cycle():
    rc = _large_resolution()
    positions = list(range(1, rc.proj_dim))
    st = _build_witness_structure(rc, positions)
    k = positions.index(2)
    # a g-term back from witness r to witness c closes a cycle with the
    # g-term from c to r, both of d2: its N is no longer nilpotent
    rows, cols, signs, variables = st.n
    e = int(np.flatnonzero(st.wit_pos[rows] == k)[0])
    rows, cols = np.append(rows, cols[e]), np.append(cols, rows[e])
    order = np.argsort(rows, kind="stable")
    st.n = (rows[order], cols[order], np.append(signs, 1)[order], np.append(variables, 1)[order])
    rng = np.random.default_rng(8)
    points = rng.integers(1, P, size=(2, 6))
    rhs = rng.integers(0, P, size=(len(st.diag_sign), 2, 4))
    others = [j != k for j in range(len(positions))]
    assert _witness_solve(st, points, _inverses(points), rhs, P).tolist() == others
    ok = _witness_ranks(st, points, _inverses(points), random.Random(0), P)
    assert ok.tolist() == [[j != k] * 2 for j in range(len(positions))]


def test_witness_ranks_zero_diagonal_fails_only_its_trial():
    rc = _large_resolution()
    st = _build_witness_structure(rc, [2])
    assert len(st.low_pos) and st.ncols > st.kappa[0]
    points = np.random.default_rng(3).integers(1, P, size=(3, 6))
    var = st.diag_var[0]
    points[1, var - 1] = 0  # the first diagonal entry vanishes at point 1
    ok = _witness_ranks(st, points, _inverses(points), random.Random(0), P)
    assert ok.tolist() == [[True, False, True]]
    # stacked with the other positions: x6 is on the diagonal of d1 only, so
    # its zero fails point 1 at d1, and elsewhere leaves the true verdict
    positions = list(range(1, rc.proj_dim))
    st = _build_witness_structure(rc, positions)
    points[1, var - 1], points[1, 5] = 1, 0
    ok = _witness_ranks(st, points, _inverses(points), random.Random(0), P)
    assert ok[:, [0, 2]].all()
    on_diagonal = [6 in st.diag_var[st.wit_pos == k] for k in range(len(positions))]
    assert on_diagonal == [True, False, False, False, False]
    assert not ok[0, 1]
    for k, i in enumerate(positions[1:], start=1):
        assert ok[k, 1] == (rank_mod(_evaluate_dense(rc.matrices[i], points[1], P)) == st.kappa[k])


@pytest.mark.parametrize("build", [_large_resolution, _oracle_resolution], ids=["large", "oracle"])
def test_rank_check_across_groups(build, monkeypatch):
    rc = build()
    positions = list(range(1, rc.proj_dim))
    assert _position_groups(rc) == [positions]
    whole = random_rank_check(rc, seed=4, trials=3)
    entries = [rc.matrices[i].entry_count() for i in positions]
    monkeypatch.setattr("lexres.verify._GROUP_ENTRIES", entries[0] + entries[1])
    assert _position_groups(rc)[0] == [1, 2]
    monkeypatch.setattr("lexres.verify._GROUP_ENTRIES", 1)  # one position per group
    assert _position_groups(rc) == [[i] for i in positions]
    split = random_rank_check(rc, seed=4, trials=3)
    assert whole.passed
    assert split == whole


def test_rank_check_across_chunks(monkeypatch):
    rc = _oracle_resolution()
    whole = random_rank_check(rc, seed=4, trials=3)
    monkeypatch.setattr("lexres.monomials._SCAN_CHUNK_CELLS", 7)  # one entry per chunk
    chunked = random_rank_check(rc, seed=4, trials=3)
    assert whole.passed
    assert [(t.ranks, t.methods) for t in chunked.trials] == [
        (t.ranks, t.methods) for t in whole.trials
    ]


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json"


@pytest.mark.parametrize("seed", [0, 7, -3])
def test_witness_ranks_are_true_ranks_on_pinned_instances(seed):
    # every pinned family, oracle and self-test instance of the benchmark
    pinned = json.loads(WORKLOADS.read_text())
    for name in ("family", "oracle", "selftest"):
        for inst in pinned[name]["instances"]:
            rc = _build_resolution(JobSpec(
                "verify", inst["n"], inst["u"], inst["v"], inst["k"], oracle_g=inst["oracle_g"]
            ))
            report = random_rank_check(rc, seed=seed, trials=2)
            assert report.passed, inst["id"]
            for t in report.trials:
                assert t.methods == ("dense",) + ("witness",) * (rc.proj_dim - 1), inst["id"]
                point = np.array(t.point, dtype=np.int64)
                for i in range(1, rc.proj_dim):
                    assert t.ranks[i] == rank_mod(_evaluate_dense(rc.matrices[i], point, P))


def test_d0_rank(example_resolution):
    assert _d0_rank(example_resolution, (1, 1, 1, 1), P) == 1
    # every generator of L(x1x3, x2x4) vanishes where x1 = x2 = 0; x2^2 and
    # x2x4 survive x1 = x3 = 0
    assert _d0_rank(example_resolution, (0, 0, 1, 1), P) == 0
    assert _d0_rank(example_resolution, (0, 1, 0, 1), P) == 1
