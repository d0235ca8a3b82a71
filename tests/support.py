"""Shared oracles and generators for the test suite.

Everything here recomputes results by a route independent of the library
code under test: comparator definitions re-read from scratch, interval
membership by filtering the full degree slice, shadows by divisibility,
power generators from k-tuples instead of multisets.
"""

import itertools
import math
import random

import numpy as np
from hypothesis import strategies

from lexres import (
    BudgetError,
    HilbertNumerator,
    InvariantError,
    Monomial,
    RingContext,
    closed_form_matches_oracle,
    cmp_lex,
    colon_minimal_generators,
    compose_check,
    compose_check_d0,
    enumerate_lexsegment,
    make_classified_spec,
    minimality_check,
    stream_resolution,
    variable,
)
from lexres.cli import _quotients, build_parser
from lexres.lexsegment import DEFAULT_PRODUCT_BUDGET, LexSegmentSpec
from lexres.modp import DEFAULT_PRIME
from lexres.monomials import _same_ctx, first_divisors, minimal_rows
from lexres.powers import PowerIdeal
from lexres.quotients import QuotientStructure, SetBoundViolation
from lexres.serialize import iter_resolution_json
from lexres.verify import DEFAULT_HILBERT_BUDGET, _pmul, _witness_shape


# -- the orders and indices of the paper that only the references use --------


def check_split_index(ctx, l):
    if not 2 <= l <= ctx.n - 1:
        raise ValueError(f"split index l={l} outside 2..{ctx.n - 1}")


def cmp_revlex(a, b):
    """Reverse lex on equal degrees: a < b iff at the last differing index s
    the exponent of a is the larger one."""
    _same_ctx(a, b)
    if a.degree != b.degree:
        raise ValueError(f"revlex needs equal degrees, got {a.degree} and {b.degree}")
    for i in range(a.ctx.n - 1, -1, -1):
        ea, eb = a.exponents[i], b.exponents[i]
        if ea != eb:
            return -1 if ea > eb else 1
    return 0


def bar_degree(m, l):
    """Degree of the factor of m supported on x_1..x_l."""
    check_split_index(m.ctx, l)
    return sum(m.exponents[:l])


def cmp_prec(a, b, l):
    """Compare by bar-degree first, then by lex (on equal total degree)."""
    _same_ctx(a, b)
    check_split_index(a.ctx, l)
    da, db = bar_degree(a, l), bar_degree(b, l)
    if da != db:
        return -1 if da < db else 1
    return cmp_lex(a, b)


def revlex_key(m):
    """Sort key: sorting by this ascending is revlex-increasing."""
    return tuple(-e for e in reversed(m.exponents))


def min_tilde_index(m, l):
    """min of supp(m) restricted to x_{l+1}..x_n."""
    check_split_index(m.ctx, l)
    for i in range(l, m.ctx.n):
        if m.exponents[i]:
            return i + 1
    raise ValueError(f"{m} has no support beyond x{l}")


def power_ideal(spec, k, gens):
    """A PowerIdeal whose exponent matrix holds the monomials gens, in order."""
    return PowerIdeal(spec, k, np.array([m.exponents for m in gens], dtype=np.int64).reshape(-1, spec.ctx.n))


def quotient_structure(pi, sets, **verdict):
    """A QuotientStructure of pi whose member matrix holds the given sets,
    sorted tuples of 1-based variables, one per row (fewer rows than
    generators for a failed check, whose verdict is passed by keyword)."""
    member = np.zeros((len(sets), pi.spec.ctx.n), dtype=bool)
    for i, st in enumerate(sets):
        member[i, [s - 1 for s in st]] = True
    return QuotientStructure(power=pi, member=member, **verdict)


def monomials(pi):
    """The generators of pi as Monomials, one per row of its exponent matrix,
    for the references that compute with monomials."""
    return [Monomial(pi.spec.ctx, row) for row in pi.exponent_matrix.tolist()]


def resolve(qs):
    """The complex of qs and all its differentials at once: (rc, {i: d_i})."""
    rc, differentials = stream_resolution(qs)
    return rc, dict(differentials)


def divides(a, b):
    """Whether the monomial a divides b."""
    _same_ctx(a, b)
    return all(x <= y for x, y in zip(a.exponents, b.exponents))


def g_oracle_index(qs, x):
    """Position of the earliest generator (increasing revlex) dividing the
    monomial x, of any degree, by one earliest-divisor scan: the definition
    that lexres.oracle_table reads off the exchange neighbours."""
    pi = qs.power
    pos = int(first_divisors(pi.exponent_matrix, np.array([x.exponents], dtype=np.int64))[0])
    if pos == len(pi):
        raise ValueError(f"{x} is not in I^{pi.k}")
    return pos


def g_oracle(qs, x):
    """The decomposition function by definition: earliest dividing generator."""
    return Monomial(qs.power.spec.ctx, qs.power.exponent_matrix[g_oracle_index(qs, x)])


def neighbours_loop(pi):
    """neighbours[i][s-1][t-1]: the position of m_i * x_s / x_t among the
    generators, or len(G), by a dict of exponent tuples over every (i, s, t):
    the reference for lexres.PowerIdeal.neighbours."""
    gens = monomials(pi)
    position = {m.exponents: j for j, m in enumerate(gens)}
    r, n = len(gens), pi.spec.ctx.n
    table = [[[r] * n for _ in range(n)] for _ in range(r)]
    for i, m in enumerate(gens):
        for s in range(n):
            for t in range(n):
                e = list(m.exponents)
                e[s] += 1
                e[t] -= 1
                if e[t] >= 0:
                    table[i][s][t] = position.get(tuple(e), r)
    return table


def brute_cmp_lex(a, b):
    """Scan for the first differing exponent; bigger exponent wins."""
    for i in range(a.ctx.n):
        ea, eb = a.exponents[i], b.exponents[i]
        if ea != eb:
            return 1 if ea > eb else -1
    return 0


def all_monomials(ctx, d):
    """Every degree-d monomial via combinations with repetition."""
    out = []
    for combo in itertools.combinations_with_replacement(range(ctx.n), d):
        e = [0] * ctx.n
        for i in combo:
            e[i] += 1
        out.append(Monomial(ctx, e))
    return out


def interval_filter(u, v):
    """The lexsegment by brute filtering of the full degree slice."""
    return [
        m
        for m in sorted(all_monomials(u.ctx, u.degree), key=lambda m: m.exponents, reverse=True)
        if brute_cmp_lex(u, m) >= 0 and brute_cmp_lex(m, v) >= 0
    ]


def shadow_by_divisibility(segment, steps=1):
    """Shad^i(L) as the degree-(d+i) monomials divisible by some member."""
    segment = list(segment)
    ctx = segment[0].ctx
    d = segment[0].degree + steps
    return {
        m for m in all_monomials(ctx, d) if any(divides(g, m) for g in segment)
    }


def brute_power_products(segment, k):
    """Distinct products of k-tuples (not multisets) of generators."""
    seen = set()
    for tup in itertools.product(segment, repeat=k):
        e = [0] * segment[0].ctx.n
        for m in tup:
            for i, x in enumerate(m.exponents):
                e[i] += x
        seen.add(tuple(e))
    return seen


def random_monomial(rng, ctx, max_degree):
    d = rng.randrange(0, max_degree + 1)
    e = [0] * ctx.n
    for _ in range(d):
        e[rng.randrange(ctx.n)] += 1
    return Monomial(ctx, e)


def in_monomial_ideal(gens, m):
    return any(divides(g, m) for g in gens)


def theorem_family_specs():
    """Every (n, d, l, exponent) pattern of the classified shape for
    n in 3..6 and d in 2..3."""
    out = []
    for n in range(3, 7):
        ctx = RingContext(n)
        for d in (2, 3):
            for l in range(2, n):
                slots = n - l
                for cuts in itertools.combinations_with_replacement(range(slots), d - 1):
                    a = [0] * slots
                    for c in cuts:
                        a[c] += 1
                    ue = [0] * n
                    ue[0] = 1
                    for j, aj in enumerate(a):
                        ue[l + j] += aj
                    ve = [0] * n
                    ve[l - 1] = 1
                    ve[n - 1] += d - 1
                    out.append((n, d, l, tuple(ue), tuple(ve)))
    return out


def build_family_spec(n, ue, ve):
    ctx = RingContext(n)
    spec, _, cls = make_classified_spec(Monomial(ctx, ue), Monomial(ctx, ve))
    return spec, cls


def random_normalized_pair(rng, ctx, d):
    """A random (u, v) with deg d, nu_1(u) >= 1, nu_1(v) = 0, u >=_lex v."""
    while True:
        u = random_monomial_of_degree(rng, ctx, d)
        if u.exponents[0] == 0:
            continue
        v = random_monomial_of_degree(rng, ctx, d)
        if v.exponents[0] != 0:
            continue
        if brute_cmp_lex(u, v) >= 0:
            return u, v


def small_specs():
    """A hypothesis strategy for lexsegment specs with n <= 5: the classified
    shapes (split index set), or random normalized pairs of degree 2..3
    (split index unset, mostly outside the classified shape)."""
    shapes = [shape for shape in theorem_family_specs() if shape[0] <= 5]
    classified = strategies.sampled_from(shapes).map(lambda s: build_family_spec(s[0], s[3], s[4])[0])

    def pair(args):
        n, d, seed = args
        u, v = random_normalized_pair(random.Random(seed), RingContext(n), d)
        return LexSegmentSpec(ctx=u.ctx, d=d, u=u, v=v)

    pairs = strategies.tuples(
        strategies.integers(3, 5), strategies.integers(2, 3), strategies.integers(0, 2**32)
    ).map(pair)
    return strategies.one_of(classified, pairs)


def random_monomial_of_degree(rng, ctx, d):
    e = [0] * ctx.n
    for _ in range(d):
        e[rng.randrange(ctx.n)] += 1
    return Monomial(ctx, e)


def set_bound_report_loop(qs):
    """The set(m) bound check pair by pair with monomials and cmp_prec: the
    loop that lexres.set_bound_report vectorises, kept as its reference."""
    violations = []
    pi = qs.power
    spec = pi.spec
    vk = spec.v**pi.k if spec.l is not None else None
    for m, st in zip(monomials(pi), qs.sets):
        if not st:
            continue
        mn = m.min_index()
        for s in st:
            if s <= mn:
                violations.append(SetBoundViolation("min-bound", m, s))
                continue
            if vk is None:
                continue
            cand = (m * variable(m.ctx, s)).try_divide(variable(m.ctx, mn))
            if cmp_prec(cand, vk, spec.l) < 0 and s <= min_tilde_index(m, spec.l):
                violations.append(SetBoundViolation("tilde-min-bound", m, s))
    return violations


def minimal_rows_loop(rows):
    """Minimal generators of the ideal spanned by exponent tuples, sorted by
    (degree, lex), by the pairwise scan over tuples: the loop that
    lexres.monomials.minimal_rows vectorises, kept as its reference."""
    rows = sorted(set(rows), key=lambda r: (sum(r), r))
    out = []
    for r in rows:
        if not any(all(g <= x for g, x in zip(o, r)) for o in out):
            out.append(r)
    return out


def first_divisors_loop(G, X):
    """For each tuple of X, the position of the first tuple of G dividing it,
    or len(G): the reference for lexres.monomials.first_divisors."""
    return [
        next((j for j, g in enumerate(G) if all(a <= b for a, b in zip(g, x))), len(G))
        for x in X
    ]


def compose_at(rc, mats, i):
    """lexres's verdict on d_i ∘ d_{i+1} = 0 for the differentials mats,
    {i: d_i}, with d0 the generator row; True where there is no d_{i+1}."""
    if i + 1 not in mats:
        return True
    if i == 0:
        return compose_check_d0(rc.power.exponent_matrix, mats[1])
    return compose_check(mats[i], mats[i + 1])


def composed(rc, mats):
    """compose_at for i = 0..pd-1, the verdicts `verify` prints in order."""
    return [compose_at(rc, mats, i) for i in range(len(rc.betti) - 1)]


def minimal(rc, mats):
    """Whether every entry of every d_i is +-(one variable), d0's generators
    included: each of positive degree, then minimality_check on the rest."""
    n = rc.power.spec.ctx.n
    return bool((rc.power.exponent_matrix.sum(axis=1) >= 1).all()) and all(
        minimality_check(mat, n) for mat in mats.values()
    )


def compose_check_loop(rc, mats, i):
    """d_i ∘ d_{i+1} = 0 term by term over the entries, with dicts: the
    reference for compose_at."""
    def columns(mat):
        out = [[] for _ in range(mat.ncols)]
        for r, c, sign, var in zip(*(a.tolist() for a in mat.arrays)):
            out[c].append((r, sign, var))
        return out

    if i + 1 not in mats:
        return True
    if i == 0:
        for col in columns(mats[1]):
            acc = {}
            for r, sign, var in col:
                key = tuple(e + (j == var - 1) for j, e in enumerate(rc.power.exponent_matrix[r].tolist()))
                acc[key] = acc.get(key, 0) + sign
            if any(acc.values()):
                return False
        return True
    lower = columns(mats[i])
    for col in columns(mats[i + 1]):
        acc = {}
        for r1, s1, v1 in col:
            for r2, s2, v2 in lower[r1]:
                key = (r2, min(v1, v2), max(v1, v2))
                acc[key] = acc.get(key, 0) + s1 * s2
        if any(acc.values()):
            return False
    return True


def witness_shape(rc, mats, i):
    """lexres's (kappa, shaped) of d_i."""
    return _witness_shape(mats[i], i, rc)


def bases(rc):
    """Every basis of rc from rc.symbols, {i: (gen, sigma)} as lists, F_1 to
    F_pd, so that two complexes' bases compare with ==."""
    return {i: tuple(a.tolist() for a in rc.symbols(i)) for i in range(1, len(rc.betti))}


def labels(rc, i):
    """The symbols of F_i as text, f({2,4};u4), in matrix order."""
    gen, sigma = rc.symbols(i)
    return [f"f({{{','.join(map(str, s))}}};u{g + 1})" for s, g in zip(sigma.tolist(), gen.tolist())]


def hilbert_numerator_inclusion_exclusion(rows) -> HilbertNumerator:
    """The exponential oracle for lexres.hilbert_numerator on the exponent
    rows of an (r, n) array: the sum over all generator subsets A of
    (-1)^|A| t^deg(lcm A).  Only sane for a dozen or so generators."""
    gens = rows.tolist()
    if len(gens) > 22:
        raise BudgetError(f"{len(gens)} generators: inclusion-exclusion oracle refuses > 22")
    n = rows.shape[1]
    out: dict[int, int] = {0: 1}

    def rec(lcm_exp, start, sign):
        for j in range(start, len(gens)):
            new = tuple(max(a, b) for a, b in zip(lcm_exp, gens[j]))
            d = sum(new)
            out[d] = out.get(d, 0) - sign  # subset gains one element: sign flips
            rec(new, j + 1, -sign)

    rec((0,) * n, 0, 1)
    return HilbertNumerator.from_dict(out)


def _canonical_key(rows: np.ndarray):
    """Memo key: drop unused variables, sort columns, sort rows.

    The numerator is unchanged by ambient variables that occur nowhere and
    by permuting variables, so canonical keys pool those subproblems.  Any
    row order gives a sound key, but the column sort reads the columns in
    row order, so the key is canonical only for rows in (degree, lex) order.
    """
    A = rows[:, rows.any(axis=0)]
    A = A[:, np.lexsort(A[::-1])]  # columns as tuples, top row first
    A = A[np.lexsort(A.T[::-1])]
    return A.shape, A.tobytes()


def hilbert_numerator_loop(rows, budget: int = DEFAULT_HILBERT_BUDGET) -> HilbertNumerator:
    """N(t) for S/(rows), the ideal of the exponent rows of an (r, n) array,
    by splitting on a pivot variable x:

        N(J) = N(J + (x)) + t * N(J : x)

    with closed forms for the empty set and for pure-power generators.  J is
    carried as its minimal generators, one exponent row each, sorted by
    (degree, lex); x is the variable occurring in the most generators that
    are not pure powers.  The same recursion, pivots, memo and node count as
    lexres.hilbert_numerator, on numpy rows with minimal_rows at every
    colon: the reference it is checked against.
    """
    memo: dict = {}
    nodes = [0]

    def rec(rows: np.ndarray) -> dict[int, int]:
        nodes[0] += 1
        if nodes[0] > budget:
            raise BudgetError(f"hilbert recursion exceeded {budget} nodes")
        if not len(rows):
            return {0: 1}
        degs, support = rows.sum(axis=1), (rows > 0).sum(axis=1)
        if (degs == 0).any():
            return {}
        if (support == 1).all():
            out = {0: 1}
            for d in degs.tolist():
                out = _pmul(out, {0: 1, d: -1})
            return out
        key = _canonical_key(rows)
        hit = memo.get(key)
        if hit is not None:
            return hit
        counts = (rows[support >= 2] > 0).sum(axis=0)
        x = int(counts.argmax())
        unit = np.eye(1, rows.shape[1], x, dtype=np.int64)
        colon = rows.copy()
        colon[:, x] = np.maximum(colon[:, x] - 1, 0)
        # the rows free of x stay minimal and x divides none of them: sort only
        plus = np.vstack([rows[rows[:, x] == 0], unit])
        n_plus = rec(plus[np.lexsort(np.vstack([plus.T[::-1], plus.sum(axis=1)]))])
        n_colon = rec(minimal_rows(colon))
        out = dict(n_plus)
        for deg, coef in n_colon.items():
            out[deg + 1] = out.get(deg + 1, 0) + coef
        out = {k: v for k, v in out.items() if v}
        memo[key] = out
        return out

    return HilbertNumerator.from_dict(rec(minimal_rows(rows)))


def rank_mod_loop(M, p: int = DEFAULT_PRIME) -> int:
    """Plain row-reduction rank, every row below the pivot updated over
    every later column: the reference for lexres.modp.rank_mod."""
    A = np.array(M, dtype=np.int64) % p
    m, n = A.shape
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        inv = pow(int(A[r, c]), p - 2, p)
        mult = (A[r + 1 :, c] * inv) % p
        A[r + 1 :, c:] = (A[r + 1 :, c:] - mult[:, None] * A[r, c:]) % p
        r += 1
    return r


def power_generators_loop(spec, k, budget=DEFAULT_PRODUCT_BUDGET):
    """G(I^k) from one Python product per k-multiset, deduplicated through a
    set and sorted by revlex_key: the loop that lexres.power_generators
    replaces by one array pass, kept as its reference."""
    if k < 1:
        raise ValueError("k must be >= 1")
    segment = enumerate_lexsegment(spec.u, spec.v)
    candidates = math.comb(len(segment) + k - 1, k)
    if candidates > budget:
        raise BudgetError(
            f"|L|={len(segment)}, k={k}: {candidates} candidate products exceed budget {budget}"
        )
    n = spec.ctx.n
    seen = set()
    for combo in itertools.combinations_with_replacement(segment, k):
        exps = [0] * n
        for m in combo:
            for i, e in enumerate(m.exponents):
                exps[i] += e
        seen.add(tuple(exps))
    gens = sorted((Monomial(spec.ctx, e) for e in seen), key=revlex_key)
    if spec.l is not None:
        for m in gens:
            if bar_degree(m, spec.l) < k:
                raise InvariantError(f"generator {m} has bar-degree < k={k}")
    return power_ideal(spec, k, gens)


def linear_quotients_loop(pi):
    """set(m_i) one generator at a time, each from a fresh G[:i] - G[i], with
    the first non-linear colon as data: the loop that
    lexres.linear_quotients_check replaces by exchange neighbours and one
    earliest-divisor scan of the generator rows, kept as its reference."""
    G = pi.exponent_matrix
    r = len(pi)
    sets = [()]
    for i in range(1, r):
        D = G[:i] - G[i]
        np.clip(D, 0, None, out=D)
        degs = D.sum(axis=1)
        unit_rows = np.nonzero(degs == 1)[0]
        var_cols = sorted(set(int(D[j].argmax()) for j in unit_rows))
        covered = (
            np.any(D[:, var_cols] > 0, axis=1) if var_cols else np.zeros(i, dtype=bool)
        )
        if not covered.all():
            colon = colon_minimal_generators(G[:i], G[i]).tolist()
            bad = sorted((g for g in colon if sum(g) != 1), reverse=True)
            return quotient_structure(
                pi,
                sets,
                status="failure",
                failure_index=i,
                offending=Monomial(pi.spec.ctx, bad[0]),
            )
        m_min = int(np.nonzero(G[i])[0][0]) + 1
        for s in var_cols:
            if s + 1 <= m_min:
                raise InvariantError(
                    f"set({Monomial(pi.spec.ctx, G[i])}) contains x{s + 1} <= x_min"
                )
        sets.append(tuple(s + 1 for s in var_cols))
    return quotient_structure(pi, sets)


def resolution_basis_loop(qs):
    """The bases of the resolution from itertools.combinations of each
    set(w), {i: (gen, sigma)} as int64 arrays in matrix order: the loop that
    ResolutionComplex.symbols replaces by subsets of positions in a padded
    set matrix, kept as its reference."""
    bases = {}
    for i in range(1, max((len(s) for s in qs.sets), default=0) + 2):
        gen, sigma = [], []
        for w, st in enumerate(qs.sets):
            combos = list(itertools.combinations(st, i - 1))
            gen += [w] * len(combos)
            sigma += combos
        bases[i] = np.array(gen, dtype=np.int64), np.array(sigma, dtype=np.int64).reshape(len(gen), i - 1)
    return bases


# -- whole-pipeline views that the library itself never needs ----------------


def instance_argv(inst):
    """The options that select a pinned benchmark instance."""
    argv = ["--n", str(inst["n"]), "--u", inst["u"], "--v", inst["v"], "--k", str(inst["k"])]
    return argv + (["--oracle-g"] if inst["oracle_g"] else [])


def cli_resolution(argv):
    """The complex that `lexres resolve <argv>` renders, built through the
    same stages: (rc, {i: d_i})."""
    qs = _quotients(build_parser().parse_args(["resolve", *argv]))
    assert qs.is_linear, argv
    return resolve(qs)


def require_agreement(qs):
    """Fail at the first pair where the closed-form g differs from the oracle."""
    ok, mismatch = closed_form_matches_oracle(qs)
    assert ok, "closed form disagrees with oracle at ({}, x{}): {} vs {}".format(*mismatch)


def resolution_to_json(rc, mats):
    """The whole JSON export of rc and its differentials {i: d_i} as one string."""
    return "".join(iter_resolution_json(rc, sorted(mats.items())))


def matrix_grid(rc, mats, i):
    """The entries of d_i as strings ("x1", "-x3", "0"), rows x cols, read
    entry by entry from the arrays; d0's one row is the generators."""
    if i == 0:
        return [[str(g) for g in monomials(rc.power)]]
    mat = mats[i]
    grid = [["0"] * mat.ncols for _ in range(mat.nrows)]
    for r, c, sign, var in zip(*(a.tolist() for a in mat.arrays)):
        grid[r][c] = ("-" if sign < 0 else "") + f"x{var}"
    return grid
