"""Independent checks that the assembled complex resolves S/I^k.

The Hilbert-series numerator N(t) (with Hilb = N/(1-t)^n) is computed from
the generators alone by the variable-pivot recursion, so comparing it with
the alternating sum of basis degrees exercises the resolution against a
pipeline that never saw the differentials.  The recursion's ideals are
small lists of Python int exponent tuples, and the one divisibility test of
each colon runs on exponents packed into Python ints, or as one numpy scan
when the colon is large.  The randomized rank check
evaluates the differentials at random nonzero points mod a large prime and
tests rank additivity at every homological position; it is a necessary
condition for exactness, never a proof.  Its one fast route is the witness
Schur complement that the linear quotients give every differential: the
differentials of consecutive positions, up to a cap on their entries, form
one block-diagonal witness structure, solved for all of them at all points
at once.  The probe vectors come from the random.Random that draws the
points, after them, as exactly uniform residues (31-bit words below p), so
the check never loads numpy.random.  Dense elimination mod p, per position
and point, is the only fallback.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import monomials
from .errors import BudgetError
from .modp import DEFAULT_PRIME, rank_mod
from .monomials import first_divisors, minimal_rows
from .resolution import DifferentialMatrix, ResolutionComplex

DEFAULT_HILBERT_BUDGET = 200_000


@dataclass(frozen=True)
class HilbertNumerator:
    """Integer polynomial as a degree -> coefficient map (zeros dropped)."""

    coeffs: tuple[tuple[int, int], ...]  # sorted (degree, coefficient) pairs

    @classmethod
    def from_dict(cls, d: dict[int, int]) -> "HilbertNumerator":
        return cls(tuple(sorted((k, v) for k, v in d.items() if v)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for deg, coef in self.coeffs:
            term = "t" if deg == 1 else f"t^{deg}" if deg else ""
            mag = abs(coef)
            body = (str(mag) if (mag != 1 or deg == 0) else "") + term
            if not parts:
                parts.append(body if coef > 0 else "-" + body)
            else:
                parts.append(("+ " if coef > 0 else "- ") + body)
        return " ".join(parts)


def _pmul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for da, ca in a.items():
        for db, cb in b.items():
            out[da + db] = out.get(da + db, 0) + ca * cb
    return out


# (divisor, free row) pairs of a colon above which one first_divisors scan
# replaces the packed-int tests: the measured crossover on the n = 5..8
# ladder rows, where both take about 0.2 ms
_COLON_SCAN_PAIRS = 1024


def hilbert_numerator(gens, budget: int = DEFAULT_HILBERT_BUDGET) -> HilbertNumerator:
    """N(t) for S/(gens) by splitting on a pivot variable x:

        N(J) = N(J + (x)) + t * N(J : x)

    with closed forms for the empty set and for pure-power generators.  J is
    carried as its minimal generators, sorted (degree, exponent tuple,
    packed exponents) triples, so in (degree, lex) order; x is the variable
    occurring in the most generators that are not pure powers, the first one
    on ties.  Subproblems are pooled by a canonical key: unused variables
    dropped, then columns and rows sorted, since the numerator is unchanged
    by permuting variables.  Every call is a node counted against budget.

    The packed form holds each exponent in a field of 1, 2, 4 or 8 bytes,
    the fewest whose top bit, a guard, the input's largest exponent does not
    reach; a divides b iff no field of (b | guard) - a borrows.  The
    recursion never raises an exponent, so that width holds every row.
    """
    memo: dict = {}
    nodes = 0

    def rec(rows: list) -> dict[int, int]:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetError(f"hilbert recursion exceeded {budget} nodes")
        if not rows:
            return {0: 1}
        if not rows[0][0]:  # the unit monomial sorts first
            return {}
        exps = [e for _, e, _ in rows]
        mixed = [e for e in exps if n - e.count(0) >= 2]
        if not mixed:
            out = {0: 1}
            for d, _, _ in rows:
                out = _pmul(out, {0: 1, d: -1})
            return out
        # the column sort reads columns in row order: canonical only because
        # the rows are in (degree, lex) order
        key = tuple(sorted(zip(*sorted(c for c in zip(*exps) if any(c)))))
        hit = memo.get(key)
        if hit is not None:
            return hit
        counts = [len(c) - c.count(0) for c in zip(*mixed)]
        x = counts.index(max(counts))
        # the rows free of x stay minimal and x divides none of them
        free = [t for t in rows if not t[1][x]]
        plus = free.copy()
        bisect.insort(plus, units[x])
        n_plus = rec(plus)
        n_colon = rec(colon(free, x, [t for t in rows if t[1][x]]))
        out = dict(n_plus)
        for deg, coef in n_colon.items():
            out[deg + 1] = out.get(deg + 1, 0) + coef
        out = {k: v for k, v in out.items() if v}
        memo[key] = out
        return out

    def colon(free: list, x: int, divisible: list) -> list:
        """Minimal generators of J : x, sorted, from the rows of J free of x
        and the others.  The others divided by x do not divide each other,
        and no free row divides one of them, as J is minimal: so a free row
        is dropped exactly when one of them divides it, which only one free
        of x can.  One packed-int test per pair decides that, or one divisor
        scan on large inputs."""
        unit = units[x][2]
        lowered = [(d - 1, e[:x] + (e[x] - 1,) + e[x + 1:], p - unit) for d, e, p in divisible]
        divisors = [t for t in lowered if not t[1][x]]
        if len(free) * len(divisors) > _COLON_SCAN_PAIRS:
            arrays = [np.array([e for _, e, _ in part], dtype=np.int64) for part in (divisors, free)]
            divided = (first_divisors(*arrays) < len(divisors)).tolist()
            kept = [t for t, drop in zip(free, divided) if not drop]
        else:
            packed = [p for _, _, p in divisors]
            kept = [t for t in free if all(((t[2] | guard) - a) & guard != guard for a in packed)]
        return sorted(lowered + kept)

    gens = list(gens)
    n = gens[0].ctx.n if gens else 0
    rows = minimal_rows(np.array([m.exponents for m in gens], dtype=np.int64).reshape(len(gens), n))
    size = next(b for b in (1, 2, 4, 8) if rows.max(initial=0) < 1 << (8 * b - 1))
    guard = int.from_bytes(b"\x80".rjust(size, b"\0") * n, "little")
    fields = rows.astype(f"<u{size}")
    units = [(1, tuple(int(i == j) for j in range(n)), 1 << (8 * size * i)) for i in range(n)]
    # minimal_rows sorts by (degree, lex)
    triples = zip(rows.sum(axis=1).tolist(), map(tuple, rows.tolist()),
                  (int.from_bytes(r.tobytes(), "little") for r in fields))
    return HilbertNumerator.from_dict(rec(list(triples)))


def euler_characteristic_numerator(rc: ResolutionComplex) -> HilbertNumerator:
    """sum_i (-1)^i |F_i| t^(kd+i-1), with F_0 = S contributing +1."""
    out: dict[int, int] = {}
    for i, (shift, rank) in enumerate(rc.shifts):
        out[-shift] = out.get(-shift, 0) + (-1) ** i * rank
    return HilbertNumerator.from_dict(out)


@dataclass
class TrialResult:
    point: tuple[int, ...]
    ranks: tuple[int, ...]
    ok: bool
    methods: tuple[str, ...] = ()


@dataclass
class RankReport:
    """Ranks of every evaluated differential, per trial, with the verdict.

    The test is a necessary condition for exactness; passing never claims
    exactness, and a generic-rank drop at an unlucky point can only cause a
    spurious failure, never a spurious pass.
    """

    modulus: int
    seed: int
    betti: tuple[int, ...]
    trials: list[TrialResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(t.ok for t in self.trials)

    def describe(self) -> str:
        lines = [
            f"rank check (necessary condition): modulus {self.modulus}, seed {self.seed}"
        ]
        for t_i, t in enumerate(self.trials):
            lines.append(
                f"  trial {t_i}: ranks {t.ranks} vs betti {self.betti}: "
                + ("ok" if t.ok else "FAIL")
            )
        return "\n".join(lines)


def _d0_rank(rc: ResolutionComplex, point, p: int) -> int:
    """Rank of the one-row d0 at the point: 1 unless every generator vanishes
    there, so the scan stops at the first generator that does not."""
    return int(any(math.prod(pow(c, e, p) for c, e in zip(point, g.exponents)) % p for g in rc.d0))


def _evaluate_dense(mat: DifferentialMatrix, point_arr, p: int) -> np.ndarray:
    M = np.zeros((mat.nrows, mat.ncols), dtype=np.int64)
    M[mat.rows, mat.cols] = (mat.signs * point_arr[mat.vars - 1]) % p
    return M


_GROUP_ENTRIES = 1 << 20  # matrix entries of the positions checked together


class _WitnessStructure:
    """The witness decomposition A = [[W, A12], [A21, A22]] of d_i for
    consecutive positions i, stacked block-diagonally.

    W pairs each column f(sigma; w) with s* = min(set(w)) in sigma against
    the row f(sigma \\ s*; w).  Its diagonal D is the Koszul entries
    +-x_{s*}, invertible at points with nonzero coordinates, and its other
    entries are g-terms pointing to strictly earlier generators, so the
    rest N is nilpotent.  rank(A) = dim(W) + rank(A22 - A21 W^-1 A12), and
    random vectors probe the Schur complement for zero.  shaped marks the
    positions whose actual entries have this shape; the others are left to
    the dense fallback.

    Rows and columns are renumbered witnesses first (witness j is row and
    column j), position by position within each part.  kappa counts each
    position's witnesses; wit_pos and low_pos give the position (its index
    in the run) of each witness and each other row.  n (N), a12 (-A12)
    and low = [A21 | A22] are (rows, cols, signs, vars) arrays sorted by
    row, the rows of low counting other rows only; sweep_cap (the generator
    blocks) bounds N's chains of g-terms.
    """

    __slots__ = (
        "shaped", "kappa", "wit_pos", "low_pos", "ncols",
        "diag_sign", "diag_var", "sweep_cap", "n", "a12", "low",
    )


def _witnesses_first(size: int, picked: np.ndarray) -> np.ndarray:
    """Each index's place when the picked ones come first, then the rest."""
    rest = np.ones(size, dtype=bool)
    rest[picked] = False
    place = np.cumsum(rest) - 1 + len(picked)
    place[picked] = np.arange(len(picked))
    return place


def _stack(arrays, offsets=None) -> np.ndarray:
    """The arrays end to end, each plus its offset; one array is not copied."""
    if offsets is not None:
        arrays = [a + o if o else a for a, o in zip(arrays, offsets.tolist())]
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _build_witness_structure(rc: ResolutionComplex, positions) -> _WitnessStructure:
    """The stacked structure of a run of consecutive positions (a list)."""
    mats = [rc.matrices[i] for i in positions]
    row_off = np.cumsum([0] + [m.nrows for m in mats])
    col_off = np.cumsum([0] + [m.ncols for m in mats])
    s_star = np.array([min(s) if s else 0 for s in rc.quotients.sets], dtype=np.int64)
    col_gen = _stack([rc.bases[i + 1].gen for i in positions])
    col_mask = _stack([rc.bases[i + 1].mask for i in positions])
    ss = s_star[col_gen]
    wit_cols = np.flatnonzero(col_mask >> ss & 1)
    # each one's row f(sigma \\ s*; w) by (generator, mask), which is unique
    # over all positions; a column without that row is no witness
    shift = rc.power.spec.ctx.n + 1
    keys = _stack([rc.bases[i].gen << shift | rc.bases[i].mask for i in positions])
    order = np.argsort(keys)
    query = col_gen[wit_cols] << shift | col_mask[wit_cols] - (1 << ss[wit_cols])
    found = order[np.searchsorted(keys[order], query).clip(max=len(keys) - 1)]
    wit_cols, diag_row = wit_cols[keys[found] == query], found[keys[found] == query]
    kappa, kap = np.diff(np.searchsorted(wit_cols, col_off)), len(wit_cols)
    wit_pos = np.repeat(np.arange(len(positions)), kappa)
    block = col_gen[wit_cols]  # generator of witness j

    # renumbered witnesses first, witness j is row j and column j
    r = _witnesses_first(row_off[-1], diag_row)[_stack([m.rows for m in mats], row_off)]
    c = _stack([m.cols for m in mats], col_off)
    sign, var = _stack([m.signs for m in mats]), _stack([m.vars for m in mats])
    diag = var == ss[c]
    c = _witnesses_first(col_off[-1], wit_cols)[c]
    diag &= (r == c) & (r < kap)
    diag_sign, diag_var = np.zeros((2, kap), dtype=np.int64)
    diag_sign[r[diag]], diag_var[r[diag]] = sign[diag], var[diag]
    upper = np.flatnonzero((r < kap) & (c < kap) & ~diag)
    # the rest of W must point to a strictly earlier generator block
    shaped = np.ones(len(positions), dtype=bool)
    shaped[wit_pos[np.abs(diag_sign) != 1]] = False
    shaped[wit_pos[c[upper[block[r[upper]] >= block[c[upper]]]]]] = False

    def coo(at, row_shift=0, flip=1):
        at = at[np.argsort(r[at])]  # by row; a row's entries in any order
        return r[at] - row_shift, c[at], flip * sign[at], var[at]

    st = _WitnessStructure()
    st.shaped, st.kappa, st.wit_pos, st.ncols = shaped, kappa, wit_pos, col_off[-1]
    st.low_pos = np.repeat(np.arange(len(positions)), np.diff(row_off) - kappa)
    st.diag_sign, st.diag_var = diag_sign, diag_var
    st.sweep_cap = 1 + np.count_nonzero(np.diff(block))  # generator blocks
    st.n = coo(upper)
    st.a12 = coo(np.flatnonzero((r < kap) & (c >= kap)), flip=-1)
    st.low = coo(np.flatnonzero(r >= kap), kap)
    return st


def _times(vals, Z, p: int) -> np.ndarray:
    """Z (entries, trials, probes) times vals (entries, trials) mod p, in place."""
    Z *= vals[:, :, None]
    Z %= p
    return Z


def _coo_times_dense(coo, points, nrows, Z, p: int) -> np.ndarray:
    """The (rows, cols, signs, vars) entries, sorted by row, at each of the
    points (trials, n), times Z (ncols, trials, probes), mod p; formed over
    chunks of entries whose temporaries stay near _SCAN_CHUNK_CELLS / 64
    cells: that keeps a whole run's peak near one position's, at no cost."""
    rows, cols, signs, variables = coo
    out = np.zeros((nrows,) + Z.shape[1:], dtype=np.int64)
    step = max(1, monomials._SCAN_CHUNK_CELLS // 64 // max(1, math.prod(Z.shape[1:])))
    for lo in range(0, len(rows), step):
        part = slice(lo, lo + step)
        r = rows[part]
        vals = signs[part, None] * points[:, variables[part] - 1].T % p
        starts = np.flatnonzero(np.diff(r, prepend=-1))  # rows are sorted
        out[r[starts]] += np.add.reduceat(_times(vals, Z[cols[part]], p), starts, axis=0)
    return out % p


def _witness_solve(st: _WitnessStructure, points, inv_points, x, p: int) -> np.ndarray:
    """Solve W x = b in place at the points (trials, n), inv_points their
    inverses mod p; x (kappa, trials, probes) holds b on entry.  Return for
    each position whether its N passed the level sweeps.

    A witness's level is 0 for a row of W without g-terms, else one more
    than the highest level its g-terms reach; the sweeps settle after as
    many sweeps as the longest chain.  A position whose levels still move
    after sweep_cap sweeps has a cycle: its g-terms are dropped and its x is
    meaningless.  x = D^-1 (b - N x) is then solved one level at a time from
    0 up, for all positions together, so each entry of N is used once."""
    rows, cols, signs, variables = st.n
    first = np.flatnonzero(np.diff(rows, prepend=-1))  # each row's first g-term
    level = np.zeros(len(x), dtype=np.int64)
    for _ in range(st.sweep_cap):
        nxt = np.zeros_like(level)
        nxt[rows[first]] = 1 + np.maximum.reduceat(level[cols], first)
        moved, level = nxt != level, nxt
        if not moved.any():
            break
    settled = np.bincount(st.wit_pos[moved], minlength=len(st.kappa)) == 0
    level[~settled[st.wit_pos]] = 0
    # the diagonal is +-x_{s*}, so its inverse is +- the inverse coordinate
    inv = st.diag_sign[:, None] * inv_points[:, st.diag_var - 1].T % p
    x[:] = x * inv[:, :, None] % p
    # N's entries by level (rows of level 0 use none) and row, valued at the
    # points times -D^-1; each batch holds rows of one level, about step entries
    lev = level[rows]
    order = np.argsort(lev * len(x) + rows)[np.count_nonzero(lev == 0):]
    rows, cols = rows[order], cols[order]
    vals = -signs[order, None] * points[:, variables[order] - 1].T % p * inv[rows] % p
    head = np.flatnonzero(np.diff(rows, prepend=-1))
    step = max(1, monomials._SCAN_CHUNK_CELLS // 64 // max(1, math.prod(x.shape[1:])))
    key = level[rows[head]] * len(rows) + head // step
    cut = np.flatnonzero(np.diff(key, prepend=-1)).tolist() + [len(head)]
    edge, at = np.append(head, len(rows)).tolist(), rows[head]
    for lo, hi in zip(cut[:-1], cut[1:]):
        part = slice(edge[lo], edge[hi])
        terms = np.add.reduceat(_times(vals[part], x[cols[part]], p), head[lo:hi] - edge[lo])
        x[at[lo:hi]] = (x[at[lo:hi]] + terms) % p
    return settled


def _residues(rng: random.Random, count: int, p: int) -> np.ndarray:
    """count residues mod p <= 2^31, exactly uniform: the first count words
    below p in rng's stream of 31-bit words, so a word >= p is rejected
    rather than reduced, which would favour the low residues."""
    out = np.empty(0, dtype=np.int64)
    while len(out) < count:
        words = np.frombuffer(rng.randbytes(4 * (count - len(out))), dtype="<u4") & 0x7FFFFFFF
        out = np.concatenate([out, words[words < p]])
    return out


def _witness_ranks(st: _WitnessStructure, points, inv_points, rng, p: int, probes: int = 4):
    """Whether each position of st has the witness rank kappa at each of the
    points (trials, n): a (positions, trials) array, False where the position
    is not shaped, a diagonal vanishes, N is not nilpotent or a probe finds
    the Schur complement nonzero.

    rng (a random.Random) draws probe vectors z on the other columns, shared
    by all points.  v stacks the x with W x = -A12 z over z, so that the top
    rows of A v vanish and the others are A21 x + A22 z, the Schur complement
    times z."""
    kap = len(st.diag_sign)
    v = np.empty((st.ncols, len(points), probes), dtype=np.int64)
    v[kap:] = _residues(rng, (st.ncols - kap) * probes, p).reshape(-1, 1, probes)
    v[:kap] = _coo_times_dense(st.a12, points, kap, v, p)
    settled = _witness_solve(st, points, inv_points, v[:kap], p)
    ok = np.repeat((settled & st.shaped)[:, None], len(points), axis=1)
    w, t = np.nonzero(points[:, st.diag_var - 1].T == 0)
    ok[st.wit_pos[w], t] = False
    r, t = np.nonzero(_coo_times_dense(st.low, points, len(st.low_pos), v, p).any(axis=2))
    ok[st.low_pos[r], t] = False
    return ok


def _position_groups(rc: ResolutionComplex) -> list[list[int]]:
    """Positions 1..pd-1 in runs of consecutive ones with at most
    _GROUP_ENTRIES entries together, a bigger differential alone."""
    groups, size = [], math.inf
    for i in range(1, rc.proj_dim):
        entries = rc.matrices[i].entry_count()
        if size + entries > _GROUP_ENTRIES:
            groups, size = groups + [[]], 0
        groups[-1].append(i)
        size += entries
    return groups


def rank_positions_ok(betti, ranks) -> bool:
    """rank d_{i-1} + rank d_i = beta_i at inner positions, with rank d_0 = 1
    and the last differential's rank equal to the last Betti number."""
    pd = len(betti) - 1
    inner = all(ranks[i - 1] + ranks[i] == betti[i] for i in range(1, pd))
    return ranks[0] == 1 and inner and ranks[pd - 1] == betti[pd]


def random_rank_check(rc: ResolutionComplex, seed: int = 0, trials: int = 5) -> RankReport:
    """Evaluate all differentials at random nonzero points mod DEFAULT_PRIME
    and test rank additivity at every position, `trials` times.

    d0 is a single row.  The later positions go through the witness Schur
    complement (see _WitnessStructure) in runs of consecutive positions with
    at most _GROUP_ENTRIES entries together (a bigger one alone), each run
    one structure checked at all points with one level sweep and one solve;
    the points and their inverses are made once, and the probe vectors of
    every run are drawn after the points from the same random.Random(seed),
    exactly uniform mod p (see _residues).  Only
    a position without the witness shape, or at a point where its diagonal
    vanishes or a probe finds its complement nonzero, is eliminated densely,
    so reported ranks are the true evaluated ranks (up to the probe odds).
    """
    if trials < 1:
        raise ValueError(f"the rank check needs at least one trial, got {trials}")
    p = DEFAULT_PRIME
    rng, n = random.Random(seed), rc.power.spec.ctx.n
    points = [tuple(rng.randrange(1, p) for _ in range(n)) for _ in range(trials)]
    point_arr = np.array(points, dtype=np.int64)
    inv_points = np.array([[pow(c, -1, p) for c in pt] for pt in points], dtype=np.int64)
    found = np.full((rc.proj_dim, trials), -1, dtype=np.int64)  # -1: no witness rank
    for group in _position_groups(rc):
        st = _build_witness_structure(rc, group)
        ok = _witness_ranks(st, point_arr, inv_points, rng, p)
        found[group] = np.where(ok, st.kappa[:, None], -1)
    report = RankReport(modulus=p, seed=seed, betti=rc.betti)
    for t, point in enumerate(points):
        ranks, methods = [_d0_rank(rc, point, p)], ["dense"]
        for i, r in enumerate(found[1:, t].tolist(), start=1):
            methods.append("witness" if r >= 0 else "dense-fallback")
            if r < 0:
                r = rank_mod(_evaluate_dense(rc.matrices[i], point_arr[t], p))
            ranks.append(r)
        ok = rank_positions_ok(rc.betti, ranks)
        report.trials.append(TrialResult(point, tuple(ranks), ok, tuple(methods)))
    return report
