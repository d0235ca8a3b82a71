"""Independent checks that the assembled complex resolves S/I^k.

The Hilbert-series numerator N(t) (with Hilb = N/(1-t)^n) is computed from
the generators alone by the variable-pivot recursion, so comparing it with
the alternating sum of basis degrees exercises the resolution against a
pipeline that never saw the differentials.  The randomized rank check
evaluates the differentials at random nonzero points mod a large prime and
tests rank additivity at every homological position; it is a necessary
condition for exactness, never a proof.  Its one fast route is the witness
Schur complement that the linear quotients give every differential, with
dense elimination mod p as the only fallback.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import monomials
from .errors import BudgetError
from .modp import DEFAULT_PRIME, rank_mod
from .monomials import minimal_rows
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


def hilbert_numerator(gens, budget: int = DEFAULT_HILBERT_BUDGET) -> HilbertNumerator:
    """N(t) for S/(gens) by splitting on a pivot variable x:

        N(J) = N(J + (x)) + t * N(J : x)

    with closed forms for the empty set and for pure-power generators.  J is
    carried as its minimal generators, one exponent row each, sorted by
    (degree, lex); x is the variable occurring in the most generators that
    are not pure powers.
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

    gens = list(gens)
    n = gens[0].ctx.n if gens else 0
    rows = np.array([m.exponents for m in gens], dtype=np.int64).reshape(len(gens), n)
    return HilbertNumerator.from_dict(rec(minimal_rows(rows)))


def hilbert_numerator_inclusion_exclusion(gens) -> HilbertNumerator:
    """The exponential oracle: sum over all generator subsets A of
    (-1)^|A| t^deg(lcm A).  Only sane for a dozen or so generators."""
    gens = list(gens)
    if len(gens) > 22:
        raise BudgetError(f"{len(gens)} generators: inclusion-exclusion oracle refuses > 22")
    n = gens[0].ctx.n if gens else 0
    out: dict[int, int] = {0: 1}

    def rec(lcm_exp, start, sign):
        for j in range(start, len(gens)):
            new = tuple(max(a, b) for a, b in zip(lcm_exp, gens[j].exponents))
            d = sum(new)
            out[d] = out.get(d, 0) - sign  # subset gains one element: sign flips
            rec(new, j + 1, -sign)

    rec((0,) * n, 0, 1)
    return HilbertNumerator.from_dict(out)


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
    for g in rc.d0:
        val = 1
        for c, e in zip(point, g.exponents):
            if e:
                val = val * pow(c, e, p) % p
        if val:
            return 1
    return 0


def _evaluate_dense(mat: DifferentialMatrix, point_arr, p: int) -> np.ndarray:
    M = np.zeros((mat.nrows, mat.ncols), dtype=np.int64)
    M[mat.rows, mat.cols] = (mat.signs * point_arr[mat.vars - 1]) % p
    return M


class _WitnessStructure:
    """One differential's decomposition A = [[W, A12], [A21, A22]] where the
    witness block W pairs each column f(sigma; w) with s* = min(set(w)) in
    sigma against the row f(sigma \\ s*; w).

    Within a generator block the pairing picks out the Koszul entry
    +-x_{s*} on the diagonal, and every other witness entry comes from a
    g-term pointing to a strictly earlier generator.  So W = D + N with D
    the diagonal +-x_{s*}, invertible at every point with nonzero
    coordinates, and N nilpotent: x = D^-1 (rhs - N x) solves W x = rhs one
    level of N at a time, and the sweeps that find the levels settle after
    as many sweeps as the longest chain of g-terms, never after more than
    there are generator blocks (sweep_cap).
    rank(A) = dim(W) + rank(A22 - A21 W^-1 A12), and the Schur complement
    is zero-probed with random vectors.  All of this is
    read off the actual entry arrays at run time; any deviation from the
    expected shape aborts the construction (the caller then falls back to a
    generic elimination).  N, A12, A21 and A22 are (rows, cols, signs, vars)
    entry arrays.
    """

    __slots__ = (
        "kappa", "n_other_rows", "n_other_cols",
        "diag_sign", "diag_var", "sweep_cap",
        "n", "a12", "a21", "a22",
    )


def _split(size: int, picked: np.ndarray):
    """Each index's position among picked (-1 elsewhere), its position among
    the rest (-1 on picked), and how many the rest are."""
    among = np.full(size, -1, dtype=np.int64)
    among[picked] = np.arange(len(picked))
    other = np.cumsum(among < 0) - 1
    other[picked] = -1
    return among, other, size - len(picked)


def _build_witness_structure(rc: ResolutionComplex, i: int) -> _WitnessStructure | None:
    row_ix, col_ix = rc.bases[i], rc.bases[i + 1]
    mat = rc.matrices[i]
    s_star = np.array([min(s) if s else 0 for s in rc.quotients.sets], dtype=np.int64)
    ss = s_star[col_ix.gen]
    wit_cols = np.flatnonzero((col_ix.sigma == ss[:, None]).any(axis=1))
    kappa = len(wit_cols)
    if kappa == 0:
        return None
    block = col_ix.gen[wit_cols]  # generator of witness j
    diag_row = row_ix.find(block, col_ix.mask[wit_cols] - (1 << ss[wit_cols]))
    if (diag_row < 0).any():
        return None
    col_wit, col_other, n_other_cols = _split(mat.ncols, wit_cols)
    row_wit, row_other, n_other_rows = _split(mat.nrows, diag_row)

    r, c, sign, var = mat.arrays
    j, j2 = col_wit[c], row_wit[r]
    on_wit = j >= 0
    diag = on_wit & (r == diag_row[j]) & (var == ss[c])
    diag_sign, diag_var = np.zeros((2, kappa), dtype=np.int64)
    diag_sign[j[diag]], diag_var[j[diag]] = sign[diag], var[diag]
    upper = on_wit & ~diag & (j2 >= 0)
    # the rest of W must point to a strictly earlier generator block
    if (np.abs(diag_sign) != 1).any() or (row_ix.gen[r[upper]] >= col_ix.gen[c[upper]]).any():
        return None

    def coo(mask, rows, cols):
        at = np.flatnonzero(mask)
        at = at[np.argsort(rows[at], kind="stable")]  # by row
        return rows[at], cols[at], sign[at], var[at]

    st = _WitnessStructure()
    st.kappa, st.n_other_rows, st.n_other_cols = kappa, n_other_rows, n_other_cols
    st.diag_sign, st.diag_var = diag_sign, diag_var
    st.sweep_cap = 1 + np.count_nonzero(np.diff(block))  # generator blocks
    st.n = coo(upper, j2, j)
    st.a12 = coo(~on_wit & (j2 >= 0), j2, col_other[c])
    st.a21 = coo(on_wit & ~diag & (j2 < 0), row_other[r], j)
    st.a22 = coo(~on_wit & (j2 < 0), row_other[r], col_other[c])
    return st


def _coo_times_dense(coo, points, nrows, Z, p: int) -> np.ndarray:
    """The matrix with the given (rows, cols, signs, vars) entries, sorted by
    row and evaluated at each of the points (trials, n), times Z (ncols,
    trials, probes), mod p.  Values and products are formed over chunks of
    entries, so that the temporaries stay near _SCAN_CHUNK_CELLS cells
    however many entries there are."""
    rows, cols, signs, variables = coo
    out = np.zeros((nrows,) + Z.shape[1:], dtype=np.int64)
    step = max(1, monomials._SCAN_CHUNK_CELLS // max(1, math.prod(Z.shape[1:])))
    for lo in range(0, len(rows), step):
        part = slice(lo, lo + step)
        r = rows[part]
        vals = signs[part, None] * points[:, variables[part] - 1].T % p
        starts = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])  # rows are sorted
        out[r[starts]] += np.add.reduceat(vals[:, :, None] * Z[cols[part]] % p, starts, axis=0)
    return out % p


def _witness_solve(st: _WitnessStructure, points, rhs, p: int):
    """x with W x = rhs at every point, or None if N is not nilpotent.

    With D the diagonal, x = D^-1 (rhs - N x).  A witness's level is 0 for
    a row of W without g-terms, else one more than the highest level its
    g-terms reach.  The sweeps level <- 1 + max(level over the row's
    g-terms) settle after as many sweeps as the longest chain of g-terms;
    if they have not after sweep_cap, N has a cycle (only a malformed
    structure gets there).  x is then solved one level at a time from
    level 0 (x = D^-1 rhs) up: a row's g-terms reach lower levels only, so
    each level's x is final when computed and every entry of N is used
    once.  points is (trials, n), rhs and x are (kappa, trials, probes);
    every diagonal entry must be nonzero."""
    rows, cols = st.n[0], st.n[1]
    dep, first = np.unique(rows, return_index=True)  # rows are sorted
    level = np.zeros(st.kappa, dtype=np.int64)
    for _ in range(st.sweep_cap):
        nxt = np.zeros_like(level)
        if len(rows):
            nxt[dep] = 1 + np.maximum.reduceat(level[cols], first)
        if np.array_equal(nxt, level):
            break
        level = nxt
    else:
        return None
    inv_points = np.array(
        [[pow(c, p - 2, p) for c in pt] for pt in points.tolist()], dtype=np.int64
    )
    # the diagonal is +-x_{s*}, so its inverse is +- the inverse coordinate
    inv = (st.diag_sign[:, None] * inv_points[:, st.diag_var - 1].T % p)[:, :, None]
    x = rhs * inv % p
    row_level = level[rows]
    by_level = np.argsort(row_level, kind="stable")  # and by row within a level
    bounds = np.searchsorted(row_level[by_level], np.arange(1, level.max() + 2))
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        part = by_level[lo:hi]
        at, local = np.unique(rows[part], return_inverse=True)
        terms = _coo_times_dense((local, *(a[part] for a in st.n[1:])), points, len(at), x, p)
        x[at] = (rhs[at] - terms) * inv[at] % p
    return x


def _witness_ranks(st: _WitnessStructure, points, rngs, p: int, probes: int = 4):
    """Exact rank at each of the points (trials, n) via the witness Schur
    complement, all points at once; None for a point where the diagonal
    vanishes or a probe finds the complement nonzero, and for every point
    if N is not nilpotent (the caller falls back).  rngs holds one numpy
    generator per point for its probe vectors."""
    diag = st.diag_sign[:, None] * points[:, st.diag_var - 1].T % p
    live = np.flatnonzero((diag != 0).all(axis=0))
    if len(live) and st.n_other_cols and st.n_other_rows:
        pts = points[live]
        z = np.stack(
            [rngs[t].integers(0, p, size=(st.n_other_cols, probes), dtype=np.int64)
             for t in live.tolist()],
            axis=1,
        )
        x = _witness_solve(st, pts, _coo_times_dense(st.a12, pts, st.kappa, z, p), p)
        if x is None:
            live = live[:0]
        else:
            lhs = _coo_times_dense(st.a21, pts, st.n_other_rows, x, p)
            direct = _coo_times_dense(st.a22, pts, st.n_other_rows, z, p)
            live = live[(direct == lhs).all(axis=(0, 2))]  # both are reduced mod p
    out = [None] * len(points)
    for t in live.tolist():
        out[t] = st.kappa
    return out


def rank_positions_ok(betti, ranks) -> bool:
    """rank d_{i-1} + rank d_i = beta_i at inner positions, with rank d_0 = 1
    and the last differential's rank equal to the last Betti number."""
    pd = len(betti) - 1
    if ranks[0] != 1:
        return False
    for i in range(1, pd):
        if ranks[i - 1] + ranks[i] != betti[i]:
            return False
    return ranks[pd - 1] == betti[pd]


def random_rank_check(rc: ResolutionComplex, seed: int = 0, trials: int = 5) -> RankReport:
    """Evaluate all differentials at random nonzero points mod DEFAULT_PRIME
    and test rank additivity at every position, `trials` times.

    d0 is a single row.  Every later differential goes through the witness
    Schur complement (see _WitnessStructure): the witness block is invertible
    by inspection of the evaluated entries, so the rank equals its dimension
    plus the rank of the Schur complement, which random probe vectors test
    for zero.  All points are drawn up front and each position is checked
    at every point at once: the witness block is solved for all trials
    together, one level of its nilpotent part at a time.  Where the
    structure does not apply or a probe finds the complement nonzero, the
    evaluated matrix at that point is eliminated densely instead, so
    reported ranks are always the true evaluated ranks (up to the
    documented probe failure odds).
    """
    if trials < 1:
        raise ValueError(f"the rank check needs at least one trial, got {trials}")
    p = DEFAULT_PRIME
    rng = random.Random(seed)
    n = rc.power.spec.ctx.n
    points = [tuple(rng.randrange(1, p) for _ in range(n)) for _ in range(trials)]
    point_arr = np.array(points, dtype=np.int64)
    ranks = [[_d0_rank(rc, point, p)] for point in points]
    methods = [["dense"] for _ in points]
    for i in range(1, rc.proj_dim):
        st = _build_witness_structure(rc, i)
        found = [None] * trials
        if st is not None:
            # numpy seeds must be non-negative; the points come from rng,
            # so folding the sign only lets two seeds share probe vectors
            rngs = [np.random.default_rng([abs(seed), t, i, 0x5C0]) for t in range(trials)]
            found = _witness_ranks(st, point_arr, rngs, p)
        for t, r in enumerate(found):
            if r is None:
                r = rank_mod(_evaluate_dense(rc.matrices[i], point_arr[t], p))
            ranks[t].append(r)
            methods[t].append("dense-fallback" if found[t] is None else "witness")
    report = RankReport(modulus=p, seed=seed, betti=rc.betti)
    for point, r, m in zip(points, ranks, methods):
        r = tuple(r)
        report.trials.append(
            TrialResult(point=point, ranks=r, ok=rank_positions_ok(rc.betti, r), methods=tuple(m))
        )
    return report
