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

import random
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError
from .modp import DEFAULT_PRIME, rank_mod
from .resolution import ResolutionComplex

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


def _minimalize_rows(rows: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    rows = sorted(set(rows), key=lambda r: (sum(r), r))
    out: list[tuple[int, ...]] = []
    for r in rows:
        if not any(all(g <= x for g, x in zip(o, r)) for o in out):
            out.append(r)
    return out


def _canonical(rows) -> tuple[tuple[int, ...], ...]:
    """Memo key: drop unused variables, sort columns, sort rows.

    The numerator is unchanged by ambient variables that occur nowhere and
    by permuting variables, so canonical keys pool those subproblems.
    """
    if not rows:
        return ()
    cols = sorted(c for c in zip(*rows) if any(c))
    if not cols:
        return ((),)
    return tuple(sorted(zip(*cols)))


def _pivot_variable(rows, policy: str) -> int:
    """A variable occurring in some non-pure-power generator."""
    nvars = len(rows[0])
    counts = [0] * nvars
    for r in rows:
        if sum(1 for e in r if e) >= 2:
            for j, e in enumerate(r):
                if e:
                    counts[j] += 1
    if policy == "occurrence":
        return max(range(nvars), key=lambda j: counts[j])
    if policy == "index":
        return next(j for j in range(nvars) if counts[j])
    raise ValueError(f"unknown pivot policy {policy!r}")


def hilbert_numerator(
    gens,
    budget: int = DEFAULT_HILBERT_BUDGET,
    pivot_policy: str = "occurrence",
) -> HilbertNumerator:
    """N(t) for S/(gens) by splitting on a pivot variable x:

        N(J) = N(J + (x)) + t * N(J : x)

    with closed forms for the empty set and for pure-power generators.
    """
    rows = _minimalize_rows([tuple(m.exponents) for m in gens])
    memo: dict = {}
    nodes = [0]

    def rec(rows: list[tuple[int, ...]]) -> dict[int, int]:
        nodes[0] += 1
        if nodes[0] > budget:
            raise BudgetError(f"hilbert recursion exceeded {budget} nodes")
        if not rows:
            return {0: 1}
        if any(sum(r) == 0 for r in rows):
            return {}
        if all(sum(1 for e in r if e) == 1 for r in rows):
            out = {0: 1}
            for r in rows:
                out = _pmul(out, {0: 1, sum(r): -1})
            return out
        key = _canonical(rows)
        hit = memo.get(key)
        if hit is not None:
            return hit
        x = _pivot_variable(rows, pivot_policy)
        plus = [r for r in rows if r[x] == 0]
        unit = tuple(1 if j == x else 0 for j in range(len(rows[0])))
        plus.append(unit)
        colon = _minimalize_rows(
            [tuple(e - 1 if j == x and e else e for j, e in enumerate(r)) for r in rows]
        )
        n_plus = rec(_minimalize_rows(plus))
        n_colon = rec(colon)
        out = dict(n_plus)
        for deg, coef in n_colon.items():
            out[deg + 1] = out.get(deg + 1, 0) + coef
        out = {k: v for k, v in out.items() if v}
        memo[key] = out
        return out

    return HilbertNumerator.from_dict(rec(rows))


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
    """The alternating basis-degree sum: F_0 contributes +1."""
    out: dict[int, int] = {0: 1}
    for i, symbols in rc.bases.items():
        sign = -1 if i % 2 else 1
        for b in symbols:
            out[b.degree] = out.get(b.degree, 0) + sign
    return HilbertNumerator.from_dict(out)


def euler_check(rc: ResolutionComplex, budget: int = DEFAULT_HILBERT_BUDGET) -> bool:
    """Alternating basis degrees against the generator-only numerator."""
    return euler_characteristic_numerator(rc) == hilbert_numerator(
        rc.power.generators, budget=budget
    )


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


def _evaluate_d0(rc: ResolutionComplex, point, p: int) -> np.ndarray:
    row = np.empty((1, len(rc.d0)), dtype=np.int64)
    for j, g in enumerate(rc.d0):
        val = 1
        for i, e in enumerate(g.exponents):
            if e:
                val = val * pow(point[i], e, p) % p
        row[0, j] = val
    return row


def _entry_arrays(mat) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    rows = np.fromiter((e.row for e in mat.entries()), dtype=np.int64)
    cols = np.fromiter((e.col for e in mat.entries()), dtype=np.int64)
    signs = np.fromiter((e.sign for e in mat.entries()), dtype=np.int64)
    variables = np.fromiter((e.var for e in mat.entries()), dtype=np.int64)
    return rows, cols, signs, variables


def _evaluate_dense(arrays, shape, point_arr, p: int) -> np.ndarray:
    rows, cols, signs, variables = arrays
    M = np.zeros(shape, dtype=np.int64)
    M[rows, cols] = (signs * point_arr[variables - 1]) % p
    return M


class _WitnessStructure:
    """One differential's decomposition A = [[W, A12], [A21, A22]] where the
    witness block W pairs each column f(sigma; w) with s* = min(set(w)) in
    sigma against the row f(sigma \\ s*; w).

    Within a generator block the pairing picks out the Koszul entry
    +-x_{s*} on the diagonal, and every other witness entry comes from a
    g-term pointing to a strictly earlier generator, so in basis order W is
    upper triangular with diagonal +-x_{s*}: invertible at every point with
    nonzero coordinates.  rank(A) = dim(W) + rank(A22 - A21 W^-1 A12), and
    the Schur complement is zero-probed with random vectors.  All of this is
    read off the actual entry lists at run time; any deviation from the
    expected shape aborts the construction (the caller then falls back to a
    generic elimination).
    """

    __slots__ = (
        "kappa", "n_other_rows", "n_other_cols",
        "diag_sign", "diag_var", "block_ranges",
        "n_rows", "n_cols", "n_sign", "n_var",
        "a12", "a21", "a22",
    )


def _build_witness_structure(rc: ResolutionComplex, i: int) -> _WitnessStructure | None:
    rows_sym = rc.bases[i]
    cols_sym = rc.bases[i + 1]
    sets = rc.quotients.sets
    s_star = {w: min(s) for w, s in enumerate(sets) if s}
    row_pos = {(b.sigma, b.gen): idx for idx, b in enumerate(rows_sym)}

    wit_row_of_row = {}
    diag_row = []      # aligned row index per witness j
    col_to_wit = {}
    block = []         # generator of witness j
    for c, b in enumerate(cols_sym):
        ss = s_star.get(b.gen)
        if ss is not None and ss in b.sigma:
            tau = tuple(t for t in b.sigma if t != ss)
            r = row_pos[(tau, b.gen)]
            j = len(diag_row)
            col_to_wit[c] = j
            diag_row.append(r)
            block.append(b.gen)
            wit_row_of_row[r] = j
    kappa = len(diag_row)
    if kappa == 0:
        return None

    other_row_of_row = {}
    for r in range(len(rows_sym)):
        if r not in wit_row_of_row:
            other_row_of_row[r] = len(other_row_of_row)
    other_col_of_col = {}
    for c in range(len(cols_sym)):
        if c not in col_to_wit:
            other_col_of_col[c] = len(other_col_of_col)

    diag_sign = [0] * kappa
    diag_var = [0] * kappa
    n_rows, n_cols, n_sign, n_var = [], [], [], []
    a12, a21, a22 = ([], [], [], []), ([], [], [], []), ([], [], [], [])

    for c, col in enumerate(rc.matrices[i].columns):
        j = col_to_wit.get(c)
        if j is not None:
            ss = s_star[cols_sym[c].gen]
            for e in col:
                if e.row == diag_row[j] and e.var == ss:
                    diag_sign[j], diag_var[j] = e.sign, e.var
                    continue
                j2 = wit_row_of_row.get(e.row)
                if j2 is not None:
                    # must point to a strictly earlier generator block
                    if rows_sym[e.row].gen >= block[j]:
                        return None
                    n_rows.append(j2)
                    n_cols.append(j)
                    n_sign.append(e.sign)
                    n_var.append(e.var)
                else:
                    a21[0].append(other_row_of_row[e.row])
                    a21[1].append(j)
                    a21[2].append(e.sign)
                    a21[3].append(e.var)
        else:
            q = other_col_of_col[c]
            for e in col:
                j2 = wit_row_of_row.get(e.row)
                if j2 is not None:
                    a12[0].append(j2)
                    a12[1].append(q)
                    a12[2].append(e.sign)
                    a12[3].append(e.var)
                else:
                    a22[0].append(other_row_of_row[e.row])
                    a22[1].append(q)
                    a22[2].append(e.sign)
                    a22[3].append(e.var)
    if any(s == 0 for s in diag_sign):
        return None

    st = _WitnessStructure()
    st.kappa = kappa
    st.n_other_rows = len(other_row_of_row)
    st.n_other_cols = len(other_col_of_col)
    st.diag_sign = np.array(diag_sign, dtype=np.int64)
    st.diag_var = np.array(diag_var, dtype=np.int64)
    order = np.argsort(np.array(n_cols, dtype=np.int64), kind="stable") if n_cols else []
    st.n_rows = np.array(n_rows, dtype=np.int64)[order] if n_cols else np.empty(0, dtype=np.int64)
    st.n_cols = np.array(n_cols, dtype=np.int64)[order] if n_cols else np.empty(0, dtype=np.int64)
    st.n_sign = np.array(n_sign, dtype=np.int64)[order] if n_cols else np.empty(0, dtype=np.int64)
    st.n_var = np.array(n_var, dtype=np.int64)[order] if n_cols else np.empty(0, dtype=np.int64)
    # contiguous ranges of equal generator block, ascending
    blocks = np.array(block, dtype=np.int64)
    bounds = [0] + list(np.nonzero(np.diff(blocks))[0] + 1) + [kappa]
    st.block_ranges = [(bounds[t], bounds[t + 1]) for t in range(len(bounds) - 1)]
    st.a12 = tuple(np.array(x, dtype=np.int64) for x in a12)
    st.a21 = tuple(np.array(x, dtype=np.int64) for x in a21)
    st.a22 = tuple(np.array(x, dtype=np.int64) for x in a22)
    return st


def _coo_times_dense(coo, point_arr, nrows, Z, p: int) -> np.ndarray:
    rows, cols, signs, variables = coo
    out = np.zeros((nrows, Z.shape[1]), dtype=np.int64)
    if len(rows):
        vals = (signs * point_arr[variables - 1]) % p
        np.add.at(out, rows, (vals[:, None] * Z[cols]) % p)
    return out % p


def _witness_rank(st: _WitnessStructure, point_arr, rng_np, p: int, probes: int = 4):
    """Exact rank via the witness Schur complement, or None if the random
    probes find the complement nonzero (caller falls back)."""
    diag = (st.diag_sign * point_arr[st.diag_var - 1]) % p
    if np.any(diag == 0):
        return None
    if st.n_other_cols == 0 or st.n_other_rows == 0:
        return st.kappa
    z = rng_np.integers(0, p, size=(st.n_other_cols, probes), dtype=np.int64)
    rhs = _coo_times_dense(st.a12, point_arr, st.kappa, z, p)
    n_vals = (st.n_sign * point_arr[st.n_var - 1]) % p
    # back-substitute W x = rhs: W = diag + strictly upper (later blocks)
    x = np.zeros_like(rhs)
    inv = np.array([pow(int(d), p - 2, p) for d in diag], dtype=np.int64)
    seg_starts = np.searchsorted(st.n_cols, [b for b, _ in st.block_ranges])
    seg_ends = np.searchsorted(st.n_cols, [e for _, e in st.block_ranges])
    for t in range(len(st.block_ranges) - 1, -1, -1):
        b, e = st.block_ranges[t]
        x[b:e] = (rhs[b:e] % p) * inv[b:e, None] % p
        lo, hi = seg_starts[t], seg_ends[t]
        if hi > lo:
            np.add.at(
                rhs,
                st.n_rows[lo:hi],
                -((n_vals[lo:hi, None] * x[st.n_cols[lo:hi]]) % p),
            )
    lhs = _coo_times_dense(st.a21, point_arr, st.n_other_rows, x, p)
    direct = _coo_times_dense(st.a22, point_arr, st.n_other_rows, z, p)
    if np.any((direct - lhs) % p):
        return None
    return st.kappa


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


def random_rank_check(
    rc: ResolutionComplex,
    seed: int = 0,
    trials: int = 5,
    modulus: int = DEFAULT_PRIME,
) -> RankReport:
    """Evaluate all differentials at random nonzero points mod the prime and
    test rank additivity at every position, `trials` times.

    d0 is a single row.  Every later differential goes through the witness
    Schur complement (see _WitnessStructure): the witness block is invertible
    by inspection of the evaluated entries, so the rank equals its dimension
    plus the rank of the Schur complement, which random probe vectors test
    for zero.  Where the structure does not apply or a probe finds the
    complement nonzero, the evaluated matrix is eliminated densely instead,
    so reported ranks are always the true evaluated ranks (up to the
    documented probe failure odds).
    """
    if trials < 1:
        raise ValueError(f"the rank check needs at least one trial, got {trials}")
    rng = random.Random(seed)
    n = rc.power.spec.ctx.n
    report = RankReport(modulus=modulus, seed=seed, betti=rc.betti)
    pd = rc.proj_dim
    witness = {i: _build_witness_structure(rc, i) for i in range(1, pd)}

    for trial in range(trials):
        point = tuple(rng.randrange(1, modulus) for _ in range(n))
        point_arr = np.array(point, dtype=np.int64)
        d0 = _evaluate_d0(rc, point, modulus)
        ranks = [1 if np.any(d0 % modulus) else 0]
        methods = ["dense"]
        for i in range(1, pd):
            st = witness[i]
            if st is not None:
                # numpy seeds must be non-negative; the points come from rng,
                # so folding the sign only lets two seeds share probe vectors
                rng_np = np.random.default_rng([abs(seed), trial, i, 0x5C0])
                r = _witness_rank(st, point_arr, rng_np, modulus)
                if r is not None:
                    ranks.append(r)
                    methods.append("witness")
                    continue
            mat = rc.matrices[i]
            dense = _evaluate_dense(_entry_arrays(mat), (mat.nrows, mat.ncols), point_arr, modulus)
            ranks.append(rank_mod(dense, modulus))
            methods.append("dense-fallback")
        ranks = tuple(ranks)
        report.trials.append(
            TrialResult(
                point=point,
                ranks=ranks,
                ok=rank_positions_ok(rc.betti, ranks),
                methods=tuple(methods),
            )
        )
    return report
