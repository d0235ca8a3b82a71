"""Independent checks that the assembled complex resolves S/I^k.

The Hilbert-series numerator N(t) (with Hilb = N/(1-t)^n) is computed from
the generators alone by the variable-pivot recursion, so comparing it with
the alternating sum of basis degrees exercises the resolution against a
pipeline that never saw the differentials.  The recursion carries each
ideal as int64 exponent rows, like G(I^k), and tests divisibility in each
colon by one first_divisors scan.  Its base case is an ideal whose lcm grid
fits _GRID_CELLS cells, counted cell by cell in numpy.  The randomized rank
check evaluates the differentials at random nonzero points mod a large prime
and tests rank additivity at every homological position; it is a necessary
condition for exactness, never a proof.  Most ranks need no elimination:
the linear quotients give every differential a witness block, triangular
with the diagonal +-x_{s*}, which bounds its rank from below at a point
with nonzero coordinates, and d∘d = 0 with Pascal's rule on the basis
bounds it from above by the same number.  Where the arrays have that shape
and compose_check passes, the rank is certified; dense elimination mod p,
per position and point, is the only fallback.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import resolution
from .errors import BudgetError
from .modp import DEFAULT_PRIME, rank_mod
from .monomials import by_degree_lex, first_divisors, minimal_rows
from .powers import ENTRY_BUDGET
from .resolution import DifferentialMatrix, ResolutionComplex

DEFAULT_HILBERT_BUDGET = 200_000


@dataclass(frozen=True)
class HilbertNumerator:
    """Integer polynomial as a degree -> coefficient map (zeros dropped)."""

    coeffs: tuple[tuple[int, int], ...]  # sorted (degree, coefficient) pairs

    @classmethod
    def from_dict(cls, d: dict[int, int]) -> "HilbertNumerator":
        return cls(tuple(sorted((k, v) for k, v in d.items() if v)))

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


# cells of the lcm grid, and of every array counted from it, up to which a
# node of the Hilbert recursion is counted by _staircase instead of split:
# the n=6, k=2 benchmark ideal (64,827 cells) is one node, and on the n=7
# and n=8 ladder rows smaller caps were slower and 2^18 slowed n=8
_GRID_CELLS = 1 << 16


def _staircase(cols: list) -> dict[int, int] | None:
    """N(t) for the ideal whose used columns, one exponent tuple per
    variable, are cols, by counting the monomials outside it in the lcm grid;
    None when an array it builds would pass _GRID_CELLS cells.

    Axis c cuts at 0 < v_1 < ... < v_last, 0 and the distinct exponents of
    column c.  Every generator exponent is a cut, so membership is constant
    on a cell: the generators' cells, closed upward along every axis.  A cell
    [v_j, v_{j+1}) outside the ideal adds prod_c (t^v_j - t^v_{j+1}) to N(t),
    t^v_last on an axis's last cell.  The axes are contracted from the first
    one into a leading polynomial axis of length 1 + the degree so far."""
    cuts, rest, length = [], 1, 1
    for c in cols:
        cuts.append(sorted({0, *c}))
        rest *= len(cuts[-1])
        if rest > _GRID_CELLS:
            return None
    for cut in cuts:  # summed in Python ints: two exponents near 2^62 would wrap int64
        rest, length = rest // len(cut), length + cut[-1]
        if rest * length > _GRID_CELLS:
            return None
    grid = np.zeros([len(cut) for cut in cuts], dtype=bool)
    grid[tuple(np.searchsorted(cut, c) for cut, c in zip(cuts, cols))] = True
    for axis in range(grid.ndim):
        view = np.moveaxis(grid, axis, 0)
        for j in range(1, len(view)):
            view[j] |= view[j - 1]
    poly = np.logical_not(grid, out=grid)[None]
    del grid, view
    for cut in cuts:
        width = len(poly)
        out = np.zeros((width + cut[-1],) + poly.shape[2:], dtype=np.int64)
        for j, (lo, hi) in enumerate(zip(cut, cut[1:] + [None])):
            out[lo:lo + width] += poly[:, j]
            if hi is not None:
                out[hi:hi + width] -= poly[:, j]
        poly = out
    return {d: c for d, c in enumerate(poly.tolist()) if c}


def hilbert_numerator(rows: np.ndarray) -> HilbertNumerator:
    """N(t) for S/(rows), the ideal of the int64 exponent rows, by splitting
    on a pivot variable x:

        N(J) = N(J + (x)) + t * N(J : x)

    with closed forms for the empty set and for pure-power generators, and
    _staircase for an ideal whose lcm grid, and every array counted from it,
    fits _GRID_CELLS cells.  J is carried as its minimal generators, int64
    exponent rows sorted by (degree, lex); x is the variable occurring in the
    most generators that are not pure powers, the first one on ties.
    Subproblems are pooled by a canonical key, the shape and bytes of J with
    unused variables dropped, then columns and rows sorted, since the
    numerator is unchanged by permuting variables.  Every call is a node
    counted against DEFAULT_HILBERT_BUDGET, read when the recursion starts,
    whether it splits or ends in a closed form, a memo hit or the grid: an
    ideal that fits the grid is one node.
    """
    memo: dict = {}
    nodes, budget = 0, DEFAULT_HILBERT_BUDGET

    def rec(J: np.ndarray) -> dict[int, int]:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetError(f"hilbert recursion exceeded {budget} nodes")
        if not len(J):
            return {0: 1}
        if not J[0].any():  # the unit monomial sorts first
            return {}
        nonzero = J != 0
        mixed = nonzero[nonzero.sum(axis=1) >= 2]
        if not len(mixed):
            out = {0: 1}
            for d in J.sum(axis=1).tolist():
                out = _pmul(out, {0: 1, d: -1})
            return out
        used = J[:, nonzero.any(axis=0)]
        cols = used.T.tolist()
        # the column sort reads columns in row order: canonical only because
        # the rows are in (degree, lex) order; sorted in Python, as a lexsort
        # over the rows as keys took 24 ms at the n=8 root
        key = used[:, sorted(range(len(cols)), key=cols.__getitem__)]
        key = key[np.lexsort(key.T[::-1])]
        key = key.shape, key.tobytes()
        hit = memo.get(key)
        if hit is not None:
            return hit
        out = _staircase(cols)
        del used, cols  # not held by the frames of the split
        if out is None:
            x = int(mixed.sum(axis=0).argmax())
            # J + (x): the rows free of x stay minimal and x divides none of them
            free = J[J[:, x] == 0]
            n_plus = rec(by_degree_lex(np.vstack([free, units[x:x + 1]])))
            # J : x: the other rows divided by x do not divide each other, and
            # no free row divides one of them, as J is minimal; so a free row is
            # dropped exactly when one of them divides it, which only one free
            # of x can, and one first_divisors scan decides that
            lowered = J[J[:, x] != 0] - units[x]
            divisors = lowered[lowered[:, x] == 0]
            kept = free[first_divisors(divisors, free) == len(divisors)]
            n_colon = rec(by_degree_lex(np.vstack([lowered, kept])))
            out = dict(n_plus)
            for deg, coef in n_colon.items():
                out[deg + 1] = out.get(deg + 1, 0) + coef
            out = {k: v for k, v in out.items() if v}
        memo[key] = out
        return out

    units = np.eye(rows.shape[1], dtype=np.int64)
    return HilbertNumerator.from_dict(rec(minimal_rows(rows)))


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
    spurious failure, never a spurious pass.  A rank tagged "witness" is
    certified equal to kappa_i, the size of d_i's witness block; "dense" and
    "dense-fallback" ranks come from elimination at the point.  composed[i]
    is the verdict on d_i ∘ d_{i+1} = 0, which the certificate rests on,
    and minimal that of minimality_check on every differential.
    """

    trials: list[TrialResult] = field(default_factory=list)
    composed: list[bool] = field(default_factory=list)
    minimal: bool = True

    @property
    def passed(self) -> bool:
        return all(t.ok for t in self.trials)


def _evaluate_dense(mat: DifferentialMatrix, point_arr, p: int) -> np.ndarray:
    """d_i at a point as a dense int64 matrix mod p, its nrows x ncols cells
    counted against ENTRY_BUDGET before it is built (rank_mod copies it)."""
    if (cells := mat.nrows * mat.ncols) > ENTRY_BUDGET:
        raise BudgetError(f"the dense fallback on a {mat.nrows} x {mat.ncols} differential has "
                          f"{cells} cells, over the budget {ENTRY_BUDGET}")
    M = np.zeros((mat.nrows, mat.ncols), dtype=np.int64)
    M[mat.rows, mat.cols] = (mat.signs.astype(np.int64) * point_arr[mat.vars.astype(np.int64) - 1]) % p
    return M


def _witness_shape(mat: DifferentialMatrix, i: int, rc: ResolutionComplex) -> tuple[int, bool]:
    """kappa_i, the number of witness columns of d_i (mat, from F_{i+1} to
    F_i), and whether d_i has the witness shape, from one pass over its
    arrays; rc's layout gives the blocks and s*, padded's first column.

    A witness column is f(sigma; w) with s* = min(set(w)) in sigma, and its
    own row is f(sigma \\ s*; w); W is d_i on these rows and columns.  In
    combinations order the witness columns of w are the first C(m-1, i-1)
    of its block, m = |set(w)|, and the q-th has its own row C(m-1, i-2) + q
    of w's block of F_i.  d_i is shaped when every witness column has
    exactly one entry on its own row, +-x_{s*}, and every other entry of W
    lies in a row of a strictly earlier generator.  Ordered by generator, W
    is then block triangular with diagonal blocks that are diagonal, so
    det W = prod +-x_{s*}, nonzero at every point with nonzero coordinates."""
    sizes, binom, rows_at, cols_at = rc.sizes, rc.binom, rc.starts[:, i - 1], rc.starts[:, i]
    gen = np.repeat(np.arange(len(sizes)), binom[sizes, i])  # of each column; an empty set has none
    q = np.arange(mat.ncols) - cols_at[gen]
    is_wit = q < binom[sizes[gen] - 1, i - 1]
    wit = np.flatnonzero(is_wit)
    owner = np.full(mat.nrows, -1, dtype=np.int64)  # the witness column whose own row each row is
    owner[rows_at[gen[wit]] + q[wit] + (binom[sizes[gen[wit]] - 1, i - 2] if i > 1 else 0)] = wit
    at = owner[mat.rows]
    diag = at == mat.cols
    rest = is_wit[mat.cols] & (at >= 0) & ~diag
    shaped = (
        (np.bincount(mat.cols[diag], minlength=mat.ncols)[wit] == 1).all()
        and (np.abs(mat.signs[diag].astype(np.int64)) == 1).all()
        and (mat.vars[diag] == rc.padded[gen[mat.cols[diag]], 0]).all()
        and (mat.rows[rest] < rows_at[gen[mat.cols[rest]]]).all()
    )
    return len(wit), bool(shaped)


def rank_positions_ok(betti, ranks) -> bool:
    """rank d_{i-1} + rank d_i = beta_i at inner positions, with rank d_0 = 1
    and the last differential's rank equal to the last Betti number."""
    pd = len(betti) - 1
    inner = all(ranks[i - 1] + ranks[i] == betti[i] for i in range(1, pd))
    return ranks[0] == 1 and inner and ranks[pd - 1] == betti[pd]


def random_rank_check(rc: ResolutionComplex, seed: int, trials: int, differentials) -> RankReport:
    """Evaluate all differentials at random nonzero points mod DEFAULT_PRIME
    and test rank additivity at every position, `trials` times.

    d0 is the row of generators, each nonzero at a point with nonzero
    coordinates, so its rank there is kappa_0 = 1 (tagged "dense").  At such
    a point p, a shaped d_i (see _witness_shape) has rank >= kappa_i, as its
    witness block is invertible, and d_{i-1} d_i = 0 bounds it by
    beta_i - rank d_{i-1}(p) <= beta_i - kappa_{i-1}.  So where d_i and
    d_{i-1} are shaped, d_{i-1} ∘ d_i = 0 and kappa_{i-1} + kappa_i = beta_i
    (Pascal's rule on the basis), rank d_i(p) = kappa_i is proved.  Every
    other position is eliminated densely at each point, so reported ranks
    are the exact evaluated ranks.

    The differentials are read once, in order, from `differentials`, pairs
    (i, d_i) as stream_resolution yields them.  Step i holds d_{i-1} and
    d_i: it checks d_{i-1} ∘ d_i = 0 (compose_check_d0 on the generator
    rows for i = 1, compose_check after, both through the resolution
    module), takes d_i's shape and ranks, and runs minimality_check on d_i.
    Every verdict is kept on the report.  The points, trials x n cells, are
    counted against ENTRY_BUDGET before any is drawn, and so is each dense
    fallback's matrix before it is built.
    """
    if trials < 1:
        raise ValueError(f"the rank check needs at least one trial, got {trials}")
    p, rng, gens, n = DEFAULT_PRIME, random.Random(seed), rc.power.exponent_matrix, rc.power.spec.ctx.n
    if trials * n > ENTRY_BUDGET:
        raise BudgetError(f"{trials} points of {n} coordinates are {trials * n} cells, over the budget {ENTRY_BUDGET}")
    points = [tuple(rng.randrange(1, p) for _ in range(n)) for _ in range(trials)]
    # d0 is minimal when its entries, the generators, have positive degree
    report = RankReport(minimal=bool((gens.sum(axis=1) >= 1).all()))
    ranks, methods = [[1] for _ in points], [["dense"] for _ in points]
    prev, kappa, shaped = None, 1, True  # d_{i-1}, its kappa and shape
    for i, mat in differentials:
        composed = resolution.compose_check_d0(gens, mat) if prev is None else resolution.compose_check(prev, mat)
        report.composed.append(composed)
        kappa_i, shaped_i = _witness_shape(mat, i, rc)
        witness = shaped and shaped_i and composed and kappa + kappa_i == mat.nrows
        for point, r, m in zip(points, ranks, methods):
            r.append(kappa_i if witness else rank_mod(_evaluate_dense(mat, np.array(point, dtype=np.int64), p)))
            m.append("witness" if witness else "dense-fallback")
        report.minimal = resolution.minimality_check(mat, n) and report.minimal
        prev, kappa, shaped = mat, kappa_i, shaped_i
    # d_{pd-1} ∘ d_pd = 0 holds vacuously: F_{pd+1} = 0, so there is no d_pd
    report.composed.append(True)
    for point, r, m in zip(points, ranks, methods):
        report.trials.append(TrialResult(point, tuple(r), rank_positions_ok(rc.betti, r), tuple(m)))
    return report
