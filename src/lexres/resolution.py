"""The minimal graded free resolution of S/I^k from linear quotients.

Basis symbols f(sigma; w) with sigma a subset of set(w) span F_{|sigma|+1};
the differential sends f(sigma; w) to

    sum_s (-1)^pos(s) * (x_s w / g(x_s w)) * f(sigma\\s; g(x_s w))
  - sum_s (-1)^pos(s) * x_s * f(sigma\\s; w)

with pos(s) the position of s in sigma, counted from 0, f(tau; z) read as 0
whenever tau is not contained in set(z), and f(empty; w) mapping to the
generator w itself.  Since g's coefficient is a single variable, every
matrix entry above the generator row is +-x_j.

Matrix convention: columns are indexed by the domain basis F_{i+1}, rows by
the codomain F_i; the basis is ordered by generator position first, then by
sigma compared as sorted tuples.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .decomposition import oracle_table, regularity_check_oracle
from .errors import BudgetError, CheckFailure
from .powers import ENTRY_BUDGET
from .quotients import QuotientStructure


class DifferentialMatrix:
    """A differential whose nonzero entries are all +-(one variable).

    Entry p is signs[p] * x_{vars[p]} at (rows[p], cols[p]), vars 1-based.
    The arrays are column-major: cols is non-decreasing, and within a
    column the entries keep the order the assembly made them in.  They take
    11 bytes an entry: rows and cols are int32, as ENTRY_BUDGET keeps every
    index below 2^31; signs are int8; vars are int16, as the neighbour-table
    budget |G| n^2 <= ENTRY_BUDGET keeps n below 2,829 for every assembled
    complex.  A value outside its type is refused with ValueError, never
    wrapped, and arithmetic that can leave a type upcasts to int64 first.
    """

    DTYPES = (np.int32, np.int32, np.int8, np.int16)

    def __init__(self, nrows: int, ncols: int, rows, cols, signs, vars):
        self.nrows = nrows
        self.ncols = ncols
        self.rows, self.cols, self.signs, self.vars = (
            _fitted(a, dtype, name)
            for a, dtype, name in zip((rows, cols, signs, vars), self.DTYPES, ("row", "column", "sign", "var"))
        )

    @property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.rows, self.cols, self.signs, self.vars

    def entry_count(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, DifferentialMatrix)
            and (self.nrows, self.ncols) == (other.nrows, other.ncols)
            and all(np.array_equal(a, b) for a, b in zip(self.arrays, other.arrays))
        )


def _fitted(values, dtype, name: str) -> np.ndarray:
    """values as an array of dtype, or ValueError when one does not fit."""
    a = np.asarray(values)
    if a.dtype == dtype:
        return a
    info = np.iinfo(dtype)
    if a.size and not (info.min <= a.min() and a.max() <= info.max):
        raise ValueError(f"a {name} outside {info.min}..{info.max} does not fit the stored {info.dtype}")
    return a.astype(dtype)


class ResolutionComplex:
    """The resolution's modules: the quotient structure and the layout of
    its bases, computed once from member.

    F_i (i >= 1; F_0 = S) has the basis f(sigma; w), sigma an (i-1)-subset
    of set(w), in matrix order: w's block of F_{r+1} holds C(m, r) symbols,
    m = sizes[w] = |set(w)|, from row starts[w, r]; binom holds C(a, b) for
    a, b <= m_max, the widest set, and padded the 1-based variables of each
    set(w), 0 past m.  I^k is generated in the one degree kd, so F_i is
    S(-(kd+i-1))^beta_i, beta_i the column sum of C(m, i-1) in Python ints.
    A complex of more than ENTRY_BUDGET entries, sum_i 2 i beta_{i+1}, is
    refused (BudgetError) before the int64 layout is built; under it every
    entry of binom and starts, at most a Betti number, is below 2^31.  The
    differentials come beside it as (i, d_i) pairs, d_i: F_{i+1} -> F_i;
    d0 is power.exponent_matrix.
    """

    def __init__(self, quotients):
        self.quotients, member = quotients, quotients.member
        self.sizes = member.sum(axis=1)
        top = int(self.sizes.max(initial=0))
        binom = np.array([[math.comb(a, b) for b in range(top + 1)] for a in range(top + 1)], dtype=object)
        self.betti = (1, *(np.bincount(self.sizes, minlength=top + 1) @ binom).tolist())  # exact past int64
        bound = sum(2 * i * b for i, b in enumerate(self.betti[2:], start=1))
        if bound > ENTRY_BUDGET:
            raise BudgetError(f"the complex may have {bound} entries, over the budget {ENTRY_BUDGET}")
        self.binom = binom.astype(np.int64)
        counts = self.binom[self.sizes]
        self.starts = np.cumsum(counts, axis=0) - counts
        self.padded = np.zeros((len(self.sizes), top), dtype=np.int64)
        self.padded[np.arange(top) < self.sizes[:, None]] = np.nonzero(member)[1] + 1

    @property
    def power(self):
        return self.quotients.power

    @property
    def shifts(self) -> tuple[tuple[int, int], ...]:
        kd = int(self.power.exponent_matrix[0].sum())
        return ((0, 1), *((-(kd + i - 1), b) for i, b in enumerate(self.betti[1:], start=1)))

    def symbols(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """F_i's symbols f(sigma; w) in matrix order as int64 arrays: gen, the
        position of w, and sigma, one sorted row of width i-1 per symbol, one
        gather from padded: the (i-1)-subsets of positions, in combinations
        order, kept where they stay below |set(w)|."""
        picks = np.array(list(itertools.combinations(range(self.padded.shape[1]), i - 1)), dtype=np.int64)
        gen, which = np.nonzero(picks.max(axis=1, initial=-1) < self.sizes[:, None])
        return gen, self.padded[gen[:, None], picks[which]]

    def row_finder(self):
        """The row of f(tau; w) in F_i, -1 where tau is not in set(w), as a
        function of the generator positions gen and of tau, one sorted row
        of i-1 variables per query: w's block start plus the rank, in
        combinations order, of tau's positions c_0 < ... < c_{r-1} in set(w),
        C(m, r) - 1 - sum_j C(m-1-c_j, r-j) with r = i-1 and m = |set(w)|.
        So it is the last row of w's block less one term per element of tau,
        an element off set(w) reading more than any row; it holds
        |G| n (m_max + 1) terms, int32 as binom's entries fit."""
        member, width = self.quotients.member, len(self.binom)
        last = self.starts + self.binom[self.sizes] - 1  # [w, r], the last row of w's block of F_{r+1}
        place = np.cumsum(member, axis=1) - 1  # x_s's position in set(w); sizes - 1 - place is in 0..m
        terms = self.binom.astype(np.int32)[self.sizes[:, None] - 1 - place]  # [w, s-1, k], C(m-1-c, k)
        terms[~member] = last.max(initial=0) + 1
        terms = terms.ravel()

        def find(gen: np.ndarray, tau: np.ndarray) -> np.ndarray:
            r = tau.shape[1]
            row, at = last[gen, r], (gen * member.shape[1] - 1) * width + r
            for j, column in enumerate(tau.T):
                row -= terms[at + column * width - j]
            return np.maximum(row, -1)

        return find

    def __eq__(self, other):
        return (
            isinstance(other, ResolutionComplex)
            and np.array_equal(self.power.exponent_matrix, other.power.exponent_matrix)
            and np.array_equal(self.quotients.member, other.quotients.member)
        )


def stream_resolution(qs: QuotientStructure):
    """The resolution of S/I^k one differential at a time: the complex and a
    generator of (i, d_i) for i = 1, 2, ... in order.  The generator keeps
    no differential once it has yielded it, so a reader that drops d_i
    before asking for d_{i+1} holds one at a time; one that wants them all
    at once takes dict(differentials).

    g is the definitional one, read from its cached table as it stands; the
    mapping cone needs it regular, which is checked here (CheckFailure if
    not), as are linear quotients, after the complex's entry budget.
    """
    if not qs.is_linear:
        raise CheckFailure("cannot resolve: linear quotients fail")
    rc = ResolutionComplex(quotients=qs)
    report = regularity_check_oracle(qs)
    if not report.regular:
        raise CheckFailure(f"cannot resolve: decomposition function {report.describe()}")
    g_of, coeff_of = oracle_table(qs)
    find = rc.row_finder()
    return rc, ((i, _differential(i, rc, find, g_of, coeff_of)) for i in range(1, len(rc.betti) - 1))


def _differential(i: int, rc: ResolutionComplex, find, g_of, coeff_of) -> DifferentialMatrix:
    """d_i, from F_{i+1} to F_i (rows found by find).  Column f(sigma; w)
    gets, for each s in sigma (pos its position), the g-term (when tau =
    sigma minus s lies in set(g)) and then the Koszul term."""
    gen, sigma = rc.symbols(i + 1)
    shape = (len(gen), i, 2)
    at = np.empty(shape, dtype=np.int32)
    keep = np.empty(shape, dtype=bool)
    signs = np.empty(shape, dtype=np.int8)
    variables = np.empty(shape, dtype=np.int16)
    for pos in range(i):
        s, tau = sigma[:, pos], np.delete(sigma, pos, axis=1)
        for half, w in enumerate((g_of[gen, s - 1], gen)):
            found = find(w, tau)  # -1 where tau is not in set(w), which only a g-term meets
            at[:, pos, half], keep[:, pos, half] = found, found >= 0
        signs[:, pos] = (-1, 1) if pos % 2 else (1, -1)
        variables[:, pos, 0], variables[:, pos, 1] = coeff_of[gen, s - 1], s
    del gen, sigma, s, tau, w, found  # the symbols and the last queries go before the entries are copied
    keep = keep.ravel()
    col_of = np.repeat(np.arange(shape[0], dtype=np.int32), 2 * i)
    return DifferentialMatrix(rc.betti[i], shape[0], *(a.ravel()[keep] for a in (at, col_of, signs, variables)))


def _cancels(keys: np.ndarray, values: np.ndarray) -> bool:
    """Whether the values sum to zero, in int64, over every group of equal keys."""
    if not len(values):
        return True
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
    return not np.add.reduceat(values.astype(np.int64)[order], starts).any()


# the most products of d_{i+1} and d_i entries that compose_check cancels in one block
_COMPOSE_PAIRS = 1 << 16


def compose_check_d0(gens: np.ndarray, d1: DifferentialMatrix) -> bool:
    """Symbolically verify d0 ∘ d1 = 0, d0 the row of generators given by
    their int64 exponent rows: every entry of d1 is the monomial
    x_var * gens[row] in its column, and the signs must sum to zero over
    each (column, monomial)."""
    # the column, then the monomial x_var * d0[row]; a var outside 1..n
    # (minimality fails) adds nothing
    var = d1.vars.astype(np.int64)
    terms = np.column_stack([d1.cols.astype(np.int64), gens[d1.rows]])
    valid = np.flatnonzero((var >= 1) & (var <= gens.shape[1]))
    terms[valid, var[valid]] += 1
    # each row is one raw-byte key, which no packed integer can overflow
    keys = terms.view(np.dtype((np.void, terms.itemsize * terms.shape[1]))).ravel()
    return _cancels(keys, d1.signs)


def compose_check(lower: DifferentialMatrix, upper: DifferentialMatrix) -> bool:
    """Symbolically verify d_i ∘ d_{i+1} = 0: lower is d_i, upper d_{i+1}.

    Every product of a d_{i+1} entry with an entry of the d_i column it
    lands on is keyed by its cell and its two variables, and the signs must
    sum to zero over each key.  The key holds the d_{i+1} column, so d_{i+1}
    is read in blocks of whole columns, each cancelled on its own: at most
    _COMPOSE_PAIRS // widest entries, widest being d_i's widest column, so
    at most _COMPOSE_PAIRS products (a bigger column is a block alone).  The
    cap bounds all the memory but d_i's column starts and widths."""
    # a product x_a x_b at (column, row) is keyed by the column, the row, a + b
    # and a^2 + b^2, which fix {a, b}: the key is one term of the d_{i+1}
    # entry plus one of the d_i entry, with a and b counted from lo <= every var
    lo = min(int(upper.vars.min(initial=0)), int(lower.vars.min(initial=0)))
    span = max(int(upper.vars.max(initial=0)), int(lower.vars.max(initial=0))) - lo + 1
    sq = 2 * span * span  # bounds a^2 + b^2
    per_cell = 2 * span * sq  # bounds (a + b) sq + a^2 + b^2

    def term(cells, variables):
        a = variables.astype(np.int64) - lo
        return cells.astype(np.int64) * per_cell + a * sq + a * a

    # column j of d_i is its entries starts[j]:starts[j] + widths[j]
    starts = np.searchsorted(lower.cols, np.arange(lower.ncols, dtype=lower.cols.dtype))  # no int64 copy of cols
    widths = np.diff(starts, append=lower.entry_count())
    step = max(_COMPOSE_PAIRS // int(widths.max(initial=1)), 1)
    cols, start = upper.cols, 0
    while start < len(cols):
        # the columns that end within step entries of start, or the column at start alone
        stop = len(cols) if start + step >= len(cols) else int(np.searchsorted(cols, cols[start + step]))
        part = slice(start, stop if stop > start else int(np.searchsorted(cols, cols[start], side="right")))
        counts = widths[upper.rows[part]]
        inner = np.repeat(starts[upper.rows[part]] - np.cumsum(counts) + counts, counts)
        inner += np.arange(len(inner))  # each entry of d_{i+1} meets its row's column of d_i
        keys = np.repeat(term(cols[part] * np.int64(lower.nrows), upper.vars[part]), counts)
        keys += term(lower.rows[inner], lower.vars[inner])
        signs = np.repeat(upper.signs[part].astype(np.int64), counts)
        signs *= lower.signs[inner]
        del inner
        if not _cancels(keys, signs):
            return False
        start = part.stop
    return True


def minimality_check(mat: DifferentialMatrix, n: int) -> bool:
    """Every entry of d_i must be +-(a single variable of x1..xn)."""
    return bool(
        (np.abs(mat.signs.astype(np.int64)) == 1).all()
        and mat.vars.min(initial=1) >= 1 and mat.vars.max(initial=n) <= n
    )
