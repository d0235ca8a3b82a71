"""Exponent-vector monomials over a fixed ring, and the lex order on them.

Everything downstream works with monomials of one ambient ring x_1..x_n,
compared in plain lex.  Variable indices are 1-based in every public
signature; the exponent tuple itself is 0-based.  Divisibility questions
over many monomials at once (earliest divisor, minimal generators) take
int64 exponent rows, one monomial per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# (rows of X) x (rows of G) x columns cells per chunk of the divisibility
# scan, so that its boolean temporary stays near 1 MB
_SCAN_CHUNK_CELLS = 1 << 20


@dataclass(frozen=True)
class RingContext:
    """The ambient polynomial ring; only the variable count matters here."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 variables, got n={self.n}")


class Monomial:
    """An immutable monomial given by its dense exponent vector.

    The degree is computed once at construction and never recomputed.
    """

    __slots__ = ("ctx", "exponents", "degree")

    def __init__(self, ctx: RingContext, exponents):
        exps = tuple(int(e) for e in exponents)
        if len(exps) != ctx.n:
            raise ValueError(f"expected {ctx.n} exponents, got {len(exps)}")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        self.ctx = ctx
        self.exponents = exps
        self.degree = sum(exps)

    # -- basic queries ----------------------------------------------------

    def exponent(self, i: int) -> int:
        """nu_i: the exponent of x_i (1-based)."""
        return self.exponents[i - 1]

    def is_one(self) -> bool:
        return self.degree == 0

    def min_index(self) -> int:
        """min(supp(m)); undefined for the monomial 1."""
        for i, e in enumerate(self.exponents):
            if e:
                return i + 1
        raise ValueError("min_index of the monomial 1 is undefined")

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "Monomial") -> "Monomial":
        _same_ctx(self, other)
        return Monomial(self.ctx, tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __pow__(self, k: int) -> "Monomial":
        if k < 0:
            raise ValueError("negative power")
        return Monomial(self.ctx, tuple(e * k for e in self.exponents))

    def try_divide(self, other: "Monomial"):
        """self / other, or None when some exponent would go negative."""
        _same_ctx(self, other)
        diff = tuple(a - b for a, b in zip(self.exponents, other.exponents))
        if any(e < 0 for e in diff):
            return None
        return Monomial(self.ctx, diff)

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Monomial)
            and self.ctx.n == other.ctx.n
            and self.exponents == other.exponents
        )

    def __hash__(self):
        return hash((self.ctx.n, self.exponents))

    def __str__(self):
        if self.degree == 0:
            return "1"
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        return "".join(parts)

    def __repr__(self):
        return f"Monomial({self})"


def one(ctx: RingContext) -> Monomial:
    return Monomial(ctx, (0,) * ctx.n)


def variable(ctx: RingContext, i: int) -> Monomial:
    if not 1 <= i <= ctx.n:
        raise ValueError(f"variable index {i} out of range 1..{ctx.n}")
    return Monomial(ctx, tuple(1 if j == i - 1 else 0 for j in range(ctx.n)))


def _same_ctx(a: Monomial, b: Monomial):
    if a.ctx.n != b.ctx.n:
        raise ValueError(f"ring context mismatch: n={a.ctx.n} vs n={b.ctx.n}")


# -- divisibility on exponent rows -------------------------------------------


def first_divisors(G: np.ndarray, X: np.ndarray) -> np.ndarray:
    """For each row of X, the position of the first row of G that divides it
    (no exponent larger), or len(G) when none does."""
    out = np.full(len(X), len(G), dtype=np.int64)
    if len(G) == 0:
        return out
    GT = np.ascontiguousarray(G.T)  # (columns, rows): each comparison runs along rows of G
    step = max(1, _SCAN_CHUNK_CELLS // max(1, GT.size))
    for start in range(0, len(X), step):
        hits = (GT <= X[start : start + step, :, None]).all(axis=1)
        first = hits.argmax(axis=1)
        out[start : start + step] = np.where(hits[np.arange(len(hits)), first], first, len(G))
    return out


def by_degree_lex(X: np.ndarray) -> np.ndarray:
    """The rows of X sorted by degree, then lex."""
    return X[np.lexsort(np.vstack([X.T[::-1], X.sum(axis=1)]))]


def minimal_rows(X: np.ndarray) -> np.ndarray:
    """The minimal generators of the monomial ideal spanned by the rows of X,
    sorted by (degree, lex).  Repeated rows are adjacent after the sort and
    keep one copy; a distinct row can only be divided by a row of strictly
    lower degree, so each degree is scanned against the rows below it."""
    X = by_degree_lex(X)
    degs = X.sum(axis=1)
    keep = np.ones(len(X), dtype=bool)
    keep[1:] = (X[1:] != X[:-1]).any(axis=1)
    starts = (np.flatnonzero(degs[1:] != degs[:-1]) + 1).tolist()
    for lo, hi in zip(starts, starts[1:] + [len(X)]):
        keep[lo:hi] &= first_divisors(X[:lo], X[lo:hi]) == lo
    return X[keep]


# -- the lex order ------------------------------------------------------------


def cmp_lex(a: Monomial, b: Monomial) -> int:
    """x_1 > ... > x_n lex: decided at the first differing exponent."""
    _same_ctx(a, b)
    for ea, eb in zip(a.exponents, b.exponents):
        if ea != eb:
            return 1 if ea > eb else -1
    return 0


def lex_key(m: Monomial):
    """Sort key: sorting by this ascending is lex-ascending."""
    return m.exponents
