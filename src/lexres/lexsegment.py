"""Lexsegment sets, shadows, the completely-lexsegment probe, and the
classifier for the linear-resolution shape u = x1*x_{l+1}^a_{l+1}...x_n^a_n,
v = x_l*x_n^(d-1)."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import BudgetError, InvariantError
from .monomials import (
    Monomial,
    RingContext,
    cmp_lex,
    lex_key,
    one,
)

# products of k members of L(u, v) in powers.py, and the monomials of one
# segment or shadow walked here
DEFAULT_PRODUCT_BUDGET = 10**6
# exponents of one segment walked here, members * n, each about 8 bytes held
DEFAULT_CELL_BUDGET = 10**8


def lex_successor(m: Monomial):
    """The next smaller monomial of the same degree in lex order, or None.

    Decrement the rightmost positive exponent left of x_n and dump the tail
    degree onto the following variable; that is the immediate lex successor.
    """
    e = list(m.exponents)
    n = m.ctx.n
    for j in range(n - 2, -1, -1):
        if e[j] > 0:
            tail = sum(e[j + 1 :]) + 1
            e[j] -= 1
            for t in range(j + 1, n):
                e[t] = 0
            e[j + 1] = tail
            return Monomial(m.ctx, e)
    return None


def enumerate_lexsegment(u: Monomial, v: Monomial) -> list[Monomial]:
    """All degree-d monomials w with u >=_lex w >=_lex v, lex-descending.

    The interval is closed at both ends; u and v are members.  The segment
    is counted by segment_size and refused (BudgetError) there or when its
    members hold more than DEFAULT_CELL_BUDGET exponents, before it is walked.
    """
    if u.degree != v.degree:
        raise ValueError(f"degree mismatch: {u.degree} vs {v.degree}")
    if cmp_lex(u, v) < 0:
        raise ValueError(f"{u} <_lex {v}: empty segment")
    size = segment_size(u, v)
    if (cells := size * u.ctx.n) > DEFAULT_CELL_BUDGET:
        raise BudgetError(f"L({u}, {v}) has {size} monomials of {u.ctx.n} exponents, {cells} cells, "
                          f"over the budget {DEFAULT_CELL_BUDGET}")
    out = [u]
    w = u
    while cmp_lex(w, v) > 0:
        w = lex_successor(w)
        if w is None:
            raise InvariantError("lex walk fell off the end before reaching v")
        out.append(w)
    return out


def segment_size(u: Monomial, v: Monomial) -> int:
    """|L(u, v)| from two lex ranks, refused (BudgetError) past DEFAULT_PRODUCT_BUDGET."""
    if (size := lex_rank(v) - lex_rank(u) + 1) > DEFAULT_PRODUCT_BUDGET:
        raise BudgetError(f"L({u}, {v}) has {size} monomials, over the budget {DEFAULT_PRODUCT_BUDGET}")
    return size


def lex_rank(m: Monomial) -> int:
    """How many monomials of m's degree are lex-greater than m.  One that
    first differs from m at x_i has exponent m_i + 1 + t there, t >= 0, and
    the degree left, r - t with r = deg(m on x_i..x_n) - m_i - 1, spreads
    over x_{i+1}..x_n: summed over t, C(r + n - i, n - i) monomials."""
    n, rank, rest = m.ctx.n, 0, m.degree
    for i, a in enumerate(m.exponents[:-1], start=1):
        rank += math.comb(rest - a - 1 + n - i, n - i)
        rest -= a
    return rank


def all_degree_monomials(ctx: RingContext, d: int) -> list[Monomial]:
    """Every degree-d monomial, lex-descending (the full segment)."""
    if d == 0:
        return [one(ctx)]
    top = Monomial(ctx, (d,) + (0,) * (ctx.n - 1))
    bottom = Monomial(ctx, (0,) * (ctx.n - 1) + (d,))
    return enumerate_lexsegment(top, bottom)


def shadow(monomials) -> set[Monomial]:
    """All products x_i * w for w in the given set, deduplicated."""
    out: set[Monomial] = set()
    for w in monomials:
        e = w.exponents
        for i in range(w.ctx.n):
            out.add(Monomial(w.ctx, e[:i] + (e[i] + 1,) + e[i + 1 :]))
    return out


def lex_max(monomials) -> Monomial:
    return max(monomials, key=lex_key)


def lex_min(monomials) -> Monomial:
    return min(monomials, key=lex_key)


@dataclass(frozen=True)
class LexSegmentSpec:
    """A lexsegment L(u, v) with its ring, degree and (optional) split index.

    l is populated only when classify_linear_form recognized the shape.
    """

    ctx: RingContext
    d: int
    u: Monomial
    v: Monomial
    l: int | None = None

    def __post_init__(self):
        if self.u.degree != self.d or self.v.degree != self.d:
            raise ValueError("u, v must both have degree d")
        if cmp_lex(self.u, self.v) < 0:
            raise ValueError(f"{self.u} <_lex {self.v}")


@dataclass(frozen=True)
class TransformRecord:
    """What normalize_spec did: the power of x1 divided out, and whether the
    common-power case (ring effectively drops x1) applied."""

    original_u: Monomial
    original_v: Monomial
    shift: int
    ring_drop: bool


def normalize_spec(u: Monomial, v: Monomial) -> tuple[LexSegmentSpec, TransformRecord]:
    """Reduce to the standing assumption x1 | u, x1 ∤ v.

    If x1 divides both, the common power is divided out; when the x1
    exponents agree the problem drops to a lexsegment of lower degree that
    lives in the variables x2..xn (flagged ring_drop).
    """
    if u.degree != v.degree:
        raise ValueError("degree mismatch")
    if cmp_lex(u, v) < 0:
        raise ValueError(f"{u} <_lex {v}")
    a1 = u.exponent(1)
    b1 = v.exponent(1)
    if a1 == 0:
        raise ValueError("normalize_spec requires x1 | u")
    if b1 == 0:
        spec = LexSegmentSpec(ctx=u.ctx, d=u.degree, u=u, v=v)
        return spec, TransformRecord(u, v, shift=0, ring_drop=False)
    x1_pow = Monomial(u.ctx, (b1,) + (0,) * (u.ctx.n - 1))
    nu = u.try_divide(x1_pow)
    nv = v.try_divide(x1_pow)
    spec = LexSegmentSpec(ctx=u.ctx, d=u.degree - b1, u=nu, v=nv)
    return spec, TransformRecord(u, v, shift=b1, ring_drop=(a1 == b1))


@dataclass(frozen=True)
class CompletelyLexVerdict:
    """Outcome of the iterated-shadow probe.

    status is "no" with a failing depth and witness, "unknown" when every
    checked shadow was a lexsegment set (we never claim more than was
    enumerated), or "yes" under the opt-in first-shadow-persistence rule.
    """

    status: str
    depth_checked: int
    failing_depth: int | None = None
    witness: Monomial | None = None

    def describe(self) -> str:
        if self.status == "no":
            return (
                f"no: Shad^{self.failing_depth} is not a lexsegment set; "
                f"witness {self.witness} lies in the lex interval but not in the shadow"
            )
        if self.status == "yes":
            return f"yes (first-shadow persistence enabled; checked to depth {self.depth_checked})"
        return f"unknown-at-depth {self.depth_checked}: every checked shadow is a lexsegment set"


def is_completely_lexsegment(
    spec: LexSegmentSpec, depth: int | None, first_shadow_persistence: bool
) -> CompletelyLexVerdict:
    """Check Shad^i(L(u,v)) for i = 1..depth (n when depth is None) against
    the lexsegment property.

    On failure the witness is the lex-largest interval member missing from
    the shadow.  A clean run is reported as unknown-at-depth unless the
    persistence flag promotes a passing first shadow to "yes".  Every set is
    bounded by DEFAULT_PRODUCT_BUDGET before it is built: L(u, v) and each
    lex interval by their lex ranks, each shadow by n times the one before,
    Shad^1 before L(u, v) is walked.  A shadow's bound times its n exponents
    is counted against DEFAULT_CELL_BUDGET at the same point.
    """
    if depth is None:
        depth = spec.ctx.n
    if depth < 1:
        raise ValueError("depth must be >= 1")
    current, count = None, segment_size(spec.u, spec.v)
    for i in range(1, depth + 1):
        if (bound := spec.ctx.n * count) > DEFAULT_PRODUCT_BUDGET:
            raise BudgetError(f"Shad^{i} may have {bound} monomials, over the budget {DEFAULT_PRODUCT_BUDGET}")
        if (cells := bound * spec.ctx.n) > DEFAULT_CELL_BUDGET:
            raise BudgetError(f"Shad^{i} may have {bound} monomials of {spec.ctx.n} exponents, {cells} cells, "
                              f"over the budget {DEFAULT_CELL_BUDGET}")
        current = shadow(enumerate_lexsegment(spec.u, spec.v) if current is None else current)
        count = len(current)
        segment = enumerate_lexsegment(lex_max(current), lex_min(current))
        if len(segment) != len(current):
            witness = next(w for w in segment if w not in current)
            return CompletelyLexVerdict(
                status="no", depth_checked=i, failing_depth=i, witness=witness
            )
    status = "yes" if first_shadow_persistence else "unknown"
    return CompletelyLexVerdict(status=status, depth_checked=depth)


@dataclass(frozen=True)
class Classification:
    """The linear-resolution shape: its split index l, or None, and why."""

    linear_form_l: int | None
    notes: str

    @property
    def has_linear_form(self) -> bool:
        return self.linear_form_l is not None


def classify_linear_form(spec: LexSegmentSpec) -> Classification:
    """Recognize u = x1*x_{l+1}^{a_{l+1}}...x_n^{a_n}, v = x_l*x_n^(d-1).

    l is read off as min(supp(v)) and must satisfy 2 <= l <= n-1.  The spec
    must be normalized (x1 ∤ v); x1 ∤ u as well means normalize_spec made a
    ring drop, which is outside the shape.
    """
    u, v, n, d = spec.u, spec.v, spec.ctx.n, spec.d
    if v.exponent(1) != 0:
        raise InvariantError(f"classify_linear_form needs a normalized spec, but x1 divides v = {v}")
    if u.exponent(1) == 0:
        return Classification(None, "ring drop: u and v have the same power of x1, so L(u, v) lives in x2..xn")
    if d < 2:
        return Classification(None, f"degree {d} < 2")
    if u.exponent(1) != 1:
        return Classification(None, f"nu_1(u) = {u.exponent(1)} != 1")
    if v.is_one():
        return Classification(None, "v = 1")
    l = v.min_index()
    if not 2 <= l <= n - 1:
        return Classification(None, f"min(supp(v)) = {l} outside 2..{n - 1}")
    expected_v = [0] * n
    expected_v[l - 1] = 1
    expected_v[n - 1] += d - 1
    if v.exponents != tuple(expected_v):
        return Classification(None, f"v = {v} is not x{l}*x{n}^{d - 1}")
    if any(u.exponent(i) for i in range(2, l + 1)):
        return Classification(None, f"u = {u} has support in x2..x{l}")
    return Classification(l, f"u = {u}, v = {v} match the linear-resolution shape with l = {l}")


def make_classified_spec(u: Monomial, v: Monomial) -> tuple[LexSegmentSpec, TransformRecord, Classification]:
    """normalize + classify in one step; spec.l is set when the shape holds."""
    spec, record = normalize_spec(u, v)
    cls = classify_linear_form(spec)
    return dataclasses.replace(spec, l=cls.linear_form_l), record, cls
