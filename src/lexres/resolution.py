"""The minimal graded free resolution of S/I^k from linear quotients.

Basis symbols f(sigma; w) with sigma a subset of set(w) span F_{|sigma|+1};
the differential sends f(sigma; w) to

    sum_s (-1)^alpha(sigma;s) * (x_s w / g(x_s w)) * f(sigma\\s; g(x_s w))
  - sum_s (-1)^alpha(sigma;s) * x_s * f(sigma\\s; w)

with f(tau; z) read as 0 whenever tau is not contained in set(z), and
f(empty; w) mapping to the generator w itself.  Since g's coefficient is a
single variable, every matrix entry above the generator row is +-x_j.

Matrix convention: columns are indexed by the domain basis F_{i+1}, rows by
the codomain F_i; the basis is ordered by generator position first, then by
sigma compared as sorted tuples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .decomposition import closed_form_table, oracle_table, regularity_check_oracle, require_agreement
from .quotients import QuotientStructure


def alpha(sigma, s) -> int:
    """The sign exponent: how many members of sigma lie below s."""
    return sum(1 for t in sigma if t < s)


@dataclass(frozen=True)
class BasisSymbol:
    """f(sigma; w): sigma sorted variable indices, gen the generator position."""

    sigma: tuple[int, ...]
    gen: int
    degree: int

    def label(self) -> str:
        inner = ",".join(str(s) for s in self.sigma)
        return f"f({{{inner}}};u{self.gen + 1})"


@dataclass(frozen=True)
class SignedVariableEntry:
    row: int
    col: int
    sign: int  # +1 or -1
    var: int  # 1-based variable index


class SignedVariableMatrix:
    """Sparse matrix whose nonzero entries are all +-(one variable)."""

    def __init__(self, nrows: int, ncols: int, columns):
        self.nrows = nrows
        self.ncols = ncols
        self.columns = [tuple(col) for col in columns]  # columns[j] = entries with col=j

    def entries(self):
        for col in self.columns:
            yield from col

    def entry_count(self) -> int:
        return sum(len(c) for c in self.columns)

    def __eq__(self, other):
        return (
            isinstance(other, SignedVariableMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.columns == other.columns
        )


class ResolutionComplex:
    """The assembled resolution: bases, differentials, Betti numbers, shifts.

    d0 is the 1 x beta_1 generator row; matrices[i] is the map F_{i+1} -> F_i
    for i >= 1.  bases[i] lists the symbols of F_i for i >= 1 (F_0 = S).
    """

    def __init__(self, quotients, bases, d0, matrices, betti, shifts, g_mode):
        self.quotients = quotients
        self.bases = bases
        self.d0 = d0
        self.matrices = matrices
        self.betti = betti
        self.shifts = shifts
        self.g_mode = g_mode

    @property
    def power(self):
        return self.quotients.power

    @property
    def proj_dim(self) -> int:
        return max(self.bases)

    def __eq__(self, other):
        return (
            isinstance(other, ResolutionComplex)
            and self.power.generators == other.power.generators
            and self.quotients.sets == other.quotients.sets
            and self.bases == other.bases
            and self.d0 == other.d0
            and self.matrices == other.matrices
            and self.betti == other.betti
            and self.shifts == other.shifts
        )


def resolution_basis(qs: QuotientStructure) -> dict[int, list[BasisSymbol]]:
    """All f(sigma; w) with sigma ⊆ set(w), |sigma| = i-1, in matrix order."""
    if not qs.is_linear:
        raise ValueError("quotient structure is not linear")
    kd = qs.power.generators[0].degree if qs.power.generators else 0
    max_set = max((len(s) for s in qs.sets), default=0)
    bases: dict[int, list[BasisSymbol]] = {}
    for i in range(1, max_set + 2):
        symbols = [
            BasisSymbol(sigma=sig, gen=w, degree=kd + i - 1)
            for w, st in enumerate(qs.sets)
            for sig in itertools.combinations(st, i - 1)
        ]
        if symbols:
            bases[i] = symbols
    return bases


def betti_from_sets(sets) -> tuple[int, ...]:
    """beta_0 = 1 and beta_i = sum_w C(|set(w)|, i-1)."""
    max_set = max((len(s) for s in sets), default=0)
    betti = [1]
    for i in range(1, max_set + 2):
        betti.append(sum(math.comb(len(s), i - 1) for s in sets))
    return tuple(betti)


def assemble_resolution(
    qs: QuotientStructure,
    use_oracle: bool = False,
    cross_check: bool = False,
) -> ResolutionComplex:
    """Build bases and differentials for the full resolution of S/I^k.

    Classified specs use the closed-form g (optionally shadowed by the
    oracle); with use_oracle the definitional g is used instead, which
    requires the decomposition function to be regular and is checked here.
    """
    if not qs.is_linear:
        raise ValueError("cannot resolve: linear quotients fail")
    pi = qs.power
    if pi.spec.l is None and not use_oracle:
        raise ValueError(
            "spec is not of the classified linear-resolution shape; "
            "pass use_oracle=True to build from the definitional g"
        )
    if use_oracle:
        report = regularity_check_oracle(qs)
        if not report.regular:
            raise ValueError(f"cannot resolve: decomposition function {report.describe()}")
        table = oracle_table(qs)
    else:
        table = closed_form_table(qs)
        if cross_check:
            require_agreement(qs)
    table.raise_fault_before(len(table.g))
    pairs = zip(table.gen.tolist(), table.s.tolist())
    g_of = dict(zip(pairs, zip(table.g.tolist(), table.coeff.tolist())))  # (w, s) -> (g, coeff)
    bases = resolution_basis(qs)
    set_lookup = [frozenset(s) for s in qs.sets]
    positions = {
        i: {(b.sigma, b.gen): r for r, b in enumerate(symbols)}
        for i, symbols in bases.items()
    }

    matrices: dict[int, SignedVariableMatrix] = {}
    for i in sorted(bases):
        if i + 1 not in bases:
            break
        rows = positions[i]
        columns = []
        for c, sym in enumerate(bases[i + 1]):
            sigma, w = sym.sigma, sym.gen
            entries = []
            for pos, s in enumerate(sigma):
                sign = -1 if pos % 2 else 1  # alpha(sigma; s) = position in sorted sigma
                tau = sigma[:pos] + sigma[pos + 1 :]
                g_idx, coeff_var = g_of[w, s]
                if set(tau) <= set_lookup[g_idx]:
                    entries.append(
                        SignedVariableEntry(row=rows[(tau, g_idx)], col=c, sign=sign, var=coeff_var)
                    )
                entries.append(
                    SignedVariableEntry(row=rows[(tau, w)], col=c, sign=-sign, var=s)
                )
            columns.append(entries)
        matrices[i] = SignedVariableMatrix(len(bases[i]), len(bases[i + 1]), columns)

    betti = betti_from_sets(qs.sets)
    for i, symbols in bases.items():
        if betti[i] != len(symbols):
            raise AssertionError(f"rank F_{i}: basis count {len(symbols)} != beta {betti[i]}")
    kd = pi.generators[0].degree
    shifts = tuple([(0, 1)] + [(-(kd + i - 1), len(bases[i])) for i in sorted(bases)])
    return ResolutionComplex(
        quotients=qs,
        bases=bases,
        d0=tuple(pi.generators),
        matrices=matrices,
        betti=betti,
        shifts=shifts,
        g_mode="oracle" if use_oracle else "closed",
    )


def compose_check(rc: ResolutionComplex, i: int) -> bool:
    """Symbolically verify d_i ∘ d_{i+1} = 0."""
    if i == 0:
        if 1 not in rc.matrices:
            return True
        for col in rc.matrices[1].columns:
            acc: dict[tuple[int, ...], int] = {}
            for e in col:
                gen = rc.d0[e.row]
                key = tuple(
                    v + (1 if j == e.var - 1 else 0) for j, v in enumerate(gen.exponents)
                )
                acc[key] = acc.get(key, 0) + e.sign
            if any(acc.values()):
                return False
        return True
    upper = rc.matrices.get(i + 1)
    lower = rc.matrices.get(i)
    if upper is None:
        return True
    for col in upper.columns:
        acc = {}
        for e1 in col:
            for e2 in lower.columns[e1.row]:
                pair = (e1.var, e2.var) if e1.var <= e2.var else (e2.var, e1.var)
                key = (e2.row, pair)
                acc[key] = acc.get(key, 0) + e1.sign * e2.sign
        if any(acc.values()):
            return False
    return True


def minimality_check(rc: ResolutionComplex) -> bool:
    """Every entry above the generator row must be +-(a single variable)."""
    n = rc.power.spec.ctx.n
    if any(g.degree < 1 for g in rc.d0):
        return False
    for mat in rc.matrices.values():
        for e in mat.entries():
            if e.sign not in (1, -1) or not 1 <= e.var <= n:
                return False
    return True
