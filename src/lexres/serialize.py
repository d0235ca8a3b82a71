"""Export formats for the resolution: JSON (round-trippable), text matrices
in the row-labeled layout, and a Macaulay2 cross-check script."""

from __future__ import annotations

import itertools
import json

import numpy as np

from .lexsegment import LexSegmentSpec
from .monomials import Monomial, RingContext
from .powers import PowerIdeal
from .quotients import QuotientStructure
from .resolution import Basis, DifferentialMatrix, ResolutionComplex

JSON_ORDER_TAG = "increasing-revlex"


def _block(items: list[str], indent: int, brackets: str = "[]") -> str:
    """A container of the given item texts, laid out as json.dumps(indent=2)
    lays out one that opens at `indent`."""
    if not items:
        return brackets
    return brackets[0] + "\n" + ",\n".join(items) + "\n" + " " * indent + brackets[1]


_ENTRY = (
    '        {\n          "r": %d,\n          "c": %d,\n'
    '          "sign": %d,\n          "var": %d\n        }'
)


def _rows_block(rows: list[tuple[int, ...]]) -> str:
    """A header list of int lists (generators, sets), as json.dumps(indent=2)
    lays it out under a top-level key."""
    items = ["    " + _block(["      %d"] * len(row), 4) for row in rows]
    return _block(items, 2) % tuple(itertools.chain.from_iterable(rows))


def resolution_to_json(rc: ResolutionComplex) -> str:
    """The JSON export, byte for byte json.dumps(..., indent=2) of the format
    in the README; only the small header fields go through json, and the
    generators, the sets and each degree's basis symbols and matrix entries
    are one %-format over a flat int list."""
    spec = rc.power.spec
    head = {
        "n": spec.ctx.n,
        "d": spec.d,
        "k": rc.power.k,
        "l": spec.l,
        "order": JSON_ORDER_TAG,
        "u": list(spec.u.exponents),
        "v": list(spec.v.exponents),
    }
    tail = {"betti": list(rc.betti), "shifts": [list(s) for s in rc.shifts]}
    bases = []
    for i, basis in sorted(rc.bases.items()):
        sigma = _block(["          %d"] * (i - 1), 8)
        symbol = '      {\n        "sigma": ' + sigma + ',\n        "gen": %d\n      }'
        values = np.column_stack([basis.sigma, basis.gen]).ravel().tolist()
        bases.append(f'    "{i}": ' + _block([symbol] * len(basis), 4) % tuple(values))
    matrices = []
    for i, mat in sorted(rc.matrices.items()):
        values = np.column_stack(mat.arrays).ravel().tolist()
        entries = _block([_ENTRY] * mat.entry_count(), 6) % tuple(values)
        matrices.append(
            f'    "{i}": {{\n      "rows": {mat.nrows},\n      "cols": {mat.ncols},\n      '
            f'"entries": {entries}\n    }}'
        )
    bases, matrices = _block(bases, 2, "{}"), _block(matrices, 2, "{}")
    generators = _rows_block([g.exponents for g in rc.power.generators])
    sets = _rows_block(rc.quotients.sets)
    return (
        json.dumps(head, indent=2)[:-2]  # without its closing "\n}"
        + f',\n  "generators": {generators},\n  "sets": {sets},\n'
        + json.dumps(tail, indent=2)[2:-2]  # without "{\n" and "\n}"
        + f',\n  "bases": {bases},\n  "matrices": {matrices}\n}}\n'
    )


def resolution_from_dict(data: dict) -> ResolutionComplex:
    """Rebuild the in-memory complex from its JSON form."""
    ctx = RingContext(data["n"])
    spec = LexSegmentSpec(
        ctx=ctx,
        d=data["d"],
        u=Monomial(ctx, data["u"]),
        v=Monomial(ctx, data["v"]),
        l=data["l"],
    )
    gens = [Monomial(ctx, e) for e in data["generators"]]
    pi = PowerIdeal(spec, data["k"], gens)
    qs = QuotientStructure(power=pi, sets=[tuple(s) for s in data["sets"]])
    bases = {
        int(i): Basis([b["gen"] for b in symbols], [b["sigma"] for b in symbols], int(i) - 1, ctx.n)
        for i, symbols in data["bases"].items()
    }
    matrices = {}
    for i, mat in data["matrices"].items():
        cells = [(e["r"], e["c"], e["sign"], e["var"]) for e in mat["entries"]]
        cells = np.array(cells, dtype=np.int64).reshape(-1, 4)
        cells = cells[np.argsort(cells[:, 1], kind="stable")].T.copy()  # column-major
        matrices[int(i)] = DifferentialMatrix(mat["rows"], mat["cols"], *cells)
    rc = ResolutionComplex(quotients=qs, bases=bases, matrices=matrices)
    if tuple(data["betti"]) != rc.betti or tuple(map(tuple, data["shifts"])) != rc.shifts:
        raise ValueError(f"betti/shifts disagree with the bases, which give betti {rc.betti}")
    return rc


def resolution_from_json(text: str) -> ResolutionComplex:
    return resolution_from_dict(json.loads(text))


def matrix_grid(rc: ResolutionComplex, i: int) -> list[list[str]]:
    """The entries of d_i as strings ("x1", "-x3", "0"), rows x cols."""
    if i == 0:
        return [[str(g) for g in rc.d0]]
    mat = rc.matrices[i]
    grid = [["0"] * mat.ncols for _ in range(mat.nrows)]
    for r, c, sign, var in zip(*(a.tolist() for a in mat.arrays)):
        grid[r][c] = ("-" if sign < 0 else "") + f"x{var}"
    return grid


def _row_labels(rc: ResolutionComplex, i: int) -> list[str]:
    if i == 0:
        return ["1"]
    return rc.bases[i].labels()


def resolution_to_text(rc: ResolutionComplex) -> str:
    spec = rc.power.spec
    lines = [
        f"S = K[x1..x{spec.ctx.n}],  I = L({spec.u}, {spec.v}),  k = {rc.power.k}"
        + (f",  l = {spec.l}" if spec.l is not None else ""),
        "generators of I^k (increasing revlex): "
        + ", ".join(f"u{j + 1} = {g}" for j, g in enumerate(rc.power.generators)),
        "sets: "
        + "; ".join(
            f"set(u{j + 1}) = {{{', '.join(map(str, s))}}}"
            for j, s in enumerate(rc.quotients.sets)
        ),
        "betti: " + str(tuple(rc.betti)),
        "shifts: "
        + " <- ".join(
            "S" if shift == 0 else f"S({shift})^{rank}" for shift, rank in rc.shifts
        ),
    ]
    for i in range(0, rc.proj_dim):
        lines.append("")
        lines.append(f"d{i}  (rows F_{i}, cols F_{i + 1}):")
        grid = matrix_grid(rc, i)
        labels = _row_labels(rc, i)
        width = max((len(s) for row in grid for s in row), default=1)
        lwidth = max(len(s) for s in labels)
        lines.append(" " * (lwidth + 2) + "  ".join(rc.bases[i + 1].labels()))
        for label, row in zip(labels, grid):
            lines.append(f"{label:<{lwidth}}  " + "  ".join(f"{s:>{width}}" for s in row))
    return "\n".join(lines) + "\n"


def power_ideal_to_m2(pi: PowerIdeal) -> str:
    """A Macaulay2 script declaring the ring and ideal, for external checks.

    The script is plain text output; nothing here shells out to M2.
    """
    n = pi.spec.ctx.n
    ring_vars = ",".join(f"x{i}" for i in range(1, n + 1))
    gens = ",".join(_m2_monomial(g) for g in pi.generators)
    return (
        f"-- generators of I^{pi.k} for I = L({pi.spec.u}, {pi.spec.v})\n"
        f"R = QQ[{ring_vars}];\n"
        f"I = ideal({gens});\n"
        "C = res coker gens I;\n"
        "betti C\n"
    )


def _m2_monomial(m: Monomial) -> str:
    if m.degree == 0:
        return "1"
    parts = []
    for i, e in enumerate(m.exponents):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts)
