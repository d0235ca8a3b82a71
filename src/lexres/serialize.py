"""Export formats for the resolution: JSON (round-trippable), text matrices
in the row-labeled layout, and a Macaulay2 cross-check script."""

from __future__ import annotations

import itertools
import json

import numpy as np

from .errors import BudgetError
from .lexsegment import LexSegmentSpec, classify_linear_form
from .monomials import Monomial, RingContext
from .powers import PowerIdeal, power_generators
from .quotients import QuotientStructure
from .resolution import DifferentialMatrix, ResolutionComplex

JSON_ORDER_TAG = "increasing-revlex"
TEXT_CELL_BUDGET = 10**7  # cells of the dense text matrices, over all degrees
CHUNK_RECORDS = 1 << 11  # generators, sets, basis symbols or entries per chunk


def _int_list(values, indent: int) -> str:
    """A list of ints as json.dumps(indent=2) lays it out when it opens at `indent`."""
    pad = "\n" + " " * (indent + 2)
    return "[" + pad + ("," + pad).join(map(str, values)) + "\n" + " " * indent + "]" if values else "[]"


def _text_table(arrays, render):
    """A lookup from integer arrays to object arrays of render(value), with
    render run once per value, over min..max of `arrays` or, when that
    range is much wider than they are, over their distinct values."""
    arrays = [a for a in arrays if a.size]
    lo = min((int(a.min()) for a in arrays), default=0)
    hi = max((int(a.max()) for a in arrays), default=-1)
    if hi - lo <= 2 * sum(a.size for a in arrays) + 1024:
        texts = np.array([render(v) for v in range(lo, hi + 1)], dtype=object)
        return lambda a: texts[a.astype(np.int64) - lo]  # a - lo could wrap in a's own type
    keys = np.unique(np.concatenate(arrays))
    texts = np.array([render(v) for v in keys.tolist()], dtype=object)
    return lambda a: texts[np.searchsorted(keys, a)]


def _records(opening: str, count: int, pieces, indent: int):
    """`opening` and a list of `count` records that opens at `indent`, in
    chunks of at most CHUNK_RECORDS records.  pieces(lo, hi) gives the text
    of records lo..hi-1 as a list of parts read left to right, each an
    object array with one element per record or one str that every record
    shares; each record starts with the ",\n" that would follow the record
    before it."""
    yield opening + ("[" if count else "[]")
    for lo in range(0, count, CHUNK_RECORDS):
        parts = pieces(lo, min(lo + CHUNK_RECORDS, count))
        chunk = np.empty((min(CHUNK_RECORDS, count - lo), len(parts)), dtype=object)
        for j, part in enumerate(parts):
            chunk[:, j] = part
        if lo == 0:
            chunk[0, 0] = chunk[0, 0][1:]  # the first record follows "[" without a comma
        yield "".join(chunk.ravel().tolist())
    if count:
        yield "\n" + " " * indent + "]"


def _rows(opening: str, rows):
    """A top-level list of int lists (generators, sets), one record per row."""
    texts = np.array([",\n    " + _int_list(r, 4) for r in rows], dtype=object)
    return _records(opening, len(texts), lambda lo, hi: [texts[lo:hi]], 2)


# the JSON text of a matrix entry before r, and between r and c
_BEFORE_ROW, _BEFORE_COL = ',\n        {\n          "r": ', ',\n          "c": '


def iter_resolution_json(rc: ResolutionComplex, differentials):
    """The JSON export in chunks that concatenate to json.dumps(..., indent=2)
    of the format in the README, byte for byte.  Only the small header
    fields go through json.  A basis symbol is SIGMA[sigma] + GEN[gen] and a
    matrix entry _BEFORE_ROW + NUM[r] + _BEFORE_COL + NUM[c] + SIGN[sign] +
    VAR[var], from tables of the JSON text of each value: GEN built once per
    complex, SIGMA once per basis over its distinct sigma rows, and NUM (the
    digits alone, read by rows and columns), SIGN and VAR once per
    differential from its own arrays.  Each basis is made by rc.symbols as
    it is written.  A chunk joins at most CHUNK_RECORDS records.

    The differentials are read in order from `differentials`, pairs (i, d_i)
    as stream_resolution yields them; each is dropped, with its tables,
    before the next is read."""
    spec = rc.power.spec
    head = {"n": spec.ctx.n, "d": spec.d, "k": rc.power.k, "l": spec.l, "order": JSON_ORDER_TAG,
            "u": list(spec.u.exponents), "v": list(spec.v.exponents)}
    tail = {"betti": list(rc.betti), "shifts": [list(s) for s in rc.shifts]}
    yield from _rows(json.dumps(head, indent=2)[:-2] + ',\n  "generators": ',  # without "\n}"
                     rc.power.exponent_matrix.tolist())
    yield from _rows(',\n  "sets": ', rc.quotients.sets)
    yield ",\n" + json.dumps(tail, indent=2)[2:-2] + ',\n  "bases": {'  # without "{\n", "\n}"
    gen_text = np.array([f"{g}\n      }}" for g in range(len(rc.power.exponent_matrix))], dtype=object)
    for i in range(1, len(rc.betti)):
        gen, sigma = rc.symbols(i)
        order = np.lexsort((*sigma.T[::-1], np.zeros_like(gen)))  # by sigma; the zeros are F_1's one key
        head = np.ones(len(gen), dtype=bool)  # the first of each distinct sigma in that order
        head[1:] = (np.diff(sigma[order], axis=0) != 0).any(axis=1)
        sigma_of = np.empty(len(gen), dtype=np.int64)
        sigma_of[order] = np.cumsum(head) - 1
        sigma_text = np.array([f',\n      {{\n        "sigma": {_int_list(s, 8)},\n        "gen": '
                               for s in sigma[order[head]].tolist()], dtype=object)
        yield from _records(f'{"," * (i > 1)}\n    "{i}": ', len(gen),
                            lambda lo, hi: [sigma_text[sigma_of[lo:hi]], gen_text[gen[lo:hi]]], 4)
    yield '\n  },\n  "matrices": {'
    opening = "\n"
    for i, mat in differentials:
        num = _text_table([mat.rows, mat.cols], str)
        sign = _text_table([mat.signs], lambda s: f',\n          "sign": {s},\n')
        var = _text_table([mat.vars], lambda x: f'          "var": {x}\n        }}')
        yield from _records(f'{opening}    "{i}": {{\n      "rows": {mat.nrows},\n      "cols": {mat.ncols},\n'
                            '      "entries": ', mat.entry_count(),
                            lambda lo, hi: [_BEFORE_ROW, num(mat.rows[lo:hi]), _BEFORE_COL, num(mat.cols[lo:hi]),
                                            sign(mat.signs[lo:hi]), var(mat.vars[lo:hi])], 6)
        yield "\n    }"
        opening = ",\n"
        del mat, num, sign, var  # d_i and its tables go before d_{i+1} is built
    yield ("}" if opening == "\n" else "\n  }") + "\n}\n"


def _integers(values, what: str) -> list:
    """values, a list whose items are all JSON integers (not floats or
    booleans, which numpy and Monomial would truncate), or ValueError."""
    if not isinstance(values, list) or any(type(v) is not int for v in values):
        raise ValueError(f"{what} must be integers")
    return values


def resolution_from_dict(data: dict):
    """Rebuild the complex from its JSON form: (rc, differentials), the
    differentials as (i, d_i) pairs in degree order, as stream_resolution
    yields them.  Malformed input raises ValueError and nothing else: a
    missing field or a value of another JSON type than the format's, a
    number that is not an integer, generator rows other than G(I^k) of the
    header's u, v, d and k (n exponents >= 0 each, one per set), an l other
    than classify_linear_form's, a set that is not strictly increasing
    within 1..n, or bases, matrices, Betti numbers or shifts that the sets
    do not give.  Sets whose complex is past ENTRY_BUDGET are refused with
    BudgetError, as the complex refuses them when it is streamed."""
    try:
        return _from_dict(data)
    except (KeyError, TypeError, AttributeError) as exc:  # a missing field, or a list where an object belongs
        raise ValueError(f"not the JSON form of a resolution: {type(exc).__name__} {exc}") from None


def _from_dict(data: dict):
    n, d, k, l = (data[key] for key in ("n", "d", "k", "l"))
    _integers([n, d, k] if l is None else [n, d, k, l], "n, d, k and l")
    ctx = RingContext(n)
    u, v = (Monomial(ctx, _integers(data[end], f"the exponents of {end}")) for end in ("u", "v"))
    spec = LexSegmentSpec(ctx=ctx, d=d, u=u, v=v, l=l)
    if v.exponent(1) or classify_linear_form(spec).linear_form_l != l:  # classify needs x1 ∤ v
        raise ValueError(f"l = {l} does not match classify_linear_form on L({u}, {v}) (normalized, x1 ∤ v)")
    try:
        gens = np.array(data["generators"], dtype=np.int64)
        if gens.ndim != 2 or gens.shape[1] != ctx.n:
            raise ValueError
    except (OverflowError, ValueError):
        raise ValueError(f"the generators are not rows of {ctx.n} int64 exponents") from None
    _integers([e for row in data["generators"] for e in row], "the generator exponents")
    if (gens < 0).any():
        raise ValueError(f"negative exponent in {tuple(gens[(gens < 0).any(axis=1)][0].tolist())}")
    if len(gens) != len(data["sets"]):
        raise ValueError(f"{len(gens)} generator rows for {len(data['sets'])} sets")
    if (gens.sum(axis=1) != k * d).any():  # before power_generators, which a wrong k could send over budget
        raise ValueError(f"the generators are not all of degree k*d = {k * d}")
    power = power_generators(spec, k)
    if not np.array_equal(power.exponent_matrix, gens):
        raise ValueError(f"the generators are not G(I^{k}) for I = L({u}, {v})")
    member = np.zeros(gens.shape, dtype=bool)
    for j, st in enumerate(data["sets"]):
        if not all(type(s) is int and 1 <= s <= ctx.n for s in st) or list(st) != sorted(set(st)):
            raise ValueError(f"set(u{j + 1}) = {list(st)} is not strictly increasing within 1..{ctx.n}")
        member[j, [s - 1 for s in st]] = True
    rc = ResolutionComplex(quotients=QuotientStructure(power=power, member=member))
    # the symbol counts first, so that no basis is built larger than the file's
    betti, symbols = rc.betti, data["bases"]
    if symbols.keys() != {str(i) for i in range(1, len(betti))} or any(
            len(symbols[str(i)]) != b for i, b in enumerate(betti[1:], start=1)):
        raise ValueError("the bases are not the subsets of the sets in matrix order")
    _integers([x for b in itertools.chain(*symbols.values()) for x in (b["gen"], *b["sigma"])], "the basis symbols")
    for i in range(1, len(betti)):  # one degree's symbols at a time
        if [(b["gen"], b["sigma"]) for b in symbols[str(i)]] != list(zip(*(a.tolist() for a in rc.symbols(i)))):
            raise ValueError("the bases are not the subsets of the sets in matrix order")
    pd = len(betti) - 1
    if data["matrices"].keys() != {str(i) for i in range(1, pd)}:
        raise ValueError(f"the matrices are not d1..d{pd - 1}, one each")
    differentials = []
    for i in range(1, pd):
        mat = data["matrices"][str(i)]
        shape = tuple(_integers([mat["rows"], mat["cols"]], f"the shape of d{i}"))
        if shape != (betti[i], betti[i + 1]):
            raise ValueError(f"d{i} is {shape[0]} x {shape[1]}, which its bases F_{i}, F_{i + 1} do not give")
        cells = [(e["r"], e["c"], e["sign"], e["var"]) for e in mat["entries"]]
        _integers([x for cell in cells for x in cell], f"the entries of d{i}")
        try:
            cells = np.array(cells, dtype=np.int64).reshape(-1, 4)
        except OverflowError:
            raise ValueError(f"d{i} has an entry value past int64") from None
        cells = cells[np.argsort(cells[:, 1], kind="stable")].T.copy()  # column-major
        r, c, _, var = cells
        if ((r < 0) | (r >= shape[0]) | (c < 0) | (c >= shape[1])).any():
            raise ValueError(f"d{i} has an entry outside its {shape[0]} x {shape[1]} cells")
        if ((var < 1) | (var > ctx.n)).any():
            raise ValueError(f"d{i} has an entry whose variable is outside x1..x{ctx.n}")
        if len(np.unique(r * shape[1] + c)) < len(r):
            raise ValueError(f"d{i} has two entries in one cell")
        differentials.append((i, DifferentialMatrix(*shape, *cells)))
    _integers([*data["betti"], *(x for shift in data["shifts"] for x in shift)], "betti and shifts")
    if tuple(data["betti"]) != rc.betti or tuple(map(tuple, data["shifts"])) != rc.shifts:
        raise ValueError(f"betti/shifts disagree with the bases, which give betti {rc.betti}")
    return rc, differentials


def resolution_from_json(text: str):
    return resolution_from_dict(json.loads(text))


def _cell_grid(mat: DifferentialMatrix):
    """d_i as an int grid, rows x cols, of codes into a list of its distinct
    cell strings: code 0 is "0", and each entry's code stands for its
    (sign < 0, var) pair ("x1", "-x3")."""
    keys, code = np.unique(2 * mat.vars.astype(np.int64) + (mat.signs < 0), return_inverse=True)
    grid = np.zeros((mat.nrows, mat.ncols), dtype=np.int64)
    grid[mat.rows, mat.cols] = code + 1
    return grid, ["0"] + [("-" if key & 1 else "") + f"x{key >> 1}" for key in keys.tolist()]


def resolution_to_text(rc: ResolutionComplex, differentials) -> str:
    """The complex as row-labeled text matrices.  Their cells, |G| for d0
    and beta_i beta_{i+1} for d_i, are counted from the Betti numbers
    against TEXT_CELL_BUDGET before any differential is read.

    The differentials are read in order from `differentials`, pairs (i, d_i)
    as stream_resolution yields them."""
    cells = sum(a * b for a, b in zip(rc.betti, rc.betti[1:]))
    if cells > TEXT_CELL_BUDGET:
        raise BudgetError(f"the text matrices have {cells} cells, over the budget {TEXT_CELL_BUDGET}")
    spec = rc.power.spec
    gens = [str(Monomial(spec.ctx, g)) for g in rc.power.exponent_matrix.tolist()]
    lines = [
        f"S = K[x1..x{spec.ctx.n}],  I = L({spec.u}, {spec.v}),  k = {rc.power.k}"
        + (f",  l = {spec.l}" if spec.l is not None else ""),
        "generators of I^k (increasing revlex): "
        + ", ".join(f"u{j + 1} = {g}" for j, g in enumerate(gens)),
        "sets: " + "; ".join(f"set(u{j + 1}) = {{{', '.join(map(str, s))}}}"
                             for j, s in enumerate(rc.quotients.sets)),
        "betti: " + str(tuple(rc.betti)),
        "shifts: "
        + " <- ".join(
            "S" if shift == 0 else f"S({shift})^{rank}" for shift, rank in rc.shifts
        ),
    ]
    d0 = np.arange(1, len(gens) + 1)[None, :], ["0"] + gens  # its cells are G(I^k)
    grids = itertools.chain([(0, d0)], ((i, _cell_grid(mat)) for i, mat in differentials))
    labels = ["1"]  # d_i's row labels, F_i's symbols f({2,4};u4): d_{i-1}'s column labels
    for i, (grid, texts) in grids:
        lines.append("")
        lines.append(f"d{i}  (rows F_{i}, cols F_{i + 1}):")
        width = max(map(len, texts))
        padded = np.array([f"{s:>{width}}" for s in texts], dtype=object)
        gen, sigma = rc.symbols(i + 1)
        above = [f"f({{{','.join(map(str, s))}}};u{g + 1})" for s, g in zip(sigma.tolist(), gen.tolist())]
        lwidth = max(len(s) for s in labels)
        lines.append(" " * (lwidth + 2) + "  ".join(above))
        for label, row in zip(labels, grid):
            lines.append(f"{label:<{lwidth}}  " + "  ".join(padded[row].tolist()))
        labels = above
    return "\n".join(lines) + "\n"


def power_ideal_to_m2(pi: PowerIdeal) -> str:
    """A Macaulay2 script declaring the ring and ideal, for external checks.

    The script is plain text output; nothing here shells out to M2.
    """
    n = pi.spec.ctx.n
    ring_vars = ",".join(f"x{i}" for i in range(1, n + 1))
    gens = ",".join(map(_m2_monomial, pi.exponent_matrix.tolist()))
    return (
        f"-- generators of I^{pi.k} for I = L({pi.spec.u}, {pi.spec.v})\n"
        f"R = QQ[{ring_vars}];\n"
        f"I = ideal({gens});\n"
        "C = res coker gens I;\n"
        "betti C\n"
    )


def _m2_monomial(exponents) -> str:
    return "*".join(f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exponents) if e) or "1"
