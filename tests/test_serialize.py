import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from lexres import (
    BudgetError,
    Monomial,
    RingContext,
    linear_quotients_check,
    power_generators,
)
from lexres import resolution, serialize
from lexres.lexsegment import LexSegmentSpec
from lexres.resolution import DifferentialMatrix
from lexres.serialize import (
    iter_resolution_json,
    resolution_from_dict,
    resolution_from_json,
)


def _single_generator():
    ctx = RingContext(3)
    u = Monomial(ctx, (1, 1, 0))
    spec = LexSegmentSpec(ctx=ctx, d=2, u=u, v=u)
    return support.resolve(linear_quotients_check(power_generators(spec, 1)))


def _family(n, ue, ve, k):
    spec, _ = support.build_family_spec(n, ue, ve)
    return support.resolve(linear_quotients_check(power_generators(spec, k)))


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: _family(4, (1, 0, 1, 0), (0, 1, 0, 1), 1), id="worked-example"),
        pytest.param(lambda: _family(4, (1, 0, 1, 0), (0, 1, 0, 1), 2), id="worked-example-k2"),
        pytest.param(lambda: _family(6, (1, 0, 0, 1, 1, 0), (0, 0, 1, 0, 0, 2), 1), id="n6-k1"),
        pytest.param(_single_generator, id="single-generator"),
    ],
)
def test_json_writer_matches_json_dumps(build):
    # the direct writer must lay the text out exactly as json.dumps(indent=2)
    rc, mats = build()
    text = support.resolution_to_json(rc, mats)
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    data = json.loads(text)
    assert list(data) == ["n", "d", "k", "l", "order", "u", "v", "generators", "sets",
                          "betti", "shifts", "bases", "matrices"]
    for i, mat in mats.items():
        entries = data["matrices"][str(i)]["entries"]
        assert [[e["r"], e["c"], e["sign"], e["var"]] for e in entries] == [
            list(cell) for cell in zip(*(a.tolist() for a in mat.arrays))
        ]
    for i, (gens, sigmas) in support.bases(rc).items():
        assert data["bases"][str(i)] == [{"sigma": sigma, "gen": gen} for sigma, gen in zip(sigmas, gens)]


@pytest.mark.parametrize("k", [1, 2])
def test_text_matrices_show_every_entry(k):
    # each d_i block: a title, the column labels, then one labelled row per row of d_i
    rc, mats = _family(4, (1, 0, 1, 0), (0, 1, 0, 1), k)
    blocks = serialize.resolution_to_text(rc, mats.items()).split("\n\n")[1:]
    assert len(blocks) == len(rc.betti) - 1
    for i, block in enumerate(blocks):
        assert [row.split()[1:] for row in block.splitlines()[2:]] == support.matrix_grid(rc, mats, i)


def test_single_generator_has_no_matrices():
    data = json.loads(support.resolution_to_json(*_single_generator()))
    assert data["matrices"] == {}
    assert data["bases"] == {"1": [{"sigma": [], "gen": 0}]}


def test_json_import_regroups_entries_by_column():
    rc, mats = _family(4, (1, 0, 1, 0), (0, 1, 0, 1), 2)
    data = json.loads(support.resolution_to_json(rc, mats))
    for mat in data["matrices"].values():
        mat["entries"].sort(key=lambda e: -e["c"])  # columns reversed, each kept in order
    assert resolution_from_dict(data) == (rc, list(mats.items()))


@pytest.mark.parametrize(
    "field, value", [("betti", [1, 5, 6, 3]), ("shifts", [[0, 1], [-2, 5], [-3, 6], [-5, 2]])]
)
def test_json_import_rejects_betti_or_shifts_off_the_bases(field, value):
    # Betti numbers and shifts are read off the bases, so a header that disagrees is refused
    data = json.loads(support.resolution_to_json(*_family(4, (1, 0, 1, 0), (0, 1, 0, 1), 1)))
    assert data[field] != value
    data[field] = value
    with pytest.raises(ValueError, match="disagree with the bases"):
        resolution_from_dict(data)


def test_json_import_refuses_a_complex_past_the_entry_budget(monkeypatch):
    # the worked example squared bounds 2*24 + 4*13 + 6*2 = 112 entries
    text = support.resolution_to_json(*_family(4, (1, 0, 1, 0), (0, 1, 0, 1), 2))
    monkeypatch.setattr(resolution, "ENTRY_BUDGET", 112)
    assert resolution_from_json(text)[0].betti == (1, 14, 24, 13, 2)
    monkeypatch.setattr(resolution, "ENTRY_BUDGET", 111)
    with pytest.raises(BudgetError, match="^the complex may have 112 entries, over the budget 111$"):
        resolution_from_json(text)


_SMALL_SHAPES = [spec for spec in support.theorem_family_specs() if spec[0] <= 5]


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(shape=st.sampled_from(_SMALL_SHAPES), k=st.integers(1, 2))
def test_json_round_trip_property(shape, k):
    n, d, l, ue, ve = shape
    rc, mats = _family(n, ue, ve, k)
    text = support.resolution_to_json(rc, mats)
    back, differentials = resolution_from_json(text)
    assert back == rc and differentials == list(mats.items())
    assert "".join(iter_resolution_json(back, differentials)) == text


def _dumped(text):
    return json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize("records", [1, 3])
@pytest.mark.parametrize("build", [lambda: _family(4, (1, 0, 1, 0), (0, 1, 0, 1), 2), _single_generator])
def test_json_chunks_join_to_the_same_bytes(monkeypatch, build, records):
    # chunk boundaries fall inside every list: generators, sets, bases and entries
    rc, mats = build()
    whole = support.resolution_to_json(rc, mats)
    monkeypatch.setattr(serialize, "CHUNK_RECORDS", records)
    assert "".join(iter_resolution_json(rc, mats.items())) == whole == _dumped(whole)


def test_json_renders_any_int64_as_json_dumps():
    # values no assembled complex has, up to the limits of the stored types:
    # signs of -3, -128 (in d1 only, so that elsewhere 127 minus the least
    # sign leaves int8) and 127, variables past 9 and at 32,767, and row and
    # column indices that cross digit widths up to 2^31 - 1; the import
    # refuses such matrices, so they are built in memory
    rc, mats = _family(4, (1, 0, 1, 0), (0, 1, 0, 1), 2)
    data = json.loads(support.resolution_to_json(rc, mats))
    for i, mat in data["matrices"].items():
        for p, e in enumerate(mat["entries"]):
            e["r"], e["c"] = e["r"] * 37 + 5, e["c"] * 1001  # columns stay in order
            e["r"] = 2**31 - 1 if p % 5 == 0 else e["r"]
            e["sign"] = (-3, 127, -1, -128 if i == "1" else 1)[p % 4]
            e["var"] = (10, 2**15 - 1, 99, 4)[p % 4]
        mat["entries"][-1]["c"] = 2**31 - 1
        cells = [[e[key] for e in mat["entries"]] for key in ("r", "c", "sign", "var")]
        mats[int(i)] = DifferentialMatrix(mat["rows"], mat["cols"], *cells)
    assert support.resolution_to_json(rc, mats) == json.dumps(data, indent=2) + "\n"


def _set_entry(field, value):
    def corrupt(data):
        data["matrices"]["1"]["entries"][3][field] = value
    return corrupt


def _duplicate_entry(data):
    entries = data["matrices"]["1"]["entries"]
    entries.insert(4, dict(entries[3]))


def _grow_rows(data):
    data["matrices"]["1"]["rows"] += 1


def _set_symbol(field, value):
    def corrupt(data):
        data["bases"]["2"][0][field] = value
    return corrupt


def _set_set(data):
    data["sets"][3] = [99]


def _drop_d1(data):
    del data["matrices"]["1"]


def _parent(data, path):
    for key in path[:-1]:
        data = data[key]
    return data


def _replace(*path, value):
    return lambda data: _parent(data, path).__setitem__(path[-1], value)


def _drop(*path):
    return lambda data: _parent(data, path).__delitem__(path[-1])


@pytest.mark.parametrize("corrupt, message", [
    (_grow_rows, "which its bases F_1, F_2 do not give"),
    (_set_entry("r", 10**6), "outside its 14 x 24 cells"),
    (_set_entry("c", -1), "outside its 14 x 24 cells"),
    (_set_entry("var", 0), r"variable is outside x1\.\.x4"),
    (_set_entry("var", 9), r"variable is outside x1\.\.x4"),
    (_duplicate_entry, "two entries in one cell"),
    (_set_symbol("gen", 99), "the bases are not the subsets of the sets"),
    (_set_symbol("sigma", [99]), "the bases are not the subsets of the sets"),
    (_set_set, r"set\(u4\) = \[99\] is not strictly increasing within 1\.\.4"),
    (_drop_d1, r"the matrices are not d1\.\.d3, one each"),
    (_replace("sets", 3, value=2), "not the JSON form of a resolution: TypeError"),
    (_replace("bases", value=[]), "not the JSON form of a resolution: AttributeError"),
    (_replace("matrices", value=[]), "not the JSON form of a resolution: AttributeError"),
    (_drop("matrices", "1", "entries", 3, "var"), "not the JSON form of a resolution: KeyError 'var'"),
    (_drop("generators"), "not the JSON form of a resolution: KeyError 'generators'"),
], ids=["shape", "row", "column", "var-0", "var-9", "duplicate", "basis-gen", "basis-sigma", "set", "no-d1",
        "set-number", "bases-list", "matrices-list", "no-var", "no-generators"])
def test_json_import_rejects_malformed_matrices(corrupt, message):
    # each would otherwise load: an IndexError later in the rank check, x0
    # read as x4, two entries that the evaluation and compose_check would
    # combine differently, a basis or a set that the differentials were not
    # built on, which the rank check passes or reads past its generators,
    # or a missing differential, which it cannot read.  A missing field or a
    # value of the wrong JSON type is malformed too, not a TypeError,
    # AttributeError or KeyError
    data = json.loads(support.resolution_to_json(*_family(4, (1, 0, 1, 0), (0, 1, 0, 1), 2)))
    resolution_from_dict(json.loads(json.dumps(data)))
    corrupt(data)
    with pytest.raises(ValueError, match=message):
        resolution_from_dict(data)


@pytest.mark.parametrize("rows, message", [
    ([[1, 0, 1]], "rows of 4 int64 exponents"),
    ([[1, 0, 1, 0, 0]], "rows of 4 int64 exponents"),
    ([[1, 0, 1, 0], [0, 1]], "rows of 4 int64 exponents"),
    ([], "rows of 4 int64 exponents"),
    ([[1, 0, 2**70, 0]], "rows of 4 int64 exponents"),
    ([[1, 0, 1, 0], [0, -1, 0, 3]], r"negative exponent in \(0, -1, 0, 3\)"),
    ([[0, 1, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]], "3 generator rows for 5 sets"),
], ids=["short", "long", "ragged", "empty", "past-int64", "negative", "fewer-than-sets"])
def test_json_import_rejects_malformed_generators(rows, message):
    data = json.loads(support.resolution_to_json(*_family(4, (1, 0, 1, 0), (0, 1, 0, 1), 1)))
    data["generators"] = rows
    with pytest.raises(ValueError, match=message):
        resolution_from_dict(data)


@pytest.mark.parametrize("sign, message", [
    (128, "a sign outside -128..127"), (-129, "a sign outside -128..127"), (2**70, "past int64"),
])
def test_json_import_rejects_a_sign_past_its_type(sign, message):
    # a sign is stored as int8: one that does not fit is refused, never wrapped
    data = json.loads(support.resolution_to_json(*_family(4, (1, 0, 1, 0), (0, 1, 0, 1), 2)))
    data["matrices"]["1"]["entries"][3]["sign"] = sign
    with pytest.raises(ValueError, match=message):
        resolution_from_dict(data)


def _set_header(field, value):
    def corrupt(data):
        data[field] = value
    return corrupt


def _set_exponent(data):
    data["generators"][2][1] = 1.9


def _set_bool_exponent(data):
    data["generators"][0][3] = True


@pytest.mark.parametrize("corrupt, message", [
    (_set_exponent, "the generator exponents must be integers"),
    (_set_bool_exponent, "the generator exponents must be integers"),
    (_set_entry("r", 0.7), "the entries of d1 must be integers"),
    (_set_entry("sign", True), "the entries of d1 must be integers"),
    (_set_header("u", [1.0, 0, 1, 0]), "the exponents of u must be integers"),
    (_set_header("v", [0, 1, 0, 1.5]), "the exponents of v must be integers"),
    (_set_header("k", 1.0), "n, d, k and l must be integers"),
    (_set_header("n", "4"), "n, d, k and l must be integers"),
    (_set_header("l", 2.0), "n, d, k and l must be integers"),
    (_set_header("betti", [1, 5, 6.0, 2]), "betti and shifts must be integers"),
    (_set_symbol("sigma", [2.0]), "the basis symbols must be integers"),
    (_set_symbol("gen", True), "the basis symbols must be integers"),
], ids=["exponent-float", "exponent-bool", "entry-float", "sign-bool", "u-float", "v-float", "k-float",
        "n-string", "l-float", "betti-float", "sigma-float", "gen-bool"])
def test_json_import_takes_only_integers(corrupt, message):
    # numpy and Monomial would truncate 1.9 to 1 and read true as 1, and a
    # string n would end in a TypeError: each is a malformed file instead
    data = json.loads(support.resolution_to_json(*_family(4, (1, 0, 1, 0), (0, 1, 0, 1), 1)))
    resolution_from_dict(json.loads(json.dumps(data)))
    corrupt(data)
    with pytest.raises(ValueError, match=message):
        resolution_from_dict(data)


@pytest.mark.parametrize("field, value, message", [
    ("k", 3, r"not all of degree k\*d = 6"),
    ("l", 3, r"l = 3 does not match classify_linear_form on L\(x1x3, x2x4\)"),
    ("l", None, r"l = None does not match"),
    ("v", [1, 0, 0, 1], r"l = 2 does not match classify_linear_form on L\(x1x3, x1x4\)"),
    ("u", [1, 0, 0, 1], r"the generators are not G\(I\^1\) for I = L\(x1x4, x2x4\)"),
], ids=["k", "l", "l-none", "v-not-normalized", "u"])
def test_json_import_checks_its_header(field, value, message):
    # the worked example, n = 4, L(x1x3, x2x4), k = 1, with one header field
    # edited: its generators and l no longer follow from the header
    data = json.loads(support.resolution_to_json(*_family(4, (1, 0, 1, 0), (0, 1, 0, 1), 1)))
    assert data[field] != value
    data[field] = value
    with pytest.raises(ValueError, match=message):
        resolution_from_dict(data)


def test_json_empty_basis_and_empty_matrix():
    rc, _ = _single_generator()
    text = support.resolution_to_json(rc, {1: DifferentialMatrix(1, 0, [], [], [], [])})
    assert text == _dumped(text)
    assert json.loads(text)["matrices"]["1"] == {"rows": 1, "cols": 0, "entries": []}


def test_json_chunks_are_bounded_by_records(monkeypatch):
    rc, mats = _family(6, (1, 0, 0, 1, 1, 0), (0, 0, 1, 0, 0, 2), 1)
    monkeypatch.setattr(serialize, "CHUNK_RECORDS", 4)
    chunks = list(iter_resolution_json(rc, mats.items()))
    assert sum(map(len, chunks)) > 20_000
    assert max(c.count('"r": ') + c.count('"gen": ') for c in chunks) == 4
    assert max(map(len, chunks)) < 600  # the header, or four records of the widest kind


def test_streamed_n7_ladder_export_digest():
    # ladder row n=7, x1x4x5x6x7 / x2x7^4, k=2: hashed chunk by chunk, no
    # file and no whole document in memory
    rc, mats = _family(7, (1, 0, 0, 1, 1, 1, 1), (0, 1, 0, 0, 0, 0, 4), 2)
    digest, size, widest = hashlib.sha256(), 0, 0
    for chunk in iter_resolution_json(rc, mats.items()):
        raw = chunk.encode()
        digest.update(raw)
        size, widest = size + len(raw), max(widest, len(raw))
    assert size == 39_971_156
    assert digest.hexdigest() == "1e3c243d97c6279181d039ee2fe14765cded00f85fa31d989965912266e5fee6"
    # no record is wider than 144 bytes here: a symbol of F_7, sigma of six
    assert widest <= serialize.CHUNK_RECORDS * 144
