import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from lexres import (
    Monomial, RingContext, decomposition, lexsegment, linear_quotients_check, power_generators,
    powers, quotients, resolution, serialize, verify,
)
from lexres.cli import build_parser, main, parse_monomial, run_command
from lexres.serialize import iter_resolution_json, resolution_from_json


@pytest.fixture
def ctx():
    return RingContext(4)


def test_parse_monomial(ctx):
    assert parse_monomial("x1x3", ctx).exponents == (1, 0, 1, 0)
    assert parse_monomial("x2^2", ctx).exponents == (0, 2, 0, 0)
    assert parse_monomial("1", ctx).exponents == (0, 0, 0, 0)
    assert parse_monomial("x1*x4^2", ctx).exponents == (1, 0, 0, 2)
    assert parse_monomial("x2x2", ctx).exponents == (0, 2, 0, 0)


def test_parse_monomial_errors(ctx):
    for bad in ("x5", "x0", "y2", "x1^0", "x", "x1 x2", "2x1"):
        with pytest.raises(ValueError):
            parse_monomial(bad, ctx)


def test_parse_render_roundtrip(ctx):
    import random

    rng = random.Random(8)
    for _ in range(200):
        m = support.random_monomial(rng, ctx, 6)
        assert parse_monomial(str(m), ctx) == m


def run_python(args):
    # the child finds the package in ./src, as pytest itself does (pyproject.toml)
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
    )


def run_cli(args):
    return run_python(["-m", "lexres", *args])


def test_cli_gen(capsys):
    code = main(["gen", "--n", "4", "--u", "x1x3", "--v", "x2x4"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == ["x1x3", "x1x4", "x2^2", "x2x3", "x2x4"]


def test_cli_gen_prints_the_pair_as_given(capsys):
    # the later commands divide out the common power of x1; gen does not
    args = ["--n", "4", "--u", "x1^2x2", "--v", "x1x3^2"]
    assert main(["gen", *args]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "x1^2x2", "x1^2x3", "x1^2x4", "x1x2^2", "x1x2x3", "x1x2x4", "x1x3^2",
    ]
    assert main(["gen", *args, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["d"] == 3 and data["monomials"][0] == [2, 1, 0, 0]
    # power and the later commands work on the normalized pair L(x1x2, x3^2)
    assert main(["power", *args]) == 0
    divided = capsys.readouterr().out
    assert main(["power", "--n", "4", "--u", "x1x2", "--v", "x3^2"]) == 0
    assert capsys.readouterr().out == divided


def test_cli_ring_drop(capsys):
    # equal powers of x1 in u and v leave L(x2, x3): outside the classified
    # shape, so only the commands that need no classification succeed
    args = ["--n", "4", "--u", "x1x2", "--v", "x1x3"]
    for command in ("gen", "classify", "power", "quotients"):
        assert main([command, *args]) == 0, command
        assert capsys.readouterr().err == ""
    assert main(["classify", *args, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ring_drop"] and data["linear_form"] == {"status": "no", "l": None}
    assert data["notes"].startswith("ring drop: ")
    for command in ("resolve", "verify", "export"):
        assert main([command, *args]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "input error: the (u, v) shape is outside the classified linear-resolution form (ring drop: "
        )


def test_cli_classify_json(capsys):
    code = main(["classify", "--n", "4", "--u", "x1x3", "--v", "x2x4", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["linear_form"] == {"status": "yes", "l": 2}
    assert data["completely_lex"]["status"] in ("unknown", "no")


def test_cli_power_and_quotients(capsys):
    code = main(["power", "--n", "4", "--u", "x1x3", "--v", "x2x4", "--k", "2"])
    out = capsys.readouterr().out
    assert code == 0 and len(out.splitlines()) == 14
    code = main(["quotients", "--n", "4", "--u", "x1x3", "--v", "x2x4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "set(u5) = {3, 4}" in out


def test_cli_resolve_text(capsys):
    code = main(["resolve", "--n", "4", "--u", "x1x3", "--v", "x2x4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "betti: (1, 5, 6, 2)" in out
    assert "S <- S(-2)^5 <- S(-3)^6 <- S(-4)^2" in out


def test_cli_resolve_refuses_unclassified(capsys):
    code = main(["resolve", "--n", "3", "--u", "x1x2", "--v", "x2x3"])
    assert code == 2
    capsys.readouterr()
    # with --oracle-g the general construction runs on this instance, which
    # has linear quotients and a regular decomposition function
    code = main(["resolve", "--n", "3", "--u", "x1x2", "--v", "x2x3", "--oracle-g"])
    out = capsys.readouterr().out
    assert code == 0
    assert "betti: (1, 4, 4, 1)" in out


def test_cli_resolve_nonlinear_is_check_failure(capsys):
    # L(x1x2, x2^2) fails linear quotients in increasing revlex order
    code = main(["resolve", "--n", "3", "--u", "x1x2", "--v", "x2^2", "--oracle-g"])
    assert code == 1


def test_cli_verify(capsys):
    for seed in ("0", "-3"):
        code = main(["verify", "--n", "4", "--u", "x1x3", "--v", "x2x4", "--k", "2",
                     "--trials", "2", "--seed", seed])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS]" in out and "[FAIL]" not in out


def test_cli_verify_refuses_unclassified(capsys):
    # degree 1 is outside the classified shape: verify needs --oracle-g, as
    # resolve and export do
    args = ["verify", "--n", "3", "--u", "x1", "--v", "x3", "--k", "3", "--trials", "2"]
    code = main(args)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("input error: the (u, v) shape is outside the classified")
    code = main(args + ["--oracle-g"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] Euler characteristic equals Hilbert numerator: 1 - 10t^3 + 15t^4 - 6t^5" in out
    assert "[FAIL]" not in out


def test_cli_verify_skips_hilbert_over_budget(capsys, monkeypatch):
    args = ["verify", *_EXAMPLE, "--k", "2", "--trials", "2"]
    assert main(args) == 0
    passed = capsys.readouterr().out.splitlines()
    assert all(line.startswith("[PASS] ") for line in passed)
    # the worked example at k=2 fits the lcm grid, one node within any
    # budget; with _GRID_CELLS at 0 the root splits, and the second node
    # passes a budget of 1
    monkeypatch.setattr(verify, "DEFAULT_HILBERT_BUDGET", 1)
    monkeypatch.setattr(verify, "_GRID_CELLS", 0)
    assert main(args) == 0
    skip = "[SKIP] Euler/Hilbert identity: hilbert recursion exceeded 1 nodes"
    assert capsys.readouterr().out.splitlines() == [
        skip if line.startswith("[PASS] Euler characteristic") else line for line in passed
    ]


def test_cli_input_error():
    assert main(["gen", "--n", "4", "--u", "x9", "--v", "x2x4"]) == 2
    assert main(["gen", "--n", "4", "--u", "x2x4", "--v", "x1x3"]) == 2


@pytest.mark.parametrize("text", ["", "   "], ids=["empty", "blank"])
def test_empty_monomial_is_malformed(ctx, capsys, text):
    # no factors is no monomial: the text is refused where it is parsed, not
    # read as 1 and refused later for an unrelated reason
    with pytest.raises(ValueError, match="malformed monomial '': it has no factors"):
        parse_monomial(text, ctx)
    assert main(["gen", "--n", "3", "--u", text, "--v", text]) == 2
    assert capsys.readouterr().err == ("input error: malformed monomial '': it has no factors "
                                       "(the monomial 1 is written 1)\n")
    assert parse_monomial(" 1 ", ctx).is_one()


@pytest.mark.parametrize("command", [["resolve"], ["export", "--format", "json"], ["export", "--format", "m2"],
                                     ["verify"]], ids=["resolve", "json", "m2", "verify"])
@pytest.mark.parametrize("power", ["x1", "x1^2"])
@pytest.mark.parametrize("oracle", [[], ["--oracle-g"]], ids=["classified", "oracle-g"])
def test_cli_degree_zero_pair_is_input_error(capsys, command, power, oracle):
    # u = v = x1^d normalizes to L(1, 1), the unit ideal: there is nothing to
    # resolve, with or without --oracle-g
    code = main([*command, "--n", "3", "--u", power, "--v", power, *oracle])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"input error: u = v = {power} normalizes to the unit ideal L(1, 1): " \
                           "there is no resolution to build\n"


def test_cli_verify_scans_regularity_once(monkeypatch, capsys):
    # _verify and stream_resolution both read the regularity report of the
    # definitional g: one scan per quotient structure, cached beside its table
    scans = []
    report = decomposition.RegularityReport

    def counted(*args, **kwargs):
        scans.append(args)
        return report(*args, **kwargs)

    monkeypatch.setattr(decomposition, "RegularityReport", counted)
    for argv in (_UNCLASSIFIED, _EXAMPLE):
        scans.clear()
        assert main(["verify", *argv]) == 0
        assert "[FAIL]" not in capsys.readouterr().out
        assert len(scans) == 1, argv


@pytest.mark.parametrize("where", ["missing directory", "a directory"])
def test_cli_unwritable_out_is_input_error(tmp_path, capsys, where):
    out = tmp_path / "missing" / "x.json" if where == "missing directory" else tmp_path
    args = ["export", "--n", "4", "--u", "x1x3", "--v", "x2x4", "--format", "json"]
    code = main(args + ["--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("input error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and captured.out == ""


def test_cli_verify_rejects_no_trials(capsys, monkeypatch):
    def no_pipeline(*args, **kwargs):
        raise AssertionError("the pipeline ran before the trial count was checked")

    monkeypatch.setattr("lexres.cli.power_generators", no_pipeline)
    for trials in ("0", "-2"):
        code = main(["verify", "--n", "4", "--u", "x1x3", "--v", "x2x4", "--trials", trials])
        captured = capsys.readouterr()
        assert code == 2
        assert "PASS" not in captured.out
        assert "input error" in captured.err


def test_cli_broken_invariant_is_check_failure(capsys, monkeypatch):
    # a lex walk that ends early is a broken invariant, reported as exit 1
    # without a traceback
    monkeypatch.setattr("lexres.lexsegment.lex_successor", lambda m: None)
    code = main(["gen", "--n", "4", "--u", "x1x3", "--v", "x2x4"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "check failed: lex walk fell off the end before reaching v\n"


_EXAMPLE = ["--n", "4", "--u", "x1x3", "--v", "x2x4"]
_UNCLASSIFIED = ["--n", "3", "--u", "x1x2", "--v", "x2x3", "--oracle-g"]
# the originals, which the replacements below call while patched over
_high_branch, _closed_form_table = quotients.high_branch, decomposition.closed_form_table
_enumerate_lexsegment = lexsegment.enumerate_lexsegment


def _low_branch_only(pi, gen, X):
    first, _ = _high_branch(pi, gen, X)
    return first, np.zeros(len(gen), dtype=bool)


def _flipped_branch(pi, gen, X):
    first, high = _high_branch(pi, gen, X)
    return first, ~high


def _corrupted_closed_form(qs):
    table = _closed_form_table(qs)
    table[0][3, 3] = 0  # g(x4*x1x3) = x2x4, not x1x4
    return table


def _not_regular(qs):
    return decomposition.RegularityReport(False, (Monomial(qs.power.spec.ctx, qs.power.exponent_matrix[1]), 2, 3))


def _segment_with_x3_cubed(u, v):
    return _enumerate_lexsegment(u, v) + [Monomial(u.ctx, (0, 0, 3))]


def _never_assembled(qs):
    raise AssertionError("verify assembled the complex after a failed check")


@pytest.mark.parametrize(
    "target, replacement, argv, err, out",
    [
        ("lexres.quotients.high_branch", _low_branch_only, ["verify"] + _EXAMPLE,
         "check failed: x2^2 has no support beyond x2", ""),
        ("lexres.decomposition.high_branch", _flipped_branch, ["verify"] + _EXAMPLE,
         "check failed: closed form left G(I^k): g(x2*x1x4) = x1x2 is not a generator (branch low)", ""),
        ("lexres.decomposition.closed_form_table", _corrupted_closed_form, ["verify"] + _EXAMPLE, "",
         "[PASS] linear quotients\n"
         "[PASS] set(m) bounds (min / tilde-min)\n"
         "[FAIL] closed-form g equals definitional g: first mismatch at (x1x3, x4): x2x4 vs x1x4\n"
         "[PASS] decomposition function regular\n"),
        ("lexres.resolution.regularity_check_oracle", _not_regular, ["resolve"] + _UNCLASSIFIED,
         "check failed: cannot resolve: decomposition function not regular: t=3 in set(g(x2*x1x3))", ""),
        ("lexres.powers.enumerate_lexsegment", _segment_with_x3_cubed, ["resolve"] + _UNCLASSIFIED,
         "check failed: generators of I^1 have degrees [2, 3], not one", ""),
    ],
    ids=["set-bound", "closed-form-fault", "disagreement", "not-regular", "mixed-degree"],
)
def test_cli_failed_check_exits_1(capsys, monkeypatch, target, replacement, argv, err, out):
    # each failure is found on well-formed input, so it is a failed check (exit 1),
    # never an input error (exit 2): a one-line message on stderr, or verify's
    # report, which ends before assembly
    monkeypatch.setattr(target, replacement)
    if argv[0] == "verify":
        monkeypatch.setattr("lexres.cli.stream_resolution", _never_assembled)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == out
    assert captured.err.startswith(err) and captured.err.count("\n") == bool(err)
    assert "Traceback" not in captured.err


def test_cli_budget_exit():
    assert main(["power", "--n", "6", "--u", "x1x3", "--v", "x2x6", "--k", "40"]) == 3


@pytest.mark.parametrize("d", [6, 8])
def test_cli_segment_refused_before_walk(capsys, d):
    # L(x1^d, x30^d) holds all C(29 + d, d) monomials of degree d, 1,623,160
    # for d = 6 and 38,608,020 for d = 8: counted, never walked
    start = time.perf_counter()
    assert main(["power", "--n", "30", "--u", f"x1^{d}", "--v", f"x30^{d}"]) == 3
    assert time.perf_counter() - start < 1.0
    size = math.comb(29 + d, d)
    assert capsys.readouterr().err == (
        f"budget exceeded: |L|={size}, k=1: {size} candidate products exceed budget {lexsegment.DEFAULT_PRODUCT_BUDGET}\n"
    )


@pytest.mark.parametrize("k", [2000, 10**6])
def test_cli_power_count_past_int64_refused_without_it(capsys, k):
    # C(1623159 + k, k) candidate products: for k = 2000 its digits pass
    # Python's int-to-text limit, and for k = 10^6 the exact count takes
    # half a minute; past int64 the count is neither worked out nor printed
    start = time.perf_counter()
    assert main(["power", "--n", "30", "--u", "x1^6", "--v", "x30^6", "--k", str(k)]) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        f"budget exceeded: |L|=1623160, k={k}: more than {2**63 - 1} candidate products exceed budget 1000000\n"
    )


@pytest.mark.parametrize("command", ["gen", "classify"])
def test_cli_walks_refused_before_they_start(capsys, command):
    # gen walks L(x1^6, x30^6), all C(35, 6) = 1,623,160 sextics in 30
    # variables, and classify starts from the same segment; L(x1x2, x2x20000)
    # holds 39,998 members of 20,000 exponents each, and classify's first
    # shadow of L(x1x2, x2x3000) may have 3000 * 5998 monomials: counted, never
    # walked (gen walks that last one, 17,994,000 cells, within its budget).
    # The first shadow of L(x1x2, x2x700) may have 700 * 1398 monomials, within
    # the product budget, but of 700 exponents each
    refusals = [
        ("30", "x1^6", "x30^6", "L(x1^6, x30^6) has 1623160 monomials, over the budget 1000000"),
        ("20000", "x1x2", "x2x20000", "L(x1x2, x2x20000) has 39998 monomials of 20000 exponents, 799960000 cells, "
         "over the budget 100000000" if command == "gen" else "Shad^1 may have 799960000 monomials, over the budget 1000000"),
        ("3000", "x1x2", "x2x3000", "Shad^1 may have 17994000 monomials, over the budget 1000000"),
        ("700", "x1x2", "x2x700", "Shad^1 may have 978600 monomials of 700 exponents, 685020000 cells, "
         "over the budget 100000000"),
    ]
    for n, u, v, err in refusals[:2] if command == "gen" else refusals:
        start = time.perf_counter()
        assert main([command, "--n", n, "--u", u, "--v", v]) == 3
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == f"budget exceeded: {err}\n"


def test_cli_gen_cell_budget_edge(monkeypatch, capsys):
    # L(x1x3, x2x4) has 5 members of 4 exponents, 20 cells
    monkeypatch.setattr("lexres.lexsegment.DEFAULT_CELL_BUDGET", 20)
    assert main(["gen", *_EXAMPLE]) == 0
    capsys.readouterr()
    monkeypatch.setattr("lexres.lexsegment.DEFAULT_CELL_BUDGET", 19)
    assert main(["gen", *_EXAMPLE]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "budget exceeded: L(x1x3, x2x4) has 5 monomials of 4 exponents, 20 cells, over the budget 19\n"


def test_cli_classify_shadow_bounded_before_it_is_built(monkeypatch, capsys):
    # L(x1x3, x2x4) has 5 members, so Shad^1 is bounded by 4 * 5 = 20
    # monomials of 4 exponents, 80 cells
    argv = ["classify", *_EXAMPLE, "--depth", "1"]
    for budget, edge, err in (("DEFAULT_PRODUCT_BUDGET", 20, "Shad^1 may have 20 monomials, over the budget 19"),
                              ("DEFAULT_CELL_BUDGET", 80,
                               "Shad^1 may have 20 monomials of 4 exponents, 80 cells, over the budget 79")):
        monkeypatch.setattr(f"lexres.lexsegment.{budget}", edge)
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(f"lexres.lexsegment.{budget}", edge - 1)
        assert main(argv) == 3
        assert capsys.readouterr().err == f"budget exceeded: {err}\n"
        monkeypatch.undo()


def test_candidate_rows_budget_edge(monkeypatch, capsys):
    # the worked example squared forms C(5 + 1, 2) = 15 candidate rows of 4 cells
    monkeypatch.setattr(powers, "ENTRY_BUDGET", 60)
    assert main(["power", *_EXAMPLE, "--k", "2"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(powers, "ENTRY_BUDGET", 59)
    assert main(["power", *_EXAMPLE, "--k", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "budget exceeded: the candidate rows have 60 cells, over the budget 59\n"


def test_candidate_rows_refused_before_they_are_built(capsys):
    # |L(x1x3, x2x200)| = 397, so k = 2 forms C(398, 2) = 79,003 rows of 200
    # cells; n=8, k=2 (x1x4..x8 / x2x8^5) forms 1,164,240 cells and is admitted
    start = time.perf_counter()
    assert main(["quotients", "--n", "200", "--u", "x1x3", "--v", "x2x200", "--k", "2"]) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "budget exceeded: the candidate rows have 15800600 cells, over the budget 8000000\n"
    )
    spec, _ = support.build_family_spec(8, (1, 0, 0, 1, 1, 1, 1, 1), (0, 1, 0, 0, 0, 0, 0, 5))
    size = lexsegment.lex_rank(spec.v) - lexsegment.lex_rank(spec.u) + 1
    assert math.comb(size + 1, 2) * 8 == 1_164_240 <= powers.ENTRY_BUDGET


def test_neighbour_table_budget_edge(monkeypatch, capsys):
    # the exchange-neighbour table of the worked example squared has
    # |G| n^2 = 14 * 4^2 = 224 cells
    monkeypatch.setattr(powers, "ENTRY_BUDGET", 224)
    assert main(["quotients", *_EXAMPLE, "--k", "2"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(powers, "ENTRY_BUDGET", 223)
    for command in (["quotients"], ["verify", "--trials", "2"]):
        assert main([*command, *_EXAMPLE, "--k", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "budget exceeded: the exchange-neighbour table has 224 cells, over the budget 223\n"


def test_neighbour_table_refused_before_it_is_built(monkeypatch, capsys):
    # the C(42, 3) = 11,480 cubics in 40 variables need 18,368,000 cells
    def no_table(G, k):
        raise AssertionError("the table was built")

    monkeypatch.setattr(powers, "_exchange_neighbours", no_table)
    assert main(["quotients", "--n", "40", "--u", "x1^3", "--v", "x40^3"]) == 3
    assert capsys.readouterr().err == (
        "budget exceeded: the exchange-neighbour table has 18368000 cells, over the budget 8000000\n"
    )


def test_complex_budget_edge(monkeypatch, capsys):
    # the entry bound sum_i 2 i beta_{i+1} of the worked example squared,
    # betti (1, 14, 24, 13, 2), is 2*24 + 4*13 + 6*2 = 112; the actual count is 100
    argv = ["export", *_EXAMPLE, "--k", "2", "--format", "json", "--out", os.devnull]
    monkeypatch.setattr(resolution, "ENTRY_BUDGET", 112)
    assert main(argv) == 0
    monkeypatch.setattr(resolution, "ENTRY_BUDGET", 111)
    for command in (["export", "--format", "json"], ["verify", "--trials", "2"]):
        assert main([*command, *_EXAMPLE, "--k", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "budget exceeded: the complex may have 112 entries, over the budget 111\n"


def test_rank_check_points_budget_edge(monkeypatch, capsys):
    # verify --trials 3 on the worked example draws 3 points of 4
    # coordinates, 12 cells, counted against ENTRY_BUDGET before any is drawn
    argv = ["verify", *_EXAMPLE, "--trials", "3"]
    monkeypatch.setattr(verify, "ENTRY_BUDGET", 12)
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(verify, "ENTRY_BUDGET", 11)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "budget exceeded: 3 points of 4 coordinates are 12 cells, over the budget 11\n"


def test_rank_check_points_default_budget(capsys):
    # --trials 10^7 on the worked example squared is 4 * 10^7 cells: refused
    # with one line, and no traceback, before points that would take
    # gigabytes are drawn
    assert main(["verify", *_EXAMPLE, "--k", "2", "--trials", str(10**7)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "budget exceeded: 10000000 points of 4 coordinates are 40000000 cells, over the budget 8000000\n"
    )


def test_complex_budget_default_admits_n8(monkeypatch):
    # n=8, k=2 bounds 6,178,528 entries; the call after the budget check,
    # the definitional g's regularity check, stops the build, so the complex
    # itself is never allocated
    class PastBudget(Exception):
        pass

    def stop(qs):
        raise PastBudget

    spec, _ = support.build_family_spec(8, (1, 0, 0, 1, 1, 1, 1, 1), (0, 1, 0, 0, 0, 0, 0, 5))
    qs = linear_quotients_check(power_generators(spec, 2))
    monkeypatch.setattr(resolution, "regularity_check_oracle", stop)
    with pytest.raises(PastBudget):
        resolution.stream_resolution(qs)


def _counting_stream(alive):
    """stream_resolution, recording as each differential is built how many
    of those built so far are still alive, itself included."""
    def stream(qs):
        rc, differentials = resolution.stream_resolution(qs)

        def counted():
            refs = []
            for item in differentials:
                refs.append(weakref.ref(item[1]))
                alive.append(sum(ref() is not None for ref in refs))
                yield item
                del item

        return rc, counted()
    return stream


@pytest.mark.parametrize("command, held", [
    (["export", "--format", "json", "--out", os.devnull], [1, 1, 1]),
    (["verify", "--trials", "2"], [1, 2, 2]),
], ids=["export", "verify"])
def test_commands_hold_one_or_two_differentials(monkeypatch, capsys, command, held):
    # the worked example squared has d1, d2 and d3: export drops each before
    # the next is built, verify keeps d_i beside d_{i+1} and no more
    alive = []
    monkeypatch.setattr("lexres.cli.stream_resolution", _counting_stream(alive))
    assert main([*command, *_EXAMPLE, "--k", "2"]) == 0
    assert alive == held
    capsys.readouterr()


def test_export_peak_memory_of_the_large_instance(tmp_path):
    # the large benchmark instance, n=6, x1x4x5x6 / x2x6^3, k=2: with all five
    # differentials held at once and chunks of 2^15 records, one export
    # peaked at 2.8 MB under tracemalloc
    argv = ["export", "--format", "json", "--out", str(tmp_path / "large.json"),
            "--n", "6", "--u", "x1x4x5x6", "--v", "x2x6^3", "--k", "2"]
    assert main(argv) == 0  # lazy set-up is not counted
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def _no_differential(*args):
    raise AssertionError("a differential was built")


def _text_cells(argv):
    rc, mats = support.cli_resolution(argv)
    return len(rc.power) + sum(m.nrows * m.ncols for m in mats.values())


def test_cli_text_budget_edge(monkeypatch, capsys):
    # the dense text matrices are counted from the Betti numbers before any
    # differential is built
    argv = ["resolve", *_EXAMPLE, "--k", "2"]
    cells = _text_cells(argv[1:])
    monkeypatch.setattr(serialize, "TEXT_CELL_BUDGET", cells)
    assert main(argv) == 0
    assert "betti: (1, 14, 24, 13, 2)" in capsys.readouterr().out
    monkeypatch.setattr(serialize, "TEXT_CELL_BUDGET", cells - 1)
    monkeypatch.setattr("lexres.resolution._differential", _no_differential)
    for command in (argv, ["export", "--format", "text", *argv[1:]]):
        assert main(command) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"budget exceeded: the text matrices have {cells} cells, over the budget {cells - 1}\n"


def test_cli_text_budget_default_admits_large_only():
    # the default renders the large benchmark instance and refuses the n=7 ladder row
    large = _text_cells(["--n", "6", "--u", "x1x4x5x6", "--v", "x2x6^3", "--k", "2"])
    assert large == 5_597_078 <= serialize.TEXT_CELL_BUDGET
    assert main(["resolve", "--n", "7", "--u", "x1x4x5x6x7", "--v", "x2x7^4", "--k", "2"]) == 3


def test_cli_json_stdout_matches_out(tmp_path, capsys):
    args = ["export", "--n", "5", "--u", "x1x4x5", "--v", "x2x5^2", "--k", "2", "--format", "json"]
    assert main(args) == 0
    out_path = tmp_path / "res.json"
    assert main([*args, "--out", str(out_path)]) == 0
    assert capsys.readouterr().out.encode() == out_path.read_bytes()


def test_cli_json_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "res.json"
    code = main([
        "export", "--n", "4", "--u", "x1x3", "--v", "x2x4", "--k", "2",
        "--format", "json", "--out", str(out_path),
    ])
    assert code == 0
    text = out_path.read_text()
    rc, differentials = resolution_from_json(text)
    assert rc.betti == (1, 14, 24, 13, 2)
    assert support.resolution_to_json(rc, dict(differentials)) == text


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json"
PINNED = [
    (name, inst["id"])
    for name, workload in json.loads(WORKLOADS.read_text()).items()
    if isinstance(workload, dict)
    for inst in workload["instances"]
]


def _pinned(workload, instance_id):
    """A pinned benchmark instance and the options that select it."""
    instances = json.loads(WORKLOADS.read_text())[workload]["instances"]
    inst = next(i for i in instances if i["id"] == instance_id)
    return inst, support.instance_argv(inst)


@pytest.mark.parametrize("workload, instance_id", PINNED)
def test_cli_export_matches_pinned_digest(tmp_path, workload, instance_id):
    # the benchmark's pinned sha256 of `lexres export --format json`
    inst, args = _pinned(workload, instance_id)
    out_path = tmp_path / "export.json"
    assert main(["export", "--format", "json", "--out", str(out_path), *args]) == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == inst["sha256"]


@pytest.mark.parametrize("workload, instance_id", PINNED)
def test_cli_verify_matches_pinned_checks(capsys, workload, instance_id):
    # the benchmark's correctness gate on `lexres verify`: exit 0, every line
    # [PASS], and the pinned check names in order
    inst, args = _pinned(workload, instance_id)
    assert main(["verify", *args]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.startswith("[PASS] ") for line in lines)
    assert [line[len("[PASS] "):].split(":", 1)[0] for line in lines] == inst["checks"]


def test_cli_determinism(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    args = ["verify", "--n", "4", "--u", "x1x3", "--v", "x2x4", "--seed", "9", "--trials", "3"]
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_cli_m2_export(capsys, monkeypatch):
    # the script declares G(I^k) alone, so no differential is built for it
    monkeypatch.setattr("lexres.resolution._differential", _no_differential)
    code = main(["export", "--n", "4", "--u", "x1x3", "--v", "x2x4", "--format", "m2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "R = QQ[x1,x2,x3,x4];" in out
    assert "I = ideal(x2*x4,x1*x4,x2*x3,x1*x3,x2^2);" in out
    assert "betti C" in out


@pytest.mark.parametrize("n, u, v, betti", [
    (62, "x1x60", "x1x62", (1, 3, 3, 1)),
    (63, "x1x62", "x1x63", (1, 2, 1)),
    (64, "x1x62", "x1x64", (1, 3, 3, 1)),
    (70, "x1x68", "x1x70", (1, 3, 3, 1)),  # x69 and x70 in the sets: past any int64 bit mask
], ids=["n62", "n63", "n64", "n70"])
@pytest.mark.parametrize("command", [["export", "--format", "json"], ["export", "--format", "text"],
                                     ["resolve"], ["verify"]], ids=["json", "text", "resolve", "verify"])
def test_cli_basis_keys_past_int64_are_a_budget(capsys, n, u, v, betti, command):
    # generators whose 63-bit basis lookup keys (gen << n) | (mask >> 1) would
    # pass 2^63, once refused with exit 3: rows are found by arithmetic on
    # the sets, so they resolve, and the JSON export reads back to itself
    assert main([*command, "--n", str(n), "--u", u, "--v", v, "--oracle-g"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if command[-1] == "json":
        rc, differentials = resolution_from_json(captured.out)
        assert rc.betti == betti and "".join(iter_resolution_json(rc, differentials)) == captured.out
    elif command == ["verify"]:
        lines = captured.out.splitlines()
        assert len(lines) == len(betti) + 5 and all(line.startswith("[PASS] ") for line in lines)
    else:
        assert f"betti: {betti}" in captured.out


@pytest.mark.parametrize("n, u, v, betti", [
    (61, "x1x59", "x1x61", (1, 3, 3, 1)),
    (64, "x1x64", "x1x64", (1, 1)),  # one generator, whose set is empty
], ids=["n61", "n64-lone"])
def test_cli_basis_keys_below_2_63_resolve(capsys, n, u, v, betti):
    argv = ["--n", str(n), "--u", u, "--v", v, "--oracle-g"]
    assert main(["verify", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(betti) + 5 and all(line.startswith("[PASS] ") for line in lines)
    assert main(["export", "--format", "json", *argv]) == 0
    rc, _ = resolution_from_json(capsys.readouterr().out)
    assert rc.betti == betti
    assert main(["resolve", *argv]) == 0
    assert f"betti: {betti}" in capsys.readouterr().out


_INT64_MAX = 2**63 - 1


@pytest.mark.parametrize("command", [["power"], ["quotients"], ["resolve"], ["verify"], ["export", "--format", "json"]],
                         ids=["power", "quotients", "resolve", "verify", "json"])
@pytest.mark.parametrize("e, k", [(2**63, 1), (2**62, 2)], ids=["exponent", "sum"])
def test_cli_degree_past_int64_is_input_error(capsys, command, e, k):
    # kd = 2^63 + 1 has an exponent past int64, and 2 (2^62 + 1) = 2^63 + 2
    # would wrap in the sum of two rows: refused before any row is built
    argv = [*command, "--n", "2", "--u", f"x1x2^{e}", "--v", f"x2^{e + 1}", "--k", str(k), "--oracle-g"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"input error: the generators of I^{k} have degree {k * (e + 1)}, "
        f"over {_INT64_MAX}, the int64 limit of their rows\n"
    )


@pytest.mark.parametrize("kd", [_INT64_MAX - 1, _INT64_MAX])
def test_cli_degree_up_to_int64_resolves(capsys, kd):
    argv = ["--n", "2", "--u", f"x1x2^{kd - 2}", "--v", f"x2^{kd - 1}", "--oracle-g"]
    assert main(["power", *argv]) == 0
    assert capsys.readouterr().out == f"u1 = x2^{kd - 1}\nu2 = x1x2^{kd - 2}\n"
    assert main(["verify", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8 and all(line.startswith("[PASS] ") for line in lines)


def test_cli_gen_and_classify_take_degrees_past_int64(capsys):
    # they build no exponent rows, so a degree past int64 is theirs to print
    argv = ["--n", "2", "--u", f"x1x2^{2**63}", "--v", f"x2^{2**63 + 1}"]
    assert main(["gen", *argv]) == 0
    assert capsys.readouterr().out == f"x1x2^{2**63}\nx2^{2**63 + 1}\n"
    assert main(["classify", *argv]) == 0
    assert "linear-resolution shape: no" in capsys.readouterr().out


def _closed_form_evaluated(*args):
    raise AssertionError("the closed form was evaluated")


@pytest.mark.parametrize("command", [["resolve"], ["export", "--format", "json"], ["export", "--format", "text"]],
                         ids=["resolve", "json", "text"])
def test_cli_build_never_evaluates_the_closed_form(capsys, monkeypatch, command):
    # a classified spec is assembled from the definitional g alone;
    # decomposition.high_branch is read by the closed form and nothing else
    argv = [*command, *_EXAMPLE, "--k", "2"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr("lexres.decomposition.high_branch", _closed_form_evaluated)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_cli_never_loads_numpy_random():
    # the rank check draws its points from random.Random
    code = (
        "import os, sys\n"
        "from lexres.cli import main\n"
        f"args = {_EXAMPLE + ['--k', '2', '--out', os.devnull]!r}\n"
        "assert main(['verify', *args]) == 0\n"
        "assert main(['export', '--format', 'json', *args]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))\n"
    )
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_subprocess_entrypoint():
    proc = run_cli(["gen", "--n", "4", "--u", "x1x3", "--v", "x2x4"])
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "x1x3"


@pytest.mark.parametrize("argv", [_EXAMPLE, ["--n", "6", "--u", "x1x4x5x6", "--v", "x2x6^3", "--k", "2"]],
                         ids=["example", "large"])
def test_cli_export_and_verify_leave_numpy_ma_unimported(argv, tmp_path):
    # numpy imports numpy.ma lazily, from np.unique among others: about
    # 0.85 MB of RSS that the benchmark's peak_rss_mb would read as lexres's
    out = str(tmp_path / "out.json")
    proc = run_python(["-c", "import sys; from lexres.cli import main; "
                       f"assert main(['export', '--format', 'json', '--out', {out!r}, *{argv!r}]) == 0; "
                       f"assert main(['verify', *{argv!r}]) == 0; print('numpy.ma' in sys.modules)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_parser_flags():
    parser = build_parser()
    args = parser.parse_args(
        ["classify", "--n", "5", "--u", "x1", "--v", "x2", "--depth", "3", "--first-shadow-persistence"]
    )
    assert args.depth == 3 and args.first_shadow_persistence


def test_run_command_takes_parsed_args(capsys):
    args = build_parser().parse_args(["gen", "--n", "2", "--u", "x1^2", "--v", "x2^2"])
    assert run_command(args) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["x1^2", "x1x2", "x2^2"]


@st.composite
def _cli_inputs(draw):
    """Options for every command: n <= 5, u and v of one degree d <= 3, k <= 2,
    with or without --oracle-g.  Most pairs are normalized, x1 | u and
    x1 ∤ v; the others are any two monomials.  Some carry one more factor
    x_n^e on both ends, with e far past int64."""
    n, d = draw(st.integers(2, 5)), draw(st.integers(1, 3))

    def monomial(low, x1):
        # x1 times d - x1 variables from x_{low+1} on
        rest = draw(st.lists(st.integers(low, n - 1), min_size=d - x1, max_size=d - x1))
        return str(Monomial(RingContext(n), list(map(([0] * x1 + rest).count, range(n)))))

    if draw(st.integers(0, 3)):
        u, v = monomial(0, 1), monomial(1, 0)
    else:
        u, v = monomial(0, 0), monomial(0, 0)
    # now and then x_n^e on both ends: kd past int64 at e = 2^63, and at
    # e = 2^62 when k = 2
    e = draw(st.sampled_from((0, 0, 0, 0, 2**62, 2**63)))
    if e:
        u, v = (f"{m}x{n}^{e}" for m in (u, v))
    args = ["--n", str(n), "--u", u, "--v", v, "--k", str(draw(st.integers(1, 2)))]
    return args + (["--oracle-g"] if draw(st.booleans()) else [])


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(args=_cli_inputs())
def test_cli_exit_codes_property(args):
    # every command ends in a documented exit code, never in a traceback
    for command in ("gen", "classify", "power", "quotients", "resolve", "verify", "export"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, *args])
        assert code in (0, 1, 2, 3), (command, args)
        assert "Traceback" not in err.getvalue(), (command, args)
