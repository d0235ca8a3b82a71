"""Command-line surface: build, inspect and verify resolutions.

Commands: gen, classify, power, quotients, resolve, verify, export.
Exit codes: 0 ok, 1 failed check, 2 input error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .decomposition import closed_form_matches_oracle, regularity_check_oracle
from .errors import BudgetError, CheckFailure
from .lexsegment import (
    enumerate_lexsegment,
    is_completely_lexsegment,
    make_classified_spec,
)
from .monomials import Monomial, RingContext
from .powers import power_generators
from .quotients import linear_quotients_check, set_bound_report
from .resolution import stream_resolution
from .serialize import iter_resolution_json, power_ideal_to_m2, resolution_to_text
from .verify import euler_characteristic_numerator, hilbert_numerator, random_rank_check

_FACTOR = re.compile(r"\*?x(\d+)(?:\^(\d+))?")


def parse_monomial(text: str, ctx: RingContext) -> Monomial:
    """Parse "1", "x1x3", "x2^2", "x1*x4^2" into a monomial of the ring."""
    text = text.strip()
    if not text:
        raise ValueError(f"malformed monomial {text!r}: it has no factors (the monomial 1 is written 1)")
    if text == "1":
        return Monomial(ctx, (0,) * ctx.n)
    exps = [0] * ctx.n
    pos = 0
    while pos < len(text):
        m = _FACTOR.match(text, pos)
        if m is None:
            raise ValueError(f"malformed monomial {text!r} at position {pos}")
        i = int(m.group(1))
        e = int(m.group(2)) if m.group(2) else 1
        if not 1 <= i <= ctx.n:
            raise ValueError(f"variable x{i} out of range 1..{ctx.n}")
        if e < 1:
            raise ValueError(f"exponent {e} must be >= 1 in {text!r}")
        exps[i - 1] += e
        pos = m.end()
    return Monomial(ctx, exps)


def _emit(args: argparse.Namespace, text):
    """Write the output, one string or an iterable of chunks, to --out or stdout."""
    chunks = [text] if isinstance(text, str) else text
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _spec_pipeline(args: argparse.Namespace):
    ctx = RingContext(args.n)
    u = parse_monomial(args.u, ctx)
    v = parse_monomial(args.v, ctx)
    return make_classified_spec(u, v)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def run_command(args: argparse.Namespace) -> int:
    """Run one parsed command line (build_parser().parse_args) and return its exit code."""
    if args.command == "gen":
        _, record, _ = _spec_pipeline(args)  # the same input checks as every command
        u = record.original_u
        segment = enumerate_lexsegment(u, record.original_v)
        if args.fmt == "json":
            _emit(args, _json_dumps({"n": args.n, "d": u.degree, "monomials": [list(m.exponents) for m in segment]}))
        else:
            _emit(args, "\n".join(str(m) for m in segment) + "\n")
        return 0

    if args.command == "classify":
        spec, record, cls = _spec_pipeline(args)
        verdict = is_completely_lexsegment(
            spec, depth=args.depth, first_shadow_persistence=args.first_shadow_persistence
        )
        if args.fmt == "json":
            payload = {
                "n": args.n,
                "d": spec.d,
                "normalized_u": list(spec.u.exponents),
                "normalized_v": list(spec.v.exponents),
                "shift": record.shift,
                "ring_drop": record.ring_drop,
                "completely_lex": {
                    "status": verdict.status,
                    "depth_checked": verdict.depth_checked,
                    "failing_depth": verdict.failing_depth,
                    "witness": list(verdict.witness.exponents) if verdict.witness else None,
                },
                "linear_form": {"status": "yes" if cls.has_linear_form else "no", "l": cls.linear_form_l},
                "notes": cls.notes,
            }
            _emit(args, _json_dumps(payload))
        else:
            lines = [
                f"normalized: u = {spec.u}, v = {spec.v}"
                + (f" (divided by x1^{record.shift})" if record.shift else ""),
                f"completely lexsegment: {verdict.describe()}",
                "linear-resolution shape: "
                + (f"yes with l = {cls.linear_form_l}" if cls.has_linear_form else "no"),
                f"notes: {cls.notes}",
            ]
            _emit(args, "\n".join(lines) + "\n")
        return 0

    if args.command == "power":
        spec, _, _ = _spec_pipeline(args)
        pi = power_generators(spec, args.k)
        if args.fmt == "json":
            _emit(args, _json_dumps({"n": args.n, "d": spec.d, "k": args.k, "generators": pi.exponent_matrix.tolist()}))
        else:
            rows = pi.exponent_matrix.tolist()
            _emit(args, "\n".join(f"u{j + 1} = {Monomial(spec.ctx, g)}" for j, g in enumerate(rows)) + "\n")
        return 0

    if args.command == "quotients":
        spec, _, _ = _spec_pipeline(args)
        qs = linear_quotients_check(power_generators(spec, args.k))
        if args.fmt == "json":
            offending = list(qs.offending.exponents) if qs.offending else None
            _emit(args, _json_dumps({"n": args.n, "d": spec.d, "k": args.k, "status": qs.status,
                                     "failure_index": qs.failure_index, "offending": offending,
                                     "sets": [list(s) for s in qs.sets]}))
        else:
            lines = [f"status: {qs.status}"]
            if not qs.is_linear:
                lines.append(f"colon at u{qs.failure_index + 1} has non-variable generator {qs.offending}")
            lines += [f"set(u{j + 1}) = {{{', '.join(map(str, s))}}}" for j, s in enumerate(qs.sets)]
            _emit(args, "\n".join(lines) + "\n")
        return 1 if not qs.is_linear else 0

    if args.command in ("resolve", "export"):
        qs = _quotients(args)
        if not qs.is_linear:
            raise CheckFailure(
                f"linear quotients fail at u{qs.failure_index + 1}: colon contains {qs.offending}"
            )
        if args.fmt == "m2":  # the script declares G(I^k) alone
            _emit(args, power_ideal_to_m2(qs.power))
            return 0
        # one differential at a time: built, rendered, dropped
        rc, differentials = stream_resolution(qs)
        if args.fmt == "json":
            _emit(args, iter_resolution_json(rc, differentials))
        else:
            _emit(args, resolution_to_text(rc, differentials))
        return 0

    if args.command == "verify":
        return _verify(args)

    raise ValueError(f"unknown command {args.command!r}")


def _quotients(args: argparse.Namespace):
    """The linear-quotient structure of G(I^k), refusing u = v = x1^d, whose
    normalized ideal is the unit ideal, and a shape outside the classified
    form unless --oracle-g admits it."""
    spec, record, cls = _spec_pipeline(args)
    if spec.d == 0:
        raise ValueError(
            f"u = v = {record.original_u} normalizes to the unit ideal L(1, 1): there is no resolution to build"
        )
    if not cls.has_linear_form and not args.oracle_g:
        raise ValueError(
            "the (u, v) shape is outside the classified linear-resolution form "
            f"({cls.notes}); rerun with --oracle-g to build from the definitional "
            "decomposition function (requires linear quotients and regularity)"
        )
    return linear_quotients_check(power_generators(spec, args.k))


def _verify(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ValueError(f"the rank check needs at least one trial, got {args.trials}")
    qs = _quotients(args)
    lines = []
    ok = True

    def tick(name: str, passed: bool, detail: str = ""):
        nonlocal ok
        ok = ok and passed
        lines.append(f"[{'PASS' if passed else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))

    tick("linear quotients", qs.is_linear,
         "" if qs.is_linear else f"fails at u{(qs.failure_index or 0) + 1}")
    if not qs.is_linear:
        _emit(args, "\n".join(lines) + "\n")
        return 1

    lemmas = set_bound_report(qs)
    tick("set(m) bounds (min / tilde-min)", not lemmas,
         "" if not lemmas else f"{len(lemmas)} violations, first {lemmas[0]}")

    agree = True
    if qs.power.spec.l is not None:
        agree, mismatch = closed_form_matches_oracle(qs)
        tick("closed-form g equals definitional g", agree,
             "" if agree else "first mismatch at ({}, x{}): {} vs {}".format(*mismatch))
    reg = regularity_check_oracle(qs)
    tick("decomposition function regular", reg.regular,
         "" if reg.regular else reg.describe())
    if not (agree and reg.regular):
        _emit(args, "\n".join(lines) + "\n")
        return 1

    rc, differentials = stream_resolution(qs)
    # the rank check reads the differentials once, two at a time, and keeps
    # the verdicts of compose_check and minimality_check on the way
    report = random_rank_check(rc, seed=args.seed, trials=args.trials, differentials=differentials)
    for i, composed in enumerate(report.composed):
        tick(f"d{i} ∘ d{i + 1} = 0", composed)
    tick("minimality (entries are ±x_j)", report.minimal)

    try:
        numerator = hilbert_numerator(rc.power.exponent_matrix)
        euler_ok = euler_characteristic_numerator(rc) == numerator
        tick(
            "Euler characteristic equals Hilbert numerator",
            euler_ok,
            str(numerator) if euler_ok else "",
        )
    except BudgetError as exc:
        lines.append(f"[SKIP] Euler/Hilbert identity: {exc}")

    tick(
        f"rank additivity at {args.trials} random points (necessary condition)",
        report.passed,
        f"ranks {report.trials[0].ranks}" if report.trials else "",
    )

    _emit(args, "\n".join(lines) + "\n")
    return 0 if ok else 1


@functools.cache  # built on first use, not at import, and reused by every main() call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexres",
        description="Minimal free resolutions of powers of lexsegment ideals with linear quotients",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("gen", "print the lexsegment L(u,v), lex-descending"),
        ("classify", "normalize (u,v) and run both classifiers"),
        ("power", "print G(I^k) in increasing revlex order"),
        ("quotients", "print set(m) for every generator of I^k"),
        ("resolve", "build the minimal free resolution of S/I^k"),
        ("verify", "run all independent checks on the resolution"),
        ("export", "write the resolution in the chosen format"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--n", type=int, required=True, help="number of variables")
        p.add_argument("--u", type=str, required=True, help="upper end of the lexsegment, e.g. x1x3")
        p.add_argument("--v", type=str, required=True, help="lower end of the lexsegment, e.g. x2x4")
        p.add_argument("--k", type=int, default=1, help="power of the ideal (default 1)")
        p.add_argument("--depth", type=int, default=None, help="shadow depth for classify (default n)")
        p.add_argument("--seed", type=int, default=0, help="seed for the randomized rank check")
        p.add_argument("--trials", type=int, default=5, help="random evaluation points per rank check")
        p.add_argument("--format", dest="fmt", choices=["json", "text", "m2"], default="text")
        p.add_argument("--out", type=str, default=None, help="output path (default stdout)")
        p.add_argument("--oracle-g", action="store_true", help="allow the definitional g outside the classified shape")
        p.add_argument(
            "--first-shadow-persistence",
            action="store_true",
            help="report 'yes' when the first shadow is a lexsegment set",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run_command(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # OSError: an --out that cannot be written
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
