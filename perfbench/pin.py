"""Write the benchmark's instance lists and pinned references.

    python3 perfbench/pin.py --out perfbench/workloads.json

Run from the repository root.  The benchmark reads the file this writes and
never rebuilds its instances through the library, so the references stay
those of the commit that pinned them: the sha256 of every instance's
`lexres export --format json` output and the names of its `lexres verify`
checks.  Re-pin only in a change that means to alter those outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from lexres.cli import main as lexres_main  # noqa: E402
from lexres.decomposition import regularity_check_oracle  # noqa: E402
from lexres.errors import BudgetError  # noqa: E402
from lexres.lexsegment import all_degree_monomials, make_classified_spec  # noqa: E402
from lexres.monomials import RingContext, cmp_lex  # noqa: E402
from lexres.powers import power_generators  # noqa: E402
from lexres.quotients import linear_quotients_check  # noqa: E402
from support import theorem_family_specs  # noqa: E402

# Strides over the full pools: one pass over a workload must fit several
# times into one run of the benchmark (2 cores, Python 3.11: about 6 s).
FAMILY_STRIDE = 5  # 110 classified instances -> 22
ORACLE_STRIDE = 6  # 54 oracle-resolvable instances -> 9
ORACLE_POOLS = [(5, 3, 2), (6, 2, 2), (5, 2, 3)]  # (n, d, k), |G| >= 60

WHY = {
    "family": "classified shapes n 3..6, d 2..3, k 1..2; many mid-size complexes, dense mod-p rank dominates verify",
    "large": "one big classified complex; assembly, Euler/Hilbert, JSON and the witness rank tier dominate",
    "oracle": "unclassified pairs resolved with --oracle-g; the definitional g and its regularity scan run",
    "selftest": "the worked example, for the benchmark's self-test only",
}

# the n=6, k=2 baseline row of ROADMAP.md: one export takes under a second, so
# a run holds about ten samples of it; bigger single instances held three, and
# their medians spread by 20-40% between runs on a shared 2-core machine
LARGE = [(6, "x1x4x5x6", "x2x6^3", 2)]
SELFTEST = [(4, "x1x3", "x2x4", 1), (4, "x1x3", "x2x4", 2)]

# the baseline rows of ROADMAP.md; n=8 k=2 passes the product budget and
# then builds a complex of total rank 980,102, so it is listed unattempted
LADDER = [
    {"n": 4, "u": "x1x3", "v": "x2x4", "k": 1, "attempt": True},
    {"n": 4, "u": "x1x3", "v": "x2x4", "k": 2, "attempt": True},
    {"n": 4, "u": "x1x3", "v": "x2x4", "k": 3, "attempt": True},
    {"n": 5, "u": "x1x4x5", "v": "x2x5^2", "k": 3, "attempt": True},
    {"n": 6, "u": "x1x4x5x6", "v": "x2x6^3", "k": 2, "attempt": True},
    {"n": 7, "u": "x1x4x5x6x7", "v": "x2x7^4", "k": 2, "attempt": True},
    {"n": 8, "u": "x1x4x5x6x7x8", "v": "x2x8^5", "k": 2, "attempt": False},
]


def monomial_text(exponents) -> str:
    return "".join(f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exponents) if e)


def family_pool():
    return [
        (n, monomial_text(ue), monomial_text(ve), k)
        for n, _, _, ue, ve in theorem_family_specs()
        for k in (1, 2)
    ]


def oracle_pool():
    """Pairs outside the classified shape that --oracle-g resolves:
    nu_1(u) = 1, nu_1(v) = 0, linear quotients, regular definitional g."""
    out = []
    for n, d, k in ORACLE_POOLS:
        monomials = all_degree_monomials(RingContext(n), d)
        for u in monomials:
            if u.exponents[0] != 1:
                continue
            for v in monomials:
                if v.exponents[0] != 0 or cmp_lex(u, v) < 0:
                    continue
                spec, _, cls = make_classified_spec(u, v)
                if cls.has_linear_form:
                    continue
                try:
                    pi = power_generators(spec, k)
                except BudgetError:
                    continue
                if len(pi) < 60:
                    continue
                qs = linear_quotients_check(pi)
                if qs.is_linear and regularity_check_oracle(qs).regular:
                    out.append((n, monomial_text(u.exponents), monomial_text(v.exponents), k))
    return out


def pin(n, u, v, k, oracle_g, scratch: Path) -> dict:
    args = ["--n", str(n), "--u", u, "--v", v, "--k", str(k)] + (["--oracle-g"] if oracle_g else [])
    with contextlib.redirect_stdout(io.StringIO()):
        code = lexres_main(["export", "--format", "json", "--out", str(scratch), *args])
    if code != 0:
        raise SystemExit(f"export failed ({code}) on {args}")
    digest = hashlib.sha256(scratch.read_bytes()).hexdigest()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lexres_main(["verify", "--seed", "0", *args])
    lines = out.getvalue().splitlines()
    if code != 0 or not all(line.startswith("[PASS] ") for line in lines):
        raise SystemExit(f"verify failed ({code}) on {args}")
    instance_id = f"n{n}:{u}:{v}:k{k}" + (":oracle" if oracle_g else "")
    return {
        "id": instance_id, "n": n, "u": u, "v": v, "k": k, "oracle_g": oracle_g,
        "sha256": digest,
        "checks": [line[len("[PASS] "):].split(":", 1)[0] for line in lines],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="path of the workloads file to write")
    out = Path(parser.parse_args(argv).out)
    scratch = out.with_name(".pin_export.json")
    pools = {
        "family": (family_pool()[::FAMILY_STRIDE], False),
        "large": (LARGE, False),
        "oracle": (oracle_pool()[::ORACLE_STRIDE], True),
        "selftest": (SELFTEST, False),
    }
    data = {}
    try:
        for name, (rows, oracle_g) in pools.items():
            data[name] = {
                "why": WHY[name],
                "instances": [pin(*row, oracle_g, scratch) for row in rows],
            }
            print(f"{name}: {len(rows)} instances", file=sys.stderr)
    finally:
        scratch.unlink(missing_ok=True)
    data["ladder"] = LADDER
    out.write_text(json.dumps(data, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
