"""Benchmark for lexres: time to a resolution and time to a verified one.

    python3 perfbench/run.py --workload family --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --ladder

Run it from the root of a source checkout: the package is imported from
./src.  One process runs one workload.  It is a closed loop with one
client: `lexres export --format json --out <file>` and then `lexres verify`
are called in-process through lexres.cli.main for each instance, each
after the previous call returned.  Passes over the workload repeat until
--seconds is spent; a metric is the sum over instances of the median over
passes.  Every output is checked against references pinned in
workloads.json (see pin.py): the export's sha256, exit codes, and the
names of the verify checks, all of which must read [PASS].

--trace 1 runs one untraced pass and then two passes with the tracer of
tracer.py installed.  It reports self time and counts per layer (module),
and fails the run if a count differs between the two traced passes.  The
spans of the last traced pass are written to .perfbench_out/.

--ladder runs the ROADMAP baseline rows once, traced, and prints per-stage
seconds and sizes.  --self-test checks the benchmark itself on the worked
example.  The last line of stdout is always one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = HERE / "workloads.json"

# One BLAS thread: numbers then do not depend on what else the machine runs
# on its other cores, and the rank checker's dense products stay comparable.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
# A single import ranges over about 2x from one interpreter to the next.
SETUP_REPEATS = 9

E2E_UNITS = {"export_s": "s", "verify_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def measure_setup(repeats: int) -> float:
    """Median wall time of fresh interpreters that import lexres.cli.

    One discarded run first, so bytecode compilation is not counted."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import lexres.cli"
    times = []
    for i in range(repeats + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        if i:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def cli_args(inst) -> list[str]:
    args = ["--n", str(inst["n"]), "--u", inst["u"], "--v", inst["v"], "--k", str(inst["k"])]
    return args + (["--oracle-g"] if inst.get("oracle_g") else [])


def plan(instances, seed: int):
    """Instance order and per-instance rank-check seeds, both from the workload seed."""
    rng = random.Random(seed)
    order = list(instances)
    rng.shuffle(order)
    return [(inst, rng.randrange(2**31)) for inst in order]


class Runner:
    """Calls lexres commands in-process, optionally under a tracer."""

    def __init__(self):
        from lexres import cli

        self.cli = cli
        self.tracer = None
        OUT.mkdir(exist_ok=True)
        self.export_path = OUT / f"export-{os.getpid()}.json"

    def command(self, argv):
        """Returns (exit code or None on a traceback, stdout, stderr, seconds)."""
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            span = self.tracer.open("cli.main") if self.tracer else None
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except (Exception, SystemExit):
                # a traceback or an argparse exit is a failed instance, not a crash
                code = None
                traceback.print_exc(file=err)
            elapsed = time.perf_counter() - start
            if span is not None:
                self.tracer.close(span)
        return code, out.getvalue(), err.getvalue(), elapsed

    def run_instance(self, inst, verify_seed: int, trials=()):
        """Export then verify one instance; returns (export s, verify s, failure or None)."""
        if self.tracer:
            self.tracer.instance = inst["id"]
        args = cli_args(inst)
        self.export_path.unlink(missing_ok=True)
        code_e, _, err_e, t_e = self.command(
            ["export", "--format", "json", "--out", str(self.export_path), *args]
        )
        code_v, out_v, err_v, t_v = self.command(["verify", "--seed", str(verify_seed), *trials, *args])
        return t_e, t_v, self.failure(inst, code_e, err_e, code_v, out_v, err_v)

    def failure(self, inst, code_e, err_e, code_v, out_v, err_v) -> str | None:
        if code_e != 0:
            return f"export exited {code_e}: {err_e.strip()[-300:]}"
        if code_v != 0:
            return f"verify exited {code_v}: {(out_v + err_v).strip()[-300:]}"
        lines = out_v.splitlines()
        bad = [line for line in lines if not line.startswith("[PASS] ")]
        if bad:
            return f"verify line {bad[0]!r}"
        if "sha256" in inst:
            exported = self.export_path.read_bytes() if self.export_path.exists() else b""
            digest = hashlib.sha256(exported).hexdigest()
            if digest != inst["sha256"]:
                return f"export sha256 {digest[:12]}... differs from the pinned {inst['sha256'][:12]}..."
            names = [line[len("[PASS] "):].split(":", 1)[0] for line in lines]
            if names != inst["checks"]:
                return f"verify checks {names} differ from the pinned {inst['checks']}"
        return None

    def run_pass(self, planned):
        """One pass over the planned instances: list of (id, export s, verify s, failure)."""
        out = []
        for inst, verify_seed in planned:
            t_e, t_v, fail = self.run_instance(inst, verify_seed)
            if fail:
                print(f"FAILED {inst['id']}: {fail}", file=sys.stderr)
            out.append((inst["id"], t_e, t_v, fail))
        return out

    def close(self):
        self.export_path.unlink(missing_ok=True)


def _warm_up(runner: Runner, workloads):
    """Untimed export and verify of the worked example, so lazy set-up is done."""
    runner.run_instance(workloads["selftest"]["instances"][0], 0)


def _tally(passes) -> dict:
    """The result fields every run reports: instances attempted and failed."""
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for row in p if row[3])
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "passes": len(passes)}


def _median_sum(passes, column: int) -> float:
    """Sum over instances of the per-instance median over passes."""
    return sum(statistics.median(p[i][column] for p in passes) for i in range(len(passes[0])))


def run_end_to_end(workloads, instances, seed: int, seconds: float, setup_repeats: int) -> dict:
    setup_s = measure_setup(setup_repeats)
    planned = plan(instances, seed)
    runner = Runner()
    try:
        _warm_up(runner, workloads)
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(runner.run_pass(planned))
            elapsed = time.perf_counter() - start
            # stop unless one more pass of the mean length still fits
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
    finally:
        runner.close()
    values = {
        "export_s": _median_sum(passes, 1),
        "verify_s": _median_sum(passes, 2),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    return {
        **_tally(passes),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()},
    }


def run_traced(workloads, instances, seed: int, spans_path: Path | None) -> dict:
    from tracer import LAYER_UNITS, Tracer, layer_metrics

    planned = plan(instances, seed)
    runner = Runner()
    try:
        _warm_up(runner, workloads)
        untraced = runner.run_pass(planned)
        traced = []
        for _ in range(2):
            tracer = Tracer()
            runner.tracer = tracer
            with tracer:
                rows = runner.run_pass(planned)
            runner.tracer = None
            traced.append((rows, tracer))
    finally:
        runner.close()
    result = _tally([untraced] + [rows for rows, _ in traced])
    first, second = (tracer.counts for _, tracer in traced)
    drift = sorted(k for k in first.keys() | second.keys() if first[k] != second[k])
    if drift:
        result["correct"] = False
        for key in drift:
            print(f"COUNT DRIFT {key}: {first[key]} then {second[key]}", file=sys.stderr)

    per_pass = [layer_metrics(tracer.self_times(), tracer.counts) for _, tracer in traced]
    values = {
        name: statistics.mean(m[name] for m in per_pass) if LAYER_UNITS[name] == "s" else per_pass[0][name]
        for name in per_pass[0]
    }

    def total(rows):
        return sum(t_e + t_v for _, t_e, t_v, _ in rows)

    values["trace.overhead_s"] = statistics.mean(total(rows) for rows, _ in traced) - total(untraced)
    if spans_path is not None:
        traced[-1][1].write_spans(spans_path)
    result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
    return result


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy older than 1.26 has no dict form
        vendor = "unknown"
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": vendor,
        "blas_threads": int(BLAS_THREADS),
    }


def report(result: dict, workload: str, seed: int) -> None:
    """Human-readable lines, then the one-line JSON result that ends stdout."""
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(f"# workload {workload} seed {seed} passes {result.pop('passes')}")
    frac = result["failed"] / result["attempted"]
    print(f"# failed_frac = {result['failed']}/{result['attempted']} = {frac:.4g} ratio")
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))


def ladder(workloads) -> dict:
    """One traced export and verify (2 trials) per ROADMAP baseline row."""
    from tracer import Tracer

    print("# per-stage seconds include nested calls and sum one export and one verify --trials 2")
    runner = Runner()
    rows = []
    try:
        for row in workloads["ladder"]:
            label = f"n={row['n']} {row['u']}/{row['v']} k={row['k']}"
            if not row["attempt"]:
                print(f"{label}: not attempted")
                rows.append({**row, "ok": None})
                continue
            tracer = Tracer()
            runner.tracer = tracer
            with tracer:
                t_e, t_v, fail = runner.run_instance({**row, "id": label}, 0, ["--trials", "2"])
            runner.tracer = None
            counts = tracer.counts

            def per_call(metric, span):
                return counts[metric] // max(counts[span + "_calls"], 1)

            sizes = {
                "generators": per_call("powers.generators", "powers.power_generators"),
                "set_pairs": per_call("quotients.set_pairs", "quotients.linear_quotients_check"),
                "basis_total": per_call("resolution.basis_total", "resolution.assemble_resolution"),
                "entries": per_call("resolution.entries", "resolution.assemble_resolution"),
                "json_bytes": counts["serialize.json_bytes"],
                "g_closed_form_calls": counts["decomposition.g_closed_form_calls"],
            }
            stages = {}
            for name, start, end, _, _ in tracer.spans:
                if name not in ("cli.main", "trace.count"):
                    stages[name] = stages.get(name, 0.0) + end - start
            rows.append({**row, "ok": fail is None, "failure": fail, "export_s": t_e, "verify_s": t_v,
                         "sizes": sizes, "stage_s": stages})
            print(f"{label}: {'ok' if fail is None else 'FAILED ' + fail}  export {t_e:.2f} s  "
                  f"verify {t_v:.2f} s  |G| {sizes['generators']}  basis total {sizes['basis_total']}  "
                  f"JSON {sizes['json_bytes'] / 1e6:.1f} MB")
            for name, secs in sorted(stages.items(), key=lambda kv: -kv[1]):
                print(f"    {name:45s} {secs:9.3f} s")
    finally:
        runner.close()
    return {"correct": all(r["ok"] is not False for r in rows), "ladder": rows}


def self_test(workloads) -> list[str]:
    """Problems found in the benchmark itself on the worked example."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    instances = workloads["selftest"]["instances"]
    for trace_on, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        if trace_on:
            result = run_traced(workloads, instances, 0, None)
        else:
            result = run_end_to_end(workloads, instances, 0, 0, setup_repeats=1)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            report(result, "selftest", 0)
        printed = json.loads(buf.getvalue().splitlines()[-1])
        want = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in printed["metrics"].items()}
        if got != want:
            problems.append(f"trace {trace_on}: printed metrics {got} != declared {want}")
        if not printed["correct"] or printed["failed"]:
            problems.append(f"trace {trace_on}: the worked example failed")
        for name in want:
            if f"# {name} = " not in buf.getvalue():
                problems.append(f"{name} has no human-readable line")

    tampered = [dict(instances[0], sha256="0" * 64)] + instances[1:]
    with contextlib.redirect_stderr(io.StringIO()):
        result = run_end_to_end(workloads, tampered, 0, 0, setup_repeats=1)
    if result["correct"] or result["failed"] != result["passes"]:
        problems.append(f"a tampered digest gave {result['failed']} failures, not 1 per pass")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lexres benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ladder", action="store_true", help="one traced run of the ROADMAP baseline rows")
    parser.add_argument("--self-test", action="store_true", help="check the benchmark on the worked example")
    args = parser.parse_args(argv)

    if not (SRC / "lexres" / "__init__.py").is_file():
        print(f"no lexres sources under {SRC}: run from a source checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    workloads = json.loads(WORKLOADS.read_text(encoding="utf-8"))

    if args.self_test:
        problems = self_test(workloads)
        for p in problems:
            print(f"SELF-TEST: {p}", file=sys.stderr)
        print(json.dumps({"correct": not problems, "problems": problems}))
        return 1 if problems else 0
    if args.ladder:
        result = ladder(workloads)
        print(json.dumps({"env": environment(), **result}))
        return 0 if result["correct"] else 1

    names = sorted(k for k in workloads if k not in ("ladder", "selftest"))
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    instances = workloads[args.workload]["instances"]
    if args.trace:
        result = run_traced(workloads, instances, args.seed,
                            OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        result = run_end_to_end(workloads, instances, args.seed, args.seconds, SETUP_REPEATS)
    report(result, args.workload, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
