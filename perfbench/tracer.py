"""Span tracer for the benchmark's traced pass.

The tracer wraps public functions of the lexres modules by replacing the
module attributes their callers resolve at call time, so nothing under
src/ is edited.  Every call records a span (name, start, end, parent,
instance) in memory, plus a call count; a few functions also record size
counters computed from their result.  Counter work runs inside a
"trace.count" span, so it is charged to the tracer, not to the layer that
called it.  Leaving the context restores every patched attribute.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import Counter


def _count_powers(counts, result, args, kwargs):
    from lexres.lexsegment import enumerate_lexsegment

    spec = args[0] if args else kwargs["spec"]
    k = args[1] if len(args) > 1 else kwargs["k"]
    counts["powers.generators"] += len(result.generators)
    segment = len(enumerate_lexsegment(spec.u, spec.v))
    counts["powers.candidates"] += math.comb(segment + k - 1, k)


def _count_quotients(counts, result, args, kwargs):
    counts["quotients.set_pairs"] += sum(len(s) for s in result.sets)


def _count_resolution(counts, result, args, kwargs):
    counts["resolution.basis_total"] += sum(result.betti)
    counts["resolution.entries"] += len(result.d0) + sum(
        mat.entry_count() for mat in result.matrices.values()
    )


# RankReport method tags, folded into the four tiers the metrics name
_TIERS = {
    "dense": "verify.rank_dense",
    "witness": "verify.rank_witness",
    "projected": "verify.rank_projected",
    "dense-fallback": "verify.rank_fallback",
    "dense-recheck": "verify.rank_fallback",
}


def _count_rank_tiers(counts, result, args, kwargs):
    for trial in result.trials:
        for method in trial.methods:
            counts[_TIERS[method]] += 1


def _count_rank_cells(counts, result, args, kwargs):
    rows, cols = args[0].shape  # the rank checker passes evaluated numpy matrices
    counts["modp.rank_mod_cells"] += rows * cols


def _count_json(counts, result, args, kwargs):
    counts["serialize.json_bytes"] += len(result.encode("utf-8"))


# span name, defining module, calling modules whose attribute is patched too,
# and the size counter computed from the result (None: call count only)
TARGETS = [
    ("powers.power_generators", "lexres.powers", ("lexres.cli",), _count_powers),
    ("quotients.linear_quotients_check", "lexres.quotients", ("lexres.cli",), _count_quotients),
    ("quotients.set_bound_report", "lexres.quotients", ("lexres.cli",), None),
    ("decomposition.closed_form_matches_oracle", "lexres.decomposition", ("lexres.cli",), None),
    ("decomposition.regularity_check", "lexres.decomposition", ("lexres.cli",), None),
    ("decomposition.regularity_check_oracle", "lexres.decomposition",
     ("lexres.cli", "lexres.resolution"), None),
    ("decomposition.g_closed_form", "lexres.decomposition", ("lexres.resolution",), None),
    ("decomposition.g_oracle_index", "lexres.decomposition", ("lexres.resolution",), None),
    ("resolution.assemble_resolution", "lexres.resolution", ("lexres.cli",), _count_resolution),
    ("resolution.compose_check", "lexres.resolution", ("lexres.cli",), None),
    ("resolution.minimality_check", "lexres.resolution", ("lexres.cli",), None),
    ("verify.euler_check", "lexres.verify", ("lexres.cli",), None),
    ("verify.hilbert_numerator", "lexres.verify", ("lexres.cli",), None),
    ("verify.random_rank_check", "lexres.verify", ("lexres.cli",), _count_rank_tiers),
    ("modp.rank_mod", "lexres.modp", ("lexres.verify",), _count_rank_cells),
    ("serialize.resolution_to_json", "lexres.serialize", ("lexres.cli",), _count_json),
]

# every per-layer metric the traced run reports, with its unit
LAYER_UNITS = {
    "powers.power_generators_s": "s",
    "powers.generators": "count",
    "powers.candidates": "count",
    "powers.useful_frac": "ratio",
    "quotients.linear_quotients_check_s": "s",
    "quotients.set_bound_report_s": "s",
    "quotients.set_pairs": "count",
    "decomposition.closed_form_matches_oracle_s": "s",
    "decomposition.regularity_check_s": "s",
    "decomposition.regularity_check_oracle_s": "s",
    "decomposition.g_closed_form_s": "s",
    "decomposition.g_oracle_index_s": "s",
    "decomposition.g_closed_form_calls": "count",
    "decomposition.g_oracle_index_calls": "count",
    "decomposition.g_distinct_frac": "ratio",
    "resolution.assemble_s": "s",
    "resolution.compose_check_s": "s",
    "resolution.minimality_check_s": "s",
    "resolution.basis_total": "count",
    "resolution.entries": "count",
    "verify.euler_check_s": "s",
    "verify.hilbert_numerator_s": "s",
    "verify.hilbert_numerator_calls": "count",
    "verify.random_rank_check_s": "s",
    "verify.rank_dense": "count",
    "verify.rank_witness": "count",
    "verify.rank_projected": "count",
    "verify.rank_fallback": "count",
    "modp.rank_mod_s": "s",
    "modp.rank_mod_calls": "count",
    "modp.rank_mod_cells": "count",
    "serialize.resolution_to_json_s": "s",
    "serialize.json_bytes": "B",
    "cli.other_s": "s",
    "trace.overhead_s": "s",
}

# metric name -> span name, where the two differ
_SPAN_OF = {
    "resolution.assemble_s": "resolution.assemble_resolution",
    "cli.other_s": "cli.main",
}


class Tracer:
    """Records spans and counts while installed as a context manager."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, instance]
        self.counts: Counter = Counter()
        self.instance: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.instance])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, measure):
        calls = name + "_calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            self.counts[calls] += 1
            if measure is not None:
                cidx = self.open("trace.count")
                try:
                    measure(self.counts, result, args, kwargs)
                finally:
                    self.close(cidx)
            return result

        return wrapper

    def __enter__(self):
        for name, home, callers, measure in TARGETS:
            attr = name.split(".", 1)[1]
            fn = getattr(importlib.import_module(home), attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(name, fn, measure)
            for modname in (home, *callers):
                mod = importlib.import_module(modname)
                if getattr(mod, attr, None) is fn:
                    self._patched.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()
        return False

    def self_times(self) -> Counter:
        """Per span name: total duration minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: Counter = Counter()
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - covered[idx]
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(self_times, counts) -> dict:
    """Per-layer values of one traced pass (trace.overhead_s is added by the caller)."""
    out = {}
    for metric in LAYER_UNITS:
        if metric == "trace.overhead_s":
            continue
        if metric.endswith("_s"):
            out[metric] = self_times.get(_SPAN_OF.get(metric, metric[:-2]), 0.0)
        else:
            out[metric] = counts.get(metric, 0)
    out["powers.useful_frac"] = _ratio(counts["powers.generators"], counts["powers.candidates"])
    g_calls = counts["decomposition.g_closed_form_calls"] + counts["decomposition.g_oracle_index_calls"]
    out["decomposition.g_distinct_frac"] = _ratio(counts["quotients.set_pairs"], g_calls)
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
