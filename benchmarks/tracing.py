"""Span recording around cvepdecode's public functions.

The traced run replaces selected module and class attributes of the
program with wrappers defined here, so every span is recorded from the
benchmark's side of a call; the program itself is not edited. Spans stay
in memory and are written out once, when the run ends.
"""
from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

# span name -> (time metric, count metric, how the time is reported):
#   "run"   self time summed over the process; set-up and input generation
#           call these once per run
#   "round" self time per workload round (set-up excluded)
#   "call"  mean self time per call, the set-up's call included
# Counts are calls per workload round. Spans sharing a metric add up.
SPANS = {
    "codegen.code_set": ("codegen.code_set_s", None, "run"),
    "simulate.session": ("simulate.session_s", None, "run"),
    "archive.write": ("archive.write_s", None, "run"),
    "archive.read": ("archive.read_s", None, "run"),
    "encoding.bank": ("encoding.bank_s", "encoding.bank_builds", "call"),
    "sigproc.filter": ("sigproc.filter_s", "sigproc.filter_calls", "round"),
    "cca.decoder": ("cca.decoder_s", "cca.decoders_built", "round"),
    "cca.fit_filters": ("cca.fit_filters_s", "cca.fit_filters_calls", "round"),
    "cca.project": ("cca.project_s", None, "round"),
    "cca.update": ("cca.update_s", None, "round"),
    "umm.slice": ("umm.slice_s", None, "round"),
    "umm.stats": ("umm.stats_s", None, "round"),
    "umm.score": ("umm.score_s", None, "round"),
    "umm.solve": ("umm.solve_s", "umm.solve_calls", "round"),
    "umm.update": ("umm.update_s", None, "round"),
    "evaluate.decode_session": ("evaluate.self_s", None, "round"),
    "evaluate.decoding_curve": ("evaluate.self_s", None, "round"),
    "evaluate.bandpass_sweep": ("evaluate.self_s", None, "round"),
    "evaluate.filtered_session": ("evaluate.self_s", None, "round"),
    "evaluate.bank_cca": ("evaluate.self_s", None, "round"),
}

class Tracer:
    """Records (name, start, end, parent, round, size) spans in memory.

    Calls are single-threaded and strictly nested, so the parent of a span
    is whichever span is open when it starts. ``round`` is the workload
    round the span belongs to (0 for generation and set-up); spans of one
    round share it."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.round = 0
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, size=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer._open[-1] if tracer._open else -1, tracer.round, None]
            tracer._open.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._open.pop()
            if size is not None:
                span[5] = size(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, size=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, size))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        fields = ("name", "start", "end", "parent", "round", "size")
        with open(path, "w") as fh:
            json.dump([dict(zip(fields, s)) for s in self.spans], fh)


def install(tracer: Tracer) -> None:
    """Wrap every public entry point whose time a per-layer metric reports.

    Functions are patched where their callers look them up: module globals
    for module-level calls, class attributes for methods. evaluate imports
    apply_zero_phase by name, so it is patched in evaluate's namespace."""
    from cvepdecode import archive, cca, codegen, evaluate, simulate, umm

    def bank_mb(args, _result):
        return sum(s.mat.nbytes for s in args[0].structures) / 2**20

    def n_epochs(_args, result):
        return result.n_epochs

    tracer.patch(codegen, "default_code_set", "codegen.code_set")
    tracer.patch(simulate, "synthesize_session", "simulate.session")
    tracer.patch(archive, "write_archive", "archive.write")
    tracer.patch(archive, "read_archive", "archive.read")
    tracer.patch(evaluate.DecoderBank, "__init__", "encoding.bank", size=bank_mb)
    tracer.patch(evaluate.DecoderBank, "cca", "evaluate.bank_cca")
    tracer.patch(evaluate, "apply_zero_phase", "sigproc.filter")
    tracer.patch(cca.CcaDecoder, "__init__", "cca.decoder")
    tracer.patch(cca.CcaDecoder, "decode", "cca.project")
    tracer.patch(cca, "fit_filters", "cca.fit_filters")
    tracer.patch(cca.CcaDecoder, "update_cumulative", "cca.update")
    tracer.patch(umm, "slice_epochs", "umm.slice", size=n_epochs)
    tracer.patch(umm.UmmDecoder, "decode_epochs", "umm.stats")
    tracer.patch(umm, "score_hypotheses", "umm.score")
    tracer.patch(umm, "block_levinson_solve", "umm.solve")
    tracer.patch(umm.UmmDecoder, "update_cumulative", "umm.update")
    tracer.patch(evaluate, "decode_session", "evaluate.decode_session")
    tracer.patch(evaluate, "decoding_curve", "evaluate.decoding_curve")
    tracer.patch(evaluate, "bandpass_sweep", "evaluate.bandpass_sweep")
    tracer.patch(evaluate, "filtered_session", "evaluate.filtered_session")


def layer_metrics(spans: list[list], n_rounds: int) -> dict[str, float]:
    """Per-layer metrics from the spans of one process. A span's self time
    is its duration minus the time its child spans cover. umm.epochs is
    epochs sliced per round; encoding.bank_mb is the largest bank's dense
    structure matrices. Every metric is present, zero when no span fed it."""
    child_time = defaultdict(float)
    for _name, start, end, parent, _round, _size in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {"umm.epochs": 0.0, "encoding.bank_mb": 0.0}
    calls = defaultdict(list)
    for time_metric, count_metric, _how in SPANS.values():
        out[time_metric] = 0.0
        if count_metric:
            out[count_metric] = 0.0
    for idx, (name, start, end, _parent, rnd, size) in enumerate(spans):
        time_metric, count_metric, how = SPANS[name]
        self_s = (end - start) - child_time[idx]
        calls[time_metric].append(self_s)
        if how == "run":
            out[time_metric] += self_s
        elif rnd > 0:
            if how == "round":
                out[time_metric] += self_s / n_rounds
            if count_metric:
                out[count_metric] += 1 / n_rounds
            if name == "umm.slice":
                out["umm.epochs"] += size / n_rounds
        if name == "encoding.bank":
            out["encoding.bank_mb"] = max(out["encoding.bank_mb"], size)
    for time_metric, _count, how in SPANS.values():
        if how == "call" and calls[time_metric]:
            out[time_metric] = sum(calls[time_metric]) / len(calls[time_metric])
    return out


def metric_unit(name: str) -> str:
    units = {"archive.bytes": "B", "encoding.bank_mb": "MB", "trace.overhead_pct": "%"}
    return units.get(name, "s" if name.endswith("_s") else "count")
