"""Spans around the calls into lctkit's layers, and the per-layer
metrics computed from them.

Each wrapper replaces a module attribute at the site where the caller
looks the function up.  ``extract`` imports ``parse_hdl`` by name, so
the parse span wraps ``extract.parse_hdl``; ``hdl.parse_hdl`` would never
be called through.  A span records its layer, start, end, parent span
and one count (tokens, rows, bytes, ...).  Spans stay in memory, one
list per thread, and are written out when the run ends.
"""

from __future__ import annotations

import gzip
import json
import threading
import time
from types import SimpleNamespace


def _length(args, kwargs, result):
    return len(result)


def _rows(args, kwargs, result):
    return len(result.rows)


def _utf8_bytes(args, kwargs, result):
    return len(result.encode())


def _truth(args, kwargs, result):
    return int(bool(result))


def _cycles(args, kwargs, result):
    return len(args[1])


def _space(args, kwargs, result):
    table = args[0]
    return 1 << sum(table.condition_width(h) for h in table.conditions)


def _persist_bytes(args, kwargs, result):
    run_dir, _unit, artifacts = args[:3]
    if run_dir is None:
        return 0
    return sum(len(text.encode()) for text in artifacts.values())


# (layer, module, attribute, count).  Where a module calls its own
# function by global name (compare -> textual_match, parse_unit_doc ->
# parse_unit), the module attribute is also the caller's lookup site.
WRAPS = (
    ("roundtrip.run", "roundtrip", "run_roundtrip", None),
    ("roundtrip.prompt", "roundtrip", "build_forward_prompt", None),
    ("roundtrip.prompt", "roundtrip", "build_inverse_prompt", None),
    ("roundtrip.persist", "roundtrip", "_persist", _persist_bytes),
    ("codegen.gen", "codegen", "gen_unit", _utf8_bytes),
    ("hdl.tokenize", "hdl", "tokenize", _length),
    ("hdl.parse", "extract", "parse_hdl", None),
    ("extract.build", "extract", "hdl_to_lct", _rows),
    ("equiv.compare", "equiv", "compare", None),
    ("equiv.textual", "equiv", "textual_match", _truth),
    ("analysis.canonicalize", "analysis", "canonicalize", None),
    ("sim.enumerate", "sim", "enumerate_assignments", _space),
    ("sim.trace", "sim", "run_trace", _cycles),
    ("sim.comb", "sim", "eval_comb", None),
    ("tableio.serialize", "tableio", "serialize_unit", None),
    ("tableio.serialize", "tableio", "serialize_unit_doc", None),
    ("tableio.parse", "tableio", "parse_unit_doc", None),
    ("tableio.parse", "tableio", "parse_unit", None),
)

# Per-layer metric -> (unit, better, workloads on which it must be
# nonzero).  Times are self seconds per operation over the whole run;
# counts are totals over the seed's first group, which every run with
# that seed measures, so they repeat exactly.
PER_LAYER = {
    "analysis.canonicalize_s": ("s/op", "lower", ("fsm_ladder", "equiv_pairs")),
    "analysis.canonicalize_calls": ("count", "lower", ("fsm_ladder", "equiv_pairs")),
    "analysis.assignments": ("count", "lower", ("fsm_ladder", "equiv_pairs")),
    "equiv.compare_s": ("s/op", "lower", ("fsm_ladder", "equiv_pairs")),
    "equiv.textual_s": ("s/op", "lower", ("fsm_ladder", "equiv_pairs")),
    "equiv.canon_per_op": ("count/op", "lower", ("fsm_ladder", "equiv_pairs")),
    "equiv.textual_hit_ratio": ("ratio", "higher", ("fsm_ladder", "equiv_pairs")),
    "hdl.tokenize_s": ("s/op", "lower", ("fsm_ladder", "unit_batch")),
    "hdl.parse_s": ("s/op", "lower", ("fsm_ladder", "unit_batch")),
    "hdl.tokens": ("count", "lower", ("fsm_ladder", "unit_batch")),
    "hdl.errors": ("count", "lower", ()),
    "extract.build_s": ("s/op", "lower", ("unit_batch",)),
    "extract.rows": ("count", "lower", ("unit_batch",)),
    "codegen.gen_s": ("s/op", "lower", ("unit_batch",)),
    "codegen.hdl_bytes": ("bytes", "lower", ("unit_batch",)),
    "tableio.serialize_s": ("s/op", "lower", ("unit_batch",)),
    "tableio.parse_s": ("s/op", "lower", ("unit_batch",)),
    "sim.trace_s": ("s/op", "lower", ("unit_batch",)),
    "sim.cycles": ("count", "higher", ("unit_batch",)),
    "sim.comb_s": ("s/op", "lower", ("unit_batch",)),
    "roundtrip.prompt_s": ("s/op", "lower", ("unit_batch",)),
    "roundtrip.persist_s": ("s/op", "lower", ("unit_batch",)),
    "roundtrip.persist_bytes": ("bytes", "lower", ("unit_batch",)),
    "roundtrip.self_s": ("s/op", "lower", ("unit_batch",)),
    "roundtrip.batch_efficiency": ("ratio", "higher", ("unit_batch",)),
    "trace.overhead_s": ("s", "lower", ()),
}

# Layers that must record spans on a workload.
LAYERS_BY_WORKLOAD = {
    "fsm_ladder": ("roundtrip.run", "codegen.gen", "hdl.tokenize",
                   "hdl.parse", "extract.build", "equiv.compare",
                   "equiv.textual", "analysis.canonicalize",
                   "sim.enumerate"),
    "unit_batch": tuple(sorted({layer for layer, *_ in WRAPS})),
    "equiv_pairs": ("equiv.compare", "equiv.textual",
                    "analysis.canonicalize", "sim.enumerate"),
}


class Tracer:
    """Installs span wrappers on a loaded lctkit and collects spans."""

    def __init__(self, lib):
        self.lib = lib
        self._local = threading.local()
        self._lock = threading.Lock()
        self.buffers = []
        self._originals = []

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = SimpleNamespace(spans=[], stack=[],
                                  thread=threading.get_ident())
            self._local.buf = buf
            with self._lock:
                self.buffers.append(buf)
        return buf

    def _wrap(self, layer, original, count):
        def traced(*args, **kwargs):
            buf = self._buffer()
            spans, stack = buf.spans, buf.stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                spans[index] = (layer, start, time.perf_counter(), parent,
                                0, True)
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            spans[index] = (layer, start, end, parent,
                            count(args, kwargs, result) if count else 0,
                            False)
            return result
        return traced

    def install(self):
        for layer, module_name, attr, count in WRAPS:
            module = getattr(self.lib, module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, original, count))

    def uninstall(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals = []

    def clear(self):
        with self._lock:
            for buf in self.buffers:
                buf.spans.clear()

    def mark(self) -> dict:
        """The current length of every thread's span list."""
        with self._lock:
            return {id(buf): len(buf.spans) for buf in self.buffers}

    def spans(self, upto: dict = None):
        """(buffer, index, span) for every finished span, optionally only
        those recorded before ``upto``."""
        with self._lock:
            buffers = list(self.buffers)
        for buf in buffers:
            end = len(buf.spans) if upto is None else upto.get(id(buf), 0)
            for index in range(end):
                span = buf.spans[index]
                if span is not None:
                    yield buf, index, span

    def counts(self, upto: dict = None) -> dict:
        """Exact per-layer counts: spans, summed count field, errors, and
        enumerated assignments under canonicalization."""
        out = {}
        for buf, _index, (layer, _s, _e, parent, count, error) in \
                self.spans(upto):
            entry = out.setdefault(layer, [0, 0, 0])
            entry[0] += 1
            entry[1] += count
            entry[2] += int(error)
            if layer == "sim.enumerate" and parent >= 0 and \
                    buf.spans[parent][0] == "analysis.canonicalize":
                out["analysis.assignments"] = \
                    out.get("analysis.assignments", 0) + count
        return out

    def self_times(self):
        """Self and total seconds per layer.  Self time is a span's
        duration minus the time its child spans cover."""
        child = {}
        for buf, _index, (_l, start, end, parent, _c, _e) in self.spans():
            if parent >= 0:
                key = (id(buf), parent)
                child[key] = child.get(key, 0.0) + (end - start)
        out = {}
        total = {}
        for buf, index, (layer, start, end, _p, _c, _e) in self.spans():
            duration = end - start
            total[layer] = total.get(layer, 0.0) + duration
            out[layer] = out.get(layer, 0.0) + duration - \
                child.get((id(buf), index), 0.0)
        return out, total

    def write(self, path: str) -> int:
        """Write every span as one JSON line; returns the span count."""
        written = 0
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for buf, index, (layer, start, end, parent, count, error) in \
                    self.spans():
                f.write(json.dumps([buf.thread, index, layer, start, end,
                                    parent, count, error]) + "\n")
                written += 1
        return written


def per_layer_metrics(tracer: Tracer, group0_mark: dict, ops: int,
                      group0_ops: int, program_s: float, workers: int,
                      overhead_s: float) -> dict:
    """Every PER_LAYER metric for one traced run."""
    self_s, total_s = tracer.self_times()
    counts = tracer.counts(group0_mark)

    def per_op(layer):
        return self_s.get(layer, 0.0) / ops

    def spans(layer):
        return counts.get(layer, [0, 0, 0])[0]

    def counted(layer):
        return counts.get(layer, [0, 0, 0])[1]

    textual = spans("equiv.textual")
    return {
        "analysis.canonicalize_s": per_op("analysis.canonicalize"),
        "analysis.canonicalize_calls": spans("analysis.canonicalize"),
        "analysis.assignments": counts.get("analysis.assignments", 0),
        "equiv.compare_s": per_op("equiv.compare"),
        "equiv.textual_s": per_op("equiv.textual"),
        "equiv.canon_per_op": spans("analysis.canonicalize") / group0_ops,
        "equiv.textual_hit_ratio":
            counted("equiv.textual") / textual if textual else 0.0,
        "hdl.tokenize_s": per_op("hdl.tokenize"),
        "hdl.parse_s": per_op("hdl.parse"),
        "hdl.tokens": counted("hdl.tokenize"),
        "hdl.errors": counts.get("hdl.parse", [0, 0, 0])[2],
        "extract.build_s": per_op("extract.build"),
        "extract.rows": counted("extract.build"),
        "codegen.gen_s": per_op("codegen.gen"),
        "codegen.hdl_bytes": counted("codegen.gen"),
        "tableio.serialize_s": per_op("tableio.serialize"),
        "tableio.parse_s": per_op("tableio.parse"),
        "sim.trace_s": per_op("sim.trace"),
        "sim.cycles": counted("sim.trace"),
        "sim.comb_s": per_op("sim.comb"),
        "roundtrip.prompt_s": per_op("roundtrip.prompt"),
        "roundtrip.persist_s": per_op("roundtrip.persist"),
        "roundtrip.persist_bytes": counted("roundtrip.persist"),
        "roundtrip.self_s": per_op("roundtrip.run"),
        "roundtrip.batch_efficiency":
            total_s.get("roundtrip.run", 0.0) / (program_s * workers),
        "trace.overhead_s": overhead_s,
    }


def self_check(workload: str, tracer: Tracer, metrics: dict) -> list:
    """Problems that mean a wrapper sits on the wrong name: a layer with
    no spans, or a metric that reads zero, on a workload mapped to it."""
    counts = tracer.counts()
    problems = [f"layer {layer} recorded no spans"
                for layer in LAYERS_BY_WORKLOAD[workload]
                if layer not in counts]
    problems += [f"metric {name} is zero"
                 for name, (_u, _b, mapped) in PER_LAYER.items()
                 if workload in mapped and not metrics.get(name)]
    return problems
