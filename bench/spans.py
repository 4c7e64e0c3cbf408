"""Span recording from outside the package, and the per-layer figures drawn from it.

Timing shims replace the module attributes that dmkit's own callers look
up (``dmkit.codec.encode`` for ``encode_stream``, ``dmkit.cli.load_lutset``
for the CLI, ``dmkit.stats.exact_class_pmf`` for ``stats_for_lutset`` and
so on). Nothing under ``src/`` is edited; ``restore`` puts the originals
back. Spans stay in memory as (id, parent, name, start, end) tuples until
``write_spans``.

Per-layer figures are gathered per benchmark operation: each operation is
an ``op`` scope that sums, per span name, the inclusive time, the self
time (a span's length minus the time its child spans cover) and counts.
"""

from __future__ import annotations

import json
import os
import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name). One span name may cover several bindings
# of the same function, as the CLI imports its helpers by name.
SHIMS = (
    ("config", "load_config", "config.load_config"),
    ("synthesis", "synthesize_tree", "synthesis.synthesize_tree"),
    ("synthesis", "synthesize_leaf_lut", "synthesis.leaf_lut"),
    ("synthesis", "synthesize_parent_lut", "synthesis.parent_lut"),
    ("synthesis", "save_lutset", "synthesis.save_lutset"),
    ("synthesis", "load_lutset", "synthesis.load_lutset"),
    ("cli", "load_lutset", "synthesis.load_lutset"),
    ("cli", "read_bitfile", "bits.read_bitfile"),
    ("cli", "write_bitfile", "bits.write_bitfile"),
    ("cli", "encode_stream", "codec.encode_stream"),
    ("cli", "decode_stream", "codec.decode_stream"),
    ("codec", "encode", "codec.encode"),
    ("codec", "decode", "codec.decode"),
    ("ccdm", "ccdm_encode", "ccdm.encode"),
    ("ccdm", "ccdm_decode", "ccdm.decode"),
    ("stats", "comparison_report", "stats.comparison_report"),
    ("stats", "exact_class_pmf", "stats.exact_class_pmf"),
    ("stats", "render_text", "stats.render_text"),
    ("stats", "mb_fit", "maxwell.mb_fit"),
    ("maxwell", "mb_distribution", "maxwell.mb_distribution"),
)


class _Op:
    def __init__(self, phase: str):
        self.phase = phase
        self.incl: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.calls: dict[str, list[float]] = {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.ops: list[_Op] = []
        self._stack: list[list] = []  # [id, parent, name, start, child seconds]
        self._op: _Op | None = None
        self._next_id = 0

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([self._next_id, parent, name, perf_counter(), 0.0])
        self._next_id += 1

    def exit(self) -> None:
        end = perf_counter()
        sid, parent, name, start, child = self._stack.pop()
        dur = end - start
        self.spans.append((sid, parent, name, start, end))
        if self._stack:
            self._stack[-1][4] += dur
        op = self._op
        if op is not None:
            op.incl[name] += dur
            op.self_time[name] += dur - child
            op.counts["calls:" + name] += 1
            op.calls.setdefault(name, []).append(dur)

    def count(self, key: str, n: int = 1) -> None:
        if self._op is not None:
            self._op.counts[key] += n

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    @contextmanager
    def op(self, phase: str):
        self._op = _Op(phase)
        try:
            with self.span("op." + phase):
                yield
        finally:
            self.ops.append(self._op)
            self._op = None

    def wrap(self, name: str, fn, on_result=None, on_error=None):
        tracer = self

        def shim(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.exit()
                if on_error is not None:
                    on_error(exc)
                raise
            tracer.exit()
            if on_result is not None:
                on_result(args, result)
            return result

        return shim

    def install(self, dm):
        """Rebind every entry of SHIMS on the handles in dm; return a restore function."""
        invalid_word = dm.codec.InvalidWord

        def on_lut(args, lut):
            self.count("synthesis.candidates", 1 << args[0].out_bits)
            self.count("synthesis.kept", len(lut.entries))

        def on_decode_error(exc):
            if isinstance(exc, invalid_word):
                self.count("codec.invalid_words")

        hooks = {
            "synthesis.leaf_lut": (on_lut, None),
            "synthesis.parent_lut": (on_lut, None),
            "bits.read_bitfile": (lambda args, _: self.count("bits.bytes_read", os.path.getsize(args[0])), None),
            "bits.write_bitfile": (lambda args, _: self.count("bits.bytes_written", os.path.getsize(args[0])), None),
            "codec.decode": (None, on_decode_error),
        }
        saved = []
        for module_name, attr, span_name in SHIMS:
            module = getattr(dm, module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            on_result, on_error = hooks.get(span_name, (None, None))
            setattr(module, attr, self.wrap(span_name, original, on_result, on_error))

        def restore() -> None:
            for module, attr, original in saved:
                setattr(module, attr, original)

        return restore

    def write_spans(self, path: str) -> None:
        with open(path, "w") as f:
            for span in sorted(self.spans):
                f.write(json.dumps(span) + "\n")


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _p99(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[98]


def cycle_sums(ops: list[_Op], cycle_ops: int, attr: str = "counts") -> list[Counter]:
    """Per complete run of cycle_ops consecutive operations, the sum of one _Op attribute."""
    return [
        sum((getattr(op, attr) for op in ops[k : k + cycle_ops]), Counter())
        for k in range(0, len(ops) - cycle_ops + 1, cycle_ops)
    ]


def layer_metrics(tracer: Tracer, cycle_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures as name -> (value, unit).

    Times ending in _s are the median, over cycles of the workload's
    inputs, of the seconds one cycle spent in that layer. A layer the
    measured loop never calls (synthesis and config load on stream and
    words) is taken per set-up repetition instead, each of which builds
    the bundled tree. _us figures are per-call percentiles. Counts are per
    cycle, or per set-up repetition by the same rule.
    """
    loop = [op for op in tracer.ops if op.phase == "loop"]
    setup = [op for op in tracer.ops if op.phase == "setup"]
    per_cycle = {attr: cycle_sums(loop, cycle_ops, attr) for attr in ("incl", "self_time", "counts")}
    per_setup = {attr: [getattr(op, attr) for op in setup] for attr in ("incl", "self_time", "counts")}

    def sums(name: str, attr: str) -> list[float]:
        cycles = per_cycle[attr]
        source = cycles if any(name in c for c in cycles) else per_setup[attr]
        return [c.get(name, 0) for c in source]

    def seconds(name: str, attr: str = "incl") -> float:
        return float(_median(sums(name, attr)))

    def count(key: str) -> int:
        values = sums(key, "counts")
        return values[0] if values else 0

    def calls(name: str) -> list[float]:
        return [d for op in loop for d in op.calls.get(name, ())]

    out: dict[str, tuple[float, str]] = {}
    out["codec.encode_stream_self_s"] = (seconds("codec.encode_stream", "self_time"), "s")
    out["codec.decode_stream_self_s"] = (seconds("codec.decode_stream", "self_time"), "s")
    for layer, fn in (("codec", "encode"), ("codec", "decode"), ("ccdm", "encode"), ("ccdm", "decode")):
        name = f"{layer}.{fn}"
        out[f"{name}_s"] = (seconds(name), "s")
        durations = calls(name)
        out[f"{name}_p50_us"] = (_median(durations) * 1e6, "us")
        out[f"{name}_p99_us"] = (_p99(durations) * 1e6, "us")
    out["codec.words"] = (count("calls:codec.encode") + count("calls:codec.decode"), "count")
    out["codec.invalid_words"] = (count("codec.invalid_words"), "count")
    out["ccdm.words"] = (count("calls:ccdm.encode") + count("calls:ccdm.decode"), "count")

    out["synthesis.leaf_lut_s"] = (seconds("synthesis.leaf_lut"), "s")
    out["synthesis.parent_lut_s"] = (seconds("synthesis.parent_lut"), "s")
    out["synthesis.parent_lut_calls"] = (count("calls:synthesis.parent_lut"), "count")
    candidates = count("synthesis.candidates")
    out["synthesis.candidates"] = (candidates, "count")
    out["synthesis.kept_ratio"] = (count("synthesis.kept") / candidates if candidates else 0.0, "ratio")
    out["synthesis.save_lutset_s"] = (seconds("synthesis.save_lutset"), "s")
    out["synthesis.load_lutset_s"] = (seconds("synthesis.load_lutset"), "s")

    out["stats.exact_class_pmf_s"] = (seconds("stats.exact_class_pmf"), "s")
    out["stats.comparison_report_self_s"] = (seconds("stats.comparison_report", "self_time"), "s")
    out["stats.render_text_s"] = (seconds("stats.render_text"), "s")
    out["maxwell.mb_fit_s"] = (seconds("maxwell.mb_fit"), "s")
    out["maxwell.mb_distribution_calls"] = (count("calls:maxwell.mb_distribution"), "count")

    out["bits.read_bitfile_s"] = (seconds("bits.read_bitfile"), "s")
    out["bits.write_bitfile_s"] = (seconds("bits.write_bitfile"), "s")
    out["bits.bytes_read"] = (count("bits.bytes_read"), "count")
    out["bits.bytes_written"] = (count("bits.bytes_written"), "count")

    out["config.load_config_s"] = (seconds("config.load_config"), "s")
    out["cli.encode_self_s"] = (seconds("cli.encode", "self_time"), "s")
    out["cli.decode_self_s"] = (seconds("cli.decode", "self_time"), "s")
    return out
