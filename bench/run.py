"""dmkit benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload {stream,words,design} --seed N --seconds S --trace {0,1}

Run from the repository root. dmkit is imported from ./src only. The run
sets up its workload several times (reporting the median set-up time),
then runs operations in one closed loop, one at a time in this process,
until S seconds have passed, and checks every output. End-to-end times
are normalized by a reference kernel timed next to them (see speed.py).
With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
half the time untraced and half with timing shims installed (see
spans.py) and reports the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Lines before it are a readable
summary; the full result, with its provenance, is also written under
.bench_out/. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from array import array
from pathlib import Path
from time import perf_counter

import spans
import speed
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPS = 9
TRACED_SETUP_REPS = 3
REF_INTERVAL_S = 0.2
GOLDEN_KEYS = ("bundled_lut", "report_text", "wide_lut", "wide_stats", "stream_shaped", "stream_decoded")

# The bundled 7-layer tree: 2^10 leaf candidates plus 2^12 for each of six
# upper layers, keeping 2^9 + 5 * 2^11 + 2^5 of them.
BUNDLED_CANDIDATES = 25600
BUNDLED_KEPT = 10784


def load_golden() -> dict[str, str]:
    with open(BENCH_DIR / "golden.json") as f:
        golden = json.load(f)
    missing = [key for key in GOLDEN_KEYS if key not in golden]
    if missing:
        raise SystemExit(f"error: golden.json lacks {missing}")
    return golden


def provenance(seed: int) -> dict[str, object]:
    py_files = sorted(SRC.rglob("*.py"))
    lines = sum(len(p.read_text().splitlines()) for p in py_files)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "seed": seed,
        "src_lines": lines,
        "machine": platform.machine(),
    }


def git_commit() -> str | None:
    """HEAD of the repository holding the benchmark, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Loop:
    """Closed-loop runner: one operation at a time, each checked after it is timed."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def run(self, seconds: float, min_ops: int = 1, tracer=None) -> tuple[dict[str, tuple[array, array]], list[float]]:
        """Run operations for about `seconds`.

        Returns (raw seconds, normalized seconds) per timed part, and the
        reference kernel's times. Normalized seconds use the reference kernel timed before and after
        the operation (see speed.py). The kernel is timed before an
        operation when REF_INTERVAL_S has passed since it last ran. An
        operation is not started when the previous one suggests it would
        end past the window, so a run of long operations does not overrun.
        """
        wl = self.workload
        raw: dict[str, array] = {}
        ref_before: dict[str, array] = {}  # index into refs of the kernel time before each value
        refs = [speed.kernel_seconds()]
        last_ref = start = perf_counter()
        last = 0.0
        i = 0
        while i < min_ops or perf_counter() - start + last < seconds:
            if perf_counter() - last_ref >= REF_INTERVAL_S:
                refs.append(speed.kernel_seconds())
                last_ref = perf_counter()
            self.attempted += 1
            try:
                if tracer is None:
                    parts, out = wl.run_op(i)
                else:
                    with tracer.op("loop"):
                        parts, out = wl.run_op(i)
                errors = wl.check(i, out)
            except Exception:  # noqa: BLE001 - an unexpected exception is a failed operation
                self.fail(f"op {i}: {traceback.format_exc(limit=3)}")
            else:
                last = sum(parts.values())
                for key, value in parts.items():
                    raw.setdefault(key, array("d")).append(value)
                    ref_before.setdefault(key, array("i")).append(len(refs) - 1)
                if errors:
                    self.fail(f"op {i}: {'; '.join(errors)}")
            i += 1
        refs.append(speed.kernel_seconds())
        times = {
            key: (values, array("d", (normalize(v, refs[k], refs[k + 1]) for v, k in zip(values, ref_before[key]))))
            for key, values in raw.items()
        }
        return times, refs


def op_ms(times: dict[str, tuple[array, array]], column: int) -> float:
    """Milliseconds of one operation: the sum over its timed parts of each part's median.

    column 0 sums raw times, column 1 normalized ones.
    """
    return 1e3 * sum(median(pair[column]) for pair in times.values())


def median(values) -> float:
    """Median, or 0.0 when no operation completed (the run is then marked incorrect)."""
    return statistics.median(values) if len(values) else 0.0


def normalize(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """Seconds at nominal machine speed, from the kernel times bracketing the measurement."""
    return seconds * speed.NOMINAL_S * 2 / (kernel_before + kernel_after)


def measure(wl, seconds: float, trace: bool) -> tuple[Loop, dict[str, tuple[float, str]], dict[str, object]]:
    """Set up, run and check one workload; returns (loop tallies, metrics, extra record fields)."""
    loop = Loop(wl)
    setup_times = []
    refs = [speed.kernel_seconds()]
    for _ in range(SETUP_REPS):
        setup_times.append(wl.setup())
        refs.append(speed.kernel_seconds())
        loop.attempted += 1
        errors = wl.check_setup()
        if errors:
            loop.fail(f"setup: {'; '.join(errors)}")
    setup_norm = [normalize(t, refs[k], refs[k + 1]) for k, t in enumerate(setup_times)]
    gc.collect()

    report: dict[str, object] = {"setup_times_s": setup_times, "setup_kernel_s": refs}
    if not trace:
        times, refs = loop.run(seconds, min_ops=wl.cycle_ops)
        metrics = {
            "setup_s": (median(setup_norm), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "op_ms": (op_ms(times, 1), "ms"),
        }
        report["ops"] = loop.attempted - SETUP_REPS
        report["raw"] = {
            "raw_setup_s": median(setup_times),
            "raw_op_ms": op_ms(times, 0),
            "kernel_p50_ms": median(refs) * 1e3,
        }
        if times:
            report["workload_figures"] = wl.figures({key: median(pair[0]) for key, pair in times.items()})
    else:
        untraced, _ = loop.run(seconds / 2, min_ops=wl.cycle_ops)
        tracer = spans.Tracer()
        wl.span = tracer.span
        restore = tracer.install(wl.dm)
        try:
            for _ in range(TRACED_SETUP_REPS):
                with tracer.op("setup"):
                    wl.build_bundled()
            traced, _ = loop.run(seconds / 2, min_ops=2 * wl.cycle_ops, tracer=tracer)
        finally:
            restore()
        report["ops"] = loop.attempted - SETUP_REPS
        metrics = spans.layer_metrics(tracer, wl.cycle_ops)
        check_counts(tracer, wl, loop)
        base_ms, traced_ms = op_ms(untraced, 1), op_ms(traced, 1)
        metrics["trace.untraced_op_ms"] = (base_ms, "ms")
        metrics["trace.op_ms"] = (traced_ms, "ms")
        metrics["trace.overhead_ratio"] = (traced_ms / base_ms - 1.0 if base_ms else 0.0, "ratio")
        metrics["trace.spans"] = (len(tracer.spans), "count")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(str(OUT_DIR / f"spans-{wl.name}-{wl.seed}.jsonl"))
    return loop, metrics, report


def check_counts(tracer, wl, loop: Loop) -> None:
    """Counts must repeat exactly: every cycle alike, every set-up alike and as expected."""
    loop_ops = [op for op in tracer.ops if op.phase == "loop"]
    setup_ops = [op for op in tracer.ops if op.phase == "setup"]
    for label, cycles in (("loop cycle", spans.cycle_sums(loop_ops, wl.cycle_ops)), ("set-up", [op.counts for op in setup_ops])):
        loop.attempted += 1
        if len(cycles) < 2 or any(c != cycles[0] for c in cycles[1:]):
            loop.fail(f"counts differ between {label}s of one seed")
    loop.attempted += 1
    got = (setup_ops[0].counts["synthesis.candidates"], setup_ops[0].counts["synthesis.kept"])
    if got != (BUNDLED_CANDIDATES, BUNDLED_KEPT):
        loop.fail(f"bundled synthesis kept {got[1]} of {got[0]} candidates, expected {BUNDLED_KEPT} of {BUNDLED_CANDIDATES}")


def run(wl, seconds: float, trace: bool) -> dict[str, object]:
    """Measure one workload instance; returns the result line plus the full record."""
    loop, metrics, report = measure(wl, seconds, trace)
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report["errors"] = loop.errors
    report["fail_ratio"] = loop.failed / loop.attempted
    return {"result": result, "report": report}


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "dmkit" / "__init__.py").is_file():
        print(f"error: no dmkit sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    golden = load_golden()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"{args.workload}-") as workdir:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, golden)
        outcome = run(wl, args.seconds, bool(args.trace))
        import dmkit

        if not Path(dmkit.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"error: imported dmkit from {dmkit.__file__}, not from {SRC}")

    result, report = outcome["result"], outcome["report"]
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        **report,
        **result,
    }
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w") as f:
        json.dump(record, f, indent=1)

    print(f"workload {args.workload}, seed {args.seed}, {report['ops']} operations, provenance {json.dumps(record['provenance'])}")
    for error in report["errors"]:
        print(f"FAIL {error}")
    print(f"  fail_ratio = {report['fail_ratio']:.6g} ({result['failed']}/{result['attempted']})")
    for key, value in {**report.get("workload_figures", {}), **report.get("raw", {})}.items():
        print(f"  {key} = {value:.6g}")
    for key, metric in result["metrics"].items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
