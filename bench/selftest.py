"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Shows that a corrupted output is counted as a failure and never passes
silently (a decoded stream with one bit flipped, a golden digest that does
not match), and that a tiny run of every workload, traced and untraced,
completes with no failure. Takes about ten seconds.
"""

from __future__ import annotations

import sys
import tempfile

from run import OUT_DIR, SRC, load_golden, run

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402

TINY = {"stream": {"n_words": 16, "tail_bits": 200}, "words": {"pool": 16}, "design": {}}


class FlippedDecode(workloads.Stream):
    """Flips the first information bit of the decoded file after every decode command."""

    def run_op(self, i):
        parts, out = super().run_op(i)
        if out[0] == "decode":
            with open(self.out_path, "r+b") as f:
                f.seek(12)
                first = f.read(1)[0]
                f.seek(12)
                f.write(bytes([first ^ 0x80]))
        return parts, out


class Raising(workloads.Words):
    """Every operation raises, as an unexpected dmkit exception would."""

    def run_op(self, i):
        raise RuntimeError("injected")


def tiny_run(cls, golden, trace, **sizes):
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        return run(cls(workloads.DEFAULT_SEED + 1, workdir, golden, **sizes), 0.2, trace)["result"]


def main() -> int:
    OUT_DIR.mkdir(exist_ok=True)
    golden = load_golden()
    checks = []
    for name, cls in workloads.WORKLOADS.items():
        for trace in (False, True):
            result = tiny_run(cls, golden, trace, **TINY[name])
            checks.append((f"tiny {name} run, trace {int(trace)}, completes correct", result["correct"] and result["failed"] == 0))

    result = tiny_run(FlippedDecode, golden, False, **TINY["stream"])
    checks.append(("flipped decoded bit counted as failed", not result["correct"] and result["failed"] > 0))

    result = tiny_run(Raising, golden, False, **TINY["words"])
    checks.append(("exception in an operation counted as failed", not result["correct"] and result["failed"] > 0))

    wrong = dict(golden, report_text="0" * 64)
    result = tiny_run(workloads.Design, wrong, False)
    checks.append(("golden report mismatch counted as failed", not result["correct"] and result["failed"] > 0))

    wrong = dict(golden, bundled_lut="0" * 64)
    result = tiny_run(workloads.Words, wrong, False, **TINY["words"])
    checks.append(("golden LUT mismatch at set-up counted as failed", not result["correct"] and result["failed"] > 0))

    for label, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {label}")
    failures = sum(not ok for _, ok in checks)
    print(f"selftest: {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
