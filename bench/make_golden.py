"""Regenerate bench/golden.json from the dmkit sources in ./src.

    python3 bench/make_golden.py

The digests pin outputs that no speed-up may change: the bundled LUT
entries (taken from the loaded LutSet, not the file bytes), the report
text, the wide tree's entries and statistics, and the stream workload's
shaped and decoded files at the default seed. Regenerate only when an
output is meant to change, and say so in the change that does it.
"""

import json
import sys
import tempfile

from run import BENCH_DIR, OUT_DIR, SRC

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402


def main() -> None:
    golden: dict[str, str] = {}
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        design = workloads.Design(workloads.DEFAULT_SEED, workdir, {})
        design.setup()
        golden.update(design.digests(design.run_op(0)[1]))
        stream = workloads.Stream(workloads.DEFAULT_SEED, workdir, {})
        stream.setup()
        for i in range(stream.cycle_ops):
            errors = stream.check(i, stream.run_op(i)[1])
            if errors:
                raise SystemExit(f"stream outputs fail their checks: {errors}")
        for key, path in (("stream_shaped", stream.shaped_path), ("stream_decoded", stream.out_path)):
            with open(path, "rb") as f:
                golden[key] = workloads.sha256(f.read())
    with open(BENCH_DIR / "golden.json", "w") as f:
        json.dump(dict(sorted(golden.items())), f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
