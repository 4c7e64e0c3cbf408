"""Command-line front end.

Commands: synthesize (build and save a LUT set), encode/decode (bit files
through a saved LUT set), stats (statistics of the config's tree), report
(three-column comparison against the published reference), selftest
(round-trip, decode table, sampled-vs-exact, and small-tree oracle checks).

Every command is deterministic for a fixed seed and exits 0 on success;
failures print a single "error: ..." line on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import sys
from typing import Mapping, Sequence

from .bits import BitWord, pack_symbols, read_bitfile, split_symbols, write_bitfile
from .codec import InvalidWord, decode_stream, encode_stream
from .config import ToolkitConfig, builtin_config_path, load_config
from .mapping import BITS_PER_QAM, CLASS_BITS, SHAPED_BITS_PER_QAM
from .stats import (
    DEFAULT_SEED,
    StatsReport,
    _sample_batches,
    comparison_report,
    exact_class_pmf,
    monte_carlo_pmf,
    render_csv,
    render_text,
    stats_for_lutset,
)
from .synthesis import load_lutset, save_lutset, synthesize_tree
from .tree import lut_size_report, validate_tree

# Small trees whose codebooks can be checked exhaustively, through the stream
# path of encode and decode.
SELFTEST_TREES = (
    (
        "two-layer",
        [
            {"l": 2, "T": 1, "s": 2, "v": 2, "u": 4},
            {"l": 1, "t": 2, "r": 2, "s": 1, "v": 3, "u": 4},
        ],
    ),
    (
        "three-layer",
        [
            {"l": 3, "T": 1, "s": 2, "v": 2, "u": 4},
            {"l": 2, "t": 2, "r": 2, "s": 2, "v": 4, "u": 4},
            {"l": 1, "t": 2, "r": 2, "s": 1, "v": 3, "u": 4},
        ],
    ),
)


# The sampled check trusts a standard error estimated from the sample. For a
# correct tree, a class lands beyond 4 estimated errors with the Student t
# tail of n - 1 degrees of freedom: 0.16 at 2 words (the estimate is 0 at 1),
# 0.016 at 5, at most 4e-4 from 30 on, 6e-5 in the limit.
SELFTEST_MIN_WORDS = 30


def _load(args: argparse.Namespace) -> ToolkitConfig:
    return load_config(args.config if args.config else builtin_config_path())


def _emit(reports: Mapping[str, StatsReport], args: argparse.Namespace) -> int:
    text = render_csv(reports) if args.format == "csv" else render_text(reports)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_synthesize(args: argparse.Namespace) -> int:
    cfg = _load(args)
    lutset = synthesize_tree(cfg.spec)
    save_lutset(lutset, args.out)
    sizes = lut_size_report(cfg.spec)
    print(
        f"wrote {args.out}: {cfg.spec.depth} layers, {cfg.spec.n_info} -> {cfg.spec.n_out} bits, "
        f"dm_bits={sizes['dm_bits']}, invdm_bits={sizes['invdm_bits']}"
    )
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    """encode or decode, as args.command names, a bit file through a saved LUT set; its helpers are module globals, which bench/spans.py rebinds."""
    lutset = load_lutset(args.lut)
    data = read_bitfile(args.infile)
    out = encode_stream(lutset, data, pad=args.pad) if args.command == "encode" else decode_stream(lutset, data)
    write_bitfile(args.out, out)
    print(f"{args.command}d {data.width} bits -> {out.width} bits ({args.out})")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    return _emit({"hidm": stats_for_lutset(synthesize_tree(_load(args).spec))}, args)


def cmd_report(args: argparse.Namespace) -> int:
    cfg = _load(args)
    if cfg.ccdm_code is None:
        raise ValueError("config has no ccdm section; the report needs all three columns")
    return _emit(comparison_report(synthesize_tree(cfg.spec), cfg.ccdm_code, cfg.mb_target_two_h), args)


def _selftest_checks(cfg: ToolkitConfig, seed: int, words: int):
    lutset = synthesize_tree(cfg.spec)
    spec = cfg.spec

    def check_roundtrip() -> str:
        # One encode_stream and one decode_stream call per batch of words.
        n = spec.n_info
        for batch in _sample_batches(n, words, seed):
            diff = (decode_stream(lutset, encode_stream(lutset, batch)).value ^ batch.value).bit_length()
            if diff:
                # The highest differing bit lies in the first word that does not come back.
                end = (batch.width - diff) // n * n + n
                word = BitWord((batch.value >> (batch.width - end)) & ((1 << n) - 1), n)
                raise AssertionError(f"round-trip failed for {word.hex()}")
        return f"{words} random words"

    def check_tables() -> str:
        # decode's table must give entry e back as e's r high bits in a
        # 2-byte slot and e's s low bits as text, and hold nothing else.
        for layer, lut, records in zip(spec.layers, lutset.luts, lutset.decode_slots):
            s = layer.info_bits
            if len(records) - records.count(None) != 1 << layer.in_bits:
                raise AssertionError(f"layer {layer.layer_index}: not {1 << layer.in_bits} decode records")
            for e, w in enumerate(lut.entries):
                low = format(e & ((1 << s) - 1), f"0{s}b").encode() if s else b""
                if records[w] != (e >> s).to_bytes(2, "big") + low:
                    raise AssertionError(f"layer {layer.layer_index}: mirror mismatch at {e}")
        return f"{spec.depth} layers injective with exact mirrors"

    def check_zero() -> str:
        zero = BitWord(0, spec.n_info)
        if encode_stream(lutset, zero).value != 0:
            raise AssertionError("all-zero word does not map to the all-zero output")
        return "all-zero word maps to all-zero output"

    def check_dp_vs_mc() -> str:
        exact = exact_class_pmf(lutset)
        estimate, stderr = monte_carlo_pmf(lutset, words, seed)
        for c, (p, q, s) in enumerate(zip(exact, estimate, stderr)):
            if abs(p - q) > 4 * s + 1e-12:
                raise AssertionError(f"class {c}: |{p:.6f} - {q:.6f}| > 4 * {s:.6f}")
        return f"exact vs {words}-word sample within 4 sigma"

    def check_small_trees() -> str:
        # One encode_stream and one decode_stream call per codebook; a round
        # trip that gives back every word also proves the codebook injective.
        for name, rows in SELFTEST_TREES:
            toy_spec = validate_tree(rows, BITS_PER_QAM, SHAPED_BITS_PER_QAM)
            toy = synthesize_tree(toy_spec)
            n = toy_spec.n_info
            codebook = pack_symbols(range(1 << n), n)
            shaped = encode_stream(toy, codebook)
            try:
                back = decode_stream(toy, shaped)
            except InvalidWord as exc:
                raise AssertionError(f"{name}: round-trip failed: {exc}") from None
            if back != codebook:
                value = next(v for v, w in enumerate(split_symbols(back, n)) if w != v)
                raise AssertionError(f"{name}: round-trip failed at {value}")
            classes = split_symbols(shaped, CLASS_BITS)
            if any(abs(p - classes.count(c) / len(classes)) > 1e-12 for c, p in enumerate(exact_class_pmf(toy))):
                raise AssertionError(f"{name}: exact pmf disagrees with codebook average")
        return f"{len(SELFTEST_TREES)} small trees exhaustively verified"

    return [
        ("round-trip", check_roundtrip),
        ("tables", check_tables),
        ("zero-word", check_zero),
        ("exact-vs-sampled", check_dp_vs_mc),
        ("small-trees", check_small_trees),
    ]


def cmd_selftest(args: argparse.Namespace) -> int:
    if args.words < SELFTEST_MIN_WORDS:
        raise ValueError(f"--words must be at least {SELFTEST_MIN_WORDS}, got {args.words}")
    cfg = _load(args)
    failures = 0
    for name, check in _selftest_checks(cfg, args.seed, args.words):
        try:
            detail = check()
            print(f"PASS {name}: {detail}")
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures += 1
            print(f"FAIL {name}: {exc}")
    print(f"selftest: {failures} failure(s)")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dmkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="config file (default: bundled 7-layer 256-QAM setup)")

    p = sub.add_parser("synthesize", help="build the LUT tree and save it")
    add_config(p)
    p.add_argument("--out", required=True, help="output LUT file")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("encode", help="encode a packed bit file")
    p.add_argument("lut", help="LUT file from synthesize")
    p.add_argument("infile", help="input bit file")
    p.add_argument("--out", required=True, help="output bit file")
    p.add_argument("--pad", action="store_true", help="zero-pad a final partial word")
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser("decode", help="decode a packed bit file")
    p.add_argument("lut", help="LUT file from synthesize")
    p.add_argument("infile", help="input bit file")
    p.add_argument("--out", required=True, help="output bit file")
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser("stats", help="exact statistics of the config's tree")
    add_config(p)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--out", help="write to file instead of stdout")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("report", help="three-column comparison with reference deltas")
    add_config(p)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--out", help="write to file instead of stdout")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("selftest", help="run the built-in checks")
    add_config(p)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument(
        "--words", type=int, default=1000, help=f"random words per sampled check (at least {SELFTEST_MIN_WORDS})"
    )
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidWord as exc:
        print(f"error: InvalidWord: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
