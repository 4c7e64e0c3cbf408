import hashlib
import json
import random
import re
import time

import pytest

import dmkit.cli
from dmkit import CLASS_ENERGIES, BitWord, mb_fit, read_bitfile, write_bitfile
from dmkit.cli import main
from dmkit.stats import DEFAULT_SEED
from dmkit.synthesis import LUTFILE_MAGIC
from conftest import TREE3_ROWS


@pytest.fixture()
def tree3_config(tmp_path):
    path = tmp_path / "tree3.json"
    path.write_text(json.dumps({"m": 8, "m_sb": 4, "layers": TREE3_ROWS}))
    return path


@pytest.fixture()
def tree3_lutfile(tmp_path, tree3_config):
    out = tmp_path / "tree3.lut"
    assert main(["synthesize", "--config", str(tree3_config), "--out", str(out)]) == 0
    return out


def test_synthesize_prints_summary(tmp_path, tree3_config, capsys):
    out = tmp_path / "t.lut"
    assert main(["synthesize", "--config", str(tree3_config), "--out", str(out)]) == 0
    line = capsys.readouterr().out
    assert "3 layers" in line and "dm_bits=" in line
    assert out.exists()


def test_encode_decode_files_roundtrip(tmp_path, tree3_lutfile):
    rng = random.Random(12)
    data = BitWord(rng.getrandbits(10 * 5), 50)
    src = tmp_path / "in.bits"
    write_bitfile(src, data)
    shaped = tmp_path / "shaped.bits"
    back = tmp_path / "back.bits"
    assert main(["encode", str(tree3_lutfile), str(src), "--out", str(shaped)]) == 0
    assert main(["decode", str(tree3_lutfile), str(shaped), "--out", str(back)]) == 0
    assert read_bitfile(back) == data


def test_encode_partial_needs_pad(tmp_path, tree3_lutfile, capsys):
    src = tmp_path / "in.bits"
    write_bitfile(src, BitWord(0, 11))
    shaped = tmp_path / "shaped.bits"
    assert main(["encode", str(tree3_lutfile), str(src), "--out", str(shaped)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["encode", str(tree3_lutfile), str(src), "--out", str(shaped), "--pad"]) == 0
    assert read_bitfile(shaped).width == 2 * 16


def test_decode_reports_invalid_words(tmp_path, tree3_lutfile, capsys):
    # all-ones is not a shaped word of this tree
    src = tmp_path / "bad.bits"
    write_bitfile(src, BitWord((1 << 16) - 1, 16))
    out = tmp_path / "out.bits"
    assert main(["decode", str(tree3_lutfile), str(src), "--out", str(out)]) == 3
    assert "InvalidWord" in capsys.readouterr().err


def test_stats_builtin_config(capsys):
    assert main(["stats"]) == 0
    out = capsys.readouterr().out
    assert "hidm" in out and "P|X|(1)" in out


def test_report_text_and_csv(tmp_path, capsys):
    assert main(["report"]) == 0
    text = capsys.readouterr().out
    assert "ccdm" in text and "mb" in text

    out = tmp_path / "report.csv"
    assert main(["report", "--format", "csv", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("signal,p_abs_1")


def test_report_runs_are_identical(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert main(["report", "--out", str(a)]) == 0
    assert main(["report", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_report_requires_ccdm_section(tmp_path, tree3_config, capsys):
    assert main(["report", "--config", str(tree3_config)]) == 2
    assert "ccdm" in capsys.readouterr().err


def test_selftest_passes_on_small_config(tree3_config, capsys):
    assert main(["selftest", "--config", str(tree3_config), "--words", "60"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out


@pytest.mark.parametrize("command", ["encode", "decode"])
def test_truncated_bit_count_is_a_clean_error(tmp_path, tree3_lutfile, capsys, command):
    # Two of the eight bit-count bytes once read as an empty stream, exit 0.
    src = tmp_path / "short.bits"
    src.write_bytes(b"DMB1\x00\x00")
    out = tmp_path / "out.bits"
    assert main([command, str(tree3_lutfile), str(src), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("words", [0, -3])
def test_selftest_rejects_nonpositive_words(capsys, words):
    assert main(["selftest", "--words", str(words)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ValueError: --words must be at least 30, got {words}\n"


@pytest.mark.parametrize("words", [1, 2, 5])
def test_selftest_refuses_samples_too_small_for_a_standard_error(capsys, words):
    # At 1 and 2 words the sampled check once failed the correct bundled tree
    # against a standard error of 0 or a two-point estimate.
    assert main(["selftest", "--words", str(words)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ValueError: --words must be at least 30, got {words}\n"


def test_selftest_passes_at_the_smallest_sample(capsys):
    assert main(["selftest", "--words", "30"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5 and "FAIL" not in out


def _swap_leaf_records(lutset):
    """lutset with the leaf's decode records of entries[0] and entries[1] swapped."""
    table = list(lutset.decode_slots[-1])
    w0, w1 = lutset.luts[-1].entries[:2]
    table[w0], table[w1] = table[w1], table[w0]
    # decode_slots is a cached view, so a value in the instance shadows it.
    lutset.__dict__["decode_slots"] = lutset.decode_slots[:-1] + (tuple(table),)
    return lutset


def test_selftest_fails_on_swapped_decode_records(monkeypatch, tree3_config, capsys):
    synthesize = dmkit.cli.synthesize_tree
    monkeypatch.setattr(dmkit.cli, "synthesize_tree", lambda spec: _swap_leaf_records(synthesize(spec)))
    assert main(["selftest", "--config", str(tree3_config), "--words", "30"]) == 1
    out = capsys.readouterr().out
    assert "FAIL tables: layer 1: mirror mismatch at 0\n" in out
    failures = re.fullmatch(r"selftest: (\d+) failure\(s\)", out.splitlines()[-1])
    assert failures and int(failures.group(1)) >= 1


def test_selftest_fails_on_a_flipped_stream_bit(monkeypatch, tree3_config, capsys):
    # Round-trip, zero-word and small-trees run the stream path of encode and
    # decode; the flip lands in the last word of each stream, so round-trip
    # names the 30th word of the sample. The sampled check encodes through
    # stats, which keeps the real encode_stream.
    encode_stream = dmkit.cli.encode_stream

    def flipped(lutset, bits, pad=False):
        out = encode_stream(lutset, bits, pad)
        return BitWord(out.value ^ 1, out.width)

    monkeypatch.setattr(dmkit.cli, "encode_stream", flipped)
    assert main(["selftest", "--config", str(tree3_config), "--words", "30"]) == 1
    rng = random.Random(DEFAULT_SEED)
    last = [BitWord(rng.getrandbits(10), 10) for _ in range(30)][-1]
    assert capsys.readouterr().out.splitlines() == [
        f"FAIL round-trip: round-trip failed for {last.hex()}",
        "PASS tables: 3 layers injective with exact mirrors",
        "FAIL zero-word: all-zero word does not map to the all-zero output",
        "PASS exact-vs-sampled: exact vs 30-word sample within 4 sigma",
        "FAIL small-trees: two-layer: round-trip failed at 15",
        "selftest: 3 failure(s)",
    ]


def _extra_leaf_record(monkeypatch):
    """A leaf decode table that also holds a record for a word the leaf never emits."""
    synthesize = dmkit.cli.synthesize_tree

    def extra(spec):
        lutset = synthesize(spec)
        table = list(lutset.decode_slots[-1])
        table[table.index(None)] = table[lutset.luts[-1].entries[0]]
        lutset.__dict__["decode_slots"] = lutset.decode_slots[:-1] + (tuple(table),)
        return lutset

    monkeypatch.setattr(dmkit.cli, "synthesize_tree", extra)


def _zero_off_zero(monkeypatch):
    """An encode_stream that maps the all-zero stream to a nonzero one."""
    encode_stream = dmkit.cli.encode_stream

    def shifted(lutset, bits, pad=False):
        out = encode_stream(lutset, bits, pad)
        return BitWord(out.value or 1, out.width)

    monkeypatch.setattr(dmkit.cli, "encode_stream", shifted)


def _sample_off_exact(monkeypatch):
    """A sampled pmf with every word in class 0 and no spread."""
    monkeypatch.setattr(dmkit.cli, "monte_carlo_pmf", lambda lutset, n, seed: ((1.0, 0.0, 0.0, 0.0), (0.0,) * 4))


def _unemitted_last_leaf_word(monkeypatch):
    """An encode_stream whose last 4-bit leaf output is 1111, a word neither small tree's leaf emits."""
    encode_stream = dmkit.cli.encode_stream

    def unemitted(lutset, bits, pad=False):
        out = encode_stream(lutset, bits, pad)
        return BitWord(out.value | 0b1111, out.width)

    monkeypatch.setattr(dmkit.cli, "encode_stream", unemitted)


def _classes_off_codebook(monkeypatch):
    """Class symbols read as all zero, so no codebook average matches its exact pmf."""
    split_symbols = dmkit.cli.split_symbols
    monkeypatch.setattr(dmkit.cli, "split_symbols", lambda word, width: bytes(len(split_symbols(word, width))))


# One fault per check that no other test makes fail: its FAIL line, and the
# whole report's failure count.
@pytest.mark.parametrize(
    "fault, line, failures",
    [
        (_extra_leaf_record, "FAIL tables: layer 1: not 8 decode records", 1),
        (_zero_off_zero, "FAIL zero-word: all-zero word does not map to the all-zero output", 1),
        (_sample_off_exact, "FAIL exact-vs-sampled: class 0: |0.468750 - 1.000000| > 4 * 0.000000", 1),
        (
            _unemitted_last_leaf_word,
            "FAIL small-trees: two-layer: round-trip failed: invalid word at layer 1, lut 1",
            3,
        ),
        (_classes_off_codebook, "FAIL small-trees: two-layer: exact pmf disagrees with codebook average", 1),
    ],
    ids=["tables-count", "zero-word", "exact-vs-sampled", "small-trees-invalid", "small-trees-pmf"],
)
def test_selftest_reports_each_check_failure(monkeypatch, tree3_config, capsys, fault, line, failures):
    fault(monkeypatch)
    assert main(["selftest", "--config", str(tree3_config), "--words", "30"]) == 1
    out = capsys.readouterr().out
    assert line + "\n" in out
    assert out.endswith(f"selftest: {failures} failure(s)\n")


def test_mb_fit_out_of_steps_is_a_clean_error(monkeypatch, capsys):
    monkeypatch.setattr(dmkit.maxwell, "_MAX_ITER", 0)
    with pytest.raises(ValueError, match="bisection"):
        mb_fit(7.169)
    assert main(["report"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ValueError: bisection") and captured.err.count("\n") == 1


def test_bad_config_is_a_clean_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"m": 8, "m_sb": 4, "layers": TREE3_ROWS, "extra": 1}))
    assert main(["stats", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "extra" in err


def test_huge_ccdm_k_is_a_clean_error(tmp_path, capsys):
    cfg = tmp_path / "huge_k.json"
    ccdm = {"composition": [2, 2], "k": 2**62}
    cfg.write_text(json.dumps({"m": 8, "m_sb": 4, "layers": TREE3_ROWS, "ccdm": ccdm}))
    assert main(["stats", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "capacity" in captured.err


def test_huge_ccdm_block_is_a_clean_error(tmp_path, capsys):
    # The exact codebook size of 2 * 10^8 symbols once kept this busy past a minute.
    cfg = tmp_path / "huge_block.json"
    ccdm = {"composition": [100_000_000, 100_000_000], "k": 4}
    cfg.write_text(json.dumps({"m": 8, "m_sb": 4, "layers": TREE3_ROWS, "ccdm": ccdm}))
    start = time.perf_counter()
    assert main(["stats", "--config", str(cfg)]) == 2
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: TreeConfigError") and captured.err.count("\n") == 1
    assert "longest supported block" in captured.err


def test_other_modulation_is_a_clean_error(tmp_path, capsys):
    cfg = tmp_path / "qam1024.json"
    cfg.write_text(json.dumps({"m": 10, "m_sb": 4, "layers": TREE3_ROWS}))
    assert main(["stats", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "m=10" in captured.err


def test_missing_file_is_a_clean_error(tmp_path, capsys):
    assert main(["stats", "--config", str(tmp_path / "nope.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_flipped_leaf_byte_is_a_clean_error(tmp_path, capsys):
    lut = tmp_path / "bundled.lut"
    assert main(["synthesize", "--out", str(lut)]) == 0
    raw = bytearray(lut.read_bytes())
    raw[-1] ^= 0xFF  # the leaf blob is the file's last
    lut.write_bytes(bytes(raw))
    src = tmp_path / "in.bits"
    write_bitfile(src, BitWord(0, 507))
    capsys.readouterr()
    assert main(["encode", str(lut), str(src), "--out", str(tmp_path / "out.bits")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: LutFormatError: layer 1: entry") and captured.err.count("\n") == 1


# sha256 of each command's stdout on the bundled config, and of the .lut
# file that synthesize writes for it. The report digest equals
# bench/golden.json's report_text.
PINNED_STDOUT = {
    ("report",): "4c5e4cd4c0b180a1d8197e936d2c48f84d93c7735053e1ff701aeea31c43e94c",
    ("report", "--format", "csv"): "59305e360f7f29809e69e1009e8fba28f9bc8cea85d58099639641705ccd671a",
    ("stats",): "a385497eb25ebc19d16a91a106076be8bcfabb6d6531716d6b5b16e9780613ea",
    ("stats", "--format", "csv"): "fb3f8acdcc33df86fdc2a15d853854215a899da5f19348f7df16bc6f6e60b1f7",
    ("selftest",): "8277bacab98da436875b84aa84b9fec8059d2d84547b5dbf425dc6e81dc79747",
}
PINNED_LUT = "812adac491f5fb06a98abc4e588d625b33c2ca8091d0ba34a7ba570aaca5b40c"


def test_pinned_outputs(tmp_path, capsys):
    for argv, digest in PINNED_STDOUT.items():
        assert main(list(argv)) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, argv
    lut = tmp_path / "bundled.lut"
    assert main(["synthesize", "--out", str(lut)]) == 0
    assert hashlib.sha256(lut.read_bytes()).hexdigest() == PINNED_LUT


# Inputs that once ended in a traceback: JSON nested past the parser's
# recursion limit, an mb_target_2h integer beyond the float range, and a
# 20-bit leaf, a whole number of QAM symbols above the 16-bit bound.
# Without the bound, synthesizing or loading that leaf scores 2^20
# candidates (about 117 MB), so a regression fails here without
# exhausting memory. The 40-layer tree (2^39 leaves, 2^41 shaped
# bits) synthesized, then ran the codec out of memory.
NESTED_JSON = "[" * 100_000 + "]" * 100_000
WIDE_LEAF = [{"l": 1, "T": 1, "s": 1, "v": 1, "u": 20}]
DEEP_ROWS = [{"l": 40, "T": 1, "s": 2, "v": 2, "u": 4}] + [
    {"l": l, "t": 2, "r": 2, "s": 0, "v": 2, "u": 4} for l in range(39, 0, -1)
]


def _config(layers):
    return json.dumps({"m": 8, "m_sb": 4, "layers": layers, "ccdm": {"composition": [1, 1, 1, 1], "k": 4}})


def _lut_header(layers):
    doc = {"m": 8, "m_sb": 4, "layers": layers}
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    header = dict(doc, format=1, class_energy=list(CLASS_ENERGIES))
    header["spec_sha256"] = hashlib.sha256(canon.encode()).hexdigest()[:32]
    return json.dumps(header)


@pytest.mark.parametrize("command", ["synthesize", "stats", "report", "selftest"])
@pytest.mark.parametrize(
    "text, error",
    [
        (NESTED_JSON, "TreeConfigError"),
        (json.dumps({"m": 8, "m_sb": 4, "layers": TREE3_ROWS, "mb_target_2h": 10**400}), "TreeConfigError"),
        (_config(WIDE_LEAF), "WidthViolation"),
        (_config(DEEP_ROWS), "CountViolation"),
    ],
    ids=["nested", "huge-mb-target", "too-wide", "too-deep"],
)
def test_config_beyond_limits_is_a_clean_error(tmp_path, capsys, command, text, error):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    argv = [command, "--config", str(cfg)] + (["--out", str(tmp_path / "w.lut")] if command == "synthesize" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {error}") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "header, blobs, error",
    [
        (NESTED_JSON, [], "LutFormatError"),
        # The two cheapest 20-bit words, 0 and 1, packed little-endian.
        (_lut_header(WIDE_LEAF), [(1 << 20).to_bytes(5, "little")], "WidthViolation"),
        # The top LUT's four 2-bit entries; the header is rejected first.
        (_lut_header(DEEP_ROWS), [bytes([0b11100100])], "CountViolation"),
    ],
    ids=["nested", "too-wide", "too-deep"],
)
def test_lut_header_beyond_limits_is_a_clean_error(tmp_path, capsys, header, blobs, error):
    lut = tmp_path / "bad.lut"
    with open(lut, "wb") as f:
        f.write(LUTFILE_MAGIC)
        for data in [header.encode(), *blobs]:
            f.write(len(data).to_bytes(4, "little") + data)
    src = tmp_path / "in.bits"
    write_bitfile(src, BitWord(0, 1))
    assert main(["encode", str(lut), str(src), "--out", str(tmp_path / "out.bits")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {error}") and captured.err.count("\n") == 1
