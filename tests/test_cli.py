import json
import random

import pytest

from dmkit import BitWord, read_bitfile, write_bitfile
from dmkit.cli import main
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
