"""The benchmark's workloads: inputs made from a seed, one timed operation, its checks.

Every workload drives dmkit through its public functions and CLI entry
point, looked up as module attributes at call time so that the timing
shims of spans.py apply. A workload's set-up imports dmkit afresh, loads
the bundled config, synthesizes, saves and reloads its LUT set, and makes
the workload's inputs; ``setup`` returns the seconds that took.

``run_op(i)`` performs operation i and returns (timed parts, outputs);
only the dmkit calls are inside the timed parts. ``check(i, outputs)``
returns a list of error strings, empty when the outputs are correct.
Operations repeat with period ``cycle_ops``, so counts taken over one
cycle must match those over every other.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import sys
from time import perf_counter

DEFAULT_SEED = 12345
BITFILE_MAGIC = b"DMB1"

# A wider-field tree than the bundled one (139 -> 192 bits): 2^14
# candidates per upper layer, so synthesis outweighs the statistics.
WIDE_ROWS = (
    [{"l": 5, "T": 1, "s": 7, "v": 7, "u": 14}]
    + [{"l": l, "t": 2, "r": 7, "s": 6, "v": 13, "u": 14} for l in (4, 3, 2)]
    + [{"l": 1, "t": 2, "r": 7, "s": 3, "v": 10, "u": 12}]
)

MODULES = ("bits", "ccdm", "cli", "codec", "config", "maxwell", "stats", "synthesis", "tree")


class Dm:
    """Handles on a fresh import of every dmkit module."""

    def __init__(self) -> None:
        for name in [n for n in sys.modules if n == "dmkit" or n.startswith("dmkit.")]:
            del sys.modules[name]
        for name in MODULES:
            setattr(self, name, importlib.import_module("dmkit." + name))


def sha256(data: bytes | str) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def lut_digest(lutset) -> str:
    """Digest of a LutSet's table contents, independent of the file format."""
    rows = [[lut.layer_index, lut.in_bits, lut.out_bits, list(lut.entries)] for lut in lutset.luts]
    return sha256(json.dumps(rows, separators=(",", ":")))


def pack_bitfile(value: int, width: int) -> bytes:
    """A bit file in the documented DMB1 layout, built without dmkit."""
    n = (width + 7) // 8
    return BITFILE_MAGIC + width.to_bytes(8, "big") + (value << (8 * n - width)).to_bytes(n, "big")


def unpack_bitfile(data: bytes) -> tuple[int, int]:
    if data[:4] != BITFILE_MAGIC:
        raise ValueError("not a bit file")
    width = int.from_bytes(data[4:12], "big")
    n = (width + 7) // 8
    if len(data) != 12 + n:
        raise ValueError(f"bit file of {width} bits has {len(data) - 12} payload bytes")
    return int.from_bytes(data[12:], "big") >> (8 * n - width), width


def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


class Workload:
    name = ""
    cycle_ops = 1

    def __init__(self, seed: int, workdir: str, golden: dict[str, str]):
        self.seed = seed
        self.workdir = workdir
        self.golden = golden
        self.lut_path = os.path.join(workdir, "bundled.lut")
        self.span = lambda name: contextlib.nullcontext()

    def setup(self) -> float:
        start = perf_counter()
        self.dm = Dm()
        self.build_bundled()
        self.make_inputs()
        return perf_counter() - start

    def build_bundled(self) -> None:
        dm = self.dm
        self.cfg = dm.config.load_config(dm.config.builtin_config_path())
        lutset = dm.synthesis.synthesize_tree(self.cfg.spec)
        dm.synthesis.save_lutset(lutset, self.lut_path)
        self.lutset = dm.synthesis.load_lutset(self.lut_path)

    def make_inputs(self) -> None:
        pass

    def check_setup(self) -> list[str]:
        return self.compare_golden({"bundled_lut": lut_digest(self.lutset)})

    def compare_golden(self, digests: dict[str, str]) -> list[str]:
        return [
            f"{key}: sha256 {value[:12]}... differs from golden {self.golden[key][:12]}..."
            for key, value in digests.items()
            if key in self.golden and self.golden[key] != value
        ]

    def run_op(self, i: int) -> tuple[dict[str, float], object]:
        raise NotImplementedError

    def check(self, i: int, out) -> list[str]:
        raise NotImplementedError

    def figures(self, med: dict[str, float]) -> dict[str, float]:
        """The workload's own summary figures, from median raw seconds per timed part."""
        raise NotImplementedError


class Stream(Workload):
    """Random bits through `dmkit encode --pad` then `dmkit decode`, in-process."""

    name = "stream"
    cycle_ops = 2

    def __init__(self, seed, workdir, golden, n_words: int = 8192, tail_bits: int = 200):
        super().__init__(seed, workdir, golden)
        self.n_words = n_words
        self.tail_bits = tail_bits
        self.in_path = os.path.join(workdir, "data.bits")
        self.shaped_path = os.path.join(workdir, "shaped.bits")
        self.out_path = os.path.join(workdir, "decoded.bits")
        self.uses_golden = seed == DEFAULT_SEED and (n_words, tail_bits) == (8192, 200)
        self.shaped_digest: str | None = None

    def make_inputs(self) -> None:
        spec = self.cfg.spec
        self.info_bits = self.n_words * spec.n_info + self.tail_bits
        self.words_out = self.n_words + (1 if self.tail_bits else 0)
        self.data = random.Random(self.seed).getrandbits(self.info_bits)
        with open(self.in_path, "wb") as f:
            f.write(pack_bitfile(self.data, self.info_bits))
        pad = self.words_out * spec.n_info - self.info_bits
        self.expected_decoded = pack_bitfile(self.data << pad, self.info_bits + pad)
        self.encode_oracle = self.dm.codec.encode
        self.bitword = self.dm.bits.BitWord

    def _cli(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = self.dm.cli.main(argv)
        return rc, out.getvalue()

    def run_op(self, i):
        """Even operations encode the input file, odd ones decode the shaped file."""
        if i % 2 == 0:
            kind, argv = "encode", ["encode", self.lut_path, self.in_path, "--out", self.shaped_path, "--pad"]
        else:
            kind, argv = "decode", ["decode", self.lut_path, self.shaped_path, "--out", self.out_path]
        start = perf_counter()
        with self.span("cli." + kind):
            rc, text = self._cli(argv)
        return {kind: perf_counter() - start}, (kind, rc, text)

    def check(self, i, out):
        kind, rc, text = out
        if rc:
            return [f"dmkit {kind} exited {rc}: {text.strip()}"]
        errors = []
        if kind == "encode":
            digest = sha256(_read(self.shaped_path))
            if self.shaped_digest is None:
                errors += self._check_shaped_words(_read(self.shaped_path))
                self.shaped_digest = digest
            elif digest != self.shaped_digest:
                errors.append("shaped file differs from the first encode's")
            key = "stream_shaped"
        else:
            decoded = _read(self.out_path)
            if decoded != self.expected_decoded:
                errors.append("decoded file is not the input followed by zero padding")
            digest, key = sha256(decoded), "stream_decoded"
        if self.uses_golden:
            errors += self.compare_golden({key: digest})
        return errors

    def figures(self, med):
        return {"encode_mbit_s": self.info_bits / med["encode"] / 1e6, "decode_mbit_s": self.info_bits / med["decode"] / 1e6}

    def _check_shaped_words(self, shaped: bytes) -> list[str]:
        """Compare sampled words of the shaped file with per-word encode."""
        spec = self.cfg.spec
        n_info, n_out = spec.n_info, spec.n_out
        value, width = unpack_bitfile(shaped)
        if width != self.words_out * n_out:
            return [f"shaped file holds {width} bits, expected {self.words_out * n_out}"]
        pad = self.words_out * n_info - self.info_bits
        padded = self.data << pad
        errors = []
        for j in sorted({0, 1, self.words_out // 2, self.words_out - 2, self.words_out - 1} & set(range(self.words_out))):
            info = (padded >> (n_info * (self.words_out - 1 - j))) & ((1 << n_info) - 1)
            got = (value >> (n_out * (self.words_out - 1 - j))) & ((1 << n_out) - 1)
            want = self.encode_oracle(self.lutset, self.bitword(info, n_info)).value
            if got != want:
                errors.append(f"shaped word {j} differs from encode of input word {j}")
        return errors


class Words(Workload):
    """Random 507-bit words through the tree and CCDM round trips; every 8th shaped word flipped."""

    name = "words"

    def __init__(self, seed, workdir, golden, pool: int = 1024):
        super().__init__(seed, workdir, golden)
        self.cycle_ops = pool

    def make_inputs(self) -> None:
        spec = self.cfg.spec
        rng = random.Random(self.seed)
        BitWord = self.dm.bits.BitWord
        self.pool = [
            (BitWord(rng.getrandbits(spec.n_info), spec.n_info), rng.randrange(spec.n_out) if i % 8 == 7 else None)
            for i in range(self.cycle_ops)
        ]

    def run_op(self, i):
        dm, lutset, code = self.dm, self.lutset, self.cfg.ccdm_code
        n_out = lutset.spec.n_out
        word, flip = self.pool[i % self.cycle_ops]
        t0 = perf_counter()
        shaped = dm.codec.encode(lutset, word)
        back = dm.codec.decode(lutset, shaped)
        flipped = None
        if flip is not None:
            bad = dm.bits.BitWord(shaped.value ^ (1 << (n_out - 1 - flip)), n_out)
            try:
                got = dm.codec.decode(lutset, bad)
                flipped = (bad, dm.codec.encode(lutset, got))
            except dm.codec.InvalidWord:
                flipped = (bad, None)
        t1 = perf_counter()
        seq = dm.ccdm.ccdm_encode(code, word)
        back_ccdm = dm.ccdm.ccdm_decode(code, seq)
        t2 = perf_counter()
        return {"tree": t1 - t0, "ccdm": t2 - t1}, (word, shaped, back, flipped, seq, back_ccdm)

    def check(self, i, out):
        word, shaped, back, flipped, seq, back_ccdm = out
        errors = []
        if shaped.width != self.cfg.spec.n_out or back != word:
            errors.append(f"word {i}: tree round trip failed")
        if flipped is not None and flipped[1] is not None and flipped[1] != flipped[0]:
            errors.append(f"word {i}: flipped word decoded to a word that encodes elsewhere")
        counts = self.cfg.ccdm_code.composition.counts
        if tuple(seq.count(c) for c in range(len(counts))) != counts or len(seq) != sum(counts):
            errors.append(f"word {i}: ccdm output breaks the composition")
        if back_ccdm != word:
            errors.append(f"word {i}: ccdm round trip failed")
        return errors

    def figures(self, med):
        return {"tree_words_s": 1 / med["tree"], "ccdm_words_s": 1 / med["ccdm"]}


class Design(Workload):
    """Repeated design passes: bundled config to report text, wide tree to statistics."""

    name = "design"

    def make_inputs(self) -> None:
        self.wide_spec = self.dm.tree.validate_tree(WIDE_ROWS, 8, 4)
        self.config_path = self.dm.config.builtin_config_path()
        self.wide_path = os.path.join(self.workdir, "wide.lut")

    def run_op(self, i):
        dm = self.dm
        t0 = perf_counter()
        cfg = dm.config.load_config(self.config_path)
        dm.synthesis.save_lutset(dm.synthesis.synthesize_tree(cfg.spec), self.lut_path)
        bundled = dm.synthesis.load_lutset(self.lut_path)
        text = dm.stats.render_text(dm.stats.comparison_report(bundled, cfg.ccdm_code, cfg.mb_target_two_h))
        t1 = perf_counter()
        dm.synthesis.save_lutset(dm.synthesis.synthesize_tree(self.wide_spec), self.wide_path)
        wide = dm.synthesis.load_lutset(self.wide_path)
        wide_stats = dm.stats.stats_for_lutset(wide)
        t2 = perf_counter()
        return {"bundled": t1 - t0, "wide": t2 - t1}, (bundled, text, wide, wide_stats)

    def digests(self, out) -> dict[str, str]:
        bundled, text, wide, wide_stats = out
        return {
            "bundled_lut": lut_digest(bundled),
            "report_text": sha256(text),
            "wide_lut": lut_digest(wide),
            "wide_stats": sha256(repr(sorted(wide_stats.as_dict().items()))),
        }

    def check(self, i, out):
        return self.compare_golden(self.digests(out))

    def figures(self, med):
        return {"design_s": med["bundled"] + med["wide"]}


WORKLOADS = {cls.name: cls for cls in (Stream, Words, Design)}
