"""Fixed-length matching and dematching over a synthesized LUT set.

encode maps an n_info-bit information word to an n_out-bit shaped word:
the top LUT is indexed by its information bits alone; every other LUT by
the r bits received from its parent (high part of the index) concatenated
with its own information bits (low part). The shaped word is the
concatenation of the leaf outputs in LUT order.

decode runs the mirror tables upward and is exact: decode(encode(w)) == w
for every word. A shaped word that is not a codec output fails with
InvalidWord at the first layer where a chunk or reassembled word has no
table entry; no correction is attempted.

Both directions are pure functions of an immutable LutSet and may be used
concurrently. Words in a stream are independent (the codec is stateless).
"""

from __future__ import annotations

import os
from typing import Iterable, TextIO

from .bits import BitWord, pack_symbols, unpack_symbols
from .synthesis import LutSet
from .tree import TreeSpec

VECTOR_FILE_TAG = "dmkit-vectors"


class InvalidWord(ValueError):
    """A shaped word is not a codec output.

    layer_index and lut_index locate the first table miss (layer 1 is the
    symbol side).
    """

    def __init__(self, layer_index: int, lut_index: int):
        super().__init__(f"invalid word at layer {layer_index}, lut {lut_index}")
        self.layer_index = layer_index
        self.lut_index = lut_index


def split_info(spec: TreeSpec, word: BitWord) -> tuple[tuple[int, ...], ...]:
    """Per-LUT information fields, aligned with spec.layers.

    Fields are assigned top layer first, within a layer by LUT index,
    reading the word MSB-first; result[i][q] is the s-bit value for LUT q
    of spec.layers[i].
    """
    if word.width != spec.n_info:
        raise ValueError(f"expected {spec.n_info} information bits, got {word.width}")
    fields = []
    rest = word.width
    for layer in spec.layers:
        s = layer.info_bits
        rest -= layer.lut_count * s
        run = word.value >> rest  # this layer's T*s bits are the lowest of run
        mask = (1 << s) - 1
        fields.append(tuple([(run >> (s * q)) & mask for q in range(layer.lut_count - 1, -1, -1)]))
    return tuple(fields)


def encode(lutset: LutSet, word: BitWord) -> BitWord:
    """Map an information word to its shaped word."""
    spec = lutset.spec
    *upper, (leaf, leaf_info) = zip(spec.layers, split_info(spec, word))
    parent_r = [0]  # r-value received by each LUT of the current layer; top gets none
    for (layer, info), fields in zip(upper, lutset.fields):
        s = layer.info_bits
        parent_r = [f[(p << s) | x] for p, x in zip(parent_r, info) for f in fields]
    s = leaf.info_bits
    entries = lutset.luts[-1].entries
    return pack_symbols([entries[(p << s) | x] for p, x in zip(parent_r, leaf_info)], leaf.out_bits)


def decode(lutset: LutSet, shaped: BitWord) -> BitWord:
    """Recover the information word from a shaped word.

    Raises InvalidWord if any leaf chunk, or any word reassembled from
    child fields on the way up, is absent from the mirror tables.
    """
    spec = lutset.spec
    if shaped.width != spec.n_out:
        raise ValueError(f"expected {spec.n_out} shaped bits, got {shaped.width}")
    words = unpack_symbols(shaped, spec.leaf.out_bits)
    indices = []  # per layer, bottom-up, the table index of every LUT
    for pos in range(spec.depth - 1, -1, -1):
        layer = spec.layers[pos]
        mirror = lutset.mirror[pos]
        idx = [mirror[w] for w in words]
        if -1 in idx:
            raise InvalidWord(layer.layer_index, idx.index(-1))
        indices.append(idx)
        if pos:
            # Index = r (high) || s (low); t sibling r-values form the parent's word.
            s, r, t = layer.info_bits, layer.parent_bits, layer.fanin
            words = [i >> s for i in idx[::t]]
            for j in range(1, t):
                words = [(w << r) | (i >> s) for w, i in zip(words, idx[j::t])]
    value = 0
    for layer, idx in zip(spec.layers, reversed(indices)):
        s = layer.info_bits
        mask = (1 << s) - 1
        for i in idx:
            value = (value << s) | (i & mask)
    return BitWord(value, spec.n_info)


def encode_stream(lutset: LutSet, bits: BitWord, pad: bool = False) -> BitWord:
    """Encode a concatenation of information words.

    The stream length must be a multiple of n_info unless pad is set, in
    which case the final partial word is zero-padded at its end.
    """
    n_info = lutset.spec.n_info
    fill = -bits.width % n_info
    if fill:
        if not pad:
            raise ValueError(f"stream of {bits.width} bits is not a multiple of {n_info} (use pad)")
        bits = BitWord(bits.value << fill, bits.width + fill)
    words = unpack_symbols(bits, n_info)
    return pack_symbols((encode(lutset, BitWord(w, n_info)).value for w in words), lutset.spec.n_out)


def decode_stream(lutset: LutSet, bits: BitWord) -> BitWord:
    """Decode a concatenation of shaped words (length must divide exactly)."""
    n_out = lutset.spec.n_out
    if bits.width % n_out:
        raise ValueError(f"stream of {bits.width} bits is not a multiple of {n_out}")
    words = unpack_symbols(bits, n_out)
    return pack_symbols((decode(lutset, BitWord(w, n_out)).value for w in words), lutset.spec.n_info)


def dump_test_vectors(
    dest: str | os.PathLike | TextIO,
    pairs: Iterable[tuple[BitWord, BitWord]],
    spec: TreeSpec,
) -> None:
    """Write (information word, shaped word) pairs as hex lines.

    Format: a header line "dmkit-vectors 1 <n_info> <n_out>", then one
    pair per line as two hex strings (MSB-first byte packing, zero pad
    bits at the end of the last byte).
    """
    own = isinstance(dest, (str, os.PathLike))
    f: TextIO = open(dest, "w") if own else dest  # type: ignore[arg-type]
    try:
        f.write(f"{VECTOR_FILE_TAG} 1 {spec.n_info} {spec.n_out}\n")
        for info, shaped in pairs:
            if info.width != spec.n_info or shaped.width != spec.n_out:
                raise ValueError("pair widths do not match the spec")
            f.write(f"{info.hex()} {shaped.hex()}\n")
    finally:
        if own:
            f.close()


def load_test_vectors(src: str | os.PathLike | TextIO) -> list[tuple[BitWord, BitWord]]:
    """Read a test-vector file written by dump_test_vectors."""
    own = isinstance(src, (str, os.PathLike))
    f: TextIO = open(src) if own else src  # type: ignore[arg-type]
    try:
        head = f.readline().split()
        if len(head) != 4 or head[0] != VECTOR_FILE_TAG or head[1] != "1":
            raise ValueError(f"not a test-vector file: header {head!r}")
        n_info, n_out = int(head[2]), int(head[3])
        pairs = []
        for line_no, line in enumerate(f, start=2):
            if not line.strip():
                continue
            try:
                info_hex, shaped_hex = line.split()
            except ValueError as exc:
                raise ValueError(f"line {line_no}: expected two hex fields") from exc
            pairs.append((BitWord.from_hex(info_hex, n_info), BitWord.from_hex(shaped_hex, n_out)))
        return pairs
    finally:
        if own:
            f.close()
