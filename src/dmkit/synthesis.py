"""Energy-ranked construction of the LUT tree, and the LUT file.

Every layer is built by one rule. A candidate u-bit word is a run of
fixed-width fields, leftmost field first; its score is the sum, over its
fields, of a cost per field value, and the cheapest 2^v candidates are
kept. Above the leaf a field is the r-bit parent value of one child and
its cost is that child's band energy. The leaf is the same table with
2-bit amplitude-class symbols as fields and the fixed class energies of
the 16-PAM pair labeling (mapping.CLASS_ENERGIES) as costs. The tree is
built bottom-up, so each layer's costs are known when it is ranked.

Entries are stored in ascending (energy, numeric value) order, so a LUT
index doubles as an energy rank. A v-bit index is composed as the r parent
bits (high) followed by the s information bits (low); a fixed parent value
therefore addresses a contiguous band of 2^s entries, and the exported
band energy is the arithmetic mean over that band. Parents preferring low
field values thus steer every subtree toward low-energy bands, which is
what shapes the output distribution.

Ranking sorts only the words that can be kept. Field costs never decrease
(the class energies ascend, and each band energy is the mean of a band
of scores no lower than the band before), and float addition is
monotone. So a word with first field a and last field b scores at least
what each word with first field at most a, last field at most b and the
same middle fields scores, and is larger in value: it comes after those
(a+1)(b+1) - 1 words, and is kept only if (a+1)(b+1) <= 2^v (a < 2^v
for a one-field word). The top layer keeps 2^s of 2^u words, so it sorts
few (119 of 4,096 on the bundled tree); a layer keeping half of 2^u
sorts most. Costs that are not finite or that decrease are refused.
The candidates depend only on a layer's shape, (field width, u, 2^v),
which a tree repeats at its middle layers: synthesize_tree and
load_lutset list each shape once per call, and each layer sorts its own
copy.

Measured dead ends (min of 15-41 calls in one process): scoring only the
candidates instead of every word (synthesize_tree went 2.85 -> 3.01 ms on
the bundled tree and 6.65 -> 6.96 ms on the design benchmark's wide one);
load_lutset checking a file's order and selection instead of ranking it
again (3.6 -> 5.1 ms bundled, 9.1 -> 12.0 ms wide).

All LUTs within a layer share identical contents. Synthesis is
deterministic: identical inputs give bit-identical tables, so a file
loads only if it is byte for byte what save_lutset writes for its
header's layer rows, its tables packed bit-parallel (bits.pack_symbols).
A tree's tables are a codec.LutSet, which also holds the lookup views
the codec reads.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from operator import le
from typing import BinaryIO, Sequence

from .bits import pack_symbols, split_masks
from .codec import LutSet
from .mapping import BITS_PER_QAM, CLASS_ENERGIES, SHAPED_BITS_PER_QAM
from .tree import LayerParams, TreeSpec, spec_fingerprint, spec_to_mappings, validate_tree

LUTFILE_MAGIC = b"DMLUT001"

# A tree's shape table: the candidate list of each (field width, u, 2^v), for one call.
Shapes = dict[tuple[int, int, int], list[int]]


class LutFormatError(ValueError):
    """A serialized LUT set is malformed or inconsistent."""


@dataclass(frozen=True)
class Lut:
    """One layer's table: entries[i] is the u-bit output for index i.

    entries are the selected subset of all u-bit words, in ascending
    (energy, value) order; band_energy holds the mean score of each band
    of entries (one band per parent r-value; a single band covering
    everything for the top layer).
    """

    layer_index: int
    in_bits: int
    out_bits: int
    entries: tuple[int, ...]
    band_energy: tuple[float, ...]


def _field_sums(cost: Sequence[float], out_bits: int) -> list[float]:
    """Score of every out_bits-bit word, indexed by the word.

    A word is a run of log2(len(cost))-bit fields and scores the sum of
    cost[field] over them. Each step appends one field below the words
    built so far, so the terms are added leftmost field first, the order
    of a per-word loop, and every score is bit-identical to it.
    """
    sums = [0.0]
    for _ in range(out_bits // (len(cost).bit_length() - 1)):
        sums = [s + c for s in sums for c in cost]
    return sums


def _candidates(width: int, out_bits: int, keep: int) -> list[int]:
    """The out_bits-bit words of width-bit fields that can be among the keep cheapest, ascending.

    With first field a and last field b, a word ranks after the
    (a+1)(b+1) - 1 other words whose first and last fields are at most a
    and b and whose other fields are its own, so it can be kept only if
    (a+1)(b+1) <= keep; a one-field word a, only if a < keep.
    """
    low = out_bits - width
    if not low:
        return list(range(keep))
    n = 1 << width
    # First fields below keep / n keep every last field: their words are one block.
    whole = min(n, keep >> width)
    words = list(range(whole << low))
    for a in range(whole, min(n, keep)):
        # Each row of last fields under first field a, cut to its keep // (a+1) lowest.
        for row in range(a << low, (a + 1) << low, n):
            words += range(row, row + keep // (a + 1))
    return words


def _ranked_lut(layer: LayerParams, cost: Sequence[float], shapes: Shapes | None = None) -> Lut:
    """Keep the 2^v cheapest u-bit words in ascending (energy, value) order.

    Only the words _candidates lists are sorted. Costs must be finite and
    non-decreasing, and float addition is monotone, so lowering a word's
    first or last field never raises its score and always lowers its
    value: each such word comes before it, and a word outside the list has
    at least 2^v words before it. shapes, if given, is the calling tree's
    shape table: the candidate list of each (field width, u, 2^v) already
    built in that call, which this layer sorts a copy of.
    """
    if not (all(map(math.isfinite, cost)) and all(map(le, cost, cost[1:]))):
        for i, x in enumerate(cost):  # name the first fault
            if not math.isfinite(x):
                raise ValueError(f"field cost {i} is {x!r}, not a finite number")
            if i and x < cost[i - 1]:
                raise ValueError(f"field cost {i} is {x!r}, below field cost {i - 1}, {cost[i - 1]!r}")
    sums = _field_sums(cost, layer.out_bits)
    keep = 1 << layer.in_bits
    shape = (len(cost).bit_length() - 1, layer.out_bits, keep)
    if shapes is None:
        kept = _candidates(*shape)
    else:
        if shape not in shapes:
            shapes[shape] = _candidates(*shape)
        kept = shapes[shape].copy()
    # A stable sort of ascending words breaks energy ties by value.
    kept.sort(key=sums.__getitem__)
    del kept[keep:]
    # Index = r parent bits (high) || s information bits (low): a band is 2^s
    # contiguous entries, and the top layer (v = s) is one band.
    scores, size = [sums[w] for w in kept], 1 << layer.info_bits
    return Lut(
        layer_index=layer.layer_index,
        in_bits=layer.in_bits,
        out_bits=layer.out_bits,
        entries=tuple(kept),
        band_energy=tuple([sum(scores[b : b + size]) / size for b in range(0, len(scores), size)]),
    )


def synthesize_leaf_lut(layer: LayerParams) -> Lut:
    """Build the symbol-side table; its fields are 2-bit class symbols costing CLASS_ENERGIES."""
    if layer.out_bits % 2:
        raise ValueError(f"leaf output width {layer.out_bits} not divisible by 2")
    if layer.in_bits > layer.out_bits:
        raise ValueError(f"v={layer.in_bits} exceeds u={layer.out_bits}")
    return _ranked_lut(layer, CLASS_ENERGIES)


def synthesize_parent_lut(layer: LayerParams, child_band_energy: Sequence[float], *, shapes: Shapes | None = None) -> Lut:
    """Build a non-leaf table; candidate words address child bands.

    A candidate u-bit word is t fields of r_child bits; the leftmost field
    feeds the lowest-indexed child. Its score is the sum of the child band
    energies its fields select. The band energies must be finite and
    non-decreasing, as synthesized ones are; ValueError names the first
    that is not. shapes is the calling tree's shape table (see _ranked_lut),
    shared by the layers of one synthesize_tree call.
    """
    n_bands = len(child_band_energy)
    r_child = n_bands.bit_length() - 1
    if n_bands < 2 or n_bands != 1 << r_child:
        raise ValueError(f"child band table size {n_bands} is not a power of two >= 2")
    if layer.out_bits % r_child:
        raise ValueError(f"u={layer.out_bits} is not a multiple of the child field width {r_child}")
    return _ranked_lut(layer, child_band_energy, shapes)


def synthesize_tree(spec: TreeSpec) -> LutSet:
    """Build every layer bottom-up, listing each layer shape's candidates once."""
    luts, shapes = [synthesize_leaf_lut(spec.leaf)], {}
    for layer in reversed(spec.layers[:-1]):
        luts.append(synthesize_parent_lut(layer, luts[-1].band_energy, shapes=shapes))
    return LutSet(spec=spec, luts=tuple(reversed(luts)))


def _pack_words_le(words: Sequence[int], width: int, masks: tuple[tuple[int, int], ...]) -> bytes:
    """Pack fixed-width words into a little-endian bit stream, with split_masks of their count or a larger one.

    Bit k of the stream is bit (k & 7) of byte (k >> 3); each word
    contributes its bits LSB first. That is the MSB-first packing of the
    reversed words, read as a little-endian integer.
    """
    return pack_symbols(words[::-1], width, masks).value.to_bytes((len(words) * width + 7) // 8, "little")


def _file_blocks(lutset: LutSet) -> list[bytes]:
    """The one definition of a LUT file: the blocks that follow its magic.

    First the header, the canonical JSON of the format version, modulation
    widths, layer rows, class energies and spec fingerprint; then per
    layer, top-down, the 2^v entries packed as little-endian u-bit words.
    """
    header = {
        "format": 1,
        "m": BITS_PER_QAM,
        "m_sb": SHAPED_BITS_PER_QAM,
        "layers": spec_to_mappings(lutset.spec),
        "class_energy": list(CLASS_ENERGIES),
        "spec_sha256": spec_fingerprint(lutset.spec),
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    largest: dict[int, int] = {}  # per width, the largest table: one set of pack masks serves the width
    for lut in lutset.luts:
        largest[lut.out_bits] = max(largest.get(lut.out_bits, 0), len(lut.entries))
    masks = {width: split_masks(width, count) for width, count in largest.items()}
    return [head] + [_pack_words_le(lut.entries, lut.out_bits, masks[lut.out_bits]) for lut in lutset.luts]


def save_lutset(lutset: LutSet, path: str | os.PathLike) -> None:
    """Write the magic, then each of _file_blocks after its 4-byte LE byte count."""
    with open(path, "wb") as f:
        f.write(LUTFILE_MAGIC)
        for block in _file_blocks(lutset):
            f.write(len(block).to_bytes(4, "little") + block)


def load_lutset(path: str | os.PathLike) -> LutSet:
    """Read a LUT file, accepting it only if it is byte for byte what save_lutset writes for its header's layer rows.

    Energies are not stored: the tables are ranked afresh, bottom-up from
    CLASS_ENERGIES. Their packing is injective and pads with zeros.
    """
    with open(path, "rb") as f:
        magic = f.read(8)
        if magic != LUTFILE_MAGIC:
            raise LutFormatError(f"bad magic {magic!r}")
        head = _read_block(f)
        try:
            header = json.loads(head)
        except (ValueError, RecursionError) as exc:
            raise LutFormatError(f"unreadable header: {exc}") from exc
        if not isinstance(header, dict) or not isinstance(header.get("layers"), list):
            raise LutFormatError("header is not an object holding a list of layer rows")
        spec = validate_tree(header["layers"], BITS_PER_QAM, SHAPED_BITS_PER_QAM)
        luts, shapes = [_ranked_lut(spec.leaf, CLASS_ENERGIES)], {}
        for layer in reversed(spec.layers[:-1]):
            luts.append(_ranked_lut(layer, luts[-1].band_energy, shapes))
        lutset = LutSet(spec=spec, luts=tuple(reversed(luts)))
        blocks = _file_blocks(lutset)
        if head != blocks[0]:
            raise LutFormatError(_header_fault(header, json.loads(blocks[0])))
        for lut, packed in zip(lutset.luts, blocks[1:]):
            if (data := _read_block(f)) != packed:
                raise LutFormatError(_blob_fault(data, packed, lut))
        if f.read(1):
            raise LutFormatError("trailing bytes after last layer")
    return lutset


def _read_block(f: BinaryIO) -> bytes:
    nbytes = int.from_bytes(f.read(4), "little")
    data = f.read(min(nbytes, os.fstat(f.fileno()).st_size))  # read(n) allocates n bytes before reading
    if len(data) != nbytes:
        raise LutFormatError(f"file ends inside a block of {nbytes} bytes")
    return data


def _header_fault(header: dict, expected: dict) -> str:
    """Name the first key, in sorted order, whose canonical JSON differs between header and expected."""
    for key in sorted(header.keys() | expected.keys()):
        try:
            if json.dumps(header[key], sort_keys=True) == json.dumps(expected[key], sort_keys=True):
                continue
        except (KeyError, RecursionError):  # on one side only, or nested past the encoder's depth
            pass
        return f"header key {key!r} is not save_lutset's"
    return "header is not save_lutset's canonical JSON"


def _blob_fault(data: bytes, packed: bytes, lut: Lut) -> str:
    """Name lut's layer and the first fault of data, a blob other than packed, the packing of lut's entries."""
    if len(data) != len(packed):
        fault = f"blob has {len(data)} bytes, expected {len(packed)}"
    else:
        # Stream bit k is a bit of entry k // u: the lowest differing bit names the first differing entry.
        diff = int.from_bytes(data, "little") ^ int.from_bytes(packed, "little")
        entry = ((diff & -diff).bit_length() - 1) // lut.out_bits
        fault = f"entry {entry} is not the synthesized table's" if entry < len(lut.entries) else "nonzero padding bits"
    return f"layer {lut.layer_index}: {fault}"
