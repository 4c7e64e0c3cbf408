"""Energy-ranked construction of the LUT tree.

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

All LUTs within a layer share identical contents. Synthesis is
deterministic: identical inputs give bit-identical tables, so a file
loads only if it is byte for byte what save_lutset writes for its
header's layer rows. Tables are packed bit-parallel (bits.pack_symbols),
for the file and for field_slots, the field columns that
LutSet.encode_slots and stats.exact_class_pmf read.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import BinaryIO, Callable, NamedTuple, Sequence

from .bits import MAX_SYMBOL_BITS, pack_symbols, split_masks
from .mapping import BITS_PER_QAM, CLASS_ENERGIES, SHAPED_BITS_PER_QAM
from .tree import LayerParams, TreeSpec, spec_fingerprint, spec_to_mappings, validate_tree

LUTFILE_MAGIC = b"DMLUT001"

# Pads the information bits of a LutSet.decode_slots record; never a binary digit.
DECODE_FILL = b" "

# A slice plan: plan(seq) is the tuple of seq's pieces at the plan's slices.
SlicePlan = Callable[[Sequence], tuple]


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


@dataclass(frozen=True)
class LutSet:
    """All per-layer tables, aligned with spec.layers, and their lookup views.

    The views are built on first use and cached; equality compares only
    spec and luts. Treat instances as immutable.

    The codec reads four views: info_groups and info_runs, where each
    layer's information bits sit in a word, and the tables encode_slots and
    decode_slots, whose values are the bytes the codec joins; decode_slots
    is the inverse (invDM) table of 2^u addresses. A fifth, one_word, holds
    the slice plans and split masks of a single word.
    """

    spec: TreeSpec
    luts: tuple[Lut, ...]

    @cached_property
    def info_groups(self) -> tuple[tuple[int, tuple[tuple[int, int, int], ...]], ...]:
        """Where encode finds each layer's information bits in a word, grouped by s.

        One (s, layers) per distinct s > 0, in order of first use top-down:
        layers holds (position in spec.layers, first bit, end bit) of the
        T*s bits of a word that each layer with s information bits per LUT
        takes. A layer without information bits is in no group.
        """
        groups: dict[int, list[tuple[int, int, int]]] = {}
        end = 0
        for i, layer in enumerate(self.spec.layers):
            start, end = end, end + layer.lut_count * layer.info_bits
            if layer.info_bits:
                groups.setdefault(layer.info_bits, []).append((i, start, end))
        return tuple([(s, tuple(layers)) for s, layers in groups.items()])

    @cached_property
    def info_runs(self) -> tuple[tuple[int, int], ...]:
        """Where decode puts each layer's information bits: (first bit, bit count) in a word, top first, for every layer with s > 0."""
        return tuple(sorted([(a, b - a) for _, layers in self.info_groups for _, a, b in layers]))

    def info_plan(self, n_words: int) -> tuple[SlicePlan, ...]:
        """The slice plan of the information fields of n_words words: one per group of info_groups.

        A group's plan cuts the T*s-bit run of each of its layers out of the
        words' binary text, layer after layer, word after word; joined, the
        pieces are the group's fields in the order the codec's bit planes
        hand them out.
        """
        n_info = self.spec.n_info
        return tuple(
            _slice_plan([slice(k + a, k + b) for _, a, b in layers for k in range(0, n_words * n_info, n_info)])
            for _, layers in self.info_groups
        )

    def join_plan(self, n_words: int) -> SlicePlan:
        """The slice plan that puts the information bits of n_words words back in word order.

        It cuts the information text decode gathers, layer after layer, into
        each word's run of each layer, word after word: joined, the pieces
        are the information words.
        """
        # A layer's bits start at n_words times where they start in a word.
        runs = [(n_words * first, w) for first, w in self.info_runs]
        return _slice_plan([slice(first + k * w, first + k * w + w) for k in range(n_words) for first, w in runs])

    @cached_property
    def one_word(self) -> OneWordKit:
        """The plans and split masks of one word, built once by a stream chunk's builders: a few kilobytes, where a chunk's are large."""
        leaf = self.spec.leaf
        return OneWordKit(self.info_plan(1), self.join_plan(1), split_masks(leaf.out_bits, leaf.lut_count))

    @cached_property
    def encode_slots(self) -> tuple[tuple[bytes | str, ...], ...]:
        """encode_slots[i][e] is what index e of spec.layers[i] passes on.

        Above the leaf: the entry's t fields, leftmost first, in 16-bit
        big-endian slots, each shifted left by the child's s, so that one or
        of the children's information fields gives their indices. At the
        leaf: the entry as u-bit binary text, the form encode joins.
        """
        layers = self.spec.layers
        out = []
        for child, lut in zip(layers[1:], self.luts):
            n, t = len(lut.entries), child.fanin
            slots = bytearray(2 * t * n)
            for j, x in enumerate(field_slots(lut, child.parent_bits)):
                # A field below 2^r shifted by s stays below 2^v <= 2^16: within its slot.
                x = (x << child.info_bits).to_bytes(2 * n, "big")
                slots[2 * j :: 2 * t] = x[0::2]
                slots[2 * j + 1 :: 2 * t] = x[1::2]
            out.append(_cut(slots, 2 * t))
        leaf = self.luts[-1]
        u, n = leaf.out_bits, len(leaf.entries)
        text = format(pack_symbols(leaf.entries, u).value, f"0{u * n}b")
        out.append(tuple([text[k : k + u] for k in range(0, u * n, u)]))
        return tuple(out)

    @cached_property
    def decode_slots(self) -> tuple[tuple[bytes | None, ...], ...]:
        """decode_slots[i][w] is the record of the u-bit word w of spec.layers[i], or None for a word the table never emits.

        The record of the word with index e is e's r high bits (the value
        the layer above sent) as a 16-bit big-endian slot, then its s low
        bits (its information bits) as binary text, after DECODE_FILL bytes
        that make every record of the tree 2 + max(s) bytes long. Layers
        with the same r and s share one bytes object per record.
        """
        width = max(layer.info_bits for layer in self.spec.layers)
        records: dict[tuple[int, int], list[bytes]] = {}
        out = []
        for layer, lut in zip(self.spec.layers, self.luts):
            s, r = layer.info_bits, layer.in_bits - layer.info_bits
            if (r, s) not in records:
                # Record e: e >> s as two bytes, then the text of e's low s bits.
                fill = DECODE_FILL * (width - s)
                low = [fill + format(x, f"0{s}b").encode() for x in range(1 << s)] if s else [fill]
                records[r, s] = [k.to_bytes(2, "big") + text for k in range(1 << r) for text in low]
            table: list[bytes | None] = [None] * (1 << lut.out_bits)
            for w, record in zip(lut.entries, records[r, s]):
                table[w] = record
            out.append(tuple(table))
        return tuple(out)


class OneWordKit(NamedTuple):
    """LutSet.one_word: info_plan(1), join_plan(1), and split_masks for one shaped word's leaf outputs."""

    info_plan: tuple[SlicePlan, ...]
    join_plan: SlicePlan
    split_masks: tuple[tuple[int, int], ...]


def _slice_plan(slices: list[slice]) -> SlicePlan:
    """One itemgetter of all the slices, which cuts every piece in one C call.

    A trailing empty slice keeps the result a tuple when there is one slice.
    """
    return itemgetter(*slices, slice(0, 0))


def field_slots(lut: Lut, width: int) -> list[int]:
    """Each width-bit field of lut's entries, leftmost first, as one integer of 16-bit slots, entry e in slot e.

    Above the leaf, field j is the r-bit parent value sent to child j; at
    the leaf, with width 2, class symbol j. The entries are packed into
    MAX_SYMBOL_BITS-bit slots once; one shift and one mask of the whole
    packing leave a field of every entry in its slot.
    """
    n, slot = len(lut.entries), MAX_SYMBOL_BITS
    packed = pack_symbols(lut.entries, slot).value
    mask = int.from_bytes(((1 << width) - 1).to_bytes(slot // 8, "big") * n, "big")
    return [(packed >> shift) & mask for shift in range(lut.out_bits - width, -1, -width)]


def _cut(data: bytes, size: int) -> tuple[bytes, ...]:
    """data cut into pieces of size bytes: one struct unpack, about 7x faster than slicing in a comprehension."""
    return struct.Struct(f"{size}s" * (len(data) // size)).unpack(data)


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


def _ranked_lut(layer: LayerParams, cost: Sequence[float]) -> Lut:
    """Keep the 2^v cheapest u-bit words in ascending (energy, value) order.

    Only the words _candidates lists are sorted. Costs must be finite and
    non-decreasing, and float addition is monotone, so lowering a word's
    first or last field never raises its score and always lowers its
    value: each such word comes before it, and a word outside the list has
    at least 2^v words before it.
    """
    for i, x in enumerate(cost):
        if not math.isfinite(x):
            raise ValueError(f"field cost {i} is {x!r}, not a finite number")
        if i and x < cost[i - 1]:
            raise ValueError(f"field cost {i} is {x!r}, below field cost {i - 1}, {cost[i - 1]!r}")
    sums = _field_sums(cost, layer.out_bits)
    keep = 1 << layer.in_bits
    kept = _candidates(len(cost).bit_length() - 1, layer.out_bits, keep)
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
        band_energy=tuple(sum(scores[b : b + size]) / size for b in range(0, len(scores), size)),
    )


def synthesize_leaf_lut(layer: LayerParams) -> Lut:
    """Build the symbol-side table; its fields are 2-bit class symbols costing CLASS_ENERGIES."""
    if layer.out_bits % 2:
        raise ValueError(f"leaf output width {layer.out_bits} not divisible by 2")
    if layer.in_bits > layer.out_bits:
        raise ValueError(f"v={layer.in_bits} exceeds u={layer.out_bits}")
    return _ranked_lut(layer, CLASS_ENERGIES)


def synthesize_parent_lut(layer: LayerParams, child_band_energy: Sequence[float]) -> Lut:
    """Build a non-leaf table; candidate words address child bands.

    A candidate u-bit word is t fields of r_child bits; the leftmost field
    feeds the lowest-indexed child. Its score is the sum of the child band
    energies its fields select. The band energies must be finite and
    non-decreasing, as synthesized ones are; ValueError names the first
    that is not.
    """
    n_bands = len(child_band_energy)
    r_child = n_bands.bit_length() - 1
    if n_bands < 2 or n_bands != 1 << r_child:
        raise ValueError(f"child band table size {n_bands} is not a power of two >= 2")
    if layer.out_bits % r_child:
        raise ValueError(f"u={layer.out_bits} is not a multiple of the child field width {r_child}")
    return _ranked_lut(layer, child_band_energy)


def synthesize_tree(spec: TreeSpec) -> LutSet:
    """Build every layer bottom-up."""
    luts = [synthesize_leaf_lut(spec.leaf)]
    for layer in reversed(spec.layers[:-1]):
        luts.append(synthesize_parent_lut(layer, luts[-1].band_energy))
    return LutSet(spec=spec, luts=tuple(reversed(luts)))


def _pack_words_le(words: Sequence[int], width: int) -> bytes:
    """Pack fixed-width words into a little-endian bit stream.

    Bit k of the stream is bit (k & 7) of byte (k >> 3); each word
    contributes its bits LSB first. That is the MSB-first packing of the
    reversed words, read as a little-endian integer.
    """
    return pack_symbols(words[::-1], width).value.to_bytes((len(words) * width + 7) // 8, "little")


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
    return [head] + [_pack_words_le(lut.entries, lut.out_bits) for lut in lutset.luts]


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
        luts = [_ranked_lut(spec.leaf, CLASS_ENERGIES)]
        for layer in reversed(spec.layers[:-1]):
            luts.append(_ranked_lut(layer, luts[-1].band_energy))
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
