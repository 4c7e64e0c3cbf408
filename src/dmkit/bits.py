"""Fixed-width bit words with MSB-first ordering.

Every bit string in this package follows one convention: bit 0 is the most
significant bit of the word. When a word is packed into bytes, bit 0 of the
word becomes bit 7 of byte 0, and the final byte is zero-padded on the low
end. Hex encodings are the hex digits of that byte packing.

pack_symbols/unpack_symbols are the one split/join between a word and its
fixed-width symbols (bits, amplitude classes, LUT entries, or the leaf
outputs of a stream); split_symbols is unpack_symbols without the tuple.
Symbols are 1 to MAX_SYMBOL_BITS = 16 bits wide (every LUT entry, leaf
output, information field and class symbol fits one 16-bit slot) and go
both ways bit-parallel, through 8- or 16-bit slots. The split takes
log2(count) whole-integer steps, each moving half of every group of
symbols up, until each symbol sits in its own slot, and one bytes or
array conversion reads the slots out. The pack is its gather: one bytes
or array conversion puts the symbols in slots, and the same steps with
the same masks, bottom level first, move them back down. read_slots reads
big-endian 16-bit slots as an array, the form the codec keeps.
"""

from __future__ import annotations

import os
import sys
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

BITFILE_MAGIC = b"DMB1"

# The widest symbol, one 16-bit slot: pack_symbols and split_symbols move symbols
# through 8- or 16-bit slots, at most SPREAD_BLOCK (a multiple of 8) per step.
MAX_SYMBOL_BITS = 16
SPREAD_BLOCK = 1 << 11


@dataclass(frozen=True)
class BitWord:
    """Immutable width-tagged bit string backed by an int."""

    value: int
    width: int

    def __post_init__(self) -> None:
        if self.width < 0:
            raise ValueError(f"negative width {self.width}")
        if self.value < 0 or self.value >> self.width:  # never builds 2^width, as large as the word
            raise ValueError(f"value {self.value} does not fit in {self.width} bits")

    def __len__(self) -> int:
        return self.width

    def to_bytes(self) -> bytes:
        n = (self.width + 7) // 8
        pad = 8 * n - self.width
        return (self.value << pad if pad else self.value).to_bytes(n, "big")  # a shift by 0 copies the word

    @classmethod
    def from_bytes(cls, data: bytes, width: int) -> "BitWord":
        if len(data) != (width + 7) // 8:
            raise ValueError(f"{len(data)} bytes cannot hold exactly {width} bits")
        pad = 8 * len(data) - width
        raw = int.from_bytes(data, "big")
        if raw & ((1 << pad) - 1):
            raise ValueError("nonzero padding bits")
        return cls(raw >> pad if pad else raw, width)

    def hex(self) -> str:
        return self.to_bytes().hex()

    @classmethod
    def from_hex(cls, text: str, width: int) -> "BitWord":
        return cls.from_bytes(bytes.fromhex(text), width)


def read_slots(data: bytes) -> array:
    """The big-endian 16-bit slots of data, as an array of ints."""
    slots = array("H", data)
    if sys.byteorder == "little":
        slots.byteswap()
    return slots


def pack_symbols(symbols: Iterable[int], bits_per_symbol: int) -> BitWord:
    """Pack fixed-width symbols into a word, first symbol in the high bits.

    The inverse of split_symbols and its mirror image: the symbols go into
    8- or 16-bit slots through one bytes or array conversion, and _gather
    packs each block of SPREAD_BLOCK of them.
    """
    width = bits_per_symbol
    if not 1 <= width <= MAX_SYMBOL_BITS:
        raise ValueError(f"bits_per_symbol must be 1 to {MAX_SYMBOL_BITS}, got {width}")
    if not isinstance(symbols, (list, tuple)):
        symbols = list(symbols)
    count = len(symbols)
    slot = 8 if width <= 8 else 16
    try:
        slots = bytes(symbols) if slot == 8 else array("H", symbols)
        if slot == 16:
            if sys.byteorder == "little":
                slots.byteswap()
            slots = slots.tobytes()
        # Every symbol's high byte must hold only its top width + 8 - slot bits.
        if width < slot and slots[:: slot // 8].translate(None, bytes(range(1 << (width + 8 - slot)))):
            raise ValueError
    except (ValueError, OverflowError):  # a symbol outside its slot or its width
        bad = next(s for s in symbols if not 0 <= s < 1 << width)
        raise ValueError(f"symbol {bad} does not fit in {width} bits") from None
    masks = split_masks(width, count)
    whole = max(count - 1, 0) // SPREAD_BLOCK * SPREAD_BLOCK  # symbols before the last block, whole bytes packed
    out = bytearray()
    for first in range(0, whole, SPREAD_BLOCK):
        block = int.from_bytes(slots[first * slot // 8 : (first + SPREAD_BLOCK) * slot // 8], "big")
        out += _gather(block, width, SPREAD_BLOCK, masks).to_bytes(SPREAD_BLOCK * width // 8, "big")
    last = _gather(int.from_bytes(slots[whole * slot // 8 :], "big"), width, count - whole, masks)
    return BitWord((int.from_bytes(out, "big") << ((count - whole) * width)) | last, count * width)


def _spread_masks(width: int, count: int) -> tuple[tuple[int, int], ...]:
    """(mask, shift) of each level of a spread of count symbols, count a power of two, top level first.

    The level that splits groups of 2h symbols keeps the low h*width bits of
    every 2h-slot group and moves the rest up by h*(slot - width); symbols
    that fill their slot need no level. A mask is its group's pattern,
    doubled by shift and or until it covers the count. The masks of a count
    also serve every smaller power of two, through their last levels (&
    costs the size of the smaller operand). A stream's are built per call:
    cached, they stayed alive among its short-lived objects and raised the
    peak RSS of the bench's stream workload by up to 1.6 MB. One shaped
    word's are kept in LutSet.one_word: 6 masks of 1,024 bits on the
    bundled tree, against about 0.2 MB for a stream's block sizes.
    """
    slot = 8 if width <= 8 else 16
    levels = []
    h = count // 2 if width < slot else 0
    while h:
        mask, period = (1 << (h * width)) - 1, 2 * h * slot
        while period < count * slot:
            mask |= mask << period
            period *= 2
        levels.append((mask, h * (slot - width)))
        h //= 2
    return tuple(levels)


def _spread(x: int, width: int, count: int, masks: tuple[tuple[int, int], ...]) -> bytes:
    """The count width-bit fields of x (width <= 16), first field in the high bits, one to a big-endian slot.

    count is padded to a power of two n with zero symbols at the low end,
    and masks holds the levels of at least n symbols. Slots are 8 bits for
    widths up to 8 and 16 bits above.
    """
    n = 1 << (count - 1).bit_length()
    size = 1 if width <= 8 else 2
    x <<= (n - count) * width
    for mask, shift in masks[len(masks) - n.bit_length() + 1 :]:
        lo = x & mask
        x = lo | ((x ^ lo) << shift)
    return x.to_bytes(n * size, "big")[: count * size]


def _gather(x: int, width: int, count: int, masks: tuple[tuple[int, int], ...]) -> int:
    """The inverse of _spread: the count width-bit symbols in the 8- or 16-bit slots of x, packed.

    The levels of the spread run bottom level first, each one moving the
    upper half of every group of slots down onto the lower half:
    lo = x & m; x = lo | ((x ^ lo) >> shift).
    """
    n = 1 << (count - 1).bit_length()
    slot = 8 if width <= 8 else 16
    x <<= (n - count) * slot
    for mask, shift in reversed(masks[len(masks) - n.bit_length() + 1 :]):
        lo = x & mask
        x = lo | ((x ^ lo) >> shift)
    return x >> ((n - count) * width)


def split_masks(width: int, count: int) -> tuple[tuple[int, int], ...]:
    """The spread masks with which split_symbols splits, and pack_symbols packs, count width-bit symbols."""
    return _spread_masks(width, 1 << (min(count, SPREAD_BLOCK) - 1).bit_length())


def split_symbols(word: BitWord, bits_per_symbol: int, masks: tuple[tuple[int, int], ...] | None = None) -> Sequence[int]:
    """The symbols of a word, as unpack_symbols gives them, in a compact sequence.

    Symbols of up to 8 bits come as bytes (8-bit slots) and up to
    MAX_SYMBOL_BITS as an array of 16-bit slots. Blocks of SPREAD_BLOCK
    symbols are split bit-parallel by _spread, each cut from whole bytes of
    the word (SPREAD_BLOCK is a multiple of 8). masks, if given, are
    split_masks of the word's symbol count or of a larger one.
    """
    width = bits_per_symbol
    if not 1 <= width <= MAX_SYMBOL_BITS:
        raise ValueError(f"bits_per_symbol must be 1 to {MAX_SYMBOL_BITS}, got {width}")
    if word.width % width:
        raise ValueError(f"width {word.width} is not a multiple of {width}")
    count = word.width // width
    if masks is None:
        masks = split_masks(width, count)
    if count <= SPREAD_BLOCK:
        slots = _spread(word.value, width, count, masks)
    else:
        data = word.to_bytes()
        slots = bytearray()
        for first in range(0, count, SPREAD_BLOCK):
            n = min(SPREAD_BLOCK, count - first)
            block = data[first * width // 8 : (first + SPREAD_BLOCK) * width // 8]
            slots += _spread(int.from_bytes(block, "big") >> (8 * len(block) - n * width), width, n, masks)
    return slots if width <= 8 else read_slots(slots)


def unpack_symbols(word: BitWord, bits_per_symbol: int) -> tuple[int, ...]:
    """Inverse of pack_symbols: the tuple of split_symbols."""
    return tuple(split_symbols(word, bits_per_symbol))


def write_bitfile(path: str | os.PathLike, word: BitWord) -> None:
    """Write a word as: magic, 8-byte big-endian bit count, MSB-first payload."""
    with open(path, "wb") as f:
        f.write(BITFILE_MAGIC)
        f.write(word.width.to_bytes(8, "big"))
        f.write(word.to_bytes())


def read_bitfile(path: str | os.PathLike) -> BitWord:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != BITFILE_MAGIC:
            raise ValueError(f"not a bit file (bad magic {magic!r})")
        count = f.read(8)
        if len(count) != 8:
            raise ValueError(f"bit file ends inside its bit count ({len(count)} of 8 bytes)")
        width = int.from_bytes(count, "big")
        data = f.read()
    return BitWord.from_bytes(data, width)
