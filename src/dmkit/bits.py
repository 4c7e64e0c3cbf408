"""Fixed-width bit words with MSB-first ordering.

Every bit string in this package follows one convention: bit 0 is the most
significant bit of the word. When a word is packed into bytes, bit 0 of the
word becomes bit 7 of byte 0, and the final byte is zero-padded on the low
end. Hex encodings are the hex digits of that byte packing.

pack_symbols/unpack_symbols are the one split/join between a word and its
fixed-width symbols (bits, amplitude classes, LUT entries, or the codec
words of a stream). Both move whole bytes, in time linear in the width.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable

BITFILE_MAGIC = b"DMB1"


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


def pack_symbols(symbols: Iterable[int], bits_per_symbol: int) -> BitWord:
    """Pack fixed-width symbols into a word, first symbol in the high bits."""
    if bits_per_symbol < 1:
        raise ValueError("bits_per_symbol must be >= 1")
    limit = 1 << bits_per_symbol
    buf = bytearray()
    acc = 0
    nbits = 0
    for s in symbols:
        if not 0 <= s < limit:
            raise ValueError(f"symbol {s} does not fit in {bits_per_symbol} bits")
        acc = (acc << bits_per_symbol) | s
        nbits += bits_per_symbol
        if nbits >= 64:  # move whole bytes out, keeping the accumulator small
            keep = nbits & 7
            buf += (acc >> keep).to_bytes(nbits >> 3, "big")
            acc &= (1 << keep) - 1
            nbits = keep
    return BitWord((int.from_bytes(buf, "big") << nbits) | acc, 8 * len(buf) + nbits)


def unpack_symbols(word: BitWord, bits_per_symbol: int) -> tuple[int, ...]:
    """Inverse of pack_symbols.

    The packed bytes are cut into blocks of whole bytes and whole symbols,
    at least 64 bits each; the last block is zero-padded and the padding
    symbols are dropped.
    """
    if bits_per_symbol < 1:
        raise ValueError("bits_per_symbol must be >= 1")
    if word.width % bits_per_symbol:
        raise ValueError(f"width {word.width} is not a multiple of {bits_per_symbol}")
    per_block = 8 // math.gcd(bits_per_symbol, 8)
    per_block *= -(-64 // (per_block * bits_per_symbol))
    block_bytes = per_block * bits_per_symbol // 8
    data = word.to_bytes()
    data += bytes(-len(data) % block_bytes)
    mask = (1 << bits_per_symbol) - 1
    shifts = range(bits_per_symbol * (per_block - 1), -1, -bits_per_symbol)
    blocks = (int.from_bytes(data[k : k + block_bytes], "big") for k in range(0, len(data), block_bytes))
    out = [(block >> shift) & mask for block in blocks for shift in shifts]
    return tuple(out[: word.width // bits_per_symbol])


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
