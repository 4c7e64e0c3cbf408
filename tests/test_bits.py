import random

import pytest

from dmkit import BitWord, pack_symbols, read_bitfile, unpack_symbols, write_bitfile
from dmkit.bits import split_masks


def test_bounds():
    BitWord(0, 0)
    BitWord(15, 4)
    with pytest.raises(ValueError):
        BitWord(16, 4)
    with pytest.raises(ValueError):
        BitWord(-1, 4)
    with pytest.raises(ValueError):
        BitWord(1, 0)
    with pytest.raises(ValueError):
        BitWord(0, -1)
    BitWord((1 << 640) - 1, 640)
    with pytest.raises(ValueError):
        BitWord(1 << 640, 640)


def test_bits_roundtrip():
    w = pack_symbols([1, 0, 1, 1, 0], 1)
    assert w.value == 0b10110
    assert w.width == 5
    assert len(w) == 5
    assert unpack_symbols(w, 1) == (1, 0, 1, 1, 0)
    with pytest.raises(ValueError):
        pack_symbols([0, 2], 1)


def test_field_msb_first():
    w = BitWord(0b1011_0010_1100, 12)
    assert unpack_symbols(w, 4) == (0b1011, 0b0010, 0b1100)
    assert unpack_symbols(w, 6) == (0b101100, 0b101100)
    assert unpack_symbols(w, 12) == (w.value,)
    with pytest.raises(ValueError):
        unpack_symbols(w, 5)
    with pytest.raises(ValueError):
        unpack_symbols(w, 0)


def test_bytes_and_hex():
    # 12 bits pack into 2 bytes with 4 zero pad bits at the end.
    w = BitWord(0b1010_0000_1111, 12)
    assert w.to_bytes() == bytes([0b1010_0000, 0b1111_0000])
    assert w.hex() == "a0f0"
    assert BitWord.from_hex("a0f0", 12) == w
    with pytest.raises(ValueError):
        BitWord.from_hex("a0f1", 12)  # nonzero padding
    with pytest.raises(ValueError):
        BitWord.from_hex("a0", 12)  # wrong byte count


def test_pack_unpack_symbols():
    w = pack_symbols([0, 1, 2, 3], 2)
    assert (w.value, w.width) == (0b00_01_10_11, 8)
    assert unpack_symbols(w, 2) == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        pack_symbols([4], 2)
    with pytest.raises(ValueError):
        unpack_symbols(BitWord(0, 7), 2)
    with pytest.raises(ValueError):
        pack_symbols([], 0)
    with pytest.raises(ValueError):
        unpack_symbols(BitWord(0, 0), 0)

    # Against a reference that shifts one symbol at a time, from a generator.
    rng = random.Random(11)
    for width in (1, 2, 3, 7, 8, 9, 10, 13, 16):
        top = (1 << width) - 1
        for n in (0, 1, 5, 17, 100):
            symbols = (top,) * min(n, 1) + tuple(rng.getrandbits(width) for _ in range(n - 1))
            value = 0
            for s in symbols:
                value = (value << width) | s
            word = pack_symbols(iter(symbols), width)
            assert word == BitWord(value, n * width)
            assert unpack_symbols(word, width) == symbols


def test_unpack_symbols_matches_per_symbol_reference():
    # Every width (1-16), for every count up to 300 and around a multiple of
    # the split's block. Each word is the leading symbols of a 300- or
    # 8193-symbol word whose first and last symbols are all ones, so the
    # words share that word's reference: (value >> shift) & mask per symbol,
    # taken 64 symbols at a time so that no shift moves the whole word.
    rng = random.Random(2026)
    for width in range(1, 17):
        mask = (1 << width) - 1
        for longest, counts in ((300, range(301)), (8193, (8191, 8192, 8193))):
            value = rng.getrandbits(width * longest) | (mask << (width * (longest - 1))) | mask
            reference = []
            for first in range(0, longest, 64):
                n = min(64, longest - first)
                piece = (value >> (width * (longest - first - n))) & ((1 << (width * n)) - 1)
                reference += [(piece >> shift) & mask for shift in range(width * (n - 1), -1, -width)]
            for count in counts:
                word = BitWord(value >> (width * (longest - count)), width * count)
                symbols = unpack_symbols(word, width)
                assert symbols == tuple(reference[:count]), (width, count)
                assert pack_symbols(symbols, width) == word, (width, count)


def _pack_reference(symbols, width):
    """pack_symbols as one shift per symbol, moving whole bytes out of an accumulator."""
    limit = 1 << width
    buf = bytearray()
    acc = 0
    nbits = 0
    for s in symbols:
        if not 0 <= s < limit:
            raise ValueError(f"symbol {s} does not fit in {width} bits")
        acc = (acc << width) | s
        nbits += width
        if nbits >= 64:
            keep = nbits & 7
            buf += (acc >> keep).to_bytes(nbits >> 3, "big")
            acc &= (1 << keep) - 1
            nbits = keep
    return BitWord((int.from_bytes(buf, "big") << nbits) | acc, 8 * len(buf) + nbits)


def test_pack_symbols_matches_accumulator_reference():
    # Every width (1-16), for every count up to 300 and at the edges of one,
    # two and four gather blocks, from a list, a tuple and a generator. Each
    # input is the leading symbols of one random list, with its first and last
    # symbols set to all ones.
    rng = random.Random(2027)
    for width in range(1, 17):
        top = (1 << width) - 1
        longest = [rng.getrandbits(width) for _ in range(8193)]
        for count in [*range(301), 2047, 2048, 2049, 4095, 4096, 4097, 8191, 8192, 8193]:
            symbols = longest[:count]
            symbols[:1] = symbols[-1:] = [top] * min(count, 1)
            expected = _pack_reference(symbols, width)
            assert pack_symbols(symbols, width) == expected, (width, count)
            assert pack_symbols(tuple(symbols), width) == expected, (width, count)
            assert pack_symbols((s for s in symbols), width) == expected, (width, count)


def test_pack_symbols_with_given_masks_equals_its_own():
    # Masks of the symbol count or of a larger one, at every width, for one
    # symbol, around one gather block and across three blocks.
    rng = random.Random(2029)
    for width in range(1, 17):
        for count in (1, 2047, 2048, 2049, 5000):
            symbols = [rng.getrandbits(width) for _ in range(count)]
            expected = pack_symbols(symbols, width)
            for masks_count in sorted({count, count + 1, 2 * count, 5000}):
                assert pack_symbols(symbols, width, split_masks(width, masks_count)) == expected, (width, count, masks_count)


@pytest.mark.parametrize("width", [1, 2, 7, 8, 9, 12, 16])
@pytest.mark.parametrize("position", [0, 1, 2048, 4096])
def test_pack_symbols_rejects_what_the_reference_rejects(width, position):
    # Out of range is a ValueError (not the OverflowError of a 16-bit array);
    # a symbol that is no integer is a TypeError or a ValueError.
    for bad, errors in ((-1, ValueError), (1 << width, ValueError), (1.5, (TypeError, ValueError)), ("1", TypeError)):
        symbols = [0] * 4097
        symbols[position] = bad
        with pytest.raises(errors):
            _pack_reference(symbols, width)
        with pytest.raises(errors):
            pack_symbols(symbols, width)
        with pytest.raises(errors):
            pack_symbols(iter(symbols), width)


class _Index:
    """An integer only through __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize("width", [1, 4, 8, 9, 12, 16])
@pytest.mark.parametrize("position", [0, 3000])
def test_pack_symbols_errors_are_the_same_at_every_slot_width(width, position):
    # Up to 8 bits the symbols go through bytes, above through struct: the
    # same bad symbol raises the same type and message either way, in the
    # first block or a later one. True and __index__ integers are accepted.
    for bad in (1.5, "1", None, -1, 1 << width, 1 << 16, 1 << 70):
        symbols = [0] * 4097
        symbols[position] = bad
        with pytest.raises((TypeError, ValueError)) as info:
            pack_symbols(symbols, width)
        if isinstance(bad, int):
            assert (type(info.value), str(info.value)) == (ValueError, f"symbol {bad} does not fit in {width} bits")
        else:
            message = f"{type(bad).__name__!r} object cannot be interpreted as an integer"
            assert (type(info.value), str(info.value)) == (TypeError, message)
    symbols = [0] * 4097
    symbols[position : position + 2] = [True, _Index(1)]
    assert pack_symbols(symbols, width) == pack_symbols([0] * position + [1, 1] + [0] * (4095 - position), width)


@pytest.mark.parametrize("width", [0, 17])
def test_symbol_widths_outside_1_to_16_are_rejected(width):
    for symbols in ([], [0]):
        with pytest.raises(ValueError, match="bits_per_symbol"):
            pack_symbols(symbols, width)
    for word in (BitWord(0, 0), BitWord(0, 17)):
        with pytest.raises(ValueError, match="bits_per_symbol"):
            unpack_symbols(word, width)


def test_bitfile_roundtrip(tmp_path):
    path = tmp_path / "w.bits"
    w = BitWord(0b1_0110_1001, 9)
    write_bitfile(path, w)
    assert read_bitfile(path) == w
    with open(path, "rb") as f:
        data = bytearray(f.read())
    data[0] ^= 0xFF
    bad = tmp_path / "bad.bits"
    bad.write_bytes(data)
    with pytest.raises(ValueError, match="magic"):
        read_bitfile(bad)


def test_bitfile_truncated_bit_count(tmp_path):
    path = tmp_path / "w.bits"
    write_bitfile(path, BitWord(0, 0))
    data = path.read_bytes()
    assert read_bitfile(path) == BitWord(0, 0)
    for cut in range(4, 12):
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError, match="bit count"):
            read_bitfile(path)
