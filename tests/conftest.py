import pytest

from dmkit import BitWord, synthesize_tree, validate_tree
from dmkit.cli import SELFTEST_TREES

# The bundled 7-layer table (m=8, m_sb=4): 507 -> 640 bits, 320 PAM symbols.
SEVEN_LAYER_ROWS = [
    {"l": 7, "T": 1, "s": 5, "v": 5, "u": 12},
    {"l": 6, "t": 2, "T": 2, "r": 6, "s": 5, "v": 11, "u": 12},
    {"l": 5, "t": 2, "T": 4, "r": 6, "s": 5, "v": 11, "u": 12},
    {"l": 4, "t": 2, "T": 8, "r": 6, "s": 5, "v": 11, "u": 12},
    {"l": 3, "t": 2, "T": 16, "r": 6, "s": 5, "v": 11, "u": 12},
    {"l": 2, "t": 2, "T": 32, "r": 6, "s": 5, "v": 11, "u": 12},
    {"l": 1, "t": 2, "T": 64, "r": 6, "s": 3, "v": 9, "u": 10},
]

# Small trees whose codebooks can be enumerated exhaustively: the ones
# `dmkit selftest` checks.
(_, TREE2_ROWS), (_, TREE3_ROWS) = SELFTEST_TREES

# Fanin 1 and s = 0 below the top: the lower layer only relays bands.
CHAIN_ROWS = [
    {"l": 2, "T": 1, "s": 4, "v": 4, "u": 4},
    {"l": 1, "t": 1, "r": 4, "s": 0, "v": 4, "u": 4},
]

# The s = 2 layers are not adjacent: a word's bits for them are two ranges.
SPLIT_S_ROWS = [
    {"l": 3, "T": 1, "s": 2, "v": 2, "u": 4},
    {"l": 2, "t": 2, "r": 2, "s": 1, "v": 3, "u": 4},
    {"l": 1, "t": 2, "r": 2, "s": 2, "v": 4, "u": 4},
]

# Boundary trees for the 16-bit slots the codec moves indices in. Fanin 4:
# one parent word holds four child fields, and t*s = 20 child information
# bits per parent exceed a slot.
FANIN4_ROWS = [
    {"l": 2, "T": 1, "s": 8, "v": 8, "u": 16},
    {"l": 1, "t": 4, "r": 4, "s": 5, "v": 9, "u": 12},
]

# Fanin 3: a fanin that is no power of two.
FANIN3_ROWS = [
    {"l": 2, "T": 1, "s": 6, "v": 6, "u": 12},
    {"l": 1, "t": 3, "r": 4, "s": 6, "v": 10, "u": 12},
]

# 16-bit LUTs: the leaf keeps all 2^16 words (v = u = 16), so no leaf word
# misses and index 0xFFFF is valid; its parent sends 8-bit fields.
FULL16_ROWS = [
    {"l": 2, "T": 1, "s": 10, "v": 10, "u": 16},
    {"l": 1, "t": 2, "r": 8, "s": 8, "v": 16, "u": 16},
]

# Fanin 1 with r = 9: the one value a LUT sends its child is wider than a
# byte, which only fanin 1 allows.
WIDE_CHAIN_ROWS = [
    {"l": 2, "T": 1, "s": 7, "v": 7, "u": 9},
    {"l": 1, "t": 1, "r": 9, "s": 2, "v": 11, "u": 12},
]

# One-LUT trees: a shaping one (v < u) and a keep-everything one (v = u).
SINGLE_ROWS = [{"l": 1, "T": 1, "s": 2, "v": 2, "u": 4}]
KEEPALL_ROWS = [{"l": 1, "T": 1, "s": 4, "v": 4, "u": 4}]


# The fixtures below, one per tree: the bundled one, the selftest pair and
# the boundary trees above.
ALL_TREES = [
    "full_lutset",
    "tree2_lutset",
    "tree3_lutset",
    "chain_lutset",
    "split_s_lutset",
    "single_lutset",
    "keepall_lutset",
    "fanin4_lutset",
    "fanin3_lutset",
    "full16_lutset",
    "wide_chain_lutset",
]


def join_words(words, width):
    """Words of width bits joined into one stream, first word in the high bits."""
    return BitWord(int("".join([format(w, f"0{width}b") for w in words]) or "0", 2), len(words) * width)


def cut_words(stream, width):
    """The width-bit words of a stream, first word first: the inverse of join_words."""
    text = format(stream.value, f"0{stream.width}b")
    return tuple(int(text[k : k + width], 2) for k in range(0, stream.width, width))


@pytest.fixture(scope="session")
def full_spec():
    return validate_tree(SEVEN_LAYER_ROWS, 8, 4)


@pytest.fixture(scope="session")
def full_lutset(full_spec):
    return synthesize_tree(full_spec)


@pytest.fixture(scope="session")
def tree2_lutset():
    return synthesize_tree(validate_tree(TREE2_ROWS, 8, 4))


@pytest.fixture(scope="session")
def tree3_lutset():
    return synthesize_tree(validate_tree(TREE3_ROWS, 8, 4))


@pytest.fixture(scope="session")
def split_s_lutset():
    return synthesize_tree(validate_tree(SPLIT_S_ROWS, 8, 4))


@pytest.fixture(scope="session")
def single_lutset():
    return synthesize_tree(validate_tree(SINGLE_ROWS, 8, 4))


@pytest.fixture(scope="session")
def keepall_lutset():
    return synthesize_tree(validate_tree(KEEPALL_ROWS, 8, 4))


@pytest.fixture(scope="session")
def chain_lutset():
    return synthesize_tree(validate_tree(CHAIN_ROWS, 8, 4))


@pytest.fixture(scope="session")
def fanin4_lutset():
    return synthesize_tree(validate_tree(FANIN4_ROWS, 8, 4))


@pytest.fixture(scope="session")
def fanin3_lutset():
    return synthesize_tree(validate_tree(FANIN3_ROWS, 8, 4))


@pytest.fixture(scope="session")
def full16_lutset():
    return synthesize_tree(validate_tree(FULL16_ROWS, 8, 4))


@pytest.fixture(scope="session")
def wide_chain_lutset():
    return synthesize_tree(validate_tree(WIDE_CHAIN_ROWS, 8, 4))
