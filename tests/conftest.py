import pytest

from dmkit import synthesize_tree, validate_tree
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

# One-LUT trees: a shaping one (v < u) and a keep-everything one (v = u).
SINGLE_ROWS = [{"l": 1, "T": 1, "s": 2, "v": 2, "u": 4}]
KEEPALL_ROWS = [{"l": 1, "T": 1, "s": 4, "v": 4, "u": 4}]


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
