import copy
import re

import pytest

from dmkit import (
    CountViolation,
    CouplingViolation,
    GranularityViolation,
    TreeConfigError,
    WidthViolation,
    lut_size_report,
    spec_fingerprint,
    spec_to_mappings,
    validate_tree,
)
from dmkit.tree import MAX_WORD_BITS
from conftest import SEVEN_LAYER_ROWS, SINGLE_ROWS


def test_seven_layer_totals():
    spec = validate_tree(SEVEN_LAYER_ROWS, 8, 4)
    assert spec.depth == 7
    assert spec.n_info == 507
    assert spec.n_out == 640
    assert spec.n_pam == 320
    assert spec.top.info_bits == 5
    assert spec.leaf.lut_count == 64


def test_single_layer_totals():
    spec = validate_tree(SINGLE_ROWS, 8, 4)
    assert spec.n_info == 2
    assert spec.n_out == 4
    assert spec.n_pam == 2


def test_layer_accessors():
    spec = validate_tree(SEVEN_LAYER_ROWS, 8, 4)
    assert [layer.layer_index for layer in spec.layers] == [7, 6, 5, 4, 3, 2, 1]
    assert spec.layers[0] is spec.top
    assert spec.layers[-1] is spec.leaf
    assert spec.layers[spec.depth - 3].lut_count == 16


def test_input_order_does_not_matter():
    shuffled = list(reversed(SEVEN_LAYER_ROWS))
    assert validate_tree(shuffled, 8, 4) == validate_tree(SEVEN_LAYER_ROWS, 8, 4)


def test_lut_count_optional_and_checked():
    rows = [dict(r) for r in SEVEN_LAYER_ROWS]
    for r in rows:
        del r["T"]
    spec = validate_tree(rows, 8, 4)
    assert [l.lut_count for l in spec.layers] == [1, 2, 4, 8, 16, 32, 64]

    rows = [dict(r) for r in SEVEN_LAYER_ROWS]
    rows[3]["T"] = 9
    with pytest.raises(CountViolation):
        validate_tree(rows, 8, 4)


def test_coupling_violation():
    # Narrow one layer's parent field (keeping v = r + s consistent): the
    # layer above now emits more bits than the children consume.
    rows = [dict(r) for r in SEVEN_LAYER_ROWS]
    assert rows[5]["l"] == 2
    rows[5]["r"] = 5
    rows[5]["v"] = 10
    with pytest.raises(CouplingViolation):
        validate_tree(rows, 8, 4)


def test_width_violations():
    rows = [dict(r) for r in SEVEN_LAYER_ROWS]
    rows[5]["r"] = 5  # v stays 11 != 5 + 5
    with pytest.raises(WidthViolation):
        validate_tree(rows, 8, 4)

    rows = [dict(r) for r in SEVEN_LAYER_ROWS]
    rows[0]["v"] = 13  # v > u: cannot be injective
    rows[0]["s"] = 13
    with pytest.raises(WidthViolation):
        validate_tree(rows, 8, 4)

    with pytest.raises(WidthViolation):
        validate_tree([{"l": 1, "T": 1, "s": 3, "v": 2, "u": 4}], 8, 4)

    # Tables are at most 16 bits wide; only validation runs on the wider rows.
    assert validate_tree([{"l": 1, "T": 1, "s": 1, "v": 1, "u": 16}], 8, 4).n_out == 16
    for u in (17, 18, 40):
        with pytest.raises(WidthViolation, match="widest"):
            validate_tree([{"l": 1, "T": 1, "s": 1, "v": 1, "u": u}], 8, 4)


def _chain_rows(depth):
    # A top LUT with 2 information bits over depth - 1 relay layers of fanin 2
    # that add none: T_1 = 2^(depth-1) leaves of 4 bits.
    return [{"l": depth, "T": 1, "s": 2, "v": 2, "u": 4}] + [
        {"l": l, "t": 2, "r": 2, "s": 0, "v": 2, "u": 4} for l in range(depth - 1, 0, -1)
    ]


def test_word_length_bound():
    # n_out = 4 * 2^(depth-1): 2^16 bits at depth 15 is the longest word.
    assert validate_tree(_chain_rows(15), 8, 4).n_out == MAX_WORD_BITS == 1 << 16
    for depth in (16, 40):  # 2^17 bits; 2^41 bits, which once reached the codec and ran out of memory
        with pytest.raises(CountViolation, match="longest supported word"):
            validate_tree(_chain_rows(depth), 8, 4)


def test_granularity_violations():
    # Leaf output must split into whole class symbols.
    with pytest.raises(GranularityViolation):
        validate_tree([{"l": 1, "T": 1, "s": 2, "v": 2, "u": 3}], 8, 4)
    # Total output must split into whole QAM symbols.
    with pytest.raises(GranularityViolation):
        validate_tree([{"l": 1, "T": 1, "s": 2, "v": 2, "u": 6}], 8, 4)
    with pytest.raises(GranularityViolation):
        validate_tree(SINGLE_ROWS, 8, 3)
    # The modulation is fixed: 256-QAM with 4 shaped bits per QAM symbol.
    for m, m_sb in ((6, 4), (10, 4), (8, 6), (8, 2)):
        with pytest.raises(GranularityViolation):
            validate_tree(SINGLE_ROWS, m, m_sb)


def test_malformed_tables():
    with pytest.raises(TreeConfigError):
        validate_tree([], 8, 4)
    with pytest.raises(TreeConfigError):
        validate_tree([{"l": 1, "T": 1, "s": 2, "v": 2, "u": 4, "x": 0}], 8, 4)
    with pytest.raises(TreeConfigError):
        validate_tree([{"l": 2, "T": 1, "s": 2, "v": 2, "u": 4}], 8, 4)  # indices not 1..L
    with pytest.raises(TreeConfigError):
        validate_tree([{"l": 1, "T": 1, "s": 2, "v": 2}], 8, 4)  # missing u
    # Top layer must omit t and r.
    with pytest.raises(TreeConfigError):
        validate_tree([{"l": 1, "t": 2, "T": 1, "r": 0, "s": 2, "v": 2, "u": 4}], 8, 4)
    # Non-top layer must carry them.
    rows = copy.deepcopy(SEVEN_LAYER_ROWS)
    del rows[1]["t"]
    with pytest.raises(TreeConfigError):
        validate_tree(rows, 8, 4)
    with pytest.raises(TreeConfigError):
        validate_tree([{"l": 1, "T": 1, "s": 2.5, "v": 2, "u": 4}], 8, 4)


# One count below its minimum per case; the error names the field.
@pytest.mark.parametrize(
    "row, key, value, name",
    [
        (0, "l", 0, "layer index l must be >= 1, got 0"),
        (0, "v", 0, "v (layer 7) must be >= 1, got 0"),
        (6, "u", 0, "u (layer 1) must be >= 1, got 0"),
        (6, "t", 0, "t (layer 1) must be >= 1, got 0"),
        (6, "T", 0, "T (layer 1) must be >= 1, got 0"),
        (6, "s", -1, "s (layer 1) must be >= 0, got -1"),
    ],
)
def test_counts_below_their_minimum(row, key, value, name):
    rows = copy.deepcopy(SEVEN_LAYER_ROWS)
    rows[row][key] = value
    with pytest.raises(TreeConfigError, match=re.escape(name)):
        validate_tree(rows, 8, 4)


def test_idempotent_revalidation():
    spec = validate_tree(SEVEN_LAYER_ROWS, 8, 4)
    again = validate_tree(spec_to_mappings(spec), 8, 4)
    assert again == spec
    assert spec_fingerprint(again) == spec_fingerprint(spec)


def test_lut_size_single_layer():
    spec = validate_tree(SINGLE_ROWS, 8, 4)
    report = lut_size_report(spec)
    assert report == {"dm_bits": 1 * (1 << 2) * 4, "invdm_bits": 1 * (1 << 4) * 2}


def test_lut_size_seven_layer_matches_direct_sum():
    spec = validate_tree(SEVEN_LAYER_ROWS, 8, 4)
    dm = sum(row["T"] * 2 ** row["v"] * row["u"] for row in SEVEN_LAYER_ROWS)
    inv = sum(row["T"] * 2 ** row["u"] * row["v"] for row in SEVEN_LAYER_ROWS)
    assert lut_size_report(spec) == {"dm_bits": dm, "invdm_bits": inv}
    assert dm == 1851776
    assert inv == 3403776


def test_lut_size_two_identical_layers_double_one():
    one = validate_tree([{"l": 1, "T": 1, "s": 4, "v": 4, "u": 4}], 8, 4)
    two = validate_tree(
        [
            {"l": 2, "T": 1, "s": 4, "v": 4, "u": 4},
            {"l": 1, "t": 1, "T": 1, "r": 4, "s": 0, "v": 4, "u": 4},
        ],
        8,
        4,
    )
    r1 = lut_size_report(one)
    r2 = lut_size_report(two)
    assert r2["dm_bits"] == 2 * r1["dm_bits"]
    assert r2["invdm_bits"] == 2 * r1["invdm_bits"]
