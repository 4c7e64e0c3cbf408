import math
import random
import tracemalloc
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmkit import (
    BitWord,
    CcdmCode,
    Composition,
    CompositionMismatch,
    RankOverflow,
    ccdm_decode,
    ccdm_encode,
    pack_symbols,
    rank,
    unpack_symbols,
    unrank,
)
from dmkit.ccdm import MAX_BLOCK_SYMBOLS, _rank

FULL_COUNTS = (157, 104, 46, 13)


def test_composition_basics():
    comp = Composition((2, 1))
    assert comp.n == 3
    with pytest.raises(ValueError):
        Composition(())
    with pytest.raises(ValueError):
        Composition((0, 0))
    with pytest.raises(ValueError):
        Composition((1, -1))


def test_composition_keeps_counts_as_a_tuple():
    from_list = Composition([2, 2])
    from_tuple = Composition((2, 2))
    assert from_list.counts == (2, 2)
    assert from_list == from_tuple
    assert hash(from_list) == hash(from_tuple)
    code = CcdmCode(from_list, 2)
    for value in range(4):
        assert ccdm_decode(code, ccdm_encode(code, BitWord(value, 2))) == BitWord(value, 2)
    with pytest.raises(ValueError, match="sequence of integers"):
        Composition(5)


@pytest.mark.parametrize("counts", [{2, 2}, frozenset({157, 104}), {157: 1, 104: 1}], ids=["set", "frozenset", "dict"])
def test_composition_refuses_unordered_counts(counts):
    with pytest.raises(ValueError, match="ordered sequence"):
        Composition(counts)


def test_composition_block_length_bound():
    assert Composition((MAX_BLOCK_SYMBOLS - 1, 1)).n == MAX_BLOCK_SYMBOLS == 1 << 16
    for counts in [(MAX_BLOCK_SYMBOLS, 1), (100_000_000, 100_000_000)]:
        with pytest.raises(ValueError, match="longest supported block"):
            Composition(counts)


def test_multiset_count_small():
    assert Composition((2, 2)).size == 6
    assert Composition((5, 0, 0, 0)).size == 1
    assert Composition((1, 1, 1)).size == 6


def test_multiset_count_full_word_capacity():
    # Independent route: the factorial form of the multinomial coefficient.
    count = Composition(FULL_COUNTS).size
    by_factorials = math.factorial(320)
    for c in FULL_COUNTS:
        by_factorials //= math.factorial(c)
    assert count == by_factorials
    assert count.bit_length() - 1 >= 507
    assert Composition(FULL_COUNTS).k_max == 507


def test_unrank_two_symbols():
    comp = Composition((1, 1))
    assert unrank(comp, 0) == (0, 1)
    assert unrank(comp, 1) == (1, 0)
    with pytest.raises(ValueError):
        unrank(comp, 2)
    with pytest.raises(ValueError):
        unrank(comp, -1)


def test_unrank_refuses_what_is_not_a_composition():
    with pytest.raises(ValueError, match="composition must be a Composition, got tuple"):
        unrank((2, 2), 0)


@pytest.mark.parametrize("index", [1.5, 1.0, True, False, "1", None, -1], ids=repr)
def test_unrank_rejects_index_that_is_not_a_valid_integer(index):
    with pytest.raises(ValueError):
        unrank(Composition((2, 2)), index)


def test_unrank_zero_is_sorted():
    for counts in [(3, 2), (1, 2, 3), (2, 0, 1), FULL_COUNTS]:
        comp = Composition(counts)
        seq = unrank(comp, 0)
        assert seq == tuple(sorted(seq))


def test_unrank_matches_brute_force_enumeration():
    comp = Composition((2, 2))
    expected = sorted(set(permutations((0, 0, 1, 1))))
    got = [unrank(comp, i) for i in range(6)]
    assert got == expected


def test_rank_inverts_unrank():
    comp = Composition((2, 2))
    for i in range(6):
        assert rank(unrank(comp, i)) == i
    assert rank((0, 0, 1, 1)) == 0
    assert rank((1, 1, 0, 0)) == comp.size - 1


@pytest.mark.parametrize(
    "sequence, message",
    [([], "empty"), ([-1, 0], "negative"), ([1.5, 0], "not an integer"), ([0, "a"], "not an integer"), ([None], "not an integer")],
    ids=["empty", "negative", "float", "str", "none"],
)
def test_rank_rejects_bad_sequences(sequence, message):
    with pytest.raises(ValueError, match=message):
        rank(sequence)


def test_rank_numbers_distinct_symbols_as_dense_classes():
    assert rank([0, 2**70]) == 0
    assert rank([2**70, 0]) == 1
    assert rank((9, 5, 9, 5, 7)) == rank((2, 0, 2, 0, 1))
    tracemalloc.start()
    try:
        assert rank([2**40, 0, 2**40]) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_rank_infers_trailing_classes():
    # a sequence that never uses class 3 still ranks consistently
    comp = Composition((2, 1, 1))
    for i in range(comp.size):
        assert rank(unrank(comp, i)) == i


def test_code_capacity_check():
    CcdmCode(Composition((2, 2)), 2)  # 4 <= 6
    with pytest.raises(ValueError, match="capacity"):
        CcdmCode(Composition((2, 2)), 3)  # 8 > 6
    with pytest.raises(ValueError):
        CcdmCode(Composition((2, 2)), -1)
    with pytest.raises(ValueError, match="capacity"):
        CcdmCode(Composition((2, 2)), 2**62)  # compared against k_max, never shifted
    with pytest.raises(ValueError, match="composition must be a Composition, got tuple"):
        CcdmCode((2, 2), 1)


def test_toy_code_two_cases():
    code = CcdmCode(Composition((1, 1)), 1)
    assert ccdm_encode(code, BitWord(0, 1)) == (0, 1)
    assert ccdm_encode(code, BitWord(1, 1)) == (1, 0)
    assert ccdm_decode(code, (0, 1)) == BitWord(0, 1)
    assert ccdm_decode(code, (1, 0)) == BitWord(1, 1)


def test_decode_symbols_beyond_one_byte():
    code = CcdmCode(Composition((0,) * 299 + (1, 1)), 1)
    assert ccdm_encode(code, BitWord(1, 1)) == (300, 299)
    assert ccdm_decode(code, (300, 299)) == BitWord(1, 1)
    assert ccdm_decode(code, [299, 300]) == BitWord(0, 1)
    with pytest.raises(CompositionMismatch, match="symbol 301 outside 301 classes"):
        ccdm_decode(code, (301, 299))


def test_full_code_zero_input_is_sorted_sequence():
    code = CcdmCode(Composition(FULL_COUNTS), 507)
    seq = ccdm_encode(code, BitWord(0, 507))
    assert seq == (0,) * 157 + (1,) * 104 + (2,) * 46 + (3,) * 13


def test_full_code_roundtrip_sample():
    import random

    code = CcdmCode(Composition(FULL_COUNTS), 507)
    rng = random.Random(17)
    for _ in range(60):
        word = BitWord(rng.getrandbits(507), 507)
        seq = ccdm_encode(code, word)
        counts = [seq.count(c) for c in range(4)]
        assert tuple(counts) == FULL_COUNTS
        assert ccdm_decode(code, seq) == word


def test_decode_rejects_wrong_composition():
    code = CcdmCode(Composition((2, 2)), 2)
    with pytest.raises(CompositionMismatch):
        ccdm_decode(code, (0, 0, 0, 1))
    with pytest.raises(CompositionMismatch):
        ccdm_decode(code, (0, 0, 1, 5))
    # an out-of-range symbol is named before the counts are compared
    with pytest.raises(CompositionMismatch, match="symbol 5 outside 2 classes"):
        ccdm_decode(code, (0, 0, 0, 5))
    with pytest.raises(CompositionMismatch, match="counts"):
        ccdm_decode(code, (0, 1, 1, 1))
    with pytest.raises(CompositionMismatch, match="counts"):
        ccdm_decode(code, (0, 1, 1))
    # symbols that are not integer class indices
    for seq in [(0, 1.5, 1, 0), ("a", 0, 1, 1), (0, 0, 1, 1.0), (0, 0, 1, -1), (0, 0, 1, 256)]:
        with pytest.raises(CompositionMismatch, match="outside 2 classes"):
            ccdm_decode(code, seq)


def test_decode_rejects_out_of_codebook_rank():
    code = CcdmCode(Composition((2, 2)), 2)
    high = unrank(Composition((2, 2)), 5)
    with pytest.raises(RankOverflow):
        ccdm_decode(code, high)


def test_encode_rejects_wrong_width():
    code = CcdmCode(Composition((2, 2)), 2)
    with pytest.raises(ValueError):
        ccdm_encode(code, BitWord(0, 3))


def test_sequence_word_packing():
    seq = (0, 1, 2, 3, 0)
    word = pack_symbols(seq, 2)
    assert word.width == 10
    assert unpack_symbols(word, 2) == seq


@settings(max_examples=80, deadline=None)
@given(
    counts=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=4).filter(
        lambda c: 0 < sum(c) <= 10
    ),
    data=st.data(),
)
def test_rank_unrank_roundtrip_property(counts, data):
    comp = Composition(tuple(counts))
    total = comp.size
    index = data.draw(st.integers(min_value=0, max_value=total - 1))
    seq = unrank(comp, index)
    assert len(seq) == comp.n
    assert tuple(seq.count(c) for c in range(len(counts))) == comp.counts
    assert rank(seq) == index


def test_unrank_is_lexicographically_increasing():
    comp = Composition((2, 1, 1))
    seqs = [unrank(comp, i) for i in range(comp.size)]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)


def _reference_unrank(counts, index):
    """Reference unrank: one multiply-divide per class tried at each position."""
    counts = list(counts)
    n_rem = sum(counts)
    total = math.factorial(n_rem)
    for c in counts:
        total //= math.factorial(c)
    out = []
    for _ in range(n_rem):
        for c, remaining in enumerate(counts):
            if not remaining:
                continue
            block = total * remaining // n_rem
            if index < block:
                total = block
                counts[c] -= 1
                out.append(c)
                break
            index -= block
        n_rem -= 1
    return tuple(out)


def _reference_rank(sequence):
    """Reference rank: one multiply-divide per smaller class at each position."""
    counts = [0] * (max(sequence) + 1)
    for sym in sequence:
        counts[sym] += 1
    n_rem = len(sequence)
    total = math.factorial(n_rem)
    for c in counts:
        total //= math.factorial(c)
    index = 0
    for sym in sequence:
        for c in range(sym):
            if counts[c]:
                index += total * counts[c] // n_rem
        total = total * counts[sym] // n_rem
        counts[sym] -= 1
        n_rem -= 1
    return index


@settings(max_examples=300, deadline=None)
@given(n=st.integers(min_value=1, max_value=64), data=st.data())
def test_rank_unrank_match_reference_beyond_small_blocks(n, data):
    cuts = sorted(data.draw(st.lists(st.integers(min_value=0, max_value=n), max_size=5)))
    counts = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))  # 1-6 classes summing to n
    comp = Composition(counts)
    index = data.draw(st.integers(min_value=0, max_value=comp.size - 1))
    seq = unrank(comp, index)
    assert seq == _reference_unrank(counts, index)
    assert rank(seq) == _reference_rank(seq) == index
    shuffled = data.draw(st.permutations(seq))
    assert rank(shuffled) == _reference_rank(shuffled)


def _compositions(n_classes, n_max):
    for counts in product(range(n_max + 1), repeat=n_classes):
        if 0 < sum(counts) <= n_max:
            yield counts


def test_rank_unrank_match_reference_on_every_small_composition():
    # Every composition of 1-4 classes with n <= 8 and of 5-6 classes with
    # n <= 5, zero counts included, at every index: the four local classes
    # and the tail list beyond them.
    small = [(n_classes, 8) for n_classes in range(1, 5)] + [(5, 5), (6, 5)]
    for n_classes, n_max in small:
        for counts in _compositions(n_classes, n_max):
            comp = Composition(counts)
            for index in range(comp.size):
                seq = unrank(comp, index)
                assert seq == _reference_unrank(counts, index)
                assert _rank(seq, counts, comp.size) == _reference_rank(seq) == index


def test_four_class_kernel_matches_reference_on_the_full_code():
    comp = Composition(FULL_COUNTS)
    rng = random.Random(26)
    indices = [0, 1, 2**507 - 1, comp.size - 1] + [rng.randrange(comp.size) for _ in range(12)]
    for index in indices:
        seq = unrank(comp, index)
        assert seq == _reference_unrank(FULL_COUNTS, index)
        assert _rank(seq, FULL_COUNTS, comp.size) == rank(seq) == _reference_rank(seq) == index
