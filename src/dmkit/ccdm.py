"""Constant-composition matching by exact enumerative coding.

Every output word is a permutation of one fixed multiset of class symbols
(the composition). Words are numbered in lexicographic order (class 0
sorts first) and the k-bit input, read MSB-first as an integer, selects a
word by that number; dematching recovers the number by ranking. All
arithmetic is exact arbitrary-precision integer arithmetic, so matching
and dematching are exact inverses at every block length up to
MAX_BLOCK_SYMBOLS.

The number of sequences below a given first symbol follows from the
multinomial recursion count(n; c0..) * c_i / n = count with c_i reduced,
which is what rank/unrank walk, one position at a time. Each such term is
an exact integer, so the sequences that start with any class below sym
number total * (c_0 + ... + c_{sym-1}) // n: rank does one multiply-divide
per position for them, and one more for the block it descends into. The
codebook size, the multinomial coefficient of the composition, is computed
once per Composition and cached on it (Composition.size).

One walk in each direction serves every composition. The first four
classes, all that any config builds, are held in locals and picked by an
unrolled if-chain; a composition of five or more classes keeps the counts
of classes 4 and up in a list, walked only once the class-3 test fails.
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Mapping, Set as AbstractSet
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Sequence

from .bits import BitWord


# Longest block: the exact codebook size at 65,536 symbols takes about 0.1 s.
MAX_BLOCK_SYMBOLS = 1 << 16


class CompositionMismatch(ValueError):
    """A sequence does not have the code's exact symbol counts."""


class RankOverflow(ValueError):
    """A sequence ranks at or above 2^k and is outside the codebook."""


def _multinomial(counts: Sequence[int]) -> int:
    n = sum(counts)
    out = 1
    for c in counts:
        out *= comb(n, c)
        n -= c
    return out


@dataclass(frozen=True)
class Composition:
    """Fixed per-class symbol counts of one output word."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if isinstance(self.counts, (AbstractSet, Mapping)):
            raise ValueError(f"counts must be an ordered sequence, got a {type(self.counts).__name__}")
        try:
            object.__setattr__(self, "counts", tuple(self.counts))
        except TypeError:
            raise ValueError(f"counts must be a sequence of integers, got {self.counts!r}") from None
        if not self.counts:
            raise ValueError("composition needs at least one class")
        for c in self.counts:
            if isinstance(c, bool) or not isinstance(c, int) or c < 0:
                raise ValueError(f"counts must be non-negative integers, got {self.counts}")
        if self.n < 1:
            raise ValueError("composition is empty")
        if self.n > MAX_BLOCK_SYMBOLS:
            raise ValueError(f"composition of {self.n} symbols exceeds the longest supported block, {MAX_BLOCK_SYMBOLS}")

    @property
    def n(self) -> int:
        """Block length in symbols."""
        return sum(self.counts)

    @cached_property
    def size(self) -> int:
        """Codebook size: the number of distinct symbol orderings (exact multinomial coefficient)."""
        return _multinomial(self.counts)

    @property
    def k_max(self) -> int:
        """floor(log2 of the codebook size), computed exactly."""
        return self.size.bit_length() - 1


def _check_composition(composition: Composition) -> None:
    if not isinstance(composition, Composition):
        raise ValueError(f"composition must be a Composition, got {type(composition).__name__}")


def unrank(composition: Composition, index: int) -> tuple[int, ...]:
    """The index-th sequence of the composition in lexicographic order."""
    _check_composition(composition)
    try:
        if isinstance(index, bool):
            raise TypeError
        index = operator.index(index)
    except TypeError:
        raise ValueError(f"index must be an integer, got {index!r}") from None
    total = composition.size
    if not 0 <= index < total:
        raise ValueError(f"index {index} not in [0, {total})")
    c0, c1, c2, c3, *rest = composition.counts + (0,) * (4 - len(composition.counts))
    out = []
    append = out.append
    for n_rem in range(composition.n, 0, -1):
        block = total * c0 // n_rem
        if index < block:
            c0 -= 1
            append(0)
        else:
            index -= block
            block = total * c1 // n_rem
            if index < block:
                c1 -= 1
                append(1)
            else:
                index -= block
                block = total * c2 // n_rem
                if index < block:
                    c2 -= 1
                    append(2)
                else:
                    index -= block
                    block = total * c3 // n_rem
                    if index < block:
                        c3 -= 1
                        append(3)
                    else:
                        c = 4
                        index -= block
                        block = total * rest[0] // n_rem
                        while index >= block:
                            index -= block
                            c += 1
                            block = total * rest[c - 4] // n_rem
                        rest[c - 4] -= 1
                        append(c)
        total = block
    return tuple(out)


def _rank(sequence: Sequence[int], counts: tuple[int, ...], total: int) -> int:
    # sequence: class indices; counts: its per-class symbol counts; total: their multinomial.
    c0, c1, c2, c3, *rest = counts + (0,) * (4 - len(counts))
    index = 0
    n_rem = len(sequence)
    for sym in sequence:
        if not sym:
            total = total * c0 // n_rem
            c0 -= 1
        elif sym == 1:
            index += total * c0 // n_rem
            total = total * c1 // n_rem
            c1 -= 1
        elif sym == 2:
            index += total * (c0 + c1) // n_rem
            total = total * c2 // n_rem
            c2 -= 1
        elif sym == 3:
            index += total * (c0 + c1 + c2) // n_rem
            total = total * c3 // n_rem
            c3 -= 1
        else:
            index += total * (c0 + c1 + c2 + c3 + sum(rest[: sym - 4])) // n_rem
            total = total * rest[sym - 4] // n_rem
            rest[sym - 4] -= 1
        n_rem -= 1
    return index


def rank(sequence: Sequence[int]) -> int:
    """Lexicographic number of a sequence among its own reorderings.

    The composition is inferred from the sequence itself, so
    rank(unrank(comp, i)) == i for any valid i. The distinct symbols are
    numbered in order as dense classes; classes no symbol takes add
    nothing to the rank.
    """
    symbols = []
    for sym in sequence:
        try:
            symbols.append(operator.index(sym))
        except TypeError:
            raise ValueError(f"symbol {sym!r} is not an integer") from None
    if not symbols:
        raise ValueError("empty sequence")
    tally = Counter(symbols)
    classes = {sym: c for c, sym in enumerate(sorted(tally))}
    if min(classes) < 0:
        raise ValueError(f"negative symbol {min(classes)}")
    counts = tuple(tally[sym] for sym in classes)
    return _rank([classes[sym] for sym in symbols], counts, _multinomial(counts))


@dataclass(frozen=True)
class CcdmCode:
    """A composition plus the input width k, with 2^k <= codebook size."""

    composition: Composition
    k: int

    def __post_init__(self) -> None:
        _check_composition(self.composition)
        if isinstance(self.k, bool) or not isinstance(self.k, int) or self.k < 0:
            raise ValueError(f"k must be a non-negative integer, got {self.k!r}")
        if self.k > self.composition.k_max:
            raise ValueError(
                f"k={self.k} exceeds the codebook capacity (k_max={self.composition.k_max})"
            )


def ccdm_encode(code: CcdmCode, bits: BitWord) -> tuple[int, ...]:
    """Map k input bits to a sequence with exactly the code's composition."""
    if bits.width != code.k:
        raise ValueError(f"expected {code.k} input bits, got {bits.width}")
    return unrank(code.composition, bits.value)


def _class_symbols(sequence: Sequence[int], composition: Composition) -> list[int]:
    """The sequence as class indices, or CompositionMismatch for the first fault."""
    counts = [0] * len(composition.counts)
    out = []
    for sym in sequence:
        try:
            c = operator.index(sym)
        except TypeError:
            c = -1
        if not 0 <= c < len(counts):
            raise CompositionMismatch(f"symbol {sym} outside {len(counts)} classes")
        counts[c] += 1
        out.append(c)
    if tuple(counts) != composition.counts:
        raise CompositionMismatch(
            f"sequence has counts {tuple(counts)}, code expects {composition.counts}"
        )
    return out


def ccdm_decode(code: CcdmCode, sequence: Sequence[int]) -> BitWord:
    """Recover the k input bits from a sequence.

    Raises CompositionMismatch if a symbol is not one of the code's class
    indices or the symbol counts differ from the code's composition,
    RankOverflow if the sequence lies beyond the 2^k words in use.
    """
    comp = code.composition
    seq = tuple(sequence)
    # Fast path: bytes() takes only integers in range(256), and with the
    # length right, matching counts of 0..K-1 leave no symbol outside them.
    # Anything else is checked symbol by symbol, for the first fault.
    try:
        symbols = bytes(seq)
    except (TypeError, ValueError):
        symbols = b""
    if len(symbols) != comp.n or tuple(map(symbols.count, range(len(comp.counts)))) != comp.counts:
        symbols = _class_symbols(seq, comp)
    r = _rank(symbols, comp.counts, comp.size)
    if r >= (1 << code.k):
        raise RankOverflow(f"rank {r} >= 2^{code.k}")
    return BitWord(r, code.k)
