"""Constant-composition matching by exact enumerative coding.

Every output word is a permutation of one fixed multiset of class symbols
(the composition). Words are numbered in lexicographic order (class 0
sorts first) and the k-bit input, read MSB-first as an integer, selects a
word by that number; dematching recovers the number by ranking. All
arithmetic is exact arbitrary-precision integer arithmetic, so matching
and dematching are exact inverses at any block length.

The number of sequences below a given first symbol follows from the
multinomial recursion count(n; c0..) * c_i / n = count with c_i reduced,
which is what rank/unrank walk, one position at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, floor
from typing import Sequence

from .bits import BitWord


class CompositionMismatch(ValueError):
    """A sequence does not have the code's exact symbol counts."""


class RankOverflow(ValueError):
    """A sequence ranks at or above 2^k and is outside the codebook."""


@dataclass(frozen=True)
class Composition:
    """Fixed per-class symbol counts of one output word."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.counts:
            raise ValueError("composition needs at least one class")
        for c in self.counts:
            if isinstance(c, bool) or not isinstance(c, int) or c < 0:
                raise ValueError(f"counts must be non-negative integers, got {self.counts}")
        if self.n < 1:
            raise ValueError("composition is empty")

    @property
    def n(self) -> int:
        """Block length in symbols."""
        return sum(self.counts)

    @property
    def k_max(self) -> int:
        """floor(log2 of the codebook size), computed exactly."""
        return multiset_count(self).bit_length() - 1


def multiset_count(composition: Composition) -> int:
    """Number of distinct symbol orderings (exact multinomial coefficient)."""
    n = composition.n
    out = 1
    for c in composition.counts:
        out *= comb(n, c)
        n -= c
    return out


def composition_from_pmf(class_pmf: Sequence[float], n: int) -> Composition:
    """Quantize a class distribution to counts summing to n.

    Largest-remainder rounding: floor(p*n) per class, then the remaining
    symbols go to the largest fractional parts, ties to the lower class
    index.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not class_pmf:
        raise ValueError("empty pmf")
    if any(p < 0 for p in class_pmf):
        raise ValueError(f"pmf has negative entries: {class_pmf}")
    if abs(sum(class_pmf) - 1.0) > 1e-9:
        raise ValueError(f"pmf sums to {sum(class_pmf)}, expected 1")
    scaled = [p * n for p in class_pmf]
    base = [floor(x) for x in scaled]
    deficit = n - sum(base)
    order = sorted(range(len(class_pmf)), key=lambda c: (-(scaled[c] - base[c]), c))
    for c in order[:deficit]:
        base[c] += 1
    return Composition(tuple(base))


def unrank(composition: Composition, index: int) -> tuple[int, ...]:
    """The index-th sequence of the composition in lexicographic order."""
    total = multiset_count(composition)
    if not 0 <= index < total:
        raise ValueError(f"index {index} not in [0, {total})")
    counts = list(composition.counts)
    n_rem = composition.n
    out = []
    for _ in range(composition.n):
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


def rank(sequence: Sequence[int]) -> int:
    """Lexicographic number of a sequence among its own reorderings.

    The composition is inferred from the sequence itself, so
    rank(unrank(comp, i)) == i for any valid i.
    """
    if not sequence:
        raise ValueError("empty sequence")
    counts = [0] * (max(sequence) + 1)
    for sym in sequence:
        if sym < 0:
            raise ValueError(f"negative symbol {sym}")
        counts[sym] += 1
    total = multiset_count(Composition(tuple(counts)))
    n_rem = len(sequence)
    index = 0
    for sym in sequence:
        for c in range(sym):
            if counts[c]:
                index += total * counts[c] // n_rem
        total = total * counts[sym] // n_rem
        counts[sym] -= 1
        n_rem -= 1
    return index


@dataclass(frozen=True)
class CcdmCode:
    """A composition plus the input width k, with 2^k <= codebook size."""

    composition: Composition
    k: int

    def __post_init__(self) -> None:
        if isinstance(self.k, bool) or not isinstance(self.k, int) or self.k < 0:
            raise ValueError(f"k must be a non-negative integer, got {self.k!r}")
        if (1 << self.k) > multiset_count(self.composition):
            raise ValueError(
                f"k={self.k} exceeds the codebook capacity (k_max={self.composition.k_max})"
            )


def ccdm_encode(code: CcdmCode, bits: BitWord) -> tuple[int, ...]:
    """Map k input bits to a sequence with exactly the code's composition."""
    if bits.width != code.k:
        raise ValueError(f"expected {code.k} input bits, got {bits.width}")
    return unrank(code.composition, bits.value)


def ccdm_decode(code: CcdmCode, sequence: Sequence[int]) -> BitWord:
    """Recover the k input bits from a sequence.

    Raises CompositionMismatch if the symbol counts differ from the code's
    composition, RankOverflow if the sequence lies beyond the 2^k words in
    use.
    """
    counts = [0] * len(code.composition.counts)
    for sym in sequence:
        if not 0 <= sym < len(counts):
            raise CompositionMismatch(f"symbol {sym} outside {len(counts)} classes")
        counts[sym] += 1
    if tuple(counts) != code.composition.counts:
        raise CompositionMismatch(
            f"sequence has counts {tuple(counts)}, code expects {code.composition.counts}"
        )
    r = rank(sequence)
    if r >= (1 << code.k):
        raise RankOverflow(f"rank {r} >= 2^{code.k}")
    return BitWord(r, code.k)
