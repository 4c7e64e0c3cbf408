"""Maxwell-Boltzmann amplitude distributions matched to a target entropy.

P(|X| = a) is proportional to exp(-lam * a^2) over the 16-PAM magnitudes;
the sign is uniform, so the per-symbol entropy is H(|X|) + 1 and the
two-dimensional entropy is 2(H(|X|) + 1) (qam_entropy, which the
statistics share). mb_fit solves for lam by bisection, which is valid
because the entropy is strictly decreasing in lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .mapping import AMPLITUDES

# Bisection stops once |2H(X) - target| <= _TOL, or fails after _MAX_ITER steps.
_TOL = 1e-9
_MAX_ITER = 200


def entropy_bits(pmf: Sequence[float]) -> float:
    """Shannon entropy in bits; zero-probability terms contribute nothing."""
    return -sum(p * math.log2(p) for p in pmf if p > 0.0)


def qam_entropy(p_abs: Sequence[float]) -> float:
    """Entropy 2H(X) = 2(H(|X|) + 1) of one QAM symbol, in bpcu, with a uniform sign."""
    return 2.0 * (entropy_bits(p_abs) + 1.0)


@dataclass(frozen=True)
class MbDistribution:
    """p_abs[i] is P(|X| = AMPLITUDES[i]); stats.stats_for_mb gives its energy and entropy."""

    lam: float
    p_abs: tuple[float, ...]


def mb_distribution(lam: float) -> MbDistribution:
    """The distribution over the 16-PAM magnitudes for a rate parameter lam >= 0."""
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    weights = [math.exp(-lam * a * a) for a in AMPLITUDES]
    z = sum(weights)
    return MbDistribution(lam=lam, p_abs=tuple(w / z for w in weights))


def mb_fit(target_two_h: float) -> MbDistribution:
    """Solve for the distribution whose QAM entropy matches target_two_h.

    The solvable range is (2, 8]; the upper end is the uniform distribution
    (lam = 0). Bisection stops when |2H(X) - target| <= 1e-9; a target
    outside the range, or one not reached in _MAX_ITER steps, raises
    ValueError.
    """
    top = mb_distribution(0.0)
    top_two_h = qam_entropy(top.p_abs)
    if not 2.0 < target_two_h <= top_two_h:
        raise ValueError(f"target {target_two_h} outside solvable range (2, {top_two_h}]")
    if abs(top_two_h - target_two_h) <= _TOL:
        return top

    lo = 0.0  # 2H(X) at lo > target
    hi = 1.0
    while qam_entropy(mb_distribution(hi).p_abs) > target_two_h:
        lo = hi
        hi *= 2.0
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        dist = mb_distribution(mid)
        two_h = qam_entropy(dist.p_abs)
        if abs(two_h - target_two_h) <= _TOL:
            return dist
        if two_h > target_two_h:
            lo = mid
        else:
            hi = mid
    raise ValueError(f"bisection did not reach {_TOL} in {_MAX_ITER} iterations")
