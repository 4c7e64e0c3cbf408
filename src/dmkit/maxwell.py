"""Maxwell-Boltzmann amplitude distributions matched to a target entropy.

P(|X| = a) is proportional to exp(-lam * a^2) over the 16-PAM magnitudes;
the sign is uniform, so the per-symbol entropy is H(|X|) + 1 and the
two-dimensional entropy is 2(H(|X|) + 1). mb_fit solves for lam by
bisection, which is valid because the entropy is strictly decreasing in
lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .mapping import AMPLITUDES

# Bisection stops once |two_h - target| <= _TOL, or fails after _MAX_ITER steps.
_TOL = 1e-9
_MAX_ITER = 200

@dataclass(frozen=True)
class MbDistribution:
    """p_abs[i] is P(|X| = AMPLITUDES[i])."""

    lam: float
    p_abs: tuple[float, ...]

    @property
    def pam_energy(self) -> float:
        """Mean squared amplitude of one PAM symbol."""
        return sum(p * a * a for p, a in zip(self.p_abs, AMPLITUDES))

    @property
    def qam_energy(self) -> float:
        """Mean QAM symbol energy (two PAM dimensions)."""
        return 2.0 * self.pam_energy

    @property
    def entropy_abs(self) -> float:
        """H(|X|) in bits."""
        return -sum(p * math.log2(p) for p in self.p_abs if p > 0.0)

    @property
    def two_h(self) -> float:
        """Entropy of one QAM symbol, 2(H(|X|) + 1), in bpcu."""
        return 2.0 * (self.entropy_abs + 1.0)

    def signed_pmf(self) -> tuple[float, ...]:
        """PMF over the signed amplitudes (-15 .. +15, uniform sign)."""
        neg = tuple(p / 2.0 for p in reversed(self.p_abs))
        pos = tuple(p / 2.0 for p in self.p_abs)
        return neg + pos


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
    (lam = 0). Bisection stops when |two_h - target| <= 1e-9.
    """
    top = mb_distribution(0.0)
    if not 2.0 < target_two_h <= top.two_h:
        raise ValueError(f"target {target_two_h} outside solvable range (2, {top.two_h}]")
    if abs(top.two_h - target_two_h) <= _TOL:
        return top

    lo = 0.0  # two_h(lo) > target
    hi = 1.0
    while mb_distribution(hi).two_h > target_two_h:
        lo = hi
        hi *= 2.0
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        dist = mb_distribution(mid)
        if abs(dist.two_h - target_two_h) <= _TOL:
            return dist
        if dist.two_h > target_two_h:
            lo = mid
        else:
            hi = mid
    raise ArithmeticError(f"bisection did not reach {_TOL} in {_MAX_ITER} iterations")
