"""The 16-PAM / 256-QAM labeling: widths, amplitudes and class energies.

dmkit shapes one modulation: 256-QAM, i.e. m = 8 bits per QAM symbol of
which m_sb = 4 are shaped (BITS_PER_QAM, SHAPED_BITS_PER_QAM); this
module is the one home of those widths. Each PAM symbol carries four
label bits: sign (most significant), two shaped class bits (CLASS_BITS),
and one uniform least significant bit. The two class bits select one of
four magnitude pairs, ordered by energy; the LSB picks the member of the
pair, the sign bit the polarity. Only the class bits are shaped; sign and
LSB stay uniform, so a class costs the mean squared magnitude of its pair
(CLASS_ENERGIES).
"""

from __future__ import annotations

BITS_PER_QAM = 8
SHAPED_BITS_PER_QAM = 4
# Shaped bits per PAM symbol: the width of one amplitude-class symbol.
CLASS_BITS = 2

# Magnitude pairs {1,3},{5,7},{9,11},{13,15}: natural-binary adjacent pairs
# in ascending energy order.
PAIR_BASE = (1, 5, 9, 13)
AMPLITUDES = (1, 3, 5, 7, 9, 11, 13, 15)


def amplitude_pairs() -> tuple[tuple[int, int], ...]:
    """The magnitude pair addressed by each class index."""
    return tuple((b, b + 2) for b in PAIR_BASE)


# Energy of each class with a uniform LSB: (5, 37, 101, 197), ascending.
CLASS_ENERGIES = tuple((a * a + b * b) / 2 for a, b in amplitude_pairs())

