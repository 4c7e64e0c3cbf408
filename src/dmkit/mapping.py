"""Assembly of 16-PAM amplitudes and 256-QAM symbols.

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

from .bits import BitWord, unpack_symbols

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


def assemble(class_index: int, lsb_bit: int, sign_bit: int) -> int:
    """Signed amplitude for one PAM symbol.

    Bijective between (class, lsb, sign) triples and the 32 signed
    amplitudes; sign_bit 0 is positive.
    """
    if not 0 <= class_index < len(PAIR_BASE):
        raise ValueError(f"class index {class_index} not in 0..{len(PAIR_BASE) - 1}")
    if lsb_bit not in (0, 1) or sign_bit not in (0, 1):
        raise ValueError("lsb_bit and sign_bit must be 0 or 1")
    magnitude = PAIR_BASE[class_index] + 2 * lsb_bit
    return -magnitude if sign_bit else magnitude


def pam_amplitudes(shaped: BitWord, lsb_bits: BitWord, sign_bits: BitWord) -> tuple[int, ...]:
    """Assemble one amplitude per PAM symbol from the three bit planes."""
    n = shaped.width // 2
    if shaped.width != 2 * n or lsb_bits.width != n or sign_bits.width != n:
        raise ValueError(
            f"need 2n shaped bits and n lsb/sign bits, got {shaped.width}/{lsb_bits.width}/{sign_bits.width}"
        )
    classes = unpack_symbols(shaped, CLASS_BITS)
    lsb = unpack_symbols(lsb_bits, 1)
    sign = unpack_symbols(sign_bits, 1)
    return tuple(assemble(classes[i], lsb[i], sign[i]) for i in range(n))


def word_to_qam(shaped: BitWord, lsb_bits: BitWord, sign_bits: BitWord) -> tuple[complex, ...]:
    """Pair consecutive PAM symbols into QAM symbols (even index = I)."""
    amps = pam_amplitudes(shaped, lsb_bits, sign_bits)
    if len(amps) % 2:
        raise ValueError(f"odd number of PAM symbols ({len(amps)}) cannot form QAM symbols")
    return tuple(complex(amps[2 * k], amps[2 * k + 1]) for k in range(len(amps) // 2))
