import random

import pytest

from dmkit import (
    BitWord,
    CLASS_ENERGIES,
    amplitude_pairs,
    assemble,
    encode,
    pam_amplitudes,
    stats_for_lutset,
    word_to_qam,
)


def test_assemble_extremes():
    assert assemble(0, 0, 0) == 1
    assert assemble(3, 1, 1) == -15
    assert assemble(1, 1, 0) == 7
    assert assemble(2, 0, 1) == -9


def test_assemble_rejects_bad_inputs():
    with pytest.raises(ValueError):
        assemble(4, 0, 0)
    with pytest.raises(ValueError):
        assemble(0, 2, 0)
    with pytest.raises(ValueError):
        assemble(0, 0, -1)


def test_assemble_is_a_bijection():
    outputs = {
        assemble(c, lsb, sign) for c in range(4) for lsb in (0, 1) for sign in (0, 1)
    }
    assert outputs == {s * a for a in range(1, 16, 2) for s in (1, -1)}
    positives = {assemble(c, lsb, 0) for c in range(4) for lsb in (0, 1)}
    assert positives == set(range(1, 16, 2))


def test_pair_energy_matches_class_table():
    for c, (a, b) in enumerate(amplitude_pairs()):
        assert (a * a + b * b) / 2 == CLASS_ENERGIES[c]
        # uniform LSB picks each member half the time
        mean = (assemble(c, 0, 0) ** 2 + assemble(c, 1, 0) ** 2) / 2
        assert mean == CLASS_ENERGIES[c]


def test_word_to_qam_single_symbol():
    qam = word_to_qam(BitWord(0b00_01, 4), BitWord(0b01, 2), BitWord(0b10, 2))
    # symbols: (class 0, lsb 0, sign 1) = -1 and (class 1, lsb 1, sign 0) = +7
    assert qam == (complex(-1, 7),)


def test_word_to_qam_all_zero():
    qam = word_to_qam(BitWord(0, 8), BitWord(0, 4), BitWord(0, 4))
    assert qam == (complex(1, 1), complex(1, 1))


def test_word_to_qam_length_checks():
    with pytest.raises(ValueError):
        word_to_qam(BitWord(0, 4), BitWord(0, 3), BitWord(0, 2))
    with pytest.raises(ValueError):
        word_to_qam(BitWord(0, 2), BitWord(0, 1), BitWord(0, 1))  # one PAM symbol


def test_assembled_energy_tracks_reported_energy(full_lutset):
    # Shaped words with uniform LSB and sign bits should average to the
    # reported QAM symbol energy. Seeded, so the draw is reproducible; the
    # tolerance is ~4 sigma for this sample size.
    spec = full_lutset.spec
    rng = random.Random(99)
    n_words = 200
    total = 0.0
    n_qam = 0
    for _ in range(n_words):
        info = BitWord(rng.getrandbits(spec.n_info), spec.n_info)
        shaped = encode(full_lutset, info)
        lsb = BitWord(rng.getrandbits(spec.n_pam), spec.n_pam)
        sign = BitWord(rng.getrandbits(spec.n_pam), spec.n_pam)
        for q in word_to_qam(shaped, lsb, sign):
            total += q.real * q.real + q.imag * q.imag
            n_qam += 1
    report = stats_for_lutset(full_lutset)
    assert abs(total / n_qam - report.energy) < 1.5


def test_pam_amplitudes_layout():
    amps = pam_amplitudes(BitWord(0b11_00, 4), BitWord(0b10, 2), BitWord(0b01, 2))
    # (class 3, lsb 1, sign 0) = 15 and (class 0, lsb 0, sign 1) = -1
    assert amps == (15, -1)
