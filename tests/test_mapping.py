from dmkit import AMPLITUDES, CLASS_ENERGIES, PAIR_BASE, amplitude_pairs


def test_pair_energy_matches_class_table():
    pairs = amplitude_pairs()
    for c, (a, b) in enumerate(pairs):
        assert (a, b) == (PAIR_BASE[c], PAIR_BASE[c] + 2)
        # uniform LSB picks each member half the time
        assert (a * a + b * b) / 2 == CLASS_ENERGIES[c]
    # class and LSB address each magnitude exactly once
    assert sorted(a for pair in pairs for a in pair) == list(AMPLITUDES)
