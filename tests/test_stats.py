import csv
import io
import math

import pytest

from dmkit import (
    BitWord,
    CLASS_BITS,
    CLASS_ENERGIES,
    CcdmCode,
    Composition,
    comparison_report,
    encode,
    entropy_bits,
    exact_class_pmf,
    mb_fit,
    monte_carlo_pmf,
    render_csv,
    render_text,
    stats_for_ccdm,
    stats_for_lutset,
    stats_for_mb,
    stats_from_pmf,
    synthesize_tree,
    validate_tree,
)
from dmkit.maxwell import qam_entropy

from conftest import ALL_TREES

# Exact class distribution of the bundled seven-layer tree; every value is
# a dyadic rational, so equality holds to the last float bit and this pins
# the construction against accidental changes. Verified against the
# exhaustive-codebook oracle on the small trees below.
FULL_TREE_CLASS_PMF = (
    0.4757288843215065,
    0.3356751498715312,
    0.1521239412842988,
    0.03647202452266356,
)


def brute_force_class_pmf(lutset):
    """Codebook average via encode, counting symbols from the bit text."""
    spec = lutset.spec
    counts = [0, 0, 0, 0]
    for value in range(1 << spec.n_info):
        shaped = encode(lutset, BitWord(value, spec.n_info))
        text = format(shaped.value, f"0{spec.n_out}b")
        for i in range(0, spec.n_out, 2):
            counts[int(text[i : i + 2], 2)] += 1
    total = sum(counts)
    return tuple(c / total for c in counts)


# The design benchmark's wide tree (139 -> 192 bits, 2^13-entry tables above
# the leaf): far too large to enumerate.
WIDE_ROWS = (
    [{"l": 5, "T": 1, "s": 7, "v": 7, "u": 14}]
    + [{"l": l, "t": 2, "r": 7, "s": 6, "v": 13, "u": 14} for l in (4, 3, 2)]
    + [{"l": 1, "t": 2, "r": 7, "s": 3, "v": 10, "u": 12}]
)


def bottom_up_class_pmf(lutset):
    """exact_class_pmf the other way round: class counts per band, summed from the leaf up.

    An entry's counts are the sums of what its fields select below: at the
    leaf a 2-bit class symbol counts itself, above it an r-bit field
    selects a band of the child layer. A band (one parent value, 2^s
    entries) sums its entries' counts; the top layer is one band.
    """
    below = [tuple(int(c == k) for k in range(4)) for c in range(4)]
    width = CLASS_BITS
    for layer, lut in zip(reversed(lutset.spec.layers), reversed(lutset.luts)):
        mask = (1 << width) - 1
        shifts = range(0, layer.out_bits, width)
        entries = [[sum(below[(e >> shift) & mask][k] for shift in shifts) for k in range(4)] for e in lut.entries]
        band = 1 << layer.info_bits
        below = [tuple(map(sum, zip(*entries[b : b + band]))) for b in range(0, len(entries), band)]
        width = layer.parent_bits
    (top,) = below
    return tuple(n / sum(top) for n in top)


@pytest.fixture(scope="module")
def wide_lutset():
    return synthesize_tree(validate_tree(WIDE_ROWS, 8, 4))


@pytest.mark.parametrize("fixture", ALL_TREES + ["wide_lutset"])
def test_exact_pmf_equals_bottom_up_band_counts(fixture, request):
    lutset = request.getfixturevalue(fixture)
    assert exact_class_pmf(lutset) == bottom_up_class_pmf(lutset)


def test_exact_pmf_uniform_for_keep_all_table(keepall_lutset):
    pmf = exact_class_pmf(keepall_lutset)
    assert pmf == (0.25, 0.25, 0.25, 0.25)


# chain has an s = 0 layer, single and keepall one layer, split_s mixed s,
# and wide_chain a 9-bit parent field.
@pytest.mark.parametrize(
    "fixture",
    [
        "tree2_lutset",
        "tree3_lutset",
        "chain_lutset",
        "single_lutset",
        "keepall_lutset",
        "split_s_lutset",
        "wide_chain_lutset",
    ],
)
def test_exact_pmf_matches_codebook_average(fixture, request):
    lutset = request.getfixturevalue(fixture)
    dp = exact_class_pmf(lutset)
    brute = brute_force_class_pmf(lutset)
    assert all(abs(a - b) <= 1e-12 for a, b in zip(dp, brute))
    assert abs(sum(dp) - 1.0) <= 1e-12


def test_exact_pmf_full_tree_frozen_values(full_lutset):
    pmf = exact_class_pmf(full_lutset)
    assert all(abs(a - b) <= 1e-12 for a, b in zip(pmf, FULL_TREE_CLASS_PMF))
    assert abs(sum(pmf) - 1.0) <= 1e-12


def test_exact_pmf_agrees_with_top_band_energy(full_lutset):
    # The top band mean is the expected word energy, so dividing by the
    # symbol count must reproduce the pmf's mean class energy.
    pmf = exact_class_pmf(full_lutset)
    mean_from_pmf = sum(p * e for p, e in zip(pmf, CLASS_ENERGIES))
    top_mean = full_lutset.luts[0].band_energy[0] / full_lutset.spec.n_pam
    assert abs(mean_from_pmf - top_mean) <= 1e-9


def test_monte_carlo_deterministic(tree3_lutset):
    a = monte_carlo_pmf(tree3_lutset, 25, seed=7)
    b = monte_carlo_pmf(tree3_lutset, 25, seed=7)
    assert a == b
    c = monte_carlo_pmf(tree3_lutset, 25, seed=8)
    assert c != a


def test_monte_carlo_single_word(tree3_lutset):
    pmf, stderr = monte_carlo_pmf(tree3_lutset, 1, seed=3)
    assert stderr == (0.0, 0.0, 0.0, 0.0)
    assert abs(sum(pmf) - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        monte_carlo_pmf(tree3_lutset, 0)


# monte_carlo_pmf's results to the last bit, as one per-word encode after
# another gave them; the sampled words and the summation order are fixed.
PINNED_SAMPLES = [
    ("full_lutset", 800, 41, (
        (0.47486718750000007, 0.33624609375, 0.15277734375000016, 0.03610937499999999),
        (0.0007721481197941166, 0.0009835798698633635, 0.0005997406011683139, 0.0002760982370934969),
    )),
    ("tree3_lutset", 25, 7, (
        (0.505, 0.425, 0.07, 0.0),
        (0.028394541729001358, 0.03061862178478975, 0.012665570127975553, 0.0),
    )),
    ("full_lutset", 1000, None, (
        (0.47511249999999966, 0.3362749999999999, 0.15215937500000004, 0.03645312500000003),
        (0.0006691043785687989, 0.000839238275690215, 0.0005227958427795785, 0.0002462806529539066),
    )),
    ("full_lutset", 1, 3, ((0.4875, 0.30625, 0.171875, 0.034375), (0.0, 0.0, 0.0, 0.0))),
    ("full_lutset", 10000, 12345, (
        (0.4761009374999989, 0.33538218750000076, 0.1519796874999999, 0.03653718749999995),
        (0.00021076528507819016, 0.0002639275832582781, 0.00016531626971024864, 7.783317201227252e-05),
    )),
]


@pytest.mark.parametrize("fixture, n_words, seed, expected", PINNED_SAMPLES)
def test_monte_carlo_pinned(request, fixture, n_words, seed, expected):
    lutset = request.getfixturevalue(fixture)
    args = (n_words,) if seed is None else (n_words, seed)
    assert monte_carlo_pmf(lutset, *args) == expected


def test_monte_carlo_tracks_exact(full_lutset):
    exact = exact_class_pmf(full_lutset)
    estimate, stderr = monte_carlo_pmf(full_lutset, 800, seed=41)
    for p, q, s in zip(exact, estimate, stderr):
        assert s > 0
        assert abs(p - q) <= 4 * s


# --- derived statistics -------------------------------------------------------


def test_uniform_anchor_is_exactly_zero_gain():
    report = stats_from_pmf([0.25, 0.25, 0.25, 0.25], n_info=640, n_pam=320)
    assert report.energy == 170.0
    assert report.two_h == 8.0
    assert report.beta == 8.0
    assert report.r_loss == 0.0
    assert report.gain_db == 0.0
    assert (2**8 - 1) * 2**2 == 6 * 170


def test_ccdm_column_statistics():
    code = CcdmCode(Composition((157, 104, 46, 13)), 507)
    report = stats_for_ccdm(code)
    assert report.p_abs[0] == 157 / 640
    assert abs(report.energy - 74.00) <= 0.02
    assert abs(report.two_h - 7.242) <= 0.002
    assert abs(report.beta - 7.16875) <= 1e-12
    assert abs(report.r_loss - 0.073) <= 0.002
    assert abs(report.gain_db - 1.097) <= 0.005


def test_mb_column_statistics():
    report = stats_for_mb(mb_fit(7.169))
    assert abs(report.energy - 68.31) <= 0.02
    assert abs(report.gain_db - 1.444) <= 0.005
    assert report.r_loss == 0.0  # beta defaults to the entropy itself


@pytest.mark.parametrize("target", [2.001, 2 + 1e-8])
def test_mb_fit_near_the_lower_end(target):
    # 2H(X) at lam = 1 is still above these targets, so the bracket's upper
    # end doubles before the bisection starts.
    dist = mb_fit(target)
    assert dist.lam > 1.0
    assert abs(qam_entropy(dist.p_abs) - target) <= 1e-9


def test_class_pmf_expands_to_equal_pair_members():
    report = stats_from_pmf([0.4, 0.3, 0.2, 0.1])
    assert report.p_abs == (0.2, 0.2, 0.15, 0.15, 0.1, 0.1, 0.05, 0.05)


def test_amplitude_pmf_taken_as_is():
    p_abs = (0.2628, 0.2355, 0.1891, 0.1360, 0.0877, 0.0506, 0.0262, 0.0121)
    report = stats_from_pmf(p_abs)
    assert report.p_abs == p_abs
    assert abs(report.two_h - 2 * (entropy_bits(p_abs) + 1)) <= 1e-15


def test_stats_input_validation():
    with pytest.raises(ValueError):
        stats_from_pmf([0.5, 0.6])  # wrong length and bad sum
    with pytest.raises(ValueError):
        stats_from_pmf([0.5, 0.5, 0.25, -0.25])
    with pytest.raises(ValueError):
        stats_from_pmf([0.2] * 5)  # 5 entries fit neither shape
    # NaN entries fail the pmf check instead of reaching the statistics.
    for pmf in ([math.nan] * 4, [math.nan, 0.5, 0.25, 0.25], [0.5, 0.5, 0.0, math.nan], [math.nan] * 8):
        with pytest.raises(ValueError, match="pmf"):
            stats_from_pmf(pmf)
    with pytest.raises(ValueError):
        stats_from_pmf([0.25] * 4, n_info=100)  # n_pam missing


def test_rate_loss_nonnegative_everywhere(full_lutset):
    code = CcdmCode(Composition((157, 104, 46, 13)), 507)
    for report in (
        stats_for_lutset(full_lutset),
        stats_for_ccdm(code),
        stats_for_mb(mb_fit(7.169)),
    ):
        assert report.r_loss >= 0.0


def test_ccdm_pmf_is_counts_over_n_exactly():
    code = CcdmCode(Composition((157, 104, 46, 13)), 507)
    report = stats_for_ccdm(code)
    for i, c in enumerate((157, 104, 46, 13)):
        assert report.p_abs[2 * i] == c / 320 / 2
        assert report.p_abs[2 * i + 1] == c / 320 / 2


# --- reports -------------------------------------------------------------------


def test_comparison_report_columns(full_lutset):
    code = CcdmCode(Composition((157, 104, 46, 13)), 507)
    reports = comparison_report(full_lutset, code, 7.169)
    assert list(reports) == ["ccdm", "hidm", "mb"]
    assert abs(reports["mb"].two_h - 7.169) <= 1e-9
    # default target: compare at the tree's own rate
    defaulted = comparison_report(full_lutset, code)
    assert abs(defaulted["mb"].two_h - 7.16875) <= 1e-9


def test_render_text_deterministic_and_complete(full_lutset):
    code = CcdmCode(Composition((157, 104, 46, 13)), 507)
    reports = comparison_report(full_lutset, code, 7.169)
    text = render_text(reports)
    assert text == render_text(comparison_report(full_lutset, code, 7.169))
    for label in ("P|X|(1)", "P|X|(15)", "E", "2H(X)", "beta", "R_loss", "G (dB)"):
        assert label in text
    # deltas against the shipped reference stay tiny
    assert "(+0.0003)" in text


def test_render_csv_parses_back(full_lutset):
    code = CcdmCode(Composition((157, 104, 46, 13)), 507)
    reports = comparison_report(full_lutset, code, 7.169)
    rows = list(csv.DictReader(io.StringIO(render_csv(reports))))
    assert [r["signal"] for r in rows] == ["ccdm", "hidm", "mb"]
    hidm = next(r for r in rows if r["signal"] == "hidm")
    assert math.isclose(float(hidm["energy"]), reports["hidm"].energy)
    assert math.isclose(float(hidm["p_abs_15"]), reports["hidm"].p_abs[7])


def test_report_beta_matches_word_sizes(full_lutset):
    report = stats_for_lutset(full_lutset)
    assert abs(report.beta - 2 * (2 + 507 / 320)) <= 1e-12
