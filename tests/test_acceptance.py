"""Acceptance suite: each test checks one shipping criterion at its stated
tolerance and prints a PASS/FAIL line (run with -s to see them all)."""

import math
import random
import time

from dmkit import (
    BITS_PER_QAM,
    SHAPED_BITS_PER_QAM,
    BitWord,
    CcdmCode,
    CLASS_ENERGIES,
    Composition,
    ccdm_decode,
    ccdm_encode,
    decode,
    encode,
    exact_class_pmf,
    load_config,
    builtin_config_path,
    mb_fit,
    monte_carlo_pmf,
    rank,
    stats_for_ccdm,
    stats_for_lutset,
    stats_for_mb,
    stats_from_pmf,
    synthesize_tree,
    unrank,
    validate_tree,
)
from conftest import TREE2_ROWS, TREE3_ROWS
from test_stats import brute_force_class_pmf
from test_synthesis import oracle_bands, oracle_leaf, oracle_parent

FULL_COUNTS = (157, 104, 46, 13)

REFERENCE_CCDM_P = (0.2453, 0.2453, 0.1625, 0.1625, 0.0719, 0.0719, 0.0203, 0.0203)
REFERENCE_HIDM_P = (0.2376, 0.2376, 0.1684, 0.1684, 0.0757, 0.0757, 0.0183, 0.0183)
REFERENCE_MB_P = (0.2628, 0.2355, 0.1891, 0.1360, 0.0877, 0.0506, 0.0262, 0.0121)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"\nacceptance {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_config_reproduction():
    start = time.perf_counter()
    cfg = load_config(builtin_config_path())
    spec = cfg.spec
    beta = 2 * ((BITS_PER_QAM - SHAPED_BITS_PER_QAM) / 2 + spec.n_info / spec.n_pam)
    elapsed = time.perf_counter() - start
    ok = (
        spec.n_info == 507
        and spec.n_out == 640
        and spec.n_pam == 320
        and abs(beta - 7.169) <= 0.0005
        and elapsed < 1.0
    )
    _verdict(
        "1 config-reproduction",
        ok,
        f"n_info={spec.n_info} n_out={spec.n_out} n_pam={spec.n_pam} beta={beta:.5f} ({elapsed:.2f}s)",
    )


def test_criterion_2_ccdm_column():
    start = time.perf_counter()
    report = stats_for_ccdm(CcdmCode(Composition(FULL_COUNTS), 507))
    elapsed = time.perf_counter() - start
    p_err = max(abs(a - b) for a, b in zip(report.p_abs, REFERENCE_CCDM_P))
    ok = (
        p_err <= 0.0005
        and abs(report.energy - 74.00) <= 0.02
        and abs(report.two_h - 7.242) <= 0.002
        and abs(report.r_loss - 0.073) <= 0.002
        and abs(report.gain_db - 1.097) <= 0.005
        and elapsed < 1.0
    )
    _verdict(
        "2 ccdm-column",
        ok,
        f"max|dP|={p_err:.5f} E={report.energy:.3f} 2H={report.two_h:.4f} "
        f"R_loss={report.r_loss:.4f} G={report.gain_db:.4f} ({elapsed:.2f}s)",
    )


def test_criterion_3_mb_column():
    start = time.perf_counter()
    dist = mb_fit(7.169)
    report = stats_for_mb(dist)
    elapsed = time.perf_counter() - start
    p_err = max(abs(a - b) for a, b in zip(dist.p_abs, REFERENCE_MB_P))
    ok = (
        p_err <= 0.0005
        and abs(report.energy - 68.31) <= 0.02
        and abs(report.gain_db - 1.444) <= 0.005
        and elapsed < 1.0
    )
    _verdict(
        "3 mb-column",
        ok,
        f"max|dP|={p_err:.5f} E={report.energy:.3f} G={report.gain_db:.4f} ({elapsed:.2f}s)",
    )


def test_criterion_4_tree_column():
    start = time.perf_counter()
    cfg = load_config(builtin_config_path())
    lutset = synthesize_tree(cfg.spec)
    report = stats_for_lutset(lutset)
    mb_gain = stats_for_mb(mb_fit(7.169)).gain_db
    elapsed = time.perf_counter() - start
    p_err = max(abs(a - b) for a, b in zip(report.p_abs, REFERENCE_HIDM_P))
    gap = mb_gain - report.gain_db
    ok = (
        p_err <= 0.003
        and abs(report.energy - 74.70) <= 0.5
        and abs(report.two_h - 7.252) <= 0.01
        and abs(report.r_loss - 0.083) <= 0.01
        and abs(report.gain_db - 1.056) <= 0.05
        and gap < 0.4
        and elapsed < 30.0
    )
    _verdict(
        "4 tree-column",
        ok,
        f"max|dP|={p_err:.5f} E={report.energy:.3f} 2H={report.two_h:.4f} "
        f"R_loss={report.r_loss:.4f} G={report.gain_db:.4f} mb_gap={gap:.4f} ({elapsed:.1f}s)",
    )


def test_criterion_5_roundtrip(full_lutset):
    start = time.perf_counter()
    spec = full_lutset.spec
    rng = random.Random(20240)
    failures = 0
    for _ in range(10_000):
        word = BitWord(rng.getrandbits(spec.n_info), spec.n_info)
        if decode(full_lutset, encode(full_lutset, word)) != word:
            failures += 1
    exhaustive_words = 0
    for rows in (TREE2_ROWS, TREE3_ROWS):
        toy_spec = validate_tree(rows, 8, 4)
        assert toy_spec.n_info <= 16
        toy = synthesize_tree(toy_spec)
        for value in range(1 << toy_spec.n_info):
            word = BitWord(value, toy_spec.n_info)
            if decode(toy, encode(toy, word)) != word:
                failures += 1
            exhaustive_words += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    _verdict(
        "5 roundtrip",
        ok,
        f"10000 random + {exhaustive_words} exhaustive words, {failures} failures ({elapsed:.1f}s)",
    )


def test_criterion_6_oracle_equivalence():
    mismatches = 0
    for rows in (TREE2_ROWS, TREE3_ROWS):
        spec = validate_tree(rows, 8, 4)
        lutset = synthesize_tree(spec)
        scored = oracle_leaf(spec.leaf.in_bits, spec.leaf.out_bits, CLASS_ENERGIES)
        bands = oracle_bands(scored, spec.leaf.parent_bits, spec.leaf.info_bits)
        if list(lutset.luts[-1].entries) != [w for _, w in scored]:
            mismatches += 1
        for layer_index in range(2, spec.depth + 1):
            layer = spec.layers[spec.depth - layer_index]
            child = spec.layers[spec.depth - layer_index + 1]
            scored = oracle_parent(layer.in_bits, layer.out_bits, child.parent_bits, bands)
            bands = oracle_bands(scored, layer.parent_bits, layer.info_bits)
            if list(lutset.luts[spec.depth - layer_index].entries) != [w for _, w in scored]:
                mismatches += 1
        dp = exact_class_pmf(lutset)
        brute = brute_force_class_pmf(lutset)
        if any(abs(a - b) > 1e-12 for a, b in zip(dp, brute)):
            mismatches += 1
    _verdict("6 oracle-equivalence", mismatches == 0, f"{mismatches} mismatches")


def test_criterion_7_ccdm_properties():
    code = CcdmCode(Composition(FULL_COUNTS), 507)
    rng = random.Random(31337)
    bad_compositions = 0
    for _ in range(1000):
        word = BitWord(rng.getrandbits(507), 507)
        seq = ccdm_encode(code, word)
        if tuple(seq.count(c) for c in range(4)) != FULL_COUNTS:
            bad_compositions += 1
        if ccdm_decode(code, seq) != word:
            bad_compositions += 1

    # Bijection check over every composition of up to 10 symbols in up to 4
    # classes whose codebook has at most 10^4 words: every index of the 737
    # codebooks of at most 10^3 words, and the first, the last and every
    # 97th index of the 225 larger ones. test_ccdm.py's rank/unrank property,
    # reference, ordering and brute-force tests cover the indices in between.
    mismatches = 0
    checked = 0
    for n in range(1, 11):
        for c0 in range(n + 1):
            for c1 in range(n - c0 + 1):
                for c2 in range(n - c0 - c1 + 1):
                    comp = Composition((c0, c1, c2, n - c0 - c1 - c2))
                    total = comp.size
                    if total > 10_000:
                        continue
                    checked += 1
                    indices = range(total) if total <= 1_000 else [*range(0, total, 97), total - 1]
                    for i in indices:
                        if rank(unrank(comp, i)) != i:
                            mismatches += 1

    count = Composition(FULL_COUNTS).size
    by_factorials = math.factorial(320)
    for c in FULL_COUNTS:
        by_factorials //= math.factorial(c)
    capacity_ok = count == by_factorials and count.bit_length() - 1 >= 507

    ok = bad_compositions == 0 and mismatches == 0 and capacity_ok
    _verdict(
        "7 ccdm-properties",
        ok,
        f"1000 words exact-composition, {checked} compositions bijective, "
        f"floor(log2)={count.bit_length() - 1}",
    )


def test_criterion_8_zero_gain_anchor():
    report = stats_from_pmf([0.25, 0.25, 0.25, 0.25], n_info=640, n_pam=320)
    identity = (2**8 - 1) * 2**2 == 6 * 170
    ok = report.gain_db == 0.0 and report.r_loss == 0.0 and identity
    _verdict(
        "8 zero-gain-anchor",
        ok,
        f"G={report.gain_db!r} R_loss={report.r_loss!r} closed-form={identity}",
    )


def test_criterion_9_sampled_vs_exact(full_lutset):
    exact = exact_class_pmf(full_lutset)
    estimate, stderr = monte_carlo_pmf(full_lutset, 10_000, seed=12345)
    worst = 0.0
    ok = True
    for p, q, s in zip(exact, estimate, stderr):
        sigmas = abs(p - q) / s if s > 0 else math.inf
        worst = max(worst, sigmas)
        if sigmas > 4.0:
            ok = False
    _verdict("9 sampled-vs-exact", ok, f"worst deviation {worst:.2f} sigma over 10000 words")
