import pytest

from dmkit import mb_distribution, mb_fit, stats_for_mb

PUBLISHED_MB_PMF = (0.2628, 0.2355, 0.1891, 0.1360, 0.0877, 0.0506, 0.0262, 0.0121)


def test_fit_published_column():
    dist = mb_fit(7.169)
    report = stats_for_mb(dist)
    assert abs(report.two_h - 7.169) <= 1e-9
    for got, want in zip(dist.p_abs, PUBLISHED_MB_PMF):
        assert abs(got - want) <= 5e-4
    assert abs(report.energy - 68.31) <= 0.02


def test_zero_rate_parameter_is_uniform():
    dist = mb_distribution(0.0)
    assert all(abs(p - 0.125) < 1e-15 for p in dist.p_abs)
    assert stats_for_mb(dist).two_h == 8.0
    assert stats_for_mb(dist).energy == 170.0


def test_fit_at_the_uniform_end():
    dist = mb_fit(8.0)
    assert dist.lam == 0.0
    assert stats_for_mb(dist).energy == 170.0


def test_fit_near_the_degenerate_end():
    dist = mb_fit(2.02)
    assert dist.p_abs[0] > 0.99
    assert stats_for_mb(dist).energy < 2.5


def test_fit_rejects_out_of_range_targets():
    with pytest.raises(ValueError):
        mb_fit(2.0)
    with pytest.raises(ValueError):
        mb_fit(8.01)
    with pytest.raises(ValueError):
        mb_fit(-1.0)


def test_distribution_rejects_negative_rate():
    with pytest.raises(ValueError):
        mb_distribution(-0.1)


def test_normalization():
    for lam in (0.0, 0.01, 0.1, 1.0, 10.0):
        dist = mb_distribution(lam)
        assert abs(sum(dist.p_abs) - 1.0) <= 1e-12


def test_entropy_and_energy_strictly_decreasing():
    grid = [0.001 * i for i in range(0, 200, 5)]
    reports = [stats_for_mb(mb_distribution(lam)) for lam in grid]
    for a, b in zip(reports, reports[1:]):
        assert b.two_h < a.two_h
        assert b.energy < a.energy


def test_convergence_across_the_range():
    for i in range(1, 120):
        target = 2.0 + (8.0 - 2.0) * i / 120
        dist = mb_fit(target)  # raises if 200 bisection steps are not enough
        assert abs(stats_for_mb(dist).two_h - target) <= 1e-9

