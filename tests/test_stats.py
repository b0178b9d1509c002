import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vdtptune.stats as stats
from vdtptune.stats import (
    EXACT_LIMIT,
    average_ranks,
    friedman_ranks,
    mean,
    summarize,
    wilcoxon_signed_rank,
)


def brute_force_signed_rank_p(a, b):
    """Reference: enumerate all 2^n sign assignments explicitly."""
    diffs = np.asarray(a, float) - np.asarray(b, float)
    diffs = diffs[diffs != 0.0]
    n = len(diffs)
    if n == 0:
        return 1.0
    ranks = average_ranks(np.abs(diffs))
    w_plus = ranks[diffs > 0].sum()
    num_le = num_ge = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for s, r in zip(signs, ranks) if s)
        if w <= w_plus + 1e-12:
            num_le += 1
        if w >= w_plus - 1e-12:
            num_ge += 1
    return min(2 * min(num_le, num_ge), 2**n) / 2**n


# --- summaries ---------------------------------------------------------------


def test_mean_hand_values_and_order():
    terms = [3.0, 1.0, 2.0]
    assert mean(terms) == pytest.approx(2.0)
    assert mean(reversed(terms)) == mean(terms)
    assert mean([7.5]) == 7.5
    # added left to right: 1e16 + 1.0 rounds back to 1e16 (a compensated sum gives 1/3)
    assert mean([1e16, 1.0, -1e16]) == 0.0


def test_mean_rejects_empty():
    with pytest.raises(ValueError):
        mean([])


def test_summarize_hand_values():
    s = summarize([1.0, 2.0, 3.0])
    assert (s.mean, s.std_dev, s.minimum, s.median, s.maximum, s.n) == (2.0, 1.0, 1.0, 2.0, 3.0, 3)


def test_summarize_singleton_and_constant():
    assert summarize([5.0]) == summarize([5.0])
    assert summarize([5.0]).std_dev == 0.0
    c = summarize([2.0, 2.0, 2.0, 2.0])
    assert c.std_dev == 0.0
    assert c.median == 2.0


def test_summarize_even_median():
    assert summarize([1.0, 2.0, 3.0, 10.0]).median == 2.5


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


# --- ranking -----------------------------------------------------------------


def test_average_ranks_plain():
    assert average_ranks([10.0, 30.0, 20.0]).tolist() == [1.0, 3.0, 2.0]


def test_average_ranks_ties():
    assert average_ranks([1.0, 1.0, 2.0]).tolist() == [1.5, 1.5, 3.0]
    assert average_ranks([4.0, 4.0, 4.0]).tolist() == [2.0, 2.0, 2.0]
    assert average_ranks([5.0, 1.0, 5.0, 1.0]).tolist() == [3.5, 1.5, 3.5, 1.5]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=12))
def test_average_ranks_sum_identity(values):
    # ranks always sum to n(n+1)/2 regardless of ties
    n = len(values)
    assert average_ranks(values).sum() == pytest.approx(n * (n + 1) / 2)


# --- signed rank -------------------------------------------------------------


def test_wilcoxon_all_one_sided_n6():
    a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    b = [x + 1.0 for x in a]
    res = wilcoxon_signed_rank(a, b)
    assert res.exact
    assert res.n_effective == 6
    assert res.statistic == 0.0
    assert res.p_value == pytest.approx(2.0 / 64.0)  # 0.03125
    assert res.significant_at_05


def test_wilcoxon_identical_samples():
    res = wilcoxon_signed_rank([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert res.p_value == 1.0
    assert res.n_effective == 0
    assert not res.significant_at_05


def test_wilcoxon_input_validation():
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1.0], [2.0])


def test_wilcoxon_antisymmetric_exact():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.normal(size=8)
        b = rng.normal(size=8)
        r1 = wilcoxon_signed_rank(a, b)
        r2 = wilcoxon_signed_rank(b, a)
        assert r1.p_value == r2.p_value
        assert r1.statistic == r2.statistic


def test_wilcoxon_antisymmetric_approx():
    rng = np.random.default_rng(1)
    a = rng.normal(size=30)
    b = rng.normal(size=30)
    r1 = wilcoxon_signed_rank(a, b)
    r2 = wilcoxon_signed_rank(b, a)
    assert not r1.exact
    assert r1.p_value == r2.p_value


def test_wilcoxon_exact_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        a = np.round(rng.normal(size=n), 1)
        b = np.round(rng.normal(size=n), 1)
        if np.all(a == b):
            continue
        res = wilcoxon_signed_rank(a, b)
        assert res.exact
        assert res.p_value == brute_force_signed_rank_p(a, b)


def test_wilcoxon_approx_close_to_exact_at_limit(monkeypatch):
    rng = np.random.default_rng(3)
    gaps = []
    for _ in range(20):
        a = rng.normal(size=EXACT_LIMIT)
        b = rng.normal(loc=0.3, size=EXACT_LIMIT)
        exact = wilcoxon_signed_rank(a, b)
        assert exact.exact
        monkeypatch.setattr(stats, "EXACT_LIMIT", EXACT_LIMIT - 1)
        approx = wilcoxon_signed_rank(a, b)
        monkeypatch.setattr(stats, "EXACT_LIMIT", EXACT_LIMIT)
        assert not approx.exact
        assert approx.statistic == exact.statistic
        gaps.append(abs(approx.p_value - exact.p_value))
    assert max(gaps) <= 0.02


def test_wilcoxon_handles_tied_magnitudes():
    # |diffs| = 1,1,2,2 -> average ranks 1.5,1.5,3.5,3.5; stays exact
    a = [0.0, 0.0, 0.0, 0.0]
    b = [1.0, -1.0, 2.0, 2.0]
    res = wilcoxon_signed_rank(a, b)
    assert res.exact
    assert res.p_value == brute_force_signed_rank_p(a, b)


def test_wilcoxon_balanced_large_sample_is_p1():
    # signs chosen so W+ equals its null mean (n=15 -> 60): dev = 0 -> p = 1
    plus = {6, 12, 13, 14, 15}
    diffs = [(k if k in plus else -k) / 10.0 for k in range(1, 16)]
    res = wilcoxon_signed_rank(diffs, [0.0] * 15)
    assert not res.exact
    assert res.p_value == 1.0
    assert not res.significant_at_05


def test_wilcoxon_normal_branch_matches_scipy():
    # scipy's normal approximation with tie and continuity corrections is the
    # oracle for the branch paper-scale campaigns (runs > EXACT_LIMIT) take;
    # the two agree to about 4e-15 in p.
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(11)
    for case in range(300):
        n = int(rng.integers(EXACT_LIMIT + 1, 41))
        if case % 2:  # integer-valued pairs: tied magnitudes, no zero differences
            a = rng.integers(0, 10, n).astype(float)
            b = a + rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0], size=n)
        else:
            a, b = rng.normal(size=n), rng.normal(0.3, 1.0, size=n)
        ours = wilcoxon_signed_rank(a, b)
        ref = scipy_stats.wilcoxon(a, b, method="approx", correction=True)
        assert not ours.exact
        assert ours.statistic == ref.statistic
        assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-14)


# --- friedman ----------------------------------------------------------------


def test_friedman_hand_table():
    # 3 treatments, 4 blocks, same order everywhere: ranks 1,2,3 in each block
    m = [[1.0, 2.0, 3.0]] * 4
    table = friedman_ranks(m)
    assert table.mean_ranks == (1.0, 2.0, 3.0)
    assert table.blocks == 4
    # chi2 = 12/(4*3*4) * (4^2 + 8^2 + 12^2) - 3*4*4 = 56 - 48 = 8
    assert table.statistic == pytest.approx(8.0)


def test_friedman_no_difference():
    m = [[1.0, 2.0], [2.0, 1.0]]
    table = friedman_ranks(m)
    assert table.mean_ranks == (1.5, 1.5)
    assert table.statistic == pytest.approx(0.0)


def test_friedman_mean_rank_sum_identity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        b, k = int(rng.integers(2, 8)), int(rng.integers(2, 6))
        m = rng.normal(size=(b, k))
        table = friedman_ranks(m)
        assert sum(table.mean_ranks) == pytest.approx(k * (k + 1) / 2)


def test_friedman_input_validation():
    with pytest.raises(ValueError):
        friedman_ranks([[1.0, 2.0]])
    with pytest.raises(ValueError):
        friedman_ranks([[1.0], [2.0]])
    with pytest.raises(ValueError):
        friedman_ranks([[1.0, 2.0], [1.0, 2.0, 3.0]])


def test_friedman_matches_scipy():
    # friedmanchisquare divides by the tie correction 1 - sum(t^3 - t) / (b k (k^2 - 1));
    # friedman_ranks does not, so on tied blocks scipy's value times that factor is ours.
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(12)
    for case in range(300):
        b, k = int(rng.integers(2, 31)), int(rng.integers(3, 7))
        if case % 2:
            m = rng.integers(0, 3, size=(b, k)).astype(float)
        else:
            m = rng.normal(size=(b, k))
        counts = [np.unique(row, return_counts=True)[1] for row in m]  # tied group sizes per block
        ties = sum(int(np.sum(c**3 - c)) for c in counts)
        factor = 1.0 - ties / (b * k * (k * k - 1))
        if factor == 0.0:  # every block constant: scipy's statistic is undefined
            continue
        ref = scipy_stats.friedmanchisquare(*m.T).statistic
        assert friedman_ranks(m).statistic == pytest.approx(ref * factor, rel=1e-14)
