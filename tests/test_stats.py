import itertools
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rulemix import WilcoxonResult, wilcoxon_signed_rank
from rulemix.errors import DegenerateTestError
from rulemix.stats import EXACT_MAX_N, _average_ranks


def brute_force_p(a, b):
    """Literal enumeration of every sign assignment.

    Ranks come from scipy, the tails from explicitly walking all 2^m
    sign vectors; no symmetry of the null distribution is assumed.
    """
    differences = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    differences = differences[differences != 0.0]
    ranks = scipy.stats.rankdata(np.abs(differences))
    positive = float(ranks[differences > 0].sum())
    negative = float(ranks[differences < 0].sum())
    statistic = min(positive, negative)
    total = float(ranks.sum())
    m = len(ranks)
    hits = 0
    for signs in itertools.product((0.0, 1.0), repeat=m):
        w_plus = float(np.dot(signs, ranks))
        if w_plus <= statistic or w_plus >= total - statistic:
            hits += 1
    return statistic, min(1.0, hits / 2.0**m)


def sample_pairs(seed, n, tie_prob=0.3, zero_prob=0.15):
    gen = np.random.default_rng(seed)
    a = gen.normal(size=n)
    shift = gen.normal(scale=0.5)
    b = a + shift + gen.normal(scale=0.8, size=n)
    # quantize some differences so tied absolute values appear
    if gen.random() < tie_prob:
        b = a + np.round((b - a) * 4) / 4
    # plant exact zero differences
    zero_mask = gen.random(n) < zero_prob
    b[zero_mask] = a[zero_mask]
    if np.all(a - b == 0.0):
        b[0] = a[0] + 1.0
    return a, b


class TestExactBranch:
    def test_matches_enumeration_on_many_samples(self):
        checked = 0
        seed = 0
        while checked < 40:
            n = 5 + (checked % 8)
            a, b = sample_pairs(seed, n)
            seed += 1
            if np.count_nonzero(a - b) == 0:
                continue
            expected_stat, expected_p = brute_force_p(a, b)
            result = wilcoxon_signed_rank(a, b)
            assert result.statistic == expected_stat
            assert abs(result.p_value - expected_p) <= 1e-10
            checked += 1

    def test_textbook_case_no_ties(self):
        # all differences positive, n = 6: statistic 0, p = 2/2^6
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        b = a - np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
        result = wilcoxon_signed_rank(a, b)
        assert result.statistic == 0.0
        assert result.p_value == pytest.approx(2.0 / 64.0, abs=1e-15)

    def test_agrees_with_scipy_exact_when_tie_free(self):
        gen = np.random.default_rng(123)
        for _ in range(20):
            n = int(gen.integers(6, 15))
            a = gen.normal(size=n)
            b = a + gen.normal(scale=0.7, size=n) + 0.3
            d = a - b
            if len(np.unique(np.abs(d))) != n or np.any(d == 0.0):
                continue  # scipy's exact mode refuses ties and zeros
            ours = wilcoxon_signed_rank(a, b)
            ref = scipy.stats.wilcoxon(a, b, alternative="two-sided", method="exact")
            assert ours.statistic == ref.statistic
            assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-12)

    def test_balanced_statistic_caps_at_one(self):
        # W+ = W-: both tails overlap at the centre, the cap kicks in
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        b = np.array([0.0, 3.0, 2.0, 5.0, 4.0, 7.0])
        result = wilcoxon_signed_rank(a, b)
        assert result.p_value == 1.0


class TestNormalBranch:
    def test_agrees_with_scipy_approx(self):
        gen = np.random.default_rng(7)
        for _ in range(10):
            n = int(gen.integers(EXACT_MAX_N + 5, 80))
            a = gen.normal(size=n)
            b = a + 0.4 + gen.normal(scale=1.0, size=n)
            if np.any(a - b == 0.0):
                continue
            ours = wilcoxon_signed_rank(a, b)
            ref = scipy.stats.wilcoxon(a, b, alternative="two-sided", method="approx", correction=True)
            assert ours.statistic == ref.statistic
            assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-9)

    def test_tie_corrected_variance_matches_scipy(self):
        gen = np.random.default_rng(8)
        n = 40
        a = gen.normal(size=n)
        b = a + np.round(gen.normal(scale=1.0, size=n) * 2) / 2
        mask = a - b != 0.0
        a, b = a[mask], b[mask]
        assert len(a) > EXACT_MAX_N
        ours = wilcoxon_signed_rank(a, b)
        ref = scipy.stats.wilcoxon(a, b, alternative="two-sided", method="approx", correction=True)
        assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-9)

    def test_exact_and_normal_agree_reasonably_at_the_boundary(self):
        # moderate effect: the approximation is only trustworthy away
        # from the far tails, so aim for p around 0.05 to 0.5
        gen = np.random.default_rng(9)
        a = gen.normal(size=EXACT_MAX_N)
        b = a + 0.2 + gen.normal(scale=0.8, size=EXACT_MAX_N)
        exact = wilcoxon_signed_rank(a, b)
        from rulemix.stats import _normal_two_sided_p

        d = a - b
        d = d[d != 0]
        ranks = _average_ranks(np.abs(d))
        approx_p = _normal_two_sided_p(ranks, exact.statistic)
        assert 0.01 < exact.p_value < 0.9
        assert approx_p == pytest.approx(exact.p_value, rel=0.2)


class TestInterface:
    def test_result_is_a_two_tuple(self):
        result = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 1.0, 2.0, 3.0, 4.0])
        assert isinstance(result, WilcoxonResult)
        statistic, p_value = result
        assert statistic == result.statistic
        assert p_value == result.p_value

    def test_zero_differences_dropped(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        b = np.array([1.0, 2.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        result = wilcoxon_signed_rank(a, b)
        # five non-zero differences remain, all positive
        assert result.statistic == 0.0
        assert result.p_value == pytest.approx(2.0 / 32.0, abs=1e-15)

    def test_all_zero_differences(self):
        x = np.arange(5, dtype=float)
        with pytest.raises(DegenerateTestError):
            wilcoxon_signed_rank(x, x)

    def test_too_few_pairs(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0] * 5, [1.0] * 6)

    def test_non_finite_rejected(self):
        a = [1.0, 2.0, 3.0, 4.0, float("nan")]
        with pytest.raises(ValueError):
            wilcoxon_signed_rank(a, [0.0] * 5)

    def test_statistic_symmetric_in_argument_order(self):
        gen = np.random.default_rng(10)
        a = gen.normal(size=12)
        b = a + gen.normal(scale=0.5, size=12)
        r1 = wilcoxon_signed_rank(a, b)
        r2 = wilcoxon_signed_rank(b, a)
        assert r1.statistic == r2.statistic
        assert r1.p_value == r2.p_value


# a few distinct magnitudes, so that most draws hold ties
TIED = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0]), st.floats(0.0, 1e300, exclude_min=True))


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.integers(1, 60), elements=TIED))
def test_average_ranks_equal_scipy_rankdata(values):
    """Ties share the mean of their positions, as rankdata(method="average") gives them, bit for bit."""
    assert _average_ranks(values).tobytes() == scipy.stats.rankdata(values, method="average").tobytes()
