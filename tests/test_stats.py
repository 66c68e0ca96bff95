"""Tests for the t-test and incomplete beta implementation.

The p-value route under test is the continued-fraction incomplete beta;
the oracle route is high-precision numeric integration of the t density
(tests/oracle_stats.py). scipy, where available, is a second cross-check.
"""

import math
import random

import pytest

from abcd_eval.stats import (
    DegenerateInputError,
    regularized_incomplete_beta,
    two_sided_p_value,
    welch_t_test,
)
from oracle_stats import reference_welch, two_sided_p


def random_fixture(seed):
    rng = random.Random(seed)
    n1 = rng.randint(3, 30)
    n2 = rng.randint(3, 30)
    xs = [rng.gauss(0.6, 0.25) for _ in range(n1)]
    ys = [rng.gauss(0.4, 0.3) for _ in range(n2)]
    return xs, ys


class TestWelchAgainstOracle:
    def test_twenty_seeded_fixtures_within_1e9(self):
        for seed in range(20):
            xs, ys = random_fixture(seed)
            result = welch_t_test(xs, ys)
            t_ref, df_ref, p_ref = reference_welch(xs, ys)
            assert result.t_stat == pytest.approx(t_ref, abs=1e-9)
            assert result.degrees_freedom == pytest.approx(df_ref, abs=1e-9)
            assert result.p_value == pytest.approx(p_ref, abs=1e-9)

    def test_hand_fixture(self):
        # Same spacing shifted by one: t = -1 exactly, df = 8 exactly.
        result = welch_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
        assert result.t_stat == pytest.approx(-1.0, abs=1e-12)
        assert result.degrees_freedom == pytest.approx(8.0, abs=1e-12)
        assert result.p_value == pytest.approx(0.3466, abs=1e-4)
        assert result.p_value == pytest.approx(
            two_sided_p(-1.0, 8.0), abs=1e-12
        )

    def test_scipy_cross_check(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for seed in (101, 202, 303):
            xs, ys = random_fixture(seed)
            ours = welch_t_test(xs, ys)
            theirs = scipy_stats.ttest_ind(xs, ys, equal_var=False)
            assert ours.t_stat == pytest.approx(theirs.statistic, abs=1e-10)
            assert ours.p_value == pytest.approx(theirs.pvalue, abs=1e-10)


class TestWelchEdges:
    def test_too_small_samples(self):
        with pytest.raises(DegenerateInputError):
            welch_t_test([1.0], [1.0, 2.0])
        with pytest.raises(DegenerateInputError):
            welch_t_test([1.0, 2.0], [])

    def test_both_zero_variance(self):
        with pytest.raises(DegenerateInputError):
            welch_t_test([2.0, 2.0, 2.0], [1.0, 1.0])

    def test_one_zero_variance_is_fine(self):
        result = welch_t_test([1.0, 1.0, 1.0], [0.0, 0.5, 1.0])
        assert math.isfinite(result.t_stat)
        assert 0.0 <= result.p_value <= 1.0

    def test_zero_t_gives_p_one(self):
        result = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.t_stat == 0.0
        assert result.p_value == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_in_sign(self):
        xs, ys = random_fixture(7)
        forward = welch_t_test(xs, ys)
        backward = welch_t_test(ys, xs)
        assert forward.t_stat == pytest.approx(-backward.t_stat, abs=1e-12)
        assert forward.p_value == pytest.approx(backward.p_value, abs=1e-12)


class TestIncompleteBeta:
    def test_bounds(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_symmetry_identity(self):
        # I_x(a, b) + I_{1-x}(b, a) = 1
        for a, b, x in ((0.5, 4.0, 0.3), (3.25, 0.5, 0.77), (5.0, 5.0, 0.5)):
            left = regularized_incomplete_beta(a, b, x)
            right = regularized_incomplete_beta(b, a, 1.0 - x)
            assert left + right == pytest.approx(1.0, abs=1e-12)

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(99)
        for _ in range(25):
            a = rng.uniform(0.25, 40.0)
            b = rng.uniform(0.25, 40.0)
            x = rng.random()
            ref = float(mpmath.betainc(a, b, 0, x, regularized=True))
            assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                ref, abs=1e-12
            )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(-1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 2.0, 1.5)

    def test_p_value_monotone_in_t(self):
        previous = 1.0 + 1e-12
        for t in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
            p = two_sided_p_value(t, 7.3)
            assert p <= previous
            previous = p
