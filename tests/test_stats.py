"""Wilson score interval tests."""

import math
import random

import numpy as np
import pytest

from pivotgrasp.stats import TrialRecord, batch_ci, wilson_ci


def score_equation_residual(p_hat: float, n: int, z: float, p: float) -> float:
    """Defining equation of the interval endpoints: |p_hat - p| = z*sqrt(p(1-p)/n)."""
    return abs(p_hat - p) - z * math.sqrt(p * (1.0 - p) / n)


class TestWilsonCi:
    def test_perfect_score(self):
        ci = wilson_ci(TrialRecord(10, 10))
        assert ci.lower == pytest.approx(0.7224598312333834, abs=1e-12)
        assert ci.upper == 1.0

    def test_nine_of_ten(self):
        ci = wilson_ci(TrialRecord(9, 10))
        assert ci.lower == pytest.approx(0.5958436145024278, abs=1e-12)
        assert ci.upper == pytest.approx(0.9821242504842788, abs=1e-12)

    def test_eight_of_ten(self):
        ci = wilson_ci(TrialRecord(8, 10))
        assert ci.lower == pytest.approx(0.49015684672072335, abs=1e-12)
        assert ci.upper == pytest.approx(0.9433190520193067, abs=1e-12)

    def test_three_of_ten(self):
        ci = wilson_ci(TrialRecord(3, 10))
        assert ci.lower == pytest.approx(0.10778928748621183, abs=1e-12)
        assert ci.upper == pytest.approx(0.6032267800204347, abs=1e-12)

    def test_zero_successes_lower_is_exactly_zero(self):
        for n in (1, 5, 10, 50):
            assert wilson_ci(TrialRecord(0, n)).lower == 0.0

    def test_full_successes_upper_is_exactly_one(self):
        for n in (1, 5, 10, 50):
            assert wilson_ci(TrialRecord(n, n)).upper == 1.0

    def test_endpoints_satisfy_score_equation(self):
        # Independent check: the unclamped endpoints are exactly the roots of
        # the score test |p_hat - p| = z*sqrt(p(1-p)/n).
        rng = random.Random(9)
        for _ in range(200):
            n = rng.randint(1, 200)
            k = rng.randint(0, n)
            z = rng.choice([1.0, 1.64, 1.96, 2.58])
            ci = wilson_ci(TrialRecord(k, n, z=z))
            for p in (ci.lower, ci.upper):
                assert abs(score_equation_residual(k / n, n, z, p)) < 1e-9

    def test_symmetry(self):
        for n in (3, 10, 37):
            for k in range(n + 1):
                a = wilson_ci(TrialRecord(k, n))
                b = wilson_ci(TrialRecord(n - k, n))
                assert a.lower == pytest.approx(1.0 - b.upper, abs=1e-12)

    def test_width_shrinks_with_sample_size(self):
        for p_hat in (0.5, 0.8):
            widths = []
            for n in (10, 40, 160):
                k = round(p_hat * n)
                ci = wilson_ci(TrialRecord(k, n))
                widths.append(ci.upper - ci.lower)
            assert widths[0] > widths[1] > widths[2]

    def test_containment(self):
        rng = random.Random(21)
        for _ in range(200):
            n = rng.randint(1, 100)
            k = rng.randint(0, n)
            ci = wilson_ci(TrialRecord(k, n))
            assert 0.0 <= ci.lower <= k / n <= ci.upper <= 1.0

    def test_record_validation(self):
        with pytest.raises(ValueError):
            TrialRecord(1, 0)
        with pytest.raises(ValueError):
            TrialRecord(11, 10)
        with pytest.raises(ValueError):
            TrialRecord(-1, 10)
        with pytest.raises(ValueError):
            TrialRecord(5, 10, z=0.0)

    def test_counts_must_be_integers(self):
        # 9.5 successes would construct, and infinite trials would give [0, 0]
        for successes, trials, field in (
            (9.5, 10, "successes"), (5, math.inf, "trials"), (5, 10.0, "trials"), (True, 10, "successes"),
        ):
            with pytest.raises(ValueError, match=field):
                TrialRecord(successes, trials)
        assert wilson_ci(TrialRecord(np.int64(9), np.int32(10))) == wilson_ci(TrialRecord(9, 10))


class TestBatchCi:
    def test_order_and_names_preserved(self):
        records = [
            TrialRecord(10, 10, name="first"),
            TrialRecord(3, 10, name="second"),
        ]
        out = batch_ci(records)
        assert [name for name, _ in out] == ["first", "second"]
        assert out[0][1] == wilson_ci(records[0])

    def test_empty(self):
        assert batch_ci([]) == []

    def test_duplicates_give_identical_outputs(self):
        rec = TrialRecord(7, 9, name="dup")
        out = batch_ci([rec, rec])
        assert out[0] == out[1]
