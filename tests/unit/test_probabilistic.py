"""Unit tests for probabilistic answer formats (Section 6.2.2)."""

import math

import numpy as np
import pytest

from repro.queries.probabilistic import (
    CountAnswer,
    NearestAnswer,
    poisson_binomial_pmf,
)


class TestPoissonBinomial:
    def test_empty(self):
        pmf = poisson_binomial_pmf([])
        assert list(pmf) == [1.0]

    def test_single_trial(self):
        pmf = poisson_binomial_pmf([0.3])
        assert pmf[0] == pytest.approx(0.7)
        assert pmf[1] == pytest.approx(0.3)

    def test_all_certain(self):
        pmf = poisson_binomial_pmf([1.0, 1.0, 1.0])
        assert pmf[3] == pytest.approx(1.0)
        assert pmf[:3] == pytest.approx([0.0, 0.0, 0.0])

    def test_matches_binomial_for_equal_ps(self):
        n, p = 10, 0.4
        pmf = poisson_binomial_pmf([p] * n)
        for k in range(n + 1):
            expected = math.comb(n, k) * p**k * (1 - p) ** (n - k)
            assert pmf[k] == pytest.approx(expected)

    def test_sums_to_one(self, rng):
        for size in (50, 500):
            pmf = poisson_binomial_pmf(list(rng.uniform(0, 1, size=size)))
            assert len(pmf) == size + 1
            assert pmf.sum() == pytest.approx(1.0)

    def test_mean_matches_sum_of_probs(self, rng):
        probs = list(rng.uniform(0, 1, size=30))
        pmf = poisson_binomial_pmf(probs)
        mean = sum(k * p for k, p in enumerate(pmf))
        assert mean == pytest.approx(sum(probs))

    def test_variance_matches_theory(self, rng):
        probs = list(rng.uniform(0, 1, size=30))
        pmf = poisson_binomial_pmf(probs)
        mean = sum(k * p for k, p in enumerate(pmf))
        var = sum((k - mean) ** 2 * p for k, p in enumerate(pmf))
        assert var == pytest.approx(sum(p * (1 - p) for p in probs))

    def test_out_of_range_probability_raises(self):
        with pytest.raises(ValueError):
            poisson_binomial_pmf([0.5, 1.2])
        with pytest.raises(ValueError):
            poisson_binomial_pmf([-0.1])


class TestCountAnswer:
    FIG6A = {"D": 1.0, "A": 0.75, "B": 0.5, "E": 0.2, "F": 0.25}

    def test_figure_6a_expected(self):
        assert CountAnswer(self.FIG6A).expected == pytest.approx(2.7)

    def test_figure_6a_interval(self):
        assert CountAnswer(self.FIG6A).interval == (1, 5)

    def test_pmf_consistent_with_expected(self):
        answer = CountAnswer(self.FIG6A)
        pmf = answer.pmf()
        mean = sum(k * p for k, p in enumerate(pmf))
        assert mean == pytest.approx(answer.expected)

    def test_probability_of_count(self):
        answer = CountAnswer({"a": 0.5})
        assert answer.probability_of_count(0) == pytest.approx(0.5)
        assert answer.probability_of_count(1) == pytest.approx(0.5)
        assert answer.probability_of_count(2) == 0.0
        assert answer.probability_of_count(-1) == 0.0

    def test_most_likely_count(self):
        assert CountAnswer({"a": 0.9, "b": 0.9}).most_likely_count() == 2
        assert CountAnswer({"a": 0.1, "b": 0.1}).most_likely_count() == 0

    def test_variance(self):
        answer = CountAnswer({"a": 0.5, "b": 1.0})
        assert answer.variance() == pytest.approx(0.25)

    def test_empty_answer(self):
        answer = CountAnswer({})
        assert answer.expected == 0.0
        assert answer.interval == (0, 0)
        assert list(answer.pmf()) == [1.0]
        assert len(answer) == 0

    def test_invalid_probability_raises(self):
        with pytest.raises(ValueError):
            CountAnswer({"a": 1.5})


class TestNearestAnswer:
    def test_candidates_excludes_zero_probability(self):
        answer = NearestAnswer({"a": 0.7, "b": 0.3, "c": 0.0})
        assert answer.candidates == {"a", "b"}

    def test_top(self):
        assert NearestAnswer({"a": 0.2, "b": 0.5, "c": 0.3}).top == "b"

    def test_top_of_empty_raises(self):
        with pytest.raises(ValueError):
            NearestAnswer({}).top

    def test_ranked_descending(self):
        ranked = NearestAnswer({"a": 0.2, "b": 0.5, "c": 0.3}).ranked()
        assert [o for o, _ in ranked] == ["b", "c", "a"]

    def test_entropy_certain_is_zero(self):
        assert NearestAnswer({"a": 1.0}).entropy() == 0.0

    def test_entropy_uniform_is_log2_n(self):
        answer = NearestAnswer({i: 0.25 for i in range(4)})
        assert answer.entropy() == pytest.approx(2.0)

    def test_total_probability(self):
        assert NearestAnswer({"a": 0.4, "b": 0.6}).total_probability == pytest.approx(1.0)

    def test_invalid_probability_raises(self):
        with pytest.raises(ValueError):
            NearestAnswer({"a": -0.2})
