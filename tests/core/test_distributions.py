"""Unit and property tests for the Basel distribution."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distributions import BaselSampler, basel_cdf, basel_pmf, basel_tail
from repro.errors import ConfigurationError


def test_pmf_values():
    scale = 6 / math.pi**2
    assert basel_pmf(1) == pytest.approx(scale)
    assert basel_pmf(2) == pytest.approx(scale / 4)
    assert basel_pmf(10) == pytest.approx(scale / 100)
    assert basel_pmf(0) == 0.0
    assert basel_pmf(-3) == 0.0


def test_pmf_sums_to_one():
    # Basel problem: sum 6/(pi^2 k^2) = 1; check numerically.
    total = sum(basel_pmf(k) for k in range(1, 200_000))
    assert total == pytest.approx(1.0, abs=1e-4)


def test_cdf_monotone_and_bounded():
    prev = 0.0
    for k in range(1, 50):
        cur = basel_cdf(k)
        assert prev < cur <= 1.0
        prev = cur


def test_tail_complements_cdf():
    for k in range(2, 30):
        assert basel_tail(k) == pytest.approx(1.0 - basel_cdf(k - 1))
    assert basel_tail(1) == 1.0
    assert basel_tail(0) == 1.0


def test_tail_obeys_lemma4_telescoping_bound():
    # Lemma 4's telescoping argument: P[K >= k] >= 6/(pi^2 k).
    for k in range(1, 100):
        assert basel_tail(k) >= 6 / (math.pi**2 * k) - 1e-12


def test_unbounded_sampler_distribution():
    sampler = BaselSampler()
    rng = np.random.default_rng(0)
    draws = np.array([sampler.sample(rng) for _ in range(20_000)])
    assert draws.min() >= 1
    # P[K=1] = 6/pi^2 ~ 0.6079
    frac1 = (draws == 1).mean()
    assert abs(frac1 - 6 / math.pi**2) < 0.02
    # Heavy tail exists: some draws well above 10.
    assert (draws > 10).mean() > 0.02


def test_truncated_sampler_respects_max_k():
    sampler = BaselSampler(max_k=4)
    rng = np.random.default_rng(1)
    draws = [sampler.sample(rng) for _ in range(5_000)]
    assert min(draws) >= 1
    assert max(draws) <= 4


def test_truncated_sampler_renormalises():
    sampler = BaselSampler(max_k=2)
    rng = np.random.default_rng(2)
    draws = np.array([sampler.sample(rng) for _ in range(20_000)])
    # P[1] : P[2] = 4 : 1 after renormalisation -> P[1] = 0.8.
    assert abs((draws == 1).mean() - 0.8) < 0.02


def test_bad_max_k_rejected():
    with pytest.raises(ConfigurationError):
        BaselSampler(max_k=0)


@settings(max_examples=30)
@given(seed=st.integers(0, 2**31 - 1), max_k=st.integers(1, 16))
def test_property_truncated_draws_in_support(seed, max_k):
    sampler = BaselSampler(max_k=max_k)
    rng = np.random.default_rng(seed)
    for _ in range(50):
        assert 1 <= sampler.sample(rng) <= max_k


# No deadline: the unbounded sampler's loop is O(k), and one seed (150422)
# draws k ~ 6e6, so 50 draws can take about a second. Production always
# truncates the sampler, so the slow tail is a test-only cost.
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_property_unbounded_draws_positive(seed):
    sampler = BaselSampler()
    rng = np.random.default_rng(seed)
    for _ in range(50):
        assert sampler.sample(rng) >= 1
