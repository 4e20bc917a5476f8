"""Sampling tests: deterministic streams, KS distances against the
generating law, and componentwise system draws.
"""

import math

import numpy as np
import pytest

from stochord import (
    GompertzMakeham,
    SampleBatch,
    SystemSpec,
    WeibullG,
    ks_distance,
    sample,
    sample_system,
)


class TestSampleBatches:
    def test_same_seed_is_bit_identical(self):
        model = WeibullG(1.5, 2.0, 0.8)
        a = sample(model, 500, seed=7)
        b = sample(model, 500, seed=7)
        assert np.array_equal(a.values, b.values)
        assert a.label == model.label and a.count == 500 and a.seed == 7

    def test_different_seeds_differ(self):
        model = WeibullG(1.5, 2.0, 0.8)
        assert not np.array_equal(sample(model, 100, 0).values,
                                  sample(model, 100, 1).values)

    def test_values_sorted_positive(self):
        batch = sample(GompertzMakeham(0.7, 1.1, 0.3), 200, seed=5)
        assert np.all(np.diff(batch.values) >= 0)
        assert np.all(batch.values > 0)

    def test_batch_validation(self):
        with pytest.raises(ValueError):
            SampleBatch(label="x", count=3, seed=0, values=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            SampleBatch(label="x", count=2, seed=0, values=np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            SampleBatch(label="x", count=2, seed=0, values=np.array([-1.0, 2.0]))
        with pytest.raises(ValueError):
            sample(WeibullG(1.0, 1.0, 1.0), 0, seed=0)

    def test_sample_median_near_analytic_median(self):
        # the unit-parameter model has median log(1 + log 2)
        batch = sample(WeibullG(1.0, 1.0, 1.0), 100_000, seed=11)
        median = float(np.median(batch.values))
        target = math.log(1.0 + math.log(2.0))
        assert abs(median - target) <= 0.02 * target


class TestKsDistance:
    def test_own_law_is_close(self):
        model = GompertzMakeham(4.8, 2.5, 1.0)
        batch = sample(model, 20_000, seed=3)
        assert ks_distance(batch, model) < 0.02

    def test_mismatched_law_is_far(self):
        batch = sample(WeibullG(2.0, 2.0, 1.0), 5_000, seed=3)
        assert ks_distance(batch, WeibullG(0.5, 2.0, 1.0)) > 0.1

    def test_single_point_formula(self):
        model = WeibullG(1.0, 1.0, 1.0)
        x = 0.4
        batch = SampleBatch(label="one", count=1, seed=0, values=np.array([x]))
        f = float(model.cdf(x))
        assert ks_distance(batch, model) == pytest.approx(max(1.0 - f, f), rel=1e-12)


class TestSystemSampling:
    def test_componentwise_reduction_matches_manual_draws(self):
        system = SystemSpec((WeibullG(4.8, 3.0, 2.5), WeibullG(3.4, 3.0, 1.6)), "series")
        batch = sample_system(system, 1000, seed=9)
        manual = np.minimum(
            system.components[0].quantile(_uniforms_copy(9, 0, 1000)),
            system.components[1].quantile(_uniforms_copy(9, 1, 1000)),
        )
        assert np.array_equal(batch.values, np.sort(manual))

    def test_single_component_system_reproduces_model_stream(self):
        model = GompertzMakeham(0.7, 1.1, 0.3)
        direct = sample(model, 400, seed=21)
        via_system = sample_system(SystemSpec((model,), "series"), 400, seed=21)
        assert np.array_equal(direct.values, via_system.values)

    def test_empirical_check_fails_for_wrong_structure(self):
        components = (WeibullG(4.8, 3.0, 2.5), WeibullG(3.4, 3.0, 1.6))
        batch = sample_system(SystemSpec(components, "series"), 20_000, seed=1)
        wrong = SystemSpec(components, "parallel")
        assert ks_distance(batch, wrong) > 0.05


def _uniforms_copy(seed: int, index: int, count: int) -> np.ndarray:
    """Re-derive the library's stream-splitting contract for the test."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
    u = rng.random(count)
    eps = np.finfo(float).eps
    return np.clip(u, eps, np.nextafter(1.0, 0.0))
