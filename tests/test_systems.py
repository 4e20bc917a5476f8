"""System lifetime tests: series minimum and parallel maximum built from
independent components, including frozen two-component reference values
pinned from 40-digit mpmath evaluations.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from stochord import (
    EvaluationDomainError,
    GompertzMakeham,
    SystemSpec,
    WeibullG,
    lambda_aggregate_sf,
    parallel_reversed_hazard,
    parallel_reversed_hazard_factored,
    series_hazard,
    system_cdf,
    system_sf,
)

WG_SOURCE = SystemSpec(
    components=(WeibullG(4.8, 3.0, 2.5), WeibullG(3.4, 3.0, 1.6)),
    structure="series",
)
WG_TRANSFORMED = SystemSpec(
    components=(WeibullG(4.03, 3.0, 2.005), WeibullG(4.17, 3.0, 2.095)),
    structure="series",
)
GM_SOURCE = SystemSpec(
    components=(GompertzMakeham(4.8, 2.5, 1.0), GompertzMakeham(3.4, 1.6, 1.0)),
    structure="series",
)
GM_TRANSFORMED = SystemSpec(
    components=(GompertzMakeham(4.03, 2.005, 1.0), GompertzMakeham(4.17, 2.095, 1.0)),
    structure="series",
)


class TestSeries:
    def test_sf_pinned_value(self):
        assert_allclose(WG_SOURCE.sf(0.3), 0.0005616507783134292, rtol=1e-13)

    def test_hazard_pinned_values(self):
        assert_allclose(series_hazard(WG_SOURCE, 0.4), 313.79972546277535, rtol=1e-13)
        assert_allclose(series_hazard(WG_TRANSFORMED, 0.4), 186.03074880936204, rtol=1e-13)
        assert_allclose(series_hazard(WG_SOURCE, 0.3), 105.09919472726375, rtol=1e-13)
        assert_allclose(series_hazard(WG_TRANSFORMED, 0.3), 67.69884106790015, rtol=1e-13)

    def test_gompertz_makeham_hazard_gap(self):
        diff = series_hazard(GM_SOURCE, 1.0) - series_hazard(GM_TRANSFORMED, 1.0)
        assert_allclose(diff, 11.506034004599373, rtol=1e-12)
        # at x = 0 both hazards reduce to sum(lam) + sum(alpha), preserved
        # exactly by the averaging that produced the transformed matrix
        assert series_hazard(GM_SOURCE, 0.0) == pytest.approx(
            series_hazard(GM_TRANSFORMED, 0.0), abs=1e-13)

    def test_identical_components_power_identity(self):
        one = WeibullG(1.5, 2.0, 0.8)
        sys3 = SystemSpec((one, one, one), "series")
        xs = np.linspace(0.05, 1.5, 30)
        assert_allclose(np.asarray(sys3.sf(xs)), np.asarray(one.sf(xs)) ** 3, rtol=1e-12)
        assert_allclose(np.asarray(sys3.hazard(xs)), 3.0 * np.asarray(one.hazard(xs)),
                        rtol=1e-12)

    def test_minimum_sf_is_product_of_component_sfs(self):
        xs = np.linspace(0.05, 1.2, 25)
        expected = np.asarray(WG_SOURCE.components[0].sf(xs)) * \
            np.asarray(WG_SOURCE.components[1].sf(xs))
        assert_allclose(np.asarray(WG_SOURCE.sf(xs)), expected, rtol=1e-12)

    def test_single_component_system_reduces_to_model(self):
        model = GompertzMakeham(0.7, 1.1, 0.3)
        for structure in ("series", "parallel"):
            sys1 = SystemSpec((model,), structure)
            xs = np.linspace(0.1, 2.0, 20)
            assert_allclose(np.asarray(sys1.sf(xs)), np.asarray(model.sf(xs)), rtol=1e-13)
            assert_allclose(np.asarray(sys1.pdf(xs)), np.asarray(model.pdf(xs)), rtol=1e-13)


class TestParallel:
    def test_maximum_cdf_is_product_of_component_cdfs(self):
        sys_p = SystemSpec(WG_SOURCE.components, "parallel")
        xs = np.linspace(0.05, 1.2, 25)
        expected = np.asarray(WG_SOURCE.components[0].cdf(xs)) * \
            np.asarray(WG_SOURCE.components[1].cdf(xs))
        assert_allclose(np.asarray(sys_p.cdf(xs)), expected, rtol=1e-12)

    def test_reversed_hazard_is_component_sum(self):
        sys_p = SystemSpec(GM_SOURCE.components, "parallel")
        xs = np.linspace(0.1, 1.5, 20)
        expected = sum(np.asarray(c.reversed_hazard(xs)) for c in sys_p.components)
        assert_allclose(np.asarray(parallel_reversed_hazard(sys_p, xs)), expected,
                        rtol=1e-13)

    def test_factored_reversed_hazard_pinned_and_matches_generic(self):
        sys_p = SystemSpec((WeibullG(1.5, 2.0, 0.8), WeibullG(2.5, 2.0, 0.8)), "parallel")
        assert_allclose(parallel_reversed_hazard_factored(sys_p, 0.5),
                        7.558624946927722, rtol=1e-13)
        xs = np.linspace(0.1, 2.0, 40)
        assert_allclose(np.asarray(parallel_reversed_hazard_factored(sys_p, xs)),
                        np.asarray(parallel_reversed_hazard(sys_p, xs)), rtol=1e-10)

    def test_factored_form_requires_shared_shape_and_scale(self):
        mixed_beta = SystemSpec((WeibullG(1.5, 2.0, 0.8), WeibullG(2.5, 3.0, 0.8)),
                                "parallel")
        with pytest.raises(ValueError):
            parallel_reversed_hazard_factored(mixed_beta, 0.5)
        not_wg = SystemSpec((GompertzMakeham(1.0, 1.0, 1.0),), "parallel")
        with pytest.raises(ValueError):
            parallel_reversed_hazard_factored(not_wg, 0.5)

    def test_factored_form_undefined_at_zero(self):
        sys_p = SystemSpec((WeibullG(1.5, 2.0, 0.8), WeibullG(2.5, 2.0, 0.8)), "parallel")
        with pytest.raises(EvaluationDomainError):
            parallel_reversed_hazard_factored(sys_p, 0.0)

    def test_parallel_hazard_diverges_only_past_support(self):
        sys_p = SystemSpec(WG_SOURCE.components, "parallel")
        assert np.isfinite(sys_p.hazard(0.4))
        assert sys_p.hazard(50.0) == np.inf


class TestStructureGuards:
    def test_series_helper_rejects_parallel(self):
        sys_p = SystemSpec(WG_SOURCE.components, "parallel")
        with pytest.raises(ValueError):
            series_hazard(sys_p, 0.5)

    def test_parallel_helper_rejects_series(self):
        with pytest.raises(ValueError):
            parallel_reversed_hazard(WG_SOURCE, 0.5)

    def test_unknown_structure_rejected(self):
        with pytest.raises(ValueError):
            SystemSpec(WG_SOURCE.components, "bridge")

    def test_empty_component_tuple_rejected(self):
        with pytest.raises(ValueError):
            SystemSpec((), "series")


class TestDensityConsistency:
    @pytest.mark.parametrize("structure", ["series", "parallel"])
    def test_pdf_matches_finite_difference_of_cdf(self, structure):
        system = SystemSpec(WG_SOURCE.components, structure)
        xs = np.linspace(0.05, 0.45, 40)
        h = 1e-6
        fd = (np.asarray(system.cdf(xs + h)) - np.asarray(system.cdf(xs - h))) / (2.0 * h)
        pdf = np.asarray(system.pdf(xs))
        assert np.all(np.abs(fd - pdf) <= np.maximum(1e-5, 1e-5 * np.abs(pdf)))

    def test_mixed_family_system(self):
        system = SystemSpec((WeibullG(1.5, 2.0, 0.8), GompertzMakeham(0.7, 1.1, 0.3)),
                            "series")
        xs = np.linspace(0.05, 1.5, 25)
        expected_sf = np.asarray(system.components[0].sf(xs)) * \
            np.asarray(system.components[1].sf(xs))
        assert_allclose(np.asarray(system.sf(xs)), expected_sf, rtol=1e-12)
        expected_hazard = np.asarray(system.components[0].hazard(xs)) + \
            np.asarray(system.components[1].hazard(xs))
        assert_allclose(np.asarray(system.hazard(xs)), expected_hazard, rtol=1e-12)

    def test_edges_at_zero(self):
        assert WG_SOURCE.sf(0.0) == 1.0
        assert SystemSpec(WG_SOURCE.components, "parallel").cdf(0.0) == 0.0
        with pytest.raises(EvaluationDomainError):
            WG_SOURCE.reversed_hazard(0.0)
        with pytest.raises(EvaluationDomainError):
            parallel_reversed_hazard(SystemSpec(WG_SOURCE.components, "parallel"), 0.0)

    def test_module_level_thin_wrappers(self):
        xs = np.linspace(0.1, 0.5, 16)
        assert_allclose(system_sf(WG_SOURCE, xs), np.asarray(WG_SOURCE.sf(xs)), rtol=0)
        assert_allclose(system_cdf(WG_SOURCE, xs), np.asarray(WG_SOURCE.cdf(xs)), rtol=0)

    def test_support_upper_brackets_system_tail(self):
        upper = WG_SOURCE.support_upper(1e-6)
        assert float(WG_SOURCE.sf(upper)) <= 1e-6
        assert float(WG_SOURCE.sf(0.99 * upper)) > 1e-6


_WG_COMPONENT = st.builds(WeibullG, st.floats(0.1, 5.0), st.floats(0.3, 5.0), st.floats(0.3, 5.0))
_GM_COMPONENT = st.builds(GompertzMakeham, st.floats(0.05, 3.0), st.floats(0.1, 3.0),
                          st.floats(0.05, 3.0))


@st.composite
def _lifetimes(draw):
    """A bare model, or a series or parallel system of one family."""
    component = draw(st.sampled_from([_WG_COMPONENT, _GM_COMPONENT]))
    structure = draw(st.sampled_from([None, "series", "parallel"]))
    if structure is None:
        return draw(component)
    return SystemSpec(tuple(draw(st.lists(component, min_size=1, max_size=6))), structure)


class TestTailSearch:
    @given(_lifetimes(), st.sampled_from([1e-6, 1e-12]))
    @settings(max_examples=150, deadline=None)
    def test_one_ulp_bracket(self, lifetime, tail):
        upper = lifetime.support_upper(tail)
        assert lifetime.sf(upper) <= tail < lifetime.sf(np.nextafter(upper, 0.0))

    def test_no_overflow_warning_when_hazards_sum_past_float_range(self):
        # at x = 2**60 the finite component hazards sum past the float range
        system = SystemSpec((WeibullG(1.19065, 3.041, 0.934099), WeibullG(3.94072, 3.041, 1.60887),
                             WeibullG(4.4378, 3.041, 3.62967), WeibullG(4.5573, 3.041, 3.63883)),
                            "series")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            upper = system.support_upper(1e-6)
        assert system.sf(np.array([upper]))[0] <= 1e-6


class TestScalarArrayAgreement:
    # numpy's 0-d power rounds differently from its array loop in the last
    # place; scalars are evaluated as one-element arrays to match
    @given(_lifetimes(), st.lists(st.floats(0.01, 3.0), min_size=2, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_evaluators_are_bit_identical(self, lifetime, xs):
        methods = ["sf", "cdf", "pdf", "hazard", "reversed_hazard"]
        if not isinstance(lifetime, SystemSpec):
            methods += ["cumulative_hazard", "log_cdf"]
        xa = np.array(xs)
        for name in methods:
            evaluate = getattr(lifetime, name)
            scalars = np.array([evaluate(x) for x in xs])
            assert np.array_equal(scalars, evaluate(xa), equal_nan=True), name

    @given(st.one_of(_WG_COMPONENT, _GM_COMPONENT),
           st.lists(st.floats(1e-12, 1.0 - 1e-12), min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_quantile_is_bit_identical(self, model, us):
        scalars = np.array([model.quantile(u) for u in us])
        assert np.array_equal(scalars, model.quantile(np.array(us)))


class TestLambdaAggregate:
    def test_pinned_value(self):
        assert_allclose(lambda_aggregate_sf([1.2, 1.8], 1.0, 1.0, 1.0),
                        0.0016019019180180852, rtol=1e-14)

    def test_matches_explicit_series_system(self):
        lams = [0.4, 1.3, 2.1]
        system = SystemSpec(tuple(GompertzMakeham(0.9, 1.4, v) for v in lams), "series")
        xs = np.linspace(0.05, 1.0, 20)
        assert_allclose(np.asarray(lambda_aggregate_sf(lams, 0.9, 1.4, xs)),
                        np.asarray(system.sf(xs)), rtol=1e-12)

    def test_permutation_gives_bit_identical_floats(self):
        lams = [0.1, 0.7, 1.9, 3.3, 0.05]
        xs = np.linspace(0.1, 2.0, 50)
        base = np.asarray(lambda_aggregate_sf(lams, 1.0, 1.0, xs))
        rng = np.random.default_rng(7)
        for _ in range(20):
            shuffled = list(rng.permutation(lams))
            again = np.asarray(lambda_aggregate_sf(shuffled, 1.0, 1.0, xs))
            assert np.array_equal(base, again)

    def test_depends_on_rates_only_through_total(self):
        xs = np.linspace(0.1, 1.5, 30)
        a = np.asarray(lambda_aggregate_sf([1.0, 2.0], 0.8, 1.2, xs))
        b = np.asarray(lambda_aggregate_sf([0.5, 2.5], 0.8, 1.2, xs))
        assert_allclose(a, b, rtol=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            lambda_aggregate_sf([], 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            lambda_aggregate_sf([1.0, -0.5], 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            lambda_aggregate_sf([1.0], 0.0, 1.0, 0.5)
