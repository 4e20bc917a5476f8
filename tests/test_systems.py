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
    ConvergenceError,
    EvaluationDomainError,
    GompertzMakeham,
    SystemSpec,
    WeibullG,
    lambda_aggregate_sf,
    systems,
)
from stochord.models import _FAMILIES, EXPONENTIAL_STANDARD, _support_upper
from stochord.systems import SystemStack

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
        assert_allclose(WG_SOURCE.hazard(0.4), 313.79972546277535, rtol=1e-13)
        assert_allclose(WG_TRANSFORMED.hazard(0.4), 186.03074880936204, rtol=1e-13)
        assert_allclose(WG_SOURCE.hazard(0.3), 105.09919472726375, rtol=1e-13)
        assert_allclose(WG_TRANSFORMED.hazard(0.3), 67.69884106790015, rtol=1e-13)

    def test_hazard_summing_past_float_range_is_inf(self):
        # both component hazards are finite here and their sum is not; the
        # overflow used to raise a RuntimeWarning
        system = SystemSpec((WeibullG(1.0, 5.0, 4.375), WeibullG(3.0, 5.0, 4.375)), "series")
        assert system.hazard(32.247333855188096) == np.inf

    def test_gompertz_makeham_hazard_gap(self):
        diff = GM_SOURCE.hazard(1.0) - GM_TRANSFORMED.hazard(1.0)
        assert_allclose(diff, 11.506034004599373, rtol=1e-12)
        # at x = 0 both hazards reduce to sum(lam) + sum(alpha), preserved
        # exactly by the averaging that produced the transformed matrix
        assert GM_SOURCE.hazard(0.0) == pytest.approx(
            GM_TRANSFORMED.hazard(0.0), abs=1e-13)

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
        assert_allclose(np.asarray(sys_p.reversed_hazard(xs)), expected,
                        rtol=1e-13)

    def test_parallel_hazard_diverges_only_past_support(self):
        sys_p = SystemSpec(WG_SOURCE.components, "parallel")
        assert np.isfinite(sys_p.hazard(0.4))
        assert sys_p.hazard(50.0) == np.inf


class TestStructureGuards:
    def test_unknown_structure_rejected(self):
        with pytest.raises(ValueError):
            SystemSpec(WG_SOURCE.components, "bridge")

    def test_empty_component_tuple_rejected(self):
        with pytest.raises(ValueError):
            SystemSpec((), "series")

    def test_unknown_component_family_rejected_at_construction(self):
        class Exponential:
            label = "exponential"

        with pytest.raises(TypeError):
            SystemSpec((WeibullG(1.0, 2.0, 1.0), Exponential()), "series")

    def test_stack_is_built_on_first_evaluation(self):
        system = SystemSpec(WG_SOURCE.components, "parallel")
        fresh = SystemSpec(WG_SOURCE.components, "parallel")
        text, key = repr(system), hash(system)
        assert "_stack" not in vars(system)
        system.sf(0.5)
        assert "_stack" in vars(system)
        assert system == fresh and hash(system) == key == hash(fresh)
        assert repr(system) == text == repr(fresh)


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
            SystemSpec(WG_SOURCE.components, "parallel").reversed_hazard(0.0)

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


def _loop_series_sf(system, x):
    total = 0.0
    with np.errstate(over="ignore"):
        for c in system.components:
            total = total + np.asarray(c.cumulative_hazard(x))
    return np.exp(-total)


def _loop_series_hazard(system, x):
    total = 0.0
    for c in system.components:
        total = total + np.asarray(c.hazard(x))
    return total


def _loop_parallel_cdf(system, x):
    total = 0.0
    for c in system.components:
        total = total + np.asarray(c.log_cdf(x))
    return np.exp(total)


@st.composite
def _one_family_components(draw, min_size=1, max_size=6):
    component = draw(st.sampled_from([_WG_COMPONENT, _GM_COMPONENT]))
    return tuple(draw(st.lists(component, min_size=min_size, max_size=max_size)))


_POINTS = st.lists(st.floats(1e-3, 12.0), min_size=1, max_size=12)


class TestComponentLoopReference:
    # the system evaluators sum components one at a time, in order; a loop
    # over the component methods must give the same floats
    @given(_one_family_components(), _POINTS)
    @settings(max_examples=150, deadline=None)
    def test_series_sf_and_hazard(self, components, xs):
        system = SystemSpec(components, "series")
        x = np.array(xs)
        assert np.array_equal(system.sf(x), _loop_series_sf(system, x))
        assert np.array_equal(system.hazard(x), _loop_series_hazard(system, x))

    @given(_one_family_components(), _POINTS)
    @settings(max_examples=150, deadline=None)
    def test_parallel_cdf(self, components, xs):
        system = SystemSpec(components, "parallel")
        x = np.array(xs)
        assert np.array_equal(system.cdf(x), _loop_parallel_cdf(system, x))

    def test_shape_two_takes_the_square_path(self):
        # numpy evaluates w ** 2.0 as a square; beta = 3 puts that power
        # in the Weibull-G hazard
        system = SystemSpec((WeibullG(4.8, 3.0, 2.5), WeibullG(3.4, 3.0, 1.6)), "series")
        x = np.geomspace(1e-4, 1.0, 257)
        assert np.array_equal(system.hazard(x), _loop_series_hazard(system, x))


# shapes 1.5 and 3 put the exponents 0.5 and 2 into the Weibull-G powers,
# which numpy's ** evaluates as sqrt and square
_WG_SHAPES = st.one_of(st.floats(0.3, 5.0), st.sampled_from([1.5, 2.0, 3.0]))
_WG_BATCH_COMPONENT = st.builds(WeibullG, st.floats(0.1, 5.0), _WG_SHAPES, st.floats(0.3, 5.0))


@st.composite
def _batches(draw, structures=("series", "parallel")):
    """1 to 6 systems of one family and structure with equal component counts."""
    component = draw(st.sampled_from([_WG_BATCH_COMPONENT, _GM_COMPONENT]))
    structure = draw(st.sampled_from(structures))
    n = draw(st.integers(1, 5))
    count = draw(st.integers(1, 6))
    return [SystemSpec(tuple(draw(st.lists(component, min_size=n, max_size=n))), structure)
            for _ in range(count)]


def _stack(systems):
    """The systems as one SystemStack: the first system's component kinds and
    every system's parameters as an (S, 3, n) array."""
    kinds = [(type(c), getattr(c, "baseline", EXPONENTIAL_STANDARD))
             for c in systems[0].components]
    params = [[[getattr(c, name) for name in _FAMILIES[type(c)][0]] for c in s.components]
              for s in systems]
    return SystemStack(systems[0].structure, kinds, np.transpose(params, (0, 2, 1)))


class TestBatchedEvaluation:
    # every row of a stacked evaluation equals the per-component loop on
    # that row's system, bit for bit
    @given(_batches(), _POINTS, st.floats(0.25, 4.0))
    @settings(max_examples=150, deadline=None)
    def test_rows_match_the_component_loop(self, systems, xs, spread):
        points = np.array(xs) * np.geomspace(1.0, spread, len(systems))[:, None]
        stack = _stack(systems)
        if systems[0].structure == "series":
            checks = [(stack.sf, _loop_series_sf), (stack.hazard, _loop_series_hazard)]
        else:
            checks = [(stack.cdf, _loop_parallel_cdf)]
        for batched, loop in checks:
            rows = batched(points)
            for system, row, x in zip(systems, rows, points):
                assert np.array_equal(row, loop(system, x))

    @given(_batches(), _POINTS)
    @settings(max_examples=100, deadline=None)
    def test_rows_match_the_single_system(self, systems, xs):
        points = np.tile(np.array(xs), (len(systems), 1))
        stack = _stack(systems)
        for name in ("sf", "cdf", "hazard", "pdf"):
            rows = getattr(stack, name)(points)
            for system, row in zip(systems, rows):
                assert np.array_equal(row, getattr(system, name)(points[0])), name

    def test_mixed_family_system_keeps_component_order(self):
        parts = (WeibullG(1.5, 2.0, 0.8), GompertzMakeham(0.7, 1.1, 0.3), WeibullG(0.4, 3.0, 1.2))
        system = SystemSpec(parts, "series")
        xs = np.linspace(0.05, 1.5, 25)
        assert np.array_equal(system.sf(xs), _loop_series_sf(system, xs))
        assert np.array_equal(system.hazard(xs), _loop_series_hazard(system, xs))

    # calls per component of the cumulative hazard and hazard kernels, and
    # whether the log cdfs are taken: each quantity reads a kernel at most
    # once and only if its sums need it
    @pytest.mark.parametrize("structure, quantity, chf, hazard, log_cdf", [
        ("series", "sf", 1, 0, 0),
        ("series", "cdf", 1, 0, 0),
        ("series", "hazard", 0, 1, 0),
        ("series", "reversed_hazard", 1, 1, 0),
        ("series", "pdf", 1, 1, 0),
        ("parallel", "sf", 1, 0, 1),
        ("parallel", "cdf", 1, 0, 1),
        ("parallel", "hazard", 1, 1, 1),
        ("parallel", "reversed_hazard", 1, 1, 0),
        ("parallel", "pdf", 1, 1, 1),
    ])
    def test_each_quantity_evaluates_only_the_kernels_it_reads(
            self, monkeypatch, structure, quantity, chf, hazard, log_cdf):
        parts = (WeibullG(1.5, 2.0, 0.8), GompertzMakeham(0.7, 1.1, 0.3), WeibullG(0.4, 3.0, 1.2))
        stack = _stack([SystemSpec(parts, structure)])
        calls = {"chf": 0, "hazard": 0, "log_cdf": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        stack._columns = [(counted("chf", c), counted("hazard", h), args)
                          for c, h, args in stack._columns]
        monkeypatch.setattr(systems, "log1mexp", counted("log_cdf", systems.log1mexp))
        getattr(stack, quantity)(np.linspace(0.1, 2.0, 9)[None])
        assert calls == {"chf": 3 * chf, "hazard": 3 * hazard, "log_cdf": 3 * log_cdf}

    def test_component_stack_needs_a_known_family(self):
        with pytest.raises(TypeError):
            SystemStack("series", [(object, EXPONENTIAL_STANDARD)], np.ones((1, 3, 1)))


# parameters across [1e-3, 1e3]
_WIDE = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)


@st.composite
def _wide_batches(draw):
    """1 to 4 systems of one structure with the same 1 to 8 component
    families, mixed or not, and parameters across [1e-3, 1e3]."""
    structure = draw(st.sampled_from(["series", "parallel"]))
    families = draw(st.lists(st.sampled_from([WeibullG, GompertzMakeham]),
                             min_size=1, max_size=8))
    return [SystemSpec(tuple(f(draw(_WIDE), draw(_WIDE), draw(_WIDE)) for f in families),
                       structure)
            for _ in range(draw(st.integers(1, 4)))]


def _search(sf, tail, rows, bracket=None):
    """The tail points of a batch, or None where the search raises ConvergenceError."""
    try:
        return _support_upper(sf, tail, rows=rows, bracket=bracket)
    except ConvergenceError:
        return None


class TestBatchedTailSearch:
    @given(_wide_batches(), st.sampled_from([1e-6, 1e-12]))
    @settings(max_examples=150, deadline=None)
    def test_closed_form_brackets_hold_and_give_the_probe_points(self, systems, tail):
        stack = _stack(systems)
        bracket = stack.tail_brackets(tail)
        kept = np.isfinite(bracket).all(axis=1)
        lo_sf, hi_sf = stack.sf(np.where(kept[:, None], bracket, 1.0)).T
        assert np.all(lo_sf[kept] > tail) and np.all(hi_sf[kept] <= tail)
        # without a bracket every row takes the power-of-two probe
        probed = _search(stack.sf, tail, len(systems))
        bracketed = _search(stack.sf, tail, len(systems), bracket)
        assert (probed is None) == (bracketed is None)
        assert probed is None or np.array_equal(bracketed, probed)

    @given(_batches(), st.sampled_from([1e-6, 1e-12]))
    @settings(max_examples=150, deadline=None)
    def test_every_row_brackets_and_equals_a_batch_of_one(self, systems, tail):
        points = _support_upper(_stack(systems).sf, tail, rows=len(systems))
        assert points.shape == (len(systems),)
        for system, x in zip(systems, points):
            assert system.sf(x) <= tail < system.sf(np.nextafter(x, 0.0))
            assert x == system.support_upper(tail)


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
