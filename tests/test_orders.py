"""Order certification tests: grid construction, the four certifiers and
their truncation semantics, the analytic sign lemmas, and the Schur
condition checker.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from stochord import (
    ORDERS,
    EvaluationDomainError,
    GompertzMakeham,
    Grid,
    OrderVerdict,
    SchurDiagnostics,
    SystemSpec,
    WeibullG,
    certify,
    certify_hr,
    certify_lr,
    certify_rh,
    certify_st,
    h1,
    h2,
    reversed_hazard_weight,
    schur_condition_check,
)

# shared-shape pair: the larger alpha is smaller in every order
SMALLER = WeibullG(2.0, 2.0, 1.0)
LARGER = WeibullG(1.0, 2.0, 1.0)


class TestGrid:
    def test_for_models_spans_to_joint_tail(self):
        grid = Grid.for_models(SMALLER, LARGER, count=256)
        assert grid.count == 256
        assert grid.points[-1] == pytest.approx(LARGER.support_upper(1e-6), rel=1e-12)
        assert_allclose(grid.points[0], grid.points[-1] * 1e-4, rtol=1e-12)
        assert np.all(np.diff(grid.points) > 0)

    def test_explicit_x_max_and_linear_policy(self):
        grid = Grid.for_models(count=64, x_max=2.0, policy="linear")
        assert grid.points[-1] == 2.0
        assert_allclose(np.diff(grid.points), grid.points[1] - grid.points[0], rtol=1e-9)

    @pytest.mark.parametrize("points", [
        np.linspace(0.1, 1.0, 8),             # too few
        np.linspace(-0.5, 1.0, 32),           # nonpositive
        np.ones(32),                          # not increasing
    ])
    def test_point_validation(self, points):
        with pytest.raises(ValueError):
            Grid(points=points)

    def test_policy_and_missing_input_validation(self):
        with pytest.raises(ValueError):
            Grid(points=np.linspace(0.1, 1.0, 32), policy="chebyshev")
        with pytest.raises(ValueError):
            Grid.for_models(count=64)


class TestCertifiers:
    @pytest.mark.parametrize("order", ["st", "hr", "rh", "lr"])
    def test_shared_shape_pair_holds_in_every_order(self, order):
        verdict = certify(order, SMALLER, LARGER)
        assert verdict.holds and verdict.order == order
        assert verdict.witness_x is None
        assert verdict.margin >= -verdict.tolerance

    @pytest.mark.parametrize("order", ["st", "hr", "rh", "lr"])
    def test_reversed_pair_fails_with_witness(self, order):
        verdict = certify(order, LARGER, SMALLER)
        assert not verdict.holds
        assert verdict.witness_x is not None and verdict.witness_x > 0
        assert verdict.margin < -verdict.tolerance

    def test_st_margin_is_worst_sf_gap(self):
        grid = Grid.for_models(SMALLER, LARGER, count=128)
        verdict = certify_st(SMALLER, LARGER, grid=grid)
        gap = np.asarray(LARGER.sf(grid.points)) - np.asarray(SMALLER.sf(grid.points))
        assert_allclose(verdict.margin, gap.min(), rtol=1e-12)
        assert verdict.grid_count == 128
        assert verdict.method == "sf-pointwise"

    def test_hr_hazard_and_sf_ratio_paths_agree(self):
        by_hazard = certify_hr(SMALLER, LARGER, method="hazard")
        by_ratio = certify_hr(SMALLER, LARGER, method="sf-ratio")
        assert by_hazard.holds and by_ratio.holds
        assert by_hazard.method == "hazard" and by_ratio.method == "sf-ratio"
        auto = certify_hr(SMALLER, LARGER)
        assert auto.method == "hazard"

    def test_hr_sf_ratio_truncates_on_survival_underflow(self):
        f = GompertzMakeham(1.0, 1.0, 300.0)
        g = GompertzMakeham(1.0, 1.0, 0.1)
        verdict = certify_hr(f, g, method="sf-ratio")
        assert verdict.holds and verdict.truncated
        assert verdict.grid_count < 2048

    def test_hr_sf_ratio_raises_when_nothing_usable(self):
        f = GompertzMakeham(1.0, 1.0, 300.0)
        g = GompertzMakeham(1.0, 1.0, 0.1)
        dead = Grid(points=np.geomspace(7.0, 8.0, 16))
        with pytest.raises(EvaluationDomainError):
            certify_hr(f, g, grid=dead, method="sf-ratio")

    def test_hr_method_validation(self):
        with pytest.raises(ValueError):
            certify_hr(SMALLER, LARGER, method="pdf")

    def test_rh_excludes_zero_cdf_points(self):
        deep = Grid(points=np.geomspace(1e-200, 1.0, 32))
        verdict = certify_rh(SMALLER, LARGER, grid=deep)
        assert verdict.holds and verdict.truncated
        assert verdict.grid_count < 32

    def test_lr_excludes_zero_density_points(self):
        far = Grid(points=np.geomspace(0.1, 50.0, 64))
        verdict = certify_lr(SMALLER, LARGER, grid=far)
        assert verdict.holds and verdict.truncated

    def test_lr_detects_crossing_families(self):
        f = GompertzMakeham(0.5, 2.0, 0.1)
        g = GompertzMakeham(2.0, 0.5, 1.5)
        assert not certify_lr(f, g).holds
        assert not certify_lr(g, f).holds

    def test_default_tolerance_tracks_scale(self):
        verdict = certify_st(SMALLER, LARGER)
        assert verdict.tolerance == pytest.approx(1e-7, rel=1e-12)  # sf scale is 1
        custom = certify_st(SMALLER, LARGER, tolerance=1e-3)
        assert custom.tolerance == 1e-3

    def test_holds_iff_margin_within_tolerance(self):
        for order in ("st", "hr", "rh", "lr"):
            for pair in ((SMALLER, LARGER), (LARGER, SMALLER)):
                v = certify(order, *pair)
                assert v.holds == (v.margin >= -v.tolerance)

    def test_dispatcher_validation(self):
        with pytest.raises(ValueError):
            certify("total", SMALLER, LARGER)

    def test_verdict_is_frozen_record(self):
        verdict = certify_st(SMALLER, LARGER)
        assert isinstance(verdict, OrderVerdict)
        with pytest.raises(AttributeError):
            verdict.holds = False


_WG_COMPONENT = st.builds(WeibullG, st.floats(0.1, 5.0), st.floats(0.3, 5.0), st.floats(0.3, 5.0))
_GM_COMPONENT = st.builds(GompertzMakeham, st.floats(0.05, 3.0), st.floats(0.1, 3.0),
                          st.floats(0.05, 3.0))


@st.composite
def _parallel_pairs(draw):
    component = draw(st.sampled_from([_WG_COMPONENT, _GM_COMPONENT]))
    f, g = (SystemSpec(tuple(draw(st.lists(component, min_size=1, max_size=4))), "parallel")
            for _ in range(2))
    return f, g


class TestNonFiniteSlack:
    def test_parallel_reference_example_fails_hr_with_finite_margin(self):
        # the parallel hazard is inf where sf underflows: margin -inf and
        # tolerance inf used to read as holds. The exact slack is below -142
        # on the last tenth of the grid (mpmath); the worst finite grid value
        # sits where one sf is a few ulp, so only its sign is pinned.
        f = SystemSpec((WeibullG(4.8, 3.0, 2.5), WeibullG(3.4, 3.0, 1.6)), "parallel")
        g = SystemSpec((WeibullG(4.03, 3.0, 2.005), WeibullG(4.17, 3.0, 2.095)), "parallel")
        verdict = certify_hr(f, g)
        assert not verdict.holds and verdict.truncated
        assert -1e3 < verdict.margin < -142.0
        assert math.isfinite(verdict.tolerance) and verdict.tolerance < 1e-3
        assert verdict.grid_count < 2048

    @given(_parallel_pairs(), st.sampled_from(ORDERS), st.sampled_from([None, 10.0, 50.0]))
    @settings(max_examples=150, deadline=None)
    def test_verdicts_on_parallel_systems_are_finite(self, pair, order, x_max):
        # x_max past the support drives the hazards to inf - inf
        grid = Grid.for_models(*pair, count=256, x_max=x_max)
        verdict = certify(order, *pair, grid=grid)
        assert math.isfinite(verdict.margin) and math.isfinite(verdict.tolerance)
        assert verdict.holds == (verdict.margin >= -verdict.tolerance)

    def test_no_finite_slack_raises(self):
        nowhere = Grid(points=np.geomspace(1e3, 1e4, 16))
        with pytest.raises(EvaluationDomainError):
            certify_hr(SystemSpec((SMALLER,), "parallel"), SystemSpec((LARGER,), "parallel"),
                       grid=nowhere)


class TestImplicationChain:
    def test_lr_implies_hr_implies_st_on_random_pairs(self):
        rng = np.random.default_rng(42)
        lr_holds = 0
        for k in range(100):
            if k % 2 == 0:
                beta = rng.uniform(0.5, 2.5)
                ag = rng.uniform(0.3, 2.0)
                af = ag * rng.uniform(1.0, 2.5)
                lg = rng.uniform(0.1, 1.5)
                lf = lg * rng.uniform(1.0, 2.5)
                f = GompertzMakeham(af, beta, lf)
                g = GompertzMakeham(ag, beta, lg)
            else:
                f = GompertzMakeham(rng.uniform(0.3, 3.0), rng.uniform(0.5, 2.5),
                                    rng.uniform(0.1, 2.0))
                g = GompertzMakeham(rng.uniform(0.3, 3.0), rng.uniform(0.5, 2.5),
                                    rng.uniform(0.1, 2.0))
            lr = certify_lr(f, g, count=512)
            hr = certify_hr(f, g, count=512)
            stv = certify_st(f, g, count=512)
            lr_holds += lr.holds
            if lr.holds:
                assert hr.holds and stv.holds
            if hr.holds:
                assert stv.holds
        assert lr_holds >= 50  # the chain must not hold vacuously


class TestSignLemmas:
    def test_h1_values_and_sign(self):
        assert h1(1.0) == -1.0
        assert h1(0.0) == 0.0
        xs = np.linspace(1e-9, 50.0, 10_000)
        assert np.all(h1(xs) <= 0.0)

    def test_h2_values_and_sign(self):
        assert_allclose(h2(1.0), 3.0 - math.e, rtol=1e-14)
        assert h2(0.0) == 0.0
        xs = np.linspace(1e-9, 50.0, 10_000)
        assert np.all(h2(xs) >= 0.0)

    def test_scalar_and_array_returns(self):
        assert isinstance(h1(0.5), float)
        assert isinstance(h2(np.array([0.5, 1.0])), np.ndarray)


class TestReversedHazardWeight:
    def test_pinned_value_and_saturation(self):
        assert_allclose(reversed_hazard_weight(1.0, 1.0), 1.0 / (math.e - 1.0),
                        rtol=1e-14)
        assert reversed_hazard_weight(100.0, 10.0) == 0.0

    @pytest.mark.parametrize("z", [0.1, 1.0, 10.0])
    def test_decreasing_and_convex_in_alpha(self, z):
        alphas = np.linspace(1e-3, 20.0, 4000)
        w = reversed_hazard_weight(alphas, z)
        assert np.all(np.diff(w) <= 1e-12)
        assert np.all(np.diff(w, 2) >= -1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            reversed_hazard_weight(-1.0, 1.0)
        with pytest.raises(ValueError):
            reversed_hazard_weight(1.0, 0.0)


class TestSchurChecker:
    SAMPLE = np.array([[0.7, 1.3, 2.9], [0.5, 0.5, 4.0], [1.0, 2.0, 3.0]])

    def test_sum_of_squares_is_convex_consistent(self):
        res = schur_condition_check(lambda a: float(np.sum(a * a)), self.SAMPLE)
        assert res.classification == "convex-consistent"
        assert res.convex_consistent and not res.concave_consistent

    def test_negated_sum_of_squares_is_concave_consistent(self):
        res = schur_condition_check(lambda a: -float(np.sum(a * a)), self.SAMPLE)
        assert res.classification == "concave-consistent"

    def test_linear_sum_has_zero_margin(self):
        res = schur_condition_check(lambda a: float(np.sum(a)), self.SAMPLE)
        assert res.classification == "both"
        assert res.max_abs_margin <= res.slack

    def test_mixed_signs_classify_as_neither(self):
        res = schur_condition_check(lambda a: float(np.sum(np.cos(a))),
                                    [[1.0, 2.0], [1.0, 2.8]])
        assert res.classification == "neither"

    def test_asymmetric_function_rejected(self):
        with pytest.raises(ValueError):
            schur_condition_check(lambda a: float(a[0]), [[1.0, 2.0, 3.0]])

    def test_sample_shape_validation(self):
        with pytest.raises(ValueError):
            schur_condition_check(lambda a: float(np.sum(a)), [[1.0]])

    def test_pair_margins_cover_all_pairs(self):
        res = schur_condition_check(lambda a: float(np.sum(a * a)), self.SAMPLE)
        assert isinstance(res, SchurDiagnostics)
        assert {(i, j) for i, j, _, _ in res.pair_margins} == {(0, 1), (0, 2), (1, 2)}
