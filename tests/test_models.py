"""Lifetime model tests: frozen closed-form values, shape contracts, and
calculus identities between cdf, pdf, hazard, and quantile evaluators.

Frozen constants are pinned from 40-digit mpmath evaluations of the
closed forms.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from stochord import (
    EXPONENTIAL_STANDARD,
    Baseline,
    ConvergenceError,
    EvaluationDomainError,
    GompertzMakeham,
    OddsFn,
    WeibullG,
)
from stochord.models import _support_upper

WG_GRID = np.linspace(0.01, 1.2, 64)
GM_GRID = np.linspace(0.01, 1.5, 64)


class TestWeibullGClosedForm:
    def test_cdf_unit_parameters_at_log2(self):
        # alpha=beta=gamma=1: H(ln 2) = e^{ln 2} - 1 = 1, so cdf = 1 - 1/e
        model = WeibullG(1.0, 1.0, 1.0)
        assert_allclose(model.cdf(math.log(2.0)), 1.0 - math.exp(-1.0), rtol=1e-14)

    def test_cdf_pinned_value(self):
        assert_allclose(WeibullG(4.8, 3.0, 2.5).cdf(0.1), 0.10414775251220822, rtol=1e-13)

    def test_sf_pinned_value(self):
        assert_allclose(WeibullG(3.4, 3.0, 1.6).sf(0.3), 0.4515719093064273, rtol=1e-13)

    def test_hazard_pinned_value(self):
        assert_allclose(WeibullG(4.8, 3.0, 2.5).hazard(0.2), 24.97848062832369, rtol=1e-13)

    def test_pdf_and_reversed_hazard_pinned_values(self):
        model = WeibullG(1.5, 2.0, 0.8)
        assert_allclose(model.pdf(0.5), 1.225070637929445, rtol=1e-13)
        assert_allclose(model.reversed_hazard(0.5), 4.025859635088798, rtol=1e-13)

    def test_quantile_pinned_value(self):
        assert_allclose(WeibullG(4.8, 3.0, 2.5).quantile(0.25),
                        0.13210768791657682, rtol=1e-13)

    def test_deep_upper_tail_saturates_to_one(self):
        assert WeibullG(4.8, 3.0, 2.5).cdf(0.5) == 1.0


class TestGompertzMakehamClosedForm:
    def test_sf_unit_parameters(self):
        # H(1) = 1 + (e - 1) = e, so sf(1) = e^{-e}
        assert_allclose(GompertzMakeham(1.0, 1.0, 1.0).sf(1.0),
                        math.exp(-math.e), rtol=1e-14)

    def test_cdf_hazard_pdf_reversed_hazard_pinned(self):
        model = GompertzMakeham(alpha=4.8, beta=2.5, lam=1.0)
        assert_allclose(model.cdf(0.3), 0.9132426408364181, rtol=1e-13)
        assert_allclose(model.hazard(0.3), 11.161600079740838, rtol=1e-13)
        assert_allclose(model.pdf(0.3), 0.96835094695834, rtol=1e-13)
        assert_allclose(model.reversed_hazard(0.3), 1.0603435534629104, rtol=1e-13)

    def test_median_matches_root_of_cumulative_hazard(self):
        # solves x + e^x - 1 = ln 2
        assert_allclose(GompertzMakeham(1.0, 1.0, 1.0).quantile(0.5),
                        0.3183246523763219, rtol=1e-10)

    def test_hazard_is_exactly_makeham_plus_gompertz(self):
        model = GompertzMakeham(alpha=0.7, beta=1.9, lam=2.3)
        expected = 2.3 + 0.7 * np.exp(1.9 * GM_GRID)
        assert_allclose(model.hazard(GM_GRID), expected, rtol=1e-12)


class TestEvaluatorIdentities:
    @pytest.mark.parametrize("model,grid", [
        (WeibullG(4.8, 3.0, 2.5), np.linspace(0.01, 0.45, 64)),
        (WeibullG(1.5, 2.0, 0.8), WG_GRID),
        (WeibullG(0.9, 0.7, 1.3), WG_GRID),
        (GompertzMakeham(4.8, 2.5, 1.0), np.linspace(0.01, 0.9, 64)),
        (GompertzMakeham(0.4, 0.9, 2.0), GM_GRID),
    ])
    def test_finite_difference_of_cdf_matches_pdf(self, model, grid):
        h = 1e-6 * np.maximum(1.0, grid)
        fd = (np.asarray(model.cdf(grid + h)) - np.asarray(model.cdf(grid - h))) / (2.0 * h)
        pdf = np.asarray(model.pdf(grid))
        assert np.all(np.abs(fd - pdf) <= np.maximum(1e-6, 1e-5 * np.abs(pdf)))

    @pytest.mark.parametrize("model", [
        WeibullG(1.5, 2.0, 0.8),
        GompertzMakeham(0.4, 0.9, 2.0),
    ])
    def test_hazard_and_reversed_hazard_ratios(self, model):
        xs = np.linspace(0.05, 1.0, 40)
        pdf = np.asarray(model.pdf(xs))
        assert_allclose(np.asarray(model.hazard(xs)), pdf / np.asarray(model.sf(xs)),
                        rtol=1e-12)
        assert_allclose(np.asarray(model.reversed_hazard(xs)),
                        pdf / np.asarray(model.cdf(xs)), rtol=1e-12)

    @pytest.mark.parametrize("model", [
        WeibullG(1.0, 1.0, 1.0),
        WeibullG(4.8, 3.0, 2.5),
        GompertzMakeham(1.0, 1.0, 1.0),
    ])
    def test_pdf_integrates_to_one(self, model):
        upper = model.support_upper(1e-12)
        total, err = quad(lambda t: float(model.pdf(t)), 0.0, upper, limit=200)
        assert abs(total - 1.0) <= max(1e-8, 10.0 * err)

    def test_cdf_monotone_and_bounded(self):
        xs = np.linspace(0.0, 3.0, 200)
        for model in (WeibullG(2.0, 2.5, 1.2), GompertzMakeham(0.8, 1.1, 0.4)):
            cdf = np.asarray(model.cdf(xs))
            assert np.all(np.diff(cdf) >= 0.0)
            assert cdf[0] == 0.0
            assert np.all((cdf >= 0.0) & (cdf <= 1.0))
            assert_allclose(np.asarray(model.sf(xs)), 1.0 - cdf, atol=1e-15)

    def test_cumulative_hazard_matches_negative_log_sf(self):
        model = WeibullG(2.0, 2.5, 1.2)
        xs = np.linspace(0.1, 1.0, 32)
        assert_allclose(np.asarray(model.cumulative_hazard(xs)),
                        -np.log(np.asarray(model.sf(xs))), rtol=1e-12)


class TestQuantile:
    @given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    @settings(max_examples=200, deadline=None)
    def test_weibull_g_round_trip(self, u):
        model = WeibullG(4.8, 3.0, 2.5)
        assert abs(model.cdf(model.quantile(u)) - u) <= 1e-12

    def test_gompertz_makeham_round_trip_vectorized(self):
        model = GompertzMakeham(4.8, 2.5, 1.0)
        u = np.linspace(1e-6, 1.0 - 1e-6, 500)
        assert np.max(np.abs(np.asarray(model.cdf(model.quantile(u))) - u)) <= 1e-12

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_levels_outside_open_unit_interval(self, bad):
        with pytest.raises(ValueError):
            WeibullG(1.0, 1.0, 1.0).quantile(bad)
        with pytest.raises(ValueError):
            GompertzMakeham(1.0, 1.0, 1.0).quantile(bad)

    def test_quantile_strictly_increasing(self):
        u = np.linspace(0.01, 0.99, 99)
        for model in (WeibullG(1.5, 2.0, 0.8), GompertzMakeham(0.4, 0.9, 2.0)):
            q = np.asarray(model.quantile(u))
            assert np.all(np.diff(q) > 0.0)

    @pytest.mark.parametrize("model", [
        GompertzMakeham(1.0, 1.0, 1.0),
        GompertzMakeham(4.8, 2.5, 1.0),
        GompertzMakeham(1e-3, 1e2, 1e-3),
        GompertzMakeham(1e2, 1e-3, 1e2),
    ])
    def test_gompertz_makeham_within_4_ulp_of_exact_root(self, model):
        # bisection on the flat upper cdf was off by ~1e14 ulp at 1 - 2**-53
        levels = [np.finfo(float).eps, 1e-10, 0.5, 1.0 - 1e-10, 1.0 - 2.0**-53]
        got = np.asarray(model.quantile(np.array(levels)))
        with mpmath.workdps(60):
            a, b, lam = (mpmath.mpf(v) for v in (model.alpha, model.beta, model.lam))
            for u, x in zip(levels, got):
                y = -mpmath.log1p(-mpmath.mpf(u))
                root = mpmath.findroot(lambda t: lam * t + a / b * mpmath.expm1(b * t) - y,
                                       mpmath.mpf(float(x)))
                assert abs(mpmath.mpf(float(x)) - root) <= 4 * np.spacing(float(root))

    def test_gompertz_makeham_call_budget(self, monkeypatch):
        # Newton from above converges in a few rounds; bisection took ~55 cdf calls
        calls = []
        evaluate = GompertzMakeham.cumulative_hazard

        def counting(self, x):
            calls.append(x)
            return evaluate(self, x)

        monkeypatch.setattr(GompertzMakeham, "cumulative_hazard", counting)
        u = np.random.default_rng(7).random(100_000)
        u[:2] = np.finfo(float).eps, np.nextafter(1.0, 0.0)
        for model in (GompertzMakeham(4.8, 2.5, 1.0), GompertzMakeham(1e-3, 1e2, 1e-3),
                      GompertzMakeham(1e2, 1e-3, 1e2), GompertzMakeham(0.2, 0.3, 0.1)):
            calls.clear()
            model.quantile(u)
            assert len(calls) <= 10

    def test_gompertz_makeham_residual_check_raises(self):
        class Skewed(GompertzMakeham):
            def cdf(self, x):
                return np.asarray(super().cdf(x)) + 1e-9

        with pytest.raises(ConvergenceError):
            Skewed(1.0, 1.0, 1.0).quantile(np.array([0.25, 0.5]))


def _counted_search(sf, tail):
    """The tail point of a single survival function and the sf calls it took."""
    calls = []

    def counting_sf(x):
        calls.append(x)
        return sf(x)

    return float(_support_upper(counting_sf, tail)[0]), len(calls)


class TestSupportUpper:
    @pytest.mark.parametrize("model", [
        WeibullG(4.8, 3.0, 2.5),
        WeibullG(0.25, 0.8, 0.5),
        GompertzMakeham(4.8, 2.5, 1.0),
        GompertzMakeham(0.2, 0.3, 0.1),
    ])
    def test_brackets_the_tail_crossing(self, model):
        upper = model.support_upper(1e-6)
        assert float(model.sf(upper)) <= 1e-6
        assert float(model.sf(0.99 * upper)) > 1e-6

    def test_rejects_bad_tail(self):
        with pytest.raises(ValueError):
            WeibullG(1.0, 1.0, 1.0).support_upper(0.0)

    @pytest.mark.parametrize("model", [
        WeibullG(4.8, 3.0, 2.5),
        WeibullG(0.25, 0.8, 0.5),
        GompertzMakeham(4.8, 2.5, 1.0),
        GompertzMakeham(0.2, 0.3, 0.1),
    ])
    @pytest.mark.parametrize("tail", [1e-6, 1e-12])
    def test_call_budget(self, model, tail):
        # one power-of-two probe plus 3 or 4 secant-guided rounds, where
        # evenly spaced points alone would take 8 rounds and scalar
        # bisection 81 calls
        _, calls = _counted_search(model.sf, tail)
        assert calls <= 6

    @pytest.mark.parametrize("sf, tail, exact", [
        (lambda x: np.exp(-np.floor(4.0 * np.asarray(x))), 0.5, 0.25),
        (lambda x: np.exp(-np.floor(4.0 * np.asarray(x))), 1e-6, 3.5),
        (lambda x: np.exp(-np.asarray(x) ** 0.05), 0.5, None),
        (lambda x: np.exp(-np.asarray(x) ** 0.05), 1e-3, None),
    ])
    def test_call_budget_when_the_secant_misleads(self, sf, tail, exact):
        # a staircase and a cumulative hazard flat in x defeat the secant
        # estimate; the evenly spaced points still shrink the bracket
        # 64-fold a round
        upper, calls = _counted_search(sf, tail)
        assert calls <= 12
        assert sf(upper) <= tail < sf(np.nextafter(upper, 0.0))
        if exact is not None:
            assert upper == exact

    @pytest.mark.parametrize("step", [3.7, 1e-9])
    def test_step_sf_returns_the_exact_step(self, step):
        # 1e-9 lies below the first probe 2**-20, so the bracket starts at 0;
        # a step defeats the secant estimate, as in the test above
        def step_sf(x):
            return np.where(np.asarray(x) < step, 1.0, 0.0)

        upper, calls = _counted_search(step_sf, 0.5)
        assert upper == step
        assert calls <= 12

    def test_convergence_error_when_tail_unreachable(self):
        def flat_sf(x):
            return np.full_like(np.asarray(x, dtype=float), 0.5)

        with pytest.raises(ConvergenceError):
            _support_upper(flat_sf, 1e-6)


class TestDomainAndValidation:
    def test_reversed_hazard_undefined_at_zero(self):
        with pytest.raises(EvaluationDomainError):
            WeibullG(1.0, 1.0, 1.0).reversed_hazard(0.0)
        with pytest.raises(EvaluationDomainError):
            GompertzMakeham(1.0, 1.0, 1.0).reversed_hazard(np.array([0.0, 0.5]))

    @pytest.mark.parametrize("kwargs", [
        {"alpha": 0.0, "beta": 1.0, "gamma": 1.0},
        {"alpha": 1.0, "beta": -2.0, "gamma": 1.0},
        {"alpha": 1.0, "beta": 1.0, "gamma": float("nan")},
    ])
    def test_weibull_g_rejects_nonpositive_parameters(self, kwargs):
        with pytest.raises(ValueError):
            WeibullG(**kwargs)

    def test_gompertz_makeham_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            GompertzMakeham(alpha=1.0, beta=0.0, lam=1.0)
        with pytest.raises(ValueError):
            GompertzMakeham(alpha=1.0, beta=1.0, lam=-1.0)

    def test_scalar_in_scalar_out_array_in_array_out(self):
        model = WeibullG(1.5, 2.0, 0.8)
        assert isinstance(model.cdf(0.5), float)
        out = model.cdf(np.array([0.2, 0.5, 0.9]))
        assert isinstance(out, np.ndarray) and out.shape == (3,)

    def test_baseline_kind_is_validated(self):
        with pytest.raises(ValueError):
            Baseline(kind="weird", cdf=lambda t: t, pdf=lambda t: t,
                     odds=OddsFn.exponential())


class TestCustomBaseline:
    def test_user_supplied_exponential_matches_builtin(self):
        custom = Baseline.user_supplied(
            cdf=lambda t: -np.expm1(-np.asarray(t, dtype=float)),
            pdf=lambda t: np.exp(-np.asarray(t, dtype=float)),
        )
        a, b = WeibullG(1.5, 2.0, 0.8), WeibullG(1.5, 2.0, 0.8, baseline=custom)
        xs = np.linspace(0.05, 1.5, 50)
        # cdf and hazard only touch w and w', both analytic for user baselines
        assert_allclose(np.asarray(b.cdf(xs)), np.asarray(a.cdf(xs)), rtol=1e-12)
        assert_allclose(np.asarray(b.hazard(xs)), np.asarray(a.hazard(xs)), rtol=1e-12)

    def test_uniform_baseline_odds_and_saturation(self):
        # F(t) = t/2 on [0, 2]: w(t) = t / (2 - t), w'(t) = 2 / (2 - t)^2
        uniform = Baseline.user_supplied(
            cdf=lambda t: np.clip(np.asarray(t, dtype=float) / 2.0, 0.0, 1.0),
            pdf=lambda t: np.where(np.asarray(t, dtype=float) < 2.0, 0.5, 0.0),
        )
        model = WeibullG(2.0, 1.5, 1.0, baseline=uniform)
        x = 0.8
        w = 0.8 / 1.2
        expected_chf = 2.0 * w**1.5
        assert_allclose(model.cumulative_hazard(x), expected_chf, rtol=1e-12)
        assert model.cdf(2.5) == 1.0  # baseline saturated: odds infinite

    def test_user_odds_derivative_matches_exponential(self):
        odds = EXPONENTIAL_STANDARD.odds
        custom = OddsFn.from_cdf_pdf(
            cdf=lambda t: -np.expm1(-np.asarray(t, dtype=float)),
            pdf=lambda t: np.exp(-np.asarray(t, dtype=float)),
        )
        ts = np.linspace(0.1, 2.0, 16)
        assert_allclose(custom.d1(ts), odds.d1(ts), rtol=1e-12)

    def test_quantile_convergence_error_when_mass_unreachable(self):
        from stochord.models import _invert_cdf

        def plateau(x):
            # cdf stuck at 0.3 never brackets the 0.9 level
            return np.full_like(np.asarray(x, dtype=float), 0.3)

        with pytest.raises(ConvergenceError):
            _invert_cdf(plateau, np.array([0.9]))
