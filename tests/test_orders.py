"""Order certification tests: grid construction, the four certifiers and
their truncation semantics, the analytic sign lemmas, and the Schur
condition checker.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from stochord import (
    ORDERS,
    Baseline,
    EvaluationDomainError,
    GompertzMakeham,
    Grid,
    OrderVerdict,
    STRUCTURES,
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
from stochord.orders import _QUANTITY, certify_rows, grid_points

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

    def test_explicit_x_max(self):
        grid = Grid.for_models(count=64, x_max=2.0)
        assert grid.points[-1] == 2.0
        assert_allclose(grid.points[0], 2e-4, rtol=1e-12)

    @pytest.mark.parametrize("points", [
        np.linspace(0.1, 1.0, 8),             # too few
        np.linspace(-0.5, 1.0, 32),           # nonpositive
        np.ones(32),                          # not increasing
    ])
    def test_point_validation(self, points):
        with pytest.raises(ValueError):
            Grid(points=points)

    def test_missing_input_validation(self):
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
        by_hazard = certify_hr(SMALLER, LARGER)
        assert by_hazard.holds and by_hazard.method == "hazard"

    def test_rh_excludes_zero_cdf_points(self):
        deep = Grid(points=np.geomspace(1e-200, 1.0, 32))
        verdict = certify_rh(SMALLER, LARGER, grid=deep)
        assert verdict.holds and verdict.truncated
        assert verdict.grid_count < 32
        # the curve holds every grid point; the slack is not finite exactly where a cdf is 0
        curve = verdict.curve
        assert np.array_equal(curve.x, deep.points)
        zero = (SMALLER.cdf(deep.points) == 0.0) | (LARGER.cdf(deep.points) == 0.0)
        assert zero.any() and not zero.all()
        assert np.array_equal(~np.isfinite(curve.diff), zero)
        assert verdict.grid_count == np.isfinite(curve.diff).sum()

    def test_lr_excludes_zero_density_points(self):
        far = Grid(points=np.geomspace(0.1, 50.0, 64))
        verdict = certify_lr(SMALLER, LARGER, grid=far)
        assert verdict.holds and verdict.truncated
        curve = verdict.curve
        assert np.array_equal(curve.x, far.points)
        pdfs = np.stack([SMALLER.pdf(far.points), LARGER.pdf(far.points)])
        bad = ((pdfs <= 0.0) | ~np.isfinite(pdfs)).any(axis=0)
        assert bad.any() and not bad.all()
        # an increment is not finite exactly where either of its ends is bad
        slack = curve.diff[1:]
        assert np.array_equal(~np.isfinite(slack), bad[1:] | bad[:-1])
        assert verdict.grid_count == np.isfinite(slack).sum()

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
        assert certify_st(SMALLER, LARGER, tolerance=0.0).tolerance == 0.0

    @pytest.mark.parametrize("tolerance", [math.inf, -math.inf, math.nan, -1.0])
    def test_explicit_tolerance_must_be_finite_and_nonnegative(self, tolerance):
        # the quick-start pair, whose st slack is >= 0 everywhere: inf and nan
        # would be reported as the tolerance, and -1 would fail with a witness
        source = SystemSpec((WeibullG(4.8, 3.0, 2.5), WeibullG(3.4, 3.0, 1.6)), "series")
        averaged = SystemSpec((WeibullG(4.03, 3.0, 2.005), WeibullG(4.17, 3.0, 2.095)), "series")
        with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
            certify_st(source, averaged, tolerance=tolerance)

    def test_holds_iff_margin_within_tolerance(self):
        for order in ("st", "hr", "rh", "lr"):
            for pair in ((SMALLER, LARGER), (LARGER, SMALLER)):
                v = certify(order, *pair)
                assert v.holds == (v.margin >= -v.tolerance)

    def test_dispatcher_validation(self):
        with pytest.raises(ValueError):
            certify("total", SMALLER, LARGER)

    @pytest.mark.parametrize("order", ORDERS)
    def test_only_models_and_systems_are_certified(self, order):
        # a stand-in with every evaluator is not duck-typed into a lifetime
        grid = Grid(points=np.geomspace(1.0, 10.0, 16))
        for pair in ((_Undefined(), LARGER), (SMALLER, "weibull-g")):
            with pytest.raises(TypeError):
                certify(order, *pair, grid=grid)

    def test_verdict_is_frozen_record(self):
        verdict = certify_st(SMALLER, LARGER)
        assert isinstance(verdict, OrderVerdict)
        with pytest.raises(AttributeError):
            verdict.holds = False


_WG_COMPONENT = st.builds(WeibullG, st.floats(0.1, 5.0), st.floats(0.3, 5.0), st.floats(0.3, 5.0))
_GM_COMPONENT = st.builds(GompertzMakeham, st.floats(0.05, 3.0), st.floats(0.1, 3.0),
                          st.floats(0.05, 3.0))


@st.composite
def _system_pairs(draw, structures=("parallel",)):
    component = draw(st.sampled_from([_WG_COMPONENT, _GM_COMPONENT]))
    structure = draw(st.sampled_from(structures))
    f, g = (SystemSpec(tuple(draw(st.lists(component, min_size=1, max_size=4))), structure)
            for _ in range(2))
    return f, g


# the standard exponential through Baseline.user_supplied: its odds have no
# closed-form inverse, so a lifetime with it has no tail bracket
_USER_EXPONENTIAL = Baseline.user_supplied(lambda t: -np.expm1(-t), lambda t: np.exp(-t))
_USER_WG_COMPONENT = st.builds(WeibullG, st.floats(0.1, 5.0), st.floats(0.3, 5.0),
                               st.floats(0.3, 5.0), st.just(_USER_EXPONENTIAL))
_COMPONENTS = [_WG_COMPONENT, _GM_COMPONENT, _USER_WG_COMPONENT]


@st.composite
def _distributions(draw):
    """A bare model, or a series or parallel system of 1-8 components of one
    kind or of mixed kinds; a Weibull-G may take a user-supplied baseline."""
    component = draw(st.sampled_from(_COMPONENTS + [st.one_of(_COMPONENTS)]))
    structure = draw(st.sampled_from([None, *STRUCTURES]))
    if structure is None:
        return draw(component)
    return SystemSpec(tuple(draw(st.lists(component, min_size=1, max_size=8))), structure)


@st.composite
def _grid_end_lifetimes(draw):
    """One to three lifetimes: a first one, then independent ones or equal or
    permuted copies of it."""
    first = draw(_distributions())
    lifetimes = [first]
    for kind in draw(st.lists(st.sampled_from(["independent", "equal", "permuted"]), max_size=2)):
        if kind == "independent":
            lifetimes.append(draw(_distributions()))
        elif kind == "permuted" and isinstance(first, SystemSpec):
            lifetimes.append(SystemSpec(tuple(draw(st.permutations(first.components))),
                                        first.structure))
        else:
            lifetimes.append(copy.copy(first))
    return lifetimes


class TestJointGridEnd:
    @given(_grid_end_lifetimes())
    @settings(max_examples=150, deadline=None)
    def test_grid_ends_at_the_largest_tail_point(self, dists):
        end = Grid.for_models(*dists, count=16).points[-1]
        assert end == max(d.support_upper() for d in dists)
        # where the pointwise maximum of the survivals falls to the tail
        joint = [max(float(d.sf(x)) for d in dists) for x in (end, np.nextafter(end, 0.0))]
        assert joint[0] <= 1e-6 < joint[1]


class _Undefined:
    """A stand-in with every lifetime evaluator, each NaN everywhere."""

    def __getattr__(self, name):
        return lambda x: np.full(np.shape(x), np.nan)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bit for bit, NaN matching NaN."""
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


class TestNonFiniteSlack:
    def test_parallel_reference_example_fails_hr_with_finite_margin(self):
        # the parallel hazard used to be inf where sf underflowed: margin -inf
        # and tolerance inf read as holds. The exact slack is below -142 on
        # the last tenth of the grid (mpmath); with the log1mexp log cdf the
        # sf no longer underflows there, so every grid point is kept.
        # test_parallel_tail pins the margin against mpmath.
        f = SystemSpec((WeibullG(4.8, 3.0, 2.5), WeibullG(3.4, 3.0, 1.6)), "parallel")
        g = SystemSpec((WeibullG(4.03, 3.0, 2.005), WeibullG(4.17, 3.0, 2.095)), "parallel")
        verdict = certify_hr(f, g)
        assert not verdict.holds and not verdict.truncated
        assert -1e3 < verdict.margin < -142.0
        assert math.isfinite(verdict.tolerance) and verdict.tolerance < 1e-3
        assert verdict.grid_count == 2048

    @given(_system_pairs(), st.sampled_from(ORDERS), st.sampled_from([None, 10.0, 50.0]))
    @settings(max_examples=150, deadline=None)
    def test_verdicts_on_parallel_systems_are_finite(self, pair, order, x_max):
        # x_max past the support drives the hazards to inf - inf
        grid = Grid.for_models(*pair, count=256, x_max=x_max)
        verdict = certify(order, *pair, grid=grid)
        assert math.isfinite(verdict.margin) and math.isfinite(verdict.tolerance)
        assert verdict.holds == (verdict.margin >= -verdict.tolerance)

    @pytest.mark.parametrize("order, pair, points", [
        # past the support both parallel hazards are inf
        ("hr", (SystemSpec((SMALLER,), "parallel"), SystemSpec((LARGER,), "parallel")),
         np.geomspace(1e3, 1e4, 16)),
        # both cdfs are 0
        ("rh", (SMALLER, LARGER), np.geomspace(1e-300, 1e-200, 16)),
        # both densities are 0
        ("lr", (SMALLER, LARGER), np.geomspace(1e3, 1e4, 16)),
    ], ids=ORDERS[1:])
    def test_no_finite_slack_raises(self, order, pair, points):
        with pytest.raises(EvaluationDomainError, match=f"no grid point has a finite {order}"):
            certify(order, *pair, grid=Grid(points=points))

    def test_undefined_st_rows_raise(self):
        # no lifetime has an undefined sf; rows of NaN stand in for one
        xs = np.geomspace(1.0, 10.0, 16)
        undefined = np.full(xs.shape, np.nan)
        with pytest.raises(EvaluationDomainError, match="no grid point has a finite st"):
            certify_rows("st", [undefined], [undefined], [xs])


def _rh_rows(f, g, xs):
    """Both reversed hazards on xs, NaN where either cdf is 0, and where both are defined."""
    defined = (f.cdf(xs) > 0.0) & (g.cdf(xs) > 0.0)
    f_row, g_row = np.full(xs.shape, np.nan), np.full(xs.shape, np.nan)
    f_row[defined], g_row[defined] = f.reversed_hazard(xs[defined]), g.reversed_hazard(xs[defined])
    return f_row, g_row, defined


class TestRows:
    @given(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=6),
           st.sampled_from([2.5, 4.0]))
    @settings(max_examples=60, deadline=None)
    def test_grid_rows_match_single_grids(self, ends, span):
        rows = grid_points(np.array(ends), 64, span)
        for end, row in zip(ends, rows):
            single = Grid.for_models(count=64, x_max=end, span_decades=span)
            assert np.array_equal(row, single.points)

    @given(_system_pairs(), st.sampled_from(ORDERS),
           st.sampled_from([None, 1e-9]))
    @settings(max_examples=60, deadline=None)
    def test_row_verdicts_match_the_certifiers(self, pair, order, tolerance):
        f, g = pair
        grid = Grid.for_models(f, g, count=128)
        xs = grid.points
        quantity = {"st": "sf", "hr": "hazard", "rh": "reversed_hazard", "lr": "pdf"}[order]
        if order == "rh":
            f_row, g_row, _ = _rh_rows(f, g, xs)
        else:
            f_row, g_row = getattr(f, quantity)(xs), getattr(g, quantity)(xs)
        rows = certify_rows(order, [f_row, f_row], [g_row, g_row], [xs, xs],
                            tolerance=tolerance)
        single = certify(order, f, g, grid=grid, tolerance=tolerance)
        assert rows == [single, single]
        for row in rows:
            for name in ("x", "lhs", "rhs", "diff"):
                assert _same(getattr(row.curve, name), getattr(single.curve, name))

    @given(st.lists(st.tuples(_system_pairs(STRUCTURES), st.sampled_from([None, 50.0]),
                              st.sets(st.integers(0, 63), max_size=3),
                              st.sampled_from([np.nan, np.inf, -np.inf])),
                    min_size=1, max_size=5),
           st.sampled_from(ORDERS), st.sampled_from([None, 1e-9]))
    @settings(max_examples=150, deadline=None)
    def test_rows_of_different_pairs_match_their_one_row_calls(self, batch, order, tolerance):
        # each row is its own pair on its own grid; x_max = 50 runs past the
        # support, and the spoiled points put NaN or inf into the lower side
        rows, clean = [], []
        for (f, g), x_max, spoiled, bad in batch:
            xs = Grid.for_models(f, g, count=64, x_max=x_max).points
            f_row, g_row = (getattr(d._stack, _QUANTITY[order])(xs) for d in (f, g))
            f_row[sorted(spoiled)] = bad
            rows.append((f_row, g_row, xs))
            clean.append(None if spoiled else (f, g, Grid(points=xs)))
        try:
            singles = [certify_rows(order, [f_row], [g_row], [xs], tolerance)[0]
                       for f_row, g_row, xs in rows]
        except EvaluationDomainError:
            with pytest.raises(EvaluationDomainError):
                certify_rows(order, *zip(*rows), tolerance=tolerance)
            return
        verdicts = certify_rows(order, *map(np.stack, zip(*rows)), tolerance=tolerance)
        assert verdicts == singles
        for verdict, single, pair in zip(verdicts, singles, clean):
            for name in ("x", "lhs", "rhs", "diff"):
                assert _same(getattr(verdict.curve, name), getattr(single.curve, name))
            if pair is not None:
                assert verdict == certify(order, *pair[:2], grid=pair[2], tolerance=tolerance)

    def test_rows_marked_nan_where_a_cdf_is_zero_match_certify_rh(self):
        # the property test's grids never reach a zero cdf; this one starts where both are 0
        xs = np.geomspace(1e-200, 1.0, 32)
        f_row, g_row, defined = _rh_rows(SMALLER, LARGER, xs)
        assert not defined[0] and defined[-1]
        [row] = certify_rows("rh", [f_row], [g_row], [xs])
        single = certify_rh(SMALLER, LARGER, grid=Grid(points=xs))
        assert row == single and row.truncated
        assert row.grid_count == defined.sum()
        for name in ("x", "lhs", "rhs", "diff"):
            assert _same(getattr(row.curve, name), getattr(single.curve, name))

    def test_parallel_rh_keeps_points_where_only_the_system_cdf_underflows(self):
        # a component cdf of 0 leaves the lowest points undefined; above them
        # the parallel cdf, a product of positive component cdfs, still
        # underflows to 0, while each reversed hazard, a sum, is defined
        f = SystemSpec((WeibullG(2, 2, 1), WeibullG(1.5, 3, 1)), "parallel")
        g = SystemSpec((WeibullG(1, 2, 1), WeibullG(1, 3, 1)), "parallel")
        xs = np.geomspace(1e-200, 1.0, 64)
        verdict = certify_rh(f, g, grid=Grid(points=xs))
        [row] = certify_rows("rh", [f._stack.reversed_hazard(xs)],
                             [g._stack.reversed_hazard(xs)], [xs])
        assert verdict == row and verdict.grid_count == 34
        for name in ("x", "lhs", "rhs", "diff"):
            assert _same(getattr(verdict.curve, name), getattr(row.curve, name))
        judged = np.isfinite(verdict.curve.diff)
        assert (f.cdf(xs[judged]) == 0.0).any() and (g.cdf(xs[judged]) == 0.0).any()

    def test_unknown_order_raises(self):
        with pytest.raises(ValueError):
            certify_rows("total", [np.ones(16)], [np.ones(16)], [np.linspace(0.1, 1.0, 16)])

    def test_rows_of_unequal_count_raise(self):
        # zip would pair the first rows and drop the rest without a word
        xs = np.linspace(0.1, 1.0, 16)
        with pytest.raises(ValueError):
            certify_rows("st", [np.ones(16), np.ones(16)], [np.ones(16)], [xs, xs])
        with pytest.raises(ValueError):
            certify_rows("st", [np.ones(16)], [np.ones(16)], [xs, xs])

    @pytest.mark.parametrize("order", ORDERS)
    def test_one_excluded_point_truncates(self, order):
        # an undefined first point leaves one slack point out: lr's first increment
        xs = np.geomspace(0.1, 1.0, 16)
        f_row, g_row = np.ones(16), np.ones(16)
        f_row[0] = np.nan
        [verdict] = certify_rows(order, [f_row], [g_row], [xs])
        assert verdict.truncated and verdict.holds
        assert verdict.grid_count == (14 if order == "lr" else 15)

    def test_ragged_rows_raise(self):
        xs, longer = np.linspace(0.1, 1.0, 16), np.linspace(0.1, 1.0, 17)
        with pytest.raises(ValueError):
            certify_rows("st", [np.ones(16), np.ones(17)], [np.ones(16), np.ones(17)],
                         [xs, longer])
        with pytest.raises(ValueError):
            certify_rows("hr", [np.ones(16)], [np.ones(17)], [xs])
        with pytest.raises(ValueError):
            certify_rows("lr", [np.ones(17)], [np.ones(17)], [xs])

    @pytest.mark.parametrize("order", ORDERS)
    def test_zero_rows_give_no_verdicts(self, order):
        assert certify_rows(order, [], [], []) == []
        empty = np.empty((0, 16))
        assert certify_rows(order, empty, empty, empty, tolerance=1e-9) == []


class TestCurve:
    @given(_system_pairs(STRUCTURES), st.sampled_from(ORDERS),
           st.sampled_from([None, 50.0]))
    @settings(max_examples=200, deadline=None)
    def test_margin_and_witness_come_from_the_curve(self, pair, order, x_max):
        # x_max = 50 leaves inf and nan slack in the curve, past the support
        grid = Grid.for_models(*pair, count=256, x_max=x_max)
        verdict = certify(order, *pair, grid=grid)
        curve = verdict.curve
        assert curve.x.shape == curve.lhs.shape == curve.rhs.shape == curve.diff.shape
        # lr's first point has no increment
        first = 1 if verdict.method == "log-pdf-ratio" else 0
        diff, xs = curve.diff[first:], curve.x[first:]
        finite = np.isfinite(diff)
        worst = int(np.argmin(diff[finite]))
        assert verdict.margin == diff[finite][worst]
        assert verdict.witness_x == (None if verdict.holds else xs[finite][worst])
        assert verdict.truncated == (curve.x.size < grid.count or not finite.all())


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
            grid = Grid.for_models(f, g, count=512)
            lr = certify_lr(f, g, grid=grid)
            hr = certify_hr(f, g, grid=grid)
            stv = certify_st(f, g, grid=grid)
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
