"""Verification bench tests: every scenario passes on seeded batches, the
reports are deterministic, and the hypothesis-violation probes behave as
documented.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from stochord import (
    SCENARIO_IDS,
    BenchReport,
    Grid,
    SystemSpec,
    TheoremScenario,
    certify,
    counterexample_probe,
    run_scenario,
)
from stochord.bench import _SCENARIOS, _TOLERANCE, _stack
from stochord.models import GompertzMakeham
from stochord.orders import certify_rows
from stochord.montecarlo import _stream


class TestScenarioBatches:
    @pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
    def test_all_instances_pass(self, scenario_id):
        report = run_scenario(TheoremScenario(scenario_id, count=25, seed=0))
        assert isinstance(report, BenchReport)
        assert report.all_passed, report.summary_lines()
        assert report.violation_count == 0
        assert report.failures == ()
        assert report.worst_margin >= -report.tolerance
        assert report.tolerance == 1e-9

    def test_reports_are_deterministic(self):
        first = run_scenario(TheoremScenario("T3.4", count=10, seed=3))
        second = run_scenario(TheoremScenario("T3.4", count=10, seed=3))
        assert first.worst_margin == second.worst_margin
        assert first.passed == second.passed
        assert np.array_equal(first.curve.x, second.curve.x)
        assert np.array_equal(first.curve.diff, second.curve.diff)

    def test_different_seeds_draw_different_instances(self):
        a = run_scenario(TheoremScenario("T3.2", count=5, seed=0))
        b = run_scenario(TheoremScenario("T3.2", count=5, seed=99))
        assert a.worst_margin != b.worst_margin

    def test_scenario_validation(self):
        with pytest.raises(ValueError, match="unknown scenario id"):
            TheoremScenario("T9.9")
        with pytest.raises(ValueError):
            TheoremScenario("T3.1", count=0)
        for grid_count in (0, 1, 15):
            with pytest.raises(ValueError, match="grid_count must be at least 16"):
                TheoremScenario("T3.1", grid_count=grid_count)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "0", None])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            TheoremScenario("T3.1", seed=seed)

    # a float count or grid size used to fail inside the batch with a bare
    # TypeError, and count=True ran one instance reported as "1/True"
    @pytest.mark.parametrize("field, value", [
        ("count", 2.5), ("count", True), ("grid_count", 100.5), ("grid_count", True),
    ])
    def test_count_and_grid_count_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            TheoremScenario("T3.1", **{field: value})

    def test_numpy_integer_seed_runs_as_its_int(self):
        a = run_scenario(TheoremScenario("T3.2", count=2, seed=np.int64(7)))
        b = run_scenario(TheoremScenario("T3.2", count=2, seed=7))
        assert a.worst_margin == b.worst_margin and a.summary_lines() == b.summary_lines()


# (passed, repr(worst_margin)) for every scenario at count 40, seed 0
GOLDEN_40 = {
    "T3.1": (40, "1.4155776191400932e-12"),
    "T3.2": (40, "4.329103477937803e-14"),
    "T3.3": (40, "2.6468193952633355e-14"),
    "T3.4": (40, "1.0737767297541723e-07"),
    "T3.5": (40, "0.0"),
    "T4.1": (40, "1.5375567485875763e-08"),
    "T4.2": (40, "1.1851721382072355e-07"),
    "T4.3": (40, "8.223395298045943e-10"),
    "T4.4": (40, "3.212705188396487e-07"),
    "T4.5": (40, "0.0"),
}


class TestGolden:
    @pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
    def test_pass_count_and_worst_margin_are_pinned(self, scenario_id):
        report = run_scenario(TheoremScenario(scenario_id, count=40, seed=0))
        assert (report.passed, repr(report.worst_margin)) == GOLDEN_40[scenario_id]


# (passed, repr(worst_margin), failure indices) of each applicable
# hypothesis probe at count 40, seed 0
PROBE_GOLDEN_40 = {
    ("T3.1", "pn"): (18, "-68.51435853257999", (2, 3, 6, 9, 10, 12, 13, 14, 18, 19, 21, 23,
                                                25, 27, 28, 29, 30, 31, 33, 37, 38, 39)),
    ("T3.2", "pn"): (19, "-93.66149827934669", (0, 1, 2, 3, 4, 7, 8, 9, 11, 13, 17, 20, 22,
                                                24, 25, 27, 29, 31, 34, 36, 37)),
    ("T3.3", "pn"): (8, "-33.16084164605087", (0, 1, 2, 3, 4, 5, 6, 8, 9, 11, 12, 13, 14, 15,
                                               17, 18, 20, 22, 23, 24, 25, 26, 27, 28, 29,
                                               30, 31, 33, 34, 35, 36, 37)),
    ("T4.1", "pn"): (0, "-7.882320183249149", tuple(range(40))),
    ("T4.2", "pn"): (0, "-7.6536763156454555", tuple(range(40))),
    ("T4.3", "pn"): (0, "-5.72859612945016", tuple(range(40))),
    ("T3.1", "beta_ge_2"): (38, "-1.949871582298556", (7, 35)),
    ("T3.2", "beta_ge_2"): (40, "1.9009621979922814e-06", ()),
    ("T3.3", "beta_ge_2"): (39, "-0.0010783104726215242", (38,)),
}


class TestProbeGolden:
    @pytest.mark.parametrize("scenario_id, hypothesis", PROBE_GOLDEN_40)
    def test_probe_outcome_is_pinned(self, scenario_id, hypothesis):
        report = counterexample_probe(TheoremScenario(scenario_id, count=40, seed=0), hypothesis)
        assert (report.passed, repr(report.worst_margin),
                tuple(f.index for f in report.failures)) == \
            PROBE_GOLDEN_40[(scenario_id, hypothesis)]


class TestPinnedCurves:
    def test_series_hazard_curve_dominates(self):
        report = run_scenario(TheoremScenario("T3.1", count=1, seed=0, grid_count=2048))
        curve = report.curve
        assert curve is not None
        assert curve.x.size == 2048
        assert np.all(np.diff(curve.x) > 0)
        assert_allclose(curve.diff, curve.lhs - curve.rhs, rtol=0, atol=0)
        assert np.all(curve.diff >= -1e-10)

    def test_rate_sweep_invariance_is_enforced(self):
        # instance 0 of T4.1 runs the shared-rate sweep internally; a pass
        # means the hazard gap curve agreed across rates to 1e-12
        report = run_scenario(TheoremScenario("T4.1", count=1, seed=0))
        assert report.all_passed
        assert np.all(report.curve.diff >= -1e-10)

    def test_lowered_rate_sum_curve_orders_survivals(self):
        report = run_scenario(TheoremScenario("T4.4", count=1, seed=0))
        assert np.all(report.curve.diff >= -1e-9)


class TestSumInvariance:
    """T4.4's judge compares the series survival of two rate vectors with one
    exact sum; a sum off by one 2^-20 step must fail it."""

    @staticmethod
    def _judge(shift):
        draw = _SCENARIOS["T4.4"].draw(_stream(0, 0), 0, None)
        systems = [params.copy() for params in draw.systems]
        systems[1][2, 0] += shift
        xs = run_scenario(TheoremScenario("T4.4", count=1, seed=0)).curve.x
        values = _stack(GompertzMakeham, "series", systems).sf(np.tile(xs, (3, 1)))
        verdicts = certify_rows("st", [values[0]], [values[2]], [xs], tolerance=_TOLERANCE)
        return draw.judge(verdicts, values), values

    def test_equal_sums_pass(self):
        assert self._judge(0.0)[0] == (True, "")

    def test_sum_off_by_one_dyadic_step_fails(self):
        (ok, detail), values = self._judge(2.0**-20)
        assert not ok
        assert "not sum-invariant" in detail
        # the survival ratio is exp(-2^-20 x), about 1e-6 x off
        assert np.abs(values[1] / values[0] - 1.0).max() > 1e-7


class TestSummaryLines:
    def test_success_summary_shape(self):
        report = run_scenario(TheoremScenario("T3.5", count=5, seed=0))
        lines = report.summary_lines()
        assert lines[0] == "T3.5: 5/5 instances passed"
        assert lines[1].startswith("  claim: parallel Weibull-G")
        assert "worst margin" in lines[2] and "seed 0" in lines[2]

    def test_probe_summary_reports_violations(self):
        report = counterexample_probe(TheoremScenario("T3.1", count=60, seed=0), "pn")
        assert report.disabled_hypothesis == "pn"
        assert report.violation_count == 30
        assert "(hypothesis 'pn' disabled, 30 empirical violations)" in report.summary_lines()[0]
        assert len(report.failures) == 30


class TestProbes:
    def test_none_probe_matches_plain_run(self):
        scenario = TheoremScenario("T3.3", count=6, seed=2)
        plain = run_scenario(scenario)
        probed = counterexample_probe(scenario, None)
        named = counterexample_probe(scenario, "none")
        assert plain.worst_margin == probed.worst_margin == named.worst_margin
        assert plain.passed == probed.passed == named.passed

    def test_pn_probe_breaks_ordered_rows_everywhere_for_shared_rate(self):
        report = counterexample_probe(TheoremScenario("T4.1", count=60, seed=0), "pn")
        assert report.violation_count == 60

    def test_beta_probe_runs_and_is_recorded(self):
        report = counterexample_probe(TheoremScenario("T3.1", count=40, seed=0), "beta_ge_2")
        assert report.disabled_hypothesis == "beta_ge_2"
        assert report.passed + report.violation_count == report.count

    def test_probe_rejects_inapplicable_hypothesis(self):
        with pytest.raises(ValueError, match="does not apply"):
            counterexample_probe(TheoremScenario("T3.4", count=2), "pn")
        with pytest.raises(ValueError, match="does not apply"):
            counterexample_probe(TheoremScenario("T4.1", count=2), "beta_ge_2")


class TestMatchesSinglePair:
    @pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
    @pytest.mark.parametrize("seed", range(5))
    def test_exported_curve_is_the_single_pair_verdicts(self, scenario_id, seed):
        scenario = TheoremScenario(scenario_id, count=6, seed=seed)
        spec = _SCENARIOS[scenario_id]
        draw = spec.draw(_stream(seed, 0), 0, None)
        systems = [SystemSpec(tuple(spec.family(*map(float, column)) for column in params.T),
                              spec.structure) for params in draw.systems]
        grid = Grid.for_models(*(systems[i] for i in draw.tail), count=scenario.grid_count,
                               span_decades=spec.span_decades)
        alone = certify(spec.order, systems[0], systems[-1], grid=grid, tolerance=_TOLERANCE).curve
        batched = run_scenario(scenario).curve
        for field in ("x", "lhs", "rhs", "diff"):
            assert getattr(batched, field).tobytes() == getattr(alone, field).tobytes(), field
