"""Randomized verification bench for the ordering claims.

Each scenario id names one claim from the claim catalog (T3.x for the
Weibull-G family, T4.x for Gompertz-Makeham) and runs a batch of seeded
random instances through the order certifiers:

* T3.1 / T3.2 / T3.3: series Weibull-G with a shared shape in [2, 4];
  column-averaging T-transforms of the similarly ordered
  (alpha; gamma) matrix raise the system in the hazard rate order
  (single transform on 2 or n columns, or a chain whose intermediates
  are re-validated as similarly ordered).
* T3.4: parallel Weibull-G with shared beta and gamma; weak
  supermajorization of the alpha vector implies the reversed hazard
  order.
* T3.5: parallel Weibull-G with shared alpha and beta; weak
  supermajorization of the gamma vector implies the usual order.
* T4.1 / T4.2 / T4.3: the series claims for Gompertz-Makeham
  (alpha; beta) matrices with a shared Makeham rate; for T4.1 the
  hazard-gap curve is additionally checked to be invariant in that
  shared rate.
* T4.4: series Gompertz-Makeham with shared alpha and beta; survival
  depends on the rate vector only through its sum (a shuffled dyadic
  redistribution keeps it to rounding), and lowering the sum raises the
  system in the usual order.
* T4.5: parallel Gompertz-Makeham with shared alpha and beta; weak
  supermajorization of the rate vector implies the usual order.

Each scenario is one record of ``_SCENARIOS``: its claim text, the
hypotheses a probe may disable, its systems' family and structure, its
order, its grid span and its draw function. Instance 0 of each 2 x 2
single-transform claim (T3.1, T4.1) is pinned to the worked example
matrix [[4.8, 3.4], [2.5, 1.6]] with mixing weight 0.45 so the bench
always reproduces the reference curves; the report keeps that curve for
the CLI to export.

``counterexample_probe`` reruns a scenario with one named hypothesis
deliberately violated ("pn" samples matrices whose rows are oppositely
ordered; "beta_ge_2" samples the Weibull shape from [0.5, 2)) and
reports the empirical violation count without asserting a ground truth.

Reversed-hazard comparisons are certified on a grid spanning 2.5 decades
below x_max rather than the default 4: both reversed hazards diverge
like 1/x near the origin, and the narrower window keeps the certified
difference clear of float cancellation noise at the pinned tolerance.

A scenario runs as one batch, in three phases:

1. Draw every instance up front, each from its own generator seeded
   with ``SeedSequence((seed, index))``, in the same draw order as a
   single instance would use. A draw holds its systems as (3, n)
   parameter rows and the pairs of systems its claim orders.
2. Find every grid end by the ``Grid.for_models`` rule, the largest of
   the tail points of a draw's tail systems (both ends of a chain, both
   systems of a pair, only the first of T4.4's three), in one row-wise
   tail search per component count: each row is one tail system,
   evaluated on one stack of (S, 3, n) parameter arrays, and starts from
   its closed-form bracket (``SystemStack.tail_brackets``), which the
   first sf call checks for every row at once.
3. Build every draw's grid row in one ``grid_points`` call, then
   certify: draws of one component count are taken in blocks of at most
   8 systems (at the default 2048 grid points), each system is evaluated
   on its draw's grid row through one SystemStack, ``orders.certify_rows``
   judges all of a block's pairs in one pass of array operations, and
   each draw's judge reads its verdicts and those rows.

The report is assembled in index order. Each row of every phase is
bit-identical to evaluating, searching and certifying that instance on
its own with SystemSpec, Grid.for_models and certify_st, certify_hr or
certify_rh, which judge one row through the same certify_rows.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .majorization import TTransform, _apply_columns, generate_hypothesis_pair
from .models import _TAIL, EXPONENTIAL_STANDARD, GompertzMakeham, WeibullG, _support_upper
from .montecarlo import _stream
from .orders import (_DEFAULT_COUNT, _MIN_GRID, _QUANTITY, _SPAN_DECADES, Curve, OrderVerdict,
                     certify_rows, grid_points)
# the single-pair certifiers and lambda_aggregate_sf stay in this namespace,
# where perfbench's tracer and its self-tests look them up
from .orders import certify_hr, certify_rh, certify_st  # noqa: F401
from .systems import SystemStack, lambda_aggregate_sf  # noqa: F401

EXAMPLE_MATRIX = np.array([[4.8, 3.4], [2.5, 1.6]])
EXAMPLE_TRANSFORM = TTransform(lam=0.45, i=0, j=1)
EXAMPLE_WG_BETA = 3.0
EXAMPLE_GM_LAM = 1.0
_SWEEP_LAMS = (0.1, 1.0, 10.0)
_SWEEP_TOL = 1e-12
# the tolerance every bench verdict is judged against
_TOLERANCE = 1e-9
_RH_SPAN_DECADES = 2.5
_DYADIC = 2.0**20
# grid cells evaluated together: blocks of 8 systems at the default 2048
# points keep each slab array at 128 KiB, and peak memory near that of
# certifying one instance at a time
_SLAB_CELLS = 1 << 14


def _is_integer(value) -> bool:
    """An int or a numpy integer, but not a bool, which is an int too: a
    float would size the batch or seed its streams as its integer part."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class TheoremScenario:
    """One bench configuration: a claim id plus batch controls."""

    scenario_id: str
    count: int = 200
    seed: int = 0
    grid_count: int = _DEFAULT_COUNT

    def __post_init__(self):
        if self.scenario_id not in _SCENARIOS:
            raise ValueError(f"unknown scenario id {self.scenario_id!r}; "
                             f"known ids: {', '.join(SCENARIO_IDS)}")
        for name in ("count", "grid_count"):
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if not (_is_integer(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.grid_count < _MIN_GRID:
            raise ValueError(f"grid_count must be at least {_MIN_GRID}, got {self.grid_count}")


@dataclass(frozen=True)
class InstanceFailure:
    index: int
    detail: str
    margin: float
    witness_x: float | None


@dataclass(frozen=True, eq=False)
class BenchReport:
    """Batch outcome for one scenario (or one hypothesis-violating probe)."""

    scenario_id: str
    claim: str
    count: int
    seed: int
    grid_count: int
    tolerance: float
    passed: int
    worst_margin: float
    failures: tuple[InstanceFailure, ...]
    curve: Curve | None
    disabled_hypothesis: str | None = None

    @property
    def all_passed(self) -> bool:
        return self.passed == self.count

    @property
    def violation_count(self) -> int:
        return self.count - self.passed

    def summary_lines(self) -> list[str]:
        head = f"{self.scenario_id}: {self.passed}/{self.count} instances passed"
        if self.disabled_hypothesis:
            head += f" (hypothesis {self.disabled_hypothesis!r} disabled, " \
                    f"{self.violation_count} empirical violations)"
        lines = [head,
                 f"  claim: {self.claim}",
                 f"  worst margin {self.worst_margin:.3e} at tolerance {self.tolerance:.1e}, "
                 f"grid {self.grid_count}, seed {self.seed}"]
        for fail in self.failures[:5]:
            where = "" if fail.witness_x is None else f" at x={fail.witness_x:.6g}"
            lines.append(f"  instance {fail.index}: {fail.detail}{where} "
                         f"(margin {fail.margin:.3e})")
        if len(self.failures) > 5:
            lines.append(f"  ... {len(self.failures) - 5} more failures")
        return lines


def _params(first, second, third) -> np.ndarray:
    """(3, n) parameter rows in the family's declaration order: Weibull-G
    (alpha; beta; gamma), Gompertz-Makeham (alpha; beta; lambda). Each row
    is an n-vector or a value shared by every component."""
    out = np.empty((3, max(np.size(first), np.size(second), np.size(third))))
    out[0], out[1], out[2] = first, second, third
    return out


def _stack(family: type, structure: str, params: list[np.ndarray]) -> SystemStack:
    """The systems with these (3, n) parameter rows, stacked in order."""
    rows = np.stack(params)
    return SystemStack(structure, [(family, EXPONENTIAL_STANDARD)] * rows.shape[2], rows)


class _Draw(NamedTuple):
    """One drawn instance.

    ``systems`` holds each system's (3, n) parameter rows in the family's
    declaration order. Each pair (i, j) of ``pairs`` is a verdict that
    system i lies below system j in the scenario's order; the last pair is
    the first and last system, whose verdict's curve is exported. ``tail``
    names the systems whose tail points set the grid end. ``judge`` turns
    the verdicts and the systems' evaluated rows into (ok, failure detail).
    """

    systems: list[np.ndarray]
    pairs: list[tuple[int, int]]
    judge: Callable[[list[OrderVerdict], np.ndarray], tuple[bool, str]]
    tail: tuple[int, ...] = (0, -1)


def _holds_or(detail: str):
    def judge(verdicts: list[OrderVerdict], values: np.ndarray) -> tuple[bool, str]:
        ok = all(v.holds for v in verdicts)
        return ok, "" if ok else detail
    return judge


def _draw_hr_chain(
    rng: np.random.Generator,
    index: int,
    disabled: str | None,
    family: type,
    n_range: tuple[int, int],
    k_range: tuple[int, int],
) -> _Draw:
    # instance 0 of a 2 x 2 single-transform claim replays the worked example
    if index == 0 and disabled is None and n_range == (2, 2) and k_range == (1, 1):
        # the source matrix and its transform are valid parameter matrices,
        # so the transform skips apply_t_transform's checks
        mats = (EXAMPLE_MATRIX, _apply_columns(EXAMPLE_MATRIX, EXAMPLE_TRANSFORM))
        shared = EXAMPLE_WG_BETA if family is WeibullG else EXAMPLE_GM_LAM
        sweep = family is GompertzMakeham
    else:
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        if family is WeibullG:
            lo, hi = (0.5, 2.0) if disabled == "beta_ge_2" else (2.0, 4.0)
            shared = float(rng.uniform(lo, hi))
        else:
            shared = float(rng.uniform(0.1, 10.0))
        # the source matrix and each partially transformed one, in order
        mats = generate_hypothesis_pair(n, "chain", rng=rng, min_transforms=k_range[0],
                                        max_transforms=k_range[1],
                                        anti_ordered=disabled == "pn").steps
        sweep = False

    if family is WeibullG:
        systems = [_params(m[0], shared, m[1]) for m in mats]
    else:
        systems = [_params(m[0], m[1], shared) for m in mats]
    pairs = [(i, i + 1) for i in range(len(mats) - 1)]
    if len(mats) > 2:
        pairs.append((0, len(mats) - 1))

    def judge(verdicts: list[OrderVerdict], values: np.ndarray) -> tuple[bool, str]:
        holds = all(v.holds for v in verdicts)
        xs = verdicts[0].curve.x  # every verdict's curve holds the whole grid
        sweep_dev = _rate_sweep_deviation(mats[0], mats[-1], xs) if sweep else 0.0
        swept = sweep_dev <= _SWEEP_TOL
        detail = "hazard dominance violated" if not holds else (
            "" if swept else f"hazard gap varies with shared rate (dev {sweep_dev:.3e})")
        return holds and swept, detail

    return _Draw(systems, pairs, judge)


def _rate_sweep_deviation(source: np.ndarray, transformed: np.ndarray, xs: np.ndarray) -> float:
    """Largest change of the series hazard gap across the shared rates _SWEEP_LAMS."""
    params = [_params(m[0], m[1], lam) for lam in _SWEEP_LAMS for m in (source, transformed)]
    hazards = _stack(GompertzMakeham, "series", params).hazard(np.tile(xs, (len(params), 1)))
    gaps = hazards[0::2] - hazards[1::2]
    return float(np.ptp(gaps, axis=0).max())


def _draw_rh_parallel(rng: np.random.Generator, index: int, disabled: str | None) -> _Draw:
    n = int(rng.integers(2, 6))
    beta = float(rng.uniform(0.5, 4.0))
    gamma = float(rng.uniform(0.5, 5.0))
    pair = generate_hypothesis_pair(n, "weak_super", rng=rng)
    return _Draw([_params(pair.a, beta, gamma), _params(pair.b, beta, gamma)], [(0, 1)],
                 _holds_or("reversed hazard order violated"))


def _draw_st_parallel(rng: np.random.Generator, index: int, disabled: str | None,
                      beta_hi: float) -> _Draw:
    n = int(rng.integers(2, 6))
    pair = generate_hypothesis_pair(n, "weak_super", rng=rng)
    alpha = float(rng.uniform(0.5, 5.0))
    beta = float(rng.uniform(0.5, beta_hi))
    # the weakly supermajorized vector is gamma (Weibull-G) or lambda (Gompertz-Makeham)
    return _Draw([_params(alpha, beta, pair.a), _params(alpha, beta, pair.b)], [(0, 1)],
                 _holds_or("usual order violated"))


def _dyadic(values: np.ndarray) -> np.ndarray:
    """Snap to the 2^-20 grid so redistributions stay exact in floats."""
    return np.maximum(np.round(values * _DYADIC) / _DYADIC, 1.0 / _DYADIC)


def _draw_lambda_aggregate(rng: np.random.Generator, index: int, disabled: str | None) -> _Draw:
    """Systems 0 and 1 have rate vectors of one exact dyadic sum, system 2 a
    smaller sum; the pair (0, 2) is judged in the usual order.

    The judge first bounds the relative gap of the sf rows of systems 0 and
    1. Their sf is exp(-fl(H_1 + ... + H_n)), H_i = fl(fl(lam_i x) + g), with
    g = (alpha/beta) expm1(beta x) one float in both, so the exact totals
    agree. With u = eps/2, each H_i is within 2u H_i of lam_i x + g and the
    n - 1 additions add (n - 1) u H: each total is within (n + 1) u H, to
    first order. exp rounds within eps, so the gap is at most
    (n + 1) eps H + 2 eps <= 2 (n + 1) eps max(1, H), H = -log sf_0, finite
    on the grid up to its 1e-6 tail point. A sum off by one 2^-20 step
    moves sf by about 1e-6 x.
    """
    n = int(rng.integers(2, 6))
    alpha = float(rng.uniform(0.5, 5.0))
    beta = float(rng.uniform(0.5, 3.0))
    lam = _dyadic(rng.uniform(0.1, 10.0, size=n))

    # exact fixed-sum redistribution: move a dyadic amount between two slots
    moved = lam.copy()
    i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
    delta = float(_dyadic(np.asarray([rng.uniform(0.0, 0.5) * lam[i]]))[0])
    delta = min(delta, lam[i] - 1.0 / _DYADIC)
    moved[i] -= delta
    moved[j] += delta
    shuffled = rng.permutation(moved)

    # strictly smaller rate sum -> stochastically larger system
    shrink = 1.0 - float(rng.uniform(0.05, 0.3))
    lam_small = lam * shrink

    def judge(verdicts: list[OrderVerdict], values: np.ndarray) -> tuple[bool, str]:
        bound = 2 * (n + 1) * np.finfo(float).eps * np.maximum(1.0, -np.log(values[0]))
        rel = np.abs(values[1] - values[0]) / values[0]
        if not np.all(rel <= bound):
            return False, f"series survival not sum-invariant (rel dev {rel.max():.3e})"
        if not verdicts[0].holds:
            return False, "usual order violated after lowering the rate sum"
        return True, ""

    return _Draw([_params(alpha, beta, v) for v in (lam, shuffled, lam_small)], [(0, 2)],
                 judge, tail=(0,))


class _Scenario(NamedTuple):
    """One claim as the bench replays it: the claim text, the hypotheses a
    probe may disable, the systems' family and structure, the order, the
    grid span, and the draw of instance ``index`` from its generator."""

    claim: str
    hypotheses: tuple[str, ...]
    family: type
    structure: str
    order: str
    draw: Callable[[np.random.Generator, int, str | None], _Draw]
    span_decades: float = _SPAN_DECADES


def _chain(claim: str, family: type, n_range: tuple[int, int],
           k_range: tuple[int, int]) -> _Scenario:
    """A series hr claim on chains of 1 to 3 transforms of an n-column matrix."""
    hypotheses = ("pn", "beta_ge_2") if family is WeibullG else ("pn",)
    return _Scenario(claim, hypotheses, family, "series", "hr",
                     partial(_draw_hr_chain, family=family, n_range=n_range, k_range=k_range))


_SCENARIOS = {
    "T3.1": _chain("series Weibull-G (2 components, shared shape in [2,4]): one column-averaging "
                   "transform of the similarly ordered (alpha; gamma) matrix raises the system "
                   "in the hazard rate order", WeibullG, (2, 2), (1, 1)),
    "T3.2": _chain("series Weibull-G (n components, shared shape in [2,4]): one column-averaging "
                   "transform of the similarly ordered (alpha; gamma) matrix raises the system "
                   "in the hazard rate order", WeibullG, (3, 5), (1, 1)),
    "T3.3": _chain("series Weibull-G (shared shape in [2,4]): a transform chain with similarly "
                   "ordered intermediates raises the system in the hazard rate order at every "
                   "step", WeibullG, (3, 5), (2, 3)),
    "T3.4": _Scenario("parallel Weibull-G (shared beta, gamma): weak supermajorization of the "
                      "alpha vector implies the reversed hazard order",
                      (), WeibullG, "parallel", "rh", _draw_rh_parallel, _RH_SPAN_DECADES),
    "T3.5": _Scenario("parallel Weibull-G (shared alpha, beta): weak supermajorization of the "
                      "gamma vector implies the usual stochastic order",
                      (), WeibullG, "parallel", "st", partial(_draw_st_parallel, beta_hi=4.0)),
    "T4.1": _chain("series Gompertz-Makeham (2 components, shared rate): one column-averaging "
                   "transform of the similarly ordered (alpha; beta) matrix raises the system in "
                   "the hazard rate order, with a rate-invariant hazard gap",
                   GompertzMakeham, (2, 2), (1, 1)),
    "T4.2": _chain("series Gompertz-Makeham (n components, shared rate): one column-averaging "
                   "transform of the similarly ordered (alpha; beta) matrix raises the system in "
                   "the hazard rate order", GompertzMakeham, (3, 5), (1, 1)),
    "T4.3": _chain("series Gompertz-Makeham (shared rate): a transform chain with similarly "
                   "ordered intermediates raises the system in the hazard rate order at every "
                   "step", GompertzMakeham, (3, 5), (2, 3)),
    "T4.4": _Scenario("series Gompertz-Makeham (shared alpha, beta): survival depends on the "
                      "rate vector only through its sum, and lowering the sum raises the system "
                      "in the usual stochastic order",
                      (), GompertzMakeham, "series", "st", _draw_lambda_aggregate),
    "T4.5": _Scenario("parallel Gompertz-Makeham (shared alpha, beta): weak supermajorization "
                      "of the rate vector implies the usual stochastic order",
                      (), GompertzMakeham, "parallel", "st",
                      partial(_draw_st_parallel, beta_hi=3.0)),
}
SCENARIO_IDS = tuple(_SCENARIOS)


def _by_width(draws: list[_Draw]) -> list[list[int]]:
    """Draw indices grouped by component count, each group in index order."""
    groups: dict[int, list[int]] = {}
    for k, d in enumerate(draws):
        groups.setdefault(d.systems[0].shape[1], []).append(k)
    return list(groups.values())


def _grid_ends(spec: _Scenario, draws: list[_Draw], groups: list[list[int]]) -> np.ndarray:
    """Each draw's grid end by the Grid.for_models rule: the largest tail
    point of its tail systems.

    The tail systems of the draws of one component count are searched
    together, a row per system.
    """
    x_max = np.empty(len(draws))
    for ks in groups:
        tails = [[draws[k].systems[i] for i in draws[k].tail] for k in ks]
        sizes = [len(t) for t in tails]
        stack = _stack(spec.family, spec.structure, [p for t in tails for p in t])
        ends = _support_upper(stack.sf, _TAIL, rows=sum(sizes), bracket=stack.tail_brackets(_TAIL))
        x_max[ks] = np.maximum.reduceat(ends, np.cumsum([0] + sizes[:-1]))
    return x_max


def _blocks(draws: list[_Draw], groups: list[list[int]], rows: int):
    """Draw indices in blocks of one component count and at most ``rows`` systems.

    A draw with more systems than ``rows`` gets a block of its own.
    """
    for ks in groups:
        block, held = [], 0
        for k in ks:
            size = len(draws[k].systems)
            if block and held + size > rows:
                yield block
                block, held = [], 0
            block.append(k)
            held += size
        yield block


def _certify_block(spec: _Scenario, draws: list[_Draw],
                   grids: np.ndarray) -> list[tuple[list[OrderVerdict], np.ndarray]]:
    """Evaluate the systems of draws sharing one component count on their
    grid rows, and certify every pair; returns each draw's verdicts and
    its systems' evaluated rows."""
    sizes = [len(d.systems) for d in draws]
    starts = np.cumsum([0] + sizes[:-1])
    stack = _stack(spec.family, spec.structure, [p for d in draws for p in d.systems])
    values = getattr(stack, _QUANTITY[spec.order])(np.repeat(grids, sizes, axis=0))
    # the row of the lower system, of the upper one and of the grid of every pair
    lo, hi, g = np.array([(s + i, s + j, k) for k, (d, s) in enumerate(zip(draws, starts))
                          for i, j in d.pairs]).T
    verdicts = iter(certify_rows(spec.order, values[lo], values[hi], grids[g], _TOLERANCE))
    return [([next(verdicts) for _ in d.pairs], values[s:s + size])
            for d, s, size in zip(draws, starts, sizes)]


def _run(scenario: TheoremScenario, disabled: str | None) -> BenchReport:
    spec = _SCENARIOS[scenario.scenario_id]
    # 1. draw every instance, each from its own seeded generator
    draws = [spec.draw(_stream(scenario.seed, index), index, disabled)
             for index in range(scenario.count)]
    # 2. one row-wise tail search per component count sets every grid end
    groups = _by_width(draws)
    x_max = _grid_ends(spec, draws, groups)
    # 3. build every grid, then certify blocks of systems on their grid rows
    grids = grid_points(x_max, scenario.grid_count, span_decades=spec.span_decades)
    outcomes: list = [None] * scenario.count
    curve = None
    for block in _blocks(draws, groups, max(1, _SLAB_CELLS // scenario.grid_count)):
        certified = _certify_block(spec, [draws[k] for k in block], grids[block])
        for k, (verdicts, values) in zip(block, certified):
            ok, detail = draws[k].judge(verdicts, values)
            # the worst verdict's figures only: its curve holds rows of the block's arrays
            worst = min(verdicts, key=lambda v: v.margin)
            outcomes[k] = (ok, detail, worst.margin, worst.witness_x)
            if k == 0:
                # export copies of the curve of its first and last system
                c = verdicts[-1].curve
                curve = Curve(c.x.copy(), c.lhs.copy(), c.rhs.copy(), c.diff.copy())

    failures = tuple(
        InstanceFailure(index=index, detail=detail, margin=margin, witness_x=witness_x)
        for index, (ok, detail, margin, witness_x) in enumerate(outcomes) if not ok)
    return BenchReport(
        scenario_id=scenario.scenario_id,
        claim=spec.claim,
        count=scenario.count,
        seed=scenario.seed,
        grid_count=scenario.grid_count,
        tolerance=_TOLERANCE,
        passed=scenario.count - len(failures),
        worst_margin=float(min(margin for _, _, margin, _ in outcomes)),
        failures=failures,
        curve=curve,
        disabled_hypothesis=disabled,
    )


def run_scenario(scenario: TheoremScenario) -> BenchReport:
    """Run every seeded instance of one scenario and report the batch."""
    return _run(scenario, None)


def counterexample_probe(scenario: TheoremScenario, violated_hypothesis: str | None) -> BenchReport:
    """Rerun a scenario with one named hypothesis deliberately violated.

    ``None`` (or ``"none"``) reproduces run_scenario exactly. Otherwise
    the name must apply to the scenario: "pn" for the transform-based
    series claims, "beta_ge_2" for the Weibull-G ones. The report counts
    empirical violations; nothing is asserted about how many must occur.
    """
    if violated_hypothesis in (None, "none"):
        return _run(scenario, None)
    allowed = _SCENARIOS[scenario.scenario_id].hypotheses
    if violated_hypothesis not in allowed:
        raise ValueError(
            f"hypothesis {violated_hypothesis!r} does not apply to {scenario.scenario_id}; "
            f"applicable: {allowed or '(none)'}"
        )
    return _run(scenario, violated_hypothesis)
