"""Grid-based certification of stochastic orderings between lifetimes.

Certifying ``F <= G`` in one of four orders reduces to a pointwise or
monotonicity check on an evaluation grid:

* ``st`` (usual order): sf_F <= sf_G at every grid point;
* ``hr`` (hazard rate): r_F >= r_G pointwise;
* ``rh`` (reversed hazard): rtilde_F <= rtilde_G pointwise;
* ``lr`` (likelihood ratio): pdf_G / pdf_F non-decreasing, checked in
  log space.

Each certificate reports the worst slack (the margin), the tolerance it
was judged against, a witness abscissa when the order fails, and the
``Curve`` it judged: the two sides and the slack at each grid point,
oriented as above. Exported curves are taken from it. The module also
carries the small analytic toolkit used by the ordering proofs: the sign
lemmas h1 and h2 and the reversed-hazard weight
g(alpha) = alpha / (e^{alpha z} - 1), plus a finite-difference Schur
condition checker.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import EvaluationDomainError
from .models import _TAIL
from .systems import SystemSpec

ORDERS = ("st", "hr", "rh", "lr")
# how each order is judged, as OrderVerdict.method reports it
_METHODS = {"st": "sf-pointwise", "hr": "hazard", "rh": "reversed-hazard", "lr": "log-pdf-ratio"}
# what each order compares, as the system evaluator that gives it
_QUANTITY = {"st": "sf", "hr": "hazard", "rh": "reversed_hazard", "lr": "pdf"}

_MIN_GRID = 16
_DEFAULT_COUNT = 2048
_SPAN_DECADES = 4.0
# schur_condition_check's relative difference step, sign band and permutation seed
_SCHUR_STEP, _SCHUR_SLACK, _SCHUR_SEED = 1e-6, 1e-8, 0


@dataclass(frozen=True)
class Grid:
    """A strictly increasing positive evaluation grid.

    Build one with :meth:`for_models` to span (0, x_max] where x_max
    covers the upper tail of every distribution under comparison.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < _MIN_GRID:
            raise ValueError(f"grid needs at least {_MIN_GRID} points")
        if np.any(pts <= 0.0) or not np.all(np.isfinite(pts)):
            raise ValueError("grid points must be positive and finite")
        if np.any(np.diff(pts) <= 0.0):
            raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @property
    def count(self) -> int:
        return int(self.points.size)

    @classmethod
    def for_models(
        cls,
        *dists,
        count: int = _DEFAULT_COUNT,
        x_max: float | None = None,
        span_decades: float = _SPAN_DECADES,
    ) -> "Grid":
        """Log-spaced grid over ``span_decades`` decades below x_max.

        x_max defaults to the largest of the given distributions' own
        tail points, support_upper() at the 1e-6 tail: the point where the
        pointwise maximum of their survival functions falls to the tail.
        One distribution's tail is searched; each other one costs at most
        one sf evaluation, and is searched too only where that sf is still
        above the tail (see _largest_tail_point).
        """
        if x_max is None:
            if not dists:
                raise ValueError("either distributions or x_max must be given")
            x_max = _largest_tail_point(dists)
        if not np.isfinite(x_max) or x_max <= 0.0:
            raise ValueError(f"x_max must be positive and finite, got {x_max!r}")
        return cls(points=grid_points(x_max, count, span_decades))


def _largest_tail_point(dists) -> float:
    """max(d.support_upper() for d in dists), searching as few of them as it can.

    The distributions are taken by the upper end of their closed-form tail
    brackets (models._tail_brackets), highest first, and the first is
    searched. Another one's tail point is at most the largest point x found
    so far when its bracket ends at or below x, or else when its sf at x is
    at or below the tail; it is searched only when neither holds. One
    without a bracket is always searched: nothing closed-form is known of
    its sf (a user-supplied baseline's need not fall monotonically), so one
    value at or below the tail does not place its tail point.
    """
    highs = [float(d._tail_bracket(_TAIL)[0, 1]) for d in dists]
    x_max = None
    for k in sorted(range(len(dists)), key=highs.__getitem__, reverse=True):
        d, high = dists[k], highs[k]
        if x_max is not None and np.isfinite(high) and (high <= x_max or d.sf(x_max) <= _TAIL):
            continue
        x = d.support_upper()
        x_max = x if x_max is None else max(x_max, x)
    return x_max


def grid_points(x_max, count: int = _DEFAULT_COUNT,
                span_decades: float = _SPAN_DECADES) -> np.ndarray:
    """The points of Grid.for_models over (0, x_max], one row per entry of an array x_max.

    Each row is bit-identical to the grid of its x_max alone.
    """
    x_max = np.asarray(x_max, dtype=float)
    pts = np.geomspace(x_max * 10.0 ** (-span_decades), x_max, count, axis=-1)
    return np.ascontiguousarray(pts)


@dataclass(frozen=True, eq=False)
class Curve:
    """The evaluated curve a certifier judged, on every point of its grid.

    ``lhs`` and ``rhs`` are the two sides at each point of ``x``: sf (st),
    hazard (hr), reversed hazard (rh, NaN where it is undefined) or log
    density (lr). ``diff`` is the slack at each point, inf and NaN
    included, for the pointwise orders; for lr it is the increment of
    rhs - lhs from the point before, with 0 at the first point.
    """

    x: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    diff: np.ndarray


@dataclass(frozen=True)
class OrderVerdict:
    """Outcome of one order certification.

    ``margin`` is the minimum certifying slack over the grid: for the
    pointwise orders the worst value of the defining inequality, for lr
    the worst consecutive increment. The order holds when margin >=
    -tolerance; ``witness_x`` pins the failing abscissa otherwise.
    Every order excludes the points whose slack is not finite, and only
    those: two infinite hazards, a component cdf of 0 (rh), or a zero or
    non-finite density at either end of an increment (lr). ``truncated``
    marks a verdict that excluded any, and ``grid_count`` counts the
    points it judged. ``curve`` is the ``Curve`` on the whole grid,
    excluded points included; it takes no part in comparing verdicts.
    ``method`` names how the order was judged.
    """

    order: str
    holds: bool
    margin: float
    tolerance: float
    witness_x: float | None
    grid_count: int
    truncated: bool = False
    curve: Curve | None = field(default=None, compare=False, repr=False)

    @property
    def method(self) -> str:
        return _METHODS[self.order]


def certify_rows(order: str, f_values, g_values, points,
                 tolerance: float | None = None) -> list[OrderVerdict]:
    """Certify f <= g in any of the four orders for many rows of evaluated values at once.

    Row r of ``f_values`` and ``g_values`` holds the two sides' sf (st),
    hazard (hr), reversed hazard (rh) or pdf (lr) on row r of ``points``;
    each is an (R, G) array or a sequence of R rows of one length G, and
    all three hold the same number of rows. Rows of unequal length raise
    ValueError, and zero rows give []. The single-pair certifiers are
    this function on one row.

    hr needs r_f >= r_g, st and rh f's value <= g's, and lr a log pdf ratio
    that never decreases. Mark a point where a value is undefined, such as
    a reversed hazard where a component cdf is 0, with NaN; past the
    support two hazards may both be inf, and a zero density has log -inf.
    The slack there is not finite, so the verdict excludes it and is
    truncated, while the curve keeps it. Without an explicit tolerance, a
    row's is max(1e-9, 1e-7 s), where s is the largest finite |value| of
    its two sides (of its log ratio for lr). An explicit tolerance must be
    finite and nonnegative, or ValueError is raised.

    Every row is judged in one pass of (R, G) array operations; only each
    row's OrderVerdict and Curve are built one at a time.
    """
    if order not in ORDERS:
        raise ValueError(f"order must be one of {ORDERS}, got {order!r}")
    if tolerance is not None and not (np.isfinite(tolerance) and tolerance >= 0.0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance!r}")
    f, g, xs = (np.asarray(a, dtype=float) for a in (f_values, g_values, points))
    if not len(f) == len(g) == len(xs):
        raise ValueError("f_values, g_values and points must hold the same number of rows")
    if len(f) == 0:
        return []
    if f.ndim != 2 or not f.shape == g.shape == xs.shape:
        raise ValueError("f_values, g_values and points must each hold rows of one length")
    with np.errstate(divide="ignore", invalid="ignore"):
        if order == "lr":
            lhs, rhs = np.log(f), np.log(g)
            ratio = rhs - lhs
            diff = np.zeros_like(ratio)
            slack = np.subtract(ratio[:, 1:], ratio[:, :-1], out=diff[:, 1:])
            pool, scaled = xs[:, 1:], (ratio,)
        else:
            if order == "rh":  # a reversed hazard undefined on either side is undefined on both
                undefined = np.isnan(f) | np.isnan(g)
                f, g = (np.where(undefined, np.nan, v) for v in (f, g))
            lhs, rhs = f, g
            diff = slack = f - g if order == "hr" else g - f
            pool, scaled = xs, (f, g)
    finite = np.isfinite(slack)
    counts = finite.sum(axis=1)
    if not counts.all():
        raise EvaluationDomainError(f"no grid point has a finite {order} slack")
    worst = np.where(finite, slack, np.inf).argmin(axis=1)
    rows = np.arange(len(slack))
    margins = slack[rows, worst]
    if tolerance is None:
        scale = reduce(np.maximum, [np.max(np.abs(v), axis=1, where=np.isfinite(v), initial=1e-300)
                                    for v in scaled])
        tols = np.maximum(1e-9, 1e-7 * scale)
    else:
        tols = np.full(len(slack), float(tolerance))
    holds = margins >= -tols
    return [OrderVerdict(order=order, holds=h, margin=m, tolerance=t,
                         witness_x=None if h else w, grid_count=c,
                         truncated=c < slack.shape[1], curve=Curve(*curve))
            for h, m, t, w, c, *curve in zip(holds.tolist(), margins.tolist(), tols.tolist(),
                                             pool[rows, worst].tolist(), counts.tolist(),
                                             xs, lhs, rhs, diff)]


def _certify(order: str, f, g, grid: Grid | None, tolerance: float | None) -> OrderVerdict:
    """One row of certify_rows, from each side's one-row system stack.

    A bare model is evaluated as a series system of one, which gives the
    same bits as its own evaluators.
    """
    stacks = [(d if isinstance(d, SystemSpec) else SystemSpec((d,), "series"))._stack
              for d in (f, g)]
    xs = (grid if grid is not None else Grid.for_models(f, g)).points
    f_row, g_row = (getattr(stack, _QUANTITY[order])(xs) for stack in stacks)
    [verdict] = certify_rows(order, [f_row], [g_row], [xs], tolerance)
    return verdict


def certify_st(f, g, grid: Grid | None = None, tolerance: float | None = None) -> OrderVerdict:
    """Certify f <= g in the usual stochastic order: sf_f <= sf_g pointwise."""
    return _certify("st", f, g, grid, tolerance)


def certify_hr(f, g, grid: Grid | None = None, tolerance: float | None = None) -> OrderVerdict:
    """Certify f <= g in the hazard rate order: r_f >= r_g pointwise.

    For absolutely continuous lifetimes this is equivalent to sf_g / sf_f
    being non-decreasing.
    """
    return _certify("hr", f, g, grid, tolerance)


def certify_rh(f, g, grid: Grid | None = None, tolerance: float | None = None) -> OrderVerdict:
    """Certify f <= g in the reversed hazard order: rtilde_f <= rtilde_g pointwise.

    The reversed hazard is undefined where a component cdf is exactly
    zero; both sides are NaN there, so the verdict excludes those points
    and is truncated. A parallel cdf that underflows to 0 while every
    component cdf is positive leaves the reversed hazard, a sum over the
    components, defined.
    """
    return _certify("rh", f, g, grid, tolerance)


def certify_lr(f, g, grid: Grid | None = None, tolerance: float | None = None) -> OrderVerdict:
    """Certify f <= g in the likelihood ratio order.

    Holds when pdf_g / pdf_f is non-decreasing across the grid, checked
    as monotonicity of log pdf_g - log pdf_f between neighbouring points.
    Where either density is zero or not finite the log ratio is not
    finite, so the increments on both sides of that point are excluded
    and the verdict is truncated.
    """
    return _certify("lr", f, g, grid, tolerance)


def certify(order: str, f, g, **kwargs) -> OrderVerdict:
    """Dispatch to the certifier for ``order`` in {st, hr, rh, lr}."""
    if order not in ORDERS:
        raise ValueError(f"order must be one of {ORDERS}, got {order!r}")
    fn = {"st": certify_st, "hr": certify_hr, "rh": certify_rh, "lr": certify_lr}[order]
    return fn(f, g, **kwargs)


# ---------------------------------------------------------------------------
# analytic toolkit


def h1(x):
    """h1(x) = e^x - x e^x - 1; nonpositive for x >= 0."""
    xa = np.asarray(x, dtype=float)
    out = np.exp(xa) * (1.0 - xa) - 1.0
    return out if np.ndim(x) else float(out)


def h2(x):
    """h2(x) = x e^x - 2 e^x + x + 2; nonnegative for x >= 0."""
    xa = np.asarray(x, dtype=float)
    out = (xa - 2.0) * np.exp(xa) + xa + 2.0
    return out if np.ndim(x) else float(out)


def reversed_hazard_weight(alpha, z):
    """g(alpha) = alpha / (e^{alpha z} - 1), decreasing and convex in alpha > 0.

    This is the per-component weight in the factored reversed hazard of
    a parallel system with shared shape. Saturating products alpha * z
    return the correct limit 0.
    """
    a = np.asarray(alpha, dtype=float)
    za = np.asarray(z, dtype=float)
    if np.any(a <= 0.0) or np.any(za <= 0.0):
        raise ValueError("alpha and z must be positive")
    with np.errstate(over="ignore"):
        out = a / np.expm1(a * za)
    return out if (np.ndim(alpha) or np.ndim(z)) else float(out)


@dataclass(frozen=True)
class SchurDiagnostics:
    """Signs of the pairwise Schur condition over a sample of points.

    For a symmetric differentiable psi, Schur convexity is equivalent to
    (a_i - a_j)(d_i psi - d_j psi) >= 0 on the domain. The checker
    evaluates that product with central-difference gradients on every
    sample point; ``convex_consistent`` (``concave_consistent``) reports
    whether no product falls below (rises above) the slack band. A
    linear psi is consistent with both and shows ``max_abs_margin``
    within slack (zero margin).
    """

    convex_consistent: bool
    concave_consistent: bool
    max_abs_margin: float
    slack: float
    pair_margins: tuple[tuple[int, int, float, float], ...]

    @property
    def classification(self) -> str:
        if self.convex_consistent and self.concave_consistent:
            return "both"
        if self.convex_consistent:
            return "convex-consistent"
        if self.concave_consistent:
            return "concave-consistent"
        return "neither"


def schur_condition_check(psi: Callable[[np.ndarray], float], sample) -> SchurDiagnostics:
    """Classify psi as Schur convex-consistent or concave-consistent on a sample.

    The gradient is a central difference with a step of 1e-6 relative to
    each coordinate (at least 1e-6), and the sign classification allows a
    fixed absolute band of 1e-8, reported as ``slack``.

    Parameters
    ----------
    psi : callable
        Symmetric function of one vector; symmetry is spot-checked on a
        random permutation of each sample point (1e-9 relative, drawn
        from a generator seeded with 0) and a violation raises ValueError.
    sample : array_like
        One point (n,) or a batch (m, n) of evaluation points.
    """
    pts = np.atleast_2d(np.asarray(sample, dtype=float))
    if pts.ndim != 2 or pts.shape[1] < 2:
        raise ValueError("sample must contain points with at least two coordinates")
    rng = np.random.default_rng(_SCHUR_SEED)

    n = pts.shape[1]
    lo = np.inf * np.ones((n, n))
    hi = -np.inf * np.ones((n, n))
    for a in pts:
        base = float(psi(a))
        perm = rng.permutation(n)
        permuted = float(psi(a[perm]))
        if abs(permuted - base) > 1e-9 * max(1.0, abs(base)):
            raise ValueError("psi is not symmetric under coordinate permutation")
        grad = np.empty(n)
        for k in range(n):
            h = _SCHUR_STEP * max(1.0, abs(a[k]))
            up, down = a.copy(), a.copy()
            up[k] += h
            down[k] -= h
            grad[k] = (float(psi(up)) - float(psi(down))) / (2.0 * h)
        for i in range(n):
            for j in range(i + 1, n):
                v = (a[i] - a[j]) * (grad[i] - grad[j])
                lo[i, j] = min(lo[i, j], v)
                hi[i, j] = max(hi[i, j], v)

    pairs = tuple(
        (i, j, float(lo[i, j]), float(hi[i, j]))
        for i in range(n)
        for j in range(i + 1, n)
    )
    worst_lo = min(p[2] for p in pairs)
    worst_hi = max(p[3] for p in pairs)
    return SchurDiagnostics(
        convex_consistent=bool(worst_lo >= -_SCHUR_SLACK),
        concave_consistent=bool(worst_hi <= _SCHUR_SLACK),
        max_abs_margin=float(max(abs(worst_lo), abs(worst_hi))),
        slack=_SCHUR_SLACK,
        pair_margins=pairs,
    )
