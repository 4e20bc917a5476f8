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
from .models import _TAIL, _support_upper

ORDERS = ("st", "hr", "rh", "lr")
# how each order is judged, as OrderVerdict.method reports it
_METHODS = {"st": "sf-pointwise", "hr": "hazard", "rh": "reversed-hazard", "lr": "log-pdf-ratio"}
_POINTWISE = ("st", "hr", "rh")

_MIN_GRID = 16
_DEFAULT_COUNT = 2048
_SPAN_DECADES = 4.0


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
        tail: float = _TAIL,
        span_decades: float = _SPAN_DECADES,
    ) -> "Grid":
        """Log-spaced grid over ``span_decades`` decades below x_max.

        x_max defaults to the largest support_upper(tail) across the
        given distributions, found by one search over the pointwise maximum
        of their survival functions: for nonincreasing survivals it falls
        to the tail exactly at the largest of their tail points.
        """
        if x_max is None:
            if not dists:
                raise ValueError("either distributions or x_max must be given")
            x_max = float(_support_upper(
                lambda x: reduce(np.maximum, [d.sf(x) for d in dists]), tail)[0])
        if not np.isfinite(x_max) or x_max <= 0.0:
            raise ValueError(f"x_max must be positive and finite, got {x_max!r}")
        return cls(points=grid_points(x_max, count, span_decades))


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
    """The evaluated curve a certifier judged.

    ``lhs`` and ``rhs`` are the two sides at each point of ``x``: sf (st),
    hazard (hr), reversed hazard (rh) or log density (lr). ``diff`` is the
    slack at each point, inf and NaN included, for the pointwise orders;
    for lr it is the increment of rhs - lhs from the point before, with 0
    at the first point.
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
    ``truncated`` marks verdicts that excluded grid points: where a cdf
    (rh) was zero, where a density (lr) was zero or not finite, or where
    the slack was not finite. ``curve`` is the ``Curve`` the margin was
    taken from, before non-finite slack was dropped; it takes no part in
    comparing verdicts. ``method`` names how the order was judged.
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


def _default_tolerance(scale: float) -> float:
    return max(1e-9, 1e-7 * scale)


def _finite_scale(*values: np.ndarray) -> float:
    """Largest finite |value| across the arrays, the default tolerance's scale."""
    return max(float(np.max(np.abs(v), where=np.isfinite(v), initial=1e-300))
               for v in values)


def _finish(
    order: str,
    slack: np.ndarray,
    witness_pool: np.ndarray,
    tolerance: float | None,
    scaled: tuple[np.ndarray, ...],
    truncated: bool,
    curve: Curve,
) -> OrderVerdict:
    """Judge the slack; points where it is not finite are excluded and truncate.

    Without an explicit tolerance, the default is scaled by the largest
    finite |value| of the ``scaled`` arrays.
    """
    finite = np.isfinite(slack)
    if not finite.all():
        slack, witness_pool, truncated = slack[finite], witness_pool[finite], True
    if slack.size == 0:
        raise EvaluationDomainError(f"no grid point has a finite {order} slack")
    tol = _default_tolerance(_finite_scale(*scaled)) if tolerance is None else float(tolerance)
    worst = int(np.argmin(slack))
    margin = float(slack[worst])
    holds = margin >= -tol
    return OrderVerdict(
        order=order,
        holds=holds,
        margin=margin,
        tolerance=tol,
        witness_x=None if holds else float(witness_pool[worst]),
        grid_count=int(witness_pool.size),
        truncated=truncated,
        curve=curve,
    )


def _pointwise(order: str, f_values: np.ndarray, g_values: np.ndarray, xs: np.ndarray,
               tolerance: float | None, keep: np.ndarray | None = None) -> OrderVerdict:
    """Judge f <= g from both sides' sf (st), hazard (hr) or reversed hazard (rh).

    hr needs r_f >= r_g, the others f's value <= g's. ``keep``, if given,
    marks the points where the values are defined; dropping any truncates
    the verdict. Past the support two hazards may both be inf; _finish
    drops the inf - inf slack, which the curve keeps.
    """
    truncated = keep is not None and not keep.all()
    if truncated:
        f_values, g_values, xs = f_values[keep], g_values[keep], xs[keep]
        if xs.size < 2:
            raise EvaluationDomainError("cdf underflow leaves fewer than two usable grid points")
    with np.errstate(invalid="ignore"):
        slack = f_values - g_values if order == "hr" else g_values - f_values
    return _finish(order, slack, xs, tolerance, (f_values, g_values), truncated,
                   Curve(xs, f_values, g_values, slack))


def certify_rows(order: str, f_values, g_values, points, tolerance: float | None = None,
                 keep=None) -> list[OrderVerdict]:
    """Certify f <= g in st, hr or rh for many rows of evaluated values at once.

    Row r of ``f_values`` and ``g_values`` holds the two sides' sf (st),
    hazard (hr) or reversed hazard (rh) on row r of ``points``; each may
    be an (R, G) array or a sequence of R rows. ``keep``, if given, marks
    the points of each row where the values are defined; dropping any
    truncates that row's verdict. Row r's verdict, curve included, is the
    one certify_st, certify_hr or certify_rh reaches on that row's grid.
    """
    if order not in _POINTWISE:
        raise ValueError(f"row certification covers {_POINTWISE}, got {order!r}")
    return [_pointwise(order, f, g, xs, tolerance, None if keep is None else keep[r])
            for r, (f, g, xs) in enumerate(zip(f_values, g_values, points))]


def _points(f, g, grid: Grid | None) -> np.ndarray:
    return (grid if grid is not None else Grid.for_models(f, g)).points


def certify_st(f, g, grid: Grid | None = None, tolerance: float | None = None) -> OrderVerdict:
    """Certify f <= g in the usual stochastic order: sf_f <= sf_g pointwise."""
    xs = _points(f, g, grid)
    return _pointwise("st", np.asarray(f.sf(xs)), np.asarray(g.sf(xs)), xs, tolerance)


def certify_hr(f, g, grid: Grid | None = None, tolerance: float | None = None) -> OrderVerdict:
    """Certify f <= g in the hazard rate order: r_f >= r_g pointwise.

    For absolutely continuous lifetimes this is equivalent to sf_g / sf_f
    being non-decreasing.
    """
    xs = _points(f, g, grid)
    return _pointwise("hr", np.asarray(f.hazard(xs)), np.asarray(g.hazard(xs)), xs, tolerance)


def certify_rh(f, g, grid: Grid | None = None, tolerance: float | None = None) -> OrderVerdict:
    """Certify f <= g in the reversed hazard order: rtilde_f <= rtilde_g pointwise.

    Grid points where either cdf is exactly zero are excluded (the
    reversed hazard is undefined there); exclusions set the truncated
    flag.
    """
    xs = _points(f, g, grid)
    keep = (np.asarray(f.cdf(xs)) > 0.0) & (np.asarray(g.cdf(xs)) > 0.0)
    rh_f, rh_g = np.full(xs.shape, np.nan), np.full(xs.shape, np.nan)
    rh_f[keep], rh_g[keep] = f.reversed_hazard(xs[keep]), g.reversed_hazard(xs[keep])
    return _pointwise("rh", rh_f, rh_g, xs, tolerance, keep)


def certify_lr(f, g, grid: Grid | None = None, tolerance: float | None = None) -> OrderVerdict:
    """Certify f <= g in the likelihood ratio order.

    Holds when pdf_g / pdf_f is non-decreasing across the grid, checked
    as monotonicity of log pdf_g - log pdf_f. Points where either
    density underflows to zero are excluded and flagged as truncation.
    """
    xs = _points(f, g, grid)
    pdf_f = np.asarray(f.pdf(xs))
    pdf_g = np.asarray(g.pdf(xs))
    keep = (pdf_f > 0.0) & (pdf_g > 0.0) & np.isfinite(pdf_f) & np.isfinite(pdf_g)
    xs_kept = xs[keep]
    if xs_kept.size < 2:
        raise EvaluationDomainError("density underflow leaves fewer than two usable grid points")
    log_f, log_g = np.log(pdf_f[keep]), np.log(pdf_g[keep])
    ratio = log_g - log_f
    slack = np.diff(ratio)
    return _finish("lr", slack, xs_kept[1:], tolerance, (ratio,), not bool(keep.all()),
                   Curve(xs_kept, log_f, log_g, np.concatenate([[0.0], slack])))


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


def schur_condition_check(
    psi: Callable[[np.ndarray], float],
    sample,
    step_scale: float = 1e-6,
    slack: float = 1e-8,
    seed: int = 0,
) -> SchurDiagnostics:
    """Classify psi as Schur convex-consistent or concave-consistent on a sample.

    Parameters
    ----------
    psi : callable
        Symmetric function of one vector; symmetry is spot-checked on a
        random permutation of each sample point (1e-9 relative) and a
        violation raises ValueError.
    sample : array_like
        One point (n,) or a batch (m, n) of evaluation points.
    step_scale : float
        Relative step for the central-difference gradient.
    slack : float
        Absolute tolerance band for the sign classification.
    """
    pts = np.atleast_2d(np.asarray(sample, dtype=float))
    if pts.ndim != 2 or pts.shape[1] < 2:
        raise ValueError("sample must contain points with at least two coordinates")
    rng = np.random.default_rng(seed)

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
            h = step_scale * max(1.0, abs(a[k]))
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
        convex_consistent=bool(worst_lo >= -slack),
        concave_consistent=bool(worst_hi <= slack),
        max_abs_margin=float(max(abs(worst_lo), abs(worst_hi))),
        slack=float(slack),
        pair_margins=pairs,
    )
