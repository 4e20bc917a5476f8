"""Grid-based certification of stochastic orderings between lifetimes.

Certifying ``F <= G`` in one of four orders reduces to a pointwise or
monotonicity check on an evaluation grid:

* ``st`` (usual order): sf_F <= sf_G at every grid point;
* ``hr`` (hazard rate): r_F >= r_G pointwise, or equivalently
  sf_G / sf_F non-decreasing;
* ``rh`` (reversed hazard): rtilde_F <= rtilde_G pointwise;
* ``lr`` (likelihood ratio): pdf_G / pdf_F non-decreasing, checked in
  log space.

Each certificate reports the worst slack (the margin), the tolerance it
was judged against, and a witness abscissa when the order fails. The
module also carries the small analytic toolkit used by the ordering
proofs: the sign lemmas h1 and h2 and the reversed-hazard weight
g(alpha) = alpha / (e^{alpha z} - 1), plus a finite-difference Schur
condition checker.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationDomainError

ORDERS = ("st", "hr", "rh", "lr")

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
    policy: str = "log"

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < _MIN_GRID:
            raise ValueError(f"grid needs at least {_MIN_GRID} points")
        if np.any(pts <= 0.0) or not np.all(np.isfinite(pts)):
            raise ValueError("grid points must be positive and finite")
        if np.any(np.diff(pts) <= 0.0):
            raise ValueError("grid points must be strictly increasing")
        if self.policy not in ("log", "linear"):
            raise ValueError(f"policy must be 'log' or 'linear', got {self.policy!r}")
        object.__setattr__(self, "points", pts)

    @property
    def count(self) -> int:
        return int(self.points.size)

    @classmethod
    def for_models(
        cls,
        *dists,
        count: int = _DEFAULT_COUNT,
        policy: str = "log",
        x_max: float | None = None,
        tail: float = 1e-6,
        span_decades: float = _SPAN_DECADES,
    ) -> "Grid":
        """Grid over (0, x_max], log-spaced by default.

        x_max defaults to the largest support_upper(tail) across the
        given distributions; the log policy spans ``span_decades``
        decades below it.
        """
        if x_max is None:
            if not dists:
                raise ValueError("either distributions or x_max must be given")
            x_max = max(float(d.support_upper(tail)) for d in dists)
        if not np.isfinite(x_max) or x_max <= 0.0:
            raise ValueError(f"x_max must be positive and finite, got {x_max!r}")
        if policy == "log":
            pts = np.geomspace(x_max * 10.0 ** (-span_decades), x_max, count)
        else:
            pts = np.linspace(x_max / count, x_max, count)
        return cls(points=pts, policy=policy)


@dataclass(frozen=True)
class OrderVerdict:
    """Outcome of one order certification.

    ``margin`` is the minimum certifying slack over the grid: for the
    pointwise orders the worst value of the defining inequality, for the
    monotone orders (lr, and hr on the sf-ratio path) the worst
    consecutive increment. The order holds when margin >= -tolerance;
    ``witness_x`` pins the failing abscissa otherwise. ``truncated``
    marks ratio or log paths that were shortened because a survival or
    density value underflowed before the grid end, and verdicts that
    excluded grid points where the slack was not finite.
    """

    order: str
    holds: bool
    margin: float
    tolerance: float
    witness_x: float | None
    grid_count: int
    method: str
    truncated: bool = False


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
    scale: float,
    method: str,
    truncated: bool,
) -> OrderVerdict:
    """Judge the slack; points where it is not finite are excluded and truncate."""
    finite = np.isfinite(slack)
    if not finite.all():
        slack, witness_pool, truncated = slack[finite], witness_pool[finite], True
    if slack.size == 0:
        raise EvaluationDomainError(f"no grid point has a finite {order} slack")
    tol = _default_tolerance(scale) if tolerance is None else float(tolerance)
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
        method=method,
        truncated=truncated,
    )


def _resolve_grid(f, g, grid: Grid | None, count: int) -> Grid:
    return grid if grid is not None else Grid.for_models(f, g, count=count)


def certify_st(f, g, grid: Grid | None = None, count: int = _DEFAULT_COUNT,
               tolerance: float | None = None) -> OrderVerdict:
    """Certify f <= g in the usual stochastic order: sf_f <= sf_g pointwise."""
    grid = _resolve_grid(f, g, grid, count)
    xs = grid.points
    sf_f = np.asarray(f.sf(xs))
    sf_g = np.asarray(g.sf(xs))
    slack = sf_g - sf_f
    scale = _finite_scale(sf_f, sf_g)
    return _finish("st", slack, xs, tolerance, scale, "sf-pointwise", False)


def certify_hr(f, g, grid: Grid | None = None, count: int = _DEFAULT_COUNT,
               tolerance: float | None = None, method: str = "auto") -> OrderVerdict:
    """Certify f <= g in the hazard rate order.

    ``method="hazard"`` checks r_f >= r_g pointwise and is used whenever
    both sides expose a hazard evaluator. ``method="sf-ratio"`` checks
    that sf_g / sf_f is non-decreasing, truncating the grid (and flagging
    the verdict) where sf_f underflows to zero.
    """
    if method not in ("auto", "hazard", "sf-ratio"):
        raise ValueError(f"unknown hr method {method!r}")
    grid = _resolve_grid(f, g, grid, count)
    xs = grid.points
    if method == "auto":
        method = "hazard" if hasattr(f, "hazard") and hasattr(g, "hazard") else "sf-ratio"

    if method == "hazard":
        r_f = np.asarray(f.hazard(xs))
        r_g = np.asarray(g.hazard(xs))
        with np.errstate(invalid="ignore"):
            slack = r_f - r_g
        scale = _finite_scale(r_f, r_g)
        return _finish("hr", slack, xs, tolerance, scale, "hazard", False)

    sf_f = np.asarray(f.sf(xs))
    sf_g = np.asarray(g.sf(xs))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = sf_g / sf_f
    valid = (sf_f > 0.0) & np.isfinite(ratio)
    cut = int(np.argmin(valid)) if not bool(valid.all()) else valid.size
    truncated = cut < valid.size
    if cut < 2:
        raise EvaluationDomainError("survival underflow leaves fewer than two usable grid points")
    ratio = ratio[:cut]
    slack = np.diff(ratio)
    scale = _finite_scale(ratio)
    return _finish("hr", slack, xs[1:cut], tolerance, scale, "sf-ratio", truncated)


def certify_rh(f, g, grid: Grid | None = None, count: int = _DEFAULT_COUNT,
               tolerance: float | None = None) -> OrderVerdict:
    """Certify f <= g in the reversed hazard order: rtilde_f <= rtilde_g pointwise.

    Grid points where either cdf is exactly zero are excluded (the
    reversed hazard is undefined there); exclusions set the truncated
    flag.
    """
    grid = _resolve_grid(f, g, grid, count)
    xs = grid.points
    cdf_f = np.asarray(f.cdf(xs))
    cdf_g = np.asarray(g.cdf(xs))
    keep = (cdf_f > 0.0) & (cdf_g > 0.0)
    truncated = not bool(keep.all())
    xs_kept = xs[keep]
    if xs_kept.size < 2:
        raise EvaluationDomainError("cdf underflow leaves fewer than two usable grid points")
    rh_f = np.asarray(f.reversed_hazard(xs_kept))
    rh_g = np.asarray(g.reversed_hazard(xs_kept))
    slack = rh_g - rh_f
    scale = _finite_scale(rh_f, rh_g)
    return _finish("rh", slack, xs_kept, tolerance, scale, "reversed-hazard", truncated)


def certify_lr(f, g, grid: Grid | None = None, count: int = _DEFAULT_COUNT,
               tolerance: float | None = None) -> OrderVerdict:
    """Certify f <= g in the likelihood ratio order.

    Holds when pdf_g / pdf_f is non-decreasing across the grid, checked
    as monotonicity of log pdf_g - log pdf_f. Points where either
    density underflows to zero are excluded and flagged as truncation.
    """
    grid = _resolve_grid(f, g, grid, count)
    xs = grid.points
    pdf_f = np.asarray(f.pdf(xs))
    pdf_g = np.asarray(g.pdf(xs))
    keep = (pdf_f > 0.0) & (pdf_g > 0.0) & np.isfinite(pdf_f) & np.isfinite(pdf_g)
    truncated = not bool(keep.all())
    xs_kept = xs[keep]
    if xs_kept.size < 2:
        raise EvaluationDomainError("density underflow leaves fewer than two usable grid points")
    log_ratio = np.log(pdf_g[keep]) - np.log(pdf_f[keep])
    slack = np.diff(log_ratio)
    scale = _finite_scale(log_ratio)
    return _finish("lr", slack, xs_kept[1:], tolerance, scale, "log-pdf-ratio", truncated)


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
