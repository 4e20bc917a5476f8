"""Lifetime models: odds-transformed Weibull families and Gompertz-Makeham.

A Weibull-G lifetime applies a Weibull shape to the odds of a baseline
distribution F. With w(t) = F(t) / (1 - F(t)),

    H(x) = alpha * w(gamma x)**beta                          (cumulative hazard)
    S(x) = exp(-H(x))
    r(x) = alpha beta gamma w(gamma x)**(beta - 1) w'(gamma x)

A ``Baseline`` is the pair w, w'. The standard exponential baseline gives
w(t) = e^t - 1 with w' = e^t, so every derived quantity (including the
quantile function) is available in closed form. ``Baseline.user_supplied``
takes an arbitrary cdf/pdf pair and builds w = F / (1 - F) and
w'(t) = f(t) / (1 - F(t))^2 from it.

The Gompertz-Makeham lifetime has hazard rate lambda + alpha e^{beta x}
and survival function

    S(x) = exp(-lambda x - (alpha / beta)(e^{beta x} - 1)).

Its quantile has no closed form; Newton's method on the convex
cumulative hazard finds it from a closed-form upper bound.

Both model classes expose the same evaluation surface (``cdf``, ``sf``,
``pdf``, ``hazard``, ``reversed_hazard``, ``cumulative_hazard``,
``quantile``, ``support_upper``), which is what the system and order
layers program against. All evaluators accept scalars or arrays and
return matching shapes. Each class defines only ``cumulative_hazard``,
``hazard`` and ``quantile``; the others are written once and assigned to
both.

Each family's cumulative hazard and hazard are written once, as
broadcasting kernels (``wg_cumulative_hazard``, ``wg_hazard``,
``gm_cumulative_hazard``, ``gm_hazard``); every other quantity derives
from those two (``survival``, ``distribution``, ``log1mexp``,
``density``).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, EvaluationDomainError

# exp overflows float64 just above 709; clamp arguments a bit below that
_EXP_ARG_MAX = 700.0
_QUANTILE_MAX_ITER = 200
_QUANTILE_RESIDUAL = 1e-12
_TAIL = 1e-6  # default survival probability left beyond support_upper and the grid end
# interior points of a tail-search round, as fractions of the bracket, at
# centre * _TAIL_SCALE + _TAIL_SHIFT for a centre in [0, 1]: 63 evenly spaced
# ones shrink any bracket at least 64-fold, and 64 cluster around the centre
# at 2**-j, j = 1..32, of its distance to either end
_TAIL_HALVES = 2.0 ** -np.arange(1, 33)
_TAIL_SCALE = np.concatenate((np.zeros(63), 1.0 - _TAIL_HALVES, 1.0 - _TAIL_HALVES))
_TAIL_SHIFT = np.concatenate((np.arange(1, 64) / 64.0, np.zeros(32), _TAIL_HALVES))
_TAIL_PROBES = np.power(2.0, np.arange(-20, 61, dtype=float))
_TAIL_ENDS = np.concatenate(([0.0], _TAIL_PROBES))

BASELINE_KINDS = ("exponential-standard", "user-supplied")

_LOG_2 = math.log(2.0)
_POWER_SHORTCUTS = ((2.0, np.square), (0.5, np.sqrt), (-1.0, np.reciprocal))


def _as_array(x) -> np.ndarray:
    """x as a float array, with a scalar as a one-element array.

    numpy turns 0-d operands into scalars, whose power rounds differently
    from the array loop in the last place; evaluating a scalar as one
    element keeps scalar and array results bit-identical.
    """
    xa = np.asarray(x, dtype=float)
    return xa if xa.ndim else xa.reshape(1)


def _match(x_in, out: np.ndarray):
    """Return a float for scalar input, the array otherwise."""
    return out if np.ndim(x_in) else float(out[0])


def log1mexp(h: np.ndarray) -> np.ndarray:
    """log(1 - e^{-h}) for h >= 0: the log cdf from the cumulative hazard.

    Mächler's split keeps relative precision at both ends: log(-expm1(-h))
    for h <= log 2, where 1 - e^{-h} is small, and log1p(-exp(-h)) above
    it, where e^{-h} is small and log(-expm1(-h)) would round to 0. See
    M. Mächler, "Accurately Computing log(1 - exp(-|a|))", Rmpfr vignette,
    2012.
    """
    with np.errstate(divide="ignore"):
        out = np.negative(h)
        np.exp(out, out=out)
        np.negative(out, out=out)
        np.log1p(out, out=out)
        small = h <= _LOG_2
        if small.any():
            out[small] = np.log(-np.expm1(-h[small]))
    return out


def _power(base: np.ndarray, exponent) -> np.ndarray:
    """base ** exponent, with the exponent a float or an (S, 1) column of rows.

    For a float exponent of 2, 0.5 or -1, numpy's ``**`` computes a square,
    square root or reciprocal, which can differ from pow in the last place;
    a column of exponents takes pow throughout. Rows of a column with those
    exponents take the same shortcut here, so a batch and each of its rows
    agree.
    """
    if np.ndim(exponent) == 0:
        return base ** exponent
    out = np.power(base, exponent)
    for value, exact in _POWER_SHORTCUTS:
        rows = exponent == value
        if rows.any():
            out = np.where(rows, exact(base), out)
    return out


def survival(chf: np.ndarray) -> np.ndarray:
    """sf = exp(-H) from the cumulative hazard H."""
    return np.exp(-chf)


def distribution(chf: np.ndarray) -> np.ndarray:
    """cdf = 1 - exp(-H), computed as -expm1(-H)."""
    return -np.expm1(-chf)


def density(chf: np.ndarray, hazard: np.ndarray) -> np.ndarray:
    """pdf = r(x) sf(x); zero once the survival underflows."""
    sf = np.exp(-chf)
    with np.errstate(invalid="ignore", over="ignore"):
        return np.where(sf > 0.0, hazard * sf, 0.0)


# Broadcasting kernels. Points and parameters broadcast against each other:
# the methods pass float parameters, a stack of S systems passes (S, 1)
# columns against (S, m) points. Both evaluate the same expression
# elementwise, so every row of a batch is bit-identical to the single
# evaluation.


def wg_cumulative_hazard(x, alpha, beta, gamma, baseline: Baseline) -> np.ndarray:
    """Weibull-G H(x) = alpha * w(gamma x)**beta."""
    w = baseline.w(np.minimum(gamma * x, _EXP_ARG_MAX))
    with np.errstate(over="ignore"):
        return alpha * _power(w, beta)


def wg_hazard(x, alpha, beta, gamma, baseline: Baseline) -> np.ndarray:
    """Weibull-G r(x) = alpha beta gamma w(gamma x)**(beta-1) w'(gamma x)."""
    t = np.minimum(gamma * x, _EXP_ARG_MAX)
    w = baseline.w(t)
    d1 = baseline.d1(t)
    with np.errstate(divide="ignore", over="ignore"):
        return alpha * beta * gamma * _power(w, beta - 1.0) * d1


def gm_cumulative_hazard(x, alpha, beta, lam) -> np.ndarray:
    """Gompertz-Makeham H(x) = lambda x + (alpha/beta)(e^{beta x} - 1)."""
    t = np.minimum(beta * x, _EXP_ARG_MAX)
    return lam * x + (alpha / beta) * np.expm1(t)


def gm_hazard(x, alpha, beta, lam) -> np.ndarray:
    """Gompertz-Makeham r(x) = lambda + alpha e^{beta x}."""
    t = np.minimum(beta * x, _EXP_ARG_MAX)
    return lam + alpha * np.exp(t)


@dataclass(frozen=True)
class Baseline:
    """A baseline distribution F, held as its odds w(t) = F(t) / (1 - F(t)).

    The odds and their first derivative are as deep as any hazard or
    density expression in this package needs.

    Attributes
    ----------
    kind : str
        One of ``"exponential-standard"`` or ``"user-supplied"``.
    w, d1 : callable
        Vectorized evaluators for w and w'.
    """

    kind: str
    w: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.kind not in BASELINE_KINDS:
            raise ValueError(f"baseline kind must be one of {BASELINE_KINDS}, got {self.kind!r}")

    @classmethod
    def user_supplied(cls, cdf: Callable, pdf: Callable) -> "Baseline":
        """The odds of an arbitrary baseline cdf F with density f.

        The derivative uses the identity w'(t) = f(t) / (1 - F(t))^2.
        """

        def w(t):
            t = _as_array(t)
            f_val = cdf(t)
            with np.errstate(divide="ignore"):
                return np.asarray(f_val / (1.0 - f_val), dtype=float)

        def d1(t):
            t = _as_array(t)
            f_val = cdf(t)
            with np.errstate(divide="ignore"):
                return np.asarray(pdf(t) / (1.0 - f_val) ** 2, dtype=float)

        return cls("user-supplied", w, d1)


# exact odds of the standard exponential: w(t) = e^t - 1, w'(t) = e^t
EXPONENTIAL_STANDARD = Baseline("exponential-standard", np.expm1, np.exp)


def _validate_positive(**params) -> None:
    for name, value in params.items():
        if not np.isfinite(value) or value <= 0.0:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


class _Derived:
    """The evaluators derived from ``cumulative_hazard`` and ``hazard``, written once.

    A namespace, not a base class: see ``_derive_evaluators``.
    """

    def sf(self, x):
        """Survival function exp(-H(x))."""
        return _match(x, survival(np.asarray(self.cumulative_hazard(_as_array(x)))))

    def cdf(self, x):
        """Distribution function 1 - exp(-H(x)), computed as -expm1(-H)."""
        return _match(x, distribution(np.asarray(self.cumulative_hazard(_as_array(x)))))

    def log_cdf(self, x):
        """log F(x), with relative precision in both tails (see log1mexp)."""
        return _match(x, log1mexp(np.asarray(self.cumulative_hazard(_as_array(x)))))

    def pdf(self, x):
        """Density, as hazard times survival; zero once survival underflows."""
        xa = _as_array(x)
        chf = np.asarray(self.cumulative_hazard(xa))
        return _match(x, density(chf, np.asarray(self.hazard(xa))))

    def reversed_hazard(self, x):
        """pdf(x) / cdf(x), both from one H(x); undefined where the cdf is zero."""
        xa = _as_array(x)
        chf = np.asarray(self.cumulative_hazard(xa))
        cdf = distribution(chf)
        if np.any(cdf == 0.0):
            raise EvaluationDomainError(
                "reversed hazard undefined where cdf(x) = 0; evaluate at x > 0"
            )
        return _match(x, density(chf, np.asarray(self.hazard(xa))) / cdf)

    def support_upper(self, tail: float = _TAIL) -> float:
        """Smallest bracketing x with sf(x) <= tail."""
        return float(_support_upper(self.sf, tail)[0])


def _derive_evaluators(cls: type) -> type:
    """Class decorator: put each ``_Derived`` evaluator into cls's own namespace.

    The functions are assigned rather than inherited because the
    benchmark's tracer (perfbench/tracing.py) wraps every evaluator it
    looks up in a class's own ``__dict__``, where an inherited method is
    missing.
    """
    for name, fn in vars(_Derived).items():
        if not name.startswith("__"):
            setattr(cls, name, fn)
    return cls


@_derive_evaluators
@dataclass(frozen=True)
class WeibullG:
    """Weibull-G lifetime with shape ``beta`` and scales ``alpha``, ``gamma``.

    The cumulative hazard is alpha * w(gamma x)**beta where w is the odds
    transform of the baseline. The default baseline is the standard
    exponential, for which every evaluator below is exact closed form.

    Parameters
    ----------
    alpha, beta, gamma : float
        Strictly positive parameters.
    baseline : Baseline, optional
        Defaults to the standard exponential.
    """

    alpha: float
    beta: float
    gamma: float
    baseline: Baseline = field(default=EXPONENTIAL_STANDARD)

    def __post_init__(self):
        _validate_positive(alpha=self.alpha, beta=self.beta, gamma=self.gamma)

    @property
    def label(self) -> str:
        return f"weibull-g(alpha={self.alpha:g}, beta={self.beta:g}, gamma={self.gamma:g})"

    def cumulative_hazard(self, x):
        """H(x) = alpha * w(gamma x)**beta, the negative log survival."""
        out = wg_cumulative_hazard(_as_array(x), self.alpha, self.beta, self.gamma, self.baseline)
        return _match(x, out)

    def hazard(self, x):
        """r(x) = alpha beta gamma w(gamma x)**(beta-1) w'(gamma x)."""
        out = wg_hazard(_as_array(x), self.alpha, self.beta, self.gamma, self.baseline)
        return _match(x, out)

    def quantile(self, u):
        """Inverse cdf on 0 < u < 1.

        Exact inverse for the exponential baseline,
        x = log(1 + (-log(1-u)/alpha)**(1/beta)) / gamma; bracketed
        bisection against the cdf otherwise.
        """
        ua = _as_array(u)
        _validate_unit_open(ua)
        if self.baseline.kind == "exponential-standard":
            core = (-np.log1p(-ua) / self.alpha) ** (1.0 / self.beta)
            return _match(u, np.log1p(core) / self.gamma)
        return _match(u, _invert_cdf(self.cdf, ua))


@_derive_evaluators
@dataclass(frozen=True)
class GompertzMakeham:
    """Gompertz-Makeham lifetime with hazard lambda + alpha e^{beta x}.

    Parameters
    ----------
    alpha, beta : float
        Strictly positive Gompertz parameters.
    lam : float
        Strictly positive Makeham (age-independent) hazard term.
    """

    alpha: float
    beta: float
    lam: float

    def __post_init__(self):
        _validate_positive(alpha=self.alpha, beta=self.beta, lam=self.lam)

    @property
    def label(self) -> str:
        return f"gompertz-makeham(alpha={self.alpha:g}, beta={self.beta:g}, lambda={self.lam:g})"

    def cumulative_hazard(self, x):
        """H(x) = lambda x + (alpha/beta)(e^{beta x} - 1)."""
        return _match(x, gm_cumulative_hazard(_as_array(x), self.alpha, self.beta, self.lam))

    def hazard(self, x):
        """Exactly lambda + alpha e^{beta x}."""
        return _match(x, gm_hazard(_as_array(x), self.alpha, self.beta, self.lam))

    def quantile(self, u):
        """Inverse cdf on 0 < u < 1, by Newton's method on the cumulative hazard.

        Solves H(x) = y with y = -log(1 - u). The start
        x0 = min(y / lambda, log1p(y beta / alpha) / beta) lies at or above
        the root, because H(x) >= lambda x and
        H(x) >= (alpha / beta)(e^{beta x} - 1). H is increasing and convex,
        so Newton steps x <- x - (H(x) - y) / r(x) taken from above
        decrease monotonically to the root. Each round keeps the smaller of
        the old and new iterate, and the iteration stops once no element
        decreases. Raises ConvergenceError if the residual |cdf(x) - u|
        is above 1e-12 after at most 200 rounds.
        """
        ua = _as_array(u)
        _validate_unit_open(ua)
        y = -np.log1p(-ua)
        x = np.minimum(y / self.lam, np.log1p(y * self.beta / self.alpha) / self.beta)
        for _ in range(_QUANTILE_MAX_ITER):
            newton = x - (self.cumulative_hazard(x) - y) / self.hazard(x)
            if not np.any(newton < x):
                break
            x = np.minimum(newton, x)
        _check_residual(self.cdf(x), ua)
        return _match(u, x)


# parameter names, cumulative hazard kernel and hazard kernel of each family
_FAMILIES = {
    WeibullG: (("alpha", "beta", "gamma"), wg_cumulative_hazard, wg_hazard),
    GompertzMakeham: (("alpha", "beta", "lam"), gm_cumulative_hazard, gm_hazard),
}


def _family(family: type) -> tuple:
    try:
        return _FAMILIES[family]
    except KeyError:
        raise TypeError(f"no stacked evaluation for {family.__name__} components") from None


def _validate_unit_open(u: np.ndarray) -> None:
    if u.size and (np.any(u <= 0.0) or np.any(u >= 1.0)):
        raise ValueError("quantile argument must satisfy 0 < u < 1")


def _check_residual(cdf_at_x, u: np.ndarray) -> None:
    """Raise ConvergenceError if |cdf(x) - u| exceeds 1e-12 anywhere."""
    residual = np.abs(np.asarray(cdf_at_x) - u)
    worst = float(np.max(residual)) if residual.size else 0.0
    if not worst <= _QUANTILE_RESIDUAL:
        raise ConvergenceError(f"quantile residual {worst:.3e} above {_QUANTILE_RESIDUAL:.0e}")


def _invert_cdf(cdf: Callable, u: np.ndarray) -> np.ndarray:
    """Solve cdf(x) = u elementwise on a (0, hi] bracket.

    The quantile of Weibull-G with a user-supplied baseline is its only
    caller: such a cumulative hazard need not be convex and has no
    closed-form bound on the root, so Newton's method has no safe start.
    Doubles hi until it covers max(u), then bisects. Raises
    ConvergenceError if the bracket search or the residual tolerance
    (1e-12 on |cdf(x) - u|) is not met within the iteration budget.
    """
    hi = 1.0
    target = float(np.max(u))
    for _ in range(_QUANTILE_MAX_ITER):
        if float(cdf(hi)) >= target:
            break
        hi *= 2.0
    else:
        raise ConvergenceError(f"no upper bracket found for quantile level {target!r}")

    lo_arr = np.zeros_like(u)
    hi_arr = np.full_like(u, hi)
    for _ in range(_QUANTILE_MAX_ITER):
        mid = 0.5 * (lo_arr + hi_arr)
        below = np.asarray(cdf(mid)) < u
        lo_arr = np.where(below, mid, lo_arr)
        hi_arr = np.where(below, hi_arr, mid)
        if np.all(hi_arr - lo_arr <= 4.0 * np.finfo(float).eps * np.maximum(hi_arr, 1e-300)):
            break
    x = 0.5 * (lo_arr + hi_arr)
    _check_residual(cdf(x), u)
    return x


def _support_upper(sf: Callable, tail: float, rows: int = 1) -> np.ndarray:
    """Smallest float x with sf(x) <= tail, row by row, for nonincreasing survivals.

    ``sf`` evaluates ``rows`` survival functions at once: it maps a
    (rows, m) array of points, row r for function r, to their survival
    values. A single lifetime is a batch of one. Probes x = 2**-20, ...,
    2**60 in one call to bracket each row's crossing between the last
    probe above the tail and the first at or below it (or 0 and 2**-20,
    taking sf(0) = 1 as for any lifetime). Each following round evaluates
    sf on 127 interior points of every row's bracket [lo, hi] in one call;
    hi becomes the first point at or below the tail and lo the point just
    before it. 63 of the points are evenly spaced, so a bracket shrinks at
    least 64-fold a round, which bounds a search from a power-of-two
    bracket to 10 sf calls. The other 64 cluster on both sides of a secant
    estimate of the crossing, at 2**-j, j = 1..32, of its distance to
    either end: the estimate is where g(x) = log(-log sf(x)) meets
    log(-log tail) on the line through g at lo and hi, taken from the sf
    values the round before left at the bracket ends (the midpoint where g
    is not finite there). In both families' tails log H is nearly linear
    in x, so the estimate's error shrinks about quadratically and a search
    takes 4 or 5 sf calls. A row whose bracket ends are adjacent floats
    keeps them in later rounds, and the search stops when every row has
    converged. The rows do not interact, so each row's result is the one
    the search gives it alone; for a nonincreasing sf it is the unique
    smallest float whose sf is at or below the tail, whichever points
    found it.

    Returns an array of ``rows`` points x with
    sf(x) <= tail < sf(np.nextafter(x, 0)). Raises ConvergenceError if a
    row's sf is still above the tail at 2**60.
    """
    if not 0.0 < tail < 1.0:
        raise ValueError("tail probability must lie in (0, 1)")
    probed = np.asarray(sf(np.broadcast_to(_TAIL_PROBES, (rows, _TAIL_PROBES.size))))
    under = probed <= tail
    if not bool(under.any(axis=1).all()):
        raise ConvergenceError(f"sf never reached tail {tail!r} up to x = 2**60")
    # a round's ends are lo, the interior points and hi, with their sf values
    # (sf(0) = 1 before the probes); the first end at or below the tail is the
    # new hi and the one before it the new lo
    pair = np.arange(2)
    ends = under.argmax(axis=1)[:, None] + pair
    bracket = _TAIL_ENDS[ends]
    values = np.concatenate((np.ones((rows, 1)), probed), axis=1)
    ends_sf = values.ravel()[ends + np.arange(rows)[:, None] * values.shape[1]]
    target = math.log(-math.log(tail))
    offsets = np.arange(rows)[:, None] * (_TAIL_SCALE.size + 2) + pair - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        while (np.nextafter(bracket[:, :1], bracket[:, 1:]) < bracket[:, 1:]).any():
            g = np.log(-np.log(ends_sf))
            centre = (target - g[:, :1]) / (g[:, 1:] - g[:, :1])
            centre[~np.isfinite(centre)] = 0.5
            # a centre rounded just outside [0, 1] puts a point just outside
            # the bracket; the flags still keep lo above the tail and hi not
            fractions = centre * _TAIL_SCALE + _TAIL_SHIFT
            fractions.sort(axis=1)
            lo, hi = bracket[:, :1], bracket[:, 1:]
            points = lo + (hi - lo) * fractions
            values = np.concatenate((ends_sf[:, :1], sf(points), ends_sf[:, 1:]), axis=1)
            k = (values <= tail).argmax(axis=1)[:, None] + offsets
            bracket = np.concatenate((lo, points, hi), axis=1).ravel()[k]
            ends_sf = values.ravel()[k]
    return bracket[:, 1]
