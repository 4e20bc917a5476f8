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
# the factors that widen a closed-form tail bracket's lower and upper end
# by 1e-9 relative, and the share of the level each Gompertz-Makeham term
# takes at those ends
_BRACKET_WIDENING = np.array([1.0 - 1e-9, 1.0 + 1e-9])[:, None, None]
_GM_SHARES = np.array([0.5, 1.0])[:, None, None]
_TINY = 2.0**-1022  # the smallest normal float

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
    2012. The log of a zero cdf is -inf, with a divide-by-zero flag that
    the caller's ``np.errstate`` ignores.
    """
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
    return np.where(sf > 0.0, hazard * sf, 0.0)


# Broadcasting kernels. Points and parameters broadcast against each other:
# the methods pass float parameters, a stack of S systems passes (S, 1)
# columns against (S, m) points. Both evaluate the same expression
# elementwise, so every row of a batch is bit-identical to the single
# evaluation.
#
# The kernels, log1mexp and density open no np.errstate, which costs about
# as much as a kernel call on a few points. A Weibull-G cumulative hazard
# may overflow to inf, its hazard divide by a zero odds, a log cdf be -inf
# and density form inf * 0 where it masks the product; each caller ignores
# those flags in one errstate around all of its kernel calls.


def wg_cumulative_hazard(x, alpha, beta, gamma, baseline: Baseline) -> np.ndarray:
    """Weibull-G H(x) = alpha * w(gamma x)**beta."""
    w = baseline.w(np.minimum(gamma * x, _EXP_ARG_MAX))
    return alpha * _power(w, beta)


def wg_hazard(x, alpha, beta, gamma, baseline: Baseline) -> np.ndarray:
    """Weibull-G r(x) = alpha beta gamma w(gamma x)**(beta-1) w'(gamma x)."""
    t = np.minimum(gamma * x, _EXP_ARG_MAX)
    w = baseline.w(t)
    d1 = baseline.d1(t)
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
        chf = np.asarray(self.cumulative_hazard(_as_array(x)))
        with np.errstate(divide="ignore"):
            return _match(x, log1mexp(chf))

    def pdf(self, x):
        """Density, as hazard times survival; zero once survival underflows."""
        xa = _as_array(x)
        chf = np.asarray(self.cumulative_hazard(xa))
        hazard = np.asarray(self.hazard(xa))
        with np.errstate(invalid="ignore", over="ignore"):
            return _match(x, density(chf, hazard))

    def reversed_hazard(self, x):
        """pdf(x) / cdf(x), both from one H(x); undefined where the cdf is zero."""
        xa = _as_array(x)
        chf = np.asarray(self.cumulative_hazard(xa))
        cdf = distribution(chf)
        if np.any(cdf == 0.0):
            raise EvaluationDomainError(
                "reversed hazard undefined where cdf(x) = 0; evaluate at x > 0"
            )
        hazard = np.asarray(self.hazard(xa))
        with np.errstate(invalid="ignore", over="ignore"):
            pdf = density(chf, hazard)
        return _match(x, pdf / cdf)

    def support_upper(self, tail: float = _TAIL) -> float:
        """Smallest x with sf(x) <= tail, searched from the closed-form bracket."""
        return float(_support_upper(self.sf, tail, bracket=self._tail_bracket(tail))[0])

    def _tail_bracket(self, tail: float) -> np.ndarray:
        """The (1, 2) closed-form bracket of this lifetime's tail point, as a
        series system of one component (see _tail_brackets)."""
        if type(self) not in _FAMILIES:
            # a subclass may evaluate another law than its parameters give
            return np.full((1, 2), np.inf)
        names = _FAMILIES[type(self)][0]
        params = np.array([[[getattr(self, name)] for name in names]], dtype=float)
        kind = (type(self), getattr(self, "baseline", EXPONENTIAL_STANDARD))
        return _tail_brackets([kind], params, "series", tail)


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
        xa = _as_array(x)
        with np.errstate(over="ignore"):
            out = wg_cumulative_hazard(xa, self.alpha, self.beta, self.gamma, self.baseline)
        return _match(x, out)

    def hazard(self, x):
        """r(x) = alpha beta gamma w(gamma x)**(beta-1) w'(gamma x)."""
        xa = _as_array(x)
        with np.errstate(divide="ignore", over="ignore"):
            out = wg_hazard(xa, self.alpha, self.beta, self.gamma, self.baseline)
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


def _tail_brackets(kinds, params: np.ndarray, structure: str, tail: float) -> np.ndarray:
    """Closed-form brackets [lo, hi] of S systems' tail points, as an (S, 2) array.

    ``kinds`` and the (S, 3, n) ``params`` describe the systems as for
    ``systems.SystemStack``; a single lifetime is a series system of one.
    With L = -log(tail), the cumulative hazard of component i reaches a
    level y at a point between lo_i(y) and hi_i(y):

    * Weibull-G on the exponential baseline: both are the exact inverse
      log1p((y / alpha)**(1 / beta)) / gamma, as in ``WeibullG.quantile``;
    * Gompertz-Makeham: hi_i(y) = min(y / lambda, log1p(y beta / alpha) / beta),
      where one of H's two terms alone reaches y (``GompertzMakeham.quantile``
      starts its Newton iteration there), and
      lo_i(y) = min(y / (2 lambda), log1p(y beta / (2 alpha)) / beta), where
      each term is at most y / 2.

    A series sf is the product of the component sfs, so the tail point lies
    in [min_i lo_i(L / n), min_i hi_i(L)]: below the first end every factor
    is above tail**(1/n), and at the second one factor is at or below the
    tail. A parallel cdf is the product of the component cdfs, so it lies
    in [max_i lo_i(L), max_i hi_i(L + log n)]: below the first end one
    component sf is above the tail, and at the second every component cdf
    is at least 1 - tail / n, whose n-th power is at least 1 - tail.

    Each end is widened by 1e-9 relative, so rounding cannot put it on the
    wrong side. A subnormal result or step has lost that precision, so it
    counts as 0, and a lower end of 0 is always below the tail point. An
    upper end of 0 or past the kernels' exp clip at ``_EXP_ARG_MAX``, where
    the clipped sf may stay above the tail, is inf. A user-supplied
    baseline's odds have no closed-form inverse, so a system with one gets
    [inf, inf]. A row with an end that is not finite has no bracket.
    """
    if any(baseline.kind != "exponential-standard" for family, baseline in kinds
           if family is WeibullG):
        return np.full((params.shape[0], 2), np.inf)
    level = -math.log(tail)
    n = len(kinds)
    series = structure == "series"
    # the levels of the lower and the upper ends, as a (2, 1, 1) column
    y = np.array((level / n, level) if series else (level, level + math.log(n)))[:, None, None]
    wg = [i for i, (family, _) in enumerate(kinds) if family is WeibullG]
    gm = [i for i in range(n) if i not in wg]
    # a family with every column indexes them by a slice, which is a view
    wg, gm = (slice(None) if len(cols) == n else cols for cols in (wg, gm))
    # each component's lower and upper end, (2, S, n)
    ends = np.empty((2,) + params[:, 0].shape)
    # the rate inside each component's clipped exp: gamma, or beta
    rate = params[:, 1].copy()

    def normal(a):
        return np.where(a < _TINY, 0.0, a)

    with np.errstate(over="ignore"):
        if wg:
            alpha, beta, gamma = (params[:, k, wg] for k in range(3))
            ends[:, :, wg] = np.log1p(normal(normal(y / alpha) ** (1.0 / beta))) / gamma
            rate[:, wg] = gamma
        if gm:
            alpha, beta, lam = (params[:, k, gm] for k in range(3))
            share = _GM_SHARES * y
            ends[:, :, gm] = np.minimum(share / lam, np.log1p(normal(share * beta / alpha)) / beta)
        ends *= _BRACKET_WIDENING
        lo, hi = ends
        lo[lo < _TINY] = 0.0
        hi[(hi < _TINY) | (rate * hi > _EXP_ARG_MAX)] = np.inf
    return (ends.min(axis=2) if series else ends.max(axis=2)).T


def _support_upper(sf: Callable, tail: float, rows: int = 1,
                   bracket: np.ndarray | None = None) -> np.ndarray:
    """Smallest float x with sf(x) <= tail, row by row, for nonincreasing survivals.

    ``sf`` evaluates ``rows`` survival functions at once: it maps a
    (rows, m) array of points, row r for function r, to their survival
    values. A single lifetime is a batch of one.

    The search starts from ``bracket``, a (rows, 2) array of [lo, hi] per
    row such as ``_tail_brackets`` gives. The first sf call evaluates
    every row at its two ends, and a row keeps its bracket when
    sf(lo) > tail >= sf(hi). The other rows take the probe: those of a
    system with a user-supplied baseline, which has no closed-form
    bracket, those whose bracket has an end that is not finite or ends
    past 2**60 or fails the check, and every row when ``bracket`` is None.
    The probe, one call on x = 2**-20, ..., 2**60, brackets the crossing
    between the last probe above the tail and the first at or below it
    (or 0 and 2**-20, taking sf(0) = 1 as for any lifetime).

    Each following round evaluates sf on 127 interior points of every
    row's bracket [lo, hi] in one call; hi becomes the first point at or
    below the tail and lo the point just before it. 63 of the points are
    evenly spaced, so a bracket shrinks at least 64-fold a round, which
    bounds a search from a power-of-two bracket to 10 sf calls. The other
    64 cluster on both sides of a secant estimate of the crossing, at
    2**-j, j = 1..32, of its distance to either end: the estimate is where
    g(x) = log(-log sf(x)) meets log(-log tail) on the line through g at lo
    and hi, taken from the sf values the round before left at the bracket
    ends (the midpoint where g is not finite there). In both families'
    tails log H is nearly linear in x, so the estimate's error shrinks
    about quadratically and a search takes 4 or 5 sf calls from the
    probe, one fewer from a closed-form bracket. A row whose bracket ends
    are adjacent floats keeps them in later rounds, and the search stops
    when every row has converged. The rows do not interact, so each row's
    result is the one the search gives it alone; for a nonincreasing sf
    it is the unique smallest float whose sf is at or below the tail,
    whichever bracket and points found it.

    Returns an array of ``rows`` points x with
    sf(x) <= tail < sf(np.nextafter(x, 0)). Raises ConvergenceError if a
    probed row's sf is still above the tail at 2**60.
    """
    if not 0.0 < tail < 1.0:
        raise ValueError("tail probability must lie in (0, 1)")
    # the bracket ends of each row and their sf values
    bracket = np.full((rows, 2), np.inf) if bracket is None else np.asarray(bracket, dtype=float)
    ends_sf = np.ones((rows, 2))
    kept = np.isfinite(bracket).all(axis=1) & (bracket[:, 1] <= _TAIL_PROBES[-1])
    if kept.any():
        ends_sf = np.asarray(sf(np.where(kept[:, None], bracket, 1.0)))
        kept &= (ends_sf[:, 0] > tail) & (ends_sf[:, 1] <= tail)
    pair = np.arange(2)
    if not kept.all():
        probed = np.asarray(sf(np.broadcast_to(_TAIL_PROBES, (rows, _TAIL_PROBES.size))))
        under = probed <= tail
        if not bool(under.any(axis=1)[~kept].all()):
            raise ConvergenceError(f"sf never reached tail {tail!r} up to x = 2**60")
        # the first probe at or below the tail is hi and the one before it lo
        # (sf(0) = 1 before the probes)
        ends = under.argmax(axis=1)[:, None] + pair
        values = np.concatenate((np.ones((rows, 1)), probed), axis=1)
        bracket = np.where(kept[:, None], bracket, _TAIL_ENDS[ends])
        ends_sf = np.where(kept[:, None], ends_sf, np.take_along_axis(values, ends, axis=1))
    # a round's ends are lo, the interior points and hi, with their sf values;
    # the first end at or below the tail is the new hi and the one before it
    # the new lo
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
