"""Lifetime models: odds-transformed Weibull families and Gompertz-Makeham.

A Weibull-G lifetime applies a Weibull shape to the odds of a baseline
distribution F. With w(t) = F(t) / (1 - F(t)),

    H(x) = alpha * w(gamma x)**beta                          (cumulative hazard)
    S(x) = exp(-H(x))
    r(x) = alpha beta gamma w(gamma x)**(beta - 1) w'(gamma x)

The standard exponential baseline gives w(t) = e^t - 1 with
w' = w'' = w''' = e^t, so every derived quantity (including the quantile
function) is available in closed form. Arbitrary baselines are supported
through a user-supplied cdf/pdf pair; the first odds derivative is then
computed analytically from the pdf and higher derivatives fall back to
central finite differences.

The Gompertz-Makeham lifetime has hazard rate lambda + alpha e^{beta x}
and survival function

    S(x) = exp(-lambda x - (alpha / beta)(e^{beta x} - 1)).

Its quantile has no closed form; Newton's method on the convex
cumulative hazard finds it from a closed-form upper bound.

Both model classes expose the same evaluation surface (``cdf``, ``sf``,
``pdf``, ``hazard``, ``reversed_hazard``, ``cumulative_hazard``,
``quantile``, ``support_upper``), which is what the system and order
layers program against. All evaluators accept scalars or arrays and
return matching shapes.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, EvaluationDomainError

# exp overflows float64 just above 709; clamp arguments a bit below that
_EXP_ARG_MAX = 700.0
_QUANTILE_MAX_ITER = 200
_QUANTILE_RESIDUAL = 1e-12
_FD_STEP = 1e-5
# interior points of a section-search round, as fractions of the bracket; 127
# was the fastest of 127, 511, 2047 and 8191: larger sections make fewer sf
# calls but cost more per call
_TAIL_SECTION = np.arange(1, 128) / 128.0

BASELINE_KINDS = ("exponential-standard", "user-supplied")


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


@dataclass(frozen=True)
class OddsFn:
    """The odds transform w(t) = F(t) / (1 - F(t)) of a baseline cdf.

    Bundles the transform with its first three derivatives, which is as
    deep as any hazard or density expression in this package needs.

    Attributes
    ----------
    w, d1, d2, d3 : callable
        Vectorized evaluators for w and its derivatives.
    """

    w: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]
    d3: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def exponential(cls) -> "OddsFn":
        """Exact odds of the standard exponential: w(t) = e^t - 1."""
        return cls(w=np.expm1, d1=np.exp, d2=np.exp, d3=np.exp)

    @classmethod
    def from_cdf_pdf(cls, cdf: Callable, pdf: Callable) -> "OddsFn":
        """Build the odds transform of an arbitrary baseline.

        The first derivative uses the identity w'(t) = f(t) / (1 - F(t))^2;
        the second and third use central finite differences of w' with
        step 1e-5 * max(1, |t|).
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

        def d2(t):
            t = _as_array(t)
            h = _FD_STEP * np.maximum(1.0, np.abs(t))
            return (d1(t + h) - d1(t - h)) / (2.0 * h)

        def d3(t):
            t = _as_array(t)
            h = _FD_STEP * np.maximum(1.0, np.abs(t))
            return (d1(t + h) - 2.0 * d1(t) + d1(t - h)) / h**2

        return cls(w=w, d1=d1, d2=d2, d3=d3)


@dataclass(frozen=True)
class Baseline:
    """A baseline distribution F feeding the odds transform.

    Attributes
    ----------
    kind : str
        One of ``"exponential-standard"`` or ``"user-supplied"``.
    cdf, pdf : callable
        Evaluators for F and its density on [0, inf).
    odds : OddsFn
        The odds transform of F with derivatives.
    """

    kind: str
    cdf: Callable[[np.ndarray], np.ndarray]
    pdf: Callable[[np.ndarray], np.ndarray]
    odds: OddsFn

    def __post_init__(self):
        if self.kind not in BASELINE_KINDS:
            raise ValueError(f"baseline kind must be one of {BASELINE_KINDS}, got {self.kind!r}")

    @classmethod
    def user_supplied(cls, cdf: Callable, pdf: Callable) -> "Baseline":
        """Wrap a cdf/pdf pair, deriving the odds transform from them."""
        return cls(kind="user-supplied", cdf=cdf, pdf=pdf, odds=OddsFn.from_cdf_pdf(cdf, pdf))


EXPONENTIAL_STANDARD = Baseline(
    kind="exponential-standard",
    cdf=lambda t: -np.expm1(-np.asarray(t, dtype=float)),
    pdf=lambda t: np.exp(-np.asarray(t, dtype=float)),
    odds=OddsFn.exponential(),
)


def _validate_positive(**params) -> None:
    for name, value in params.items():
        if not np.isfinite(value) or value <= 0.0:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


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

    def _odds_at(self, x: np.ndarray) -> np.ndarray:
        t = np.minimum(self.gamma * x, _EXP_ARG_MAX)
        return self.baseline.odds.w(t)

    def cumulative_hazard(self, x):
        """H(x) = alpha * w(gamma x)**beta, the negative log survival."""
        xa = _as_array(x)
        w = self._odds_at(xa)
        with np.errstate(over="ignore"):
            out = self.alpha * w**self.beta
        return _match(x, out)

    def sf(self, x):
        """Survival function exp(-H(x))."""
        chf = np.asarray(self.cumulative_hazard(_as_array(x)))
        return _match(x, np.exp(-chf))

    def cdf(self, x):
        """Distribution function 1 - exp(-H(x)), computed as -expm1(-H)."""
        chf = np.asarray(self.cumulative_hazard(_as_array(x)))
        return _match(x, -np.expm1(-chf))

    def log_cdf(self, x):
        """log F(x), safe for points deep in the lower tail."""
        chf = np.asarray(self.cumulative_hazard(_as_array(x)))
        with np.errstate(divide="ignore"):
            out = np.log(-np.expm1(-chf))
        return _match(x, out)

    def hazard(self, x):
        """r(x) = alpha beta gamma w(gamma x)**(beta-1) w'(gamma x)."""
        xa = _as_array(x)
        t = np.minimum(self.gamma * xa, _EXP_ARG_MAX)
        w = self.baseline.odds.w(t)
        d1 = self.baseline.odds.d1(t)
        with np.errstate(divide="ignore", over="ignore"):
            out = self.alpha * self.beta * self.gamma * w ** (self.beta - 1.0) * d1
        return _match(x, out)

    def pdf(self, x):
        """Density, as hazard times survival; zero once survival underflows."""
        xa = _as_array(x)
        sf = np.asarray(self.sf(xa))
        haz = np.asarray(self.hazard(xa))
        with np.errstate(invalid="ignore", over="ignore"):
            out = np.where(sf > 0.0, haz * sf, 0.0)
        return _match(x, out)

    def reversed_hazard(self, x):
        """pdf(x) / cdf(x); undefined where the cdf is zero."""
        xa = _as_array(x)
        cdf = np.asarray(self.cdf(xa))
        if np.any(cdf == 0.0):
            raise EvaluationDomainError(
                "reversed hazard undefined where cdf(x) = 0; evaluate at x > 0"
            )
        return _match(x, np.asarray(self.pdf(xa)) / cdf)

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

    def support_upper(self, tail: float = 1e-6) -> float:
        """Smallest bracketing x with sf(x) <= tail."""
        return _support_upper(self.sf, tail)


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
        xa = _as_array(x)
        t = np.minimum(self.beta * xa, _EXP_ARG_MAX)
        out = self.lam * xa + (self.alpha / self.beta) * np.expm1(t)
        return _match(x, out)

    def sf(self, x):
        chf = np.asarray(self.cumulative_hazard(_as_array(x)))
        return _match(x, np.exp(-chf))

    def cdf(self, x):
        chf = np.asarray(self.cumulative_hazard(_as_array(x)))
        return _match(x, -np.expm1(-chf))

    def log_cdf(self, x):
        chf = np.asarray(self.cumulative_hazard(_as_array(x)))
        with np.errstate(divide="ignore"):
            out = np.log(-np.expm1(-chf))
        return _match(x, out)

    def hazard(self, x):
        """Exactly lambda + alpha e^{beta x}."""
        xa = _as_array(x)
        t = np.minimum(self.beta * xa, _EXP_ARG_MAX)
        return _match(x, self.lam + self.alpha * np.exp(t))

    def pdf(self, x):
        xa = _as_array(x)
        sf = np.asarray(self.sf(xa))
        haz = np.asarray(self.hazard(xa))
        with np.errstate(invalid="ignore", over="ignore"):
            out = np.where(sf > 0.0, haz * sf, 0.0)
        return _match(x, out)

    def reversed_hazard(self, x):
        xa = _as_array(x)
        cdf = np.asarray(self.cdf(xa))
        if np.any(cdf == 0.0):
            raise EvaluationDomainError(
                "reversed hazard undefined where cdf(x) = 0; evaluate at x > 0"
            )
        return _match(x, np.asarray(self.pdf(xa)) / cdf)

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

    def support_upper(self, tail: float = 1e-6) -> float:
        return _support_upper(self.sf, tail)


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


def _support_upper(sf: Callable, tail: float) -> float:
    """Smallest float x with sf(x) <= tail, for a nonincreasing sf.

    Probes x = 2**-20, ..., 2**60 in one vectorised call to bracket the
    crossing between the last probe above the tail and the first at or
    below it (or 0 and 2**-20, taking sf(0) = 1 as for any lifetime).
    Each following round evaluates sf on 127 evenly spaced interior
    points of the bracket [lo, hi] in one call; hi becomes the first
    point at or below the tail and lo the point just before it. The
    search stops when no float lies strictly between lo and hi, which
    takes 8 rounds from a power-of-two bracket, so 9 sf calls in all.

    The result x satisfies sf(x) <= tail < sf(np.nextafter(x, 0)).
    Raises ConvergenceError if sf is still above the tail at 2**60.
    """
    if not 0.0 < tail < 1.0:
        raise ValueError("tail probability must lie in (0, 1)")
    probes = np.power(2.0, np.arange(-20, 61, dtype=float))
    under = np.asarray(sf(probes)) <= tail
    if not bool(under.any()):
        raise ConvergenceError(f"sf never reached tail {tail!r} up to x = 2**60")
    first = int(np.argmax(under))
    lo = 0.0 if first == 0 else float(probes[first - 1])
    hi = float(probes[first])
    while np.nextafter(lo, hi) < hi:
        points = lo + (hi - lo) * _TAIL_SECTION
        under = np.asarray(sf(points)) <= tail
        first = int(np.argmax(under)) if under.any() else len(points)
        if first > 0:
            lo = float(points[first - 1])
        if first < len(points):
            hi = float(points[first])
    return hi
