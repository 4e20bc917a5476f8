"""Reference values for the benchmark's output checks, kept apart from stochord.

Nothing here imports stochord. The formulas are the closed forms stated in
the docstrings of ``stochord.models`` and ``stochord.systems``:

* Weibull-G with the standard exponential baseline, w(t) = e^t - 1:
  H(x) = alpha * w(gamma x)**beta and
  r(x) = alpha beta gamma w(gamma x)**(beta - 1) e^{gamma x}.
* Gompertz-Makeham: H(x) = lambda x + (alpha / beta)(e^{beta x} - 1) and
  r(x) = lambda + alpha e^{beta x}.
* A series system survives while every component does, so its cumulative
  hazard and hazard are the component sums. A parallel system has failed
  once every component has, so its cdf is the product of the component cdfs
  and its reversed hazard is the component sum.

Everything is evaluated with mpmath at ``DPS`` decimal digits, except
``cdf_float``, a vectorised float64 cdf for the KS check on 1e5 draws.

A law is a ``Law``: a family ("weibull-g" or "gompertz-makeham"), a structure
("single", "series" or "parallel") and a tuple of (alpha, beta, third)
parameter triples, where the third parameter is gamma for Weibull-G and
lambda for Gompertz-Makeham.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
import numpy as np

DPS = 40
FAMILIES = ("weibull-g", "gompertz-makeham")
STRUCTURES = ("single", "series", "parallel")


@dataclass(frozen=True)
class Law:
    """A lifetime law: one component, or a series or parallel system."""

    family: str
    structure: str
    params: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.structure not in STRUCTURES:
            raise ValueError(f"unknown structure {self.structure!r}")
        if not self.params or (self.structure == "single" and len(self.params) != 1):
            raise ValueError("a single law has one component, a system at least one")


def _component_chf_and_hazard(family: str, p, x):
    """Cumulative hazard and hazard of one component at mpf x > 0."""
    a, b, c = (mpmath.mpf(v) for v in p)
    if family == "weibull-g":
        t = c * x
        w = mpmath.expm1(t)
        return a * w**b, a * b * c * w ** (b - 1) * mpmath.exp(t)
    return c * x + (a / b) * mpmath.expm1(b * x), c + a * mpmath.exp(b * x)


def evaluate(law: Law, x) -> dict[str, mpmath.mpf]:
    """sf, cdf, hazard, reversed_hazard and log_pdf of ``law`` at x > 0 (float or mpf).

    Evaluated at DPS digits and returned as a dict keyed by those names.
    """
    with mpmath.workdps(DPS):
        xm = mpmath.mpf(x)
        parts = [_component_chf_and_hazard(law.family, p, xm) for p in law.params]
        if law.structure == "parallel":
            cdfs = [-mpmath.expm1(-chf) for chf, _ in parts]
            cdf = mpmath.fprod(cdfs)
            # reversed hazard of one component: r S / F
            rh = mpmath.fsum(haz * mpmath.exp(-chf) / f for (chf, haz), f in zip(parts, cdfs))
            sf = _parallel_sf([chf for chf, _ in parts])
            log_pdf = mpmath.log(rh) + mpmath.log(cdf)
            hazard = rh * cdf / sf
        else:
            chf = mpmath.fsum(c for c, _ in parts)
            hazard = mpmath.fsum(h for _, h in parts)
            sf = mpmath.exp(-chf)
            cdf = -mpmath.expm1(-chf)
            log_pdf = mpmath.log(hazard) - chf
            rh = hazard * sf / cdf
        return {"sf": sf, "cdf": cdf, "hazard": hazard,
                "reversed_hazard": rh, "log_pdf": log_pdf}


def _parallel_sf(chfs) -> mpmath.mpf:
    """1 - prod(1 - e^{-H_i}), without cancellation when every e^{-H_i} is tiny."""
    return -mpmath.expm1(mpmath.fsum(mpmath.log1p(-mpmath.exp(-chf)) for chf in chfs))


def _log_sf(law: Law, x) -> mpmath.mpf:
    chfs = [_component_chf_and_hazard(law.family, p, x)[0] for p in law.params]
    if law.structure == "parallel":
        return mpmath.log(_parallel_sf(chfs))
    return -mpmath.fsum(chfs)


def tail_point(law: Law, tail: float = 1e-6) -> float:
    """The x with sf(x) = tail, by bisection on log sf to 2^-64 of the bracket."""
    with mpmath.workdps(DPS):
        target = mpmath.log(mpmath.mpf(tail))
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        while _log_sf(law, hi) > target:
            lo, hi = hi, 2 * hi
        for _ in range(64):
            mid = (lo + hi) / 2
            if _log_sf(law, mid) > target:
                lo = mid
            else:
                hi = mid
        return float(hi)


def cdf_float(law: Law, x: np.ndarray) -> np.ndarray:
    """Vectorised float64 cdf of ``law`` at the points ``x``.

    Components are folded in one at a time, so that on 1e5 points the check
    holds a few arrays at once and stays below the peak RSS of the op it checks.
    """
    x = np.asarray(x, dtype=float)
    parallel = law.structure == "parallel"
    total = np.ones_like(x) if parallel else np.zeros_like(x)
    for a, b, c in law.params:
        if law.family == "weibull-g":
            chf = a * np.expm1(c * x) ** b
        else:
            chf = c * x + (a / b) * np.expm1(b * x)
        if parallel:
            total *= -np.expm1(-chf)
        else:
            total += chf
    return total if parallel else -np.expm1(-total)


def self_test() -> None:
    """Check the oracle at points whose values are worked out by hand.

    At x = ln 2 the Weibull-G component (1, 1, 1) has w = 1, so H = 1 and
    r = e^{ln 2} = 2. The Gompertz-Makeham component (alpha, beta, lambda) =
    (1, 1, 1) has H = ln 2 + 1 and r = 1 + 2 = 3. Raises AssertionError.
    """
    with mpmath.workdps(DPS):
        _self_test_at_ln2()


def _self_test_at_ln2() -> None:
    ln2 = mpmath.log(2)
    e1 = mpmath.exp(-1)
    wg = Law("weibull-g", "single", ((1.0, 1.0, 1.0),))
    gm = Law("gompertz-makeham", "single", ((1.0, 1.0, 1.0),))
    expected = {
        wg: {"sf": e1, "cdf": 1 - e1, "hazard": 2, "reversed_hazard": 2 * e1 / (1 - e1),
             "log_pdf": mpmath.log(2) - 1},
        gm: {"sf": e1 / 2, "cdf": 1 - e1 / 2, "hazard": 3,
             "reversed_hazard": 3 * (e1 / 2) / (1 - e1 / 2), "log_pdf": mpmath.log(3 * e1 / 2)},
        # two identical Weibull-G (1, 1, 1) components at x = ln 2
        Law("weibull-g", "series", ((1.0, 1.0, 1.0),) * 2): {
            "sf": e1**2, "cdf": 1 - e1**2, "hazard": 4,
            "reversed_hazard": 4 * e1**2 / (1 - e1**2), "log_pdf": mpmath.log(4) - 2},
        Law("weibull-g", "parallel", ((1.0, 1.0, 1.0),) * 2): {
            "sf": 1 - (1 - e1) ** 2, "cdf": (1 - e1) ** 2,
            "hazard": 2 * (2 * e1 * (1 - e1)) / (1 - (1 - e1) ** 2),
            "reversed_hazard": 2 * (2 * e1 / (1 - e1)),
            "log_pdf": mpmath.log(2 * 2 * e1 * (1 - e1))},
    }
    for law, values in expected.items():
        got = evaluate(law, ln2)
        for name, want in values.items():
            err = abs(got[name] - want) / abs(want)
            if not err < 1e-30:
                raise AssertionError(f"oracle {name} of {law} at ln 2: relative error {err}")
        flt = float(cdf_float(law, np.array([float(ln2)]))[0])
        if not abs(flt - float(values["cdf"])) <= 1e-15:
            raise AssertionError(f"float cdf of {law} at ln 2 is {flt}, want {values['cdf']}")
    # S(tail_point) = 1e-6 for the single Weibull-G: ln(1 + ln 1e6)
    want_x = float(mpmath.log(1 + mpmath.log(mpmath.mpf(10) ** 6)))
    if not abs(tail_point(wg) - want_x) <= 1e-14 * want_x:
        raise AssertionError("oracle tail point of weibull-g(1, 1, 1) is off")
