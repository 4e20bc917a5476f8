"""Extreme order statistics of heterogeneous component systems.

A series system fails at the first component failure (the sample
minimum), so its survival function is the product of component survival
functions and its hazard rate is the sum of component hazards. A
parallel system fails at the last failure (the sample maximum), so its
cdf is the product of component cdfs and its reversed hazard rate is the
sum of component reversed hazards.

Products are accumulated in log space: the series sf is
exp(-sum of cumulative hazards) and the parallel cdf is
exp(sum of log cdfs), which keeps deep-tail evaluations stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationDomainError
from .models import WeibullG, _as_array, _match, _support_upper

STRUCTURES = ("series", "parallel")


@dataclass(frozen=True)
class SystemSpec:
    """A system of independent lifetime components.

    Parameters
    ----------
    components : tuple
        Lifetime models exposing the common evaluation surface
        (``cdf``, ``sf``, ``pdf``, ``hazard``, ``reversed_hazard``,
        ``cumulative_hazard``, ``log_cdf``).
    structure : str
        ``"series"`` (system lifetime is the component minimum) or
        ``"parallel"`` (the component maximum).
    """

    components: tuple
    structure: str

    def __post_init__(self):
        if self.structure not in STRUCTURES:
            raise ValueError(f"structure must be one of {STRUCTURES}, got {self.structure!r}")
        if len(self.components) < 1:
            raise ValueError("a system needs at least one component")
        object.__setattr__(self, "components", tuple(self.components))

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def label(self) -> str:
        return f"{self.structure}[{', '.join(c.label for c in self.components)}]"

    def _chf_total(self, x: np.ndarray) -> np.ndarray:
        # finite component hazards near 1e308 may sum to inf; sf is then 0
        with np.errstate(over="ignore"):
            return sum(np.asarray(c.cumulative_hazard(x)) for c in self.components)

    def _log_cdf_total(self, x: np.ndarray) -> np.ndarray:
        return sum(np.asarray(c.log_cdf(x)) for c in self.components)

    def sf(self, x):
        xa = _as_array(x)
        if self.structure == "series":
            out = np.exp(-self._chf_total(xa))
        else:
            out = -np.expm1(self._log_cdf_total(xa))
        return _match(x, out)

    def cdf(self, x):
        xa = _as_array(x)
        if self.structure == "series":
            out = -np.expm1(-self._chf_total(xa))
        else:
            out = np.exp(self._log_cdf_total(xa))
        return _match(x, out)

    def hazard(self, x):
        """Series: the component hazard sum. Parallel: pdf over sf."""
        xa = _as_array(x)
        if self.structure == "series":
            out = sum(np.asarray(c.hazard(xa)) for c in self.components)
        else:
            sf = np.asarray(self.sf(xa))
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.where(sf > 0.0, np.asarray(self.pdf(xa)) / sf, np.inf)
        return _match(x, out)

    def reversed_hazard(self, x):
        """Parallel: the component reversed-hazard sum. Series: pdf over cdf."""
        xa = _as_array(x)
        if self.structure == "parallel":
            out = sum(np.asarray(c.reversed_hazard(xa)) for c in self.components)
        else:
            cdf = np.asarray(self.cdf(xa))
            if np.any(cdf == 0.0):
                raise EvaluationDomainError(
                    "reversed hazard undefined where cdf(x) = 0; evaluate at x > 0"
                )
            out = np.asarray(self.pdf(xa)) / cdf
        return _match(x, out)

    def pdf(self, x):
        """Density of the system lifetime via the leave-one-out product rule."""
        xa = _as_array(x)
        parts = self.components
        pdfs = [np.asarray(c.pdf(xa)) for c in parts]
        if self.structure == "series":
            sfs = [np.asarray(c.sf(xa)) for c in parts]
            others = _leave_one_out_products(sfs)
        else:
            cdfs = [np.asarray(c.cdf(xa)) for c in parts]
            others = _leave_one_out_products(cdfs)
        with np.errstate(invalid="ignore"):
            out = sum(f * rest for f, rest in zip(pdfs, others))
        return _match(x, np.nan_to_num(out, nan=0.0, posinf=np.inf))

    def support_upper(self, tail: float = 1e-6) -> float:
        """Smallest bracketing x with system sf(x) <= tail."""
        return _support_upper(self.sf, tail)


def _leave_one_out_products(factors: list[np.ndarray]) -> list[np.ndarray]:
    """For factors v_1..v_n, return products of all v_j with j != i."""
    n = len(factors)
    if n == 1:
        return [np.ones_like(factors[0])]
    prefix = [np.ones_like(factors[0])]
    for v in factors[:-1]:
        prefix.append(prefix[-1] * v)
    suffix = [np.ones_like(factors[0])]
    for v in reversed(factors[1:]):
        suffix.append(suffix[-1] * v)
    suffix.reverse()
    return [prefix[i] * suffix[i] for i in range(n)]


def system_sf(system: SystemSpec, x):
    """Survival function of the system lifetime."""
    return system.sf(x)


def system_cdf(system: SystemSpec, x):
    """Distribution function of the system lifetime."""
    return system.cdf(x)


def series_hazard(system: SystemSpec, x):
    """Hazard rate of a series system, the sum of component hazards."""
    if system.structure != "series":
        raise ValueError("series_hazard requires a series system")
    return system.hazard(x)


def parallel_reversed_hazard(system: SystemSpec, x):
    """Reversed hazard rate of a parallel system, the component sum."""
    if system.structure != "parallel":
        raise ValueError("parallel_reversed_hazard requires a parallel system")
    return system.reversed_hazard(x)


def parallel_reversed_hazard_factored(system: SystemSpec, x):
    """Factored reversed hazard for parallel Weibull-G with shared beta and gamma.

    With z(x) = w(gamma x)**beta and weights alpha_i, the reversed hazard
    collapses to

        z'(x) * sum_i alpha_i / (e^{alpha_i z(x)} - 1),

    where z'(x) = beta gamma w**(beta-1) w'(gamma x). Requires every
    component to be a WeibullG sharing beta, gamma, and baseline.
    """
    if system.structure != "parallel":
        raise ValueError("parallel_reversed_hazard_factored requires a parallel system")
    parts = system.components
    if not all(isinstance(c, WeibullG) for c in parts):
        raise ValueError("factored form requires Weibull-G components")
    first = parts[0]
    if any(c.beta != first.beta or c.gamma != first.gamma or c.baseline is not first.baseline
           for c in parts[1:]):
        raise ValueError("factored form requires shared beta, gamma, and baseline")

    xa = _as_array(x)
    beta, gamma = first.beta, first.gamma
    t = gamma * xa
    w = first.baseline.odds.w(t)
    d1 = first.baseline.odds.d1(t)
    if np.any(np.asarray(w) <= 0.0):
        raise EvaluationDomainError("factored reversed hazard undefined where cdf(x) = 0")
    z = w**beta
    z_prime = beta * gamma * w ** (beta - 1.0) * d1
    with np.errstate(over="ignore"):
        weight_sum = sum(c.alpha / np.expm1(c.alpha * z) for c in parts)
    return _match(x, z_prime * weight_sum)


def lambda_aggregate_sf(lam, alpha: float, beta: float, x):
    """Series survival for Gompertz-Makeham components with shared alpha, beta.

    For rates lam = (lambda_1, ..., lambda_n),

        S(x) = exp(-(sum_i lambda_i) x - n (alpha/beta)(e^{beta x} - 1)),

    which depends on the rate vector only through its sum. The sum is
    accumulated with compensated summation so any permutation of ``lam``
    yields the identical float.
    """
    lam = [float(v) for v in np.atleast_1d(np.asarray(lam, dtype=float))]
    if len(lam) < 1:
        raise ValueError("lam must hold at least one rate")
    if any(not np.isfinite(v) or v <= 0.0 for v in lam):
        raise ValueError("all rates must be positive and finite")
    if not (np.isfinite(alpha) and alpha > 0.0 and np.isfinite(beta) and beta > 0.0):
        raise ValueError("alpha and beta must be positive and finite")
    total = math.fsum(lam)
    n = len(lam)
    xa = _as_array(x)
    t = np.minimum(beta * xa, 700.0)
    out = np.exp(-total * xa - n * (alpha / beta) * np.expm1(t))
    return _match(x, out)
