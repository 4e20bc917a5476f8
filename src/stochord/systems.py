"""Extreme order statistics of heterogeneous component systems.

A series system fails at the first component failure (the sample
minimum), so its survival function is the product of component survival
functions and its hazard rate is the sum of component hazards. A
parallel system fails at the last failure (the sample maximum), so its
cdf is the product of component cdfs and its reversed hazard rate is the
sum of component reversed hazards.

Products are accumulated in log space: the series sf is
exp(-sum of cumulative hazards) and the parallel cdf is
exp(sum of log cdfs), which keeps deep-tail evaluations stable; the log
cdfs come from log1mexp, so the parallel sf keeps its relative precision
deep in the upper tail too.

``SystemStack`` evaluates S systems with the same component layout at
once on (S, m) points, one component at a time; ``SystemSpec`` evaluates
a single system as a stack of one, so the two agree bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EvaluationDomainError
from .models import (
    EXPONENTIAL_STANDARD,
    _EXP_ARG_MAX,
    ComponentStack,
    WeibullG,
    _as_array,
    _Derived,
    _family,
    _match,
    density,
    distribution,
    log1mexp,
    survival,
)

STRUCTURES = ("series", "parallel")


def _run_key(component) -> tuple:
    return type(component), getattr(component, "baseline", EXPONENTIAL_STANDARD)


class SystemStack:
    """S systems of one structure, evaluated together on (S, m) points.

    The components are held as consecutive runs of one family and baseline,
    a ComponentStack each; component i of every system sits at the same
    place in the same run. Row s of the points and of every result belongs
    to system s. Each evaluator sums the components one at a time, in
    order, over (S, m) arrays, so row s is bit-identical to evaluating
    system s alone. Where a reversed hazard is undefined (a cdf of zero)
    it is NaN.
    """

    def __init__(self, structure: str, runs: Sequence[ComponentStack]):
        if structure not in STRUCTURES:
            raise ValueError(f"structure must be one of {STRUCTURES}, got {structure!r}")
        self.structure = structure
        self._columns = [(run, i) for run in runs for i in range(run.width)]

    @classmethod
    def of(cls, systems: Sequence["SystemSpec"]) -> "SystemStack":
        """Stack systems of one structure whose components line up by family and baseline."""
        first = systems[0]
        keys = [_run_key(c) for c in first.components]
        for system in systems[1:]:
            if system.structure != first.structure or \
                    [_run_key(c) for c in system.components] != keys:
                raise ValueError("stacked systems need one structure and matching components")
        runs, start = [], 0
        for k in range(1, len(keys) + 1):
            if k == len(keys) or keys[k] != keys[start]:
                runs.append(ComponentStack.of([s.components[start:k] for s in systems]))
                start = k
        return cls(first.structure, runs)

    def _chfs(self, x: np.ndarray):
        return (run.cumulative_hazard(x, i) for run, i in self._columns)

    def _parts(self, x: np.ndarray):
        """(cumulative hazard, hazard) of each component in turn."""
        return ((run.cumulative_hazard(x, i), run.hazard(x, i)) for run, i in self._columns)

    def _total(self, chfs) -> np.ndarray:
        """Series: the summed cumulative hazards. Parallel: the summed log cdfs."""
        if self.structure == "series":
            # finite component hazards near 1e308 may sum to inf; sf is then 0
            with np.errstate(over="ignore"):
                return sum(chfs)
        return sum(log1mexp(chf) for chf in chfs)

    def _sf(self, chfs) -> np.ndarray:
        total = self._total(chfs)
        return survival(total) if self.structure == "series" else -np.expm1(total)

    def _cdf(self, chfs) -> np.ndarray:
        total = self._total(chfs)
        return distribution(total) if self.structure == "series" else np.exp(total)

    def _pdf(self, parts) -> np.ndarray:
        """Density by the leave-one-out product rule."""
        pdfs, factors = [], []
        for chf, haz in parts:
            pdfs.append(density(chf, haz))
            factors.append(survival(chf) if self.structure == "series" else distribution(chf))
        others = _leave_one_out_products(factors)
        with np.errstate(invalid="ignore"):
            out = sum(f * rest for f, rest in zip(pdfs, others))
        return np.nan_to_num(out, nan=0.0, posinf=np.inf)

    def sf(self, x: np.ndarray) -> np.ndarray:
        return self._sf(self._chfs(x))

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return self._cdf(self._chfs(x))

    def hazard(self, x: np.ndarray) -> np.ndarray:
        """Series: the component hazard sum. Parallel: pdf over sf."""
        if self.structure == "series":
            return sum(run.hazard(x, i) for run, i in self._columns)
        # the density needs every component at once; the sf reuses them
        parts = list(self._parts(x))
        sf = self._sf(chf for chf, _ in parts)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(sf > 0.0, self._pdf(parts) / sf, np.inf)

    def reversed_hazard(self, x: np.ndarray) -> np.ndarray:
        """Parallel: the component reversed-hazard sum. Series: pdf over cdf."""
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.structure == "series":
                parts = list(self._parts(x))
                cdf = self._cdf(chf for chf, _ in parts)
                return np.where(cdf == 0.0, np.nan, self._pdf(parts) / cdf)
            total, undefined = 0, False
            for chf, haz in self._parts(x):
                cdf = distribution(chf)
                undefined = undefined | (cdf == 0.0)
                total = total + density(chf, haz) / cdf
            return np.where(undefined, np.nan, total)

    def pdf(self, x: np.ndarray) -> np.ndarray:
        """Density of the system lifetime via the leave-one-out product rule."""
        return self._pdf(self._parts(x))


@dataclass(frozen=True)
class SystemSpec:
    """A system of independent lifetime components.

    Parameters
    ----------
    components : tuple
        ``WeibullG`` and ``GompertzMakeham`` models, in any mix.
    structure : str
        ``"series"`` (system lifetime is the component minimum) or
        ``"parallel"`` (the component maximum).

    The evaluators run through a one-row SystemStack, the same path that
    evaluates batches of systems; it is built on the first evaluation.
    """

    components: tuple
    structure: str

    def __post_init__(self):
        if self.structure not in STRUCTURES:
            raise ValueError(f"structure must be one of {STRUCTURES}, got {self.structure!r}")
        if len(self.components) < 1:
            raise ValueError("a system needs at least one component")
        object.__setattr__(self, "components", tuple(self.components))
        for component in self.components:
            _family(type(component))

    @cached_property
    def _stack(self) -> SystemStack:
        return SystemStack.of([self])

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def label(self) -> str:
        return f"{self.structure}[{', '.join(c.label for c in self.components)}]"

    def _evaluate(self, quantity: str, x):
        xa = _as_array(x)
        return _match(x, getattr(self._stack, quantity)(xa).reshape(xa.shape))

    def sf(self, x):
        return self._evaluate("sf", x)

    def cdf(self, x):
        return self._evaluate("cdf", x)

    def hazard(self, x):
        """Series: the component hazard sum. Parallel: pdf over sf."""
        return self._evaluate("hazard", x)

    def reversed_hazard(self, x):
        """Parallel: the component reversed-hazard sum. Series: pdf over cdf."""
        xa = _as_array(x)
        out = self._stack.reversed_hazard(xa).reshape(xa.shape)
        if np.any(np.isnan(out)):
            raise EvaluationDomainError(
                "reversed hazard undefined where cdf(x) = 0; evaluate at x > 0"
            )
        return _match(x, out)

    def pdf(self, x):
        """Density of the system lifetime via the leave-one-out product rule."""
        return self._evaluate("pdf", x)

    # assigned, not inherited: see models._derive_evaluators
    support_upper = _Derived.support_upper


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
    w = first.baseline.w(t)
    d1 = first.baseline.d1(t)
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
    t = np.minimum(beta * xa, _EXP_ARG_MAX)
    out = np.exp(-total * xa - n * (alpha / beta) * np.expm1(t))
    return _match(x, out)
