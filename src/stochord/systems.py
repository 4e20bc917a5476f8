"""Extreme order statistics of heterogeneous component systems.

A series system fails at the first component failure (the sample
minimum), so its survival function is the product of component survival
functions and its hazard rate is the sum of component hazards. A
parallel system fails at the last failure (the sample maximum), so its
cdf is the product of component cdfs and its reversed hazard rate is the
sum of component reversed hazards.

Each structure is described by two sums over its components, which read
each component's cumulative hazard H_i and hazard h_i once: sum H_i and
sum h_i for a series system, T = sum log F_i and the reversed-hazard sum
R = sum f_i / F_i for a parallel one. Every quantity comes from them,
through f = S sum h_i (series) and f = F R (parallel):

    quantity          series                       parallel
    sf                exp(-sum H_i)                -expm1(T)
    cdf               -expm1(-sum H_i)             exp(T)
    hazard            sum h_i                      pdf / sf
    reversed hazard   pdf / cdf                    R
    pdf               sum h_i exp(-sum H_i)        exp(log R + T)

The log cdfs come from log1mexp, so the parallel sf keeps its relative
precision deep in the upper tail. R is NaN where a component cdf is 0,
and the parallel pdf is 0 there. No quantity evaluates a kernel it does
not read.

``SystemStack`` evaluates S systems with the same component kinds at
once on (S, m) points, one component at a time, from one (S, 3, n)
parameter array; ``SystemSpec`` evaluates a single system as a stack of
one, so the two agree bit for bit.
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
    WeibullG,
    _as_array,
    _Derived,
    _family,
    _match,
    _tail_brackets,
    density,
    distribution,
    log1mexp,
    survival,
)

STRUCTURES = ("series", "parallel")


class SystemStack:
    """S systems of one structure, evaluated together on (S, m) points.

    ``kinds`` gives each of the n components its (family, baseline), the
    same in every system; the baseline is read for Weibull-G only.
    ``params`` is an (S, 3, n) array: ``params[s, :, i]`` holds component i
    of system s in its family's declaration order (alpha, beta, gamma for
    Weibull-G; alpha, beta, lam for Gompertz-Makeham). Each component is
    one column: its family's two kernels and their arguments. Row s of the
    points and of every result belongs to system s. Each evaluator sums
    the columns one at a time, in order, over (S, m) arrays, so row s is
    bit-identical to evaluating system s alone.

    A stack of one system passes its kernels float parameters, as the
    model methods do, and takes points of any shape: with (1, 1) columns
    ``models._power`` takes its column path, which is slower for the
    single systems that ``compare`` evaluates.
    """

    def __init__(self, structure: str, kinds: Sequence[tuple], params: np.ndarray):
        if structure not in STRUCTURES:
            raise ValueError(f"structure must be one of {STRUCTURES}, got {structure!r}")
        self.structure = structure
        params = np.asarray(params, dtype=float)
        self._kinds, self._params = list(kinds), params
        self._columns = []
        for i, (family, baseline) in enumerate(kinds):
            _, chf, hazard = _family(family)
            if params.shape[0] == 1:
                args = tuple(float(v) for v in params[0, :, i])
            else:
                args = tuple(np.ascontiguousarray(params[:, p, i:i + 1]) for p in range(3))
            self._columns.append((chf, hazard, args + ((baseline,) if family is WeibullG else ())))

    def _sums(self, x: np.ndarray, total: bool = True, rate: bool = True) -> tuple:
        """The structure's two component sums, each kernel evaluated once.

        Series: (sum of H_i, sum of h_i). Parallel: (T = sum of log F_i,
        sum of the component reversed hazards, NaN where a component cdf is
        0). A sum not asked for is None, and no kernel that only it reads
        is evaluated.
        """
        series = self.structure == "series"
        # start at 0, not at the first term: 0 + -0.0 is 0.0, and the sign of
        # T sets the sign of a zero parallel sf, which the CSV prints
        totals = rates = 0
        undefined = False
        # finite component hazards near 1e308 may sum to inf; sf is then 0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for chf_kernel, hazard_kernel, args in self._columns:
                # a parallel system's reversed hazards read H_i too
                chf = chf_kernel(x, *args) if total or not series else None
                if total:
                    totals = totals + (chf if series else log1mexp(chf))
                if rate and series:
                    rates = rates + hazard_kernel(x, *args)
                elif rate:
                    cdf = distribution(chf)
                    undefined = undefined | (cdf == 0.0)
                    rates = rates + density(chf, hazard_kernel(x, *args)) / cdf
        if rate and not series:
            rates = np.where(undefined, np.nan, rates)
        return (totals if total else None), (rates if rate else None)

    def tail_brackets(self, tail: float) -> np.ndarray:
        """Each system's closed-form bracket of its tail point, as an (S, 2)
        array (see models._tail_brackets)."""
        return _tail_brackets(self._kinds, self._params, self.structure, tail)

    def _density(self, totals: np.ndarray, rates: np.ndarray) -> np.ndarray:
        if self.structure == "series":
            with np.errstate(invalid="ignore", over="ignore"):
                return density(totals, rates)
        # F times the reversed-hazard sum, in log form so that a cdf that
        # underflows does not take the density with it
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(np.isnan(rates), 0.0, np.exp(np.log(rates) + totals))

    def sf(self, x: np.ndarray) -> np.ndarray:
        totals, _ = self._sums(x, rate=False)
        return survival(totals) if self.structure == "series" else -np.expm1(totals)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        totals, _ = self._sums(x, rate=False)
        return distribution(totals) if self.structure == "series" else np.exp(totals)

    def hazard(self, x: np.ndarray) -> np.ndarray:
        """Series: the component hazard sum. Parallel: pdf over sf."""
        if self.structure == "series":
            return self._sums(x, total=False)[1]
        totals, rates = self._sums(x)
        sf = -np.expm1(totals)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(sf > 0.0, self._density(totals, rates) / sf, np.inf)

    def reversed_hazard(self, x: np.ndarray) -> np.ndarray:
        """Parallel: the component reversed-hazard sum. Series: pdf over cdf."""
        if self.structure == "parallel":
            return self._sums(x, total=False)[1]
        totals, rates = self._sums(x)
        cdf = distribution(totals)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(cdf == 0.0, np.nan, self._density(totals, rates) / cdf)

    def pdf(self, x: np.ndarray) -> np.ndarray:
        """Density of the system lifetime: sf times the hazard, or cdf times the reversed hazard."""
        return self._density(*self._sums(x))


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
        kinds = [(type(c), getattr(c, "baseline", EXPONENTIAL_STANDARD)) for c in self.components]
        params = [[getattr(c, name) for name in _family(type(c))[0]] for c in self.components]
        return SystemStack(self.structure, kinds, np.transpose(params)[None])

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
        """Density of the system lifetime: sf times the hazard, or cdf times the reversed hazard."""
        return self._evaluate("pdf", x)

    def _tail_bracket(self, tail: float) -> np.ndarray:
        return self._stack.tail_brackets(tail)

    # assigned, not inherited: see models._derive_evaluators
    support_upper = _Derived.support_upper


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
