"""Inverse-transform sampling and empirical distribution checks.

Draw streams are split deterministically: stream ``i`` uses
``default_rng(SeedSequence((seed, i)))``. Plain model sampling is stream
0 and the i-th component of a system uses stream i, so a one-component
system reproduces the plain model draws exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .systems import SystemSpec

_U_LO = np.finfo(float).eps
_U_HI = float(np.nextafter(1.0, 0.0))


def _stream(seed: int, index: int) -> np.random.Generator:
    """The generator of stream ``index`` under ``seed``; bench instance k
    draws from stream k too."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(index))))


def _uniforms(seed: int, index: int, count: int) -> np.ndarray:
    u = _stream(seed, index).random(count)
    return np.clip(u, _U_LO, _U_HI)


@dataclass(frozen=True)
class SampleBatch:
    """A sorted batch of inverse-transform draws from one lifetime model."""

    label: str
    count: int
    seed: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size != self.count or self.count < 1:
            raise ValueError("values must be a vector of length count")
        if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
            raise ValueError("sample values must be positive and finite")
        if np.any(np.diff(vals) < 0.0):
            raise ValueError("sample values must be sorted ascending")
        object.__setattr__(self, "values", vals)


def sample(model, count: int, seed: int) -> SampleBatch:
    """Draw ``count`` values from ``model`` by inverting its cdf (stream 0)."""
    if count < 1:
        raise ValueError("count must be at least 1")
    u = _uniforms(seed, 0, count)
    values = np.sort(np.asarray(model.quantile(u)))
    return SampleBatch(label=model.label, count=count, seed=seed, values=values)


def ks_distance(batch: SampleBatch, model) -> float:
    """One-sample Kolmogorov-Smirnov distance between a batch and a model.

    D = max over order statistics of max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n).
    """
    n = batch.count
    cdf = np.asarray(model.cdf(batch.values))
    i = np.arange(1, n + 1, dtype=float)
    d_plus = float(np.max(i / n - cdf))
    d_minus = float(np.max(cdf - (i - 1.0) / n))
    return max(d_plus, d_minus)


def sample_system(system: SystemSpec, count: int, seed: int) -> SampleBatch:
    """Sample the system lifetime by drawing each component on stream i
    and reducing columnwise by min (series) or max (parallel)."""
    if count < 1:
        raise ValueError("count must be at least 1")
    draws = np.empty((system.n, count))
    for i, comp in enumerate(system.components):
        draws[i] = comp.quantile(_uniforms(seed, i, count))
    reduced = draws.min(axis=0) if system.structure == "series" else draws.max(axis=0)
    return SampleBatch(label=system.label, count=count, seed=seed, values=np.sort(reduced))
