"""Systems deep in both tails, against a 60-digit mpmath reference.

A parallel system's survival is 1 - prod F_i, which is tiny where every
component cdf is near 1. The reference evaluates it as
-expm1(sum log1p(-exp(-H_i))) in 60-digit arithmetic from the same float
parameters and abscissae, so it keeps every digit down to sf ~ 1e-300.
A series system's density and reversed hazard come from sum H_i and
sum h_i; the reference checks them from where the system cdf is about
1e-300 to where its sf is about 1e-300.
"""

import json
from pathlib import Path

import mpmath
import numpy as np
import pytest

from stochord import GompertzMakeham, SystemSpec, WeibullG, certify_hr

_CONFIGS = Path(__file__).resolve().parent.parent / "configs"
_RTOL = 1e-10


def _system(doc: dict, structure: str) -> SystemSpec:
    if doc["family"] == "weibull-g":
        comps = tuple(WeibullG(c["alpha"], c["beta"], c["gamma"]) for c in doc["components"])
    else:
        comps = tuple(GompertzMakeham(c["alpha"], c["beta"], c["lambda"])
                      for c in doc["components"])
    return SystemSpec(comps, structure)


def _shipped_systems():
    """Each side of both shipped configs made parallel, then as a series system."""
    systems = []
    for name in ("example1", "example2"):
        doc = json.loads((_CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
        for side in ("first", "second"):
            systems.append(pytest.param(_system(doc[side], "parallel"), ("sf", "hazard", "pdf"),
                                        id=f"{name}-{side}"))
            systems.append(pytest.param(_system(doc[side], "series"), ("reversed_hazard", "pdf"),
                                        id=f"{name}-{side}-series"))
    return systems


def _component_chf_and_hazard(component, x):
    """H(x) and r(x) of one component in mpmath arithmetic."""
    x = mpmath.mpf(x)
    if isinstance(component, WeibullG):
        a, b, g = (mpmath.mpf(v) for v in (component.alpha, component.beta, component.gamma))
        w = mpmath.expm1(g * x)
        return a * w**b, a * b * g * w ** (b - 1) * mpmath.exp(g * x)
    a, b, lam = (mpmath.mpf(v) for v in (component.alpha, component.beta, component.lam))
    return lam * x + (a / b) * mpmath.expm1(b * x), lam + a * mpmath.exp(b * x)


def _reference(system: SystemSpec, x: float) -> dict:
    """sf, pdf, hazard and reversed hazard of a system at x, to 60 digits."""
    with mpmath.workdps(60):
        parts = [_component_chf_and_hazard(c, x) for c in system.components]
        if system.structure == "series":
            total = mpmath.fsum(h for h, _ in parts)
            sf, cdf = mpmath.exp(-total), -mpmath.expm1(-total)
            pdf = mpmath.fsum(r for _, r in parts) * sf
        else:
            cdfs = [-mpmath.expm1(-h) for h, _ in parts]
            pdfs = [r * mpmath.exp(-h) for h, r in parts]
            sf = -mpmath.expm1(mpmath.fsum(mpmath.log1p(-mpmath.exp(-h)) for h, _ in parts))
            cdf = 1 - sf
            pdf = mpmath.fsum(
                f * mpmath.fprod(cdfs[:i] + cdfs[i + 1:]) for i, f in enumerate(pdfs))
        return {"sf": float(sf), "pdf": float(pdf), "hazard": float(pdf / sf),
                "reversed_hazard": float(pdf / cdf)}


def _points(system: SystemSpec) -> np.ndarray:
    """33 points over the upper tail, from the median to where sf ~ 1e-300; a
    series system adds 16 log-spaced ones below, from where its cdf ~ 1e-300."""
    upper = np.linspace(system.support_upper(0.5), system.support_upper(1e-300), 33)
    if system.structure == "parallel":
        return upper
    # the component that reaches cdf 1e-300 first puts the system's cdf there
    # too, within a factor of the component count
    low = min(c.quantile(1e-300) for c in system.components)
    return np.concatenate((np.geomspace(low, upper[0], 17)[:-1], upper))


@pytest.mark.parametrize("system, names", _shipped_systems())
def test_sf_hazard_and_pdf_down_to_1e_300(system, names):
    xs = _points(system)
    assert 0.0 < system.sf(xs[-1]) <= 1e-300
    if system.structure == "series":
        assert 1e-300 <= system.cdf(xs[0]) <= 1e-299
    for name in names:
        got = np.asarray(getattr(system, name)(xs))
        want = np.array([_reference(system, x)[name] for x in xs])
        np.testing.assert_allclose(got, want, rtol=_RTOL, err_msg=name)


def test_reference_example_hr_margin_matches_the_exact_slack():
    # configs/example1.json made parallel: hr fails; the worst grid slack
    # sits where the second system's sf is about 1e-16
    doc = json.loads((_CONFIGS / "example1.json").read_text(encoding="utf-8"))
    f, g = (_system(doc[side], "parallel") for side in ("first", "second"))
    verdict = certify_hr(f, g)
    assert not verdict.holds and not verdict.truncated
    assert verdict.grid_count == 2048
    x = verdict.witness_x
    exact = _reference(f, x)["hazard"] - _reference(g, x)["hazard"]
    assert verdict.margin == pytest.approx(exact, rel=1e-9)
