"""Majorization preorders, T-transforms, and chain-majorization certificates.

Vector relations (all defined through sorted partial sums):

* plain majorization ``a < b``: descending partial sums of b dominate
  those of a at every length, with equal totals;
* weak submajorization ``a <_w b``: descending partial sums of b
  dominate those of a at every length;
* weak supermajorization ``a <^w b``: ascending partial sums of a
  dominate those of b at every length.

Plain majorization implies both weak forms.

A T-transform T = lam I + (1 - lam) P, with P a transposition of two
coordinates, averages one pair of columns. A 2 x n parameter matrix A is
chain majorized by B when A = B T_1 ... T_k; since each T is doubly
stochastic, so is the product. Matrices with similarly ordered rows
(every column pair (a_i - a_j)(b_i - b_j) >= 0) form the class P_n on
which the ordering results of the system layer operate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GenerationError

MAJORIZATION_KINDS = ("plain", "weak_sub", "weak_super")
GENERATOR_KINDS = ("plain", "weak_sub", "weak_super", "chain")

_RETRY_CAP = 100
_TOL = 1e-12  # relative slack of the partial-sum and similar-ordering comparisons
_STOCHASTIC_TOL = 1e-9  # absolute slack of doubly_stochastic_check's entries and sums
_LOW, _HIGH = 0.5, 5.0  # the range generate_hypothesis_pair draws b from


def _as_vector(v) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("expected a one-dimensional vector with at least one entry")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector entries must be finite")
    return arr


def as_param_matrix(m) -> np.ndarray:
    """Validate and return a 2 x n parameter matrix with positive entries."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != 2 or arr.shape[1] < 1:
        raise ValueError(f"parameter matrix must be 2 x n, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("parameter matrix entries must be positive and finite")
    return arr


def majorize_check(a, b, kind: str = "plain") -> bool:
    """Test a majorization relation between two equal-length vectors.

    Every partial-sum comparison allows a slack of 1e-12 times the larger
    of 1 and either vector's absolute sum.

    Parameters
    ----------
    a, b : array_like
        Vectors of equal length.
    kind : str
        ``"plain"``, ``"weak_sub"``, or ``"weak_super"``.
    """
    av, bv = _as_vector(a), _as_vector(b)
    if av.shape != bv.shape:
        raise ValueError("vectors must have equal length")
    if kind not in MAJORIZATION_KINDS:
        raise ValueError(f"kind must be one of {MAJORIZATION_KINDS}, got {kind!r}")
    atol = _TOL * max(1.0, float(np.abs(av).sum()), float(np.abs(bv).sum()))
    if kind == "weak_super":
        asc_a = np.cumsum(np.sort(av))
        asc_b = np.cumsum(np.sort(bv))
        return bool(np.all(asc_a >= asc_b - atol))
    desc_a = np.cumsum(np.sort(av)[::-1])
    desc_b = np.cumsum(np.sort(bv)[::-1])
    dominated = bool(np.all(desc_a <= desc_b + atol))
    if kind == "weak_sub":
        return dominated
    return dominated and abs(desc_a[-1] - desc_b[-1]) <= atol


@dataclass(frozen=True)
class MajorizationSummary:
    """All three relations for one vector pair, with the implication check."""

    plain: bool
    weak_sub: bool
    weak_super: bool

    @property
    def consistent(self) -> bool:
        """Plain majorization must imply both weak forms."""
        return (not self.plain) or (self.weak_sub and self.weak_super)


def implication_suite(a, b) -> MajorizationSummary:
    """Evaluate plain, weak_sub, and weak_super for one ordered pair."""
    return MajorizationSummary(
        plain=majorize_check(a, b, "plain"),
        weak_sub=majorize_check(a, b, "weak_sub"),
        weak_super=majorize_check(a, b, "weak_super"),
    )


@dataclass(frozen=True)
class TTransform:
    """T = lam I + (1 - lam) P for the transposition P of columns i and j.

    Indices are zero-based. Applied on the right, the transform replaces
    columns i and j by convex combinations with weights (lam, 1 - lam).
    """

    lam: float
    i: int
    j: int

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam!r}")
        if self.i == self.j or self.i < 0 or self.j < 0:
            raise ValueError("i and j must be distinct nonnegative column indices")

    def matrix(self, n: int) -> np.ndarray:
        """The n x n doubly stochastic matrix realizing this transform."""
        if n <= max(self.i, self.j):
            raise ValueError(f"transform touches column {max(self.i, self.j)}, matrix has {n}")
        t = np.eye(n)
        lam = self.lam
        t[self.i, self.i] = lam
        t[self.j, self.j] = lam
        t[self.i, self.j] = 1.0 - lam
        t[self.j, self.i] = 1.0 - lam
        return t


def _apply_columns(arr: np.ndarray, t: TTransform) -> np.ndarray:
    out = arr.copy()
    ci, cj = arr[..., t.i].copy(), arr[..., t.j].copy()
    out[..., t.i] = t.lam * ci + (1.0 - t.lam) * cj
    out[..., t.j] = (1.0 - t.lam) * ci + t.lam * cj
    return out


def apply_t_transform(m, t: TTransform) -> np.ndarray:
    """Apply one T-transform to the columns of a 2 x n parameter matrix.

    Row sums are preserved exactly up to float rounding, since each row
    is replaced by convex combinations of its own entries.
    """
    arr = as_param_matrix(m)
    if max(t.i, t.j) >= arr.shape[1]:
        raise ValueError("transform column index out of range")
    return _apply_columns(arr, t)


def chain_majorize_solve_2x2(a, b) -> float | None:
    """Recover lam with a = b T(lam) for 2 x 2 matrices, if one exists.

    Returns the mixing weight in [0, 1], or None when no single
    T-transform maps b to a within 1e-9 relative error. When b has two
    identical columns the only reachable matrix is b itself, reported
    as lam = 1.
    """
    av, bv = as_param_matrix(a), as_param_matrix(b)
    if av.shape != (2, 2) or bv.shape != (2, 2):
        raise ValueError("chain solve is defined for 2 x 2 matrices")
    scale = max(1.0, float(np.abs(bv).max()))

    lam = None
    for row in range(2):
        denom = bv[row, 0] - bv[row, 1]
        if abs(denom) > 1e-12 * scale:
            lam = (av[row, 0] - bv[row, 1]) / denom
            break
    if lam is None:
        # both columns of b identical; T(lam) fixes b for every lam
        return 1.0 if np.allclose(av, bv, rtol=1e-9, atol=1e-9 * scale) else None
    if not -1e-9 <= lam <= 1.0 + 1e-9:
        return None
    lam = min(max(lam, 0.0), 1.0)
    rebuilt = _apply_columns(bv, TTransform(lam=lam, i=0, j=1))
    if not np.allclose(rebuilt, av, rtol=1e-9, atol=1e-9 * scale):
        return None
    return float(lam)


def doubly_stochastic_check(q) -> bool:
    """True when q is square, nonnegative, with unit row and column sums, each to 1e-9."""
    arr = np.asarray(q, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        return False
    if not np.all(np.isfinite(arr)) or np.any(arr < -_STOCHASTIC_TOL):
        return False
    return all(np.allclose(arr.sum(axis=k), 1.0, atol=_STOCHASTIC_TOL) for k in (0, 1))


def pn_membership(m) -> bool:
    """True when the 2 x n matrix is positive with similarly ordered rows.

    Similarly ordered: (a_i - a_j)(b_i - b_j) >= 0 for every column pair,
    ties included, to a slack of 1e-12 max(1, max |a|) max(1, max |b|).
    Matrices that are not 2 x n positive are not members.
    """
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != 2 or arr.shape[1] < 1:
        return False
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        return False
    a, b = arr
    da = a[:, None] - a[None, :]
    db = b[:, None] - b[None, :]
    atol = _TOL * max(1.0, float(np.abs(a).max())) * max(1.0, float(np.abs(b).max()))
    return bool(np.all(da * db >= -atol))


@dataclass(frozen=True)
class GeneratedPair:
    """A seeded majorization test pair with its construction certificate.

    ``a`` relates to ``b`` by ``kind``: vectors for the three vector
    relations, 2 x n matrices for ``"chain"`` (where a = b T_1 ... T_k).
    ``transforms`` carries the exact chain for ``"plain"`` and
    ``"chain"`` pairs; the weak forms rescale after averaging, so no
    exact chain exists and the tuple is empty. ``steps`` holds every
    matrix of a ``"chain"`` pair in order, b T_1 ... T_i for i = 0..k,
    so b first and a last; it is empty for the vector kinds.
    """

    kind: str
    a: np.ndarray
    b: np.ndarray
    transforms: tuple[TTransform, ...]
    steps: tuple[np.ndarray, ...] = ()


def generate_hypothesis_pair(
    n: int,
    kind: str,
    seed: int | None = None,
    min_transforms: int = 1,
    max_transforms: int = 3,
    anti_ordered: bool = False,
    rng: np.random.Generator | None = None,
) -> GeneratedPair:
    """Generate a random pair certified to satisfy the requested relation.

    Construction. ``b`` is sampled uniformly from [0.5, 5] (rows sorted
    ascending for matrices, so b is in P_n). Vector kinds average random
    coordinate pairs to get c < b, then rescale: c (plain), (1-d) c
    (weak_sub), (1+d) c (weak_super) with d in (0.05, 0.3). The chain
    kind applies min_transforms..max_transforms random T-transforms, and
    every matrix before the last transform is re-validated in P_n
    (rejection sampling, raising GenerationError after 100 failed draws
    for a step). ``anti_ordered`` breaks that hypothesis on purpose: b's
    first row is sorted ascending and its second descending, so b is not
    in P_n when its entries are distinct, and the intermediates are not
    re-validated.
    """
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"kind must be one of {GENERATOR_KINDS}, got {kind!r}")
    if n < 2:
        raise ValueError("pairs need at least two coordinates")
    if not 1 <= min_transforms <= max_transforms:
        raise ValueError("need 1 <= min_transforms <= max_transforms")
    gen = rng if rng is not None else np.random.default_rng(seed)

    if kind == "chain":
        raw = gen.uniform(_LOW, _HIGH, size=(2, n))
        b = (np.vstack([np.sort(raw[0]), np.sort(raw[1])[::-1]]) if anti_ordered
             else np.sort(raw, axis=1))
    else:
        b = gen.uniform(_LOW, _HIGH, size=n)
    validate = kind == "chain" and not anti_ordered
    k = int(gen.integers(min_transforms, max_transforms + 1))
    steps = [b]
    transforms: list[TTransform] = []
    for step in range(k):
        for _ in range(_RETRY_CAP):
            i, j = map(int, gen.choice(n, size=2, replace=False))
            t = TTransform(lam=float(gen.uniform(0.0, 1.0)), i=i, j=j)
            candidate = _apply_columns(steps[-1], t)
            if not validate or step == k - 1 or pn_membership(candidate):
                break
        else:
            raise GenerationError(
                f"no P_n-preserving transform found at chain step {step + 1}"
            )
        transforms.append(t)
        steps.append(candidate)
    if kind == "chain":
        return GeneratedPair(kind=kind, a=steps[-1], b=b, transforms=tuple(transforms),
                             steps=tuple(steps))

    a, kept = steps[-1], tuple(transforms)
    if kind != "plain":
        d = float(gen.uniform(0.05, 0.3))
        a, kept = a * (1.0 - d if kind == "weak_sub" else 1.0 + d), ()

    if not majorize_check(a, b, kind):
        raise GenerationError(f"constructed pair failed its own {kind} check")
    return GeneratedPair(kind=kind, a=a, b=b, transforms=kept)
