"""Exact 1-Wasserstein distance between empirical measures on the simplex.

Every distance the package measures is between two uniform empirical
measures of equal size, so W1 is the mean cost of an optimal matching: one
linear assignment solve (:func:`assignment_mean`), shared by :func:`w1_exact`
and every bootstrap resample.  A Kantorovich-dual certifier produces
guaranteed lower bounds from 1-Lipschitz witnesses.

The ground metric is Euclidean on R^M restricted to the simplex.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .errors import (
    CapacityError,
    DimensionError,
    DomainError,
    InvalidWitnessError,
)
from .simplex import SIMPLEX_TOL, SimplexPoint

#: largest ensemble size accepted by the exact solver
EXACT_SIZE_CAP = 4096
#: largest pair block (floats) of the Lipschitz check, 1 MB per temporary
PAIR_BLOCK = 1 << 17


class EmpiricalMeasure:
    """Uniformly weighted multiset of simplex points."""

    def __init__(self, points):
        if isinstance(points, np.ndarray) and points.ndim == 2:
            arr = np.array(points, dtype=float)
        else:
            rows = [p.coords if isinstance(p, SimplexPoint) else np.asarray(p, float) for p in points]
            if not rows:
                raise DomainError("an empirical measure needs at least one point")
            arr = np.array(rows, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 2:
            raise DimensionError(f"expected an (R, M>=2) point array, got shape {arr.shape}")
        # written so that nan fails
        on_simplex = np.all(arr >= -SIMPLEX_TOL, axis=1) & (
            np.abs(arr.sum(axis=1) - 1.0) <= SIMPLEX_TOL
        )
        if not on_simplex.all():
            bad = int(np.argmin(on_simplex))
            raise DomainError(f"row {bad} is not a simplex point: {arr[bad]!r}")
        arr = np.clip(arr, 0.0, 1.0)
        arr.setflags(write=False)
        self._array = arr

    @property
    def array(self) -> np.ndarray:
        return self._array

    @property
    def size(self) -> int:
        return self._array.shape[0]

    @property
    def dimension(self) -> int:
        return self._array.shape[1]

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"EmpiricalMeasure(size={self.size}, dimension={self.dimension})"


def _check_dimensions(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> None:
    if mu.dimension != nu.dimension:
        raise DimensionError(
            f"measures live in different dimensions: {mu.dimension} vs {nu.dimension}"
        )


def _cost_matrix(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> np.ndarray:
    _check_dimensions(mu, nu)
    return cdist(mu.array, nu.array)


def assignment_mean(dist: np.ndarray) -> float:
    """Mean cost of an optimal matching on the square cost matrix ``dist``:
    the W1 distance between the two uniform measures of equal size."""
    # read from this module's globals per call, so instrumentation installed
    # on transport.linear_sum_assignment after import sees every solve
    rows, cols = linear_sum_assignment(dist)
    return float(dist[rows, cols].mean())


def w1_exact(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Exact 1-Wasserstein distance between two measures of equal size.

    Raises CapacityError above EXACT_SIZE_CAP points per side and
    DimensionError when the sizes or the dimensions differ.
    """
    if mu.size > EXACT_SIZE_CAP or nu.size > EXACT_SIZE_CAP:
        raise CapacityError(
            f"ensemble sizes ({mu.size}, {nu.size}) exceed the exact-solver cap {EXACT_SIZE_CAP}"
        )
    if mu.size != nu.size:
        raise DimensionError(f"exact W1 needs equal sizes, got {mu.size} vs {nu.size}")
    return assignment_mean(_cost_matrix(mu, nu))


class Witness:
    """A named test function certified 1-Lipschitz on the simplex."""

    def __init__(self, name: str, fn):
        self.name = name
        self._fn = fn

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(self._fn(np.atleast_2d(points)), dtype=float)

    def __repr__(self) -> str:
        return f"Witness({self.name!r})"


def coordinate_witness(index: int) -> Witness:
    return Witness(f"coord[{index}]", lambda pts: pts[:, index])


def distance_witness(anchor) -> Witness:
    ref = anchor.coords if isinstance(anchor, SimplexPoint) else np.asarray(anchor, float)
    return Witness(
        f"dist_to({np.round(ref, 4).tolist()})",
        lambda pts: np.linalg.norm(pts - ref, axis=1),
    )


def random_witnesses(dimension: int, count: int, rng: np.random.Generator) -> list[Witness]:
    """Mixed library of random certified witnesses (max-of-affine with unit slopes)."""
    out = []
    for n in range(count):
        k = int(rng.integers(1, 4))
        g = rng.normal(size=(k, dimension))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        c = rng.normal(size=k)
        out.append(Witness(f"rand[{n}]", lambda pts, g=g, c=c: np.max(pts @ g.T + c, axis=1)))
    return out


def _check_lipschitz(witnesses, points: np.ndarray) -> None:
    """Check every witness on every ordered pair, a block of rows against all
    points at a time: over ordered pairs the signed gap bounds the absolute one."""
    values = [witness(points) for witness in witnesses]
    rows = max(1, PAIR_BLOCK // points.shape[0])
    for lo in range(0, points.shape[0], rows):
        dist = cdist(points[lo : lo + rows], points) + 1e-9
        for witness, vals in zip(witnesses, values):
            if not np.all(vals[lo : lo + rows, None] - vals[None, :] <= dist):  # nan fails
                raise InvalidWitnessError(
                    f"witness {witness.name!r} violates the 1-Lipschitz bound on sample pairs"
                )


def w1_dual_lower_bound(mu: EmpiricalMeasure, nu: EmpiricalMeasure, witnesses) -> float:
    """Best certified Kantorovich lower bound from the supplied witnesses.

    Returns ``max_w mean(w(nu)) - mean(w(mu))``, which never exceeds the
    exact distance.  Witnesses failing the Lipschitz check on any pair are rejected.
    """
    if not witnesses:
        raise DomainError("at least one witness is required")
    _check_dimensions(mu, nu)
    _check_lipschitz(witnesses, np.vstack((mu.array, nu.array)))
    return max(float(witness(nu.array).mean() - witness(mu.array).mean()) for witness in witnesses)
