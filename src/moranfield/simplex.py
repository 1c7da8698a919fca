"""Simplex geometry, payoff/fitness algebra, and the replicator vector field.

Proportions of M strategies live on the (M-1)-dimensional probability
simplex.  Payoffs come from pairwise interactions with a uniformly random
opponent (no self-interaction), fitness is the convex combination
``(1 - w) + w * payoff``, and the replicator field is the infinite-population
growth rate of each strategy relative to the population average.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError

#: absolute slack accepted on simplex membership after floating arithmetic
SIMPLEX_TOL = 1e-12


def _as_vector(coords) -> np.ndarray:
    arr = np.asarray(coords, dtype=float)
    if arr.ndim != 1:
        raise DimensionError(f"expected a 1-d coordinate vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class SimplexPoint:
    """A point of the probability simplex: M proportions summing to one.

    Coordinates may be any reals in [0, 1]; membership is checked with an
    absolute tolerance of ``SIMPLEX_TOL`` and negative rounding dust inside
    the tolerance is clipped to zero.  Lattice alignment (multiples of 1/N)
    is not required here; it is enforced by DiscreteState.
    """

    coords: np.ndarray

    def __init__(self, coords):
        arr = _as_vector(coords)
        if arr.size < 2:
            raise DomainError("a simplex point needs at least two strategies (M >= 2)")
        if np.any(arr < -SIMPLEX_TOL) or np.any(arr > 1.0 + SIMPLEX_TOL):
            raise DomainError(f"coordinates outside [0, 1]: {arr!r}")
        total = float(arr.sum())
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise DomainError(f"coordinates sum to {total!r}, not 1")
        arr = np.clip(arr, 0.0, 1.0)
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)

    @property
    def dimension(self) -> int:
        """Number of strategies M."""
        return self.coords.size

    def __len__(self) -> int:
        return self.coords.size

    def __getitem__(self, i):
        return self.coords[i]

    def __repr__(self) -> str:
        return f"SimplexPoint({self.coords.tolist()!r})"


@dataclass(frozen=True, eq=False)
class PayoffMatrix:
    """Square matrix of nonnegative pairwise payoffs.

    ``entries[i, j]`` is the payoff of a strategy-i individual interacting
    with a strategy-j individual.  Negative entries are rejected (the whole
    toolkit assumes nonnegative payoffs).
    """

    entries: np.ndarray

    def __init__(self, entries):
        arr = np.asarray(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionError(f"payoff matrix must be square, got shape {arr.shape}")
        if arr.shape[0] < 2:
            raise DomainError("payoff matrix needs at least two strategies (M >= 2)")
        bad = np.argwhere(arr < 0)
        if bad.size:
            i, j = bad[0]
            raise DomainError(f"negative payoff entry at ({i}, {j}): {arr[i, j]!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]

    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.entries)

    # -- structured-text round-trip ------------------------------------
    def to_rows(self) -> list[list[float]]:
        """Row-major list of rows; floats round-trip exactly via repr."""
        return [list(map(float, row)) for row in self.entries]

    @classmethod
    def from_rows(cls, rows) -> "PayoffMatrix":
        return cls(rows)

    def __repr__(self) -> str:
        return f"PayoffMatrix({self.to_rows()!r})"


@dataclass(frozen=True, eq=False)
class FitnessProfile:
    """Per-strategy payoffs and fitnesses at a fixed population state.

    ``fitnesses[i] = (1 - w) + w * payoffs[i]`` and ``mean_fitness`` is the
    proportion-weighted average of the fitnesses.
    """

    payoffs: np.ndarray
    fitnesses: np.ndarray
    mean_fitness: float
    selection_weight: float
    population: int


def _check_dims(point: SimplexPoint, matrix: PayoffMatrix) -> None:
    if point.dimension != matrix.dimension:
        raise DimensionError(
            f"point has {point.dimension} strategies, matrix has {matrix.dimension}"
        )


def payoff_fitness(lam: np.ndarray, entries: np.ndarray, population: int, w: float):
    """Payoffs and fitnesses of an (R, M) array of proportions, as two (R, M) arrays.

    The one payoff/fitness formula of the package: in a population of N an
    individual never meets itself, so ``pay[r, i] = N/(N-1) * (A @ lam_r)_i -
    A[i, i]/(N-1)``, and ``fit = (1 - w) + w * pay``.  Inputs are not checked.
    """
    n = population
    pay = (n / (n - 1.0)) * (lam @ entries.T) - np.diagonal(entries) / (n - 1.0)
    return pay, (1.0 - w) + w * pay


def expected_payoff(point: SimplexPoint, matrix: PayoffMatrix, population: int) -> np.ndarray:
    """Expected payoff of each strategy against a uniform random opponent.

    In a population of N individuals an individual never meets itself, so
    the i-th payoff is ``N/(N-1) * (A @ lam)_i - A[i, i]/(N-1)``.

    Parameters
    ----------
    point : SimplexPoint
        Strategy proportions.  Lattice alignment with ``population`` is not
        required for standalone evaluation.
    matrix : PayoffMatrix
    population : int
        Population size N >= 2.
    """
    return fitness_profile(point, matrix, population, 0.0).payoffs


def fitness_profile(
    point: SimplexPoint, matrix: PayoffMatrix, population: int, selection_weight: float
) -> FitnessProfile:
    """Payoffs, fitnesses and mean fitness at the given proportions.

    ``selection_weight`` w interpolates between neutral drift (w = 0, all
    fitnesses equal 1) and payoff-driven selection (w = 1).
    """
    w = float(selection_weight)
    if not 0.0 <= w <= 1.0:
        raise DomainError(f"selection weight must lie in [0, 1], got {selection_weight}")
    _check_dims(point, matrix)
    n = int(population)
    if n < 2:
        raise DomainError(f"population must be at least 2, got {population}")
    pay, fit = payoff_fitness(point.coords[None, :], matrix.entries, n, w)
    pay, fit = pay[0], fit[0]
    fbar = float(point.coords @ fit)
    return FitnessProfile(
        payoffs=pay,
        fitnesses=fit,
        mean_fitness=fbar,
        selection_weight=w,
        population=n,
    )


def replicator_field(point: SimplexPoint, matrix: PayoffMatrix) -> np.ndarray:
    """Replicator vector field b at ``point``.

    ``b_i = lam_i * ((A lam)_i - (A lam) . lam)``.  The components sum to
    zero, so the field is tangent to the simplex.
    """
    _check_dims(point, matrix)
    lam = point.coords
    a_lam = matrix.entries @ lam
    return lam * (a_lam - float(a_lam @ lam))


def replicator_field_array(points: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Vectorized replicator field on an (R, M) array of simplex points."""
    a_lam = points @ entries.T
    mean = np.einsum("ij,ij->i", a_lam, points)
    return points * (a_lam - mean[:, None])
