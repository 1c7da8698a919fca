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


def _as_numbers(values, what: str) -> np.ndarray:
    """``values`` as a float array; DomainError names ``what`` when an entry is
    not a number or is a bool, which the float conversion reads as 0 or 1.  An
    array is judged by its dtype; only other input has its entries scanned."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as err:
        raise DomainError(f"{what} must be numeric: {err}") from None
    if isinstance(values, np.ndarray) and values.dtype != object:
        bools = values.dtype == bool
    else:
        bools = any(isinstance(x, (bool, np.bool_)) for x in np.asarray(values, dtype=object).flat)
    if bools:
        raise DomainError(f"{what} must be numbers, not booleans, got {values!r}")
    return arr


def simplex_rows(points) -> np.ndarray:
    """The (R, M) array of R >= 1 simplex points of M >= 2 strategies, read-only.

    Every coordinate must lie in [0, 1] and every row sum to 1, both within
    ``SIMPLEX_TOL`` (nan fails); rounding dust inside the tolerance is clipped
    into [0, 1].  Booleans are refused (:func:`_as_numbers`).  The one
    membership rule, of ``EmpiricalMeasure`` and of a :class:`SimplexPoint` (one row).
    """
    # numpy reads a SimplexPoint as the sequence of its coordinates
    arr = _as_numbers(points, "simplex coordinates")
    if arr.shape[:1] == (0,):
        raise DomainError("an empirical measure needs at least one point")
    if arr.ndim != 2:
        raise DimensionError(f"expected an (R, M) point array, got shape {arr.shape}")
    if arr.shape[1] < 2:
        raise DomainError("a simplex point needs at least two strategies (M >= 2)")
    in_range = (arr >= -SIMPLEX_TOL) & (arr <= 1.0 + SIMPLEX_TOL)
    on_simplex = in_range.all(axis=1) & (np.abs(arr.sum(axis=1) - 1.0) <= SIMPLEX_TOL)
    if not on_simplex.all():
        bad = int(np.argmin(on_simplex))
        raise DomainError(f"row {bad} is not a simplex point: {arr[bad]!r}")
    arr = np.clip(arr, 0.0, 1.0)
    arr.setflags(write=False)
    return arr


def require_strategies(m: int, entries: np.ndarray) -> None:
    """DimensionError unless payoff ``entries`` are those of ``m`` strategies."""
    if m != entries.shape[0]:
        raise DimensionError(f"{m} strategies do not match a payoff matrix of {entries.shape[0]}")


def require_integer(value, what: str, least: int) -> int:
    """``value`` as an int: DomainError naming ``what`` unless it is an integer
    (numpy's included, a bool not) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise DomainError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)


def require_chain(population, w=0.0) -> tuple[int, float]:
    """A chain's population N and selection weight w as (int, float):
    DomainError unless N is an integer >= 2 and 0 <= w <= 1 (nan fails)."""
    n = require_integer(population, "population", 2)
    if not 0.0 <= w <= 1.0:
        raise DomainError(f"selection weight must lie in [0, 1], got {w!r}")
    return n, float(w)


@dataclass(frozen=True, eq=False)
class SimplexPoint:
    """A point of the probability simplex: M proportions summing to one.

    ``coords`` is a vector that :func:`simplex_rows` accepts as one row.
    Lattice alignment (multiples of 1/N) is not required here; it is
    enforced by DiscreteState.
    """

    coords: np.ndarray

    def __init__(self, coords):
        rows = coords[None] if isinstance(coords, np.ndarray) else [coords]
        object.__setattr__(self, "coords", simplex_rows(rows)[0])

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
    with a strategy-j individual.  Negative and non-finite entries are
    rejected (the whole toolkit assumes finite nonnegative payoffs).
    """

    entries: np.ndarray

    def __init__(self, entries):
        arr = _as_numbers(entries, "payoff entries")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionError(f"payoff matrix must be square, got shape {arr.shape}")
        if arr.shape[0] < 2:
            raise DomainError("payoff matrix needs at least two strategies (M >= 2)")
        bad = np.argwhere(~(np.isfinite(arr) & (arr >= 0)))
        if bad.size:
            i, j = bad[0]
            raise DomainError(f"payoff entry at ({i}, {j}) is not finite and >= 0: {arr[i, j]}")
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

    def __repr__(self) -> str:
        return f"PayoffMatrix({self.to_rows()!r})"


def payoff_fitness(lam: np.ndarray, entries: np.ndarray, population: int, w: float):
    """The one payoff/fitness formula of the package: payoffs and fitnesses of
    an (M, R) array of proportions, as two new (M, R) arrays.

    In a population of N an individual never meets itself, so with counts
    ``c = N * lam`` the payoff is ``pay_i = (sum_j A_ij c_j - A_ii) / (N - 1)``
    and the fitness is ``fit = (1 - w) + w * pay``.  Raises what
    :func:`require_chain` and :func:`require_strategies` raise.
    """
    n, w = require_chain(population, w)
    require_strategies(lam.shape[0], entries)
    per_bearer = entries / (n - 1.0)
    pay = per_bearer @ (n * lam) - per_bearer.diagonal()[:, None]
    return pay, (1.0 - w) + w * pay


def fitness_coefficients(entries: np.ndarray, population: int, w: float) -> np.ndarray:
    """The (M, M + 1) matrix K of the fitness as an affine map of the counts:
    ``fit = K @ [c; 1]``, that is ``K = [w A/(N-1) | (1-w) - w diag(A)/(N-1)]``.

    The last column is :func:`payoff_fitness` at zero counts, where only the
    self-interaction correction is left.  It subtracts the same bits as the
    diagonal of the slope adds, so a strategy with a bearer never gets a
    negative fitness from rounding.
    """
    _, intercept = payoff_fitness(np.zeros((entries.shape[0], 1)), entries, population, w)
    return np.hstack((w * (entries / (population - 1.0)), intercept))


def replicator_field(point: SimplexPoint, matrix: PayoffMatrix) -> np.ndarray:
    """Replicator vector field b at ``point``.

    ``b_i = lam_i * ((A lam)_i - (A lam) . lam)``.  The components sum to
    zero, so the field is tangent to the simplex.
    """
    require_strategies(point.dimension, matrix.entries)
    lam = point.coords
    a_lam = matrix.entries @ lam
    return lam * (a_lam - float(a_lam @ lam))


def replicator_field_array(points: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Vectorized replicator field on an (R, M) array of simplex points."""
    a_lam = points @ entries.T
    mean = np.einsum("ij,ij->i", a_lam, points)
    return points * (a_lam - mean[:, None])
