"""Exact 1-Wasserstein distance between empirical measures on the simplex.

Every distance the package measures is between two uniform empirical
measures of equal size, so W1 is the mean cost of an optimal matching: one
linear assignment solve (:func:`assignment_mean`), shared by :func:`w1_exact`
and every bootstrap resample.  A Kantorovich-dual certifier produces
guaranteed lower bounds from 1-Lipschitz witnesses.

The bootstrap's resamples are warm-started (:func:`reduced_costs`): the
costs less row and column potentials of one optimal matching of the full
problem, converged to within ``POTENTIAL_TOL``.  Potentials move the cost of
every perfect matching of the matrix, or of any paired resample of it, by
one constant, so a resample solved on the reduced costs has the same optimum,
found faster, and faster still with each side's points sorted.  The solver
adds one row at a time, so which side is the rows matters too: the
``converge`` bootstrap solves fastest with the flow pushforward's samples as
rows and the chain law's lattice points as columns.  A reduced
cost within tol = ``SNAP_EPS`` machine epsilons of the largest cost is
rounding noise around a true zero and is set to exactly 0.0.  The solver's
shortest augmenting path search (Crouse 2016), among columns tied at the
lowest path cost, takes a free one, which ends the path; noise breaks those
ties and sends the search on through assigned columns, so with exact zeros
each resample solves about twice as fast.  The snap moves no cost by more
than tol, so a resample's mean, read from the original costs and exactly
rounded, stays within 2 tol of the exact optimum.

The ground metric is Euclidean on R^M restricted to the simplex.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .errors import (
    CapacityError,
    DimensionError,
    DomainError,
    InvalidWitnessError,
)
from .simplex import SimplexPoint, simplex_rows

#: largest ensemble size accepted by the exact solver
EXACT_SIZE_CAP = 4096
#: largest pair block (floats) of the Lipschitz check, 1 MB per temporary
PAIR_BLOCK = 1 << 17
#: a potential round that moves no potential by more than this is the last
POTENTIAL_TOL = 1e-13
#: reduced costs within this many machine epsilons of the largest cost are exact zeros
SNAP_EPS = 2.0


class EmpiricalMeasure:
    """Uniformly weighted multiset of simplex points, the rows :func:`simplex_rows` reads."""

    def __init__(self, points):
        self._array = simplex_rows(points)

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


def assignment_mean(dist: np.ndarray, rows=None, cols=None, reduced=None) -> float:
    """Mean cost of an optimal matching on the square cost matrix ``dist``, or
    on its cut ``dist[np.ix_(rows, cols)]``: the W1 distance between the two
    uniform measures of equal size.  The mean is ``math.fsum`` of the matched
    costs over n, so it is the same for any order of the solver's pairs.

    With ``reduced`` from :func:`reduced_costs` the matching is solved on
    ``reduced`` cut the same way, which has the same optimal matchings, and
    its mean is still read from ``dist``.
    """
    if rows is None:
        rows = cols = np.arange(dist.shape[0])
    cost = (dist if reduced is None else reduced).take(rows, axis=0).take(cols, axis=1)
    # read from this module's globals per call, so instrumentation installed
    # on transport.linear_sum_assignment after import sees every solve
    matched_rows, matched_cols = linear_sum_assignment(cost)
    return math.fsum(dist[rows[matched_rows], cols[matched_cols]].tolist()) / rows.size


def reduced_costs(dist: np.ndarray) -> np.ndarray:
    """``dist - u[:, None] - v`` for potentials u, v of one optimal matching
    sigma of the square cost matrix ``dist``.

    From u = 0, each Bellman-Ford round sets ``v_j = min_i(dist_ij - u_i)``
    and then ``u_i = dist_i,sigma(i) - v_sigma(i)``.  The rounds stop after
    one that moves no u_i by more than ``POTENTIAL_TOL``, or after as many
    rounds as ``dist`` has rows, which an optimal sigma needs at most.  The
    result is then >= -POTENTIAL_TOL and zero on sigma up to rounding.

    Every entry within tol = ``SNAP_EPS * eps * max(dist)`` of zero is then
    set to exactly 0.0: that is the rounding error of ``(dist - u) - v``
    around a true zero (at most 1.43 eps max(dist) on the ``converge``
    costs, whose next smallest entries exceed 5e-5), so the solver meets
    exact ties.  The cost of any matching of n pairs moves by at most n tol,
    so a resample solved on these costs has a mean within 2 tol of the exact
    optimum.
    """
    size = dist.shape[0]
    _, cols = linear_sum_assignment(dist)
    matched = dist[np.arange(size), cols]
    u, v = np.zeros(size), np.empty(size)
    buf = np.empty_like(dist)
    for _ in range(size):
        np.subtract(dist, u[:, None], out=buf)
        buf.min(axis=0, out=v)
        moved, u = u, matched - v[cols]
        if np.max(np.abs(u - moved)) <= POTENTIAL_TOL:
            break
    np.subtract(dist, u[:, None], out=buf)
    buf -= v
    buf[np.abs(buf) <= SNAP_EPS * np.finfo(float).eps * dist.max()] = 0.0
    return buf


def require_exact_sizes(rows: int, cols: int) -> None:
    """The exact solver's admission rule, checked before any cost matrix:
    DimensionError unless the ``rows`` and ``cols`` points per side are equal,
    and CapacityError above ``EXACT_SIZE_CAP``."""
    if rows != cols:
        raise DimensionError(f"exact W1 needs equal sizes, got {rows} vs {cols}")
    if rows > EXACT_SIZE_CAP:
        raise CapacityError(f"ensemble_size {rows} exceeds the exact-solver cap {EXACT_SIZE_CAP}")


def w1_exact(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Exact 1-Wasserstein distance between two measures whose sizes
    :func:`require_exact_sizes` admits; DimensionError when their dimensions differ."""
    require_exact_sizes(mu.size, nu.size)
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
