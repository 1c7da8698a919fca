"""Exact 1-Wasserstein distance between empirical measures on the simplex.

Equal-size uniform empirical measures reduce to a linear assignment problem;
unequal sizes are solved exactly on the transportation polytope (LP, with
the optimal vertex masses snapped to their exact lattice).  A Kantorovich-dual
certifier produces guaranteed lower bounds from 1-Lipschitz witnesses.

The ground metric is Euclidean on R^M restricted to the simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.spatial.distance import cdist

from .errors import (
    CapacityError,
    DimensionError,
    DomainError,
    InvalidWitnessError,
    SimulationError,
)
from .simplex import SIMPLEX_TOL, SimplexPoint

#: largest ensemble size accepted by the exact solver
EXACT_SIZE_CAP = 4096


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
        if np.any(arr < -SIMPLEX_TOL) or np.any(
            np.abs(arr.sum(axis=1) - 1.0) > SIMPLEX_TOL
        ):
            bad = int(np.argmax(np.abs(arr.sum(axis=1) - 1.0)))
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


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Optimal coupling between two uniform empirical measures.

    ``pairs[n] = (i, j)`` carries ``masses[n]`` from source point i to target
    point j at ground cost ``pair_costs[n]``; ``cost`` is the total (the W1
    value).  ``kind`` is "assignment" for the equal-size permutation case and
    "coupling" otherwise.
    """

    kind: str
    pairs: np.ndarray
    masses: np.ndarray
    pair_costs: np.ndarray
    cost: float
    source_size: int
    target_size: int

    def marginals(self) -> tuple[np.ndarray, np.ndarray]:
        mu = np.zeros(self.source_size)
        nu = np.zeros(self.target_size)
        np.add.at(mu, self.pairs[:, 0], self.masses)
        np.add.at(nu, self.pairs[:, 1], self.masses)
        return mu, nu


def _cost_matrix(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> np.ndarray:
    if mu.dimension != nu.dimension:
        raise DimensionError(
            f"measures live in different dimensions: {mu.dimension} vs {nu.dimension}"
        )
    return cdist(mu.array, nu.array)


def _assignment_plan(dist: np.ndarray) -> TransportPlan:
    rows, cols = linear_sum_assignment(dist)
    r = dist.shape[0]
    pair_costs = dist[rows, cols]
    masses = np.full(r, 1.0 / r)
    return TransportPlan(
        kind="assignment",
        pairs=np.column_stack((rows, cols)),
        masses=masses,
        pair_costs=pair_costs,
        cost=float(pair_costs.mean()),
        source_size=r,
        target_size=r,
    )


def _transportation_plan(dist: np.ndarray, r_mu: int, r_nu: int) -> TransportPlan:
    a_rows, a_cols, a_vals = [], [], []
    for i in range(r_mu):
        a_rows.extend([i] * r_nu)
        a_cols.extend(range(i * r_nu, (i + 1) * r_nu))
        a_vals.extend([1.0] * r_nu)
    for j in range(r_nu):
        a_rows.extend([r_mu + j] * r_mu)
        a_cols.extend(range(j, r_mu * r_nu, r_nu))
        a_vals.extend([1.0] * r_mu)
    from scipy.sparse import coo_matrix

    a_eq = coo_matrix((a_vals, (a_rows, a_cols)), shape=(r_mu + r_nu, r_mu * r_nu))
    b_eq = np.concatenate((np.full(r_mu, 1.0 / r_mu), np.full(r_nu, 1.0 / r_nu)))
    res = linprog(dist.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise SimulationError(f"transportation solve failed: {res.message}")
    # a vertex is integral in units of 1/(r_mu r_nu): the scaled marginals
    # r_nu and r_mu are integers and the constraint matrix is totally unimodular
    units = np.rint(res.x.reshape(r_mu, r_nu) * (r_mu * r_nu)).astype(np.int64)
    if np.any(units.sum(axis=1) != r_nu) or np.any(units.sum(axis=0) != r_mu):
        raise SimulationError("failed to reconstruct exact transportation masses")
    pairs = np.argwhere(units > 0)
    masses = units[units > 0] / (r_mu * r_nu)
    pair_costs = dist[pairs[:, 0], pairs[:, 1]]
    return TransportPlan(
        kind="coupling",
        pairs=pairs,
        masses=masses,
        pair_costs=pair_costs,
        cost=float(masses @ pair_costs),
        source_size=r_mu,
        target_size=r_nu,
    )


def w1_exact(
    mu: EmpiricalMeasure, nu: EmpiricalMeasure, max_size: int = EXACT_SIZE_CAP
) -> tuple[float, TransportPlan]:
    """Exact 1-Wasserstein distance and an optimal plan.

    Equal sizes solve a linear assignment problem; unequal sizes solve the
    transportation polytope exactly.  Raises CapacityError above ``max_size``
    points per side.
    """
    if mu.size > max_size or nu.size > max_size:
        raise CapacityError(
            f"ensemble sizes ({mu.size}, {nu.size}) exceed the exact-solver cap {max_size}"
        )
    dist = _cost_matrix(mu, nu)
    if mu.size == nu.size:
        plan = _assignment_plan(dist)
    else:
        plan = _transportation_plan(dist, mu.size, nu.size)
    return plan.cost, plan


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


def potential_witness(mu: EmpiricalMeasure, nu: EmpiricalMeasure, max_points: int = 256) -> Witness:
    """Kantorovich potential attaining W1(mu, nu), extended off the support.

    Solves the dual LP over potential values on the pooled support and
    extends by sup-convolution, which preserves the 1-Lipschitz bound and the
    support values; the resulting witness makes the duality gap vanish.
    """
    pooled = np.vstack((mu.array, nu.array))
    p = pooled.shape[0]
    if p > max_points:
        raise CapacityError(f"potential witness limited to {max_points} pooled points, got {p}")
    dist = cdist(pooled, pooled)
    c = np.concatenate((np.full(mu.size, 1.0 / mu.size), np.full(nu.size, -1.0 / nu.size)))
    rows = []
    rhs = []
    for a in range(p):
        for b in range(p):
            if a != b:
                row = np.zeros(p)
                row[a], row[b] = 1.0, -1.0
                rows.append(row)
                rhs.append(dist[a, b])
    bounds = [(0.0, 0.0)] + [(None, None)] * (p - 1)
    res = linprog(c, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=bounds, method="highs")
    if not res.success:
        raise SimulationError(f"dual potential solve failed: {res.message}")
    values = res.x
    return Witness(
        "optimal_potential",
        lambda pts: np.max(values - cdist(np.atleast_2d(pts), pooled), axis=1),
    )


def _check_lipschitz(witness: Witness, points: np.ndarray, rng=None) -> None:
    p = points.shape[0]
    vals = witness(points)
    if p <= 64:
        diff = np.abs(vals[:, None] - vals[None, :])
        dist = cdist(points, points)
        bad = diff > dist + 1e-9
    else:
        gen = rng or np.random.default_rng(0)
        ii = gen.integers(0, p, size=2000)
        jj = gen.integers(0, p, size=2000)
        bad = np.abs(vals[ii] - vals[jj]) > np.linalg.norm(points[ii] - points[jj], axis=1) + 1e-9
    if np.any(bad):
        raise InvalidWitnessError(
            f"witness {witness.name!r} violates the 1-Lipschitz bound on sample pairs"
        )


def w1_dual_lower_bound(mu: EmpiricalMeasure, nu: EmpiricalMeasure, witnesses) -> float:
    """Best certified Kantorovich lower bound from the supplied witnesses.

    Returns ``max_w mean(w(nu)) - mean(w(mu))``, which never exceeds the
    exact distance.  Witnesses failing the Lipschitz spot check are rejected.
    """
    if not witnesses:
        raise DomainError("at least one witness is required")
    pooled = np.vstack((mu.array, nu.array))
    best = -math.inf
    for witness in witnesses:
        _check_lipschitz(witness, pooled)
        best = max(best, float(witness(nu.array).mean() - witness(mu.array).mean()))
    return best
