"""Discrete-time Moran birth-death chain on strategy counts.

One step: an individual is chosen to reproduce with probability proportional
to ``count * fitness``, and an individual (possibly the same one) is chosen
uniformly to abandon its strategy.  Only the count vector matters, so the
chain is simulated on counts rather than on individual agents.

The chain runs on an equispaced grid ``t_h = h * T / k`` whose population
size and selection weight are tied to the step size by power laws
(``ScalingSchedule``).  Two continuous-time extensions of a trajectory are
provided: piecewise affine and piecewise constant interpolation.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DimensionError,
    DomainError,
    FitnessDegenerateError,
)
from .simplex import PayoffMatrix, SimplexPoint

#: snap window (relative to the grid step) for treating a query time as a grid node
GRID_SNAP = 1e-9


@dataclass(frozen=True, eq=False)
class DiscreteState:
    """Strategy counts of a population of N individuals.

    ``counts`` are nonnegative integers summing to ``population``;
    ``selection_weight`` is the fitness weight w carried along with the state.
    """

    counts: np.ndarray
    population: int
    selection_weight: float

    def __init__(self, counts, population, selection_weight):
        arr = np.asarray(counts, dtype=np.int64)
        n = int(population)
        w = float(selection_weight)
        if arr.ndim != 1 or arr.size < 2:
            raise DimensionError(f"counts must be a vector of M >= 2 entries, got {arr!r}")
        if n < 2:
            raise DomainError(f"population must be at least 2, got {population}")
        if np.any(arr < 0):
            raise DomainError(f"negative strategy count in {arr!r}")
        if arr.sum() != n:
            raise DomainError(f"counts {arr.tolist()} sum to {arr.sum()}, expected {n}")
        if not 0.0 <= w <= 1.0:
            raise DomainError(f"selection weight must lie in [0, 1], got {selection_weight}")
        arr.setflags(write=False)
        object.__setattr__(self, "counts", arr)
        object.__setattr__(self, "population", n)
        object.__setattr__(self, "selection_weight", w)

    @property
    def dimension(self) -> int:
        return self.counts.size

    def proportions(self) -> SimplexPoint:
        return SimplexPoint(self.counts / self.population)

    def is_monomorphic(self) -> bool:
        return bool(np.max(self.counts) == self.population)

    def __repr__(self) -> str:
        return (
            f"DiscreteState(counts={self.counts.tolist()}, population={self.population}, "
            f"selection_weight={self.selection_weight})"
        )


@dataclass(frozen=True, eq=False)
class TransitionTable:
    """One-step transition distribution of the chain at a fixed state.

    ``move_probs[i, j]`` is the probability that strategy i gains one bearer
    while strategy j loses one (zero on the diagonal by convention; the
    self-replacement events are folded into ``stay_prob``).
    """

    move_probs: np.ndarray
    stay_prob: float

    def flat_probabilities(self) -> np.ndarray:
        """Outcome probabilities in the documented sampling order.

        Order: ``[stay, move(0,0), move(0,1), ..., move(M-1,M-1)]`` (moves
        row-major; diagonal entries are zero and never sampled).
        """
        return np.concatenate(([self.stay_prob], self.move_probs.ravel()))

    def flat_cumulative(self) -> np.ndarray:
        """Normalized cumulative of :meth:`flat_probabilities` (ends at 1.0)."""
        cum = np.cumsum(self.flat_probabilities())
        return cum / cum[-1]

    def outcome_moves(self) -> np.ndarray:
        """(1 + M^2, 2) array of (gainer, loser) per flat outcome; row 0 = stay = (-1, -1)."""
        m = self.move_probs.shape[0]
        gainers, losers = np.divmod(np.arange(m * m), m)
        return np.vstack(([(-1, -1)], np.column_stack((gainers, losers))))


def _move_stay_arrays(lam: np.ndarray, entries: np.ndarray, population: int, w: float):
    """Move/stay probabilities for a batch ``lam`` of shape (R, M).

    Returns ``(moves, stay)`` with moves of shape (R, M, M) (diagonal zero)
    and stay of shape (R,).  Raises if any mean fitness is not positive.
    """
    n = population
    pay = (n / (n - 1.0)) * (lam @ entries.T) - np.diagonal(entries) / (n - 1.0)
    fit = (1.0 - w) + w * pay
    lam_fit = lam * fit
    fbar = lam_fit.sum(axis=1)
    if np.any(fbar <= 0.0):
        raise FitnessDegenerateError(
            "mean fitness is not positive; birth probabilities are undefined"
        )
    moves = lam_fit[:, :, None] * lam[:, None, :] / fbar[:, None, None]
    stay = np.einsum("ri,ri->r", lam_fit, lam) / fbar
    r, m = lam.shape
    idx = np.arange(m)
    moves[:, idx, idx] = 0.0
    return moves, stay


def transition_table(state: DiscreteState, matrix: PayoffMatrix) -> TransitionTable:
    """Exact one-step transition distribution at ``state``.

    ``move_probs[i, j] = lam_i * f_i * lam_j / fbar`` for i != j and
    ``stay_prob = sum_i lam_i^2 f_i / fbar``; the table sums to one.
    """
    if state.dimension != matrix.dimension:
        raise DimensionError(
            f"state has {state.dimension} strategies, matrix has {matrix.dimension}"
        )
    lam = (state.counts / state.population)[None, :]
    moves, stay = _move_stay_arrays(
        lam, matrix.entries, state.population, state.selection_weight
    )
    mv = moves[0]
    mv.setflags(write=False)
    return TransitionTable(move_probs=mv, stay_prob=float(stay[0]))


def _apply_flat_outcome(counts: np.ndarray, flat_index: int, m: int) -> np.ndarray:
    if flat_index == 0:
        return counts
    gainer, loser = divmod(flat_index - 1, m)
    out = counts.copy()
    out[gainer] += 1
    out[loser] -= 1
    return out


def step(state: DiscreteState, matrix: PayoffMatrix, rng: np.random.Generator) -> DiscreteState:
    """Sample one birth-death step.

    Consumes exactly one uniform draw from ``rng`` and inverts the cumulative
    of the flat outcome order documented on :meth:`TransitionTable.flat_probabilities`.
    """
    table = transition_table(state, matrix)
    cum = table.flat_cumulative()
    idx = int(np.searchsorted(cum, rng.random(), side="right"))
    counts = _apply_flat_outcome(state.counts, idx, state.dimension)
    return DiscreteState(counts, state.population, state.selection_weight)


@dataclass(frozen=True, eq=False)
class ScalingSchedule:
    """Resolution-indexed scaling of step size, population and selection.

    ``tau = horizon / resolution``; ``population = max(n_floor,
    round(n_scale * tau**-alpha))``; ``selection_weight = min(1, w_scale *
    tau**beta)``.  Rounding is half-up.  ``w_scale = 0`` yields the neutral
    chain.
    """

    horizon: float
    resolution: int
    alpha: float
    beta: float
    n_floor: int = 2
    n_scale: float = 1.0
    w_scale: float = 1.0

    def __post_init__(self):
        if self.horizon <= 0:
            raise DomainError(f"horizon must be positive, got {self.horizon}")
        if int(self.resolution) < 1:
            raise DomainError(f"resolution must be >= 1, got {self.resolution}")
        if self.alpha <= 0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if self.beta < 0:
            raise DomainError(f"beta must be nonnegative, got {self.beta}")
        if self.n_floor < 2:
            raise DomainError(f"n_floor must be at least 2, got {self.n_floor}")
        if self.n_scale <= 0:
            raise DomainError(f"n_scale must be positive, got {self.n_scale}")
        if self.w_scale < 0:
            raise DomainError(f"w_scale must be nonnegative, got {self.w_scale}")

    @property
    def tau(self) -> float:
        return self.horizon / self.resolution

    @property
    def population(self) -> int:
        return max(int(self.n_floor), int(np.floor(self.n_scale * self.tau**-self.alpha + 0.5)))

    @property
    def selection_weight(self) -> float:
        return min(1.0, self.w_scale * self.tau**self.beta)

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.resolution + 1)

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "resolution": self.resolution,
            "alpha": self.alpha,
            "beta": self.beta,
            "n_floor": self.n_floor,
            "n_scale": self.n_scale,
            "w_scale": self.w_scale,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScalingSchedule":
        return cls(**data)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States of one chain realization on the full time grid."""

    schedule: ScalingSchedule
    states: tuple
    seed: int

    def times(self) -> np.ndarray:
        return self.schedule.times()

    def counts_matrix(self) -> np.ndarray:
        return np.array([s.counts for s in self.states], dtype=np.int64)

    def proportions_matrix(self) -> np.ndarray:
        return self.counts_matrix() / self.schedule.population


def largest_remainder_counts(point: SimplexPoint, population: int) -> np.ndarray:
    """Round a simplex point onto the 1/N lattice by largest remainder.

    Floors each ``N * lam_i`` and hands the remaining units to the largest
    fractional parts, ties broken by lowest index.  The per-coordinate error
    stays below 1/N.
    """
    n = int(population)
    if n < 2:
        raise DomainError(f"population must be at least 2, got {population}")
    scaled = point.coords * n
    base = np.floor(scaled).astype(np.int64)
    short = n - int(base.sum())
    if short:
        order = np.argsort(-(scaled - base), kind="stable")
        base[order[:short]] += 1
    return base


def discretize_initial(point: SimplexPoint, schedule: ScalingSchedule) -> DiscreteState:
    """Largest-remainder projection of ``point`` onto the schedule's count lattice."""
    counts = largest_remainder_counts(point, schedule.population)
    return DiscreteState(counts, schedule.population, schedule.selection_weight)


def simulate(
    initial: DiscreteState,
    matrix: PayoffMatrix,
    schedule: ScalingSchedule,
    seed: int,
) -> Trajectory:
    """Run ``schedule.resolution`` sequential steps from ``initial``.

    The RNG stream is PCG64 seeded by ``seed`` alone, so identical seeds give
    identical trajectories.
    """
    if initial.population != schedule.population:
        raise ConfigurationError(
            f"initial population {initial.population} does not match "
            f"schedule population {schedule.population}"
        )
    if initial.selection_weight != schedule.selection_weight:
        raise ConfigurationError(
            f"initial selection weight {initial.selection_weight} does not match "
            f"schedule weight {schedule.selection_weight}"
        )
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))
    states = [initial]
    current = initial
    for _ in range(schedule.resolution):
        current = step(current, matrix, rng)
        states.append(current)
    return Trajectory(schedule=schedule, states=tuple(states), seed=int(seed))


def simulate_counts_batch(
    counts0: np.ndarray,
    matrix: PayoffMatrix,
    schedule: ScalingSchedule,
    uniforms: np.ndarray,
) -> np.ndarray:
    """Advance R chains in lockstep; returns counts of shape (R, k+1, M).

    ``uniforms`` has shape (R, k), one draw per replica per step, so replica
    r reproduces exactly the scalar :func:`step` sequence driven by the same
    stream.  All replicas share the schedule's population and weight.
    """
    counts0 = np.asarray(counts0, dtype=np.int64)
    r, m = counts0.shape
    k = schedule.resolution
    n = schedule.population
    w = schedule.selection_weight
    if uniforms.shape != (r, k):
        raise DimensionError(f"uniforms shape {uniforms.shape} != {(r, k)}")
    out = np.empty((r, k + 1, m), dtype=np.int64)
    out[:, 0] = counts0
    current = counts0.copy()
    rows = np.arange(r)
    for h in range(k):
        lam = current / n
        moves, stay = _move_stay_arrays(lam, matrix.entries, n, w)
        flat = np.concatenate((stay[:, None], moves.reshape(r, m * m)), axis=1)
        cum = np.cumsum(flat, axis=1)
        cum /= cum[:, -1:]
        # entries <= u, the same outcome as searchsorted(side="right") in step
        idx = (cum <= uniforms[:, h, None]).sum(axis=1)
        moved = idx > 0
        gainer, loser = np.divmod(idx[moved] - 1, m)
        current[rows[moved], gainer] += 1
        current[rows[moved], loser] -= 1
        out[:, h + 1] = current
    return out


def locate_on_grid(t: float, horizon: float, resolution: int):
    """Grid interval of ``t`` with snapping: (h, fraction), fraction 0 at nodes.

    Queries within ``GRID_SNAP`` grid steps of a node snap to it so node
    queries are exact despite float division.
    """
    if not -GRID_SNAP * horizon <= t <= horizon * (1 + GRID_SNAP):
        raise DomainError(f"time {t} outside [0, {horizon}]")
    tau = horizon / resolution
    pos = min(max(t / tau, 0.0), float(resolution))
    nearest = round(pos)
    if abs(pos - nearest) <= GRID_SNAP:
        return int(nearest), 0.0
    h = int(np.floor(pos))
    return h, pos - h


def _locate(traj: Trajectory, t: float):
    return locate_on_grid(t, traj.schedule.horizon, traj.schedule.resolution)


def interpolate_affine(traj: Trajectory, t: float) -> SimplexPoint:
    """Piecewise affine interpolation of the trajectory at time ``t``.

    Exact at grid nodes (queries within ``GRID_SNAP * tau`` of a node snap to
    it); between nodes returns the convex combination of the endpoints.
    """
    h, frac = _locate(traj, t)
    if frac == 0.0:
        return traj.states[h].proportions()
    lam0 = traj.states[h].counts / traj.schedule.population
    lam1 = traj.states[h + 1].counts / traj.schedule.population
    return SimplexPoint(lam0 + frac * (lam1 - lam0))


def interpolate_constant(traj: Trajectory, t: float) -> SimplexPoint:
    """Piecewise constant interpolation of the trajectory at time ``t``.

    Returns the state at ``t_h`` for ``t`` in ``[t_h, t_{h+1})`` and the final
    state at ``t = horizon``; node snapping as in :func:`interpolate_affine`.
    """
    h, _ = _locate(traj, t)
    return traj.states[h].proportions()


def exact_drift(state: DiscreteState, matrix: PayoffMatrix) -> np.ndarray:
    """Conditional one-step mean increment of the proportions.

    Component i equals ``lam_i * (f_i - fbar) / (N * fbar)``; summing the
    transition table outcomes gives the same vector.
    """
    from .simplex import fitness_profile

    prof = fitness_profile(
        state.proportions(), matrix, state.population, state.selection_weight
    )
    if prof.mean_fitness <= 0:
        raise FitnessDegenerateError(
            "mean fitness is not positive; birth probabilities are undefined"
        )
    lam = state.counts / state.population
    return lam * (prof.fitnesses - prof.mean_fitness) / (state.population * prof.mean_fitness)


# -- trajectory file round-trip -----------------------------------------

TRAJECTORY_SCHEMA = "moranfield-trajectory/v1"


def export_trajectory(traj: Trajectory, csv_path, sidecar_path, matrix: PayoffMatrix) -> None:
    """Write grid-point proportions as CSV plus a JSON sidecar.

    The CSV keeps 17 significant digits so proportions (and hence integer
    counts) round-trip bit-exactly; the sidecar holds schedule, seed and
    payoff matrix.
    """
    m = traj.states[0].dimension
    times = traj.times()
    props = traj.proportions_matrix()
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"lambda_{i + 1}" for i in range(m)])
        for t, row in zip(times, props):
            writer.writerow([f"{t:.17g}"] + [f"{x:.17g}" for x in row])
    sidecar = {
        "schema": TRAJECTORY_SCHEMA,
        "schedule": traj.schedule.to_dict(),
        "seed": traj.seed,
        "payoff_matrix": matrix.to_rows(),
    }
    with open(sidecar_path, "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def import_trajectory(csv_path, sidecar_path):
    """Inverse of :func:`export_trajectory`; returns (Trajectory, PayoffMatrix)."""
    with open(sidecar_path) as fh:
        sidecar = json.load(fh)
    if sidecar.get("schema") != TRAJECTORY_SCHEMA:
        raise ConfigurationError(f"unexpected sidecar schema {sidecar.get('schema')!r}")
    schedule = ScalingSchedule.from_dict(sidecar["schedule"])
    matrix = PayoffMatrix.from_rows(sidecar["payoff_matrix"])
    n = schedule.population
    states = []
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        m = len(header) - 1
        for row in reader:
            lam = np.array([float(x) for x in row[1:]])
            counts = np.rint(lam * n).astype(np.int64)
            states.append(DiscreteState(counts, n, schedule.selection_weight))
    if len(states) != schedule.resolution + 1 or states[0].dimension != m:
        raise ConfigurationError("trajectory CSV does not match its sidecar schedule")
    return (
        Trajectory(schedule=schedule, states=tuple(states), seed=int(sidecar["seed"])),
        matrix,
    )
