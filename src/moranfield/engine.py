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
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DimensionError,
    DomainError,
    FitnessDegenerateError,
)
from .report import write_csv, write_json
from .simplex import PayoffMatrix, SimplexPoint, fitness_map, payoff_fitness

#: snap window (relative to the grid step) for treating a query time as a grid node
GRID_SNAP = 1e-9
#: steps of ``uniforms`` the chain kernel reads at a time
DRAW_BLOCK = 1024


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
        return _outcome_moves(self.move_probs.shape[0])


def _outcome_moves(m: int) -> np.ndarray:
    gainers, losers = np.divmod(np.arange(m * m), m)
    return np.vstack(([(-1, -1)], np.column_stack((gainers, losers))))


def _increment_table(m: int) -> np.ndarray:
    """(M, 1 + M(M-1)) count increment of each sampled outcome: column 0 (stay)
    is zero, then the off-diagonal moves row-major."""
    gainers, losers = np.nonzero(~np.eye(m, dtype=bool))
    eye = np.eye(m)
    return np.hstack((np.zeros((m, 1)), eye[:, gainers] - eye[:, losers]))


def _check_dimension(m: int, entries: np.ndarray) -> None:
    if m != entries.shape[0]:
        raise DimensionError(f"state has {m} strategies, matrix has {entries.shape[0]}")


_DEGENERATE = "mean fitness is not positive; birth probabilities are undefined"


def _outcome_filler(lam: np.ndarray, fit: np.ndarray, out: np.ndarray):
    """Return ``fill()``, which writes the sampled outcome probabilities of each
    column of ``lam`` (M, R), at fitnesses ``fit`` (M, R), into ``out``
    (1 + M(M-1), R): the stay row ``sum_i lam_i^2 f_i / fbar``, then
    ``move(i, j) = lam_i f_i lam_j / fbar`` for i != j, row-major.

    ``fill`` reads the buffers as they are when it runs, so one filler serves a
    whole run; it raises FitnessDegenerateError unless every fbar > 0.
    """
    m, r = lam.shape
    lam_fit, fbar, grid = np.empty((m, r)), np.empty(r), np.empty((m * m, r))
    products, lam_fit_col, lam_row = grid.reshape(m, m, r), lam_fit[:, None], lam[None]
    diagonal = grid[:: m + 1]
    # grid rows 1 .. M^2 - 1 fall in runs of M + 1 that each end on a diagonal
    # row, so the first M rows of each run are the off-diagonal moves, row-major
    off_diagonal = grid[1:].reshape(m - 1, m + 1, r)[:, :m]
    stay, moves = out[0], out[1:].reshape(m - 1, m, r)

    def fill():
        np.multiply(lam, fit, out=lam_fit)
        np.add.reduce(lam_fit, axis=0, out=fbar)
        if np.minimum.reduce(fbar) <= 0.0:
            raise FitnessDegenerateError(_DEGENERATE)
        np.multiply(lam_fit_col, lam_row, out=products)
        np.add.reduce(diagonal, axis=0, out=stay)
        np.copyto(moves, off_diagonal)
        np.divide(out, fbar, out=out)

    return fill


def transition_table(state: DiscreteState, matrix: PayoffMatrix) -> TransitionTable:
    """Exact one-step transition distribution at ``state``.

    ``move_probs[i, j] = lam_i * f_i * lam_j / fbar`` for i != j and
    ``stay_prob = sum_i lam_i^2 f_i / fbar``; the table sums to one.
    """
    m, n = state.dimension, state.population
    _check_dimension(m, matrix.entries)
    lam = (state.counts / n)[:, None]
    _, fit = payoff_fitness(lam, matrix.entries, n, state.selection_weight)
    flat = np.empty((1 + m * (m - 1), 1))
    _outcome_filler(lam, fit, flat)()
    mv = np.zeros((m, m))
    mv[~np.eye(m, dtype=bool)] = flat[1:, 0]
    mv.setflags(write=False)
    return TransitionTable(move_probs=mv, stay_prob=float(flat[0, 0]))


def _lockstep(
    counts0: np.ndarray,
    entries: np.ndarray,
    population: int,
    w: float,
    uniforms: np.ndarray,
    columns=None,
) -> np.ndarray:
    """The chain's sampling loop: R chains from ``counts0`` (R, M), one uniform
    per replica per step from ``uniforms`` (R, k); returns the counts at the
    sorted grid indices ``columns`` (default all k+1) as (R, len(columns), M).

    Each step inverts the normalized cumulative of the sampled outcomes (the
    stay, then the off-diagonal moves of
    :meth:`TransitionTable.flat_probabilities`, whose zero diagonal never
    changes a cumulative), taking the first outcome whose cumulative exceeds u
    (``searchsorted(side="right")``).  Arrays are (M, R) and (1 + M(M-1), R),
    allocated once per run, so every numpy call's inner loop runs over
    replicas.  ``uniforms`` is read once, in order, as column blocks
    ``uniforms[:, a:a + DRAW_BLOCK]``, so it may draw each block when read; an
    F-ordered block is read without a copy.
    """
    r, m = counts0.shape
    k = uniforms.shape[1]
    _check_dimension(m, entries)
    slot = {h: j for j, h in enumerate(range(k + 1) if columns is None else columns)}
    inc = _increment_table(m)
    out = np.empty((len(slot), m, r), dtype=np.int64)
    # float counts are exact below 2**53 and divide without an int cast
    current = np.ascontiguousarray(counts0.T, dtype=float)
    lam, pay, fit, delta = np.empty((4, m, r))
    fitness = fitness_map(entries, population, w)
    cum = np.empty((1 + m * (m - 1), r))
    fill = _outcome_filler(lam, fit, cum)
    # the last cumulative normalizes to exactly 1.0 > u, so it never counts
    head, norm = cum[:-1], cum[-1]
    passed, picked = np.empty(head.shape, dtype=bool), np.empty(r, dtype=np.intp)
    if 0 in slot:
        out[slot[0]] = current
    blocks = (np.asfortranarray(uniforms[:, a : a + DRAW_BLOCK]).T for a in range(0, k, DRAW_BLOCK))
    for h, u in enumerate(itertools.chain.from_iterable(blocks), 1):
        np.divide(current, population, out=lam)
        fitness(lam, pay, fit)
        fill()
        np.add.accumulate(cum, axis=0, out=cum)
        np.divide(head, norm, out=head)
        np.less_equal(head, u, out=passed)
        np.add.reduce(passed, axis=0, out=picked)
        # picked never exceeds the last column; "raise" would buffer ``out``
        inc.take(picked, axis=1, out=delta, mode="clip")
        np.add(current, delta, out=current)
        if h in slot:
            out[slot[h]] = current
    return np.ascontiguousarray(out.transpose(2, 0, 1))


def step(state: DiscreteState, matrix: PayoffMatrix, rng: np.random.Generator) -> DiscreteState:
    """Sample one birth-death step: a one-step, one-replica run of the chain loop.

    Consumes exactly one uniform draw from ``rng``.
    """
    n, w = state.population, state.selection_weight
    path = _lockstep(state.counts[None, :], matrix.entries, n, w, np.array([[rng.random()]]))
    return DiscreteState(path[0, 1], n, w)


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
        # written so that nan fails every range check
        if not 0 < self.horizon < np.inf:
            raise DomainError(f"horizon must be positive and finite, got {self.horizon}")
        if int(self.resolution) < 1:
            raise DomainError(f"resolution must be >= 1, got {self.resolution}")
        if not 0 < self.alpha < np.inf:
            raise DomainError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0 <= self.beta < np.inf:
            raise DomainError(f"beta must be nonnegative and finite, got {self.beta}")
        if self.n_floor < 2:
            raise DomainError(f"n_floor must be at least 2, got {self.n_floor}")
        if not 0 < self.n_scale < np.inf:
            raise DomainError(f"n_scale must be positive and finite, got {self.n_scale}")
        if not 0 <= self.w_scale < np.inf:
            raise DomainError(f"w_scale must be nonnegative and finite, got {self.w_scale}")

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


class _StateView:
    """Read-only sequence of ``DiscreteState`` over the rows of a counts array."""

    def __init__(self, counts: np.ndarray, population: int, selection_weight: float):
        self._counts = counts
        self._population = population
        self._weight = selection_weight

    def __len__(self) -> int:
        return len(self._counts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        return DiscreteState(self._counts[index], self._population, self._weight)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One chain realization on the full time grid: ``counts`` is (k+1, M)."""

    schedule: ScalingSchedule
    counts: np.ndarray
    seed: int

    def __post_init__(self):
        self.counts.setflags(write=False)

    @property
    def states(self) -> _StateView:
        """The grid states as a read-only sequence, built on access."""
        return _StateView(self.counts, self.schedule.population, self.schedule.selection_weight)

    def times(self) -> np.ndarray:
        return self.schedule.times()

    def counts_matrix(self) -> np.ndarray:
        return self.counts

    def proportions_matrix(self) -> np.ndarray:
        return self.counts / self.schedule.population


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
    # one call for all k draws gives the same values as k scalar draws
    uniforms = rng.random((1, schedule.resolution))
    counts = simulate_counts_batch(initial.counts[None, :], matrix, schedule, uniforms)[0]
    return Trajectory(schedule=schedule, counts=counts, seed=int(seed))


def simulate_counts_batch(
    counts0: np.ndarray,
    matrix: PayoffMatrix,
    schedule: ScalingSchedule,
    uniforms: np.ndarray,
    columns=None,
) -> np.ndarray:
    """Advance R chains in lockstep; returns counts of shape (R, k+1, M), or
    (R, len(columns), M) holding only the sorted grid indices ``columns``.

    ``uniforms`` has shape (R, k), one draw per replica per step, so replica
    r reproduces exactly the scalar :func:`step` sequence driven by the same
    stream.  All replicas share the schedule's population and weight.
    """
    counts0 = np.asarray(counts0, dtype=np.int64)
    k = schedule.resolution
    if uniforms.shape != (counts0.shape[0], k):
        raise DimensionError(f"uniforms shape {uniforms.shape} != {(counts0.shape[0], k)}")
    # strictly increasing from above -1 to below k + 1
    if columns is not None and (np.diff(columns, prepend=-1, append=k + 1) <= 0).any():
        raise DomainError(f"columns must be increasing grid indices in [0, {k}], got {columns}")
    n, w = schedule.population, schedule.selection_weight
    return _lockstep(counts0, matrix.entries, n, w, uniforms, columns)


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


def interpolate_affine(traj: Trajectory, t: float) -> SimplexPoint:
    """Piecewise affine interpolation of the trajectory at time ``t``.

    Exact at grid nodes (queries within ``GRID_SNAP * tau`` of a node snap to
    it); between nodes returns the convex combination of the endpoints.
    """
    h, frac = locate_on_grid(t, traj.schedule.horizon, traj.schedule.resolution)
    lam0 = traj.counts[h] / traj.schedule.population
    if frac == 0.0:
        return SimplexPoint(lam0)
    lam1 = traj.counts[h + 1] / traj.schedule.population
    return SimplexPoint(lam0 + frac * (lam1 - lam0))


def interpolate_constant(traj: Trajectory, t: float) -> SimplexPoint:
    """Piecewise constant interpolation of the trajectory at time ``t``.

    Returns the state at ``t_h`` for ``t`` in ``[t_h, t_{h+1})`` and the final
    state at ``t = horizon``; node snapping as in :func:`interpolate_affine`.
    """
    h, _ = locate_on_grid(t, traj.schedule.horizon, traj.schedule.resolution)
    return SimplexPoint(traj.counts[h] / traj.schedule.population)


def exact_drift(state: DiscreteState, matrix: PayoffMatrix) -> np.ndarray:
    """Conditional one-step mean increment of the proportions.

    Component i equals ``lam_i * (f_i - fbar) / (N * fbar)``; summing the
    transition table outcomes gives the same vector.
    """
    n = state.population
    _check_dimension(state.dimension, matrix.entries)
    lam = (state.counts / n)[:, None]
    _, fit = payoff_fitness(lam, matrix.entries, n, state.selection_weight)
    lam_fit = lam * fit
    fbar = np.add.reduce(lam_fit, axis=0)
    if fbar[0] <= 0.0:
        raise FitnessDegenerateError(_DEGENERATE)
    return (lam_fit[:, 0] - lam[:, 0] * fbar[0]) / (n * fbar[0])


# -- trajectory file round-trip -----------------------------------------

TRAJECTORY_SCHEMA = "moranfield-trajectory/v1"


def export_trajectory(traj: Trajectory, csv_path, sidecar_path, matrix: PayoffMatrix) -> None:
    """Write grid-point proportions as CSV plus a JSON sidecar.

    The CSV keeps 17 significant digits so proportions (and hence integer
    counts) round-trip bit-exactly; the sidecar holds schedule, seed and
    payoff matrix.
    """
    header = ["t"] + [f"lambda_{i + 1}" for i in range(traj.counts.shape[1])]
    # Python floats format faster than numpy scalars, to the same text
    rows = ([t, *row] for t, row in zip(traj.times().tolist(), traj.proportions_matrix().tolist()))
    write_csv(csv_path, header, rows)
    sidecar = {
        "schema": TRAJECTORY_SCHEMA,
        "schedule": traj.schedule.to_dict(),
        "seed": traj.seed,
        "payoff_matrix": matrix.to_rows(),
    }
    write_json(sidecar_path, sidecar)


def import_trajectory(csv_path, sidecar_path):
    """Inverse of :func:`export_trajectory`; returns (Trajectory, PayoffMatrix)."""
    with open(sidecar_path) as fh:
        sidecar = json.load(fh)
    if sidecar.get("schema") != TRAJECTORY_SCHEMA:
        raise ConfigurationError(f"unexpected sidecar schema {sidecar.get('schema')!r}")
    schedule = ScalingSchedule.from_dict(sidecar["schedule"])
    matrix = PayoffMatrix.from_rows(sidecar["payoff_matrix"])
    n = schedule.population
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        m = len(next(reader)) - 1
        rows = [[float(x) for x in row[1:]] for row in reader]
    if len(rows) != schedule.resolution + 1 or any(len(row) != m for row in rows):
        raise ConfigurationError("trajectory CSV does not match its sidecar schedule")
    if m < 2:
        raise DimensionError(f"trajectory CSV has {m} strategy columns, need M >= 2")
    counts = np.rint(np.array(rows) * n).astype(np.int64)
    if np.any(counts < 0):
        raise DomainError("negative strategy count in trajectory CSV")
    sums = counts.sum(axis=1)
    if np.any(sums != n):
        row = int(np.argmax(sums != n))
        raise DomainError(f"trajectory CSV row {row + 1} sums to {sums[row]}, expected {n}")
    return (
        Trajectory(schedule=schedule, counts=counts, seed=int(sidecar["seed"])),
        matrix,
    )
