"""Discrete-time Moran birth-death chain on strategy counts.

One step: an individual is chosen to reproduce with probability proportional
to ``count * fitness``, and an individual (possibly the same one) is chosen
uniformly to abandon its strategy.  Only the count vector matters, so the
chain is simulated on counts rather than on individual agents.

The chain runs on an equispaced grid ``t_h = h * T / k`` whose population
size and selection weight are tied to the step size by power laws
(``ScalingSchedule``).  ``locate_on_grid`` places a time on that grid for the
piecewise affine and piecewise constant interpolations of the chain.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DimensionError,
    DomainError,
    FitnessDegenerateError,
)
from .report import csv_cells, write_csv, write_json
from .simplex import PayoffMatrix, SimplexPoint, fitness_coefficients, payoff_fitness

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

    def __repr__(self) -> str:
        return (
            f"DiscreteState(counts={self.counts.tolist()}, population={self.population}, "
            f"selection_weight={self.selection_weight})"
        )


@dataclass(frozen=True, eq=False)
class TransitionTable:
    """One-step transition distribution of the chain at a fixed state.

    ``cumulative`` is the normalized cumulative over the flat outcomes
    ``[stay, move(0,0), move(0,1), ..., move(M-1,M-1)]`` (moves row-major;
    ``move(i, j)``: strategy i gains one bearer while j loses one).  It ends at
    exactly 1.0.  Self-replacements are folded into the stay, so every
    diagonal move is a zero-width step.  It is, bit for bit, the cumulative
    that the single-chain walk (``step``, ``simulate``) and a one-replica
    lockstep run invert.  A lockstep run of R >= 2 replicas computes the
    fitness in one matrix product whose rounding depends on R, so its
    cumulative may differ from this one by a few ulp.
    """

    cumulative: np.ndarray

    @property
    def dimension(self) -> int:
        return math.isqrt(self.cumulative.size - 1)

    @property
    def move_probs(self) -> np.ndarray:
        """(M, M) move probabilities, zero on the diagonal."""
        return self.flat_probabilities()[1:].reshape(self.dimension, self.dimension)

    @property
    def stay_prob(self) -> float:
        return float(self.cumulative[0])

    def flat_probabilities(self) -> np.ndarray:
        """Outcome probabilities in the order of ``cumulative``: the widths of
        the kernel's sampling intervals."""
        return np.diff(self.cumulative, prepend=0.0)

    def outcome_moves(self) -> np.ndarray:
        """(1 + M^2, 2) array of (gainer, loser) per flat outcome; row 0 = stay = (-1, -1)."""
        return _outcome_moves(self.dimension)


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


def _cumulative_filler(coeffs: np.ndarray, state: np.ndarray, cum: np.ndarray):
    """Return ``fill()``, which writes the normalized cumulative of the sampled
    outcomes of each column of ``state`` into ``cum`` (1 + M(M-1), R).

    ``state`` (M + 1, R) holds counts c over a row of ones, so the fitness is
    one product ``f = coeffs @ state`` (:func:`fitness_coefficients`).  The
    outcome weights are left unnormalized: the stay ``sum_i c_i^2 f_i``, then
    ``move(i, j) = c_i f_i c_j`` for i != j, row-major.  A sequential
    ``np.add.accumulate`` sums them, so a move with an empty gainer or loser
    adds exactly zero, and the head rows are divided by the last one, the
    total weight, which stays in ``cum[-1]`` (normalized it is exactly 1.0).

    ``fill`` reads ``state`` as it is when it runs, so one filler serves a
    whole run; it raises FitnessDegenerateError unless every total is > 0.
    """
    m, r = coeffs.shape[0], state.shape[1]
    counts, fit, grid = state[:m], np.empty((m, r)), np.empty((m * m, r))
    products, fit_col, counts_row = grid.reshape(m, m, r), fit[:, None], counts[None]
    diagonal = grid[:: m + 1]
    # grid rows 1 .. M^2 - 1 fall in runs of M + 1 that each end on a diagonal
    # row, so the first M rows of each run are the off-diagonal moves, row-major
    off_diagonal = grid[1:].reshape(m - 1, m + 1, r)[:, :m]
    stay, moves, head, total = cum[0], cum[1:].reshape(m - 1, m, r), cum[:-1], cum[-1]

    def fill():
        np.matmul(coeffs, state, out=fit)
        # from here on fit holds c_i f_i, the weight of strategy i as parent
        np.multiply(fit, counts, out=fit)
        np.multiply(fit_col, counts_row, out=products)
        np.add.reduce(diagonal, axis=0, out=stay)
        np.copyto(moves, off_diagonal)
        np.add.accumulate(cum, axis=0, out=cum)
        if np.minimum.reduce(total) <= 0.0:
            raise FitnessDegenerateError(_DEGENERATE)
        np.divide(head, total, out=head)

    return fill


def transition_table(state: DiscreteState, matrix: PayoffMatrix) -> TransitionTable:
    """Exact one-step transition distribution at ``state``: the chain kernel's
    cumulative for this one state (R = 1).

    ``move_probs[i, j] = c_i f_i c_j / W`` for i != j and ``stay_prob = sum_i
    c_i^2 f_i / W``, where W is the total weight ``N^2 fbar``.
    """
    m = state.dimension
    _check_dimension(m, matrix.entries)
    coeffs = fitness_coefficients(matrix.entries, state.population, state.selection_weight)
    cum = np.empty(1 + m * (m - 1))
    _cumulative_filler(coeffs, np.append(state.counts, 1.0)[:, None], cum[:, None])()
    cum[-1] = 1.0
    # a diagonal move repeats the cumulative of the sampled outcome before it
    sampled = np.concatenate(([True], ~np.eye(m, dtype=bool).ravel()))
    flat = cum[np.cumsum(sampled) - 1]
    flat.setflags(write=False)
    return TransitionTable(cumulative=flat)


def _draw_blocks(uniforms):
    """Column blocks ``uniforms[:, a:a + DRAW_BLOCK]`` of the (R, k) draws, in
    order, each as an F-ordered (steps, R) array (read without a copy when
    the block is F-ordered).  Raises DomainError on a draw outside [0, 1),
    nan included, which the inversion would read as a move or a stay."""
    for a in range(0, uniforms.shape[1], DRAW_BLOCK):
        block = np.asfortranarray(uniforms[:, a : a + DRAW_BLOCK]).T
        # written so that nan fails
        if not (block.min() >= 0.0 and block.max() < 1.0):
            bad = block[~((block >= 0.0) & (block < 1.0))]
            raise DomainError(f"uniform draws must lie in [0, 1), got {bad[0]!r}")
        yield block


def _walk(
    counts0: np.ndarray, entries: np.ndarray, population: int, w: float, uniforms: np.ndarray
) -> np.ndarray:
    """One chain from ``counts0`` (M,), one step per draw of ``uniforms`` (k,);
    returns the (k + 1, M) count path, equal to a one-replica
    :func:`simulate_counts_batch` run on the same draws.

    A path revisits few states, so within each block of ``DRAW_BLOCK`` draws a
    dict maps each visited count state to the head of its normalized
    cumulative, which the R = 1 :func:`_cumulative_filler` computes on first
    visit; a block holds at most ``DRAW_BLOCK`` states.  A step takes
    ``bisect_right(head, u)``: the head is nondecreasing, so that is the
    lockstep kernel's count of head entries <= u.  The path is one cumulative
    sum of the drawn outcomes' count increments.
    """
    m = counts0.size
    _check_dimension(m, entries)
    state, cum = np.ones((m + 1, 1)), np.empty((1 + m * (m - 1), 1))
    fill = _cumulative_filler(fitness_coefficients(entries, population, w), state, cum)
    inc = _increment_table(m).T.astype(np.int64)
    # (gainer, loser) of each sampled outcome after the stay
    moves = [None, *zip(inc[1:].argmax(axis=1).tolist(), inc[1:].argmin(axis=1).tolist())]
    current, picks = counts0.tolist(), []
    for block in _draw_blocks(uniforms[None]):
        heads = {}
        for u in block[:, 0].tolist():
            key = tuple(current)
            head = heads.get(key)
            if head is None:
                state[:m, 0] = key
                fill()
                head = heads[key] = cum[:-1, 0].tolist()
            picked = bisect_right(head, u)
            if picked:
                gainer, loser = moves[picked]
                current[gainer] += 1
                current[loser] -= 1
            picks.append(picked)
    return np.cumsum(np.vstack((counts0, inc[picks])), axis=0)


def step(state: DiscreteState, matrix: PayoffMatrix, rng: np.random.Generator) -> DiscreteState:
    """Sample one birth-death step: a one-step walk of the chain.

    Consumes exactly one uniform draw from ``rng``.
    """
    n, w = state.population, state.selection_weight
    path = _walk(state.counts, matrix.entries, n, w, np.array([rng.random()]))
    return DiscreteState(path[1], n, w)


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
    uniforms = rng.random(schedule.resolution)
    n, w = schedule.population, schedule.selection_weight
    counts = _walk(initial.counts, matrix.entries, n, w, uniforms)
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

    ``uniforms`` has shape (R, k), one draw per replica per step, each in
    [0, 1).  All replicas share the schedule's population and weight.  Each
    step inverts the normalized cumulative of the sampled outcomes (the one
    :func:`transition_table` holds, whose zero-width diagonal moves never
    change a cumulative), taking the first outcome whose cumulative exceeds u
    (``searchsorted(side="right")``).  A step is twelve numpy calls on arrays
    of shape (M + 1, R), (M, R) and (1 + M(M-1), R), allocated once per run,
    so every call's inner loop runs over replicas.  ``uniforms`` is read once,
    in order, by :func:`_draw_blocks`, so it may draw each block when read.

    At R = 1 the path is exactly the walk of :func:`step` and :func:`simulate`
    on the same draws.  For R >= 2 the fitness is one matrix product whose
    rounding depends on R, so a replica's cumulative may differ by a few ulp
    and a draw that close to an outcome boundary may pick the next outcome.
    """
    counts0 = np.asarray(counts0, dtype=np.int64)
    k = schedule.resolution
    if uniforms.shape != (counts0.shape[0], k):
        raise DimensionError(f"uniforms shape {uniforms.shape} != {(counts0.shape[0], k)}")
    # strictly increasing from above -1 to below k + 1
    if columns is not None and (np.diff(columns, prepend=-1, append=k + 1) <= 0).any():
        raise DomainError(f"columns must be increasing grid indices in [0, {k}], got {columns}")
    r, m = counts0.shape
    _check_dimension(m, matrix.entries)
    slot = {h: j for j, h in enumerate(range(k + 1) if columns is None else columns)}
    inc = _increment_table(m)
    out = np.empty((len(slot), m, r), dtype=np.int64)
    # counts over a row of ones; float counts are exact below 2**53
    state = np.ones((m + 1, r))
    current, delta = state[:m], np.empty((m, r))
    current[...] = counts0.T
    cum = np.empty((1 + m * (m - 1), r))
    coeffs = fitness_coefficients(matrix.entries, schedule.population, schedule.selection_weight)
    fill = _cumulative_filler(coeffs, state, cum)
    # picked counts the head rows <= u; the last row holds the total weight
    head = cum[:-1]
    passed, picked = np.empty(head.shape, dtype=bool), np.empty(r, dtype=np.intp)
    if 0 in slot:
        out[slot[0]] = current
    for h, u in enumerate(itertools.chain.from_iterable(_draw_blocks(uniforms)), 1):
        fill()
        np.less_equal(head, u, out=passed)
        np.add.reduce(passed, axis=0, out=picked)
        # picked never exceeds the last column; "raise" would buffer ``out``
        inc.take(picked, axis=1, out=delta, mode="clip")
        np.add(current, delta, out=current)
        if h in slot:
            out[slot[h]] = current
    return np.ascontiguousarray(out.transpose(2, 0, 1))


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


def _trajectory_header(m: int) -> list[str]:
    return ["t"] + [f"lambda_{i + 1}" for i in range(m)]


def export_trajectory(traj: Trajectory, csv_path, sidecar_path, matrix: PayoffMatrix) -> None:
    """Write grid-point proportions as CSV plus a JSON sidecar.

    The CSV keeps 17 significant digits so proportions (and hence integer
    counts) round-trip bit-exactly; the sidecar holds schedule, seed and
    payoff matrix.  A proportion takes one of the N + 1 values j / N, so each
    is formatted once, and the rows go to :func:`write_csv` in blocks of
    ``DRAW_BLOCK``, each a column of times and one column of formatted
    proportions per strategy.
    """
    n, counts = traj.schedule.population, traj.counts
    if counts.min() < 0 or counts.max() > n:
        raise DomainError(f"trajectory counts must lie in [0, {n}]")
    text, times = csv_cells(np.arange(n + 1) / n), traj.times()
    blocks = (
        [times[a : a + DRAW_BLOCK], *text[counts[a : a + DRAW_BLOCK]].T]
        for a in range(0, len(counts), DRAW_BLOCK)
    )
    write_csv(csv_path, _trajectory_header(counts.shape[1]), blocks)
    sidecar = {
        "schema": TRAJECTORY_SCHEMA,
        "schedule": asdict(traj.schedule),
        "seed": traj.seed,
        "payoff_matrix": matrix.to_rows(),
    }
    write_json(sidecar_path, sidecar)


def _read_sidecar(sidecar_path):
    """(schedule, seed, matrix) of a trajectory sidecar; ConfigurationError
    names the key that is missing or bad."""
    try:
        with open(sidecar_path) as fh:
            sidecar = json.load(fh)
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"trajectory sidecar is not valid JSON: {err}") from None
    if not isinstance(sidecar, dict):
        raise ConfigurationError("trajectory sidecar must be a JSON object")
    if sidecar.get("schema") != TRAJECTORY_SCHEMA:
        raise ConfigurationError(f"unexpected sidecar schema {sidecar.get('schema')!r}")
    for key in ("schedule", "seed", "payoff_matrix"):
        if key not in sidecar:
            raise ConfigurationError(f"trajectory sidecar is missing key {key!r}")
    seed = sidecar["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigurationError(f"trajectory sidecar key 'seed' must be an integer, got {seed!r}")
    try:
        schedule = ScalingSchedule(**sidecar["schedule"])
    except TypeError as err:
        # an unknown or missing field, or a value of the wrong type
        raise ConfigurationError(f"trajectory sidecar key 'schedule': {err}") from None
    return schedule, seed, PayoffMatrix(sidecar["payoff_matrix"])


def import_trajectory(csv_path, sidecar_path):
    """Inverse of :func:`export_trajectory`; returns (Trajectory, PayoffMatrix).

    The CSV must carry the export's header for the sidecar's M, one row per
    grid time with ``t`` equal to ``schedule.times()``, and proportions within
    1e-9 / N of the 1/N lattice.  ConfigurationError names the row of a file
    that is not such an export, DomainError the row of an off-lattice
    proportion or of counts that do not sum to N; rows are numbered from 1
    after the header.
    """
    schedule, seed, matrix = _read_sidecar(sidecar_path)
    n, times = schedule.population, schedule.times()
    header = _trajectory_header(matrix.dimension)
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise ConfigurationError(f"trajectory CSV header is not {','.join(header)}")
        rows = []
        for row, cells in enumerate(reader, 1):
            if len(cells) != len(header):
                raise ConfigurationError(
                    f"trajectory CSV row {row} has {len(cells)} cells, expected {len(header)}"
                )
            try:
                rows.append([float(x) for x in cells])
            except ValueError as err:
                raise ConfigurationError(f"trajectory CSV row {row}: {err}") from None
    if len(rows) != len(times):
        raise ConfigurationError(
            f"trajectory CSV has {len(rows)} rows, its sidecar schedule {len(times)}"
        )
    values = np.array(rows)
    wrong_time = values[:, 0] != times
    if wrong_time.any():
        row = int(np.argmax(wrong_time))
        raise ConfigurationError(
            f"trajectory CSV row {row + 1}: t = {values[row, 0]:.17g}, expected {times[row]:.17g}"
        )
    scaled = values[:, 1:] * n
    counts = np.rint(scaled)
    # written so that nan fails
    off = ~(np.abs(scaled - counts) <= 1e-9)
    if off.any():
        row, col = np.argwhere(off)[0]
        raise DomainError(
            f"trajectory CSV row {row + 1}: {values[row, col + 1]:.17g} is not a multiple of 1/{n}"
        )
    counts = counts.astype(np.int64)
    if np.any(counts < 0):
        row = int(np.argmax((counts < 0).any(axis=1)))
        raise DomainError(f"negative strategy count in trajectory CSV row {row + 1}")
    sums = counts.sum(axis=1)
    if np.any(sums != n):
        row = int(np.argmax(sums != n))
        raise DomainError(f"trajectory CSV row {row + 1} sums to {sums[row]}, expected {n}")
    return Trajectory(schedule=schedule, counts=counts, seed=seed), matrix
