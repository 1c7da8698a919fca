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

import itertools
from bisect import bisect_right
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DimensionError, DomainError, FitnessDegenerateError, RegimeError
from .report import csv_cells, write_csv, write_json
from .simplex import (
    PayoffMatrix,
    SimplexPoint,
    fitness_coefficients,
    payoff_fitness,
    require_chain,
    require_integer,
    require_strategies,
    simplex_rows,
)

#: snap window (relative to the grid step) for treating a query time as a grid node
GRID_SNAP = 1e-9
#: steps of ``uniforms`` the chain kernel reads at a time
DRAW_BLOCK = 1024
#: populations must lie below this: the kernel holds counts as float64, exact below it
MAX_POPULATION = 2**53


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
        n, w = require_chain(population, selection_weight)
        rows = counts[None] if isinstance(counts, np.ndarray) else [counts]
        object.__setattr__(self, "counts", count_rows(rows, n)[0])
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


def count_rows(counts, population) -> np.ndarray:
    """The (R, M) int64 array of R >= 1 rows of M >= 2 strategy counts, read-only.

    DimensionError for any other shape.  DomainError unless ``population`` is
    an integer >= 2, every count an integer >= 0 (a float or a bool is refused,
    as :func:`require_integer` refuses it, and the first bad count is named)
    and every row sums to ``population``.  An array of a signed integer dtype
    is checked whole; other input count by count.  The one count rule, of
    DiscreteState and of a lockstep run's initial rows.
    """
    signed = isinstance(counts, np.ndarray) and counts.dtype.kind == "i"
    # as objects, numpy's integers read as ints and fractions are kept
    arr = counts if signed else np.asarray(counts, dtype=object)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 2:
        raise DimensionError(f"counts must be rows of M >= 2 entries, got shape {arr.shape}")
    n, _ = require_chain(population)
    if signed:
        arr = arr.astype(np.int64)
        if (arr < 0).any():  # refused, and named, by the rule for one count
            require_integer(arr[arr < 0][0].item(), "strategy count", 0)
    else:
        arr = np.array(
            [[require_integer(c, "strategy count", 0) for c in row] for row in arr], dtype=np.int64
        )
    sums = arr.sum(axis=1)
    if (sums != n).any():
        bad = int(np.argmax(sums != n))
        raise DomainError(f"counts {arr[bad].tolist()} sum to {sums[bad]}, expected {n}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class TransitionTable:
    """One-step transition distribution of the chain at a fixed state.

    ``cumulative`` is the normalized cumulative over the 1 + M(M-1) sampled
    outcomes ``[stay, off-diagonal moves row-major]`` (``move(i, j)``, i != j:
    strategy i gains one bearer while j loses one; a self-replacement is a
    stay).  It ends at exactly 1.0.  It is, bit for bit, the cumulative that
    the single-chain walk (``step``, ``simulate``) and a one-replica lockstep
    run invert.  A lockstep run of R >= 2 replicas computes the fitness in
    one matrix product whose rounding depends on R, so its cumulative may
    differ from this one by a few ulp.
    """

    cumulative: np.ndarray
    dimension: int

    @property
    def move_probs(self) -> np.ndarray:
        """(M, M) move probabilities, zero on the diagonal."""
        probs = np.zeros((self.dimension, self.dimension))
        probs[~np.eye(self.dimension, dtype=bool)] = self.flat_probabilities()[1:]
        return probs

    @property
    def stay_prob(self) -> float:
        return float(self.cumulative[0])

    def flat_probabilities(self) -> np.ndarray:
        """Outcome probabilities in the order of ``cumulative``: the widths of
        the kernel's sampling intervals."""
        return np.diff(self.cumulative, prepend=0.0)

    def outcome_moves(self) -> np.ndarray:
        """(gainer, loser) of each outcome of ``cumulative``; the stay's is (-1, -1)."""
        return _outcome_moves(self.dimension)


def _outcome_moves(m: int) -> np.ndarray:
    """(1 + M(M-1), 2) (gainer, loser) of each sampled outcome: row 0 is the
    stay, (-1, -1), then the off-diagonal moves row-major."""
    return np.vstack(([(-1, -1)], np.argwhere(~np.eye(m, dtype=bool))))


def _increment_table(m: int) -> np.ndarray:
    """(M, 1 + M(M-1)) count increment of each outcome of :func:`_outcome_moves`."""
    gainers, losers = _outcome_moves(m)[1:].T
    eye = np.eye(m)
    return np.hstack((np.zeros((m, 1)), eye[:, gainers] - eye[:, losers]))


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
    whole run; it raises FitnessDegenerateError unless every total is > 0, and
    DimensionError unless ``state`` holds as many strategies as ``coeffs``.
    """
    require_strategies(state.shape[0] - 1, coeffs)
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
    coeffs = fitness_coefficients(matrix.entries, state.population, state.selection_weight)
    cum = np.empty(1 + m * (m - 1))
    _cumulative_filler(coeffs, np.append(state.counts, 1.0)[:, None], cum[:, None])()
    cum[-1] = 1.0
    cum.setflags(write=False)
    return TransitionTable(cumulative=cum, dimension=m)


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
    state, cum = np.ones((m + 1, 1)), np.empty((1 + m * (m - 1), 1))
    fill = _cumulative_filler(fitness_coefficients(entries, population, w), state, cum)
    inc, moves = _increment_table(m).T.astype(np.int64), _outcome_moves(m).tolist()
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
    round(n_scale * tau**-alpha))``, finite and below ``MAX_POPULATION``;
    ``selection_weight = min(1, w_scale * tau**beta)``.  Rounding is half-up.
    A power of tau that overflows, or a negative power of a tau of 0, is inf:
    such a population is refused, such a weight is 1.  ``w_scale = 0`` yields
    the neutral chain.
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
        require_integer(self.resolution, "resolution", 1)
        if not 0 < self.alpha < np.inf:
            raise DomainError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0 <= self.beta < np.inf:
            raise DomainError(f"beta must be nonnegative and finite, got {self.beta}")
        require_integer(self.n_floor, "n_floor", 2)
        if not 0 < self.n_scale < np.inf:
            raise DomainError(f"n_scale must be positive and finite, got {self.n_scale}")
        if not 0 <= self.w_scale < np.inf:
            raise DomainError(f"w_scale must be nonnegative and finite, got {self.w_scale}")
        if not self._population() < MAX_POPULATION:
            raise DomainError(
                f"population max(n_floor, n_scale * (horizon / resolution)**-alpha) must lie "
                f"below 2**53, got {self._population():.6g} at resolution {self.resolution}"
            )

    @property
    def tau(self) -> float:
        return self.horizon / self.resolution

    def _tau_power(self, exponent: float) -> float:
        """``tau**exponent``, inf where a float power raises instead: on
        overflow, and for a negative exponent of a tau of 0."""
        try:
            return self.tau**exponent
        except (OverflowError, ZeroDivisionError):
            return np.inf

    def _population(self):
        """The population before its conversion to int; inf when it overflows."""
        return max(self.n_floor, np.floor(self.n_scale * self._tau_power(-self.alpha) + 0.5))

    @property
    def population(self) -> int:
        return int(self._population())

    @property
    def selection_weight(self) -> float:
        if self.w_scale == 0:  # 0 * inf would be nan
            return 0.0
        return min(1.0, self.w_scale * self._tau_power(self.beta))

    @property
    def regime(self) -> str:
        """"frozen" if alpha + beta > 1 (the drift w/(N tau) vanishes), "critical"
        at 1 (within 1e-9), else "divergent"."""
        total = self.alpha + self.beta
        if total > 1.0 + 1e-9:
            return "frozen"
        return "divergent" if total < 1.0 - 1e-9 else "critical"

    @property
    def limit_speed(self) -> float:
        """Speed c = w_scale / n_scale of the replicator flow that the chain law
        converges to (0.0 for the neutral chain: the identity); RegimeError unless
        alpha + beta = 1 with alpha > 1/2."""
        if self.regime != "critical" or self.alpha <= 0.5:
            raise RegimeError(
                f"convergence requires alpha + beta = 1 with alpha > 1/2 (the critical "
                f"threshold below which fluctuations dominate); got alpha={self.alpha}, "
                f"beta={self.beta}; the regime scan measures other exponents"
            )
        return self.w_scale / self.n_scale

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


def largest_remainder_rows(points, population: int) -> np.ndarray:
    """Round R simplex points, the rows :func:`simplex_rows` reads, onto the
    1/N lattice by largest remainder: their (R, M) counts.

    Floors each ``N * lam_i`` and hands each row's remaining units to its
    largest fractional parts, ties broken by lowest index.  The per-coordinate
    error stays below 1/N.  The population is checked by :func:`require_chain`.
    """
    n, _ = require_chain(population)
    scaled = simplex_rows(points) * n
    base = np.floor(scaled).astype(np.int64)
    short = n - base.sum(axis=1)
    order = np.argsort(-(scaled - base), axis=1, kind="stable")
    # the first ``short`` entries of each row's order gain one unit
    base[np.arange(base.shape[0])[:, None], order] += np.arange(base.shape[1]) < short[:, None]
    return base


def largest_remainder_counts(point: SimplexPoint, population: int) -> np.ndarray:
    """:func:`largest_remainder_rows` of the one point ``point``."""
    return largest_remainder_rows(point.coords[None], population)[0]


def simulate(counts0, matrix: PayoffMatrix, schedule: ScalingSchedule, seed: int) -> Trajectory:
    """Run ``schedule.resolution`` sequential steps from the lattice counts
    ``counts0``, which must sum to the schedule's population.

    The RNG stream is PCG64 seeded by ``seed`` alone, so identical seeds give
    identical trajectories.
    """
    n, w = schedule.population, schedule.selection_weight
    counts0 = DiscreteState(counts0, n, w).counts
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))
    # one call for all k draws gives the same values as k scalar draws
    uniforms = rng.random(schedule.resolution)
    counts = _walk(counts0, matrix.entries, n, w, uniforms)
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

    ``counts0`` holds R rows of lattice counts, read by :func:`count_rows`;
    ``uniforms`` has shape (R, k), one draw per replica per step, each in
    [0, 1).  All replicas share the schedule's population and weight.  Each
    step inverts the normalized cumulative of the sampled outcomes, the one
    :func:`transition_table` returns, taking the first outcome whose cumulative
    exceeds u (``searchsorted(side="right")``).  A step is twelve numpy calls
    on arrays of shape (M + 1, R), (M, R) and (1 + M(M-1), R), allocated once
    per run, so every call's inner loop runs over replicas.  ``uniforms`` is
    read once, in order, by :func:`_draw_blocks`, so it may draw each block.

    At R = 1 the path is exactly the walk of :func:`step` and :func:`simulate`
    on the same draws.  For R >= 2 the fitness is one matrix product whose
    rounding depends on R, so a replica's cumulative may differ by a few ulp
    and a draw that close to an outcome boundary may pick the next outcome.
    """
    n, w = schedule.population, schedule.selection_weight
    counts0 = count_rows(counts0, n)
    k = schedule.resolution
    if uniforms.shape != (counts0.shape[0], k):
        raise DimensionError(f"uniforms shape {uniforms.shape} != {(counts0.shape[0], k)}")
    # strictly increasing from above -1 to below k + 1
    if columns is not None and (np.diff(columns, prepend=-1, append=k + 1) <= 0).any():
        raise DomainError(f"columns must be increasing grid indices in [0, {k}], got {columns}")
    r, m = counts0.shape
    slot = {h: j for j, h in enumerate(range(k + 1) if columns is None else columns)}
    inc = _increment_table(m)
    out = np.empty((len(slot), m, r), dtype=np.int64)
    # counts over a row of ones; float counts are exact below 2**53
    state = np.ones((m + 1, r))
    current, delta = state[:m], np.empty((m, r))
    current[...] = counts0.T
    cum = np.empty((1 + m * (m - 1), r))
    fill = _cumulative_filler(fitness_coefficients(matrix.entries, n, w), state, cum)
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
    lam = (state.counts / n)[:, None]
    _, fit = payoff_fitness(lam, matrix.entries, n, state.selection_weight)
    lam_fit = lam * fit
    fbar = np.add.reduce(lam_fit, axis=0)
    if fbar[0] <= 0.0:
        raise FitnessDegenerateError(_DEGENERATE)
    return (lam_fit[:, 0] - lam[:, 0] * fbar[0]) / (n * fbar[0])


# -- trajectory file export -----------------------------------------

def export_trajectory(traj: Trajectory, csv_path, sidecar_path, matrix: PayoffMatrix) -> None:
    """Write grid-point proportions as CSV plus a JSON sidecar.

    The CSV keeps 17 significant digits so proportions (and hence integer
    counts) round-trip bit-exactly; the sidecar holds schedule, seed and
    payoff matrix.  A strategy's proportion takes one of the values j / N
    between its column's smallest and largest count, at most k + 1 of them
    since a step moves a count by at most 1, so each is formatted once; the
    rows go to :func:`write_csv` in blocks of ``DRAW_BLOCK``, each a column
    of times and one column of formatted proportions per strategy.
    """
    n, counts = traj.schedule.population, traj.counts
    lows, highs = counts.min(axis=0), counts.max(axis=0)
    if lows.min() < 0 or highs.max() > n:
        raise DomainError(f"trajectory counts must lie in [0, {n}]")
    texts = [csv_cells(np.arange(lo, hi + 1) / n) for lo, hi in zip(lows, highs)]
    offsets, times = (counts - lows).T, traj.times()
    blocks = (
        [times[a : a + DRAW_BLOCK], *(t[c[a : a + DRAW_BLOCK]] for t, c in zip(texts, offsets))]
        for a in range(0, len(counts), DRAW_BLOCK)
    )
    header = ["t"] + [f"lambda_{i + 1}" for i in range(counts.shape[1])]
    write_csv(csv_path, header, blocks)
    sidecar = {
        "schema": "moranfield-trajectory/v1",
        "schedule": asdict(traj.schedule),
        "seed": traj.seed,
        "payoff_matrix": matrix.to_rows(),
    }
    write_json(sidecar_path, sidecar)

