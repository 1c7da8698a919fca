"""Experiment harness: ensembles, convergence runs, regime scans, residuals.

Chains and their mean-field limit are compared as laws: an ensemble of R
independent chain replicas gives empirical snapshot measures (affine and
constant interpolation), and the limit measure at each checkpoint is the
replicator-flow pushforward of the same R initial draws.  Sharing the
pre-discretization draws pairs the two sides, so the W1 estimate at t = 0
reflects only the count-lattice rounding.

Every random draw comes from a named stream of :data:`STREAMS`, seeded by
``master_seed`` and a fixed spawn key: each replica owns its initial-draw
and chain streams, and everything runs in the calling process.  Threads
serve only the bootstrap assignment solves, whose resample indices are drawn
here, so results do not depend on the number of threads.

The convergence and regime experiments return their report payload: a dict
of JSON values, written as it is by ``report.write_report``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

import numpy as np

from .engine import (
    ScalingSchedule,
    largest_remainder_rows,
    locate_on_grid,
    simulate_counts_batch,
)
from .errors import ConfigurationError, DomainError, ResolutionError, StiffnessError
from .flow import FlowConfig, default_flow_config, pushforward
from .report import REGIME_SCHEMA, REPORT_SCHEMA
from .simplex import (
    PayoffMatrix,
    SimplexPoint,
    _as_numbers,
    replicator_field_array,
    require_integer,
    require_strategies,
)
from .transport import (
    EmpiricalMeasure,
    _cost_matrix,
    assignment_mean,
    coordinate_witness,
    distance_witness,
    reduced_costs,
    require_exact_sizes,
    w1_dual_lower_bound,
    w1_exact,
)

TEST_FUNCTION_FAMILY_VERSION = "tf-v1"
BOOTSTRAP_RESAMPLES = 200
#: fewest trapezoid nodes of a weak-form residual or its floor
MIN_QUADRATURE_NODES = 16

#: spawn key of each RNG stream under ``master_seed``: the only place a lane
#: number appears.  ``r`` is a replica, ``idx`` a checkpoint index and ``k`` a
#: resolution.  The keys never change, so report digests stay fixed.
STREAMS = {
    "initial": lambda r: (r, 0),
    "chain": lambda r: (r, 1),
    "converge_bootstrap": lambda idx, k: (idx, 2 + k),
    "regimes_bootstrap": lambda k: (k, 2),
    "residual_bootstrap": lambda: (0, 3),
    "floor_bootstrap": lambda: (1, 3),
    "floor_dt": lambda r: (r, 10),
    "floor_adv": lambda r: (r, 11),
    "floor_initial": lambda r: (r, 12),
}


# -- initial laws --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class InitialLaw:
    """Law of the initial proportions: dirac, dirichlet, or uniform-simplex."""

    kind: str
    dimension: int
    point: np.ndarray | None = None
    concentration: np.ndarray | None = None

    @classmethod
    def dirac(cls, point) -> "InitialLaw":
        if not isinstance(point, SimplexPoint):
            point = SimplexPoint(_as_numbers(point, "dirac point"))
        return cls(kind="dirac", dimension=point.dimension, point=point.coords)

    @classmethod
    def dirichlet(cls, concentration) -> "InitialLaw":
        conc = _as_numbers(concentration, "dirichlet concentrations")
        if conc.ndim != 1 or conc.size < 2 or not np.all(np.isfinite(conc) & (conc > 0)):
            raise DomainError(f"dirichlet concentrations must be finite and positive, got {conc!r}")
        return cls(kind="dirichlet", dimension=conc.size, concentration=conc)

    @classmethod
    def uniform(cls, dimension: int) -> "InitialLaw":
        return cls(kind="uniform", dimension=require_integer(dimension, "uniform law dimension", 2))

    def sample_one(self, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "dirac":
            return self.point.copy()
        if self.kind == "dirichlet":
            return rng.dirichlet(self.concentration)
        return rng.dirichlet(np.ones(self.dimension))

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "dimension": self.dimension}
        if self.point is not None:
            out["point"] = [float(x) for x in self.point]
        if self.concentration is not None:
            out["concentration"] = [float(x) for x in self.concentration]
        return out

    @classmethod
    def from_dict(cls, data) -> "InitialLaw":
        """Inverse of :meth:`to_dict`, the config's ``initial_law`` object: a
        ``kind`` and that kind's one field, ``point``, ``concentration`` or
        ``dimension``; every kind may carry ``dimension``, an integer equal to
        the law's.  ConfigurationError names the ``initial_law.<key>`` that is
        missing, unknown or invalid."""
        if not isinstance(data, dict):
            raise ConfigurationError("config key 'initial_law' must be an object")
        makers = {
            "dirac": ("point", cls.dirac),
            "dirichlet": ("concentration", cls.dirichlet),
            "uniform": ("dimension", cls.uniform),
        }
        kind = data.get("kind")
        if not isinstance(kind, str) or kind not in makers:
            raise ConfigurationError(
                f"config key 'initial_law.kind' must be one of {sorted(makers)}, got {kind!r}"
            )
        field, make = makers[kind]
        extra = set(data) - {"kind", "dimension", field}
        if extra:
            raise ConfigurationError(
                f"unknown config key 'initial_law.{min(extra)}' for a {kind} law"
            )
        dimension = data.get("dimension")
        if dimension is not None:
            try:
                # int() reads "3" and 3.0, but would truncate 2.5 and read true as 1
                if isinstance(dimension, bool) or float(dimension) != int(dimension):
                    raise ValueError
            except (TypeError, ValueError, OverflowError):
                msg = f"config key 'initial_law.dimension' must be an integer, got {dimension!r}"
                raise ConfigurationError(msg) from None
            data = {**data, "dimension": int(dimension)}
        try:
            law = make(data[field])
        except KeyError:
            msg = f"config is missing required key 'initial_law.{field}'"
            raise ConfigurationError(msg) from None
        except (TypeError, ValueError) as err:
            raise ConfigurationError(f"invalid config key 'initial_law.{field}': {err}") from err
        if dimension is not None and data["dimension"] != law.dimension:
            raise ConfigurationError(
                f"config key 'initial_law.dimension' ({dimension!r}) does not match "
                f"the {law.dimension} entries of 'initial_law.{field}'"
            )
        return law

    def require_matrix(self, matrix: PayoffMatrix) -> None:
        """ConfigurationError unless this law draws points of ``matrix``'s dimension."""
        if self.dimension != matrix.dimension:
            raise ConfigurationError(
                f"initial law dimension {self.dimension} does not match "
                f"payoff matrix dimension {matrix.dimension}"
            )


def _rng(master_seed: int, stream: str, *index) -> np.random.Generator:
    """Generator of ``stream`` (a key of :data:`STREAMS`) at ``index``."""
    key = tuple(int(i) for i in STREAMS[stream](*index))
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=key)
    return np.random.Generator(np.random.PCG64(seq))


def _draws(law: InitialLaw, master_seed: int, stream: str, replicas) -> np.ndarray:
    """One draw of ``law`` per replica in ``replicas``, each from its own ``stream``."""
    return np.array([law.sample_one(_rng(master_seed, stream, r)) for r in replicas])


def draw_initial_samples(law: InitialLaw, count: int, master_seed: int) -> np.ndarray:
    """Pre-discretization initial draws, one per replica stream."""
    return _draws(law, master_seed, "initial", range(count))


# -- ensembles ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    """Checkpoint snapshot measures of an R-replica chain ensemble."""

    schedule: ScalingSchedule
    ensemble_size: int
    master_seed: int
    checkpoints: tuple
    affine: dict
    constant: dict
    initial: EmpiricalMeasure
    initial_discretized: EmpiricalMeasure


class _ChainUniforms:
    """The kernel's (R, k) ``uniforms``: row r is replica r's ``"chain"`` stream.

    The kernel reads column blocks once and in order, and each block is drawn
    when read, so a run holds R * DRAW_BLOCK draws rather than R * k (33.5 MB
    at R = 128, k = 32 768).
    """

    def __init__(self, master_seed: int, replicas: int, steps: int):
        self.shape = (replicas, steps)
        self._rngs = [_rng(master_seed, "chain", r) for r in range(replicas)]

    def __getitem__(self, key):
        steps = len(range(self.shape[1])[key[1]])
        # (steps, R) in C order is the F-ordered (R, steps) block
        return np.stack([rng.random(steps) for rng in self._rngs], axis=1).T


def run_ensemble(
    law: InitialLaw,
    matrix: PayoffMatrix,
    schedule: ScalingSchedule,
    ensemble_size: int,
    checkpoints,
    master_seed: int,
) -> EnsembleResult:
    """R independent replicas with snapshots through both interpolators.

    Each initial draw is rounded onto the count lattice by largest remainder;
    snapshots are empirical measures over replicas at each checkpoint.  All
    replicas advance in one lockstep kernel call in this process.  Fully
    reproducible from ``master_seed``.  Replica r's draws come from its own
    streams, so a larger ensemble draws the same initial points and uniforms
    for its first replicas as a smaller one.  Their paths agree up to the
    fitness product's rounding, which depends on R (a few ulp in a
    cumulative), so a draw that close to an outcome boundary may move.
    """
    require_integer(ensemble_size, "ensemble size", 2)
    law.require_matrix(matrix)
    checkpoints = tuple(float(t) for t in checkpoints)
    grid = {t: locate_on_grid(t, schedule.horizon, schedule.resolution) for t in checkpoints}
    # the kernel keeps only the grid columns the interpolators read
    columns = sorted(
        {0} | {h for h, _ in grid.values()} | {h + 1 for h, frac in grid.values() if frac > 0}
    )
    n = schedule.population
    lam0 = draw_initial_samples(law, ensemble_size, master_seed)
    counts0 = largest_remainder_rows(lam0, n)
    uniforms = _ChainUniforms(master_seed, ensemble_size, schedule.resolution)
    paths = simulate_counts_batch(counts0, matrix, schedule, uniforms, columns)
    at = {h: j for j, h in enumerate(columns)}

    affine, constant = {}, {}
    for t, (h, frac) in grid.items():
        left = paths[:, at[h]] / n
        if frac == 0.0:
            aff = left
        else:
            aff = left + frac * (paths[:, at[h + 1]] / n - left)
        affine[t] = EmpiricalMeasure(aff)
        constant[t] = EmpiricalMeasure(left)
    return EnsembleResult(
        schedule=schedule,
        ensemble_size=ensemble_size,
        master_seed=int(master_seed),
        checkpoints=checkpoints,
        affine=affine,
        constant=constant,
        initial=EmpiricalMeasure(lam0),
        initial_discretized=EmpiricalMeasure(paths[:, 0] / n),
    )


# -- bootstrap -------------------------------------------------------------


class PairedBootstrap:
    """A paired bootstrap of W1 between equal ensembles, prepared for
    :func:`bootstrap_w1_ci`: the checks, every draw from ``rng`` (one replica
    index array per resample, for both sides), and the costs ``dist`` and their
    ``reduced`` costs with each side's points in ``np.lexsort`` order.  Row b of
    ``rows`` and ``cols`` holds resample b's sorted ranks on each side.  Sizes
    that :func:`require_exact_sizes` refuses are refused before any costs.

    ``mu`` is the assignment's rows and ``nu`` its columns.  W1 and the
    resample index sets are the same either way round, but the solver adds
    one row at a time and its time depends on which side that is: with the
    flow pushforward's samples as rows and a chain law's lattice points as
    columns, the assignment solves of the headline ``converge`` run (M = 2,
    k = 64..512, R = 256, ``--jobs 1``, under cProfile) took 1.61 s instead of
    2.21 s on a 2-vCPU Xeon, and that orientation was faster in each of the 22
    (k, t) cells timed at M = 2 and 3, also where the chain has 247 distinct
    points of 256.  So :func:`convergence_experiment` passes the limit first.
    """

    def __init__(self, mu, nu, rng, n_resamples=BOOTSTRAP_RESAMPLES):
        require_exact_sizes(mu.size, nu.size)
        r = mu.size
        if n_resamples < 2:
            raise DomainError(f"a bootstrap spread needs at least 2 resamples, got {n_resamples}")
        # first coordinate as the primary key: rows in that order solved fastest
        orders = [np.lexsort(m.array.T[::-1]) for m in (mu, nu)]
        self.dist = _cost_matrix(mu, nu).take(orders[0], axis=0).take(orders[1], axis=1)
        self.reduced = reduced_costs(self.dist)
        draws = rng.integers(0, r, size=(n_resamples, r))
        self.rows, self.cols = (np.sort(np.argsort(order)[draws], axis=1) for order in orders)


def bootstrap_w1_ci(prepared: PairedBootstrap, jobs: int = 1) -> float:
    """Paired-bootstrap half-width (1.96 sigma) of ``prepared``, its resamples
    solved on ``jobs`` threads, the calling one included, or on one per
    resample when they are fewer.  Each thread claims one resample at a time
    and each value lands in its draw's slot, so the half-width is
    bit-identical for any ``jobs``.  After a solve fails no resample is
    claimed, and its error is raised with its type once every helper has
    stopped.  Raises DomainError unless ``jobs`` is an integer >= 1."""
    require_integer(jobs, "jobs", 1)
    values = np.empty(len(prepared.rows))
    unclaimed = list(range(values.size))
    errors, lock = [], threading.Lock()

    def solve_claims():
        while True:
            with lock:
                if errors or not unclaimed:
                    return
                b = unclaimed.pop()
            try:
                values[b] = assignment_mean(
                    prepared.dist, prepared.rows[b], prepared.cols[b], prepared.reduced
                )
            except Exception as err:
                errors.append(err)

    helpers = []
    try:
        for _ in range(min(jobs, values.size) - 1):
            helper = threading.Thread(target=solve_claims)
            helper.start()
            helpers.append(helper)
        solve_claims()
    finally:
        with lock:  # an interrupt in this thread leaves the rest unclaimed
            unclaimed.clear()
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]
    return float(1.96 * values.std(ddof=1))


# -- convergence experiment -------------------------------------------------


def _limit_measures(initial, matrix, checkpoints, flow_cfg, speed):
    """Pushforward of the samples at each checkpoint t by the flow to time speed * t."""
    out = {}
    current = initial
    prev_t = 0.0
    for t in sorted(checkpoints):
        current = pushforward(current, matrix, speed * (t - prev_t), flow_cfg)
        out[t] = current
        prev_t = t
    return out


def _distance_witnesses(mu, nu):
    m = mu.dimension
    witnesses = [coordinate_witness(i) for i in range(m)]
    witnesses.append(distance_witness(mu.array.mean(axis=0) / mu.array.mean(axis=0).sum()))
    witnesses.append(distance_witness(nu.array.mean(axis=0) / nu.array.mean(axis=0).sum()))
    return witnesses


def require_sweep(resolutions, checkpoints, ensemble_size: int = 2) -> None:
    """Refuse, before any ensemble runs, ``resolutions`` that do not strictly
    increase, ``checkpoints`` that are empty or repeated, and an
    ``ensemble_size`` the exact solver does not admit; each message names its
    argument, which is also its config key."""
    if any(b <= a for a, b in zip(resolutions, resolutions[1:])):
        raise ConfigurationError(f"resolutions must be strictly increasing, got {resolutions}")
    if not checkpoints:
        raise ConfigurationError("checkpoints must list at least one time")
    if len(set(checkpoints)) < len(checkpoints):
        raise ConfigurationError(f"checkpoints must be distinct, got {list(checkpoints)}")
    require_exact_sizes(ensemble_size, ensemble_size)


def _schedule_fields(schedule: ScalingSchedule) -> dict:
    return {
        "k": schedule.resolution,
        "tau": schedule.tau,
        "population": schedule.population,
        "selection_weight": schedule.selection_weight,
    }


def convergence_experiment(
    law: InitialLaw,
    matrix: PayoffMatrix,
    base: ScalingSchedule,
    resolutions,
    ensemble_size: int,
    checkpoints,
    master_seed: int,
    flow_cfg: FlowConfig | None = None,
    jobs: int = 1,
) -> dict:
    """Compare chain snapshot laws against the flow pushforward across resolutions.

    ``base`` supplies horizon, exponents and prefactors; its resolution field
    is replaced by each entry of ``resolutions``.  The limit is the flow at
    ``base.limit_speed``, which raises RegimeError outside the convergent regime;
    a flow to its last checkpoint beyond the step budget raises DomainError.
    Both are raised before any chain step.  Returns the report payload: per
    resolution and checkpoint, W1 to the limit with its bootstrap half-width.
    """
    speed = base.limit_speed
    require_integer(jobs, "jobs", 1)
    ks, checkpoints = [int(k) for k in resolutions], tuple(float(t) for t in checkpoints)
    require_sweep(ks, checkpoints, ensemble_size)
    flow_cfg = flow_cfg or default_flow_config(base.horizon)
    flow_step = flow_cfg.step(matrix.entries, speed * max(checkpoints))

    records = []
    limits = None
    for k in ks:
        schedule = replace(base, resolution=k)
        ensemble = run_ensemble(law, matrix, schedule, ensemble_size, checkpoints, master_seed)
        if limits is None:
            # initial draws are keyed by (master_seed, replica) only, so
            # the pushforward side is shared by all resolutions
            limits = _limit_measures(ensemble.initial, matrix, checkpoints, flow_cfg, speed)
        rows = []
        for idx, t in enumerate(checkpoints):
            chain, limit = ensemble.affine[t], limits[t]
            rng = _rng(master_seed, "converge_bootstrap", idx, k)
            dual = w1_dual_lower_bound(chain, limit, _distance_witnesses(chain, limit))
            rows.append(
                {
                    "t": t,
                    "w1_to_limit": float(w1_exact(chain, limit)),
                    "ci_halfwidth": bootstrap_w1_ci(PairedBootstrap(limit, chain, rng), jobs),
                    "w1_dual_lb": float(dual),
                    "affine_constant_gap": float(w1_exact(chain, ensemble.constant[t])),
                }
            )
        records.append({**_schedule_fields(schedule), "checkpoints": rows})
    return {
        "schema": REPORT_SCHEMA,
        "alpha": base.alpha,
        "beta": base.beta,
        "horizon": base.horizon,
        "ensemble_size": int(ensemble_size),
        "master_seed": int(master_seed),
        "law": law.to_dict(),
        "payoff_matrix": matrix.to_rows(),
        "flow_step": flow_step,
        "resolutions": records,
    }


def convergence_table(report: dict) -> tuple[list, list]:
    """CSV header and one block of columns of a :func:`convergence_experiment`
    payload for ``report.write_csv``: one row per (resolution, checkpoint)."""
    header = ["k", "t", "w1", "ci", "w1_bar_gap", "n_k", "w_k", "tau_k"]
    rows = [
        [rec["k"], c["t"], c["w1_to_limit"], c["ci_halfwidth"], c["affine_constant_gap"],
         rec["population"], rec["selection_weight"], rec["tau"]]
        for rec in report["resolutions"]
        for c in rec["checkpoints"]
    ]
    return header, [list(zip(*rows))]


# -- regime experiment -------------------------------------------------------


def regime_experiment(
    law: InitialLaw,
    matrix: PayoffMatrix,
    base: ScalingSchedule,
    resolutions,
    ensemble_size: int,
    master_seed: int,
    jobs: int = 1,
) -> dict:
    """Measure the start-to-end drift of the chain law for the exponents of ``base``.

    ``base`` supplies horizon, exponents and prefactors; its resolution field
    is replaced by each entry of ``resolutions``.  Returns the report payload:
    per resolution, the predicted per-unit-time drift magnitude
    ``w_k / (N_k tau_k)`` next to the observed W1 between the laws at t = 0
    and t = horizon.
    """
    require_integer(jobs, "jobs", 1)
    horizon, ks = base.horizon, [int(k) for k in resolutions]
    require_sweep(ks, (0.0, horizon), ensemble_size)
    records = []
    for k in ks:
        schedule = replace(base, resolution=k)
        ensemble = run_ensemble(law, matrix, schedule, ensemble_size, (0.0, horizon), master_seed)
        start, end = ensemble.constant[0.0], ensemble.constant[horizon]
        rng = _rng(master_seed, "regimes_bootstrap", k)
        displacement = float(np.linalg.norm(end.array - start.array, axis=1).mean() / horizon)
        records.append(
            {
                **_schedule_fields(schedule),
                "drift_scale": schedule.selection_weight / (schedule.population * schedule.tau),
                "w1_start_end": float(w1_exact(start, end)),
                "ci_halfwidth": bootstrap_w1_ci(PairedBootstrap(start, end, rng), jobs),
                "mean_displacement_rate": displacement,
            }
        )
    return {
        "schema": REGIME_SCHEMA,
        "alpha": float(base.alpha),
        "beta": float(base.beta),
        "horizon": float(horizon),
        "classification": base.regime,
        "ensemble_size": int(ensemble_size),
        "master_seed": int(master_seed),
        "law": law.to_dict(),
        "payoff_matrix": matrix.to_rows(),
        "records": records,
    }


def regime_table(report: dict) -> tuple[list, list]:
    """CSV header and one block of columns of a :func:`regime_experiment`
    payload for ``report.write_csv``: one row per resolution."""
    header = ["k", "tau_k", "n_k", "w_k", "drift_scale", "w1_start_end", "ci",
              "mean_displacement_rate"]
    keys = ["k", "tau", "population", "selection_weight", "drift_scale", "w1_start_end",
            "ci_halfwidth", "mean_displacement_rate"]
    rows = [[rec[key] for key in keys] for rec in report["records"]]
    return header, [list(zip(*rows))]


# -- test functions and the weak-form residual --------------------------------


@dataclass(frozen=True, eq=False)
class TestFunction:
    """Smooth test function ``phi(t, lam) = window(t) * polynomial(lam)``.

    ``window(t) = (1 - t/horizon)**power`` vanishes at the horizon, and the
    polynomial is a sum of monomials ``coef * prod_i lam_i**e_i`` given as
    ``(coef, exponents)`` pairs.  Time derivative and gradient are exact.
    """

    __test__ = False  # not a pytest class, despite the name

    name: str
    horizon: float
    window_power: int
    monomials: tuple
    version: str = TEST_FUNCTION_FAMILY_VERSION

    def _window(self, t: float) -> float:
        return (1.0 - t / self.horizon) ** self.window_power

    def _window_dt(self, t: float) -> float:
        if self.window_power == 0:
            return 0.0
        return (
            -self.window_power
            / self.horizon
            * (1.0 - t / self.horizon) ** (self.window_power - 1)
        )

    def _poly(self, pts: np.ndarray) -> np.ndarray:
        out = np.zeros(pts.shape[0])
        for coef, exps in self.monomials:
            term = np.full(pts.shape[0], coef)
            for i, e in enumerate(exps):
                if e:
                    term = term * pts[:, i] ** e
            out += term
        return out

    def _poly_grad(self, pts: np.ndarray) -> np.ndarray:
        grad = np.zeros_like(pts)
        for coef, exps in self.monomials:
            for i, e in enumerate(exps):
                if not e:
                    continue
                term = np.full(pts.shape[0], coef * e)
                for j, ej in enumerate(exps):
                    power = ej - 1 if j == i else ej
                    if power:
                        term = term * pts[:, j] ** power
                grad[:, i] += term
        return grad

    def value(self, t: float, pts: np.ndarray) -> np.ndarray:
        return self._window(t) * self._poly(np.atleast_2d(pts))

    def time_derivative(self, t: float, pts: np.ndarray) -> np.ndarray:
        return self._window_dt(t) * self._poly(np.atleast_2d(pts))

    def gradient(self, t: float, pts: np.ndarray) -> np.ndarray:
        return self._window(t) * self._poly_grad(np.atleast_2d(pts))

    def check_derivatives(self, rng: np.random.Generator, samples: int = 20) -> None:
        """Central finite differences must match the exact derivatives (1e-6 relative)."""
        m = len(self.monomials[0][1])
        h = 1e-5
        for _ in range(samples):
            t = float(rng.uniform(0.0 + h, self.horizon - h))
            lam = rng.dirichlet(np.ones(m))[None, :]
            fd_t = (self.value(t + h, lam) - self.value(t - h, lam)) / (2 * h)
            exact_t = self.time_derivative(t, lam)
            scale = max(1.0, abs(float(exact_t[0])))
            if abs(float(fd_t[0] - exact_t[0])) > 1e-6 * scale:
                raise DomainError(f"time derivative of {self.name} fails the check")
            grad = self.gradient(t, lam)[0]
            for i in range(m):
                bumped = lam.copy()
                bumped[0, i] += h
                dipped = lam.copy()
                dipped[0, i] -= h
                fd = (self._poly(bumped) - self._poly(dipped)) / (2 * h) * self._window(t)
                scale = max(1.0, abs(grad[i]))
                if abs(float(fd[0]) - grad[i]) > 1e-6 * scale:
                    raise DomainError(f"gradient of {self.name} fails the check")


def standard_test_functions(dimension: int, horizon: float) -> list[TestFunction]:
    """Fixed, versioned family of three test functions (degrees 1, 2, 3)."""
    first = np.zeros(dimension, dtype=int)
    first[0] = 1
    second = np.zeros(dimension, dtype=int)
    second[0] = 1
    second[1] = 1
    third = np.zeros(dimension, dtype=int)
    third[0] = 2
    third[1] = 1
    return [
        TestFunction("linear_window", horizon, 1, ((1.0, tuple(first)),)),
        TestFunction("bilinear_window2", horizon, 2, ((1.0, tuple(second)),)),
        TestFunction("cubic_window", horizon, 1, ((1.0, tuple(third)),)),
    ]


@dataclass(frozen=True, eq=False)
class ResidualEstimate:
    """Absolute weak-form residual with a bootstrap confidence half-width."""

    value: float
    ci_halfwidth: float
    node_count: int


def quadrature_nodes(checkpoints, phis) -> list:
    """Sorted trapezoid nodes: ResolutionError for fewer than ``MIN_QUADRATURE_NODES``,
    ConfigurationError unless they span ``[0, horizon]`` of every ``phi``."""
    nodes = sorted(float(t) for t in checkpoints)
    if len(nodes) < MIN_QUADRATURE_NODES:
        raise ResolutionError(
            f"time quadrature needs at least {MIN_QUADRATURE_NODES} nodes, got {len(nodes)}"
        )
    if abs(nodes[0]) > 1e-12 or any(abs(nodes[-1] - phi.horizon) > 1e-12 for phi in phis):
        raise ConfigurationError("quadrature nodes must span [0, horizon]")
    return nodes


def _weak_form_terms(phi, nodes, dt_points, adv_points, matrix, speed):
    """Per-replica trapezoid integrals over ``nodes`` of ``d_t phi`` and ``grad phi . c b``,
    where c is the flow's ``speed``.

    ``dt_points`` and ``adv_points`` stack, node by node, the (R, M) samples each
    integrand is averaged over; one pass serves every node, each row scaled by its window.
    """
    r = len(dt_points) // len(nodes)
    window, window_dt = (np.repeat([f(t) for t in nodes], r) for f in (phi._window, phi._window_dt))
    dt_vals = window_dt * phi._poly(dt_points)
    adv_vals = np.einsum(
        "rm,rm->r",
        window[:, None] * phi._poly_grad(adv_points),
        speed * replicator_field_array(adv_points, matrix.entries),
    )
    return tuple(np.trapezoid(v.reshape(len(nodes), r), nodes, axis=0) for v in (dt_vals, adv_vals))


def _estimate(terms, rng: np.random.Generator, node_count: int) -> ResidualEstimate:
    """``|sum of term means|`` and its 1.96-sigma bootstrap half-width (terms resampled apart).

    All resample indices come from one draw, resample-major then term-major: the
    order of one ``rng.integers(0, R, size=R)`` call per resample and term.
    """
    r = len(terms[0])
    idx = rng.integers(0, r, size=(BOOTSTRAP_RESAMPLES, len(terms), r))
    values = abs(sum(term[idx[:, i]].mean(axis=1) for i, term in enumerate(terms)))
    value = float(abs(sum(term.mean() for term in terms)))
    return ResidualEstimate(value, float(1.96 * values.std(ddof=1)), node_count)


def weak_form_residual(
    ensemble: EnsembleResult, matrix: PayoffMatrix, phi: TestFunction
) -> ResidualEstimate:
    """Monte Carlo + trapezoid estimate of the continuity-equation defect.

    Sums the time integral of the affine-law average of ``d_t phi``, the time
    integral of the constant-law average of ``grad phi . c b`` at the limit speed
    c of the ensemble's schedule (RegimeError when it has none), and the initial
    term ``mean phi(0, .)``; for the exact transported law the three cancel.
    The ensemble's checkpoints serve as quadrature nodes and must span
    ``[0, phi.horizon]`` with at least ``MIN_QUADRATURE_NODES`` nodes.
    """
    speed = ensemble.schedule.limit_speed
    require_strategies(ensemble.initial.dimension, matrix.entries)
    nodes = quadrature_nodes(ensemble.checkpoints, [phi])
    dt_points = np.concatenate([ensemble.affine[t].array for t in nodes])
    adv_points = np.concatenate([ensemble.constant[t].array for t in nodes])
    term_dt, term_adv = _weak_form_terms(phi, nodes, dt_points, adv_points, matrix, speed)
    contributions = term_dt + term_adv + phi.value(0.0, ensemble.affine[nodes[0]].array)
    return _estimate([contributions], _rng(ensemble.master_seed, "residual_bootstrap"), len(nodes))


def residual_floor(
    law: InitialLaw,
    matrix: PayoffMatrix,
    ensemble_size: int,
    checkpoints,
    master_seed: int,
    phis,
    flow_cfg: FlowConfig,
    speed: float,
) -> list[ResidualEstimate]:
    """Statistical floor of the residual estimator under the exact dynamics, per ``phi``.

    The three weak-form terms are estimated from three independent replica
    sets transported by the exact flow at ``speed`` (the caller's limit speed c).
    The transported law satisfies the identity exactly, so nothing survives
    except Monte Carlo noise at ensemble size R (plus time quadrature): the
    level below which a measured residual is indistinguishable from zero.  (A
    single shared replica set would telescope pathwise and report only
    quadrature error.)  The replica sets and their flow passes depend only on
    the law, the matrix, the nodes, the seed, ``flow_cfg`` and ``speed``, so they
    are computed once for all of ``phis``, in one pass over both sets stacked:
    every row takes the same RK4 steps, so this gives the bits of two passes.
    """
    nodes = quadrature_nodes(checkpoints, phis)
    replicas = range(ensemble_size)
    sets = {s: _draws(law, master_seed, s, replicas) for s in ("floor_dt", "floor_adv")}
    stacked = EmpiricalMeasure(np.concatenate(list(sets.values())))
    try:
        flowed = _limit_measures(stacked, matrix, nodes, flow_cfg, speed)
    except StiffnessError as err:  # name the set and the replica of the stacked row
        stream = list(sets)[err.sample // ensemble_size]
        raise StiffnessError(err.sample % ensemble_size, err.detail, f"{stream} sample") from err
    # node-major (nodes * R, M) samples of each set, split off the stacked rows
    split = np.stack([flowed[t].array for t in nodes]).reshape(len(nodes), 2, ensemble_size, -1)
    dt_rows, adv_rows = (split[:, s].reshape(len(nodes) * ensemble_size, -1) for s in (0, 1))
    initial = _draws(law, master_seed, "floor_initial", replicas)

    floors = []
    for phi in phis:
        terms = list(_weak_form_terms(phi, nodes, dt_rows, adv_rows, matrix, speed))
        terms.append(phi.value(0.0, initial))
        floors.append(_estimate(terms, _rng(master_seed, "floor_bootstrap"), len(nodes)))
    return floors


def quadrature_checkpoints(schedule: ScalingSchedule, stride: int = 1) -> tuple:
    """Grid times t_h thinned by ``stride`` >= 1 (horizon always included)."""
    require_integer(stride, "quadrature stride", 1)
    times = schedule.times()[::stride]
    if times[-1] != schedule.horizon:
        times = np.append(times, schedule.horizon)
    return tuple(float(t) for t in times)
