import json
from types import SimpleNamespace

import numpy as np
import pytest

from moranfield.engine import (
    DiscreteState,
    ScalingSchedule,
    Trajectory,
    discretize_initial,
    exact_drift,
    export_trajectory,
    import_trajectory,
    largest_remainder_counts,
    simulate,
    simulate_counts_batch,
    step,
    transition_table,
)
from moranfield.errors import (
    ConfigurationError,
    DomainError,
    FitnessDegenerateError,
)
from moranfield import lab
from moranfield.lab import InitialLaw, run_ensemble
from moranfield.simplex import PayoffMatrix, SimplexPoint

A22 = PayoffMatrix([[1.0, 2.0], [3.0, 4.0]])


def brute_force_table(counts, entries, w):
    """Oracle: transition distribution from (replicator, dead) pair probabilities.

    Replication picks strategy i with probability counts_i * f_i / sum_l
    counts_l * f_l; the abandoned strategy j is picked with probability
    counts_j / N, independently.  Pairs with i == j leave the counts fixed.
    """
    counts = np.asarray(counts, dtype=float)
    n = counts.sum()
    m = counts.size
    lam = counts / n
    pay = np.array(
        [
            sum(
                entries[i][j] * ((counts[j] - 1) if j == i else counts[j])
                for j in range(m)
            )
            / (n - 1)
            for i in range(m)
        ]
    )
    fit = (1 - w) + w * pay
    total = float(counts @ fit)
    moves = np.zeros((m, m))
    stay = 0.0
    for i in range(m):
        repl = counts[i] * fit[i] / total
        for j in range(m):
            dead = lam[j]
            if i == j:
                stay += repl * dead
            else:
                moves[i, j] += repl * dead
    return moves, stay


def drift_from_table(state, matrix):
    """Oracle: outcome-weighted mean increment over the transition table."""
    table = transition_table(state, matrix)
    m = state.dimension
    drift = np.zeros(m)
    for i in range(m):
        for j in range(m):
            if i != j:
                delta = np.zeros(m)
                delta[i] += 1.0 / state.population
                delta[j] -= 1.0 / state.population
                drift += table.move_probs[i, j] * delta
    return drift


def random_state(rng, m, n, w):
    counts = rng.multinomial(n, np.full(m, 1.0 / m))
    return DiscreteState(counts, n, w)


class TestDiscreteState:
    def test_valid(self):
        s = DiscreteState([3, 2], 5, 0.5)
        assert s.proportions().coords == pytest.approx([0.6, 0.4])

    def test_rejects_sum_mismatch(self):
        with pytest.raises(DomainError):
            DiscreteState([3, 3], 5, 0.5)

    def test_rejects_negative_count(self):
        with pytest.raises(DomainError):
            DiscreteState([6, -1], 5, 0.5)

    def test_proportions_on_lattice(self):
        s = DiscreteState([1, 3, 4], 8, 0.0)
        assert np.all(np.isin(s.counts, np.arange(9)))


class TestTransitionTable:
    def test_neutral_two_strategy_example(self):
        # w=0, N=4, counts=(2,2): each move 1/4, stay 1/2
        table = transition_table(DiscreteState([2, 2], 4, 0.0), A22)
        assert table.move_probs[0, 1] == pytest.approx(0.25, abs=1e-15)
        assert table.move_probs[1, 0] == pytest.approx(0.25, abs=1e-15)
        assert table.stay_prob == pytest.approx(0.5, abs=1e-15)

    def test_monomorphic_is_absorbing(self):
        table = transition_table(DiscreteState([5, 0, 0], 5, 1.0), PayoffMatrix(np.eye(3) + 1))
        assert table.stay_prob == pytest.approx(1.0, abs=1e-15)
        assert np.all(table.move_probs == 0)

    def test_fully_selected_example(self):
        # counts=(3,2), w=1: f=(1.5,3.25), fbar=2.2 (enumeration oracle)
        table = transition_table(DiscreteState([3, 2], 5, 1.0), A22)
        assert table.move_probs[0, 1] == pytest.approx(0.6 * 1.5 * 0.4 / 2.2, abs=1e-14)
        assert table.move_probs[1, 0] == pytest.approx(0.4 * 3.25 * 0.6 / 2.2, abs=1e-14)
        assert table.stay_prob == pytest.approx(
            (0.36 * 1.5 + 0.16 * 3.25) / 2.2, abs=1e-14
        )
        oracle_moves, oracle_stay = brute_force_table([3, 2], A22.entries, 1.0)
        assert table.move_probs == pytest.approx(oracle_moves, abs=1e-14)
        assert table.stay_prob == pytest.approx(oracle_stay, abs=1e-14)

    def test_normalization_and_brute_force_sweep(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2, 13))
            w = float(rng.choice([0.0, 0.1, 1.0]))
            entries = rng.random((m, m)) * 6
            state = random_state(rng, m, n, w)
            table = transition_table(state, PayoffMatrix(entries))
            total = table.stay_prob + table.move_probs.sum()
            assert total == pytest.approx(1.0, abs=1e-12)
            oracle_moves, oracle_stay = brute_force_table(state.counts, entries, w)
            assert table.move_probs == pytest.approx(oracle_moves, abs=1e-12)
            assert table.stay_prob == pytest.approx(oracle_stay, abs=1e-12)
            empty = state.counts == 0
            assert np.all(table.move_probs[empty, :] == 0)
            assert np.all(table.move_probs[:, empty] == 0)

    def test_degenerate_fitness_raises(self):
        zero = PayoffMatrix(np.zeros((2, 2)))
        with pytest.raises(FitnessDegenerateError):
            transition_table(DiscreteState([3, 2], 5, 1.0), zero)


class TestStep:
    def test_absorbing_state_stays(self):
        rng = np.random.default_rng(0)
        s = DiscreteState([6, 0], 6, 1.0)
        for _ in range(20):
            s2 = step(s, A22, rng)
            assert np.array_equal(s2.counts, s.counts)

    def test_same_seed_same_successor(self):
        s = DiscreteState([3, 2], 5, 0.7)
        a = step(s, A22, np.random.default_rng(42))
        b = step(s, A22, np.random.default_rng(42))
        assert np.array_equal(a.counts, b.counts)

    def test_one_unit_moves(self):
        rng = np.random.default_rng(1)
        s = DiscreteState([2, 2, 4], 8, 0.3)
        mat = PayoffMatrix(np.abs(np.random.default_rng(2).random((3, 3))))
        for _ in range(200):
            s2 = step(s, mat, rng)
            assert np.abs(s2.counts - s.counts).sum() in (0, 2)
            s = s2

    def test_empirical_frequencies_match_table(self):
        # 10^6 inverse-CDF draws through the same cumulative as step()
        s = DiscreteState([3, 4, 5], 12, 0.6)
        mat = PayoffMatrix([[1.0, 2.0, 0.5], [3.0, 0.2, 1.0], [0.7, 1.5, 2.0]])
        table = transition_table(s, mat)
        cum = table.cumulative
        n_draws = 10**6
        u = np.random.default_rng(7).random(n_draws)
        idx = np.searchsorted(cum, u, side="right")
        freqs = np.bincount(idx, minlength=cum.size) / n_draws
        probs = table.flat_probabilities()
        sigma = np.sqrt(probs * (1 - probs) / n_draws)
        assert np.all(np.abs(freqs - probs) <= 4 * sigma + 1e-12)


class TestScalingSchedule:
    def test_power_laws(self):
        sched = ScalingSchedule(horizon=1.0, resolution=64, alpha=0.6, beta=0.4)
        assert sched.tau == pytest.approx(1 / 64)
        assert sched.population == round(64**0.6)
        assert sched.selection_weight == pytest.approx(64**-0.4)

    def test_floor_and_clamp(self):
        sched = ScalingSchedule(horizon=1.0, resolution=2, alpha=0.1, beta=0.1, w_scale=3.0)
        assert sched.population >= 2
        assert sched.selection_weight == 1.0

    def test_neutral_scale(self):
        sched = ScalingSchedule(horizon=1.0, resolution=16, alpha=0.6, beta=0.4, w_scale=0.0)
        assert sched.selection_weight == 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            ScalingSchedule(horizon=1.0, resolution=0, alpha=0.6, beta=0.4)
        with pytest.raises(DomainError):
            ScalingSchedule(horizon=1.0, resolution=4, alpha=-1.0, beta=0.4)
        with pytest.raises(DomainError):
            ScalingSchedule(horizon=1.0, resolution=4, alpha=0.0, beta=0.5)
        with pytest.raises(DomainError):
            ScalingSchedule(horizon=-1.0, resolution=4, alpha=0.6, beta=0.4)

    @pytest.mark.parametrize("field", ["horizon", "alpha", "beta", "n_scale", "w_scale"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_parameters(self, field, bad):
        # a nan w_scale used to give w = min(1, nan) = 1 silently
        values = {"horizon": 1.0, "resolution": 4, "alpha": 0.6, "beta": 0.4, field: bad}
        with pytest.raises(DomainError, match=field):
            ScalingSchedule(**values)


class TestLargestRemainder:
    def test_exact_lattice_point_is_fixed(self):
        counts = largest_remainder_counts(SimplexPoint([0.25, 0.75]), 8)
        assert counts.tolist() == [2, 6]

    def test_tie_break_lowest_index(self):
        counts = largest_remainder_counts(SimplexPoint([0.25, 0.25, 0.5]), 2)
        assert counts.tolist() == [1, 0, 1]

    def test_error_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(2, 50))
            lam = rng.dirichlet(np.ones(m))
            counts = largest_remainder_counts(SimplexPoint(lam), n)
            assert counts.sum() == n
            assert np.all(counts >= 0)
            assert np.max(np.abs(counts / n - lam)) < 1.0 / n


class TestSimulate:
    def test_zero_steps_keeps_initial(self):
        sched = ScalingSchedule(horizon=1.0, resolution=1, alpha=0.6, beta=0.4)
        init = DiscreteState([sched.population, 0], sched.population, sched.selection_weight)
        traj = simulate(init, A22, sched, seed=5)
        assert len(traj.states) == 2
        assert np.array_equal(traj.states[0].counts, init.counts)

    def test_population_mismatch_rejected(self):
        sched = ScalingSchedule(horizon=1.0, resolution=64, alpha=0.6, beta=0.4)
        init = DiscreteState([3, 2], 5, sched.selection_weight)
        if sched.population != 5:
            with pytest.raises(ConfigurationError):
                simulate(init, A22, sched, seed=1)

    def test_reproducible_from_seed(self):
        sched = ScalingSchedule(horizon=1.0, resolution=50, alpha=0.7, beta=0.3)
        init = discretize_initial(SimplexPoint([0.5, 0.5]), sched)
        t1 = simulate(init, A22, sched, seed=99)
        t2 = simulate(init, A22, sched, seed=99)
        assert np.array_equal(t1.counts, t2.counts)

    def test_step_size_bound(self):
        # every increment obeys ||dlam||_2 <= sqrt(2)/N
        sched = ScalingSchedule(horizon=1.0, resolution=200, alpha=0.55, beta=0.45)
        init = discretize_initial(SimplexPoint([0.4, 0.6]), sched)
        traj = simulate(init, A22, sched, seed=3)
        props = traj.counts / sched.population
        jumps = np.linalg.norm(np.diff(props, axis=0), axis=1)
        assert np.max(jumps) <= np.sqrt(2) / sched.population + 1e-15

    def test_neutral_chain_is_martingale(self):
        # E[lam_1(t_h)] constant in h for w = 0, checked over 10^4 replicas
        sched = ScalingSchedule(
            horizon=1.0, resolution=30, alpha=0.6, beta=0.4, w_scale=0.0
        )
        n = sched.population
        reps = 10_000
        counts0 = np.tile(largest_remainder_counts(SimplexPoint([0.5, 0.5]), n), (reps, 1))
        u = np.random.default_rng(17).random((reps, sched.resolution))
        paths = simulate_counts_batch(counts0, A22, sched, u)
        lam1 = paths[:, :, 0] / n
        start = lam1[:, 0].mean()
        # per-step martingale increments have variance <= 1/(2 N^2) each
        sigma_final = np.sqrt(sched.resolution * 0.5) / n / np.sqrt(reps)
        assert np.all(np.abs(lam1.mean(axis=0) - start) <= 4 * sigma_final)

    def test_batch_matches_scalar_streams(self):
        sched = ScalingSchedule(horizon=1.0, resolution=40, alpha=0.6, beta=0.4)
        n, w = sched.population, sched.selection_weight
        rng_master = np.random.SeedSequence(123)
        seeds = [np.random.SeedSequence(123, spawn_key=(r, 1)) for r in range(5)]
        counts0 = np.array([[n - 2, 2]] * 5)
        uniforms = np.array(
            [np.random.Generator(np.random.PCG64(s)).random(sched.resolution) for s in seeds]
        )
        batch = simulate_counts_batch(counts0, A22, sched, uniforms)
        for r, s in enumerate(seeds):
            rng = np.random.Generator(np.random.PCG64(s))
            state = DiscreteState(counts0[r], n, w)
            for h in range(sched.resolution):
                state = step(state, A22, rng)
                assert np.array_equal(batch[r, h + 1], state.counts), (r, h)

    def test_fitness_degenerating_after_the_first_step_raises(self):
        # zero diagonal at w = 1: at [1, 3] fbar = 1/2 and the outcomes are
        # [stay 1/2, move(0, 1) 3/8, move(1, 0) 1/8], so u = 0.9 absorbs the
        # chain at [0, 4], where every fitness is zero
        anti = PayoffMatrix([[0.0, 1.0], [1.0, 0.0]])

        def sched(k):
            return ScalingSchedule(
                horizon=1.0, resolution=k, alpha=1.0, beta=0.0, n_floor=4, n_scale=1e-9
            )

        counts0 = [[1, 3], [1, 3]]
        uniforms = np.array([[0.9, 0.5], [0.1, 0.1]])
        path = simulate_counts_batch(counts0, anti, sched(1), uniforms[:, :1])
        assert path[:, 1].tolist() == [[0, 4], [1, 3]]
        with pytest.raises(FitnessDegenerateError):
            simulate_counts_batch(counts0, anti, sched(2), uniforms)

    def test_boundary_uniform_inverts_like_step(self):
        # a uniform equal to a cumulative boundary takes the outcome to its
        # right (searchsorted side="right"), in the batch kernel as in step
        sched = ScalingSchedule(horizon=1.0, resolution=1, alpha=0.6, beta=0.4, n_scale=6.0)
        mat = PayoffMatrix([[1.0, 2.0, 0.5], [3.0, 0.2, 1.0], [0.7, 1.5, 2.0]])
        state = DiscreteState([1, 2, 3], sched.population, sched.selection_weight)
        cum = transition_table(state, mat).cumulative
        for u in cum[cum < 1.0]:  # random() never returns 1.0
            batch = simulate_counts_batch([state.counts], mat, sched, np.array([[u]]))
            scalar = step(state, mat, SimpleNamespace(random=lambda: u))
            assert np.array_equal(batch[0, 1], scalar.counts), u
        # u on the stay boundary must move, never stay
        batch = simulate_counts_batch([state.counts], mat, sched, np.array([[cum[0]]]))
        assert not np.array_equal(batch[0, 1], state.counts)


class TestInterpolation:
    """``run_ensemble``'s affine and constant snapshots against the grid path
    that the lockstep kernel walks on the same draws."""

    SEED = 21
    OFF_GRID = np.random.default_rng(5).random(100).tolist()

    @pytest.fixture(scope="class")
    def run(self):
        sched = ScalingSchedule(horizon=1.0, resolution=20, alpha=0.6, beta=0.4)
        tau = sched.tau
        checkpoints = (
            *sched.times().tolist(),
            *((h + 0.5) * tau for h in (0, 7, 19)),
            5 * tau - 1e-6,
            *self.OFF_GRID,
        )
        res = run_ensemble(
            InitialLaw.dirichlet([2.0, 2.0]), A22, sched, 4, checkpoints, self.SEED
        )
        uniforms = np.array([lab._rng(self.SEED, "chain", r).random(20) for r in range(4)])
        counts0 = np.rint(res.initial_discretized.array * sched.population).astype(int)
        # (R, k + 1, M) proportions at every grid node
        lam = simulate_counts_batch(counts0, A22, sched, uniforms) / sched.population
        return res, lam

    def test_exact_at_grid_points(self, run):
        res, lam = run
        for h, t in enumerate(res.schedule.times().tolist()):
            assert np.array_equal(res.affine[t].array, lam[:, h])
            assert np.array_equal(res.constant[t].array, lam[:, h])

    def test_midpoint_is_mean(self, run):
        res, lam = run
        for h in (0, 7, 19):
            mid = (h + 0.5) * res.schedule.tau
            expected = 0.5 * (lam[:, h] + lam[:, h + 1])
            assert res.affine[mid].array == pytest.approx(expected, abs=1e-15)

    def test_affine_output_is_simplex_point(self, run):
        res, _ = run
        for t in self.OFF_GRID:
            assert np.all(np.abs(res.affine[t].array.sum(axis=1) - 1.0) <= 1e-12)

    def test_constant_left_limit(self, run):
        res, lam = run
        just_below = 5 * res.schedule.tau - 1e-6
        assert np.array_equal(res.constant[just_below].array, lam[:, 4])

    def test_horizon_boundary(self, run):
        res, lam = run
        assert np.array_equal(res.affine[1.0].array, lam[:, -1])
        assert np.array_equal(res.constant[1.0].array, lam[:, -1])

    def test_out_of_range_rejected(self, run):
        res, _ = run
        law = InitialLaw.dirichlet([2.0, 2.0])
        for t in (1.5, -0.1):
            with pytest.raises(DomainError):
                run_ensemble(law, A22, res.schedule, 4, (t,), self.SEED)


class TestExactDrift:
    def test_neutral_drift_is_zero(self):
        drift = exact_drift(DiscreteState([3, 5], 8, 0.0), A22)
        assert drift == pytest.approx([0.0, 0.0], abs=1e-16)

    def test_monomorphic_drift_is_zero(self):
        drift = exact_drift(DiscreteState([0, 8], 8, 1.0), A22)
        assert drift == pytest.approx([0.0, 0.0], abs=1e-16)

    def test_fully_selected_example(self):
        # brute force over table outcomes: (1/(5*2.2)) * 0.6 * (1.5 - 2.2)
        state = DiscreteState([3, 2], 5, 1.0)
        expected = drift_from_table(state, A22)
        assert expected[0] == pytest.approx(0.6 * (1.5 - 2.2) / 11.0, abs=1e-15)
        drift = exact_drift(state, A22)
        assert drift == pytest.approx(expected, abs=1e-13)

    def test_matches_table_mean_sweep(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2, 13))
            w = float(rng.choice([0.0, 0.1, 1.0]))
            state = random_state(rng, m, n, w)
            mat = PayoffMatrix(rng.random((m, m)) * 6)
            assert exact_drift(state, mat) == pytest.approx(
                drift_from_table(state, mat), abs=1e-13
            )

    def test_weak_selection_expansion(self):
        # || N*drift - w*b/fbar || <= C*w/N with C calibrated on full M=2 grids
        from moranfield.simplex import payoff_fitness, replicator_field

        def remainder_scale(state, mat):
            lam = state.proportions().coords
            _, fit = payoff_fitness(
                lam[:, None], mat.entries, state.population, state.selection_weight
            )
            b = replicator_field(state.proportions(), mat)
            gap = state.population * exact_drift(state, mat) - (
                state.selection_weight * b / (lam @ fit[:, 0])
            )
            return np.linalg.norm(gap) * state.population / state.selection_weight

        rng = np.random.default_rng(23)
        mat = PayoffMatrix(rng.random((2, 2)) * 5)
        c_est = 0.0
        for n in (10, 100):
            for w in (0.1, 0.25, 0.5):
                for n1 in range(n + 1):
                    c_est = max(c_est, remainder_scale(DiscreteState([n1, n - n1], n, w), mat))
        # N/(N-1) worst case at N=3 vs N=10 is < 1.4x; allow 2x margin
        for _ in range(200):
            n = int(rng.integers(3, 200))
            w = float(rng.uniform(0.01, 0.5))
            state = random_state(rng, 2, n, w)
            assert remainder_scale(state, mat) <= 2.0 * c_est


M4 = PayoffMatrix([[1.0, 2.0, 3.0, 4.0], [2.0, 3.0, 4.0, 1.0], [3.0, 4.0, 1.0, 2.0],
                   [4.0, 1.0, 2.0, 3.0]])


def _set_cell(row, col, value):
    """CSV text edit: data row ``row`` (from 1), cell ``col`` (0 = t) set to ``value``."""

    def edit(text):
        lines = text.split("\r\n")
        cells = lines[row].split(",")
        cells[col] = value
        lines[row] = ",".join(cells)
        return "\r\n".join(lines)

    return edit


def _all_times_nine(text):
    lines = text.split("\r\n")
    return "\r\n".join([lines[0]] + ["9" + line[line.index(","):] for line in lines[1:-1]] + [""])


def _sidecar_edit(**changes):
    """Sidecar text edit: set each key to its value, or drop it when the value is None."""

    def edit(text):
        doc = json.loads(text)
        for key, value in changes.items():
            if value is None:
                del doc[key]
            else:
                doc[key] = value
        return json.dumps(doc)

    return edit


def _unknown_schedule_key(text):
    doc = json.loads(text)
    doc["schedule"]["bogus"] = 1
    return json.dumps(doc)


# (file, edit, error, message) on a k = 4, N = 2, M = 4 export whose every row
# is [1, 1, 0, 0]: 0.4 is a cell of 0.5 moved off the lattice
BAD_TRAJECTORY_FILES = {
    "empty csv": ("csv", lambda text: "", ConfigurationError, "header"),
    "foreign header": ("csv", lambda text: "x,y,z\r\n", ConfigurationError, "header"),
    "text cell": ("csv", _set_cell(2, 1, "abc"), ConfigurationError, "row 2"),
    "nan cell": ("csv", _set_cell(2, 1, "nan"), DomainError, "row 2"),
    "off-lattice cell": ("csv", _set_cell(2, 1, "0.4"), DomainError, "row 2.*1/2"),
    "wrong times": ("csv", _all_times_nine, ConfigurationError, "row 1: t = 9, expected 0"),
    "invalid sidecar json": ("json", lambda text: text[:-3], ConfigurationError, "JSON"),
    "no seed": ("json", _sidecar_edit(seed=None), ConfigurationError, "'seed'"),
    "text seed": ("json", _sidecar_edit(seed="abc"), ConfigurationError, "'seed'"),
    "no schedule": ("json", _sidecar_edit(schedule=None), ConfigurationError, "'schedule'"),
    "unknown schedule key": ("json", _unknown_schedule_key, ConfigurationError, "bogus"),
    "no payoff matrix": (
        "json", _sidecar_edit(payoff_matrix=None), ConfigurationError, "'payoff_matrix'"
    ),
    "matrix of another M": (
        "json", _sidecar_edit(payoff_matrix=A22.to_rows()), ConfigurationError, "header"
    ),
}


class TestTrajectoryFiles:
    def test_roundtrip_bit_exact(self, tmp_path):
        sched = ScalingSchedule(horizon=1.0, resolution=25, alpha=0.6, beta=0.4)
        init = discretize_initial(SimplexPoint([0.3, 0.7]), sched)
        traj = simulate(init, A22, sched, seed=2**63 - 1)
        csv_path = tmp_path / "traj.csv"
        json_path = tmp_path / "traj.json"
        export_trajectory(traj, csv_path, json_path, A22)
        loaded, mat = import_trajectory(csv_path, json_path)
        assert loaded.seed == traj.seed
        assert np.array_equal(loaded.counts, traj.counts)
        assert np.array_equal(mat.entries, A22.entries)

    def test_csv_header(self, tmp_path):
        sched = ScalingSchedule(horizon=1.0, resolution=4, alpha=0.6, beta=0.4)
        init = discretize_initial(SimplexPoint([0.5, 0.5]), sched)
        traj = simulate(init, A22, sched, seed=0)
        csv_path = tmp_path / "t.csv"
        export_trajectory(traj, csv_path, tmp_path / "t.json", A22)
        header = csv_path.read_text().splitlines()[0]
        assert header == "t,lambda_1,lambda_2"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", BAD_TRAJECTORY_FILES)
    def test_import_rejects_a_bad_file(self, tmp_path, case):
        target, edit, error, message = BAD_TRAJECTORY_FILES[case]
        sched = ScalingSchedule(
            horizon=1.0, resolution=4, alpha=1.0, beta=0.0, n_floor=2, n_scale=1e-9
        )
        traj = Trajectory(schedule=sched, counts=np.tile([1, 1, 0, 0], (5, 1)), seed=0)
        paths = {"csv": tmp_path / "t.csv", "json": tmp_path / "t.json"}
        export_trajectory(traj, paths["csv"], paths["json"], M4)
        import_trajectory(paths["csv"], paths["json"])
        text = paths[target].read_bytes().decode()
        paths[target].write_bytes(edit(text).encode())
        with pytest.raises(error, match=message):
            import_trajectory(paths["csv"], paths["json"])

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_export_rejects_counts_off_the_lattice(self, tmp_path, bad):
        # the export looks each count up among the N + 1 formatted proportions
        sched = ScalingSchedule(
            horizon=1.0, resolution=1, alpha=1.0, beta=0.0, n_floor=5, n_scale=1e-9
        )
        traj = Trajectory(schedule=sched, counts=np.array([[2, 3], [bad, 5 - bad]]), seed=0)
        with pytest.raises(DomainError, match=r"\[0, 5\]"):
            export_trajectory(traj, tmp_path / "t.csv", tmp_path / "t.json", A22)
