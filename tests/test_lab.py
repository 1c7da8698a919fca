import importlib
import signal
import sys
from dataclasses import replace

import numpy as np
import pytest

from moranfield.engine import (
    DRAW_BLOCK,
    DiscreteState,
    ScalingSchedule,
    exact_drift,
    simulate_counts_batch,
    transition_table,
)
from moranfield.errors import (
    CapacityError,
    ConfigurationError,
    DimensionError,
    DomainError,
    FitnessDegenerateError,
    RegimeError,
    ResolutionError,
    StiffnessError,
)
from moranfield.flow import FlowConfig
from moranfield import lab, transport
from moranfield.lab import (
    InitialLaw,
    TestFunction,
    bootstrap_w1_ci,
    classify_regime,
    convergence_experiment,
    draw_initial_samples,
    quadrature_checkpoints,
    regime_experiment,
    residual_floor,
    run_ensemble,
    standard_test_functions,
    weak_form_residual,
)
from moranfield.report import payload_digest, read_report, write_csv, write_report
from moranfield.simplex import PayoffMatrix, SimplexPoint, replicator_field_array
from moranfield.transport import EmpiricalMeasure, w1_exact

A22 = PayoffMatrix([[1.0, 2.0], [3.0, 4.0]])
flow_module = importlib.import_module("moranfield.flow")  # the package exports flow()
RPS = PayoffMatrix([[0.0, 2.0, 1.0], [1.0, 0.0, 2.0], [2.0, 1.0, 0.0]])
CONST3 = PayoffMatrix(np.full((3, 3), 2.0))


class TestInitialLaw:
    def test_dirac_sampling(self):
        law = InitialLaw.dirac(SimplexPoint([0.2, 0.8]))
        rng = np.random.default_rng(0)
        assert law.sample_one(rng) == pytest.approx([0.2, 0.8])

    def test_dirichlet_sampling(self):
        law = InitialLaw.dirichlet([2.0, 2.0])
        rng = np.random.default_rng(1)
        draws = np.array([law.sample_one(rng) for _ in range(2000)])
        assert draws.sum(axis=1) == pytest.approx(np.ones(2000), abs=1e-12)
        assert draws[:, 0].mean() == pytest.approx(0.5, abs=0.03)

    def test_uniform_sampling(self):
        law = InitialLaw.uniform(3)
        rng = np.random.default_rng(2)
        draws = np.array([law.sample_one(rng) for _ in range(3000)])
        assert draws.mean(axis=0) == pytest.approx(np.full(3, 1 / 3), abs=0.02)

    def test_rejects_bad_concentration(self):
        with pytest.raises(DomainError):
            InitialLaw.dirichlet([1.0, -2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_concentration(self, bad):
        with pytest.raises(DomainError):
            InitialLaw.dirichlet([1.0, bad])

    def test_dict_roundtrip(self):
        for law in (
            InitialLaw.dirac(SimplexPoint([0.4, 0.6])),
            InitialLaw.dirichlet([2.0, 3.0, 1.0]),
            InitialLaw.uniform(4),
        ):
            again = InitialLaw.from_dict(law.to_dict())
            assert again.kind == law.kind and again.dimension == law.dimension

    def test_draws_keyed_by_replica(self):
        law = InitialLaw.dirichlet([2.0, 2.0])
        a = draw_initial_samples(law, 10, master_seed=5)
        b = draw_initial_samples(law, 20, master_seed=5)
        assert np.array_equal(a, b[:10])


class TestRunEnsemble:
    def test_dirac_vertex_stays_singleton(self):
        law = InitialLaw.dirac(SimplexPoint([1.0, 0.0]))
        sched = ScalingSchedule(horizon=1.0, resolution=32, alpha=0.6, beta=0.4)
        res = run_ensemble(law, A22, sched, 16, (0.0, 0.5, 1.0), master_seed=3)
        for t in (0.0, 0.5, 1.0):
            assert np.all(res.affine[t].array == [1.0, 0.0])
            assert np.all(res.constant[t].array == [1.0, 0.0])

    def test_checkpoint_zero_equals_discretized_initial(self):
        law = InitialLaw.dirichlet([2.0, 2.0])
        sched = ScalingSchedule(horizon=1.0, resolution=16, alpha=0.6, beta=0.4)
        res = run_ensemble(law, A22, sched, 32, (0.0,), master_seed=4)
        assert np.array_equal(res.affine[0.0].array, res.initial_discretized.array)

    def test_discretization_rounding_bound(self):
        law = InitialLaw.uniform(3)
        sched = ScalingSchedule(horizon=1.0, resolution=64, alpha=0.6, beta=0.4)
        res = run_ensemble(law, RPS, sched, 64, (0.0,), master_seed=5)
        dist = w1_exact(res.initial_discretized, res.initial)
        assert dist <= np.sqrt(3) / sched.population

    def test_mean_first_step_matches_exact_drift(self):
        # empirical one-step increment vs exact drift averaged over starts
        law = InitialLaw.uniform(3)
        sched = ScalingSchedule(horizon=1.0, resolution=128, alpha=0.6, beta=0.4)
        reps = 256
        res = run_ensemble(law, RPS, sched, reps, (0.0, sched.tau), master_seed=6)
        n = sched.population
        increments = res.constant[sched.tau].array - res.constant[0.0].array
        drifts = np.array(
            [
                exact_drift(
                    DiscreteState(
                        np.rint(row * n).astype(int), n, sched.selection_weight
                    ),
                    RPS,
                )
                for row in res.constant[0.0].array
            ]
        )
        # per-step increment is bounded by sqrt(2)/N, so the mean has
        # componentwise sigma below (sqrt(2)/N)/sqrt(reps)
        sigma = np.sqrt(2) / n / np.sqrt(reps)
        assert np.all(np.abs(increments.mean(axis=0) - drifts.mean(axis=0)) <= 4 * sigma)

    def test_affine_constant_gap_bounded_pathwise(self):
        law = InitialLaw.dirichlet([2.0, 2.0])
        sched = ScalingSchedule(horizon=1.0, resolution=48, alpha=0.6, beta=0.4)
        off_grid = (0.3, 0.71)
        res = run_ensemble(law, A22, sched, 64, off_grid, master_seed=7)
        for t in off_grid:
            gap = w1_exact(res.affine[t], res.constant[t])
            assert gap <= np.sqrt(2) / sched.population + 1e-12

    def test_larger_ensemble_extends_a_smaller_one(self):
        # each replica draws from its own streams, so the first R replicas
        # of a 2R ensemble are the R-replica ensemble at every checkpoint
        law = InitialLaw.dirichlet([2.0, 2.0])
        sched = ScalingSchedule(horizon=1.0, resolution=20, alpha=0.6, beta=0.4)
        checkpoints = (0.0, 0.33, 0.5, 1.0)
        a = run_ensemble(law, A22, sched, 24, checkpoints, master_seed=8)
        b = run_ensemble(law, A22, sched, 48, checkpoints, master_seed=8)
        assert np.array_equal(a.initial.array, b.initial.array[:24])
        for t in checkpoints:
            assert np.array_equal(a.affine[t].array, b.affine[t].array[:24])
            assert np.array_equal(a.constant[t].array, b.constant[t].array[:24])
        assert not np.array_equal(b.constant[1.0].array[:24], b.constant[1.0].array[24:])

    def test_chain_draws_made_block_by_block_match_one_array(self):
        # k spans three kernel blocks of lazily drawn uniforms
        k = 2 * DRAW_BLOCK + 6
        sched = ScalingSchedule(horizon=1.0, resolution=k, alpha=0.6, beta=0.4)
        res = run_ensemble(InitialLaw.uniform(3), RPS, sched, 4, (0.5, 1.0), master_seed=12)
        uniforms = np.array([lab._rng(12, "chain", r).random(k) for r in range(4)])
        counts0 = np.rint(res.initial_discretized.array * sched.population).astype(int)
        paths = simulate_counts_batch(counts0, RPS, sched, uniforms)
        for t, h in ((0.5, k // 2), (1.0, k)):
            assert np.array_equal(res.constant[t].array, paths[:, h] / sched.population)

    def test_rejects_tiny_ensemble(self):
        law = InitialLaw.uniform(2)
        sched = ScalingSchedule(horizon=1.0, resolution=8, alpha=0.6, beta=0.4)
        with pytest.raises(DomainError):
            run_ensemble(law, A22, sched, 1, (1.0,), master_seed=9)

    def test_rejects_dimension_mismatch(self):
        law = InitialLaw.uniform(3)
        sched = ScalingSchedule(horizon=1.0, resolution=8, alpha=0.6, beta=0.4)
        with pytest.raises(ConfigurationError):
            run_ensemble(law, A22, sched, 8, (1.0,), master_seed=10)


class TestConvergenceExperiment:
    def test_regime_preconditions(self):
        law = InitialLaw.uniform(2)
        base = ScalingSchedule(horizon=1.0, resolution=8, alpha=1.0, beta=0.5)
        with pytest.raises(RegimeError):
            convergence_experiment(law, A22, base, [8, 16], 8, (1.0,), 0)
        base = ScalingSchedule(horizon=1.0, resolution=8, alpha=0.4, beta=0.6)
        with pytest.raises(RegimeError, match="critical"):
            convergence_experiment(law, A22, base, [8, 16], 8, (1.0,), 0)

    def test_rejects_non_increasing_resolutions(self):
        law = InitialLaw.uniform(2)
        base = ScalingSchedule(horizon=1.0, resolution=8, alpha=0.6, beta=0.4)
        with pytest.raises(ConfigurationError):
            convergence_experiment(law, A22, base, [16, 16], 8, (1.0,), 0)

    def test_fixed_point_dirac_law_stays_flat(self):
        # chain started at the cyclic interior fixed point: distances stay at
        # the discretization + Monte Carlo floor with no growth in k
        law = InitialLaw.dirac(SimplexPoint([1 / 3, 1 / 3, 1 / 3]))
        base = ScalingSchedule(horizon=1.0, resolution=8, alpha=0.6, beta=0.4)
        report = convergence_experiment(
            law, RPS, base, [32, 128], 64, (0.5, 1.0), master_seed=11
        )
        floors = [np.sqrt(2) * 20 / rec.population for rec in report.resolutions]
        for rec, floor in zip(report.resolutions, floors):
            for c in rec.checkpoints:
                assert c.w1_to_limit <= floor

    def test_constant_matrix_limit_is_initial_law(self):
        law = InitialLaw.uniform(3)
        base = ScalingSchedule(horizon=1.0, resolution=8, alpha=0.6, beta=0.4)
        report = convergence_experiment(
            law, CONST3, base, [16, 64], 48, (1.0,), master_seed=12
        )
        w1s = [rec.checkpoints[0].w1_to_limit for rec in report.resolutions]
        assert w1s[1] < w1s[0]

    def test_dual_bound_below_exact(self):
        law = InitialLaw.dirichlet([2.0, 2.0])
        base = ScalingSchedule(horizon=1.0, resolution=8, alpha=0.6, beta=0.4)
        report = convergence_experiment(
            law, A22, base, [16, 32], 32, (0.5, 1.0), master_seed=13
        )
        for rec in report.resolutions:
            for c in rec.checkpoints:
                assert c.w1_dual_lb <= c.w1_to_limit + 1e-10

    def test_reproducible_payload(self):
        law = InitialLaw.dirichlet([2.0, 2.0])
        base = ScalingSchedule(horizon=1.0, resolution=8, alpha=0.6, beta=0.4)
        args = (law, A22, base, [8, 16], 16, (1.0,), 14)
        r1 = convergence_experiment(*args)
        r2 = convergence_experiment(*args)
        assert r1.payload() == r2.payload()
        assert payload_digest(r1.payload()) == payload_digest(r2.payload())

    def test_json_csv_roundtrip(self, tmp_path):
        law = InitialLaw.uniform(2)
        base = ScalingSchedule(horizon=1.0, resolution=8, alpha=0.6, beta=0.4)
        report = convergence_experiment(law, A22, base, [8], 8, (1.0,), 15)
        jpath = tmp_path / "report.json"
        cpath = tmp_path / "report.csv"
        write_report(jpath, report.payload(), report.wall_clock_seconds)
        write_csv(cpath, *report.table())
        assert read_report(jpath) == report.payload()
        header = cpath.read_text().splitlines()[0]
        assert header == "k,t,w1,ci,w1_bar_gap,n_k,w_k,tau_k"


class TestRegimeExperiment:
    def test_classification(self):
        assert classify_regime(1.0, 0.5) == "frozen"
        assert classify_regime(0.6, 0.4) == "critical"
        assert classify_regime(0.3, 0.3) == "divergent"

    def test_frozen_regime_drift_shrinks(self):
        law = InitialLaw.dirac(SimplexPoint([0.5, 0.5]))
        base = ScalingSchedule(horizon=1.0, resolution=32, alpha=1.0, beta=0.5)
        report = regime_experiment(
            law, A22, base, resolutions=[32, 128], ensemble_size=64, master_seed=16
        )
        assert report.classification == "frozen"
        w1s = [r.w1_start_end for r in report.records]
        assert w1s[1] < w1s[0]
        scales = [r.drift_scale for r in report.records]
        assert scales[1] == pytest.approx((32 / 128) ** 0.5 * scales[0], rel=0.2)

    def test_critical_matches_convergence_setup(self):
        law = InitialLaw.dirichlet([2.0, 2.0])
        base = ScalingSchedule(horizon=1.0, resolution=16, alpha=0.6, beta=0.4)
        report = regime_experiment(
            law, A22, base, resolutions=[16], ensemble_size=16, master_seed=17
        )
        assert report.classification == "critical"
        assert report.records[0].drift_scale == pytest.approx(
            report.records[0].selection_weight
            / (report.records[0].population * report.records[0].tau)
        )

    def test_neutral_scale_is_frozen_with_diffusive_bound(self):
        # w_scale = 0: no drift at all; the start-to-end W1 is bounded by the
        # diffusive scale sqrt(T * tau^(2 alpha - 1)), and the empirical
        # variance matches the accumulated per-step variance from the
        # transition table (martingale variance decomposition)
        law = InitialLaw.dirac(SimplexPoint([0.5, 0.5]))
        alpha, k, reps = 0.8, 32, 600
        sched = ScalingSchedule(
            horizon=1.0, resolution=k, alpha=alpha, beta=0.4, w_scale=0.0
        )
        report = regime_experiment(
            law, A22, sched, resolutions=[k], ensemble_size=reps, master_seed=18
        )
        rec = report.records[0]
        tau = rec.tau
        assert rec.w1_start_end <= np.sqrt(2.0) * np.sqrt(tau ** (2 * alpha - 1))

        n = sched.population
        ens = run_ensemble(law, A22, sched, reps, quadrature_checkpoints(sched), 18)
        # per-count-value one-step variance of lam_1 from the exact table
        var_by_count = np.zeros(n + 1)
        for n1 in range(n + 1):
            table = transition_table(DiscreteState([n1, n - n1], n, 0.0), A22)
            probs = table.flat_probabilities()
            moves = table.outcome_moves()
            delta1 = np.where(moves[:, 0] == 0, 1.0, 0.0) - np.where(
                moves[:, 1] == 0, 1.0, 0.0
            )
            delta1[0] = 0.0
            delta1 /= n
            mean = probs @ delta1
            var_by_count[n1] = probs @ (delta1 - mean) ** 2
        counts_over_time = np.array(
            [np.rint(ens.constant[t].array[:, 0] * n).astype(int) for t in ens.checkpoints]
        )
        accumulated = var_by_count[counts_over_time[:-1]].sum(axis=0).mean()
        final = ens.constant[1.0].array[:, 0]
        empirical = final.var(ddof=1)
        assert empirical == pytest.approx(accumulated, rel=0.3)

    def test_rejects_nonpositive_alpha(self):
        # the base schedule is the one check: alpha = 0 cannot reach the scan
        base = ScalingSchedule(horizon=1.0, resolution=8, alpha=1.0, beta=0.5)
        with pytest.raises(DomainError):
            regime_experiment(
                InitialLaw.uniform(2), A22, replace(base, alpha=0.0), resolutions=[8],
                ensemble_size=8, master_seed=19,
            )

    def test_report_files(self, tmp_path):
        law = InitialLaw.uniform(2)
        base = ScalingSchedule(horizon=1.0, resolution=8, alpha=1.0, beta=0.5)
        report = regime_experiment(
            law, A22, base, resolutions=[8], ensemble_size=8, master_seed=20
        )
        write_report(tmp_path / "r.json", report.payload())
        write_csv(tmp_path / "r.csv", *report.table())
        data = read_report(tmp_path / "r.json")
        assert data["classification"] == "frozen"
        assert (tmp_path / "r.csv").read_text().splitlines()[1].startswith("8,")


class TestTestFunctions:
    def test_family_vanishes_at_horizon(self):
        rng = np.random.default_rng(21)
        for phi in standard_test_functions(3, 1.0):
            pts = rng.dirichlet(np.ones(3), size=10)
            assert phi.value(1.0, pts) == pytest.approx(np.zeros(10), abs=1e-15)

    def test_derivative_check_passes(self):
        rng = np.random.default_rng(22)
        for phi in standard_test_functions(3, 1.0):
            phi.check_derivatives(rng)

    def test_derivative_check_catches_errors(self):
        class Lying(TestFunction):
            def time_derivative(self, t, pts):
                return 0.5 * super().time_derivative(t, pts)

        lying = Lying("liar", 1.0, 2, ((1.0, (1, 0)),))
        with pytest.raises(DomainError):
            lying.check_derivatives(np.random.default_rng(23))
        TestFunction("ok", 1.0, 2, ((1.0, (1, 0)),)).check_derivatives(
            np.random.default_rng(24)
        )


@pytest.fixture(scope="module")
def small_ensemble():
    law = InitialLaw.dirichlet([2.0, 2.0])
    sched = ScalingSchedule(horizon=1.0, resolution=64, alpha=0.6, beta=0.4)
    return run_ensemble(
        law, A22, sched, 128, quadrature_checkpoints(sched), master_seed=25
    )


class TestWeakFormResidual:
    def test_zero_function_gives_zero(self, small_ensemble):
        zero = TestFunction("zero", 1.0, 1, ((0.0, (0, 0)),))
        est = weak_form_residual(small_ensemble, A22, zero)
        assert est.value == 0.0

    def test_time_only_function_gives_zero(self, small_ensemble):
        # phi(t, lam) = T - t: the time integral of -1 cancels the initial term
        ramp = TestFunction("ramp", 1.0, 1, ((1.0, (0, 0)),))
        est = weak_form_residual(small_ensemble, A22, ramp)
        assert est.value <= 1e-12

    def test_needs_enough_nodes(self):
        law = InitialLaw.uniform(2)
        sched = ScalingSchedule(horizon=1.0, resolution=8, alpha=0.6, beta=0.4)
        ens = run_ensemble(law, A22, sched, 8, quadrature_checkpoints(sched), 26)
        phi = standard_test_functions(2, 1.0)[0]
        with pytest.raises(ResolutionError):
            weak_form_residual(ens, A22, phi)

    def test_needs_full_span(self):
        law = InitialLaw.uniform(2)
        sched = ScalingSchedule(horizon=1.0, resolution=64, alpha=0.6, beta=0.4)
        nodes = quadrature_checkpoints(sched)[1:]
        ens = run_ensemble(law, A22, sched, 8, nodes, 27)
        phi = standard_test_functions(2, 1.0)[0]
        with pytest.raises(ConfigurationError):
            weak_form_residual(ens, A22, phi)

    def test_residual_small_at_moderate_resolution(self, small_ensemble):
        phi = standard_test_functions(2, 1.0)[0]
        est = weak_form_residual(small_ensemble, A22, phi)
        assert est.value <= 0.1
        assert est.ci_halfwidth > 0

    def test_floor_uses_exact_flow(self):
        law = InitialLaw.dirichlet([2.0, 2.0])
        sched = ScalingSchedule(horizon=1.0, resolution=64, alpha=0.6, beta=0.4)
        phi = standard_test_functions(2, 1.0)[0]
        (floor,) = residual_floor(
            law, A22, 128, quadrature_checkpoints(sched), 28, [phi],
            FlowConfig(step_size=1 / 256),
        )
        # transported law solves the equation: only quadrature + MC noise left
        assert floor.value <= 0.02

    @pytest.mark.parametrize(
        "cut, error",
        [
            # dropping t = 0, or every node after t = 1/2, biased the floor silently
            (slice(1, None), ConfigurationError),
            (slice(None, 33), ConfigurationError),
            (slice(None, 15), ResolutionError),
        ],
    )
    def test_floor_needs_enough_nodes_over_the_full_span(self, cut, error):
        law = InitialLaw.dirichlet([2.0, 2.0])
        sched = ScalingSchedule(horizon=1.0, resolution=64, alpha=0.6, beta=0.4)
        nodes = quadrature_checkpoints(sched)[cut]
        with pytest.raises(error):
            residual_floor(
                law, A22, 64, nodes, 3, standard_test_functions(2, 1.0), FlowConfig(step_size=1 / 256)
            )

    def test_quadrature_checkpoints_stride(self):
        sched = ScalingSchedule(horizon=1.0, resolution=64, alpha=0.6, beta=0.4)
        nodes = quadrature_checkpoints(sched, stride=4)
        assert len(nodes) == 17
        assert nodes[0] == 0.0 and nodes[-1] == 1.0

    def test_two_resolution_scaling_consistency(self):
        # residuals at k and 4k, after subtracting the Monte Carlo floor,
        # shrink consistently with (1/N_k + w_k) + tau_k^(2 alpha - 1) within
        # a factor of 3; noise-dominated excesses (below the floor) are
        # consistent with any scale and pass vacuously
        law = InitialLaw.dirichlet([2.0, 2.0])
        flow_cfg = FlowConfig(step_size=1 / 512)
        phi = standard_test_functions(2, 1.0)[1]
        excesses, scales = [], []
        for k in (64, 256):
            sched = ScalingSchedule(horizon=1.0, resolution=k, alpha=0.6, beta=0.4)
            nodes = quadrature_checkpoints(sched, stride=1 if k == 64 else 4)
            ens = run_ensemble(law, A22, sched, 256, nodes, master_seed=31)
            est = weak_form_residual(ens, A22, phi)
            (floor,) = residual_floor(law, A22, 256, nodes, 31, [phi], flow_cfg)
            excesses.append(max(est.value - (floor.value + floor.ci_halfwidth), 0.0))
            scales.append(
                (1.0 / sched.population + sched.selection_weight)
                + sched.tau ** (2 * sched.alpha - 1)
            )
        if min(excesses) > 0:
            measured = excesses[0] / excesses[1]
            predicted = scales[0] / scales[1]
            assert predicted / 3 <= measured <= predicted * 3


def _per_node_terms(phi, nodes, dt_points, adv_points, matrix):
    """The weak-form trapezoid integrals node by node, through the public methods."""
    dt_vals = np.empty((len(nodes), len(dt_points[0])))
    adv_vals = np.empty_like(dt_vals)
    for row, t in enumerate(nodes):
        dt_vals[row] = phi.time_derivative(t, dt_points[row])
        grad = phi.gradient(t, adv_points[row])
        field = replicator_field_array(adv_points[row], matrix.entries)
        adv_vals[row] = np.einsum("rm,rm->r", grad, field)
    xs = np.asarray(nodes)
    return np.trapezoid(dt_vals, xs, axis=0), np.trapezoid(adv_vals, xs, axis=0)


class TestWholeArrayResidual:
    """The weak form and its floor as whole-array passes keep every bit."""

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_weak_form_terms_match_the_per_node_loop(self, m):
        # matmul and einsum rows must not depend on how many rows are stacked
        rng = np.random.default_rng(40 + m)
        matrix = PayoffMatrix(rng.uniform(0.0, 4.0, size=(m, m)))
        phis = [
            *standard_test_functions(m, 2.0),
            TestFunction("steep", 2.0, 3, ((0.5, (3,) + (1,) * (m - 1)), (-2.0, (0,) * m))),
        ]
        for r, n in ((2, 16), (3, 17), (64, 33), (129, 16), (256, 65)):
            nodes = list(np.linspace(0.0, 2.0, n))
            dt_points = rng.dirichlet(np.ones(m), size=(n, r))
            adv_points = rng.dirichlet(np.full(m, 0.5), size=(n, r))
            for phi in phis:
                stacked = lab._weak_form_terms(
                    phi, nodes, dt_points.reshape(n * r, m), adv_points.reshape(n * r, m), matrix
                )
                looped = _per_node_terms(phi, nodes, dt_points, adv_points, matrix)
                for got, want in zip(stacked, looped):
                    assert np.array_equal(got, want)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_stacked_floor_pass_matches_two_separate_passes(self, m):
        rng = np.random.default_rng(50 + m)
        matrix = PayoffMatrix(rng.uniform(0.0, 4.0, size=(m, m)))
        nodes = list(np.linspace(0.0, 1.0, 17))
        cfg = FlowConfig(step_size=1 / 64)
        for r in (2, 5, 128):
            sets = [rng.dirichlet(np.ones(m), size=r) for _ in range(2)]
            stacked = lab._limit_measures(EmpiricalMeasure(np.concatenate(sets)), matrix, nodes, cfg)
            apart = [lab._limit_measures(EmpiricalMeasure(x), matrix, nodes, cfg) for x in sets]
            for t in nodes:
                assert np.array_equal(stacked[t].array[:r], apart[0][t].array)
                assert np.array_equal(stacked[t].array[r:], apart[1][t].array)

    @pytest.mark.parametrize("r", [2, 3, 127, 256])
    def test_bootstrap_draws_resamples_in_the_order_of_the_loop(self, r):
        # the reference makes one integers call per resample and term
        rng = np.random.default_rng(60 + r)
        for count in (1, 3):
            terms = [rng.normal(size=r) * 10.0 ** rng.integers(-3, 3) for _ in range(count)]
            loop_rng = np.random.default_rng(r)
            values = np.empty(lab.BOOTSTRAP_RESAMPLES)
            for b in range(lab.BOOTSTRAP_RESAMPLES):
                values[b] = abs(sum(t[loop_rng.integers(0, r, size=r)].mean() for t in terms))
            est = lab._estimate(terms, np.random.default_rng(r), 17)
            assert est.ci_halfwidth == float(1.96 * values.std(ddof=1))
            assert est.value == float(abs(sum(t.mean() for t in terms)))
            assert est.node_count == 17

    def test_floor_stiffness_names_the_set_and_the_replica(self, monkeypatch):
        # a fault in the first step of stacked row 6: floor_adv's replica 2 of 4
        rk4 = flow_module._rk4_step

        def faulty(points, h, entries):
            out = rk4(points, h, entries)
            out[6] *= 1.0 + 1e-6
            return out

        monkeypatch.setattr(flow_module, "_rk4_step", faulty)
        with pytest.raises(StiffnessError, match=r"^floor_adv sample 2: "):
            residual_floor(
                InitialLaw.uniform(2), A22, 4, list(np.linspace(0.0, 1.0, 17)), 0,
                standard_test_functions(2, 1.0), FlowConfig(step_size=1 / 16),
            )


class TestBootstrap:
    def test_ci_positive_and_reasonable(self):
        rng = np.random.default_rng(29)
        mu = EmpiricalMeasure(rng.dirichlet(np.ones(2), size=64))
        nu = EmpiricalMeasure(rng.dirichlet(np.full(2, 4.0), size=64))
        ci = bootstrap_w1_ci(mu, nu, np.random.default_rng(30))
        dist = w1_exact(mu, nu)
        assert 0 < ci < dist

    def test_each_resample_is_the_exact_w1_of_the_resampled_pair(self):
        rng = np.random.default_rng(38)
        mu = EmpiricalMeasure(rng.dirichlet(np.ones(3), size=16))
        nu = EmpiricalMeasure(rng.dirichlet(np.full(3, 4.0), size=16))
        draws = np.random.default_rng(39)
        values = np.array(
            [
                w1_exact(EmpiricalMeasure(mu.array[idx]), EmpiricalMeasure(nu.array[idx]))
                for idx in (draws.integers(0, 16, size=16) for _ in range(12))
            ]
        )
        ci = bootstrap_w1_ci(mu, nu, np.random.default_rng(39), n_resamples=12)
        assert ci == float(1.96 * values.std(ddof=1))

    @pytest.mark.parametrize("n_resamples", [0, 1])
    def test_too_few_resamples_raise(self, n_resamples):
        mu = EmpiricalMeasure(np.random.default_rng(40).dirichlet(np.ones(2), size=8))
        with pytest.raises(DomainError, match="at least 2 resamples"):
            bootstrap_w1_ci(mu, mu, np.random.default_rng(41), n_resamples=n_resamples)

    def test_dimension_mismatch_raises(self):
        rng = np.random.default_rng(42)
        mu = EmpiricalMeasure(rng.dirichlet(np.ones(2), size=8))
        nu = EmpiricalMeasure(rng.dirichlet(np.ones(3), size=8))
        with pytest.raises(DimensionError, match="different dimensions: 2 vs 3"):
            bootstrap_w1_ci(mu, nu, rng)


class TestWorkerPool:
    """Results must not depend on ``jobs``; errors keep their type."""

    @pytest.fixture(autouse=True)
    def time_limit(self):
        # a solve that never returns would otherwise hang the suite
        def expire(signum, frame):
            raise TimeoutError("bootstrap thread test exceeded 120 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(120)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_bootstrap_on_pool_equals_serial(self):
        rng = np.random.default_rng(32)
        mu = EmpiricalMeasure(rng.dirichlet(np.ones(3), size=24))
        nu = EmpiricalMeasure(rng.dirichlet(np.full(3, 4.0), size=24))
        serial = bootstrap_w1_ci(mu, nu, np.random.default_rng(33), n_resamples=40)
        # 40 resamples on 3 threads do not divide evenly; 41 threads outnumber
        # them; a short switch interval makes the threads interleave often
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for jobs in (2, 3, 41):
                threaded = bootstrap_w1_ci(
                    mu, nu, np.random.default_rng(33), n_resamples=40, jobs=jobs
                )
                assert threaded == serial, jobs
        finally:
            sys.setswitchinterval(interval)

    def test_convergence_digest_independent_of_jobs(self):
        law = InitialLaw.dirichlet([2.0, 2.0])
        base = ScalingSchedule(horizon=1.0, resolution=8, alpha=0.6, beta=0.4)
        digests = [
            payload_digest(
                convergence_experiment(
                    law, A22, base, [8, 16], 16, (0.5, 1.0), master_seed=34, jobs=jobs
                ).payload()
            )
            for jobs in (1, 2)
        ]
        assert digests[0] == digests[1]

    def test_regime_payload_independent_of_jobs(self):
        law = InitialLaw.dirichlet([2.0, 2.0, 2.0])
        base = ScalingSchedule(horizon=1.0, resolution=16, alpha=1.0, beta=0.5)
        payloads = [
            regime_experiment(law, RPS, base, [16, 64], 16, 35, jobs=jobs).payload()
            for jobs in (1, 2)
        ]
        assert payloads[0] == payloads[1]

    def test_chain_error_keeps_its_type_beside_a_pool(self):
        # all-zero payoffs at w = 1 leave no positive fitness in the chain
        law = InitialLaw.dirichlet([2.0, 2.0])
        zero = PayoffMatrix(np.zeros((2, 2)))
        base = ScalingSchedule(
            horizon=1.0, resolution=8, alpha=0.6, beta=0.4, w_scale=100.0
        )
        with pytest.raises(FitnessDegenerateError):
            convergence_experiment(law, zero, base, [8], 16, (1.0,), master_seed=36, jobs=2)

    def test_bootstrap_worker_error_keeps_its_type(self, monkeypatch):
        def failing(cost):
            raise CapacityError("solver refused")

        # each solve looks the solver up in transport, so the threads see the patch
        monkeypatch.setattr(transport, "linear_sum_assignment", failing)
        rng = np.random.default_rng(37)
        mu = EmpiricalMeasure(rng.dirichlet(np.ones(2), size=8))
        with pytest.raises(CapacityError):
            bootstrap_w1_ci(mu, mu, rng, n_resamples=4, jobs=2)
