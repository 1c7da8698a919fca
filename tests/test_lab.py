import importlib
import signal
import sys
import threading
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranfield.engine import (
    DRAW_BLOCK,
    DiscreteState,
    ScalingSchedule,
    exact_drift,
    largest_remainder_rows,
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
    PairedBootstrap,
    TestFunction,
    bootstrap_w1_ci,
    convergence_experiment,
    convergence_table,
    draw_initial_samples,
    quadrature_checkpoints,
    regime_experiment,
    regime_table,
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

    @pytest.mark.parametrize("dimension", [2.5, 3.0, "3", True, None])
    def test_uniform_rejects_a_dimension_that_is_not_an_integer(self, dimension):
        with pytest.raises(DomainError, match="must be an integer"):
            InitialLaw.uniform(dimension)
        assert InitialLaw.uniform(np.int64(3)).dimension == 3

    def test_rejects_bad_concentration(self):
        with pytest.raises(DomainError):
            InitialLaw.dirichlet([1.0, -2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_concentration(self, bad):
        with pytest.raises(DomainError):
            InitialLaw.dirichlet([1.0, bad])

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

    def test_rejects_repeated_checkpoints_before_any_ensemble(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("an ensemble ran before the checkpoints were checked")

        monkeypatch.setattr(lab, "run_ensemble", unreachable)
        law = InitialLaw.uniform(2)
        base = ScalingSchedule(horizon=1.0, resolution=8, alpha=0.6, beta=0.4)
        with pytest.raises(ConfigurationError, match="checkpoints must be distinct"):
            convergence_experiment(law, A22, base, [8, 16], 8, (0.5, 0.5, 1.0), 0)

    def test_refuses_an_over_budget_flow_before_any_ensemble(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("an ensemble ran before the flow budget was checked")

        monkeypatch.setattr(lab, "run_ensemble", unreachable)
        law = InitialLaw.uniform(2)
        base = ScalingSchedule(horizon=1.0, resolution=8, alpha=0.6, beta=0.4, w_scale=1e8)
        with pytest.raises(DomainError, match="flow steps"):
            convergence_experiment(law, A22, base, [8, 16], 8, (0.5, 1.0), 0)

    def test_fixed_point_dirac_law_stays_flat(self):
        # chain started at the cyclic interior fixed point: distances stay at
        # the discretization + Monte Carlo floor with no growth in k
        law = InitialLaw.dirac(SimplexPoint([1 / 3, 1 / 3, 1 / 3]))
        base = ScalingSchedule(horizon=1.0, resolution=8, alpha=0.6, beta=0.4)
        report = convergence_experiment(
            law, RPS, base, [32, 128], 64, (0.5, 1.0), master_seed=11
        )
        floors = [np.sqrt(2) * 20 / rec["population"] for rec in report["resolutions"]]
        for rec, floor in zip(report["resolutions"], floors):
            for c in rec["checkpoints"]:
                assert c["w1_to_limit"] <= floor

    def test_constant_matrix_limit_is_initial_law(self):
        law = InitialLaw.uniform(3)
        base = ScalingSchedule(horizon=1.0, resolution=8, alpha=0.6, beta=0.4)
        report = convergence_experiment(
            law, CONST3, base, [16, 64], 48, (1.0,), master_seed=12
        )
        w1s = [rec["checkpoints"][0]["w1_to_limit"] for rec in report["resolutions"]]
        assert w1s[1] < w1s[0]

    def test_dual_bound_below_exact(self):
        law = InitialLaw.dirichlet([2.0, 2.0])
        base = ScalingSchedule(horizon=1.0, resolution=8, alpha=0.6, beta=0.4)
        report = convergence_experiment(
            law, A22, base, [16, 32], 32, (0.5, 1.0), master_seed=13
        )
        for rec in report["resolutions"]:
            for c in rec["checkpoints"]:
                assert c["w1_dual_lb"] <= c["w1_to_limit"] + 1e-10

    def test_reproducible_payload(self):
        law = InitialLaw.dirichlet([2.0, 2.0])
        base = ScalingSchedule(horizon=1.0, resolution=8, alpha=0.6, beta=0.4)
        args = (law, A22, base, [8, 16], 16, (1.0,), 14)
        r1 = convergence_experiment(*args)
        r2 = convergence_experiment(*args)
        assert r1 == r2
        assert payload_digest(r1) == payload_digest(r2)

    def test_the_limit_measure_is_the_assignment_rows(self, monkeypatch):
        # the pushforward's samples as rows solve the resamples faster
        limits, calls = [], []
        real_limits, real_bootstrap = lab._limit_measures, lab.PairedBootstrap

        def record_limits(*args):
            limits.append(real_limits(*args))
            return limits[-1]

        def record_bootstrap(mu, nu, rng):
            calls.append((mu, nu))
            return real_bootstrap(mu, nu, rng, n_resamples=2)

        monkeypatch.setattr(lab, "_limit_measures", record_limits)
        monkeypatch.setattr(lab, "PairedBootstrap", record_bootstrap)
        law = InitialLaw.dirichlet([2.0, 2.0])
        base = ScalingSchedule(horizon=1.0, resolution=8, alpha=0.6, beta=0.4)
        convergence_experiment(law, A22, base, [8, 16], 8, (0.5, 1.0), master_seed=16)
        (limit,) = limits
        assert len(calls) == 4
        for (mu, nu), t in zip(calls, [0.5, 1.0, 0.5, 1.0]):
            assert mu is limit[t]
            assert all(nu is not m for m in limit.values())

    def test_json_csv_roundtrip(self, tmp_path):
        law = InitialLaw.uniform(2)
        base = ScalingSchedule(horizon=1.0, resolution=8, alpha=0.6, beta=0.4)
        report = convergence_experiment(law, A22, base, [8], 8, (1.0,), 15)
        jpath = tmp_path / "report.json"
        cpath = tmp_path / "report.csv"
        write_report(jpath, report, 1.5)
        write_csv(cpath, *convergence_table(report))
        assert read_report(jpath) == report
        header = cpath.read_text().splitlines()[0]
        assert header == "k,t,w1,ci,w1_bar_gap,n_k,w_k,tau_k"


@pytest.mark.parametrize(
    "experiment, resolutions, ensemble_size, checkpoints, error, match",
    [
        ("regime", [16, 16, 8], 8, None, ConfigurationError, "resolutions"),
        ("converge", [8, 16], 8, [], ConfigurationError, "checkpoints"),
        ("regime", [16], transport.EXACT_SIZE_CAP + 1, None, CapacityError, "ensemble_size"),
        ("converge", [16], transport.EXACT_SIZE_CAP + 1, (1.0,), CapacityError, "ensemble_size"),
    ],
    ids=["repeated-resolutions", "no-checkpoints", "regime-above-cap", "converge-above-cap"],
)
def test_experiments_refuse_a_bad_sweep_before_any_ensemble(
    monkeypatch, experiment, resolutions, ensemble_size, checkpoints, error, match
):
    def unreachable(*args):
        raise AssertionError("an ensemble ran before the sweep was checked")

    monkeypatch.setattr(lab, "run_ensemble", unreachable)
    law = InitialLaw.uniform(2)
    base = ScalingSchedule(horizon=1.0, resolution=8, alpha=0.6, beta=0.4)
    with pytest.raises(error, match=match):
        if experiment == "regime":
            regime_experiment(law, A22, base, resolutions, ensemble_size, 0)
        else:
            convergence_experiment(law, A22, base, resolutions, ensemble_size, checkpoints, 0)


@pytest.mark.parametrize("caller", ["w1_exact", "PairedBootstrap", "regime", "converge"])
def test_every_exact_solver_caller_refuses_one_capacity_text(monkeypatch, caller):
    def unreachable(*args):
        raise AssertionError("an ensemble ran before the cap was checked")

    monkeypatch.setattr(lab, "run_ensemble", unreachable)
    size = transport.EXACT_SIZE_CAP + 1
    mu = EmpiricalMeasure(np.full((size, 2), 0.5))
    law = InitialLaw.uniform(2)
    base = ScalingSchedule(horizon=1.0, resolution=8, alpha=0.6, beta=0.4)
    calls = {
        "w1_exact": lambda: w1_exact(mu, mu),
        "PairedBootstrap": lambda: PairedBootstrap(mu, mu, np.random.default_rng(48)),
        "regime": lambda: regime_experiment(law, A22, base, [16], size, 0),
        "converge": lambda: convergence_experiment(law, A22, base, [16], size, (1.0,), 0),
    }
    text = f"^ensemble_size {size} exceeds the exact-solver cap {transport.EXACT_SIZE_CAP}$"
    with pytest.raises(CapacityError, match=text) as caught:
        calls[caller]()
    # the command line exits 2 on the ConfigurationError family
    assert isinstance(caught.value, ConfigurationError)


class TestRegimeExperiment:
    def test_frozen_regime_drift_shrinks(self):
        law = InitialLaw.dirac(SimplexPoint([0.5, 0.5]))
        base = ScalingSchedule(horizon=1.0, resolution=32, alpha=1.0, beta=0.5)
        report = regime_experiment(
            law, A22, base, resolutions=[32, 128], ensemble_size=64, master_seed=16
        )
        assert report["classification"] == "frozen"
        w1s = [r["w1_start_end"] for r in report["records"]]
        assert w1s[1] < w1s[0]
        scales = [r["drift_scale"] for r in report["records"]]
        assert scales[1] == pytest.approx((32 / 128) ** 0.5 * scales[0], rel=0.2)

    def test_critical_matches_convergence_setup(self):
        law = InitialLaw.dirichlet([2.0, 2.0])
        base = ScalingSchedule(horizon=1.0, resolution=16, alpha=0.6, beta=0.4)
        report = regime_experiment(
            law, A22, base, resolutions=[16], ensemble_size=16, master_seed=17
        )
        assert report["classification"] == "critical"
        rec = report["records"][0]
        assert rec["drift_scale"] == pytest.approx(
            rec["selection_weight"] / (rec["population"] * rec["tau"])
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
        rec = report["records"][0]
        tau = rec["tau"]
        assert rec["w1_start_end"] <= np.sqrt(2.0) * np.sqrt(tau ** (2 * alpha - 1))

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
        write_report(tmp_path / "r.json", report)
        write_csv(tmp_path / "r.csv", *regime_table(report))
        data = read_report(tmp_path / "r.json")
        assert data == report
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

    def test_mismatched_matrix_raises_dimension_error(self, small_ensemble):
        # numpy's matmul raised a bare ValueError
        phi = standard_test_functions(2, 1.0)[0]
        text = "^2 strategies do not match a payoff matrix of 3$"
        with pytest.raises(DimensionError, match=text):
            weak_form_residual(small_ensemble, RPS, phi)

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
            FlowConfig(step_size=1 / 256), sched.limit_speed,
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
                law, A22, 64, nodes, 3, standard_test_functions(2, 1.0),
                FlowConfig(step_size=1 / 256), sched.limit_speed,
            )

    def test_quadrature_checkpoints_stride(self):
        sched = ScalingSchedule(horizon=1.0, resolution=64, alpha=0.6, beta=0.4)
        nodes = quadrature_checkpoints(sched, stride=4)
        assert len(nodes) == 17
        assert nodes[0] == 0.0 and nodes[-1] == 1.0
        # stride 0 is no slice step; stride -1 would run backwards to a second horizon
        for stride in (0, -1):
            with pytest.raises(DomainError, match="stride must be an integer >= 1"):
                quadrature_checkpoints(sched, stride=stride)

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
            (floor,) = residual_floor(law, A22, 256, nodes, 31, [phi], flow_cfg, 1.0)
            excesses.append(max(est.value - (floor.value + floor.ci_halfwidth), 0.0))
            scales.append(
                (1.0 / sched.population + sched.selection_weight)
                + sched.tau ** (2 * sched.alpha - 1)
            )
        if min(excesses) > 0:
            measured = excesses[0] / excesses[1]
            predicted = scales[0] / scales[1]
            assert predicted / 3 <= measured <= predicted * 3


class TestLimitSpeed:
    """Runs compare the chain with the flow at the schedule's ``limit_speed``
    c = w_scale / n_scale, the limit of its drift per unit time; against any
    other speed neither W1 nor the residual would decay as k grows."""

    LAW = InitialLaw.dirichlet([2.0, 2.0])
    SEED = 20260810

    @pytest.mark.parametrize("scales", [{"n_scale": 4.0}, {"w_scale": 4.0}, {"w_scale": 0.0}])
    def test_w1_to_the_limit_decreases_with_k(self, monkeypatch, scales):
        # only W1 is read, so the bootstrap's 200 solves per k are skipped
        monkeypatch.setattr(lab, "bootstrap_w1_ci", lambda prepared, jobs: 0.0)
        base = ScalingSchedule(1.0, 64, alpha=0.6, beta=0.4, **scales)
        ks = [64, 256, 1024, 4096]
        report = convergence_experiment(self.LAW, A22, base, ks, 256, (1.0,), self.SEED)
        w1 = [rec["checkpoints"][0]["w1_to_limit"] for rec in report["resolutions"]]
        assert all(b < a for a, b in zip(w1, w1[1:])), w1

    def test_residual_falls_below_its_floor(self):
        phi = standard_test_functions(2, 1.0)[0]
        for k, stride in ((128, 1), (512, 4), (2048, 4)):
            sched = ScalingSchedule(1.0, k, alpha=0.6, beta=0.4, n_scale=4.0)
            nodes = quadrature_checkpoints(sched, stride)
            ensemble = run_ensemble(self.LAW, A22, sched, 256, nodes, self.SEED)
            est = weak_form_residual(ensemble, A22, phi)
            (floor,) = residual_floor(
                self.LAW, A22, 256, nodes, self.SEED, [phi], FlowConfig(1 / 1024), sched.limit_speed
            )
            assert est.value < floor.value + floor.ci_halfwidth, (k, est, floor)

    @pytest.mark.parametrize("scales", [{"n_scale": 4.0}, {"n_scale": 0.25}, {"w_scale": 4.0}])
    def test_drift_scale_tends_to_the_limit_speed(self, scales):
        base = ScalingSchedule(1.0, 64, alpha=0.6, beta=0.4, **scales)
        report = regime_experiment(self.LAW, A22, base, [64, 512, 4096], 2, self.SEED)
        # w / (N tau) is c times n_scale * tau**-alpha / N, which N's rounding
        # keeps within 1/(2N) of 1
        for rec in report["records"]:
            bound = 0.5 / rec["population"] + 1e-12
            assert abs(rec["drift_scale"] / base.limit_speed - 1.0) <= bound


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
                dt_rows, adv_rows = dt_points.reshape(n * r, m), adv_points.reshape(n * r, m)
                stacked = lab._weak_form_terms(phi, nodes, dt_rows, adv_rows, matrix, 1.0)
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
            stacked = lab._limit_measures(
                EmpiricalMeasure(np.concatenate(sets)), matrix, nodes, cfg, 1.0
            )
            apart = [
                lab._limit_measures(EmpiricalMeasure(x), matrix, nodes, cfg, 1.0) for x in sets
            ]
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
                standard_test_functions(2, 1.0), FlowConfig(step_size=1 / 16), 1.0,
            )


class TestBootstrap:
    def test_ci_positive_and_reasonable(self):
        rng = np.random.default_rng(29)
        mu = EmpiricalMeasure(rng.dirichlet(np.ones(2), size=64))
        nu = EmpiricalMeasure(rng.dirichlet(np.full(2, 4.0), size=64))
        ci = bootstrap_w1_ci(PairedBootstrap(mu, nu, np.random.default_rng(30)))
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
        ci = bootstrap_w1_ci(PairedBootstrap(mu, nu, np.random.default_rng(39), n_resamples=12))
        assert ci == float(1.96 * values.std(ddof=1))

    @pytest.mark.parametrize("n_resamples", [0, 1])
    def test_too_few_resamples_raise(self, n_resamples):
        mu = EmpiricalMeasure(np.random.default_rng(40).dirichlet(np.ones(2), size=8))
        with pytest.raises(DomainError, match="at least 2 resamples"):
            PairedBootstrap(mu, mu, np.random.default_rng(41), n_resamples=n_resamples)

    def test_dimension_mismatch_raises(self):
        rng = np.random.default_rng(42)
        mu = EmpiricalMeasure(rng.dirichlet(np.ones(2), size=8))
        nu = EmpiricalMeasure(rng.dirichlet(np.ones(3), size=8))
        with pytest.raises(DimensionError, match="different dimensions: 2 vs 3"):
            PairedBootstrap(mu, nu, rng)

    def test_unequal_sizes_raise(self):
        # the exact solver's rule, as in w1_exact: not a configuration error
        rng = np.random.default_rng(47)
        mu = EmpiricalMeasure(rng.dirichlet(np.ones(2), size=3))
        nu = EmpiricalMeasure(rng.dirichlet(np.ones(2), size=4))
        with pytest.raises(DimensionError, match="^exact W1 needs equal sizes, got 3 vs 4$"):
            PairedBootstrap(mu, nu, rng)

    def test_size_above_the_cap_raises_before_any_cost_matrix(self, monkeypatch):
        def unreachable(mu, nu):
            raise AssertionError("cost matrix built above the cap")

        monkeypatch.setattr(lab, "_cost_matrix", unreachable)
        mu = EmpiricalMeasure(np.full((transport.EXACT_SIZE_CAP + 1, 2), 0.5))
        with pytest.raises(CapacityError, match="exceeds the exact-solver cap"):
            PairedBootstrap(mu, mu, np.random.default_rng(45))

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_too_few_jobs_raise(self, jobs):
        mu = EmpiricalMeasure(np.random.default_rng(46).dirichlet(np.ones(2), size=8))
        prepared = PairedBootstrap(mu, mu, np.random.default_rng(47))
        with pytest.raises(DomainError, match="jobs must be an integer >= 1"):
            bootstrap_w1_ci(prepared, jobs)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 4), st.integers(8, 32), st.integers(2, 12), st.integers(0, 2**32))
    def test_either_side_as_rows_gives_the_same_resample_means(self, m, r, n, seed):
        # a chain law on the 1/N lattice, with repeated points, against
        # continuous samples, as in convergence_experiment
        rng = np.random.default_rng(seed)
        lattice = EmpiricalMeasure(largest_remainder_rows(rng.dirichlet(np.ones(m), r), n) / n)
        smooth = EmpiricalMeasure(rng.dirichlet(np.ones(m), r))
        means = []
        for mu, nu in ((smooth, lattice), (lattice, smooth)):
            p = PairedBootstrap(mu, nu, np.random.default_rng(seed), n_resamples=8)
            means.append(
                [
                    transport.assignment_mean(p.dist, rows, cols, p.reduced)
                    for rows, cols in zip(p.rows, p.cols)
                ]
            )
        assert means[0] == pytest.approx(means[1], rel=1e-12)

    def test_warm_and_cold_agree_at_near_zero_w1(self):
        # the initial draws against their lattice rounding at N = 8: W1 is
        # O(1/N) and the rounded points repeat, so the matchings tie often
        base = ScalingSchedule(horizon=1.0, resolution=8, alpha=0.6, beta=0.4)
        ens = run_ensemble(InitialLaw.dirichlet([2.0, 2.0]), A22, base, 96, (1.0,), 48)
        mu, nu = ens.initial, ens.initial_discretized
        assert base.population <= 8 and len(np.unique(nu.array, axis=0)) < 10
        assert w1_exact(mu, nu) <= 1 / base.population
        warm = bootstrap_w1_ci(PairedBootstrap(mu, nu, np.random.default_rng(49), n_resamples=50))
        dist = transport._cost_matrix(mu, nu)
        draws = np.random.default_rng(49)
        cold = np.array(
            [
                transport.assignment_mean(dist[np.ix_(idx, idx)])
                for idx in (draws.integers(0, 96, size=96) for _ in range(50))
            ]
        )
        assert np.isfinite(warm) and warm >= 0
        assert warm == pytest.approx(float(1.96 * cold.std(ddof=1)), rel=1e-12)


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
        serial = bootstrap_w1_ci(PairedBootstrap(mu, nu, np.random.default_rng(33), n_resamples=40))
        # 40 resamples on 3 threads do not divide evenly; 41 threads outnumber
        # them; a short switch interval makes the threads interleave often
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for jobs in (2, 3, 41):
                prepared = PairedBootstrap(mu, nu, np.random.default_rng(33), n_resamples=40)
                assert bootstrap_w1_ci(prepared, jobs) == serial, jobs
        finally:
            sys.setswitchinterval(interval)

    def test_no_more_helpers_than_resamples(self, monkeypatch):
        # a fake Thread counts its starts and never runs, so no real thread is
        # started and the calling thread solves every resample
        starts = []

        class CountingThread:
            def __init__(self, target):
                pass

            def start(self):
                starts.append(self)

            def join(self):
                pass

        rng = np.random.default_rng(32)
        mu = EmpiricalMeasure(rng.dirichlet(np.ones(3), size=24))
        serial = bootstrap_w1_ci(PairedBootstrap(mu, mu, np.random.default_rng(33), n_resamples=40))
        fake = SimpleNamespace(Thread=CountingThread, Lock=threading.Lock)
        monkeypatch.setattr(lab, "threading", fake)
        prepared = PairedBootstrap(mu, mu, np.random.default_rng(33), n_resamples=40)
        assert bootstrap_w1_ci(prepared, jobs=1000) == serial
        assert len(starts) == 39

    @pytest.fixture
    def interleaved(self):
        # a short switch interval makes the helper threads interleave often
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        yield
        sys.setswitchinterval(interval)

    def test_convergence_digest_independent_of_jobs(self, interleaved):
        law = InitialLaw.dirichlet([2.0, 2.0])
        base = ScalingSchedule(horizon=1.0, resolution=8, alpha=0.6, beta=0.4)
        digests = {
            payload_digest(
                convergence_experiment(
                    law, A22, base, [8, 16], 16, (0.5, 1.0), master_seed=34, jobs=jobs
                )
            )
            for jobs in (1, 2, 3, 41)
        }
        assert len(digests) == 1

    def test_regime_payload_independent_of_jobs(self, interleaved):
        law = InitialLaw.dirichlet([2.0, 2.0, 2.0])
        base = ScalingSchedule(horizon=1.0, resolution=16, alpha=1.0, beta=0.5)
        payloads = [
            regime_experiment(law, RPS, base, [16, 64], 16, 35, jobs=jobs)
            for jobs in (1, 2, 3, 41)
        ]
        assert all(payload == payloads[0] for payload in payloads)

    @pytest.mark.parametrize("experiment", ["converge", "regimes"])
    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_checked_before_any_ensemble(self, monkeypatch, experiment, jobs):
        def unreachable(*args):
            raise AssertionError("an ensemble ran before jobs was checked")

        monkeypatch.setattr(lab, "run_ensemble", unreachable)
        law = InitialLaw.dirichlet([2.0, 2.0])
        base = ScalingSchedule(horizon=1.0, resolution=8, alpha=0.6, beta=0.4)
        with pytest.raises(DomainError, match="jobs must be an integer >= 1"):
            if experiment == "converge":
                convergence_experiment(law, A22, base, [8], 16, (1.0,), 36, jobs=jobs)
            else:
                regime_experiment(law, A22, base, [8], 16, 36, jobs=jobs)

    def test_chain_error_keeps_its_type_beside_a_pool(self):
        # all-zero payoffs at w = 1 leave no positive fitness in the chain
        law = InitialLaw.dirichlet([2.0, 2.0])
        zero = PayoffMatrix(np.zeros((2, 2)))
        base = ScalingSchedule(
            horizon=1.0, resolution=8, alpha=0.6, beta=0.4, w_scale=100.0
        )
        with pytest.raises(FitnessDegenerateError):
            convergence_experiment(law, zero, base, [8], 16, (1.0,), master_seed=36, jobs=2)

    def check_failed_solve(self, monkeypatch, failing, jobs):
        """Solves fail in the ``failing`` thread, "calling" or "helper": the
        error keeps its type, no resample is claimed after it, and no thread
        outlives the call."""
        rng = np.random.default_rng(37)
        mu = EmpiricalMeasure(rng.dirichlet(np.ones(2), size=8))
        # the full problem is solved here, before the solver is patched
        prepared = PairedBootstrap(mu, mu, rng, n_resamples=40)
        solve, failed, solves = transport.linear_sum_assignment, threading.Event(), []

        def flaky(cost):
            calling = threading.current_thread() is threading.main_thread()
            solves.append(calling)
            if calling == (failing == "calling"):
                failed.set()
                raise CapacityError("solver refused")
            # the other threads solve only after the failure, so each finishes
            # at most the one resample it had claimed
            assert failed.wait(60)
            return solve(cost)

        # each solve looks the solver up in transport, so the threads see the patch
        monkeypatch.setattr(transport, "linear_sum_assignment", flaky)
        before = set(threading.enumerate())
        with pytest.raises(CapacityError, match="solver refused"):
            bootstrap_w1_ci(prepared, jobs)
        assert set(threading.enumerate()) == before
        assert failed.is_set() and len(solves) <= jobs

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_calling_thread_error_keeps_its_type(self, monkeypatch, jobs):
        self.check_failed_solve(monkeypatch, "calling", jobs)

    def test_bootstrap_worker_error_keeps_its_type(self, monkeypatch):
        # at jobs 1 the calling thread is the only one: no helper to fail
        for jobs in (2, 3):
            self.check_failed_solve(monkeypatch, "helper", jobs)
