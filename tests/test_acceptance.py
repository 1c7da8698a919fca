"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
All tolerances are fixed here; the master seed is fixed and documented so
every number is reproducible.
"""

import time

import numpy as np
import pytest

from moranfield.engine import (
    DiscreteState,
    ScalingSchedule,
    exact_drift,
    transition_table,
)
from moranfield.flow import FlowConfig, _rk4_step, flow
from moranfield.lab import (
    InitialLaw,
    convergence_experiment,
    quadrature_checkpoints,
    regime_experiment,
    residual_floor,
    run_ensemble,
    standard_test_functions,
    weak_form_residual,
)
from moranfield.oracles import (
    assignment_gap,
    drift_gap,
    dual_bound_holds,
    metric_axioms_hold,
    rk4_orders,
    transition_gaps,
)
from moranfield.simplex import PayoffMatrix, SimplexPoint

ACCEPTANCE_SEED = 20260810
HEADLINE_MATRIX = PayoffMatrix([[1.0, 2.0], [3.0, 4.0]])
HEADLINE_LAW = InitialLaw.dirichlet([2.0, 2.0])


def report_line(criterion, passed, detail):
    print(f"\n[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def headline_report():
    base = ScalingSchedule(horizon=1.0, resolution=64, alpha=0.6, beta=0.4)
    return convergence_experiment(
        HEADLINE_LAW,
        HEADLINE_MATRIX,
        base,
        [64, 128, 256, 512],
        256,
        (0.25, 0.5, 1.0),
        master_seed=ACCEPTANCE_SEED,
    )


@pytest.fixture(scope="module")
def residual_data():
    flow_cfg = FlowConfig(step_size=1.0 / 1024)
    out = {}
    for k, stride in ((128, 1), (512, 4)):
        schedule = ScalingSchedule(horizon=1.0, resolution=k, alpha=0.6, beta=0.4)
        nodes = quadrature_checkpoints(schedule, stride=stride)
        ensemble = run_ensemble(
            HEADLINE_LAW, HEADLINE_MATRIX, schedule, 256, nodes, ACCEPTANCE_SEED
        )
        phis = standard_test_functions(2, 1.0)
        floors = residual_floor(
            HEADLINE_LAW, HEADLINE_MATRIX, 256, nodes, ACCEPTANCE_SEED, phis, flow_cfg
        )
        for phi, floor in zip(phis, floors):
            est = weak_form_residual(ensemble, HEADLINE_MATRIX, phi)
            out[(k, phi.name)] = (est, floor)
    return out


def test_criterion_1_transition_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    checked, worst_sum, worst_gap = transition_gaps(rng, per_combo=6)
    elapsed = time.perf_counter() - started
    passed = worst_sum <= 1e-12 and worst_gap <= 1e-12 and elapsed < 10.0
    report_line(
        1,
        passed,
        f"{checked} instances; max |sum-1|={worst_sum:.2e}, max oracle gap="
        f"{worst_gap:.2e}, {elapsed:.1f}s",
    )
    assert checked >= 500
    assert worst_sum <= 1e-12
    assert worst_gap <= 1e-12
    assert elapsed < 10.0


def test_criterion_2_drift_consistency():
    started = time.perf_counter()
    rng = np.random.default_rng(ACCEPTANCE_SEED + 1)
    worst = drift_gap(rng, per_combo=6)
    table_ok = worst <= 1e-13

    # empirical one-step drift over 10^5 sampled steps on 20 random states
    n_draws = 100_000
    empirical_ok = True
    for _ in range(20):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(4, 13))
        w = float(rng.choice([0.0, 0.1, 1.0]))
        state = DiscreteState(rng.multinomial(n, np.full(m, 1.0 / m)), n, w)
        mat = PayoffMatrix(rng.random((m, m)) * 6)
        table = transition_table(state, mat)
        cum = table.cumulative
        idx = np.searchsorted(cum, rng.random(n_draws), side="right")
        moves = table.outcome_moves()
        deltas = np.zeros((cum.size, m))
        rows = np.arange(1, cum.size)
        deltas[rows, moves[1:, 0]] += 1.0 / n
        deltas[rows, moves[1:, 1]] -= 1.0 / n
        empirical = deltas[idx].mean(axis=0)
        drift = exact_drift(state, mat)
        probs = table.flat_probabilities()
        second_moment = probs @ deltas**2
        sigma = np.sqrt(np.maximum(second_moment - drift**2, 0.0) / n_draws)
        if np.any(np.abs(empirical - drift) > 4 * sigma + 1e-15):
            empirical_ok = False
    elapsed = time.perf_counter() - started
    passed = table_ok and empirical_ok and elapsed < 30.0
    report_line(
        2,
        passed,
        f"max |drift - table mean|={worst:.2e}; 20-state Monte Carlo within "
        f"4 sigma: {empirical_ok}; {elapsed:.1f}s",
    )
    assert table_ok
    assert empirical_ok
    assert elapsed < 30.0


def test_criterion_3_interpolation_gap(headline_report):
    violations = []
    for rec in headline_report.resolutions:
        bound = np.sqrt(2.0) / rec.population
        for c in rec.checkpoints:
            if c.affine_constant_gap > bound + 2 * c.ci_halfwidth:
                violations.append((rec.k, c.t, c.affine_constant_gap))
    report_line(
        3,
        not violations,
        f"W1(affine, constant) <= sqrt(2)/N_k + 2 CI at all "
        f"{sum(len(r.checkpoints) for r in headline_report.resolutions)} cells; "
        f"violations: {violations}",
    )
    assert not violations


def test_criterion_4_headline_convergence(headline_report):
    by_kt = {
        (rec.k, c.t): c.w1_to_limit
        for rec in headline_report.resolutions
        for c in rec.checkpoints
    }
    ks = [64, 128, 256, 512]
    ts = (0.25, 0.5, 1.0)
    monotone = all(
        by_kt[(kb, t)] <= 1.2 * by_kt[(ka, t)]
        for ka, kb in zip(ks, ks[1:])
        for t in ts
    )
    ratio = by_kt[(512, 1.0)] / by_kt[(64, 1.0)]
    halved = ratio <= 0.5
    runtime_ok = headline_report.wall_clock_seconds < 300.0
    values = "  ".join(
        f"k={k}: " + "/".join(f"{by_kt[(k, t)]:.3f}" for t in ts) for k in ks
    )
    report_line(
        4,
        monotone and halved and runtime_ok,
        f"W1 at t=0.25/0.5/1.0 -> {values}; monotone(20% slack)={monotone}; "
        f"final ratio {ratio:.3f} (need <= 0.5); "
        f"{headline_report.wall_clock_seconds:.0f}s",
    )
    assert monotone, "W1 must be non-increasing in k up to 20% slack"
    assert runtime_ok
    # Unattainable at these scaling exponents: the error decays no faster
    # than tau^(2*alpha - 1) = k^(-0.2), so 8x in k cannot halve the distance
    # (measured ratio ~0.63-0.78 across seeds); the threshold stays as-is.
    assert halved, (
        f"W1(k=512, t=1) = {by_kt[(512, 1.0)]:.4f} is {ratio:.3f} of "
        f"W1(k=64, t=1) = {by_kt[(64, 1.0)]:.4f}; the 0.5 threshold is not "
        f"reachable at alpha=0.6 (error scale k^-0.1..k^-0.2)"
    )


def test_criterion_5_frozen_regime():
    report = regime_experiment(
        HEADLINE_LAW,
        HEADLINE_MATRIX,
        ScalingSchedule(horizon=1.0, resolution=64, alpha=1.0, beta=0.5),
        resolutions=[64, 256, 1024],
        ensemble_size=256,
        master_seed=ACCEPTANCE_SEED,
    )
    w1s = [r.w1_start_end for r in report.records]
    decreasing = all(b < a for a, b in zip(w1s, w1s[1:]))
    final_ok = w1s[-1] <= 0.02
    report_line(
        5,
        decreasing and final_ok and report.classification == "frozen",
        f"classification={report.classification}; W1(start,end) by k: "
        + ", ".join(f"{v:.4f}" for v in w1s)
        + f"; final <= 0.02: {final_ok}",
    )
    assert report.classification == "frozen"
    assert decreasing
    assert final_ok


def test_criterion_6_weak_form_residual(residual_data):
    lines = []
    ok = True
    for phi in standard_test_functions(2, 1.0):
        est128, floor128 = residual_data[(128, phi.name)]
        est512, floor512 = residual_data[(512, phi.name)]
        decreasing = est512.value <= est128.value + est128.ci_halfwidth + est512.ci_halfwidth
        level128 = floor128.value + floor128.ci_halfwidth
        level512 = floor512.value + floor512.ci_halfwidth
        within = est128.value <= 5 * level128 and est512.value <= 5 * level512
        ok = ok and decreasing and within
        lines.append(
            f"{phi.name}: r128={est128.value:.4f} r512={est512.value:.4f} "
            f"floors=({level128:.4f},{level512:.4f}) dec={decreasing} 5x={within}"
        )
    report_line(6, ok, "; ".join(lines))
    assert ok


def test_criterion_7_transport_metric():
    rng = np.random.default_rng(ACCEPTANCE_SEED + 2)
    worst = assignment_gap(rng, 200)
    brute_ok = worst <= 1e-10
    axioms_ok = metric_axioms_hold(rng, 100)
    dual_ok = dual_bound_holds(rng, 50)
    passed = brute_ok and axioms_ok and dual_ok
    report_line(
        7,
        passed,
        f"200 brute-force R=5 instances (max gap {worst:.2e}); metric axioms on "
        f"100 triples: {axioms_ok}; dual bound never above exact: {dual_ok}",
    )
    assert passed


def test_criterion_8_rk4_order():
    p = SimplexPoint([0.35, 0.65])
    t = 1.0
    orders = rk4_orders(p, HEADLINE_MATRIX)
    order_ok = min(orders) >= 3.7

    raw = p.coords[None, :]  # 1024 RK4 steps with no renormalization
    for _ in range(1024):
        raw = _rk4_step(raw, t / 1024, HEADLINE_MATRIX.entries)
    drift = abs(raw.sum() - 1.0) / t
    drift_ok = drift <= 1e-12
    report_line(
        8,
        order_ok and drift_ok,
        f"observed orders {orders[0]:.2f}, {orders[1]:.2f} (need >= 3.7); "
        f"simplex-sum drift {drift:.2e} per unit time (need <= 1e-12)",
    )
    assert order_ok
    assert drift_ok
