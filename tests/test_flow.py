import importlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from moranfield.errors import DimensionError, DomainError, StiffnessError
from moranfield.flow import (
    RENORM_TOL,
    STEP_BOUND,
    FlowConfig,
    _advance,
    _rk4_step,
    default_flow_config,
    flow,
    max_step,
    pushforward,
)
from moranfield.oracles import rk4_orders
from moranfield.simplex import PayoffMatrix, SimplexPoint, replicator_field_array
from moranfield.transport import EmpiricalMeasure

flow_module = importlib.import_module("moranfield.flow")  # the package exports flow()
A22 = PayoffMatrix([[1.0, 2.0], [3.0, 4.0]])
RPS = PayoffMatrix([[0.0, 2.0, 1.0], [1.0, 0.0, 2.0], [2.0, 1.0, 0.0]])
CFG = FlowConfig(step_size=1.0 / 1024)


def logistic_solution(x0, t):
    """Closed-form flow for A22: dx/dt = -2 x (1 - x) with x = lam_1."""
    decayed = x0 * np.exp(-2.0 * t)
    return decayed / (1.0 - x0 + decayed)


class TestFlow:
    def test_constant_matrix_is_identity(self):
        mat = PayoffMatrix(np.full((3, 3), 2.0))
        p = SimplexPoint([0.2, 0.3, 0.5])
        out = flow(p, mat, 2.5, FlowConfig(step_size=0.01))
        assert out.coords == pytest.approx(p.coords, abs=1e-13)

    def test_vertex_is_fixed(self):
        out = flow(SimplexPoint([0.0, 1.0]), A22, 1.0, CFG)
        assert out.coords == pytest.approx([0.0, 1.0], abs=1e-13)

    def test_cyclic_barycenter_is_fixed(self):
        p = SimplexPoint([1 / 3, 1 / 3, 1 / 3])
        out = flow(p, RPS, 3.0, CFG)
        assert out.coords == pytest.approx(p.coords, abs=1e-12)

    def test_matches_closed_form_logistic(self):
        for x0 in (0.1, 0.5, 0.9):
            out = flow(SimplexPoint([x0, 1 - x0]), A22, 1.0, CFG)
            assert out.coords[0] == pytest.approx(logistic_solution(x0, 1.0), abs=1e-10)

    def test_rejects_negative_time(self):
        with pytest.raises(DomainError):
            flow(SimplexPoint([0.5, 0.5]), A22, -1.0, CFG)

    def test_order_four_convergence(self):
        # error vs a reference at dt/64 scales as dt^4 within a factor of 4
        p = SimplexPoint([0.35, 0.65])
        t = 1.0
        ref = flow(p, A22, t, FlowConfig(step_size=(t / 32) / 64)).coords
        errs = []
        for denom in (8, 16, 32):
            out = flow(p, A22, t, FlowConfig(step_size=t / denom)).coords
            errs.append(np.linalg.norm(out - ref))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.7
        for i, denom in enumerate((8, 16)):
            ratio = errs[i] / errs[i + 1]
            assert 16 / 4 <= ratio <= 16 * 4

    def test_semigroup(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            lam = SimplexPoint(rng.dirichlet(np.ones(3)))
            s, t = rng.random() * 0.8, rng.random() * 0.8
            two_leg = flow(flow(lam, RPS, s, CFG), RPS, t, CFG)
            one_leg = flow(lam, RPS, s + t, CFG)
            assert two_leg.coords == pytest.approx(one_leg.coords, abs=1e-9)

    def test_interior_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            lam = SimplexPoint(rng.dirichlet(np.full(3, 2.0)))
            out = flow(lam, RPS, 1.0, CFG)
            assert out.coords.min() > 0

    def test_sum_drift_without_renormalization(self):
        points = np.array([[0.4, 0.6]])
        for _ in range(1024):
            points = _rk4_step(points, 1.0 / 1024, A22.entries)
        assert abs(points.sum() - 1.0) <= 1e-12

    def test_rk4_stage_sums_stay_on_hyperplane(self):
        # recompute the scheme's stages at random states: each stage point
        # keeps coordinate sum 1 within 1e-10
        rng = np.random.default_rng(6)
        h = 1.0 / 128
        for _ in range(50):
            y = rng.dirichlet(np.ones(3))[None, :]
            k1 = replicator_field_array(y, RPS.entries)
            k2 = replicator_field_array(y + 0.5 * h * k1, RPS.entries)
            k3 = replicator_field_array(y + 0.5 * h * k2, RPS.entries)
            stages = [y + 0.5 * h * k1, y + 0.5 * h * k2, y + h * k3]
            for stage in stages:
                assert abs(stage.sum() - 1.0) <= 1e-10

    def test_negative_dust_is_clipped_and_rows_sum_to_one(self):
        # a coordinate just below zero stays below zero after one step, by
        # less than RENORM_TOL: the accepted step clips it and renormalizes
        points = np.array([[-1e-14, 1.0 + 1e-14], [0.3, 0.7]])
        raw = _rk4_step(points, CFG.step_size, A22.entries)
        assert -RENORM_TOL <= raw.min() < 0
        out = _advance(points, CFG.step_size, A22.entries)
        clipped = np.clip(raw, 0.0, None)
        assert np.array_equal(out, clipped / clipped.sum(axis=1, keepdims=True))
        assert out.min() == 0.0
        assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-15

    @pytest.mark.parametrize("matrix", [A22, RPS, PayoffMatrix(np.arange(16.0).reshape(4, 4))])
    def test_step_without_negative_entries_skips_the_clip_bit_for_bit(self, matrix):
        # without negative entries the clip is a no-op, so reusing the row sums
        # of the defect check gives the bits of clip-then-divide
        rng = np.random.default_rng(10)
        points = rng.dirichlet(np.ones(matrix.dimension), size=257)
        raw = _rk4_step(points, CFG.step_size, matrix.entries)
        assert raw.min() >= 0
        clipped = np.clip(raw, 0.0, None)
        expected = clipped / clipped.sum(axis=1, keepdims=True)
        out = _advance(points, CFG.step_size, matrix.entries)
        assert np.array_equal(out, expected)

    def test_config_validation(self):
        for step in (0.0, -0.1, np.nan, np.inf):
            with pytest.raises(DomainError, match="step size must be positive and finite"):
                FlowConfig(step_size=step)

    def test_step_bound_caps_the_configured_step(self):
        # column spreads of A22 are 2 and 2; a constant matrix leaves the step alone
        assert max_step(A22.entries) == STEP_BOUND / 2
        assert FlowConfig(step_size=1.0).step(A22.entries) == STEP_BOUND / 2
        assert CFG.step(A22.entries) == CFG.step_size
        assert max_step(np.full((3, 3), 2.0)) == np.inf

    def test_default_config(self):
        cfg = default_flow_config(2.0)
        assert cfg.step_size == pytest.approx(2.0 / 1024)


class TestPushforward:
    def test_time_zero_is_identity(self):
        rng = np.random.default_rng(7)
        mu = EmpiricalMeasure(rng.dirichlet(np.ones(3), size=20))
        out = pushforward(mu, RPS, 0.0, CFG)
        assert np.array_equal(out.array, mu.array)

    def test_single_sample_matches_flow(self):
        p = SimplexPoint([0.25, 0.75])
        out = pushforward(EmpiricalMeasure([p]), A22, 0.7, CFG)
        expected = flow(p, A22, 0.7, CFG)
        assert np.array_equal(out.array[0], expected.coords)

    def test_constant_matrix_keeps_measure(self):
        rng = np.random.default_rng(8)
        mat = PayoffMatrix(np.full((3, 3), 1.5))
        mu = EmpiricalMeasure(rng.dirichlet(np.ones(3), size=15))
        out = pushforward(mu, mat, 2.0, FlowConfig(step_size=0.05))
        assert out.array == pytest.approx(mu.array, abs=1e-12)

    def test_preserves_count_and_order(self):
        rng = np.random.default_rng(9)
        mu = EmpiricalMeasure(rng.dirichlet(np.ones(2), size=11))
        out = pushforward(mu, A22, 0.4, CFG)
        assert out.size == 11
        for idx in range(11):
            single = flow(SimplexPoint(mu.array[idx]), A22, 0.4, CFG)
            assert out.array[idx] == pytest.approx(single.coords, abs=1e-13)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_rejects_a_time_that_is_not_finite(self, t):
        with pytest.raises(DomainError):
            pushforward(EmpiricalMeasure([[0.25, 0.75]]), A22, t, CFG)

    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_rejects_a_matrix_of_another_dimension(self, t):
        with pytest.raises(DimensionError):
            pushforward(EmpiricalMeasure([[0.25, 0.75]]), RPS, t, CFG)

    def test_refuses_more_than_max_steps(self):
        # a payoff spread of 1e16 bounds the step to 2.5e-17, which would not even
        # move t = 1 down by one ulp: the loop would never end
        stiff = PayoffMatrix([[1e16, 0.0], [0.0, 1e16]])
        with pytest.raises(DomainError, match="needs more than 16777216 flow steps"):
            pushforward(EmpiricalMeasure([[0.25, 0.75]]), stiff, 1.0, CFG)


COORDINATION = PayoffMatrix([[300.0, 0.0], [0.0, 300.0]])


def coordination_closed_form(x0, t, p, q):
    """x_t of the M = 2 replicator ODE x' = x (1 - x) (p x + q (1 - x)), with
    p = A11 - A21 and q = A12 - A22, for q < 0 < p and x0 below the rest point
    q / (q - p), where x falls to 0.  The ODE is separable: by partial fractions
    F(x) = ln x / q - ln(1 - x) / p - (p - q) / (q p) ln|q + (p - q) x| has
    F' = 1 / x', so F(x_t) - F(x0) = t, solved on (0, x0)."""

    def antiderivative(x):
        return np.log(x) / q - np.log1p(-x) / p - (p - q) / (q * p) * np.log(abs(q + (p - q) * x))

    target = antiderivative(x0) + t
    return brentq(lambda x: antiderivative(x) - target, 1e-300, x0, xtol=1e-15)


class TestRowLocalSteps:
    @pytest.mark.parametrize("x0", [0.45, 0.1, 0.3])
    def test_stiff_points_match_the_closed_form(self, x0):
        # h * 300 = 1/16 * 300 alone would step [0.1, 0.9] across the rest point
        # 1/2; the step bound holds every row to 1/1200
        out = flow(SimplexPoint([x0, 1 - x0]), COORDINATION, 1 / 16, FlowConfig(step_size=1 / 16))
        assert out.coords[0] == pytest.approx(
            coordination_closed_form(x0, 1 / 16, 300.0, -300.0), rel=0, abs=1e-9
        )

    def test_a_sample_flows_the_same_alone_and_beside_stiff_rows(self):
        cfg = FlowConfig(step_size=1.0 / 16)
        alone = pushforward(EmpiricalMeasure([[0.45, 0.55]]), COORDINATION, 0.5, cfg)
        beside = pushforward(
            EmpiricalMeasure([[0.45, 0.55], [0.1, 0.9], [0.3, 0.7]]), COORDINATION, 0.5, cfg
        )
        assert np.array_equal(beside.array[0], alone.array[0])

    def test_stiffness_names_the_sample_from_one_pass(self, monkeypatch):
        calls = []
        rk4 = flow_module._rk4_step

        def faulty(points, h, entries):
            # a fault in the first step: row 2 leaves the simplex, row 3 its sum
            calls.append(1)
            out = rk4(points, h, entries)
            out[2, 0] = -1e-6
            out[3] *= 1.0 + 1e-6
            return out

        monkeypatch.setattr(flow_module, "_rk4_step", faulty)
        mu = EmpiricalMeasure([[0.5, 0.5], [1.0, 0.0], [0.1, 0.9], [0.45, 0.55]])
        with pytest.raises(StiffnessError, match=r"^sample 2: renormalization") as err:
            pushforward(mu, COORDINATION, 1.0, FlowConfig(step_size=1.0 / 16))
        assert err.value.sample == 2
        assert len(calls) == 1  # the first step fails, and nothing is rerun


def test_cyclic_flow_conserves_the_product_per_sample():
    # A + A^T is constant for this cyclic matrix, so the flow conserves lam_1 lam_2 lam_3
    matrix = PayoffMatrix([[1.0, 0.0, 2.0], [2.0, 1.0, 0.0], [0.0, 2.0, 1.0]])
    points = np.random.default_rng(11).dirichlet(np.full(3, 2.0), size=256)
    out = pushforward(EmpiricalMeasure(points), matrix, 4.0, CFG).array
    assert np.abs(out.prod(axis=1) - points.prod(axis=1)).max() <= 1e-12


@st.composite
def problems(draw, max_points=6, faces=True, min_points=1, payoff=3.0):
    """(matrix, (R, M) points) at M = 2..4: payoffs in [0, ``payoff``], and
    coordinates that are zero (on a face, when ``faces``) or at least 1/61."""
    m = draw(st.integers(2, 4))
    r = draw(st.integers(min_points, max_points))
    entries = draw(st.lists(st.floats(0.0, payoff), min_size=m * m, max_size=m * m))
    weight = st.one_of(st.just(0.0), st.floats(1.0, 20.0)) if faces else st.floats(1.0, 20.0)
    rows = draw(
        st.lists(
            st.lists(weight, min_size=m, max_size=m).filter(any), min_size=r, max_size=r
        )
    )
    points = np.array(rows)
    return PayoffMatrix(np.reshape(entries, (m, m))), points / points.sum(axis=1, keepdims=True)


@settings(max_examples=30, deadline=None)
@given(problems(max_points=1, faces=False))
def test_rk4_order_four_on_drawn_problems(problem):
    # halving the step divides the error to a fine-step reference by about 2^4
    matrix, points = problem
    p = SimplexPoint(points[0])
    ref = flow(p, matrix, 1.0, FlowConfig(step_size=1.0 / 2048)).coords
    errs = [
        np.linalg.norm(flow(p, matrix, 1.0, FlowConfig(step_size=1.0 / d)).coords - ref)
        for d in (16, 32, 64)
    ]
    assume(errs[-1] > 1e-13)  # a near-constant field leaves only rounding
    assert min(np.log2(errs[i] / errs[i + 1]) for i in range(2)) >= 3.5


def test_rk4_orders_oracle_measures_below_the_step_bound():
    # column spread 4 caps the step at 1/16, below the oracle's largest 1/8
    matrix = PayoffMatrix([[1.0, 4.0], [4.0, 0.0]])
    assert max_step(matrix.entries) == 1 / 16
    orders = rk4_orders(SimplexPoint([0.35, 0.65]), matrix)
    assert all(3.5 <= order <= 4.5 for order in orders)


@settings(max_examples=60, deadline=None)
@given(problems(), st.floats(0.0, 2.0))
def test_flow_and_pushforward_keep_the_simplex_and_its_faces(problem, t):
    matrix, points = problem
    cfg = FlowConfig(step_size=1.0 / 128)
    out = pushforward(EmpiricalMeasure(points), matrix, t, cfg).array
    assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-12
    assert np.all(out[points > 0] > 0)  # the interior of each face stays inside it
    assert np.all(out[points == 0] == 0)  # a strategy that is absent stays absent
    single = flow(SimplexPoint(points[0]), matrix, t, cfg).coords
    assert single == pytest.approx(out[0], abs=1e-13)


@settings(max_examples=60, deadline=None)
@given(problems(payoff=300.0), st.floats(0.0, 0.25))
def test_step_bound_keeps_drawn_stiff_problems_accurate(problem, t):
    # payoffs up to 300 against a configured step of 1/16: the bound's step
    # never fails the dust check and lands within 1e-5 of a 16x finer step
    matrix, points = problem
    cfg = FlowConfig(step_size=1.0 / 16)
    out = pushforward(EmpiricalMeasure(points), matrix, t, cfg).array
    fine = FlowConfig(step_size=cfg.step(matrix.entries) / 16)
    assert np.abs(out - pushforward(EmpiricalMeasure(points), matrix, t, fine).array).max() <= 1e-5
