import numpy as np
import pytest

from moranfield.errors import DomainError
from moranfield.flow import FlowConfig, default_flow_config, flow, pushforward
from moranfield.simplex import PayoffMatrix, SimplexPoint, replicator_field_array
from moranfield.transport import EmpiricalMeasure

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
        cfg = FlowConfig(step_size=1.0 / 1024, renormalize=False)
        out = flow(SimplexPoint([0.4, 0.6]), A22, 1.0, cfg)
        assert abs(out.coords.sum() - 1.0) <= 1e-12

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

    def test_config_validation(self):
        with pytest.raises(DomainError):
            FlowConfig(step_size=0.0)
        with pytest.raises(DomainError):
            FlowConfig(step_size=0.1, min_step=0.5)

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
        assert out.array[0] == pytest.approx(expected.coords, abs=1e-14)

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
