import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranfield.errors import (
    CapacityError,
    DomainError,
    InvalidWitnessError,
)
from moranfield.simplex import SimplexPoint
from moranfield.transport import (
    EmpiricalMeasure,
    Witness,
    coordinate_witness,
    distance_witness,
    potential_witness,
    random_witnesses,
    w1_dual_lower_bound,
    w1_exact,
)


def brute_force_w1(mu, nu):
    """Oracle: minimum over assignment permutations of the mean matched distance."""
    a, b = mu.array, nu.array
    r = a.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(r)):
        total = sum(np.linalg.norm(a[i] - b[perm[i]]) for i in range(r))
        best = min(best, total / r)
    return best


def replication_oracle_w1(mu, nu):
    """Oracle for unequal sizes: duplicate points to a common size and assign.

    Uniform empirical measures are invariant under replicating every point
    the same number of times, which reduces the transportation problem to an
    assignment problem of size lcm(R_mu, R_nu).
    """
    lcm = math.lcm(mu.size, nu.size)
    big_mu = EmpiricalMeasure(np.repeat(mu.array, lcm // mu.size, axis=0))
    big_nu = EmpiricalMeasure(np.repeat(nu.array, lcm // nu.size, axis=0))
    dist, _ = w1_exact(big_mu, big_nu)
    return dist


def random_measure(rng, r, m=3, conc=None):
    return EmpiricalMeasure(rng.dirichlet(conc if conc is not None else np.ones(m), size=r))


class TestEmpiricalMeasure:
    def test_from_points(self):
        mu = EmpiricalMeasure([SimplexPoint([0.5, 0.5]), SimplexPoint([0.2, 0.8])])
        assert mu.size == 2 and mu.dimension == 2

    def test_rejects_non_simplex_rows(self):
        with pytest.raises(DomainError):
            EmpiricalMeasure(np.array([[0.5, 0.6]]))

    def test_rejects_empty(self):
        with pytest.raises((DomainError, Exception)):
            EmpiricalMeasure([])


class TestW1Exact:
    def test_identical_measures(self):
        rng = np.random.default_rng(0)
        mu = random_measure(rng, 8)
        shuffled = EmpiricalMeasure(mu.array[np.random.default_rng(1).permutation(8)])
        dist, plan = w1_exact(mu, shuffled)
        assert dist == pytest.approx(0.0, abs=1e-14)
        assert plan.pair_costs == pytest.approx(np.zeros(8), abs=1e-14)

    def test_singletons(self):
        x = SimplexPoint([0.7, 0.3])
        y = SimplexPoint([0.2, 0.8])
        dist, _ = w1_exact(EmpiricalMeasure([x]), EmpiricalMeasure([y]))
        assert dist == pytest.approx(np.linalg.norm(x.coords - y.coords), abs=1e-15)

    def test_matches_permutation_brute_force_r3(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            mu = random_measure(rng, 3, m=2)
            nu = random_measure(rng, 3, m=2)
            dist, _ = w1_exact(mu, nu)
            assert dist == pytest.approx(brute_force_w1(mu, nu), abs=1e-12)

    def test_plan_marginals_and_cost(self):
        rng = np.random.default_rng(6)
        mu = random_measure(rng, 12)
        nu = random_measure(rng, 12)
        dist, plan = w1_exact(mu, nu)
        marg_mu, marg_nu = plan.marginals()
        assert marg_mu == pytest.approx(np.full(12, 1 / 12), abs=1e-12)
        assert marg_nu == pytest.approx(np.full(12, 1 / 12), abs=1e-12)
        assert plan.cost == pytest.approx(float(plan.masses @ plan.pair_costs), abs=1e-12)

    def test_unequal_sizes_match_replication_oracle(self):
        rng = np.random.default_rng(7)
        for r_mu, r_nu in [(2, 3), (5, 7), (16, 24), (9, 4)]:
            mu = random_measure(rng, r_mu)
            nu = random_measure(rng, r_nu)
            dist, plan = w1_exact(mu, nu)
            assert plan.kind == "coupling"
            marg_mu, marg_nu = plan.marginals()
            assert marg_mu == pytest.approx(np.full(r_mu, 1 / r_mu), abs=1e-12)
            assert marg_nu == pytest.approx(np.full(r_nu, 1 / r_nu), abs=1e-12)
            assert dist == pytest.approx(replication_oracle_w1(mu, nu), abs=1e-9)

    def test_metric_axioms(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            mu = random_measure(rng, 10)
            nu = random_measure(rng, 10)
            rho = random_measure(rng, 10)
            d_ab, _ = w1_exact(mu, nu)
            d_ba, _ = w1_exact(nu, mu)
            d_ac, _ = w1_exact(mu, rho)
            d_cb, _ = w1_exact(rho, nu)
            assert d_ab == pytest.approx(d_ba, abs=1e-12)
            assert d_ab >= 0
            assert d_ab <= d_ac + d_cb + 1e-10

    def test_identity_of_indiscernibles_via_plan(self):
        rng = np.random.default_rng(9)
        mu = random_measure(rng, 6)
        dist, plan = w1_exact(mu, EmpiricalMeasure(mu.array[::-1]))
        assert dist <= 1e-12
        assert np.all(plan.pair_costs <= 1e-12)

    def test_translation_exactness(self):
        rng = np.random.default_rng(10)
        base = rng.dirichlet(np.full(3, 5.0), size=20) * 0.8 + 0.2 / 3
        base /= base.sum(axis=1, keepdims=True)
        v = np.array([1.0, -0.5, -0.5])
        v /= np.linalg.norm(v)
        eps = 0.01
        mu = EmpiricalMeasure(base)
        nu = EmpiricalMeasure(base + eps * v)
        dist, _ = w1_exact(mu, nu)
        assert dist == pytest.approx(eps, abs=1e-12)

    def test_capacity_error_names_the_cap(self):
        rng = np.random.default_rng(11)
        mu = random_measure(rng, 9)
        with pytest.raises(CapacityError, match=r"\(9, 9\) exceed the exact-solver cap 8$"):
            w1_exact(mu, mu, max_size=8)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(12)
        mu = random_measure(rng, 15)
        nu = random_measure(rng, 15)
        d1, _ = w1_exact(mu, nu)
        perm = np.random.default_rng(13).permutation(15)
        d2, _ = w1_exact(EmpiricalMeasure(mu.array[perm]), nu)
        assert d1 == pytest.approx(d2, abs=1e-13)


@st.composite
def measure_tuples(draw, count, max_size=5):
    """``count`` empirical measures of 1..max_size points on one simplex of M = 2..4."""
    m = draw(st.integers(2, 4))
    out = []
    for _ in range(count):
        r = draw(st.integers(1, max_size))
        weights = draw(st.lists(st.floats(0.0, 1.0), min_size=r * m, max_size=r * m))
        points = np.reshape(weights, (r, m)) + 1e-3
        out.append(EmpiricalMeasure(points / points.sum(axis=1, keepdims=True)))
    return out


class TestW1Properties:
    """The metric axioms and the dual bound on hypothesis-drawn small measures,
    equal and unequal sizes (assignment and transportation solvers)."""

    @settings(max_examples=60, deadline=None)
    @given(measure_tuples(2))
    def test_symmetric(self, pair):
        mu, nu = pair
        assert w1_exact(mu, nu)[0] == pytest.approx(w1_exact(nu, mu)[0], abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(measure_tuples(3))
    def test_triangle_inequality(self, triple):
        a, b, c = triple
        assert w1_exact(a, b)[0] <= w1_exact(a, c)[0] + w1_exact(c, b)[0] + 1e-10

    @settings(max_examples=60, deadline=None)
    @given(measure_tuples(1), st.integers(1, 3), st.randoms(use_true_random=False))
    def test_zero_on_identical_measures(self, single, copies, random):
        (mu,) = single
        order = list(range(mu.size * copies))
        random.shuffle(order)
        same = EmpiricalMeasure(np.repeat(mu.array, copies, axis=0)[order])
        assert w1_exact(mu, same)[0] == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(measure_tuples(2), st.integers(0, 2**32 - 1))
    def test_dual_bound_below_exact(self, pair, seed):
        mu, nu = pair
        witnesses = random_witnesses(mu.dimension, 16, np.random.default_rng(seed))
        assert w1_dual_lower_bound(mu, nu, witnesses) <= w1_exact(mu, nu)[0] + 1e-10


class TestDualLowerBound:
    def test_identical_measures_bound_zero(self):
        rng = np.random.default_rng(15)
        mu = random_measure(rng, 10)
        witnesses = [coordinate_witness(i) for i in range(3)]
        assert w1_dual_lower_bound(mu, mu, witnesses) == pytest.approx(0.0, abs=1e-15)

    def test_singleton_distance_witness_is_tight(self):
        x = SimplexPoint([0.7, 0.2, 0.1])
        y = SimplexPoint([0.1, 0.3, 0.6])
        mu, nu = EmpiricalMeasure([x]), EmpiricalMeasure([y])
        bound = w1_dual_lower_bound(mu, nu, [distance_witness(x)])
        exact, _ = w1_exact(mu, nu)
        assert bound == pytest.approx(exact, abs=1e-14)

    def test_random_witnesses_never_exceed_exact(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            mu = random_measure(rng, 8)
            nu = random_measure(rng, 8)
            bound = w1_dual_lower_bound(mu, nu, random_witnesses(3, 64, rng))
            exact, _ = w1_exact(mu, nu)
            assert bound <= exact + 1e-10

    def test_optimal_potential_closes_the_gap(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            mu = random_measure(rng, 6)
            nu = random_measure(rng, 6)
            exact, _ = w1_exact(mu, nu)
            bound = w1_dual_lower_bound(mu, nu, [potential_witness(mu, nu)])
            assert bound <= exact + 1e-10
            assert exact - bound <= 1e-8

    def test_invalid_witness_detected(self):
        rng = np.random.default_rng(18)
        mu = random_measure(rng, 8)
        nu = random_measure(rng, 8)
        cheat = Witness("too_steep", lambda pts: 3.0 * pts[:, 0])
        with pytest.raises(InvalidWitnessError):
            w1_dual_lower_bound(mu, nu, [cheat])

