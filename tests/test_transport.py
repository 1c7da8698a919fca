import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranfield import transport
from moranfield.errors import (
    CapacityError,
    DimensionError,
    DomainError,
    InvalidWitnessError,
)
from moranfield.simplex import SimplexPoint
from moranfield.transport import (
    EXACT_SIZE_CAP,
    EmpiricalMeasure,
    Witness,
    coordinate_witness,
    distance_witness,
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
        with pytest.raises(DomainError):
            EmpiricalMeasure([])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_rows(self, bad):
        with pytest.raises(DomainError, match="row 1 is not a simplex point"):
            EmpiricalMeasure([[0.5, 0.5], [bad, bad]])


class TestW1Exact:
    def test_identical_measures(self):
        rng = np.random.default_rng(0)
        mu = random_measure(rng, 8)
        shuffled = EmpiricalMeasure(mu.array[np.random.default_rng(1).permutation(8)])
        assert w1_exact(mu, shuffled) == pytest.approx(0.0, abs=1e-14)

    def test_singletons(self):
        x = SimplexPoint([0.7, 0.3])
        y = SimplexPoint([0.2, 0.8])
        dist = w1_exact(EmpiricalMeasure([x]), EmpiricalMeasure([y]))
        assert dist == pytest.approx(np.linalg.norm(x.coords - y.coords), abs=1e-15)

    def test_matches_permutation_brute_force_r3(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            mu = random_measure(rng, 3, m=2)
            nu = random_measure(rng, 3, m=2)
            dist = w1_exact(mu, nu)
            assert dist == pytest.approx(brute_force_w1(mu, nu), abs=1e-12)

    def test_metric_axioms(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            mu = random_measure(rng, 10)
            nu = random_measure(rng, 10)
            rho = random_measure(rng, 10)
            d_ab = w1_exact(mu, nu)
            d_ba = w1_exact(nu, mu)
            d_ac = w1_exact(mu, rho)
            d_cb = w1_exact(rho, nu)
            assert d_ab == pytest.approx(d_ba, abs=1e-12)
            assert d_ab >= 0
            assert d_ab <= d_ac + d_cb + 1e-10

    def test_identity_of_indiscernibles_via_plan(self):
        rng = np.random.default_rng(9)
        mu = random_measure(rng, 6)
        assert w1_exact(mu, EmpiricalMeasure(mu.array[::-1])) <= 1e-12

    def test_translation_exactness(self):
        rng = np.random.default_rng(10)
        base = rng.dirichlet(np.full(3, 5.0), size=20) * 0.8 + 0.2 / 3
        base /= base.sum(axis=1, keepdims=True)
        v = np.array([1.0, -0.5, -0.5])
        v /= np.linalg.norm(v)
        eps = 0.01
        mu = EmpiricalMeasure(base)
        nu = EmpiricalMeasure(base + eps * v)
        dist = w1_exact(mu, nu)
        assert dist == pytest.approx(eps, abs=1e-12)

    def test_capacity_error_names_the_cap(self):
        rng = np.random.default_rng(11)
        size = EXACT_SIZE_CAP + 1
        mu = random_measure(rng, size)
        with pytest.raises(
            CapacityError,
            match=rf"\({size}, {size}\) exceed the exact-solver cap {EXACT_SIZE_CAP}$",
        ):
            w1_exact(mu, mu)

    def test_unequal_sizes_raise(self):
        rng = np.random.default_rng(14)
        with pytest.raises(DimensionError, match="equal sizes, got 3 vs 4"):
            w1_exact(random_measure(rng, 3), random_measure(rng, 4))

    def test_dimension_mismatch_raises(self):
        rng = np.random.default_rng(19)
        with pytest.raises(DimensionError, match="different dimensions: 2 vs 3"):
            w1_exact(random_measure(rng, 4, m=2), random_measure(rng, 4, m=3))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(12)
        mu = random_measure(rng, 15)
        nu = random_measure(rng, 15)
        d1 = w1_exact(mu, nu)
        perm = np.random.default_rng(13).permutation(15)
        d2 = w1_exact(EmpiricalMeasure(mu.array[perm]), nu)
        assert d1 == pytest.approx(d2, abs=1e-13)


@st.composite
def measure_tuples(draw, count, max_size=5):
    """``count`` empirical measures of one size in 1..max_size on one simplex of M = 2..4."""
    m = draw(st.integers(2, 4))
    r = draw(st.integers(1, max_size))
    out = []
    for _ in range(count):
        weights = draw(st.lists(st.floats(0.0, 1.0), min_size=r * m, max_size=r * m))
        points = np.reshape(weights, (r, m)) + 1e-3
        out.append(EmpiricalMeasure(points / points.sum(axis=1, keepdims=True)))
    return out


class TestW1Properties:
    """The metric axioms and the dual bound on hypothesis-drawn small measures
    of equal size."""

    @settings(max_examples=60, deadline=None)
    @given(measure_tuples(2))
    def test_symmetric(self, pair):
        mu, nu = pair
        assert w1_exact(mu, nu) == pytest.approx(w1_exact(nu, mu), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(measure_tuples(3))
    def test_triangle_inequality(self, triple):
        a, b, c = triple
        assert w1_exact(a, b) <= w1_exact(a, c) + w1_exact(c, b) + 1e-10

    @settings(max_examples=60, deadline=None)
    @given(measure_tuples(1), st.randoms(use_true_random=False))
    def test_zero_on_identical_measures(self, single, random):
        (mu,) = single
        order = list(range(mu.size))
        random.shuffle(order)
        same = EmpiricalMeasure(mu.array[order])
        assert w1_exact(mu, same) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(measure_tuples(2), st.integers(0, 2**32 - 1))
    def test_dual_bound_below_exact(self, pair, seed):
        mu, nu = pair
        witnesses = random_witnesses(mu.dimension, 16, np.random.default_rng(seed))
        assert w1_dual_lower_bound(mu, nu, witnesses) <= w1_exact(mu, nu) + 1e-10


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
        exact = w1_exact(mu, nu)
        assert bound == pytest.approx(exact, abs=1e-14)

    def test_random_witnesses_never_exceed_exact(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            mu = random_measure(rng, 8)
            nu = random_measure(rng, 8)
            bound = w1_dual_lower_bound(mu, nu, random_witnesses(3, 64, rng))
            exact = w1_exact(mu, nu)
            assert bound <= exact + 1e-10

    def test_invalid_witness_detected(self):
        rng = np.random.default_rng(18)
        mu = random_measure(rng, 8)
        nu = random_measure(rng, 8)
        cheat = Witness("too_steep", lambda pts: 3.0 * pts[:, 0])
        with pytest.raises(InvalidWitnessError):
            w1_dual_lower_bound(mu, nu, [cheat])

    @pytest.mark.parametrize("block", [transport.PAIR_BLOCK, 300])
    def test_invalid_witness_detected_on_a_single_pair(self, monkeypatch, block):
        # the witness steps up by 2e-4 at b = nu[1] alone, and only a = mu[0] lies
        # within 2e-4 of b: pooled pair (0, 51) is the one violation, a pair that
        # a 2 000-pair sample drawn from default_rng(0) misses; a block of 300
        # floats checks three rows at a time
        monkeypatch.setattr(transport, "PAIR_BLOCK", block)
        x0 = np.linspace(0.0, 0.4, 100)
        x0[0], x0[51] = 0.5, 0.5 + 1e-4
        points = np.column_stack((x0, 1.0 - x0))
        mu, nu = EmpiricalMeasure(points[:50]), EmpiricalMeasure(points[50:])
        b = nu.array[1]
        bump = Witness("bump", lambda pts: np.where(np.all(pts == b, axis=1), 2e-4, 0.0))
        with pytest.raises(InvalidWitnessError):
            w1_dual_lower_bound(mu, nu, [bump])
        x0[0] = 0.45  # a moved away: the same witness is 1-Lipschitz
        points = np.column_stack((x0, 1.0 - x0))
        assert w1_dual_lower_bound(
            EmpiricalMeasure(points[:50]), EmpiricalMeasure(points[50:]), [bump]
        ) == pytest.approx(2e-4 / 50)

    def test_dimension_mismatch_raises(self):
        rng = np.random.default_rng(20)
        mu = random_measure(rng, 4, m=2)
        nu = random_measure(rng, 4, m=3)
        with pytest.raises(DimensionError, match="different dimensions: 2 vs 3"):
            w1_dual_lower_bound(mu, nu, [coordinate_witness(0)])

