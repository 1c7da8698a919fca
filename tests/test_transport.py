import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from moranfield import lab, transport
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
    assignment_mean,
    coordinate_witness,
    distance_witness,
    random_witnesses,
    reduced_costs,
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
            match=rf"^ensemble_size {size} exceeds the exact-solver cap {EXACT_SIZE_CAP}$",
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


@st.composite
def warm_start_problems(draw):
    """(cost matrix, generator of paired resamples) at M = 2..4 and R = 2..40.
    Both measures take their points from one pool of 1..R Dirichlet points, so
    points repeat; the second measure is the first, another pick from the
    pool, or fresh points."""
    m = draw(st.integers(2, 4))
    r = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.dirichlet(np.ones(m), size=draw(st.integers(1, r)))
    mu = pool[rng.integers(0, len(pool), size=r)]
    nu = {
        "same": mu,
        "pool": pool[rng.integers(0, len(pool), size=r)],
        "fresh": rng.dirichlet(np.ones(m), size=r),
    }[draw(st.sampled_from(["same", "pool", "fresh"]))]
    return cdist(mu, nu), rng


@st.composite
def lattice_problems(draw, dimensions=st.integers(2, 4)):
    """(mu, nu, rng) at M from ``dimensions`` (2..4) and R = 2..40: mu on the
    1/N lattice for N = 1..8, so its points repeat; nu is mu shuffled,
    another lattice's points, or fresh points."""
    m = draw(dimensions)
    r = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def lattice(n):
        # rounded cumulative sums keep every count >= 0 and their total n
        cum = np.round(np.cumsum(rng.dirichlet(np.ones(m), size=r), axis=1) * n)
        return np.diff(cum, axis=1, prepend=0.0) / n

    mu = lattice(draw(st.integers(1, 8)))
    kind = draw(st.sampled_from(["shuffled", "lattice", "fresh"]))
    if kind == "shuffled":
        nu = mu[rng.permutation(r)]
    else:
        nu = lattice(draw(st.integers(1, 8))) if kind == "lattice" else rng.dirichlet(np.ones(m), size=r)
    return EmpiricalMeasure(mu), EmpiricalMeasure(nu), rng


class TestWarmStart:
    """Solving on reduced costs keeps the optimal value of the matrix and of
    every paired resample, whatever the number of potential rounds."""

    @settings(max_examples=80, deadline=None)
    @given(warm_start_problems())
    def test_reduced_costs_are_nonnegative_and_zero_on_the_matching(self, problem):
        dist, _ = problem
        reduced = reduced_costs(dist)
        _, cols = linear_sum_assignment(dist)
        assert reduced.min() >= -1e-12
        assert np.abs(reduced[np.arange(dist.shape[0]), cols]).max() <= 1e-12

    @pytest.mark.parametrize("potentials", ["converged", "one round", "zero rounds", "drawn"])
    @settings(max_examples=60, deadline=None)
    @given(warm_start_problems())
    def test_warm_resample_mean_equals_the_cold_solve(self, potentials, problem):
        dist, rng = problem
        r = dist.shape[0]
        if potentials == "zero rounds":  # u = v = 0
            reduced = dist
        elif potentials == "drawn":
            reduced = dist - rng.normal(size=(r, 1)) - rng.normal(size=r)
        else:
            with pytest.MonkeyPatch.context() as patch:
                if potentials == "one round":  # any move then ends the rounds
                    patch.setattr(transport, "POTENTIAL_TOL", np.inf)
                reduced = reduced_costs(dist)
        for idx in (rng.integers(0, r, size=r) for _ in range(4)):
            cut = dist[np.ix_(idx, idx)]
            rows, cols = linear_sum_assignment(cut)
            cold = float(cut[rows, cols].mean())
            warm = assignment_mean(dist, idx, idx, reduced)
            assert warm == pytest.approx(cold, rel=1e-12, abs=1e-15)

    @settings(max_examples=80, deadline=None)
    @given(lattice_problems())
    def test_rounding_noise_is_snapped_to_exact_zeros(self, problem):
        mu, nu, _ = problem
        dist = cdist(mu.array, nu.array)
        tol = transport.SNAP_EPS * np.finfo(float).eps * dist.max()
        magnitudes = np.abs(reduced_costs(dist))
        assert not np.any((magnitudes > 0) & (magnitudes <= tol))

    def test_the_full_problem_keeps_its_value(self):
        rng = np.random.default_rng(44)
        dist = cdist(rng.dirichlet(np.ones(3), size=30), rng.dirichlet(np.ones(3), size=30))
        cold = assignment_mean(dist)
        assert assignment_mean(dist, reduced=reduced_costs(dist)) == pytest.approx(cold, rel=1e-12)


class TestOrderedSolve:
    """The bootstrap solves each resample on its replicas' sorted ranks, over
    costs built with each side's points in sorted order."""

    @pytest.mark.parametrize("potentials", ["converged", "drawn"])
    @settings(max_examples=60, deadline=None)
    @given(lattice_problems(), st.integers(0, 2**32 - 1))
    def test_sorted_rank_solves_equal_cold_solves(self, potentials, problem, seed):
        mu, nu, rng = problem
        r = mu.size
        with pytest.MonkeyPatch.context() as patch:
            if potentials == "drawn":
                def drawn(dist):
                    return dist - rng.normal(size=(r, 1)) - rng.normal(size=r)

                patch.setattr(lab, "reduced_costs", drawn)
            prepared = lab.PairedBootstrap(mu, nu, np.random.default_rng(seed), n_resamples=4)
        dist, draws = cdist(mu.array, nu.array), np.random.default_rng(seed)
        for rows, cols in zip(prepared.rows, prepared.cols):
            value = assignment_mean(prepared.dist, rows, cols, prepared.reduced)
            idx = draws.integers(0, r, size=r)
            cold = assignment_mean(dist[np.ix_(idx, idx)])
            assert value == pytest.approx(cold, rel=1e-12, abs=1e-15)

    @settings(max_examples=80, deadline=None)
    @given(lattice_problems(dimensions=st.just(2)), st.integers(0, 2**32 - 1))
    def test_m2_resamples_equal_the_sorted_closed_form(self, problem, seed):
        # at M = 2 every point is (x, 1 - x) and the cost is sqrt(2)|x - y|, so
        # sorted x matched to sorted y is optimal; each side's sorted ranks
        # index its first coordinates in ascending order
        mu, nu, _ = problem
        prepared = lab.PairedBootstrap(mu, nu, np.random.default_rng(seed), n_resamples=8)
        x, y = (np.sort(m.array[:, 0]) for m in (mu, nu))
        for rows, cols in zip(prepared.rows, prepared.cols):
            value = assignment_mean(prepared.dist, rows, cols, prepared.reduced)
            closed = math.sqrt(2) * math.fsum(np.abs(x[rows] - y[cols]).tolist()) / rows.size
            assert value == pytest.approx(closed, rel=1e-12, abs=0.0)

    def test_the_mean_is_exactly_rounded_in_any_pair_order(self):
        # one optimal matching, the diagonal, whose costs sum to other bits
        # in other orders: 1 + 2^-53 + 2^-53 is 1 from the left
        costs = np.array([1.0, 2.0**-53, 2.0**-53])
        dist = np.diag(costs) + 10.0 * (1.0 - np.eye(3))
        for shift in range(3):
            order = np.roll(np.arange(3), shift)
            assert assignment_mean(dist[np.ix_(order, order)]) == math.fsum(costs) / 3
            assert assignment_mean(dist, order, order) == math.fsum(costs) / 3

    @settings(max_examples=80, deadline=None)
    @given(lattice_problems())
    def test_permuted_input_gives_the_same_bits_up_to_a_tied_matching(self, problem):
        mu, nu, rng = problem
        dist = cdist(mu.array, nu.array)
        rows, cols = rng.permutation(mu.size), rng.permutation(mu.size)
        permuted = dist[np.ix_(rows, cols)]
        matching = set(zip(*linear_sum_assignment(dist)))
        solved = linear_sum_assignment(permuted)
        value = assignment_mean(dist)
        for other in (assignment_mean(permuted), assignment_mean(dist, rows, cols)):
            if set(zip(rows[solved[0]], cols[solved[1]])) == matching:
                # the same pairs, returned in another order
                assert other == value
            else:
                # another optimal matching of equal cost in exact arithmetic
                assert other == pytest.approx(value, rel=1e-15, abs=1e-16)


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

