import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moranfield.errors import DimensionError, DomainError
from moranfield.simplex import (
    SIMPLEX_TOL,
    PayoffMatrix,
    SimplexPoint,
    fitness_coefficients,
    payoff_fitness,
    replicator_field,
    replicator_field_array,
)
from moranfield.transport import EmpiricalMeasure


def enumerated_payoff(counts, entries):
    """Oracle: average payoff by enumerating the uniform opponent draw.

    A strategy-i individual meets one of the other N-1 individuals: counts[j]
    of strategy j for j != i, and counts[i]-1 of its own strategy.
    """
    counts = np.asarray(counts, dtype=int)
    n = counts.sum()
    m = counts.size
    pay = np.zeros(m)
    for i in range(m):
        total = 0.0
        for j in range(m):
            opponents = counts[j] - 1 if j == i else counts[j]
            total += entries[i][j] * opponents
        pay[i] = total / (n - 1)
    return pay


def profile(point, matrix, population, w=0.0):
    """(payoffs, fitnesses, mean fitness) of one point by :func:`payoff_fitness`."""
    pay, fit = payoff_fitness(point.coords[:, None], matrix.entries, population, w)
    return pay[:, 0], fit[:, 0], float(point.coords @ fit[:, 0])


def simplex_points(max_m=5):
    return (
        st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=2, max_size=max_m)
        .map(lambda ws: SimplexPoint(np.array(ws) / np.sum(ws)))
    )


A22 = PayoffMatrix([[1.0, 2.0], [3.0, 4.0]])
RPS = PayoffMatrix([[0.0, 2.0, 1.0], [1.0, 0.0, 2.0], [2.0, 1.0, 0.0]])


class TestSimplexPoint:
    def test_valid_point(self):
        p = SimplexPoint([0.6, 0.4])
        assert p.dimension == 2
        assert p.coords.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_sum(self):
        with pytest.raises(DomainError):
            SimplexPoint([0.6, 0.5])

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            SimplexPoint([1.2, -0.2])

    @pytest.mark.parametrize("coords", [[np.nan, 1.0], [np.nan, np.nan], [np.inf, 0.0]])
    def test_rejects_non_finite(self, coords):
        with pytest.raises(DomainError):
            SimplexPoint(coords)

    def test_clips_rounding_dust(self):
        p = SimplexPoint([1.0 + 5e-13, -5e-13])
        assert p.coords[1] == 0.0

    def test_rejects_single_strategy(self):
        with pytest.raises(DomainError):
            SimplexPoint([1.0])

    @pytest.mark.parametrize(
        "make",
        [
            lambda: SimplexPoint([True, False]),
            lambda: SimplexPoint([True, 0.0]),
            lambda: SimplexPoint(np.array([True, False])),
            lambda: SimplexPoint(np.array([True, 0.0], dtype=object)),
            lambda: EmpiricalMeasure([[True, False]]),
        ],
    )
    def test_rejects_booleans(self, make):
        # the float conversion would read each of these as the vertex [1, 0]
        with pytest.raises(DomainError, match="not booleans"):
            make()

    def test_immutable(self):
        p = SimplexPoint([0.5, 0.5])
        with pytest.raises(ValueError):
            p.coords[0] = 0.9


class TestPayoffMatrix:
    def test_rejects_negative_entry(self):
        with pytest.raises(DomainError) as err:
            PayoffMatrix([[1.0, -0.5], [0.0, 1.0]])
        assert "(0, 1)" in str(err.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entry(self, bad):
        # a nan payoff made every outcome probability nan and froze the chain
        with pytest.raises(DomainError) as err:
            PayoffMatrix([[1.0, 2.0], [bad, 1.0]])
        assert "(1, 0)" in str(err.value)

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            PayoffMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_rejects_m1(self):
        with pytest.raises(DomainError):
            PayoffMatrix([[2.0]])

    def test_row_roundtrip_exact(self):
        rng = np.random.default_rng(7)
        entries = rng.random((3, 3)) * 10
        mat = PayoffMatrix(entries)
        again = PayoffMatrix(mat.to_rows())
        assert np.array_equal(again.entries, mat.entries)


class TestExpectedPayoff:
    def test_frozen_enumeration_example(self):
        # N=5, counts=(3,2): pi_1 = (1*2 + 2*2)/4, pi_2 = (3*3 + 4*1)/4
        oracle = enumerated_payoff([3, 2], A22.entries)
        assert oracle == pytest.approx([1.5, 3.25], abs=1e-15)
        pay, _, _ = profile(SimplexPoint([0.6, 0.4]), A22, 5)
        assert pay == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_enumeration_for_small_populations(self, m):
        # the self-interaction correction: no individual meets itself
        rng = np.random.default_rng(101 + m)
        for n in range(2, 9):
            for _ in range(25):
                entries = rng.random((m, m)) * 5
                counts = rng.multinomial(n, np.full(m, 1.0 / m))
                pay, _, _ = profile(SimplexPoint(counts / n), PayoffMatrix(entries), n)
                assert pay == pytest.approx(enumerated_payoff(counts, entries), abs=1e-12)

    def test_constant_matrix(self):
        mat = PayoffMatrix(np.full((3, 3), 2.5))
        pay, _, _ = profile(SimplexPoint([0.2, 0.3, 0.5]), mat, 7)
        assert pay == pytest.approx([2.5, 2.5, 2.5], abs=1e-14)

    def test_large_population_limit(self):
        p = SimplexPoint([0.6, 0.4])
        a_lam = A22.entries @ p.coords
        bound = 2 * np.max(np.abs(A22.entries))
        for n in (10, 100, 1000, 10000):
            pay, _, _ = profile(p, A22, n)
            assert np.max(np.abs(pay - a_lam)) <= bound / n

    def test_rejects_small_population(self):
        with pytest.raises(DomainError, match="population"):
            profile(SimplexPoint([0.5, 0.5]), A22, 1)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            profile(SimplexPoint([0.5, 0.5]), RPS, 5)


class TestFitnessProfile:
    def test_neutral_selection(self):
        _, fit, fbar = profile(SimplexPoint([0.3, 0.7]), A22, 9, 0.0)
        assert fit == pytest.approx([1.0, 1.0], abs=1e-15)
        assert fbar == pytest.approx(1.0, abs=1e-15)

    def test_full_selection_example(self):
        _, fit, fbar = profile(SimplexPoint([0.6, 0.4]), A22, 5, 1.0)
        assert fit == pytest.approx([1.5, 3.25], abs=1e-12)
        assert fbar == pytest.approx(0.6 * 1.5 + 0.4 * 3.25, abs=1e-14)

    def test_vertex_population(self):
        _, fit, fbar = profile(SimplexPoint([1.0, 0.0]), A22, 6, 0.5)
        assert fbar == pytest.approx(fit[0], abs=1e-14)

    def test_rejects_weight_outside_unit_interval(self):
        for w in (-0.1, 1.5, float("nan")):
            with pytest.raises(DomainError, match="selection weight"):
                profile(SimplexPoint([0.5, 0.5]), A22, 5, w)

    def test_convex_combination_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = rng.integers(2, 5)
            lam = rng.dirichlet(np.ones(m))
            mat = PayoffMatrix(rng.random((m, m)) * 4)
            w = rng.random()
            n = int(rng.integers(2, 40))
            pay, fit, fbar = profile(SimplexPoint(lam), mat, n, w)
            assert fit == pytest.approx((1 - w) + w * pay, abs=1e-14)
            assert fbar == pytest.approx(lam @ fit, abs=1e-14)

    def test_mean_fitness_expansion(self):
        # fbar = 1 - w + w*N/(N-1)*(A lam).lam - w/(N-1)*diag(A).lam
        rng = np.random.default_rng(4)
        for _ in range(50):
            m = int(rng.integers(2, 5))
            lam = rng.dirichlet(np.ones(m))
            mat = PayoffMatrix(rng.random((m, m)) * 4)
            w = rng.random()
            n = int(rng.integers(2, 40))
            _, _, fbar = profile(SimplexPoint(lam), mat, n, w)
            a_lam = mat.entries @ lam
            expanded = (
                1.0
                - w
                + w * n / (n - 1) * (a_lam @ lam)
                - w / (n - 1) * (mat.diagonal() @ lam)
            )
            assert fbar == pytest.approx(expanded, abs=1e-12)

    def test_fitness_positivity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = int(rng.integers(2, 5))
            lam = rng.dirichlet(np.ones(m))
            mat = PayoffMatrix(rng.random((m, m)) * 8)
            w = rng.random()
            _, fit, fbar = profile(SimplexPoint(lam), mat, int(rng.integers(2, 30)), w)
            assert np.all(fit >= 0)
            if w < 1:
                assert fbar > 0

    def test_count_coefficients_give_the_fitness(self):
        # fit = K @ [counts; 1] with K = [w A/(N-1) | (1-w) - w diag(A)/(N-1)]
        rng = np.random.default_rng(12)
        for _ in range(50):
            m, n, w = int(rng.integers(2, 5)), int(rng.integers(2, 40)), rng.random()
            counts = rng.multinomial(n, np.full(m, 1.0 / m))
            mat = PayoffMatrix(rng.random((m, m)) * 4)
            coeffs = fitness_coefficients(mat.entries, n, w)
            assert coeffs.shape == (m, m + 1)
            _, fit, _ = profile(SimplexPoint(counts / n), mat, n, w)
            assert coeffs @ np.append(counts, 1.0) == pytest.approx(fit, abs=1e-13)

    def test_a_lone_bearer_never_gets_a_negative_fitness(self):
        # w = 1, no payoff against the others: the exact fitness is 0, and the
        # intercept cancels the slope's diagonal bit for bit
        for n in range(2, 200):
            for a in (0.1, 1.0, 3.0, 7.3):
                coeffs = fitness_coefficients(np.array([[a, 0.0], [0.0, a]]), n, 1.0)
                assert (coeffs @ [1.0, n - 1.0, 1.0])[0] == 0.0


class TestReplicatorField:
    def test_vertex_is_fixed_point(self):
        for i in range(3):
            vertex = np.zeros(3)
            vertex[i] = 1.0
            b = replicator_field(SimplexPoint(vertex), RPS)
            assert b == pytest.approx(np.zeros(3), abs=1e-15)

    def test_constant_matrix_is_zero_field(self):
        mat = PayoffMatrix(np.full((4, 4), 3.0))
        rng = np.random.default_rng(6)
        for _ in range(20):
            lam = rng.dirichlet(np.ones(4))
            b = replicator_field(SimplexPoint(lam), mat)
            assert b == pytest.approx(np.zeros(4), abs=1e-13)

    def test_cyclic_barycenter_is_fixed_point(self):
        b = replicator_field(SimplexPoint([1 / 3, 1 / 3, 1 / 3]), RPS)
        assert b == pytest.approx(np.zeros(3), abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(simplex_points())
    def test_tangency(self, point):
        rng = np.random.default_rng(point.dimension)
        mat = PayoffMatrix(rng.random((point.dimension, point.dimension)) * 10)
        assert abs(replicator_field(point, mat).sum()) <= 1e-12

    def test_shift_invariance(self):
        # A -> A + c*ones shifts every payoff by c: b and f_i - fbar unchanged
        rng = np.random.default_rng(8)
        for _ in range(30):
            m = int(rng.integers(2, 5))
            lam = SimplexPoint(rng.dirichlet(np.ones(m)))
            entries = rng.random((m, m)) * 4
            c = rng.random() * 5
            mat, shifted = PayoffMatrix(entries), PayoffMatrix(entries + c)
            assert replicator_field(lam, shifted) == pytest.approx(
                replicator_field(lam, mat), abs=1e-12
            )
            n, w = int(rng.integers(2, 30)), rng.random()
            _, fit, fbar = profile(lam, mat, n, w)
            _, fit_shifted, fbar_shifted = profile(lam, shifted, n, w)
            assert fit_shifted - fbar_shifted == pytest.approx(fit - fbar, abs=1e-12)

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(9)
        pts = rng.dirichlet(np.ones(3), size=40)
        batch = replicator_field_array(pts, RPS.entries)
        for row, lam in zip(batch, pts):
            assert row == pytest.approx(replicator_field(SimplexPoint(lam), RPS), abs=1e-14)


#: per-coordinate rounding dust around the membership tolerance, both sides of it
DUST = [k * SIMPLEX_TOL for k in (0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5, 3.0, -3.0)]


@st.composite
def near_simplex_rows(draw):
    """A simplex point, a vertex, a face point or an interior one, with dust
    added to each coordinate, and now and then one coordinate not finite."""
    m = draw(st.integers(2, 4))

    def coordinates(values):
        return np.array(draw(st.lists(st.sampled_from(values), min_size=m, max_size=m)))

    weights = coordinates([0.0, 1.0, 2.0, 3.0])
    if weights.sum() == 0:
        weights[0] = 1.0
    row = weights / weights.sum() + coordinates(DUST)
    if draw(st.integers(0, 9)) == 0:
        row[draw(st.integers(0, m - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return row.tolist()


def _accepted(make):
    try:
        return make()
    except DomainError:
        return None


@settings(max_examples=300, deadline=None)
# the point refused this row and the measure accepted it
@example([1.0 + 1.5e-12, -1e-12])
@given(near_simplex_rows())
def test_point_and_measure_accept_the_same_rows(row):
    point = _accepted(lambda: SimplexPoint(row).coords)
    measure = _accepted(lambda: EmpiricalMeasure([row]).array[0])
    assert (point is None) == (measure is None)
    if point is not None:
        assert np.array_equal(point, measure)
        assert point.min() >= 0.0 and point.max() <= 1.0
