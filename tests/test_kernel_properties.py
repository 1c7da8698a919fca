"""Property tests of the chain's two samplers, against the exact transition
table and against each other: the lockstep loop ``simulate_counts_batch`` for
R replicas, and the single-chain walk behind ``step`` and ``simulate``, which
must equal the lockstep loop at R = 1."""

import hashlib
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from moranfield import engine
from moranfield.engine import (
    DRAW_BLOCK,
    DiscreteState,
    ScalingSchedule,
    count_rows,
    exact_drift,
    export_trajectory,
    largest_remainder_counts,
    largest_remainder_rows,
    simulate,
    simulate_counts_batch,
    step,
    transition_table,
)
from moranfield.errors import DomainError, FitnessDegenerateError
from moranfield.simplex import (
    PayoffMatrix,
    SimplexPoint,
    fitness_coefficients,
    replicator_field,
    require_integer,
)

unit = st.floats(0.0, 1.0, exclude_max=True, allow_nan=False)


@st.composite
def chains(draw, max_steps=12, max_replicas=1):
    """(matrix, schedule, counts0 of shape (R, M), uniforms of shape (R, k))."""
    m = draw(st.integers(2, 4))
    n = draw(st.integers(2, 40))
    w = draw(st.floats(0.0, 1.0, allow_nan=False))
    k = draw(st.integers(1, max_steps))
    r = draw(st.integers(1, max_replicas))
    # positive payoffs keep every mean fitness positive
    entries = draw(st.lists(st.floats(0.01, 10.0), min_size=m * m, max_size=m * m))
    counts0 = []
    for _ in range(r):
        cuts = sorted(draw(st.lists(st.integers(0, n), min_size=m - 1, max_size=m - 1)))
        counts0.append(np.diff([0] + cuts + [n]))
    uniforms = draw(st.lists(unit, min_size=r * k, max_size=r * k))
    # alpha = 1, beta = 0 and a vanishing n_scale pin N = n_floor and w = w_scale
    schedule = ScalingSchedule(
        horizon=1.0, resolution=k, alpha=1.0, beta=0.0, n_floor=n, n_scale=1e-9, w_scale=w
    )
    assert (schedule.population, schedule.selection_weight) == (n, w)
    matrix = PayoffMatrix(np.reshape(entries, (m, m)))
    return matrix, schedule, np.array(counts0), np.reshape(uniforms, (r, k))


def oracle_step(counts, matrix, schedule, u):
    """Inverse-CDF draw on the exact table, then the drawn (gainer, loser) move."""
    state = DiscreteState(counts, schedule.population, schedule.selection_weight)
    table = transition_table(state, matrix)
    idx = int(np.searchsorted(table.cumulative, u, side="right"))
    gainer, loser = table.outcome_moves()[idx]
    out = np.array(counts)
    if idx:
        out[gainer] += 1
        out[loser] -= 1
    return out


@settings(max_examples=150, deadline=None)
@given(chains(max_replicas=3))
def test_every_kernel_step_matches_the_table_oracle(chain):
    matrix, schedule, counts0, uniforms = chain
    paths = simulate_counts_batch(counts0, matrix, schedule, uniforms)
    for r in range(paths.shape[0]):
        for h in range(schedule.resolution):
            expected = oracle_step(paths[r, h], matrix, schedule, uniforms[r, h])
            assert np.array_equal(paths[r, h + 1], expected), (r, h)


@settings(max_examples=100, deadline=None)
@given(chains(max_steps=1))
def test_uniforms_on_cumulative_boundaries_match_the_oracle(chain):
    matrix, schedule, counts0, _ = chain
    state = DiscreteState(counts0[0], schedule.population, schedule.selection_weight)
    cum = transition_table(state, matrix).cumulative
    for u in cum[cum < 1.0]:
        moved = simulate_counts_batch(counts0, matrix, schedule, np.array([[u]]))[0, 1]
        assert np.array_equal(moved, oracle_step(counts0[0], matrix, schedule, u)), u


@settings(max_examples=100, deadline=None)
@given(chains(max_steps=1))
def test_step_is_one_kernel_step_on_one_draw(chain):
    matrix, schedule, counts0, uniforms = chain
    n, w = schedule.population, schedule.selection_weight
    draws = iter(uniforms[0])
    one_draw = SimpleNamespace(random=lambda: next(draws))
    moved = step(DiscreteState(counts0[0], n, w), matrix, one_draw)
    assert next(draws, None) is None  # exactly one draw consumed
    walked = engine._walk(counts0[0], matrix.entries, n, w, uniforms[0])
    assert np.array_equal(moved.counts, walked[1])
    assert np.array_equal(
        moved.counts, simulate_counts_batch(counts0, matrix, schedule, uniforms)[0, 1]
    )


@settings(max_examples=200, deadline=None)
@given(chains(max_steps=30), st.sampled_from([None, 0.0, 1.0]), st.data())
def test_walk_is_the_one_replica_lockstep_loop(chain, pinned_w, data):
    matrix, schedule, counts0, uniforms = chain
    m = matrix.dimension
    if pinned_w is not None:
        schedule = replace(schedule, w_scale=pinned_w)
    # zero payoffs leave every bearer without fitness in some states at w = 1
    zeros = data.draw(st.lists(st.booleans(), min_size=m * m, max_size=m * m))
    matrix = PayoffMatrix(np.where(np.reshape(zeros, (m, m)), 0.0, matrix.entries))
    n, w = schedule.population, schedule.selection_weight
    # follow the path, putting some draws on a cumulative boundary of the state they move
    u, counts, degenerate_at = uniforms[0].copy(), counts0[0], None
    for h in range(schedule.resolution):
        try:
            cum = transition_table(DiscreteState(counts, n, w), matrix).cumulative
        except FitnessDegenerateError:
            degenerate_at = h
            break
        bounds = cum[cum < 1.0].tolist()
        if bounds and data.draw(st.booleans()):
            u[h] = data.draw(st.sampled_from(bounds))
        counts = oracle_step(counts, matrix, schedule, u[h])

    def walk(draws):
        return engine._walk(counts0[0], matrix.entries, n, w, draws)

    def lockstep(draws):
        steps = replace(schedule, resolution=draws.size)
        return simulate_counts_batch(counts0, matrix, steps, draws[None])[0]

    if degenerate_at is None:
        assert np.array_equal(walk(u), lockstep(u))
        return
    # both raise on the step that leaves the degenerate state, and not before
    for run in (walk, lockstep):
        with pytest.raises(FitnessDegenerateError):
            run(u[: degenerate_at + 1])
    if degenerate_at:
        assert np.array_equal(walk(u[:degenerate_at]), lockstep(u[:degenerate_at]))


def test_walk_across_draw_blocks_is_unchanged_by_the_rebuilt_tables(monkeypatch):
    # N = 6: the path revisits its states in every block, so each block refills them
    k = 2 * DRAW_BLOCK + 6
    sched = ScalingSchedule(
        horizon=1.0, resolution=k, alpha=1.0, beta=0.0, n_floor=6, n_scale=1e-9, w_scale=0.5
    )
    init = largest_remainder_counts(SimplexPoint([0.2, 0.3, 0.5]), sched.population)
    uniforms = np.random.default_rng(5).random((1, k))
    n, w = sched.population, sched.selection_weight
    path = engine._walk(init, M3.entries, n, w, uniforms[0])
    assert np.array_equal(path, simulate_counts_batch([init], M3, sched, uniforms)[0])
    monkeypatch.setattr(engine, "DRAW_BLOCK", k)
    assert np.array_equal(path, engine._walk(init, M3.entries, n, w, uniforms[0]))


@pytest.mark.parametrize("bad", [1.0, np.nan, -0.5])
@pytest.mark.parametrize("sampler", ["step", "walk", "lockstep"])
def test_draws_outside_the_unit_interval_are_rejected(sampler, bad):
    # u = 1.0 at [4, 0, 10] used to move a bearer out of the empty strategy
    sched = ScalingSchedule(
        horizon=1.0, resolution=3, alpha=1.0, beta=0.0, n_floor=14, n_scale=1e-9
    )
    n, w = sched.population, sched.selection_weight
    counts0, uniforms = np.array([4, 0, 10]), np.array([0.5, bad, 0.5])
    with pytest.raises(DomainError, match=r"\[0, 1\)"):
        if sampler == "step":
            step(DiscreteState(counts0, n, w), M3, SimpleNamespace(random=lambda: bad))
        elif sampler == "walk":
            engine._walk(counts0, M3.entries, n, w, uniforms)
        else:
            simulate_counts_batch([counts0], M3, sched, uniforms[None])


@settings(max_examples=100, deadline=None)
@given(chains(max_steps=40, max_replicas=4))
def test_paths_stay_on_the_lattice_and_move_one_unit(chain):
    matrix, schedule, counts0, uniforms = chain
    paths = simulate_counts_batch(counts0, matrix, schedule, uniforms)
    assert np.all(paths.sum(axis=2) == schedule.population)
    assert np.all(paths >= 0)
    diff = np.diff(paths, axis=1)
    size = np.abs(diff).sum(axis=2)
    one_move = (size == 2) & (diff.max(axis=2) == 1) & (diff.min(axis=2) == -1)
    assert np.all((size == 0) | one_move)


@settings(max_examples=150, deadline=None)
@given(chains(max_steps=1))
def test_exact_drift_is_the_table_mean(chain):
    matrix, schedule, counts0, _ = chain
    n = schedule.population
    state = DiscreteState(counts0[0], n, schedule.selection_weight)
    table = transition_table(state, matrix)
    moves = table.outcome_moves()[1:]
    probs = table.flat_probabilities()[1:]
    mean = np.zeros(state.dimension)
    np.add.at(mean, moves[:, 0], probs / n)
    np.add.at(mean, moves[:, 1], -probs / n)
    assert np.max(np.abs(exact_drift(state, matrix) - mean)) <= 1e-13


@st.composite
def states_with_empty_strategies(draw):
    """(state, matrix): M = 2..4 with at least one empty strategy, any w in
    [0, 1], and payoffs that may be zero."""
    m = draw(st.integers(2, 4))
    bearers = sorted(draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=m - 1)))
    n = draw(st.integers(max(2, len(bearers)), 40))
    size = len(bearers) - 1
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=size, max_size=size)))
    counts = np.zeros(m, dtype=np.int64)
    counts[bearers] = np.diff([0, *cuts, n])
    w = draw(st.floats(0.0, 1.0, allow_nan=False))
    payoff = st.just(0.0) | st.floats(0.01, 10.0)
    entries = draw(st.lists(payoff, min_size=m * m, max_size=m * m))
    return DiscreteState(counts, n, w), PayoffMatrix(np.reshape(entries, (m, m)))


@settings(max_examples=300, deadline=None)
@given(states_with_empty_strategies())
def test_cumulative_is_monotone_and_empty_moves_have_zero_width(case):
    state, matrix = case
    try:
        table = transition_table(state, matrix)
    except FitnessDegenerateError:
        assume(False)  # every bearer has zero fitness: no outcome law
    cum = table.cumulative
    widths = np.diff(cum, prepend=0.0)
    assert np.all(widths >= 0.0)
    assert cum[-1] == 1.0
    gainers, losers = table.outcome_moves()[1:].T
    empty = (state.counts[gainers] == 0) | (state.counts[losers] == 0)
    assert np.all(widths[1:][empty] == 0.0)


M3 = PayoffMatrix([[1.0, 0.0, 2.0], [2.0, 1.0, 0.0], [0.0, 2.0, 1.0]])


def test_simulate_counts_are_pinned():
    # sha256 of the count path produced by the scalar step loop this kernel replaced
    sched = ScalingSchedule(horizon=1.0, resolution=2048, alpha=0.6, beta=0.4)
    init = largest_remainder_counts(SimplexPoint([0.2, 0.3, 0.5]), sched.population)
    traj = simulate(init, M3, sched, seed=20260810)
    assert traj.counts.shape == (2049, 3)
    assert len(traj.states) == 2049
    assert hashlib.sha256(traj.counts.tobytes()).hexdigest() == (
        "ac184a4b7cab5839e460080817b6e502bb9f37a905118636d61f14a2ede92447"
    )


M4 = PayoffMatrix([[1.0, 2.0, 3.0, 4.0], [2.0, 3.0, 4.0, 1.0], [3.0, 4.0, 1.0, 2.0],
                   [4.0, 1.0, 2.0, 3.0]])


@pytest.mark.parametrize(
    "matrix, lam, schedule, digest",
    [
        # M = 3 at N = 32768, the population of the largest frozen-regime resolution
        (M3, [0.2, 0.3, 0.5],
         ScalingSchedule(horizon=1.0, resolution=2048, alpha=1.0, beta=0.5, n_scale=16.0),
         "e383a01edb7a6a761136905e1ba4b214eb6b9bb0e8508584427775dbf82e98cc"),
        # M = 4 at N = 776, the population of a k = 65536 simulate run
        (M4, [0.1, 0.2, 0.3, 0.4],
         ScalingSchedule(horizon=1.0, resolution=2048, alpha=1.0, beta=0.4, n_scale=776 / 2048),
         "3c64f1cd2d3d8c4342721a56a688dc47d26e6de759afe35e3d88bb397cc80366"),
    ],
    ids=["m3-n32768", "m4-n776"],
)
def test_lockstep_paths_are_pinned(matrix, lam, schedule, digest):
    # sha256 of 16 replica paths, so a change that flips a single step shows
    init = largest_remainder_counts(SimplexPoint(lam), schedule.population)
    uniforms = np.random.default_rng(20260810).random((16, schedule.resolution))
    paths = simulate_counts_batch(np.tile(init, (16, 1)), matrix, schedule, uniforms)
    assert paths.shape == (16, 2049, matrix.dimension)
    assert hashlib.sha256(paths.tobytes()).hexdigest() == digest


def kernel_head(matrix, schedule, counts):
    """Head of the lockstep loop's normalized cumulative for each column of counts (M, R)."""
    m, r = counts.shape
    coeffs = fitness_coefficients(matrix.entries, schedule.population, schedule.selection_weight)
    cum = np.empty((1 + m * (m - 1), r))
    engine._cumulative_filler(coeffs, np.vstack((counts, np.ones(r))), cum)()
    return cum[:-1]


@pytest.mark.parametrize(
    "matrix, schedule",
    [
        # the benchmark's payoff matrices at the population and weight of their workloads
        (PayoffMatrix([[1.0, 2.0], [3.0, 4.0]]),
         ScalingSchedule(horizon=1.0, resolution=512, alpha=0.6, beta=0.4)),
        (M3, ScalingSchedule(horizon=1.0, resolution=32768, alpha=1.0, beta=0.5)),
        (M4, ScalingSchedule(horizon=1.0, resolution=65536, alpha=0.6, beta=0.4)),
    ],
    ids=["m2", "m3", "m4"],
)
def test_cumulative_is_exact_at_one_replica_and_within_3_ulp_at_more(matrix, schedule):
    # the fitness product's rounding depends on R, so only R = 1 is bit for bit
    m, n, w = matrix.dimension, schedule.population, schedule.selection_weight
    rng = np.random.default_rng(20260810)
    for r in (2, 3, 4, 8, 16, 31, 64, 128, 200, 256):
        cuts = np.sort(rng.integers(0, n + 1, (m - 1, r)), axis=0)
        counts = np.diff(cuts, axis=0, prepend=0, append=n)
        alone = np.empty((m * (m - 1), r))
        for j in range(r):
            alone[:, j] = kernel_head(matrix, schedule, counts[:, j : j + 1])[:, 0]
            table = transition_table(DiscreteState(counts[:, j], n, w), matrix)
            assert np.array_equal(table.cumulative[:-1], alone[:, j])
        np.testing.assert_array_max_ulp(kernel_head(matrix, schedule, counts), alone, maxulp=3)


@settings(max_examples=100, deadline=None)
@given(chains(max_replicas=3), st.data())
def test_kept_columns_are_the_full_path_columns(chain, data):
    matrix, schedule, counts0, uniforms = chain
    grid = range(schedule.resolution + 1)
    columns = sorted(data.draw(st.sets(st.sampled_from(grid), min_size=1)))
    full = simulate_counts_batch(counts0, matrix, schedule, uniforms)
    kept = simulate_counts_batch(counts0, matrix, schedule, uniforms, columns)
    assert np.array_equal(kept, full[:, columns])


@pytest.mark.parametrize("columns", [[2, 1], [1, 1], [0, 7], [-1, 3]])
def test_columns_must_be_increasing_grid_indices(columns):
    sched = ScalingSchedule(horizon=1.0, resolution=6, alpha=0.6, beta=0.4, n_scale=5.0)
    counts0 = [largest_remainder_counts(SimplexPoint([0.2, 0.3, 0.5]), sched.population)]
    with pytest.raises(DomainError, match="columns"):
        simulate_counts_batch(counts0, M3, sched, np.full((1, 6), 0.5), columns)


def test_trajectory_export_bytes_are_pinned(tmp_path):
    sched = ScalingSchedule(horizon=1.0, resolution=1024, alpha=0.6, beta=0.4)
    init = largest_remainder_counts(SimplexPoint([0.1, 0.2, 0.3, 0.4]), sched.population)
    traj = simulate(init, M4, sched, seed=20260810)
    export_trajectory(traj, tmp_path / "t.csv", tmp_path / "t.json", M4)
    files = (tmp_path / "t.csv", tmp_path / "t.json")
    assert [hashlib.sha256(path.read_bytes()).hexdigest() for path in files] == [
        "283ec7634c22f931a0942fc41409126d1d4cb9cec707c5d07d4cf837c35c8591",
        "65295c1521ba1d7be0a904fca59d87a456d1eec1c01ea96cb19d26c3e3b73c83",
    ]


def test_simulate_reads_one_stream_like_the_batch_kernel():
    sched = ScalingSchedule(horizon=1.0, resolution=300, alpha=0.6, beta=0.4)
    init = largest_remainder_counts(SimplexPoint([0.2, 0.3, 0.5]), sched.population)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7)))
    uniforms = np.array([[rng.random() for _ in range(sched.resolution)]])
    batch = simulate_counts_batch([init], M3, sched, uniforms)
    assert np.array_equal(simulate(init, M3, sched, seed=7).counts, batch[0])


@settings(max_examples=100, deadline=None)
@given(
    n_scale=st.floats(0.25, 4.0),
    w_scale=st.floats(0.25, 4.0),
    lam=st.floats(0.05, 0.95),
)
def test_limit_speed_is_the_chain_drift_per_unit_time(n_scale, w_scale, lam):
    # the drift per unit time is w / (N tau) * (F + O(1/N)) / fbar; at
    # alpha + beta = 1, w / (N tau) is c up to N's rounding, fbar = 1 + O(w),
    # and for this matrix |F| <= 1/2 and the self-interaction term is <= 2/(N - 1)
    matrix = PayoffMatrix([[1.0, 2.0], [3.0, 4.0]])
    sched = ScalingSchedule(1.0, 2**22, 0.6, 0.4, n_scale=n_scale, w_scale=w_scale)
    n, w, c = sched.population, sched.selection_weight, sched.limit_speed
    state = DiscreteState(largest_remainder_counts(SimplexPoint([lam, 1.0 - lam]), n), n, w)
    field = replicator_field(state.proportions(), matrix)
    gap = exact_drift(state, matrix) / sched.tau - c * field
    assert np.abs(gap).max() <= c * (2.0 * w + 4.0 / n)


def per_row_largest_remainder(point: SimplexPoint, n: int) -> list:
    """The rounding rule one row at a time in Python floats: floor N * lam_i,
    then one more unit to each of the largest remainders, lowest index first."""
    scaled = [x * n for x in point.coords.tolist()]
    base = [math.floor(x) for x in scaled]
    order = sorted(range(len(base)), key=lambda i: (-(scaled[i] - base[i]), i))
    for i in order[: n - sum(base)]:
        base[i] += 1
    return base


# integer weights give remainders that tie exactly, float weights generic ones
weights = st.one_of(st.integers(0, 6), st.floats(0.0, 6.0))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 5).flatmap(
        lambda m: st.lists(st.lists(weights, min_size=m, max_size=m), min_size=1, max_size=6)
    ),
    st.integers(2, 10**6),
)
def test_array_rounding_is_the_per_row_rounding(rows, n):
    rows = np.array(rows, dtype=float)
    assume(np.all(rows.sum(axis=1) > 0))
    points = rows / rows.sum(axis=1, keepdims=True)
    counts = largest_remainder_rows(points, n)
    assert counts.dtype == np.int64
    for row, lam in zip(counts, points):
        assert row.tolist() == per_row_largest_remainder(SimplexPoint(lam), n)
        assert row.tolist() == largest_remainder_counts(SimplexPoint(lam), n).tolist()


def per_row_counts(row, n: int) -> np.ndarray:
    """The count rule one row at a time: each count read by require_integer."""
    arr = np.array(
        [require_integer(c, "strategy count", 0) for c in np.asarray(row, dtype=object)],
        dtype=np.int64,
    )
    if arr.sum() != n:
        raise DomainError(f"counts sum to {arr.sum()}, expected {n}")
    return arr


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda m: st.lists(
            st.tuples(
                st.lists(st.integers(-2, 6), min_size=m - 1, max_size=m - 1),
                st.sampled_from([0, 0, 0, 1]),
            ),
            min_size=1,
            max_size=5,
        )
    ),
    st.integers(2, 6),
    st.sampled_from(["int64", "int32", "halves", "list"]),
)
@example(heads=[([1], 0), ([1], 1)], n=2, form="int64")  # a later row off by one
@example(heads=[([-1], 0)], n=2, form="int64")  # [-1, 3] sums to 2
def test_count_rows_refuses_what_a_row_at_a_time_refuses(heads, n, form):
    # each row's last count makes it sum to n, unless the row is pushed off
    # by one; halves holds fractional counts and integral floats, both refused
    rows = [head + [n - sum(head) + off] for head, off in heads]
    counts = {
        "int64": np.array(rows, dtype=np.int64),
        "int32": np.array(rows, dtype=np.int32),
        "halves": np.array(rows) * 0.5,
        "list": rows,
    }[form]
    try:
        expected = np.array([per_row_counts(row, n) for row in counts])
    except DomainError:
        with pytest.raises(DomainError):
            count_rows(counts, n)
    else:
        assert np.array_equal(count_rows(counts, n), expected)
