"""Property tests of the one chain kernel behind ``step``, ``simulate`` and
``simulate_counts_batch``, against the exact transition table."""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranfield.engine import (
    DiscreteState,
    ScalingSchedule,
    discretize_initial,
    exact_drift,
    export_trajectory,
    import_trajectory,
    simulate,
    simulate_counts_batch,
    step,
    transition_table,
)
from moranfield.errors import DomainError
from moranfield.simplex import PayoffMatrix, SimplexPoint

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
    idx = int(np.searchsorted(table.flat_cumulative(), u, side="right"))
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
    cum = transition_table(state, matrix).flat_cumulative()
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
    assert np.array_equal(
        moved.counts, simulate_counts_batch(counts0, matrix, schedule, uniforms)[0, 1]
    )


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


M3 = PayoffMatrix([[1.0, 0.0, 2.0], [2.0, 1.0, 0.0], [0.0, 2.0, 1.0]])


def test_simulate_counts_are_pinned():
    # sha256 of the count path produced by the scalar step loop this kernel replaced
    sched = ScalingSchedule(horizon=1.0, resolution=2048, alpha=0.6, beta=0.4)
    init = discretize_initial(SimplexPoint([0.2, 0.3, 0.5]), sched)
    traj = simulate(init, M3, sched, seed=20260810)
    assert traj.counts.shape == (2049, 3)
    assert len(traj.states) == 2049
    assert hashlib.sha256(traj.counts.tobytes()).hexdigest() == (
        "ac184a4b7cab5839e460080817b6e502bb9f37a905118636d61f14a2ede92447"
    )


def test_simulate_reads_one_stream_like_the_batch_kernel():
    sched = ScalingSchedule(horizon=1.0, resolution=300, alpha=0.6, beta=0.4)
    init = discretize_initial(SimplexPoint([0.2, 0.3, 0.5]), sched)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7)))
    uniforms = np.array([[rng.random() for _ in range(sched.resolution)]])
    batch = simulate_counts_batch([init.counts], M3, sched, uniforms)
    assert np.array_equal(simulate(init, M3, sched, seed=7).counts, batch[0])


def test_import_rejects_a_row_that_does_not_sum_to_n(tmp_path):
    sched = ScalingSchedule(horizon=1.0, resolution=6, alpha=0.6, beta=0.4, n_scale=5.0)
    init = discretize_initial(SimplexPoint([0.2, 0.3, 0.5]), sched)
    traj = simulate(init, M3, sched, seed=3)
    csv_path, sidecar = tmp_path / "t.csv", tmp_path / "t.json"
    export_trajectory(traj, csv_path, sidecar, M3)
    lines = csv_path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[1] = repr(float(cells[1]) + 1.0 / sched.population)
    lines[3] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DomainError, match="row 3"):
        import_trajectory(csv_path, sidecar)
