import csv
import tracemalloc

import numpy as np

from moranfield.engine import ScalingSchedule, Trajectory, export_trajectory
from moranfield.lab import (
    InitialLaw,
    convergence_experiment,
    convergence_table,
    regime_experiment,
    regime_table,
)
from moranfield.report import write_csv
from moranfield.simplex import PayoffMatrix

A22 = PayoffMatrix([[1.0, 2.0], [3.0, 4.0]])
M4 = PayoffMatrix([[1.0, 2.0, 3.0, 4.0], [2.0, 3.0, 4.0, 1.0], [3.0, 4.0, 1.0, 2.0],
                   [4.0, 1.0, 2.0, 3.0]])


def csv_writer_bytes(path, header, rows) -> bytes:
    """Reference: ``csv.writer``'s default dialect, one row at a time, each
    float cell as ``.17g`` and every other cell as it is."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{x:.17g}" if isinstance(x, float) else x for x in row])
    return path.read_bytes()


def assert_table_bytes(tmp_path, header, block):
    write_csv(tmp_path / "a.csv", header, [block])
    rows = list(zip(*block))
    assert rows
    expected = csv_writer_bytes(tmp_path / "b.csv", header, rows)
    assert (tmp_path / "a.csv").read_bytes() == expected


def test_converge_table_bytes_match_csv_writer(tmp_path):
    base = ScalingSchedule(horizon=1.0, resolution=8, alpha=0.6, beta=0.4)
    # the checkpoint 1 is an int among floats in the t column
    report = convergence_experiment(InitialLaw.uniform(2), A22, base, [8, 16], 8, (0.5, 1), 15)
    header, (block,) = convergence_table(report)
    assert_table_bytes(tmp_path, header, block)


def test_regimes_table_bytes_match_csv_writer(tmp_path):
    base = ScalingSchedule(horizon=1.0, resolution=8, alpha=1.0, beta=0.5)
    report = regime_experiment(InitialLaw.uniform(2), A22, base, [8, 16], 8, 20)
    header, (block,) = regime_table(report)
    assert_table_bytes(tmp_path, header, block)


def test_mixed_columns_match_csv_writer(tmp_path):
    block = [[1, 0.1, 2, 1e16], [3, 4, 5, 6], [0.5, float("nan"), -float("inf"), 1 / 3]]
    assert_table_bytes(tmp_path, ["a", "b", "c"], block)


def test_trajectory_bytes_match_csv_writer(tmp_path):
    sched = ScalingSchedule(horizon=1.0, resolution=7, alpha=0.6, beta=0.4, n_scale=3.0)
    n = sched.population
    counts = np.random.default_rng(4).multinomial(n, [0.1, 0.2, 0.3, 0.4], size=8)
    export_trajectory(Trajectory(sched, counts, seed=1), tmp_path / "t.csv",
                      tmp_path / "t.json", M4)
    header = ["t", "lambda_1", "lambda_2", "lambda_3", "lambda_4"]
    rows = [[t, *(c / n for c in row)] for t, row in zip(sched.times().tolist(), counts.tolist())]
    expected = csv_writer_bytes(tmp_path / "b.csv", header, rows)
    assert (tmp_path / "t.csv").read_bytes() == expected


def test_trajectory_export_memory_is_bounded_by_its_blocks(tmp_path):
    # 65 537 rows of M = 4: held as Python rows at once they take about 10 MB
    sched = ScalingSchedule(horizon=1.0, resolution=65536, alpha=0.6, beta=0.4)
    counts = np.random.default_rng(5).multinomial(
        sched.population, [0.25] * 4, size=sched.resolution + 1
    )
    traj = Trajectory(sched, counts, seed=0)
    tracemalloc.start()
    try:
        export_trajectory(traj, tmp_path / "t.csv", tmp_path / "t.json", M4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert len((tmp_path / "t.csv").read_bytes().splitlines()) == sched.resolution + 2

