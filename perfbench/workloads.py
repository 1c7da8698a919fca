"""Workload table: each entry is one real ``moranfield`` CLI invocation.

A workload is a CLI subcommand plus a JSON run config; only ``master_seed``
comes from the benchmark's ``--seed``.  The payoffs, laws, exponents and
resolutions are fixed, so every seed does the same amount of work and the
traced counts repeat exactly.

Why these four: each stresses a different layer of the measurement pipeline
(chain kernel -> RK4 pushforward -> exact W1 -> bootstrap CI and dual
certificate -> report), and each is the bypass for a change aimed at
another one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

HEADLINE_MATRIX = [[1.0, 2.0], [3.0, 4.0]]
HEADLINE_LAW = {"kind": "dirichlet", "concentration": [2.0, 2.0]}
DEFAULT_SEED = 20260810


@dataclass(frozen=True)
class Workload:
    """One CLI subcommand with its config; ``expected_counts`` gate the traced pass.

    ``expected_nonzero`` lists per-layer counters whose wrapper must fire on
    this workload: zero there means a wrapper missed its call site, which is a
    benchmark error, never a speed-up.  ``expected_counts`` are the exact
    counts of the seed code; a later algorithmic change may move them, so a
    mismatch is reported as drift rather than failing the run.
    """

    name: str
    command: str
    config: dict
    expected_nonzero: tuple = ()
    expected_counts: dict = field(default_factory=dict)

    def run_config(self, seed: int) -> dict:
        return dict(self.config, master_seed=int(seed))

    def argv(self, config_path, output_dir, jobs: int) -> list:
        return [
            self.command,
            "--config",
            str(config_path),
            "--output-dir",
            str(output_dir),
            "--jobs",
            str(jobs),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="converge-m2",
            command="converge",
            config={
                "payoff_matrix": HEADLINE_MATRIX,
                "initial_law": HEADLINE_LAW,
                "alpha": 0.6,
                "beta": 0.4,
                "resolutions": [64, 128, 256, 512],
                "ensemble_size": 256,
                "checkpoints": [0.25, 0.5, 1.0],
            },
            expected_nonzero=(
                "engine.batch_calls",
                "flow.pushforward_calls",
                "flow.field_evals",
                "transport.lsap_calls",
                "transport.w1_exact_calls",
                "transport.dual_calls",
                "lab.bootstrap_calls",
                "lab.bootstrap_resamples",
            ),
            expected_counts={
                "transport.lsap_calls": 2424,
                "engine.replica_steps": 245760,
                "flow.field_evals": 4096,
            },
        ),
        Workload(
            name="residual-m2",
            command="residual",
            config={
                "payoff_matrix": HEADLINE_MATRIX,
                "initial_law": HEADLINE_LAW,
                "alpha": 0.6,
                "beta": 0.4,
                "resolutions": [128, 512],
                "ensemble_size": 256,
            },
            expected_nonzero=(
                "engine.batch_calls",
                "flow.pushforward_calls",
                "flow.field_evals",
                "lab.floor_busy_s",
                "lab.residual_busy_s",
            ),
            expected_counts={
                "flow.pushforward_calls": 1548,
                "flow.field_evals": 49152,
            },
        ),
        Workload(
            name="regimes-m3-frozen",
            command="regimes",
            config={
                "payoff_matrix": [[1.0, 0.0, 2.0], [2.0, 1.0, 0.0], [0.0, 2.0, 1.0]],
                "initial_law": {"kind": "dirichlet", "concentration": [2.0, 2.0, 2.0]},
                "alpha": 1.0,
                "beta": 0.5,
                "resolutions": [2048, 8192, 32768],
                "ensemble_size": 128,
            },
            expected_nonzero=(
                "engine.batch_calls",
                "transport.lsap_calls",
                "transport.w1_exact_calls",
                "lab.bootstrap_calls",
            ),
            expected_counts={"engine.replica_steps": 5505024},
        ),
        Workload(
            name="simulate-m4",
            command="simulate",
            config={
                "payoff_matrix": [
                    [1.0, 2.0, 3.0, 4.0],
                    [2.0, 3.0, 4.0, 1.0],
                    [3.0, 4.0, 1.0, 2.0],
                    [4.0, 1.0, 2.0, 3.0],
                ],
                "initial_law": {"kind": "dirichlet", "concentration": [2.0, 2.0, 2.0, 2.0]},
                "alpha": 0.6,
                "beta": 0.4,
                "resolution": 65536,
            },
            expected_nonzero=("engine.scalar_steps", "engine.export_bytes"),
            expected_counts={"engine.scalar_steps": 65536},
        ),
    )
}
