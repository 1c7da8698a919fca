"""Command-line front end: configure, run, and export experiments.

Subcommands: ``simulate`` (one chain at one resolution), ``converge``
(resolution sweep against the flow limit), ``regimes`` (scaling-exponent
scan), ``residual`` (weak-form defect), ``validate`` (fast invariant suite).

A run is described by one JSON config file; command-line flags override file
values, which override built-in defaults (the output directory additionally
falls back to the ``MORANFIELD_OUTPUT_DIR`` environment variable).  Every run
writes a manifest with the resolved config and its hash, so outputs can be
reproduced byte for byte.

Exit codes: 0 success, 1 runtime failure, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .engine import ScalingSchedule, discretize_initial, export_trajectory, simulate
from .errors import (
    ConfigurationError,
    DomainError,
    RegimeError,
    SimulationError,
)
from .flow import FlowConfig
from .lab import (
    InitialLaw,
    convergence_experiment,
    draw_initial_samples,
    quadrature_checkpoints,
    regime_experiment,
    residual_floor,
    run_ensemble,
    standard_test_functions,
    weak_form_residual,
)
from .simplex import PayoffMatrix, SimplexPoint

OUTPUT_DIR_ENV = "MORANFIELD_OUTPUT_DIR"
RESIDUAL_SCHEMA = "moranfield-residual-report/v1"
MANIFEST_SCHEMA = "moranfield-manifest/v1"

_DEFAULTS = {
    "horizon": 1.0,
    "alpha": 0.6,
    "beta": 0.4,
    "n_floor": 2,
    "n_scale": 1.0,
    "w_scale": 1.0,
    "ensemble_size": 256,
    "checkpoints": [0.25, 0.5, 1.0],
    "master_seed": 0,
    "quadrature_stride": 0,
    "max_exact_size": 4096,
    "verdict": {"max_consecutive_ratio": 1.2, "final_ratio": 0.5},
}

# keys a config may carry besides the defaulted ones
_OPTIONAL_KEYS = {
    "payoff_matrix",
    "initial_law",
    "resolutions",
    "resolution",
    "flow_step",
    "output_dir",
}
_VERDICT_KEYS = {"max_consecutive_ratio", "final_ratio", "final_checkpoint"}


def _check_keys(data: dict) -> None:
    """Reject keys no command reads, so a typo cannot fall back to a default."""
    if not isinstance(data, dict):
        raise ConfigurationError("config must be a JSON object")
    for key in data:
        if key not in _DEFAULTS and key not in _OPTIONAL_KEYS:
            raise ConfigurationError(f"unknown config key {key!r}")
    verdict = data.get("verdict")
    if verdict is None:
        return
    if not isinstance(verdict, dict):
        raise ConfigurationError("config key 'verdict' must be an object")
    for key in verdict:
        if key not in _VERDICT_KEYS:
            raise ConfigurationError(f"unknown config key 'verdict.{key}'")


class RunConfig:
    """Resolved run configuration with module preconditions checked up front."""

    def __init__(self, data: dict):
        _check_keys(data)
        merged = dict(_DEFAULTS)
        merged.update({k: v for k, v in data.items() if v is not None})
        self.data = merged
        try:
            self.matrix = PayoffMatrix(merged["payoff_matrix"])
            self.law = InitialLaw.from_dict(merged["initial_law"])
        except KeyError as err:
            raise ConfigurationError(f"config is missing required key {err}") from err
        except (DomainError, SimulationError) as err:
            raise ConfigurationError(f"invalid config value: {err}") from err
        if self.law.dimension != self.matrix.dimension:
            raise ConfigurationError(
                f"initial law dimension {self.law.dimension} does not match "
                f"payoff matrix dimension {self.matrix.dimension}"
            )
        self.horizon = float(merged["horizon"])
        self.alpha = float(merged["alpha"])
        self.beta = float(merged["beta"])
        self.ensemble_size = int(merged["ensemble_size"])
        self.checkpoints = [float(t) for t in merged["checkpoints"]]
        self.master_seed = int(merged["master_seed"])
        self.verdict = dict(_DEFAULTS["verdict"], **merged.get("verdict", {}))
        if self.horizon <= 0:
            raise ConfigurationError(f"horizon must be positive, got {self.horizon}")
        if self.ensemble_size < 2:
            raise ConfigurationError(
                f"ensemble_size must be at least 2, got {self.ensemble_size}"
            )
        ks = merged.get("resolutions") or []
        try:
            valid = isinstance(ks, list) and all(int(k) > 0 for k in ks)
        except (TypeError, ValueError):
            valid = False
        if not valid:
            raise ConfigurationError(
                f"resolutions must be a list of positive integers, got {ks!r}"
            )
        if any(t < 0 or t > self.horizon for t in self.checkpoints):
            raise ConfigurationError(
                f"checkpoints must lie in [0, {self.horizon}], got {self.checkpoints}"
            )

    @classmethod
    def load(cls, path: str | None, overrides: dict) -> "RunConfig":
        data = {}
        if path is not None:
            try:
                data = json.loads(Path(path).read_text())
            except FileNotFoundError as err:
                raise ConfigurationError(f"config file not found: {path}") from err
            except json.JSONDecodeError as err:
                raise ConfigurationError(
                    f"config file {path} line {err.lineno}: {err.msg}"
                ) from err
        data.update({k: v for k, v in overrides.items() if v is not None})
        return cls(data)

    def schedule(self, resolution: int) -> ScalingSchedule:
        return ScalingSchedule(
            horizon=self.horizon,
            resolution=int(resolution),
            alpha=self.alpha,
            beta=self.beta,
            n_floor=int(self.data["n_floor"]),
            n_scale=float(self.data["n_scale"]),
            w_scale=float(self.data["w_scale"]),
        )

    def resolutions(self) -> list[int]:
        ks = self.data.get("resolutions")
        if not ks:
            raise ConfigurationError("config key 'resolutions' (list of k) is required")
        return [int(k) for k in ks]

    def flow_config(self) -> FlowConfig:
        step = self.data.get("flow_step") or self.horizon / 1024.0
        return FlowConfig(step_size=float(step))

    def require_convergent_regime(self) -> None:
        if self.alpha <= 0.5:
            raise ConfigurationError(
                f"converge requires alpha > 1/2 (the critical threshold below "
                f"which fluctuations dominate); got alpha={self.alpha}"
            )
        if abs(self.alpha + self.beta - 1.0) > 1e-9:
            raise ConfigurationError(
                f"converge requires alpha + beta = 1, got "
                f"{self.alpha} + {self.beta} = {self.alpha + self.beta}; "
                f"use `regimes` (or --regime) for other exponents"
            )

    def to_dict(self) -> dict:
        out = dict(self.data)
        out["payoff_matrix"] = self.matrix.to_rows()
        out["initial_law"] = self.law.to_dict()
        return out

    def sha256(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()


def _resolve_output_dir(flag_value: str | None, config: RunConfig) -> Path:
    candidate = (
        flag_value
        or config.data.get("output_dir")
        or os.environ.get(OUTPUT_DIR_ENV)
        or "moranfield-out"
    )
    path = Path(candidate)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(outdir: Path, command: str, config: RunConfig) -> None:
    import scipy

    manifest = {
        "schema": MANIFEST_SCHEMA,
        "command": command,
        "config": config.to_dict(),
        "config_sha256": config.sha256(),
        "master_seed": config.master_seed,
        "package_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
    }
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_simulate(args) -> int:
    config = RunConfig.load(args.config, {"master_seed": args.seed, "resolutions": None})
    resolution = args.k or config.data.get("resolution")
    if not resolution:
        raise ConfigurationError("simulate needs a resolution (config 'resolution' or --k)")
    schedule = config.schedule(int(resolution))
    lam0 = draw_initial_samples(config.law, 1, config.master_seed)[0]
    initial = discretize_initial(SimplexPoint(lam0), schedule)
    traj = simulate(initial, config.matrix, schedule, seed=config.master_seed)
    outdir = _resolve_output_dir(args.output_dir, config)
    export_trajectory(
        traj, outdir / "trajectory.csv", outdir / "trajectory_sidecar.json", config.matrix
    )
    _write_manifest(outdir, "simulate", config)
    print(
        f"simulate: k={schedule.resolution} N={schedule.population} "
        f"w={schedule.selection_weight:.6g} -> {outdir / 'trajectory.csv'}"
    )
    return 0


def _verdict(report, thresholds) -> tuple[bool, str]:
    ratio_cap = float(thresholds["max_consecutive_ratio"])
    final_ratio = float(thresholds["final_ratio"])
    by_kt = {
        (rec.resolution, c.t): c.w1_to_limit
        for rec in report.resolutions
        for c in rec.checkpoints
    }
    ks = [rec.resolution for rec in report.resolutions]
    ts = [c.t for c in report.resolutions[0].checkpoints]
    monotone = all(
        by_kt[(kb, t)] <= ratio_cap * by_kt[(ka, t)]
        for ka, kb in zip(ks, ks[1:])
        for t in ts
    )
    t_final = thresholds.get("final_checkpoint", max(ts))
    final_ok = by_kt[(ks[-1], t_final)] <= final_ratio * by_kt[(ks[0], t_final)]
    observed = by_kt[(ks[-1], t_final)] / by_kt[(ks[0], t_final)]
    detail = (
        f"monotone(slack {ratio_cap:g}): {'ok' if monotone else 'violated'}; "
        f"final ratio {observed:.3f} (threshold {final_ratio:g}) at t={t_final:g}"
    )
    return monotone and final_ok, detail


def cmd_converge(args) -> int:
    config = RunConfig.load(
        args.config,
        {
            "master_seed": args.seed,
            "ensemble_size": args.ensemble_size,
            "resolutions": args.resolutions,
        },
    )
    if args.regime:
        return _run_regimes(args, config)
    config.require_convergent_regime()
    ks = config.resolutions()
    if args.dry_run:
        print("k        tau_k        N_k      w_k")
        for k in ks:
            sched = config.schedule(k)
            print(
                f"{k:<8d} {sched.tau:<12.6g} {sched.population:<8d} "
                f"{sched.selection_weight:.6g}"
            )
        return 0
    report = convergence_experiment(
        config.law,
        config.matrix,
        config.schedule(ks[0]),
        ks,
        config.ensemble_size,
        config.checkpoints,
        config.master_seed,
        config.flow_config(),
        jobs=args.jobs,
    )
    outdir = _resolve_output_dir(args.output_dir, config)
    report.to_json(outdir / "report.json")
    report.to_csv(outdir / "report.csv")
    _write_manifest(outdir, "converge", config)
    passed, detail = _verdict(report, config.verdict)
    print(f"{'PASS' if passed else 'FAIL'}: {detail}")
    return 0


def _run_regimes(args, config: RunConfig) -> int:
    report = regime_experiment(
        config.law,
        config.matrix,
        config.alpha,
        config.beta,
        config.resolutions(),
        config.ensemble_size,
        config.master_seed,
        horizon=config.horizon,
        n_scale=float(config.data["n_scale"]),
        w_scale=float(config.data["w_scale"]),
        jobs=args.jobs,
    )
    outdir = _resolve_output_dir(args.output_dir, config)
    report.to_json(outdir / "regimes.json")
    report.to_csv(outdir / "regimes.csv")
    _write_manifest(outdir, "regimes", config)
    final = report.records[-1]
    print(
        f"regime: {report.classification} (alpha+beta={config.alpha + config.beta:g}); "
        f"W1(start,end) at k={final.resolution}: {final.w1_start_end:.6g}"
    )
    return 0


def cmd_regimes(args) -> int:
    config = RunConfig.load(
        args.config,
        {
            "master_seed": args.seed,
            "ensemble_size": args.ensemble_size,
            "resolutions": args.resolutions,
        },
    )
    return _run_regimes(args, config)


def cmd_residual(args) -> int:
    config = RunConfig.load(
        args.config,
        {
            "master_seed": args.seed,
            "ensemble_size": args.ensemble_size,
            "resolutions": args.resolutions,
        },
    )
    flow_cfg = config.flow_config()
    records = []
    for k in config.resolutions():
        schedule = config.schedule(k)
        stride = int(config.data["quadrature_stride"]) or (1 if k <= 128 else 4)
        nodes = quadrature_checkpoints(schedule, stride=stride)
        ensemble = run_ensemble(
            config.law,
            config.matrix,
            schedule,
            config.ensemble_size,
            nodes,
            config.master_seed,
            jobs=args.jobs,
        )
        for phi in standard_test_functions(config.matrix.dimension, config.horizon):
            est = weak_form_residual(ensemble, config.matrix, phi)
            floor = residual_floor(
                config.law,
                config.matrix,
                schedule,
                config.ensemble_size,
                nodes,
                config.master_seed,
                phi,
                flow_cfg,
            )
            records.append(
                {
                    "k": k,
                    "phi": phi.name,
                    "family_version": phi.version,
                    "residual": est.value,
                    "ci_halfwidth": est.ci_halfwidth,
                    "floor": floor.value,
                    "floor_ci_halfwidth": floor.ci_halfwidth,
                    "quadrature_nodes": est.node_count,
                }
            )
            print(
                f"k={k} phi={phi.name}: residual={est.value:.6g} "
                f"(ci {est.ci_halfwidth:.3g}, floor {floor.value + floor.ci_halfwidth:.3g})"
            )
    outdir = _resolve_output_dir(args.output_dir, config)
    payload = {
        "schema": RESIDUAL_SCHEMA,
        "config_sha256": config.sha256(),
        "records": records,
    }
    with open(outdir / "residual.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(outdir, "residual", config)
    return 0


# -- validate ----------------------------------------------------------------


def _check_transitions(rng) -> str | None:
    from .engine import DiscreteState, transition_table

    for _ in range(60):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 13))
        w = float(rng.choice([0.0, 0.1, 1.0]))
        entries = rng.random((m, m)) * 6
        counts = rng.multinomial(n, np.full(m, 1.0 / m))
        state = DiscreteState(counts, n, w)
        table = transition_table(state, PayoffMatrix(entries))
        total = table.stay_prob + table.move_probs.sum()
        if abs(total - 1.0) > 1e-12:
            return f"table sums to {total!r} for counts={counts.tolist()}, w={w}"
        lam = counts / n
        pay = (n / (n - 1)) * (entries @ lam) - np.diagonal(entries) / (n - 1)
        fit = (1 - w) + w * pay
        fbar = lam @ fit
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                expected = lam[i] * fit[i] * lam[j] / fbar
                if abs(table.move_probs[i, j] - expected) > 1e-12:
                    return f"move ({i},{j}) off by {table.move_probs[i, j] - expected:.2e}"
    return None


def _check_drift(rng) -> str | None:
    from .engine import DiscreteState, exact_drift, transition_table

    for _ in range(60):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 13))
        w = float(rng.choice([0.0, 0.1, 1.0]))
        state = DiscreteState(rng.multinomial(n, np.full(m, 1.0 / m)), n, w)
        mat = PayoffMatrix(rng.random((m, m)) * 6)
        table = transition_table(state, mat)
        mean = np.zeros(m)
        for i in range(m):
            for j in range(m):
                if i != j:
                    delta = np.zeros(m)
                    delta[i], delta[j] = 1.0 / n, -1.0 / n
                    mean += table.move_probs[i, j] * delta
        gap = np.max(np.abs(exact_drift(state, mat) - mean))
        if gap > 1e-13:
            return f"drift deviates from table mean by {gap:.2e}"
    return None


def _check_w1(rng) -> str | None:
    import itertools

    from .transport import EmpiricalMeasure, w1_exact

    for _ in range(10):
        mu = EmpiricalMeasure(rng.dirichlet(np.ones(2), size=5))
        nu = EmpiricalMeasure(rng.dirichlet(np.ones(2), size=5))
        dist, _ = w1_exact(mu, nu)
        best = min(
            np.mean(np.linalg.norm(mu.array - nu.array[list(p)], axis=1))
            for p in itertools.permutations(range(5))
        )
        if abs(dist - best) > 1e-10:
            return f"assignment value {dist} != brute force {best}"
    for _ in range(10):
        triple = [EmpiricalMeasure(rng.dirichlet(np.ones(3), size=8)) for _ in range(3)]
        d_ab, _ = w1_exact(triple[0], triple[1])
        d_ac, _ = w1_exact(triple[0], triple[2])
        d_cb, _ = w1_exact(triple[2], triple[1])
        d_ba, _ = w1_exact(triple[1], triple[0])
        if abs(d_ab - d_ba) > 1e-12 or d_ab > d_ac + d_cb + 1e-10:
            return "metric axioms violated on a random triple"
    return None


def _check_dual(rng) -> str | None:
    from .transport import EmpiricalMeasure, random_witnesses, w1_dual_lower_bound, w1_exact

    for _ in range(10):
        mu = EmpiricalMeasure(rng.dirichlet(np.ones(3), size=8))
        nu = EmpiricalMeasure(rng.dirichlet(np.ones(3), size=8))
        bound = w1_dual_lower_bound(mu, nu, random_witnesses(3, 16, rng))
        exact, _ = w1_exact(mu, nu)
        if bound > exact + 1e-10:
            return f"dual bound {bound} exceeds exact {exact}"
    return None


def _check_rk4(rng) -> str | None:
    from .flow import flow

    mat = PayoffMatrix([[1.0, 2.0], [3.0, 4.0]])
    p = SimplexPoint([0.35, 0.65])
    ref = flow(p, mat, 1.0, FlowConfig(step_size=(1.0 / 32) / 64)).coords
    errs = [
        np.linalg.norm(flow(p, mat, 1.0, FlowConfig(step_size=1.0 / d)).coords - ref)
        for d in (8, 16, 32)
    ]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    if min(orders) < 3.7:
        return f"observed RK4 order {min(orders):.2f} < 3.7"
    return None


def cmd_validate(args) -> int:
    rng = np.random.default_rng(args.seed or 0)
    checks = [
        ("transition normalization & exactness", _check_transitions),
        ("drift consistency", _check_drift),
        ("W1 exactness & metric axioms", _check_w1),
        ("Kantorovich dual bound", _check_dual),
        ("RK4 order", _check_rk4),
    ]
    failures = []
    for name, fn in checks:
        problem = fn(rng)
        if problem is None:
            print(f"[ ok ] {name}")
        else:
            print(f"[FAIL] {name}: {problem}")
            failures.append(name)
    if failures:
        print(f"validate: {len(failures)} check(s) failed: {', '.join(failures)}")
        return 1
    print("validate: all checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moranfield",
        description="Moran-process simulation and mean-field convergence toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=False, help="JSON run config file")
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--output-dir", default=None, help="output directory")
        p.add_argument(
            "--jobs",
            type=int,
            default=os.cpu_count() or 1,
            help="worker processes; one fork-started pool per run serves the chain "
            "chunks and the bootstrap solves (results are identical for any value)",
        )

    p_sim = sub.add_parser("simulate", help="run a single chain at one resolution")
    common(p_sim)
    p_sim.add_argument("--k", type=int, default=None, help="grid resolution")
    p_sim.set_defaults(fn=cmd_simulate)

    p_conv = sub.add_parser("converge", help="resolution sweep against the flow limit")
    common(p_conv)
    p_conv.add_argument("--resolutions", type=int, nargs="+", default=None)
    p_conv.add_argument("--ensemble-size", type=int, default=None)
    p_conv.add_argument("--dry-run", action="store_true", help="print the schedule table only")
    p_conv.add_argument(
        "--regime",
        action="store_true",
        help="allow alpha+beta != 1 and run the regime scan instead",
    )
    p_conv.set_defaults(fn=cmd_converge)

    p_reg = sub.add_parser("regimes", help="scaling-regime scan")
    common(p_reg)
    p_reg.add_argument("--resolutions", type=int, nargs="+", default=None)
    p_reg.add_argument("--ensemble-size", type=int, default=None)
    p_reg.set_defaults(fn=cmd_regimes)

    p_res = sub.add_parser("residual", help="weak-form residual of the chain law")
    common(p_res)
    p_res.add_argument("--resolutions", type=int, nargs="+", default=None)
    p_res.add_argument("--ensemble-size", type=int, default=None)
    p_res.set_defaults(fn=cmd_residual)

    p_val = sub.add_parser("validate", help="fast invariant suite")
    p_val.add_argument("--seed", type=int, default=0)
    p_val.set_defaults(fn=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigurationError, RegimeError) as err:
        print(f"FAIL: configuration: {err}", file=sys.stderr)
        return 2
    except SimulationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
