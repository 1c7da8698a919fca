"""Command-line front end: configure, run, and export experiments.

Subcommands: ``simulate`` (one chain at one resolution), ``converge``
(resolution sweep against the flow limit), ``regimes`` (scaling-exponent
scan), ``residual`` (weak-form defect), ``validate`` (the acceptance oracles
at small counts).

A run is described by one JSON config file; command-line flags override file
values, which override built-in defaults (the output directory additionally
falls back to the ``MORANFIELD_OUTPUT_DIR`` environment variable).  Every run
writes a manifest with the resolved config and its hash, so outputs can be
reproduced byte for byte.

Exit codes: 0 success, 1 runtime failure, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, oracles
from .engine import ScalingSchedule, discretize_initial, export_trajectory, simulate
from .errors import (
    ConfigurationError,
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
from .report import RESIDUAL_SCHEMA, payload_digest, write_csv, write_json, write_report
from .simplex import PayoffMatrix, SimplexPoint
from .transport import EXACT_SIZE_CAP

OUTPUT_DIR_ENV = "MORANFIELD_OUTPUT_DIR"
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
_INTEGER_KEYS = (
    "n_floor", "ensemble_size", "master_seed", "quadrature_stride", "max_exact_size", "resolution"
)
# how each numeric key is read later; a value its reader rejects fails at load
_NUMBER_READERS = {
    **dict.fromkeys(_INTEGER_KEYS, int),
    **dict.fromkeys(("horizon", "alpha", "beta", "n_scale", "w_scale", "flow_step"), float),
}
# the initial_law key that holds each kind's value; every kind may carry "dimension"
_LAW_KEYS = {"dirac": "point", "dirichlet": "concentration", "uniform": "dimension"}


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


def _truncated(value) -> bool:
    """Whether ``int(value)`` would drop a fractional part, which the manifest keeps."""
    return isinstance(value, float) and not value.is_integer()


def _check_values(merged: dict) -> None:
    """Reject at load, naming the key, a value that a reader would fail on later."""
    values = [(key, merged.get(key), read) for key, read in _NUMBER_READERS.items()]
    values += [(f"verdict.{key}", value, float) for key, value in merged["verdict"].items()]
    values.append(("checkpoints", merged["checkpoints"], lambda ts: [float(t) for t in ts]))
    for key, value, read in values:
        try:
            numbers = np.ravel(read(value)) if value is not None else []
            if not np.isfinite([x for x in numbers if isinstance(x, float)]).all():
                raise ValueError  # float() reads "nan", "inf" and 1e999
        except (TypeError, ValueError, OverflowError):
            msg = f"config key {key!r} must be numeric and finite, got {value!r}"
            raise ConfigurationError(msg) from None
    for key in _INTEGER_KEYS:
        if _truncated(merged.get(key)):
            raise ConfigurationError(f"config key {key!r} must be an integer, got {merged[key]!r}")
    step = merged.get("flow_step", 1.0)
    if float(step) <= 0.0:
        raise ConfigurationError(f"config key 'flow_step' must be positive, got {step!r}")
    law = merged.get("initial_law", {})
    if not isinstance(law, dict):
        raise ConfigurationError("config key 'initial_law' must be an object")
    # an unknown kind is reported by InitialLaw.from_dict
    extra = set(law) - {"kind", "dimension", _LAW_KEYS.get(law.get("kind"))}
    if law.get("kind") in _LAW_KEYS and extra:
        raise ConfigurationError(
            f"unknown config key 'initial_law.{min(extra)}' for a {law['kind']} law"
        )


def _read_value(merged: dict, key: str, read, name=None):
    """``read(merged[key])``, a missing or bad value reported as a configuration
    error that names ``name`` (default ``key``)."""
    try:
        return read(merged[key])
    except KeyError as err:
        raise ConfigurationError(f"config is missing required key {err}") from err
    except (SimulationError, TypeError, ValueError) as err:
        raise ConfigurationError(f"invalid config key {name or key!r}: {err}") from err


class RunConfig:
    """Resolved run configuration with module preconditions checked up front."""

    def __init__(self, data: dict):
        _check_keys(data)
        merged = dict(_DEFAULTS)
        merged.update({k: v for k, v in data.items() if v is not None})
        self.data = merged
        _check_values(merged)
        self.ensemble_size = int(merged["ensemble_size"])
        self.checkpoints = [float(t) for t in merged["checkpoints"]]
        self.master_seed = int(merged["master_seed"])
        self.verdict = dict(_DEFAULTS["verdict"], **merged.get("verdict", {}))
        kind = merged.get("initial_law", {}).get("kind")
        law_name = f"initial_law.{_LAW_KEYS.get(kind, 'kind')}"
        self.matrix = _read_value(merged, "payoff_matrix", PayoffMatrix)
        self.law = _read_value(merged, "initial_law", InitialLaw.from_dict, law_name)
        try:
            # every resolution's schedule is this one with its resolution
            # replaced; it checks its own ranges (horizon, exponents, prefactors)
            self.base = ScalingSchedule(
                horizon=float(merged["horizon"]),
                resolution=1,
                alpha=float(merged["alpha"]),
                beta=float(merged["beta"]),
                n_floor=int(merged["n_floor"]),
                n_scale=float(merged["n_scale"]),
                w_scale=float(merged["w_scale"]),
            )
        except SimulationError as err:
            raise ConfigurationError(f"invalid config value: {err}") from err
        if self.law.dimension != self.matrix.dimension:
            raise ConfigurationError(
                f"initial law dimension {self.law.dimension} does not match "
                f"payoff matrix dimension {self.matrix.dimension}"
            )
        if self.ensemble_size < 2:
            raise ConfigurationError(
                f"ensemble_size must be at least 2, got {self.ensemble_size}"
            )
        ks = merged.get("resolutions") or []
        try:
            valid = isinstance(ks, list) and all(int(k) > 0 and not _truncated(k) for k in ks)
        except (TypeError, ValueError):
            valid = False
        if not valid:
            raise ConfigurationError(
                f"config key 'resolutions' must be a list of positive integers, got {ks!r}"
            )
        if not self.checkpoints:
            raise ConfigurationError("config key 'checkpoints' must list at least one time")
        if any(t < 0 or t > self.base.horizon for t in self.checkpoints):
            raise ConfigurationError(
                f"checkpoints must lie in [0, {self.base.horizon}], got {self.checkpoints}"
            )
        for key, least in (("master_seed", 0), ("quadrature_stride", 0), ("resolution", 1)):
            if merged.get(key) is not None and int(merged[key]) < least:
                raise ConfigurationError(
                    f"config key {key!r} must be >= {least}, got {merged[key]!r}"
                )
        final = self.verdict.get("final_checkpoint")
        if final is not None and float(final) not in self.checkpoints:
            raise ConfigurationError(
                f"config key 'verdict.final_checkpoint' ({final!r}) is not one of "
                f"the checkpoints {self.checkpoints}"
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
        return replace(self.base, resolution=int(resolution))

    def resolutions(self) -> list[int]:
        ks = self.data.get("resolutions")
        if not ks:
            raise ConfigurationError("config key 'resolutions' (list of k) is required")
        return [int(k) for k in ks]

    def flow_config(self) -> FlowConfig:
        step = self.data.get("flow_step", self.base.horizon / 1024.0)
        return FlowConfig(step_size=float(step))

    def require_exact_size(self) -> None:
        """Reject, before any chain step, an ensemble too large for exact W1."""
        if self.ensemble_size > EXACT_SIZE_CAP:
            raise ConfigurationError(
                f"ensemble_size {self.ensemble_size} exceeds the exact W1 cap {EXACT_SIZE_CAP}"
            )

    def require_convergent_regime(self) -> None:
        alpha, beta = self.base.alpha, self.base.beta
        if alpha <= 0.5:
            raise ConfigurationError(
                f"converge requires alpha > 1/2 (the critical threshold below "
                f"which fluctuations dominate); got alpha={alpha}"
            )
        if abs(alpha + beta - 1.0) > 1e-9:
            raise ConfigurationError(
                f"converge requires alpha + beta = 1, got "
                f"{alpha} + {beta} = {alpha + beta}; "
                f"use `regimes` (or --regime) for other exponents"
            )

    def to_dict(self) -> dict:
        out = dict(self.data)
        out["payoff_matrix"] = self.matrix.to_rows()
        out["initial_law"] = self.law.to_dict()
        return out

    def sha256(self) -> str:
        return payload_digest(self.to_dict())


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
    write_json(outdir / "manifest.json", manifest)


def cmd_simulate(args) -> int:
    config = RunConfig.load(args.config, {"master_seed": args.seed, "resolution": args.k})
    if config.data.get("resolution") is None:
        raise ConfigurationError("simulate needs a resolution (config 'resolution' or --k)")
    schedule = config.schedule(config.data["resolution"])
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
        (rec.k, c.t): c.w1_to_limit
        for rec in report.resolutions
        for c in rec.checkpoints
    }
    ks = [rec.k for rec in report.resolutions]
    ts = [c.t for c in report.resolutions[0].checkpoints]
    monotone = all(
        by_kt[(kb, t)] <= ratio_cap * by_kt[(ka, t)]
        for ka, kb in zip(ks, ks[1:])
        for t in ts
    )
    t_final = float(thresholds.get("final_checkpoint", max(ts)))
    first, last = by_kt[(ks[0], t_final)], by_kt[(ks[-1], t_final)]
    final_ok = last <= final_ratio * first
    # a W1 of 0 at the first k leaves the ratio undefined
    observed = f"{last / first:.3f}" if first > 0 else "undefined"
    detail = (
        f"monotone(slack {ratio_cap:g}): {'ok' if monotone else 'violated'}; "
        f"final ratio {observed} (threshold {final_ratio:g}) at t={t_final:g}"
    )
    return monotone and final_ok, detail


def _load_sweep_config(args) -> RunConfig:
    """Config of a resolution sweep, with its command-line overrides applied."""
    return RunConfig.load(
        args.config,
        dict(master_seed=args.seed, ensemble_size=args.ensemble_size, resolutions=args.resolutions),
    )


def cmd_converge(args) -> int:
    """``converge``; with ``args.regime`` (``converge --regime`` or ``regimes``) the regime scan."""
    config = _load_sweep_config(args)
    config.require_exact_size()
    if not args.regime:
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
    if args.regime:
        return _run_regimes(args, config)
    report = convergence_experiment(
        config.law,
        config.matrix,
        config.base,
        ks,
        config.ensemble_size,
        config.checkpoints,
        config.master_seed,
        config.flow_config(),
        jobs=args.jobs,
    )
    outdir = _resolve_output_dir(args.output_dir, config)
    write_report(outdir / "report.json", report.payload(), report.wall_clock_seconds)
    write_csv(outdir / "report.csv", *report.table())
    _write_manifest(outdir, "converge", config)
    passed, detail = _verdict(report, config.verdict)
    print(f"{'PASS' if passed else 'FAIL'}: {detail}")
    return 0


def _run_regimes(args, config: RunConfig) -> int:
    report = regime_experiment(
        config.law,
        config.matrix,
        config.base,
        config.resolutions(),
        config.ensemble_size,
        config.master_seed,
        jobs=args.jobs,
    )
    outdir = _resolve_output_dir(args.output_dir, config)
    write_report(outdir / "regimes.json", report.payload())
    write_csv(outdir / "regimes.csv", *report.table())
    _write_manifest(outdir, "regimes", config)
    final = report.records[-1]
    print(
        f"regime: {report.classification} (alpha+beta={report.alpha + report.beta:g}); "
        f"W1(start,end) at k={final.k}: {final.w1_start_end:.6g}"
    )
    return 0


def cmd_residual(args) -> int:
    config = _load_sweep_config(args)
    stride = int(config.data["quadrature_stride"])
    runs = []
    # every node set is checked before the first chain step
    for k in config.resolutions():
        schedule = config.schedule(k)
        nodes = quadrature_checkpoints(schedule, stride=stride or (1 if k <= 128 else 4))
        if len(nodes) < 16:
            raise ConfigurationError(
                f"config key 'quadrature_stride' ({stride}, 0 = by k) leaves {len(nodes)} "
                f"quadrature nodes at k={k}; at least 16 are needed"
            )
        runs.append((schedule, nodes))
    phis = standard_test_functions(config.matrix.dimension, config.base.horizon)
    floors = {}
    records = []
    for schedule, nodes in runs:
        ensemble = run_ensemble(
            config.law, config.matrix, schedule, config.ensemble_size, nodes, config.master_seed
        )
        if nodes not in floors:
            # the floor does not depend on k, only on the node set
            floors[nodes] = residual_floor(
                config.law,
                config.matrix,
                config.ensemble_size,
                nodes,
                config.master_seed,
                phis,
                config.flow_config(),
            )
        for phi, floor in zip(phis, floors[nodes]):
            est = weak_form_residual(ensemble, config.matrix, phi)
            records.append(
                {
                    "k": schedule.resolution,
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
                f"k={schedule.resolution} phi={phi.name}: residual={est.value:.6g} "
                f"(ci {est.ci_halfwidth:.3g}, floor {floor.value + floor.ci_halfwidth:.3g})"
            )
    outdir = _resolve_output_dir(args.output_dir, config)
    payload = {
        "schema": RESIDUAL_SCHEMA,
        "config_sha256": config.sha256(),
        "records": records,
    }
    write_report(outdir / "residual.json", payload)
    _write_manifest(outdir, "residual", config)
    return 0


# -- validate ----------------------------------------------------------------


def _validate_checks(rng):
    """(name, passed, detail) of each acceptance oracle, run at small counts."""
    _, worst_sum, worst_gap = oracles.transition_gaps(rng, per_combo=1)
    yield (
        "transition normalization & exactness",
        worst_sum <= 1e-12 and worst_gap <= 1e-12,
        f"max |sum-1| {worst_sum:.2e}, max gap to pair enumeration {worst_gap:.2e}",
    )
    gap = oracles.drift_gap(rng, per_combo=1)
    yield "drift consistency", gap <= 1e-13, f"drift deviates from table mean by {gap:.2e}"
    gap = oracles.assignment_gap(rng, 10)
    axioms = oracles.metric_axioms_hold(rng, 10)
    yield (
        "W1 exactness & metric axioms",
        gap <= 1e-10 and axioms,
        f"max gap to permutation brute force {gap:.2e}; metric axioms hold: {axioms}",
    )
    yield "Kantorovich dual bound", oracles.dual_bound_holds(rng, 10), "bound above exact W1"
    orders = oracles.rk4_orders(SimplexPoint([0.35, 0.65]), PayoffMatrix([[1.0, 2.0], [3.0, 4.0]]))
    yield "RK4 order", min(orders) >= 3.7, f"observed RK4 order {min(orders):.2f} < 3.7"


def cmd_validate(args) -> int:
    failures = []
    for name, passed, detail in _validate_checks(np.random.default_rng(args.seed)):
        if passed:
            print(f"[ ok ] {name}")
        else:
            print(f"[FAIL] {name}: {detail}")
            failures.append(name)
    if failures:
        print(f"validate: {len(failures)} check(s) failed: {', '.join(failures)}")
        return 1
    print("validate: all checks passed")
    return 0


def _seed(text: str) -> int:
    """argparse type of ``validate --seed``: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


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
            help="worker processes for the bootstrap assignment solves of converge and "
            "regimes (one fork-started pool per run; results are identical for any value); "
            "chains run in the calling process, and simulate and residual ignore it",
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
    p_reg.set_defaults(fn=cmd_converge, regime=True, dry_run=False)

    p_res = sub.add_parser("residual", help="weak-form residual of the chain law")
    common(p_res)
    p_res.add_argument("--resolutions", type=int, nargs="+", default=None)
    p_res.add_argument("--ensemble-size", type=int, default=None)
    p_res.set_defaults(fn=cmd_residual)

    p_val = sub.add_parser("validate", help="acceptance oracles at small counts")
    p_val.add_argument("--seed", type=_seed, default=0)
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
