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
import math
import os
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, oracles
from .engine import ScalingSchedule, export_trajectory, largest_remainder_counts, simulate
from .errors import ConfigurationError, DomainError, ResolutionError, SimulationError
from .flow import FlowConfig, default_flow_config
from .lab import (
    InitialLaw,
    convergence_experiment,
    convergence_table,
    draw_initial_samples,
    quadrature_checkpoints,
    quadrature_nodes,
    regime_experiment,
    regime_table,
    require_sweep,
    residual_floor,
    run_ensemble,
    standard_test_functions,
    weak_form_residual,
)
from .report import RESIDUAL_SCHEMA, payload_digest, write_csv, write_json, write_report
from .simplex import PayoffMatrix, SimplexPoint

OUTPUT_DIR_ENV = "MORANFIELD_OUTPUT_DIR"
MANIFEST_SCHEMA = "moranfield-manifest/v1"


def _number(integral=False, least=None):
    """Reader of a finite number, an int when ``integral``, of at least ``least``.

    A numeric string is read as ``float()`` or ``int()`` reads it.  A bool is
    rejected, and so is a fractional float where an int is due, which
    ``int()`` would truncate while the manifest records the value as given.
    """

    def read(key, value):
        try:
            if isinstance(value, bool):
                raise TypeError
            number = int(value) if integral else float(value)
            if not integral and not math.isfinite(number):
                raise ValueError  # float() reads "nan", "inf" and 1e999
        except (TypeError, ValueError, OverflowError):
            msg = f"config key {key!r} must be numeric and finite, got {value!r}"
            raise ConfigurationError(msg) from None
        if isinstance(value, float) and number != value:
            raise ConfigurationError(f"config key {key!r} must be an integer, got {value!r}")
        if least is not None and number < least:
            raise ConfigurationError(f"config key {key!r} must be >= {least}, got {value!r}")
        return number

    return read


def _list_of(read):
    """Reader of a list, item ``i`` read by ``read`` as the key ``key[i]``."""

    def read_list(key, value):
        if not isinstance(value, list):
            raise ConfigurationError(f"config key {key!r} must be a list, got {value!r}")
        return [read(f"{key}[{i}]", item) for i, item in enumerate(value)]

    return read_list


def _built(make):
    """Reader that builds ``make(value)``, which checks the value itself."""

    def read(key, value):
        try:
            return make(value)
        except (TypeError, ValueError) as err:
            raise ConfigurationError(f"invalid config key {key!r}: {err}") from err

    return read


def _read_flow_step(key, value):
    return _built(FlowConfig)(key, _number()(key, value))


# the verdict thresholds given none; final_checkpoint defaults to the last checkpoint
_VERDICT = {"max_consecutive_ratio": 1.2, "final_ratio": 0.5}


def _read_verdict(key, value):
    if not isinstance(value, dict):
        raise ConfigurationError(f"config key {key!r} must be an object")
    for name in value:
        if name not in (*_VERDICT, "final_checkpoint"):
            raise ConfigurationError(f"unknown config key '{key}.{name}'")
    return {name: _number()(f"{key}.{name}", v) for name, v in {**_VERDICT, **value}.items()}


#: each config key's reader and default (None: no default; payoff_matrix and
#: initial_law are required, the others optional, and checkpoints defaults to
#: [T/4, T/2, T] of the horizon T).  A reader takes (key, value)
#: and returns the value typed, or raises ConfigurationError naming the key.
#: ScalingSchedule checks the ranges of the six schedule keys, FlowConfig that
#: of flow_step, PayoffMatrix and InitialLaw their own.
_SCHEMA = {
    "horizon": (_number(), 1.0),
    "alpha": (_number(), 0.6),
    "beta": (_number(), 0.4),
    "n_floor": (_number(integral=True), 2),
    "n_scale": (_number(), 1.0),
    "w_scale": (_number(), 1.0),
    "ensemble_size": (_number(integral=True, least=2), 256),
    "checkpoints": (_list_of(_number()), None),
    "master_seed": (_number(integral=True, least=0), 0),
    "quadrature_stride": (_number(integral=True, least=0), 0),
    "max_exact_size": (_number(integral=True), 4096),
    "verdict": (_read_verdict, _VERDICT),
    "payoff_matrix": (_built(PayoffMatrix), None),
    "initial_law": (lambda key, value: InitialLaw.from_dict(value), None),
    "resolutions": (_list_of(_number(integral=True, least=1)), None),
    "resolution": (_number(integral=True, least=1), None),
    "flow_step": (_read_flow_step, None),
    "output_dir": (_built(os.fspath), None),
}


class RunConfig:
    """A run's config, each key read once, at load, by its reader in ``_SCHEMA``.

    ``data`` keeps every value as given, over the defaults: the manifest
    records it and :meth:`sha256` hashes it.  The commands read the typed
    attributes.
    """

    def __init__(self, data: dict):
        for key in data:
            if key not in _SCHEMA:
                raise ConfigurationError(f"unknown config key {key!r}")
        defaults = {key: default for key, (_, default) in _SCHEMA.items() if default is not None}
        self.data = {**defaults, **{k: v for k, v in data.items() if v is not None}}
        for key in ("payoff_matrix", "initial_law"):
            if key not in self.data:
                raise ConfigurationError(f"config is missing required key {key!r}")
        values = {key: _SCHEMA[key][0](key, value) for key, value in self.data.items()}
        if "checkpoints" not in values:
            t = values["horizon"]
            self.data["checkpoints"] = values["checkpoints"] = [t / 4, t / 2, t]
        self.matrix = values["payoff_matrix"]
        self.law = values["initial_law"]
        self.ensemble_size = values["ensemble_size"]
        self.checkpoints = values["checkpoints"]
        self.master_seed = values["master_seed"]
        self.quadrature_stride = values["quadrature_stride"]
        self.verdict = values["verdict"]
        self.resolution = values.get("resolution")
        self.output_dir = values.get("output_dir")
        self._resolutions = values.get("resolutions")
        schedule_keys = ("horizon", "alpha", "beta", "n_floor", "n_scale", "w_scale")
        try:
            # every resolution's schedule is this one with its resolution replaced;
            # it is made at the largest requested k, whose population is the largest
            k = max([self.resolution or 1, *(self._resolutions or [])])
            self.base = ScalingSchedule(resolution=k, **{key: values[key] for key in schedule_keys})
        except DomainError as err:
            raise ConfigurationError(f"invalid config value: {err}") from err
        self.flow = values.get("flow_step") or default_flow_config(self.base.horizon)
        self.law.require_matrix(self.matrix)
        if any(t < 0 or t > self.base.horizon for t in self.checkpoints):
            raise ConfigurationError(
                f"checkpoints must lie in [0, {self.base.horizon}], got {self.checkpoints}"
            )
        require_sweep(self._resolutions or [], self.checkpoints)
        final = self.verdict.get("final_checkpoint")
        if final is not None and final not in self.checkpoints:
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
        if not isinstance(data, dict):
            raise ConfigurationError("config must be a JSON object")
        return cls({**data, **{k: v for k, v in overrides.items() if v is not None}})

    def schedule(self, resolution: int) -> ScalingSchedule:
        return replace(self.base, resolution=resolution)

    def resolutions(self) -> list[int]:
        if not self._resolutions:
            raise ConfigurationError("config key 'resolutions' (list of k) is required")
        return self._resolutions

    def to_dict(self) -> dict:
        out = dict(self.data)
        out["payoff_matrix"] = self.matrix.to_rows()
        out["initial_law"] = self.law.to_dict()
        return out

    def sha256(self) -> str:
        return payload_digest(self.to_dict())

    def require_flow_steps(self) -> None:
        """Refuse exponents with no ``limit_speed`` c, and a flow time c * horizon beyond
        the step budget (:meth:`FlowConfig.step`), naming ``payoff_matrix``, whose column
        spread caps the step, and ``flow_step`` when set.  Every pushforward of ``converge``
        and ``residual`` lies in [0, c * horizon], so none fails after the chains ran."""
        try:
            self.flow.step(self.matrix.entries, self.base.limit_speed * self.base.horizon)
        except DomainError as err:
            keys = "key 'payoff_matrix'"
            if "flow_step" in self.data:
                keys = "keys 'payoff_matrix' and 'flow_step'"
            raise ConfigurationError(f"{err} under config {keys}") from err


def _resolve_output_dir(flag_value: str | None, config: RunConfig, *files: str) -> Path:
    """Make the output directory; refuse one that cannot be made, or in which
    one of ``files`` or ``manifest.json`` exists and is not a regular file."""
    candidate = (
        flag_value
        or config.output_dir
        or os.environ.get(OUTPUT_DIR_ENV)
        or "moranfield-out"
    )
    path = Path(candidate)
    for name in (*files, "manifest.json"):
        if (path / name).exists() and not (path / name).is_file():
            raise ConfigurationError(
                f"config key 'output_dir': {path / name} exists and is not a regular file"
            )
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigurationError(
            f"config key 'output_dir': cannot create {path}: {err.strerror}"
        ) from None
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
    if config.resolution is None:
        raise ConfigurationError("simulate needs a resolution (config 'resolution' or --k)")
    outdir = _resolve_output_dir(
        args.output_dir, config, "trajectory.csv", "trajectory_sidecar.json"
    )
    schedule = config.schedule(config.resolution)
    lam0 = draw_initial_samples(config.law, 1, config.master_seed)[0]
    counts0 = largest_remainder_counts(SimplexPoint(lam0), schedule.population)
    traj = simulate(counts0, config.matrix, schedule, seed=config.master_seed)
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
    ratio_cap, final_ratio = thresholds["max_consecutive_ratio"], thresholds["final_ratio"]
    by_kt = {
        (rec["k"], c["t"]): c["w1_to_limit"]
        for rec in report["resolutions"]
        for c in rec["checkpoints"]
    }
    ks = [rec["k"] for rec in report["resolutions"]]
    ts = [c["t"] for c in report["resolutions"][0]["checkpoints"]]
    monotone = all(
        by_kt[(kb, t)] <= ratio_cap * by_kt[(ka, t)]
        for ka, kb in zip(ks, ks[1:])
        for t in ts
    )
    t_final = thresholds.get("final_checkpoint", max(ts))
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
    """``converge``; with ``args.regime`` (``regimes``) the regime scan."""
    config = _load_sweep_config(args)
    ks = config.resolutions()
    require_sweep(ks, config.checkpoints, config.ensemble_size)
    if not args.regime:
        config.require_flow_steps()
    if args.dry_run:
        print("k        tau_k        N_k      w_k")
        for k in ks:
            sched = config.schedule(k)
            print(
                f"{k:<8d} {sched.tau:<12.6g} {sched.population:<8d} "
                f"{sched.selection_weight:.6g}"
            )
        return 0
    name = "regimes" if args.regime else "report"
    outdir = _resolve_output_dir(args.output_dir, config, f"{name}.json", f"{name}.csv")
    if args.regime:
        return _run_regimes(args, config, outdir)
    started = time.perf_counter()
    report = convergence_experiment(
        config.law,
        config.matrix,
        config.base,
        ks,
        config.ensemble_size,
        config.checkpoints,
        config.master_seed,
        config.flow,
        jobs=args.jobs,
    )
    write_report(outdir / "report.json", report, time.perf_counter() - started)
    write_csv(outdir / "report.csv", *convergence_table(report))
    _write_manifest(outdir, "converge", config)
    passed, detail = _verdict(report, config.verdict)
    print(f"{'PASS' if passed else 'FAIL'}: {detail}")
    return 0


def _run_regimes(args, config: RunConfig, outdir: Path) -> int:
    report = regime_experiment(
        config.law,
        config.matrix,
        config.base,
        config.resolutions(),
        config.ensemble_size,
        config.master_seed,
        jobs=args.jobs,
    )
    write_report(outdir / "regimes.json", report)
    write_csv(outdir / "regimes.csv", *regime_table(report))
    _write_manifest(outdir, "regimes", config)
    final, total = report["records"][-1], report["alpha"] + report["beta"]
    print(
        f"regime: {report['classification']} (alpha+beta={total:g}); "
        f"W1(start,end) at k={final['k']}: {final['w1_start_end']:.6g}"
    )
    return 0


def cmd_residual(args) -> int:
    config = _load_sweep_config(args)
    config.require_flow_steps()
    stride = config.quadrature_stride
    runs = []
    phis = standard_test_functions(config.matrix.dimension, config.base.horizon)
    # every node set is checked before the first chain step
    for k in config.resolutions():
        schedule = config.schedule(k)
        nodes = quadrature_checkpoints(schedule, stride=stride or (1 if k <= 128 else 4))
        try:
            quadrature_nodes(nodes, phis)
        except ResolutionError as err:
            msg = f"config key 'quadrature_stride' ({stride}, 0 = by k) at k={k}: {err}"
            raise ConfigurationError(msg) from err
        runs.append((schedule, nodes))
    outdir = _resolve_output_dir(args.output_dir, config, "residual.json")
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
                config.flow,
                config.base.limit_speed,
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


def _count(least: int):
    """argparse type of an integer of at least ``least``: ``validate --seed`` and
    ``--jobs``."""

    def read(text: str) -> int:
        if not text.isdecimal() or int(text) < least:
            raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text!r}")
        return int(text)

    return read


def default_jobs() -> int:
    """The ``--jobs`` default: the CPUs this process may run on, its affinity
    set where the platform has one (``taskset`` narrows it), else
    ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moranfield",
        description="Moran-process simulation and mean-field convergence toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=False, help="JSON run config file")
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--output-dir", default=None, help="output directory")
        p.add_argument(
            "--jobs",
            type=_count(1),
            default=default_jobs(),
            help="threads, the calling one included, for the bootstrap assignment solves of "
            "converge and regimes (results are identical for any value); simulate and "
            "residual ignore it",
        )

    p_sim = sub.add_parser("simulate", help="run a single chain at one resolution")
    common(p_sim)
    p_sim.add_argument("--k", type=int, default=None, help="grid resolution")
    p_sim.set_defaults(fn=cmd_simulate)

    def sweep(name, summary, **defaults):
        p = sub.add_parser(name, help=summary)
        common(p)
        p.add_argument("--resolutions", type=int, nargs="+", default=None)
        p.add_argument("--ensemble-size", type=int, default=None)
        p.set_defaults(**defaults)
        return p

    for p in (
        sweep("converge", "resolution sweep against the flow limit", fn=cmd_converge, regime=False),
        sweep("regimes", "scaling-regime scan", fn=cmd_converge, regime=True),
    ):
        p.add_argument("--dry-run", action="store_true", help="print the schedule table only")
    sweep("residual", "weak-form residual of the chain law", fn=cmd_residual)

    p_val = sub.add_parser("validate", help="acceptance oracles at small counts")
    p_val.add_argument("--seed", type=_count(0), default=0)
    p_val.set_defaults(fn=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigurationError as err:
        print(f"FAIL: configuration: {err}", file=sys.stderr)
        return 2
    except SimulationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
