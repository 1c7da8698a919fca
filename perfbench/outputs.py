"""Output checks: invariants for any seed, and a stored reference at the default seed.

``invariant_problems`` checks what must hold whatever the seed.
``output_values`` flattens every numeric output of a run into a
``{key: value}`` map; ``reference_problems`` compares that map with the
stored reference at relative tolerance ``REL_TOL``.  Wall clocks are not
outputs and are left out.  The convergence ``payload_digest`` is recorded but
not compared, so a change that moves a last digit within tolerance still
passes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-12
NOT_COMPARED = ("wall_clock_seconds", "payload_digest")


def _flatten(doc, prefix, out):
    if isinstance(doc, dict):
        for key, value in doc.items():
            if key not in NOT_COMPARED:
                _flatten(value, f"{prefix}.{key}", out)
    elif isinstance(doc, list):
        for idx, value in enumerate(doc):
            _flatten(value, f"{prefix}[{idx}]", out)
    else:
        out[prefix] = doc


def _csv_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, (float(x) for x in row))) for row in body]


def read_trajectory(outdir: Path):
    """(times, counts, proportions, population, sidecar) of a ``simulate`` export."""
    sidecar = json.loads((outdir / "trajectory_sidecar.json").read_text())
    data = np.loadtxt(outdir / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    sched = sidecar["schedule"]
    # N = max(n_floor, round_half_up(n_scale * tau**-alpha)), tau = horizon / k
    tau = sched["horizon"] / sched["resolution"]
    population = max(
        int(sched["n_floor"]), int(math.floor(sched["n_scale"] * tau ** -sched["alpha"] + 0.5))
    )
    props = data[:, 1:]
    counts = np.rint(props * population).astype(np.int64)
    return data[:, 0], counts, props, population, sidecar


def _report_files(command: str) -> tuple:
    return {
        "converge": ("report.json", "report.csv"),
        "regimes": ("regimes.json", "regimes.csv"),
        "residual": ("residual.json",),
        "simulate": ("trajectory_sidecar.json",),
    }[command]


def output_values(command: str, outdir: Path) -> dict:
    """Every numeric output of one run, flattened to ``{key: value}``."""
    outdir = Path(outdir)
    values = {}
    for name in _report_files(command):
        if name.endswith(".json"):
            _flatten(json.loads((outdir / name).read_text()), name, values)
        else:
            _flatten(_csv_rows(outdir / name), name, values)
    if command == "simulate":
        times, counts, _, _, _ = read_trajectory(outdir)
        # proportions are counts / N, so the count path carries every value
        values["trajectory.csv.rows"] = int(counts.shape[0])
        values["trajectory.csv.counts_sha256"] = hashlib.sha256(counts.tobytes()).hexdigest()
        values["trajectory.csv.t_last"] = float(times[-1])
        _flatten(counts[-1].tolist(), "trajectory.csv.final_counts", values)
    return values


def payload_digest(command: str, outdir: Path):
    if command != "converge":
        return None
    return json.loads((Path(outdir) / "report.json").read_text()).get("payload_digest")


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str) or isinstance(b, str):
        return a == b
    if a is None or b is None:
        return a is b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) or a == b


def reference_problems(values: dict, reference: dict) -> list:
    problems = []
    for key in sorted(set(values) | set(reference)):
        if key not in values or key not in reference:
            problems.append(f"reference key {key} present on one side only")
        elif not _close(values[key], reference[key]):
            problems.append(f"{key} = {values[key]!r}, reference {reference[key]!r}")
    return problems[:20]


def _finite_nonneg(name, values, problems):
    for v in values:
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0):
            problems.append(f"{name} = {v!r} is not a finite value >= 0")
            return


def invariant_problems(command: str, config: dict, outdir: Path, stdout: str) -> list:
    """Invariants every run must satisfy, whatever the seed."""
    outdir = Path(outdir)
    problems = []
    if command == "converge":
        report = json.loads((outdir / "report.json").read_text())
        cps = [c for rec in report["resolutions"] for c in rec["checkpoints"]]
        if len(report["resolutions"]) != len(config["resolutions"]):
            problems.append("report has the wrong number of resolutions")
        for c in cps:
            if not c["w1_dual_lb"] <= c["w1_to_limit"] + 1e-12:
                problems.append(
                    f"dual bound {c['w1_dual_lb']!r} exceeds W1 {c['w1_to_limit']!r} at t={c['t']}"
                )
        _finite_nonneg("w1_to_limit", [c["w1_to_limit"] for c in cps], problems)
        _finite_nonneg("ci_halfwidth", [c["ci_halfwidth"] for c in cps], problems)
        # criterion 4 prints FAIL by construction; only a missing verdict is an error
        if not any(line.startswith(("PASS:", "FAIL:")) for line in stdout.splitlines()):
            problems.append("converge printed no verdict line")
        if len(_csv_rows(outdir / "report.csv")) != len(cps):
            problems.append("report.csv row count differs from report.json")
    elif command == "regimes":
        report = json.loads((outdir / "regimes.json").read_text())
        if report["classification"] != "frozen":
            problems.append(f"classification {report['classification']!r}, expected 'frozen'")
        recs = report["records"]
        if len(recs) != len(config["resolutions"]):
            problems.append("regimes report has the wrong number of records")
        _finite_nonneg("w1_start_end", [r["w1_start_end"] for r in recs], problems)
        _finite_nonneg("ci_halfwidth", [r["ci_halfwidth"] for r in recs], problems)
    elif command == "residual":
        recs = json.loads((outdir / "residual.json").read_text())["records"]
        if len(recs) != 3 * len(config["resolutions"]):
            problems.append(f"residual report has {len(recs)} records")
        for key in ("residual", "ci_halfwidth", "floor", "floor_ci_halfwidth"):
            _finite_nonneg(key, [r[key] for r in recs], problems)
    elif command == "simulate":
        times, counts, props, population, _ = read_trajectory(outdir)
        k = int(config["resolution"])
        if counts.shape[0] != k + 1:
            problems.append(f"trajectory has {counts.shape[0]} rows, expected {k + 1}")
        lattice = counts / population
        if np.any(np.abs(props - lattice) > REL_TOL * lattice):
            problems.append("proportions differ from counts / N by more than REL_TOL")
        if np.any(counts.sum(axis=1) != population):
            problems.append("a trajectory row does not sum to N")
        if np.any(counts < 0):
            problems.append("negative count in trajectory")
        diff = np.diff(counts, axis=0)
        moved = np.any(diff != 0, axis=1)
        one_move = (
            (np.abs(diff).sum(axis=1) == 2) & (diff.max(axis=1) == 1) & (diff.min(axis=1) == -1)
        )
        if np.any(moved & ~one_move):
            problems.append("consecutive rows differ by more than one +1/-1 move")
        grid = np.linspace(0.0, float(config.get("horizon", 1.0)), k + 1)
        if times.shape != grid.shape or np.any(np.abs(times - grid) > 1e-12):
            problems.append("trajectory times are not the uniform grid")
    if not (outdir / "manifest.json").is_file():
        problems.append("manifest.json missing")
    return problems
