"""Self-test of the benchmark on tiny inputs (about a minute on two cores).

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` names exactly the metrics and units that
``run.py`` emits, that every metric is emitted on each CLI command in both
passes, that traced counts repeat exactly, that a wrapper firing zero times
where it is expected is a benchmark error, that a perturbed reference value
or a broken invariant fails the output check, and that a directory without
the program's sources exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import outputs
from run import E2E_UNITS, HERE, LAYER_UNITS, OUT, ROOT, Session, nproc, run_benchmark
from workloads import WORKLOADS

SEED = 7
FAILURES = []


def check(condition, message):
    print(f"[{'ok' if condition else 'FAIL'}] {message}")
    if not condition:
        FAILURES.append(message)


def tiny(name, **config):
    """The workload ``name`` shrunk to a config that runs in well under a second."""
    full = WORKLOADS[name]
    return replace(full, name=f"tiny-{name}", config=dict(full.config, **config), expected_counts={})


TINY = [
    tiny("converge-m2", resolutions=[8, 16], ensemble_size=8, checkpoints=[0.5, 1.0]),
    tiny("residual-m2", resolutions=[16], ensemble_size=8),
    tiny("regimes-m3-frozen", resolutions=[16, 32], ensemble_size=8),
    tiny("simulate-m4", resolution=64),
]


def check_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS,
          "BENCHMARK.json end_to_end names and units match run.py")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS,
          "BENCHMARK.json per_layer names and units match run.py")
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json workloads match workloads.py")
    for name in WORKLOADS:
        check((HERE / "reference" / f"{name}.json").is_file(), f"reference stored for {name}")


def emitted(record, units):
    return {name: m["unit"] for name, m in record["metrics"].items()} == units


def check_workload(workload):
    record = run_benchmark(workload, SEED, 0.0, 0, setup_samples=1)
    check(record["correct"] and record["failed"] == 0, f"{workload.name}: untraced runs pass")
    check(emitted(record, E2E_UNITS), f"{workload.name}: every end-to-end metric has its unit")
    check(all(m["value"] > 0 for m in record["metrics"].values()),
          f"{workload.name}: end-to-end metrics are positive")

    record = run_benchmark(workload, SEED, 0.0, 1, min_rounds=2)
    check(record["correct"], f"{workload.name}: traced pass passes, counts repeat across 2 rounds "
          f"{record['benchmark_errors']}")
    check(emitted(record, LAYER_UNITS), f"{workload.name}: every per-layer metric has its unit")
    return record


def check_zero_wrapper():
    # residual never reaches transport, so demanding LSAP calls must fail
    workload = replace(TINY[1], expected_nonzero=("transport.lsap_calls",))
    record = run_benchmark(workload, SEED, 0.0, 1)
    check(not record["correct"] and record["benchmark_errors"],
          "a wrapper recording zero calls where expected is a benchmark error")


def check_output_checks():
    for workload in (TINY[0], TINY[3]):
        work = OUT / "work" / f"selftest-{workload.name}"
        shutil.rmtree(work, ignore_errors=True)
        outdir = work / "out"
        with Session(workload, SEED, work) as session:
            res = session.fork(workload.argv(session.config_path, outdir, nproc()))
        values = outputs.output_values(workload.command, outdir)
        check(outputs.reference_problems(values, values) == [],
              f"{workload.name}: outputs match themselves")
        key = next(k for k, v in sorted(values.items()) if isinstance(v, float) and v != 0)
        for factor, fails in ((1 + 1e-9, True), (1 + 1e-14, False)):
            perturbed = dict(values, **{key: values[key] * factor})
            check(bool(outputs.reference_problems(values, perturbed)) == fails,
                  f"{workload.name}: reference {key} scaled by {factor!r} "
                  f"{'fails' if fails else 'passes'}")
        if workload.command == "converge":
            report = json.loads((outdir / "report.json").read_text())
            cp = report["resolutions"][0]["checkpoints"][0]
            cp["w1_dual_lb"] = cp["w1_to_limit"] * 1.01 + 1e-9
            (outdir / "report.json").write_text(json.dumps(report))
        else:
            # one extra individual in the last row: it no longer sums to N
            population = outputs.read_trajectory(outdir)[3]
            lines = (outdir / "trajectory.csv").read_text().splitlines()
            t, first, *rest = lines[-1].split(",")
            lines[-1] = ",".join([t, f"{float(first) + 1.0 / population:.17g}", *rest])
            (outdir / "trajectory.csv").write_text("\n".join(lines) + "\n")
        problems = outputs.invariant_problems(workload.command, session.config, outdir,
                                              "FAIL: by construction\n")
        check(bool(problems), f"{workload.name}: a broken invariant fails the check {problems}")
        shutil.rmtree(work, ignore_errors=True)
        check(res.get("exit_code") == 0, f"{workload.name}: check run exited 0")

    # a perturbed reference must fail a real run end to end
    workload = TINY[2]
    work = OUT / "work" / "selftest-reference"
    with Session(workload, SEED, work) as session:
        res = session.fork(workload.argv(session.config_path, work / "out", 1))
    values = outputs.output_values(workload.command, work / "out")
    shutil.rmtree(work, ignore_errors=True)
    key = "regimes.json.records[0].w1_start_end"
    good = {"values": values}
    bad = {"values": dict(values, **{key: values[key] * (1 + 1e-10)})}
    record = run_benchmark(workload, SEED, 0.0, 0, reference=good, setup_samples=0)
    check(record["correct"] and res.get("exit_code") == 0, "a run matching its reference passes")
    record = run_benchmark(workload, SEED, 0.0, 0, reference=bad, setup_samples=0)
    check(not record["correct"] and record["failed"] == record["attempted"],
          "a perturbed reference value fails the run")


def check_bare_directory():
    bare = OUT / "work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "converge-m2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"without sources: exit {proc.returncode}, no result printed")


def main() -> int:
    check_spec()
    check_bare_directory()
    for workload in TINY:
        check_workload(workload)
    check_zero_wrapper()
    check_output_checks()
    print(f"selftest: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
