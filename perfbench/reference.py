"""Store the reference outputs of a workload at the default seed.

    python3 perfbench/reference.py converge-m2 [more workloads...]

Runs each workload once through the CLI, checks its invariants and writes
every numeric output to ``perfbench/reference/<workload>.json``.  Later runs
at the default seed must match it to ``outputs.REL_TOL`` relative.  Only
regenerate it for a change that is meant to move results.
"""

from __future__ import annotations

import json
import shutil
import sys

import outputs
from run import OUT, REFERENCE_DIR, Session, nproc
from workloads import DEFAULT_SEED, WORKLOADS


def write_reference(name: str) -> None:
    workload = WORKLOADS[name]
    work = OUT / "work" / f"reference-{name}"
    shutil.rmtree(work, ignore_errors=True)
    outdir = work / "out"
    with Session(workload, DEFAULT_SEED, work) as session:
        res = session.fork(workload.argv(session.config_path, outdir, nproc()))
    if res.get("exit_code") != 0:
        raise SystemExit(f"{name}: run failed: {res}")
    problems = outputs.invariant_problems(workload.command, session.config, outdir, res["stdout"])
    if problems:
        raise SystemExit(f"{name}: invariants fail: {problems}")
    record = {
        "workload": name,
        "seed": DEFAULT_SEED,
        "rel_tol": outputs.REL_TOL,
        "payload_digest": outputs.payload_digest(workload.command, outdir),
        "values": outputs.output_values(workload.command, outdir),
    }
    REFERENCE_DIR.mkdir(exist_ok=True)
    (REFERENCE_DIR / f"{name}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    print(f"{name}: {len(record['values'])} values")


if __name__ == "__main__":
    for arg in sys.argv[1:] or sorted(WORKLOADS):
        write_reference(arg)
