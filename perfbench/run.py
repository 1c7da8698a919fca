"""moranfield benchmark: real CLI runs, end-to-end metrics and a traced per-layer pass.

    python3 perfbench/run.py --workload converge-m2 [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src/``.  Every invocation of ``moranfield.cli.main`` runs in its own child
process (``child.py``), forked from an interpreter that has imported the
package and nothing more, on a config generated from ``--seed``; load is
closed-loop from this one process, one invocation at a time.

``--trace 0`` repeats the workload at ``--jobs`` = nproc for ``--seconds``
(an invocation starts only if it is expected to end inside them) and
reports the end-to-end metrics:

* ``run_s``: median wall time of ``cli.main``;
* ``setup_s``: median of interpreter start plus package import up to the
  first ``cli.main`` call, over fresh import-only interpreters;
* ``peak_rss_mb``: largest resident set of any process, pool workers included.

Failed runs (non-zero exit or a failed output check) are counted in
``failed`` out of ``attempted``: that ratio is the error rate.

``--trace 1`` repeats rounds of three runs: traced at ``--jobs 1`` (spans in
one process), untraced at ``--jobs 1`` (for the tracing overhead) and
untraced at nproc (for ``cli.cpu_s``), and reports the per-layer metrics.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record with every sample and the machine
provenance goes to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import outputs
import spans
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE_DIR = HERE / "reference"

#: a run must end within 180 s; no new invocation starts that would pass this
BUDGET_S = 160.0
#: import-only children per run, after the server's own import as warm-up
SETUP_SAMPLES = 4

clock = time.monotonic

E2E_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "engine.batch_calls": "count",
    "engine.replica_steps": "count",
    "engine.batch_busy_s": "s",
    "engine.replica_steps_per_s": "1/s",
    "engine.step_us": "us",
    "engine.scalar_steps": "count",
    "engine.scalar_busy_s": "s",
    "engine.scalar_step_us": "us",
    "engine.export_busy_s": "s",
    "engine.export_bytes": "bytes",
    "flow.pushforward_calls": "count",
    "flow.field_evals": "count",
    "flow.sample_steps": "count",
    "flow.busy_s": "s",
    "flow.sample_steps_per_s": "1/s",
    "transport.lsap_calls": "count",
    "transport.lsap_busy_s": "s",
    "transport.w1_exact_calls": "count",
    "transport.w1_exact_busy_s": "s",
    "transport.dual_calls": "count",
    "transport.dual_busy_s": "s",
    "lab.bootstrap_calls": "count",
    "lab.bootstrap_resamples": "count",
    "lab.bootstrap_busy_s": "s",
    "lab.bootstrap_resamples_per_s": "1/s",
    "lab.bootstrap_self_s": "s",
    "lab.floor_busy_s": "s",
    "lab.floor_self_s": "s",
    "lab.residual_busy_s": "s",
    "lab.ensemble_self_s": "s",
    "lab.experiment_self_s": "s",
    "cli.main_self_s": "s",
    "cli.cpu_s": "s",
    "cli.trace_overhead_s": "s",
    "error_rate": "ratio",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# -- provenance ------------------------------------------------------------


def _git_commit(root: Path):
    """HEAD of a checkout's .git, read without running git (None outside a repo)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas(module):
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return None


def provenance(seed: int) -> dict:
    """Machine and software facts, recorded as found (nothing is set here)."""
    import numpy
    import scipy

    return {
        "seed": seed,
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "blas_threads_env": {
            key: os.environ.get(key)
            for key in (
                "OPENBLAS_NUM_THREADS",
                "OMP_NUM_THREADS",
                "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS",
            )
        },
        "git_commit": _git_commit(ROOT),
        "source_sha256": _source_sha256(SRC),
    }


# -- child processes ---------------------------------------------------------


class Session:
    """Spawns the children of one benchmark run inside ``work`` and checks them.

    Import-only samples are fresh interpreters (``spawn``); workload runs are
    forked from one imported interpreter (``start``, ``fork``), so a run pays
    no import and more runs fit in the measured seconds.  ``close``, or
    leaving a ``with`` block, ends that server and every process left in its
    group.
    """

    def __init__(self, workload, seed: int, work: Path, reference=None):
        self.workload = workload
        self.work = work
        self.reference = reference
        self.started = clock()
        self.count = 0
        self.config = workload.run_config(seed)
        self.config_path = work / "config.json"
        work.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(self.config, indent=2))
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        ))
        self.server = None
        self.buffer = b""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def elapsed(self) -> float:
        return clock() - self.started

    def spawn(self) -> dict:
        """One fresh interpreter that imports the package; returns its import sample."""
        self.count += 1
        result_path = self.work / f"child{self.count}.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC),
               "--result", str(result_path)]
        timeout = max(BUDGET_S + 15.0 - self.elapsed(), 1.0)
        spawned = clock()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=self.env, cwd=self.work, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            _, err = proc.communicate()
            return {"crashed": f"killed after {timeout:.0f} s"}
        finally:
            try:  # anything the child left in its group
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            result = json.loads(result_path.read_text())
        except (OSError, ValueError):
            return {"crashed": f"exit {proc.returncode}: {err.decode(errors='replace')[-2000:]}"}
        result["setup_s"] = result["ready"] - spawned
        return result

    def start(self):
        """Start the forking server of child.py; returns None, or why it did not start."""
        self.close()
        with open(self.work / "server.err", "ab") as err:
            self.server = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), "--src", str(SRC), "--serve"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                env=self.env, cwd=self.work, start_new_session=True,
            )
        self.buffer = b""
        if self._line() != "ready":
            self.close()
            return f"server did not start: {self._server_err()}"
        return None

    def _line(self):
        """The server's next stdout line, or None when it ends or the budget runs out."""
        fd = self.server.stdout.fileno()
        while b"\n" not in self.buffer:
            left = BUDGET_S + 15.0 - self.elapsed()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 65536)
            if not chunk:
                return None
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return line.decode(errors="replace")

    def _server_err(self) -> str:
        path = self.work / "server.err"
        return path.read_text(errors="replace")[-2000:] if path.is_file() else ""

    def fork(self, cli_args, trace_path=None) -> dict:
        """Run the CLI once in a process forked from the server."""
        error = self.start() if self.server is None else None
        if error:
            return {"crashed": error}
        self.count += 1
        result_path = self.work / f"child{self.count}.json"
        job = {"argv": cli_args, "result": str(result_path),
               "trace": None if trace_path is None else str(trace_path)}
        try:
            self.server.stdin.write((json.dumps(job) + "\n").encode())
            self.server.stdin.flush()
            line = ""
            while line is not None and line != "done":
                line = self._line()
        except OSError:
            line = None
        if line is None:
            self.close()
            return {"crashed": f"server ended or ran out of time: {self._server_err()}"}
        try:
            return json.loads(result_path.read_text())
        except (OSError, ValueError):
            return {"crashed": f"forked run left no result: {self._server_err()}"}

    def close(self) -> None:
        """End the server and every process left in its group, and wait for them."""
        server, self.server = self.server, None
        if server is None:
            return
        try:
            server.stdin.close()
            server.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            try:
                os.killpg(server.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            server.wait()
            server.stdout.close()

    def invoke(self, jobs: int, traced: bool = False) -> dict:
        """One workload run and its output check; returns the run's record."""
        n = self.count + 1
        outdir = self.work / f"out{n}"
        trace_path = self.work / f"spans{n}.json" if traced else None
        res = self.fork(self.workload.argv(self.config_path, outdir, jobs), trace_path)
        if "crashed" in res:
            problems = [res["crashed"]]
        elif res["exit_code"] != 0:
            problems = [f"exit code {res['exit_code']}: {res.get('error') or ''}"[-2000:]]
        else:
            problems = self.check(outdir, res["stdout"])
            res["payload_digest"] = outputs.payload_digest(self.workload.command, outdir)
        shutil.rmtree(outdir, ignore_errors=True)
        res.update(jobs=jobs, traced=traced, problems=problems, trace_path=trace_path)
        res.pop("stdout", None)
        return res

    def check(self, outdir: Path, stdout: str) -> list:
        command = self.workload.command
        try:
            problems = outputs.invariant_problems(command, self.config, outdir, stdout)
            if self.reference is not None:
                problems += outputs.reference_problems(
                    outputs.output_values(command, outdir), self.reference["values"]
                )
        except (OSError, ValueError, KeyError, IndexError, TypeError) as err:
            problems = [f"unreadable output: {err!r}"]
        return problems

    def room_for(self, duration: float) -> bool:
        return self.elapsed() + duration <= BUDGET_S


def _median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11]}


class Window:
    """The ``seconds`` a run measures: a step starts only if it is expected to end inside.

    The first step always runs.  A later one is expected to take the median
    of the steps before it, so every run measures a whole number of steps in
    about ``seconds`` and no run ends far past it.
    """

    def __init__(self, session: Session, seconds: float):
        self.session = session
        self.end = clock() + seconds
        self.durations = []

    def time(self, step):
        began = clock()
        result = step()
        self.durations.append(clock() - began)
        return result

    def full(self, min_steps: int = 1) -> bool:
        expected = statistics.median(self.durations)
        if not self.session.room_for(expected):
            return True
        return len(self.durations) >= min_steps and clock() + expected > self.end


def measure_end_to_end(session: Session, seconds: float, setup_samples=SETUP_SAMPLES) -> dict:
    """Workload runs at nproc jobs for ``seconds``, between import-only samples.

    Half the import-only samples come before the runs and half after, so
    that ``setup_s`` spans the same stretch of time as ``run_s``.
    """
    session.start()  # warm-up for bytecode and page cache, not a sample
    setups = [session.spawn() for _ in range(setup_samples - setup_samples // 2)]
    runs = []
    window = Window(session, seconds)
    while True:
        runs.append(window.time(lambda: session.invoke(nproc())))
        if window.full():
            break
    setups += [session.spawn() for _ in range(setup_samples // 2)]
    setup_s = [s["setup_s"] for s in setups if "setup_s" in s]
    run_s = [r["main_s"] for r in runs if "main_s" in r]
    rss_kb = [s["maxrss_kb"] for s in setups + runs if "maxrss_kb" in s]
    return {
        "metrics": {
            "run_s": _median(run_s),
            "setup_s": _median(setup_s),
            "peak_rss_mb": max(rss_kb, default=0) / 1024.0,
        },
        "runs": runs,
        "samples": {"run_s": run_s, "setup_s": setup_s},
        "run_s_tail": tail_percentile(run_s),
    }


def measure_layers(session: Session, seconds: float, min_rounds: int = 1) -> dict:
    """Rounds of traced and untraced runs; per-layer metrics are round medians."""
    session.start()  # warm-up, as above
    rounds = []
    window = Window(session, seconds)
    while True:
        rounds.append(window.time(lambda: {
            "traced": session.invoke(1, traced=True),
            "plain_1": session.invoke(1),
            "plain_n": session.invoke(nproc()),
        }))
        if window.full(min_rounds):
            break
    runs = [run for r in rounds for run in r.values()]
    layers = [r["traced"]["layers"] for r in rounds if "layers" in r["traced"]]
    errors = []
    metrics = {}
    for name in LAYER_UNITS:
        values = [lay[name] for lay in layers if name in lay]
        if name in spans.COUNT_METRICS:
            if len(set(values)) > 1:
                errors.append(f"count {name} differs between traced rounds: {values}")
            metrics[name] = values[0] if values else 0
        else:
            metrics[name] = _median(values)

    def main_s(kind):
        return _median([r[kind]["main_s"] for r in rounds if "main_s" in r[kind]])

    metrics["cli.cpu_s"] = _median([r["plain_n"]["cpu_s"] for r in rounds if "cpu_s" in r["plain_n"]])
    metrics["cli.trace_overhead_s"] = main_s("traced") - main_s("plain_1")
    failed = sum(1 for run in runs if run["problems"])
    metrics["error_rate"] = failed / len(runs)
    if not layers:
        errors.append("no traced run produced layer metrics")
    for name in session.workload.expected_nonzero:
        if layers and metrics[name] == 0:
            errors.append(f"{name} is 0 on {session.workload.name}: a wrapper missed its call site")
    drift = {
        name: {"expected": want, "measured": metrics[name]}
        for name, want in session.workload.expected_counts.items()
        if layers and metrics[name] != want
    }
    return {"metrics": metrics, "runs": runs, "benchmark_errors": errors, "count_drift": drift}


def run_benchmark(workload, seed: int, seconds: float, trace: int, reference=None,
                  setup_samples=SETUP_SAMPLES, min_rounds=1, spans_to=None) -> dict:
    """One benchmark run; returns the full record (the result line is taken from it).

    The last traced run's spans are moved to ``spans_to`` when given.
    """
    load_before = os.getloadavg()
    work = OUT / "work" / f"{workload.name}-s{seed}-t{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    with Session(workload, seed, work, reference) as session:
        if trace:
            measured = measure_layers(session, seconds, min_rounds)
        else:
            measured = measure_end_to_end(session, seconds, setup_samples)
    runs = measured["runs"]
    span_files = [run.pop("trace_path") for run in runs]
    span_files = [path for path in span_files if path is not None and path.is_file()]
    if spans_to is not None and span_files:
        shutil.move(str(span_files[-1]), spans_to)
    shutil.rmtree(work, ignore_errors=True)
    units = LAYER_UNITS if trace else E2E_UNITS
    failed = sum(1 for run in runs if run["problems"])
    errors = measured.get("benchmark_errors", [])
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "correct": failed == 0 and not errors,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {
            name: {"value": measured["metrics"][name], "unit": unit} for name, unit in units.items()
        },
        "benchmark_errors": errors,
        "count_drift": measured.get("count_drift", {}),
        "run_s_tail": measured.get("run_s_tail"),
        "samples": measured.get("samples", {}),
        "payload_digests": sorted({r["payload_digest"] for r in runs if r.get("payload_digest")}),
        "reference_digest": (reference or {}).get("payload_digest"),
        "problems": [p for r in runs for p in r["problems"]][:20],
        "runs": runs,
        "provenance": dict(provenance(seed), load_before=load_before, load_after=os.getloadavg()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results-dir", type=Path, default=OUT / "results")
    args = parser.parse_args(argv)
    # a terminated run still ends its children (see Session.close)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "moranfield" / "cli.py").is_file():
        print(f"error: no moranfield sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads((REFERENCE_DIR / f"{workload.name}.json").read_text())

    stem = f"{workload.name}-s{args.seed}-t{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    args.results_dir.mkdir(parents=True, exist_ok=True)
    record = run_benchmark(workload, args.seed, args.seconds, args.trace, reference,
                           spans_to=args.results_dir / f"{stem}-spans.json")
    (args.results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))

    summarize(record)
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def summarize(record) -> None:
    attempted, failed = record["attempted"], record["failed"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{attempted} runs, {failed} failed (error_rate {failed / attempted:g})")
    for problem in record["problems"] + record["benchmark_errors"]:
        print(f"  problem: {problem}")
    for name, drift in record["count_drift"].items():
        print(f"  count drift: {name} = {drift['measured']}, seed code gave {drift['expected']}")
    if record["trace"] == 0:
        tail = record["run_s_tail"]
        n = len(record["samples"]["run_s"])
        tail_text = (f"p{tail['percentile']:.0f} {tail['value']:.4f} s" if tail
                     else "no percentile with 10 runs beyond it")
        print(f"  run_s median over {n} runs; {tail_text}")
        print(f"  setup_s median over {len(record['samples']['setup_s'])} samples")
    if record["payload_digests"]:
        print(f"  payload_digest {', '.join(record['payload_digests'])} "
              f"(reference {record['reference_digest']}, not gated)")
    for name, metric in record["metrics"].items():
        value = metric["value"]
        print(f"  {name} = {value:.6g} {metric['unit']}" if isinstance(value, float)
              else f"  {name} = {value} {metric['unit']}")


if __name__ == "__main__":
    sys.exit(main())
