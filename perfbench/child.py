"""Child interpreter of the benchmark: import-only samples and timed CLI invocations.

    python3 perfbench/child.py --src SRC --result OUT.json
    python3 perfbench/child.py --src SRC --serve

Imports ``moranfield.cli`` from ``SRC`` and stamps the monotonic clock just
after (the parent stamps the same clock just before spawning, so the
difference is interpreter start plus package import).  With ``--result`` it
writes the stamp and its peak resident set to ``OUT.json`` and exits.

``--serve`` imports once, prints ``ready`` and then reads one job
per stdin line, ``{"argv": [...], "result": path, "trace": path or null}``.
Each job runs ``cli.main(argv)`` in a process forked from the imported
interpreter, so every invocation starts from the same state as a fresh one
just after import without paying the import again.  The job's process
writes timings, exit code, CPU time and peak resident set to ``result``;
CPU time and peak RSS include pool workers, which ``cli.main`` reaps before
it returns.  With ``trace`` it installs the span wrappers and writes the
spans there, with the per-layer metrics in the result.  The server prints
``done`` when the job's process has ended, and exits at end of input.  The
server is idle when it forks, and the only threads it holds are
OpenBLAS's, which OpenBLAS stops at fork; the CLI's own process pool forks
from the same state.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

clock = time.monotonic


def _cpu_and_rss():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss)


def invoke(cli, cli_args, trace_path) -> dict:
    """Run ``cli.main(cli_args)`` once and return its timings and outputs."""
    entry = cli.main
    tracer = None
    if trace_path:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        entry = tracer.wrap("cli.main", cli.main)

    cpu0, _ = _cpu_and_rss()
    stdout = io.StringIO()
    error = None
    started = clock()
    try:
        with contextlib.redirect_stdout(stdout):
            code = entry(cli_args)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the run failed; report it as a failed operation
        code, error = 1, traceback.format_exc()
    main_s = clock() - started
    cpu1, _ = _cpu_and_rss()
    result = {
        "main_s": main_s,
        "exit_code": code,
        "error": error,
        "stdout": stdout.getvalue(),
        "cpu_s": cpu1 - cpu0,
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer.spans)
        result["span_count"] = len(tracer.spans)
        with open(trace_path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "work"],
                       "spans": tracer.spans}, fh)
    return result


def write_result(path, result) -> None:
    result["maxrss_kb"] = _cpu_and_rss()[1]
    with open(path, "w") as fh:
        json.dump(result, fh)


def serve(cli) -> None:
    print("ready", flush=True)
    for line in sys.stdin:
        job = json.loads(line)
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                write_result(job["result"], invoke(cli, job["argv"], job["trace"]))
                status = 0
            finally:
                os._exit(status)
        os.waitpid(pid, 0)
        print("done", flush=True)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--result", help="import only and write the stamp to this file")
    mode.add_argument("--serve", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import moranfield.cli as cli

    if args.serve:
        serve(cli)
    else:
        write_result(args.result, {"ready": clock()})


if __name__ == "__main__":
    main()
