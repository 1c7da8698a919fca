"""In-memory span tracer and the per-layer metrics derived from its spans.

The tracer wraps the public functions of ``engine``, ``flow``, ``transport``
and ``lab`` from outside the package, on the module attributes their callers
actually look up, so nothing under ``src/`` is edited.  Each call records a
span ``[name, start, end, parent, work]``; ``work`` is a size taken from the
call's arguments or result (replica-steps, sample rows, file bytes).  Spans
stay in memory until the traced pass ends.

The pass must run in one process (``--jobs 1``): chain chunks executed in
pool workers would drop their spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time

clock = time.monotonic


class Tracer:
    """Records nested call spans; single-threaded by design."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, work=None):
        """Return ``fn`` wrapped to record a span named ``name``.

        ``work(args, kwargs, result)`` gives the span's size, computed after
        the span closes so it is not charged to the layer.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                self._stack.pop()
            if work is not None:
                span[4] = work(args, kwargs, result)
            return result

        return traced


def _batch_work(args, kwargs, result):
    # uniforms has shape (R, k): R replicas advanced k lockstep steps
    uniforms = args[3] if len(args) > 3 else kwargs["uniforms"]
    return list(uniforms.shape)


def _rows_work(args, kwargs, result):
    return int(args[0].shape[0])


def _scalar_work(args, kwargs, result):
    return len(result.states) - 1


def _export_work(args, kwargs, result):
    csv_path = args[1] if len(args) > 1 else kwargs["csv_path"]
    sidecar = args[2] if len(args) > 2 else kwargs["sidecar_path"]
    return os.path.getsize(csv_path) + os.path.getsize(sidecar)


def install(tracer: Tracer) -> None:
    """Install wrappers on every call boundary the per-layer metrics read.

    Raises AttributeError when a boundary no longer exists, so a renamed call
    site fails the traced pass instead of reading as zero work.
    """
    import scipy.optimize

    import moranfield.cli as cli
    import moranfield.lab as lab
    import moranfield.transport as transport

    # ``moranfield.flow`` as a package attribute is the function ``flow``
    flow_module = sys.modules["moranfield.flow"]
    boundaries = [
        (lab, "simulate_counts_batch", "engine.simulate_counts_batch", _batch_work),
        (lab, "pushforward", "flow.pushforward", None),
        (lab, "w1_exact", "transport.w1_exact", None),
        (lab, "w1_dual_lower_bound", "transport.w1_dual_lower_bound", None),
        (lab, "bootstrap_w1_ci", "lab.bootstrap_w1_ci", None),
        (lab, "run_ensemble", "lab.run_ensemble", None),
        (lab, "residual_floor", "lab.residual_floor", None),
        (cli, "run_ensemble", "lab.run_ensemble", None),
        (cli, "weak_form_residual", "lab.weak_form_residual", None),
        (cli, "residual_floor", "lab.residual_floor", None),
        (cli, "convergence_experiment", "lab.convergence_experiment", None),
        (cli, "regime_experiment", "lab.regime_experiment", None),
        (cli, "simulate", "engine.simulate", _scalar_work),
        (cli, "export_trajectory", "engine.export_trajectory", _export_work),
        # the bootstrap imports the solver lazily from scipy.optimize
        (scipy.optimize, "linear_sum_assignment", "transport.linear_sum_assignment", None),
        (transport, "linear_sum_assignment", "transport.linear_sum_assignment", None),
        (flow_module, "replicator_field_array", "flow.replicator_field_array", _rows_work),
    ]
    for module, attr, name, work in boundaries:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), work))


def _totals(spans):
    """Per span name: (calls, busy seconds, self seconds, list of work values)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for idx, (name, start, end, _, work) in enumerate(spans):
        calls, busy, self_s, works = out.get(name, (0, 0.0, 0.0, []))
        works.append(work)
        out[name] = (calls + 1, busy + (end - start), self_s + (end - start - child_time[idx]), works)
    return out


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced invocation (counts, busy and self times)."""
    totals = _totals(spans)

    def get(name):
        return totals.get(name, (0, 0.0, 0.0, []))

    batch_calls, batch_busy, _, batch_shapes = get("engine.simulate_counts_batch")
    replica_steps = sum(r * k for r, k in batch_shapes)
    lockstep_steps = sum(k for _, k in batch_shapes)
    scalar_calls, scalar_busy, _, scalar_works = get("engine.simulate")
    scalar_steps = sum(scalar_works)
    _, export_busy, _, export_works = get("engine.export_trajectory")
    push_calls, push_busy, _, _ = get("flow.pushforward")
    field_evals, _, _, field_rows = get("flow.replicator_field_array")
    # one classical RK4 step evaluates the field four times on the same rows
    sample_steps = sum(field_rows) // 4
    lsap_calls, lsap_busy, _, _ = get("transport.linear_sum_assignment")
    w1_calls, w1_busy, _, _ = get("transport.w1_exact")
    dual_calls, dual_busy, _, _ = get("transport.w1_dual_lower_bound")
    boot_calls, boot_busy, boot_self, _ = get("lab.bootstrap_w1_ci")
    boot_resamples = sum(
        1
        for name, _, _, parent, _ in spans
        if name == "transport.linear_sum_assignment"
        and parent >= 0
        and spans[parent][0] == "lab.bootstrap_w1_ci"
    )
    _, floor_busy, floor_self, _ = get("lab.residual_floor")
    _, residual_busy, _, _ = get("lab.weak_form_residual")
    _, _, ensemble_self, _ = get("lab.run_ensemble")
    _, _, conv_self, _ = get("lab.convergence_experiment")
    _, _, regime_self, _ = get("lab.regime_experiment")
    _, _, main_self, _ = get("cli.main")
    return {
        "engine.batch_calls": batch_calls,
        "engine.replica_steps": replica_steps,
        "engine.batch_busy_s": batch_busy,
        "engine.replica_steps_per_s": _rate(replica_steps, batch_busy),
        "engine.step_us": 1e6 * batch_busy / lockstep_steps if lockstep_steps else 0.0,
        "engine.scalar_steps": scalar_steps,
        "engine.scalar_busy_s": scalar_busy,
        "engine.scalar_step_us": 1e6 * scalar_busy / scalar_steps if scalar_steps else 0.0,
        "engine.export_busy_s": export_busy,
        "engine.export_bytes": sum(export_works),
        "flow.pushforward_calls": push_calls,
        "flow.field_evals": field_evals,
        "flow.sample_steps": sample_steps,
        "flow.busy_s": push_busy,
        "flow.sample_steps_per_s": _rate(sample_steps, push_busy),
        "transport.lsap_calls": lsap_calls,
        "transport.lsap_busy_s": lsap_busy,
        "transport.w1_exact_calls": w1_calls,
        "transport.w1_exact_busy_s": w1_busy,
        "transport.dual_calls": dual_calls,
        "transport.dual_busy_s": dual_busy,
        "lab.bootstrap_calls": boot_calls,
        "lab.bootstrap_resamples": boot_resamples,
        "lab.bootstrap_busy_s": boot_busy,
        "lab.bootstrap_resamples_per_s": _rate(boot_resamples, boot_busy),
        "lab.bootstrap_self_s": boot_self,
        "lab.floor_busy_s": floor_busy,
        "lab.floor_self_s": floor_self,
        "lab.residual_busy_s": residual_busy,
        "lab.ensemble_self_s": ensemble_self,
        "lab.experiment_self_s": conv_self + regime_self,
        "cli.main_self_s": main_self,
    }


#: counters: exact integers that must repeat between traced passes
COUNT_METRICS = (
    "engine.batch_calls",
    "engine.replica_steps",
    "engine.scalar_steps",
    "engine.export_bytes",
    "flow.pushforward_calls",
    "flow.field_evals",
    "flow.sample_steps",
    "transport.lsap_calls",
    "transport.w1_exact_calls",
    "transport.dual_calls",
    "lab.bootstrap_calls",
    "lab.bootstrap_resamples",
)
