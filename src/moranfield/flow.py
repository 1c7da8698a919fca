"""Replicator ODE integration and pushforward of empirical measures.

``d lam / dt = b(lam)`` is integrated with fixed-step classical RK4.  The
field is tangent to the simplex, so coordinate sums drift only by rounding;
an optional per-step renormalization clips rounding dust at zero and divides
by the sum.  A correction larger than rounding scale signals a step-size
problem for that row: its step is rejected and it alone is re-stepped at
half the size, so every pushed sample depends only on its own initial point.
A halving cascade below ``min_step`` raises StiffnessError naming the sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, StiffnessError
from .simplex import PayoffMatrix, SimplexPoint, replicator_field_array
from .transport import EmpiricalMeasure

#: largest per-step renormalization accepted as rounding (clip + sum defect)
RENORM_TOL = 1e-12


@dataclass(frozen=True)
class FlowConfig:
    """Fixed-step integrator settings.

    ``step_size`` is the nominal RK4 step (the final step of an integration
    is shortened to land exactly on the target time).
    """

    step_size: float
    renormalize: bool = True
    min_step: float = 1e-9

    def __post_init__(self):
        if self.step_size <= 0:
            raise DomainError(f"step size must be positive, got {self.step_size}")
        if not 0 < self.min_step <= self.step_size:
            raise DomainError(
                f"min_step must lie in (0, step_size], got {self.min_step}"
            )


def default_flow_config(horizon: float) -> FlowConfig:
    """Default integrator for a run of length ``horizon``: step T/1024."""
    return FlowConfig(step_size=horizon / 1024.0)


def _rk4_step(points: np.ndarray, h: float, entries: np.ndarray) -> np.ndarray:
    k1 = replicator_field_array(points, entries)
    k2 = replicator_field_array(points + 0.5 * h * k1, entries)
    k3 = replicator_field_array(points + 0.5 * h * k2, entries)
    k4 = replicator_field_array(points + h * k3, entries)
    return points + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _advance(
    points: np.ndarray, h: float, entries: np.ndarray, cfg: FlowConfig, rows: np.ndarray
) -> np.ndarray:
    """One accepted step of size ``h`` for every row; the rejected rows alone are
    re-stepped in two halves, recursively.  ``rows`` holds each row's sample index."""
    out = _rk4_step(points, h, entries)
    if not cfg.renormalize:
        return out
    negativity = -min(float(out.min()), 0.0)
    sums = out.sum(axis=1)
    defects = np.abs(sums - 1.0)
    if negativity <= RENORM_TOL and float(defects.max()) <= RENORM_TOL:
        if negativity > 0:  # without negative dust the clip is a no-op
            out = np.clip(out, 0.0, None)
            sums = out.sum(axis=1)
        return out / sums[:, None]
    lows = out.min(axis=1)
    bad = ~((lows >= -RENORM_TOL) & (defects <= RENORM_TOL))  # written so that nan fails
    if h * 0.5 < cfg.min_step:
        i = int(np.argmax(bad))
        raise StiffnessError(
            int(rows[i]),
            f"renormalization correction (clip {max(-lows[i], 0.0):.3e}, sum defect "
            f"{defects[i]:.3e}) exceeds {RENORM_TOL} at the minimum step {cfg.min_step}",
        )
    kept = np.clip(out[~bad], 0.0, None)
    out[~bad] = kept / kept.sum(axis=1, keepdims=True)
    half = _advance(points[bad], h * 0.5, entries, cfg, rows[bad])
    out[bad] = _advance(half, h * 0.5, entries, cfg, rows[bad])
    return out


def flow(
    point: SimplexPoint, matrix: PayoffMatrix, t: float, cfg: FlowConfig
) -> SimplexPoint:
    """Replicator flow map: the ODE solution at time ``t`` started at ``point``."""
    return SimplexPoint(pushforward(EmpiricalMeasure([point]), matrix, t, cfg).array[0])


def pushforward(
    samples: EmpiricalMeasure, matrix: PayoffMatrix, t: float, cfg: FlowConfig
) -> EmpiricalMeasure:
    """Apply the flow map to every sample; preserves count and sample order."""
    if not 0 <= t < np.inf:  # written so that nan fails
        raise DomainError(f"flow time must be finite and nonnegative, got {t}")
    if samples.dimension != matrix.dimension:
        raise DimensionError(
            f"samples have {samples.dimension} strategies, matrix has {matrix.dimension}"
        )
    current, rows = samples.array, np.arange(samples.size)
    remaining = float(t)
    while remaining > 1e-15 * max(1.0, t):
        h = min(cfg.step_size, remaining)
        current = _advance(current, h, matrix.entries, cfg, rows)
        remaining -= h
    return EmpiricalMeasure(current)
