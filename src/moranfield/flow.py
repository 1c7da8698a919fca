"""Replicator ODE integration and pushforward of empirical measures.

``d lam / dt = b(lam)`` is integrated with fixed-step classical RK4, every
row at the same steps, so a pushed sample depends only on its own initial
point.  A step is at most ``STEP_BOUND`` over the payoff matrix's largest
column spread: a constant added to a column leaves the field unchanged, so
that spread is its rate scale.  Each step clips rounding dust at zero and
divides by the sum; a larger correction raises StiffnessError naming the row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, StiffnessError
from .simplex import PayoffMatrix, SimplexPoint, replicator_field_array
from .transport import EmpiricalMeasure

#: largest per-step renormalization accepted as rounding (clip + sum defect)
RENORM_TOL = 1e-12
#: largest accepted product of the step and the payoff matrix's column spread
STEP_BOUND = 0.25
#: most steps of one pushforward: a longer one is refused rather than run for hours
MAX_STEPS = 2**24


def max_step(entries: np.ndarray) -> float:
    """The stiffness bound on the step for payoff ``entries``: ``STEP_BOUND``
    over the largest column spread, or inf when every column is constant."""
    spread = float(np.ptp(entries, axis=0).max())
    return STEP_BOUND / spread if spread > 0 else np.inf


@dataclass(frozen=True)
class FlowConfig:
    """Fixed-step integrator settings.

    ``step_size`` is the nominal RK4 step (the final step of an integration
    is shortened to land exactly on the target time).
    """

    step_size: float

    def __post_init__(self):
        if not 0 < self.step_size < np.inf:  # written so that nan fails
            raise DomainError(f"step size must be positive and finite, got {self.step_size}")

    def step(self, entries: np.ndarray) -> float:
        """The step taken under payoff ``entries``: ``step_size`` capped by :func:`max_step`."""
        return min(self.step_size, max_step(entries))


def default_flow_config(horizon: float) -> FlowConfig:
    """Default integrator for a run of length ``horizon``: step T/1024."""
    return FlowConfig(step_size=horizon / 1024.0)


def _rk4_step(points: np.ndarray, h: float, entries: np.ndarray) -> np.ndarray:
    k1 = replicator_field_array(points, entries)
    k2 = replicator_field_array(points + 0.5 * h * k1, entries)
    k3 = replicator_field_array(points + 0.5 * h * k2, entries)
    k4 = replicator_field_array(points + h * k3, entries)
    return points + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _advance(points: np.ndarray, h: float, entries: np.ndarray) -> np.ndarray:
    """One RK4 step of size ``h`` for every row, its dust clipped and its sums divided
    out; StiffnessError names the first row corrected by more than ``RENORM_TOL``."""
    out = _rk4_step(points, h, entries)
    negativity = -min(float(out.min()), 0.0)
    sums = out.sum(axis=1)
    defects = np.abs(sums - 1.0)
    if negativity <= RENORM_TOL and float(defects.max()) <= RENORM_TOL:
        if negativity > 0:  # without negative dust the clip is a no-op
            out = np.clip(out, 0.0, None)
            sums = out.sum(axis=1)
        return out / sums[:, None]
    lows = out.min(axis=1)
    i = int(np.argmax(~((lows >= -RENORM_TOL) & (defects <= RENORM_TOL))))  # nan fails
    raise StiffnessError(
        i,
        f"renormalization correction (clip {max(-lows[i], 0.0):.3e}, sum defect "
        f"{defects[i]:.3e}) exceeds {RENORM_TOL} at step {h}",
    )


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
    current, step = samples.array, cfg.step(matrix.entries)
    if t > MAX_STEPS * step:
        raise DomainError(f"flow time {t} needs more than {MAX_STEPS} steps of {step:.3e}")
    remaining = float(t)
    while remaining > 1e-15 * max(1.0, t):
        h = min(step, remaining)
        current = _advance(current, h, matrix.entries)
        remaining -= h
    return EmpiricalMeasure(current)
