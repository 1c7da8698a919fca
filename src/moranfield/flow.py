"""Replicator ODE integration and pushforward of empirical measures.

``d lam / dt = b(lam)`` is integrated with fixed-step classical RK4.  The
field is tangent to the simplex, so coordinate sums drift only by rounding;
an optional per-step renormalization clips rounding dust at zero and divides
by the sum.  A correction larger than rounding scale signals a step-size
problem: the step is rejected and halved, and a halving cascade below
``min_step`` raises StiffnessError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StiffnessError
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


def _advance(points: np.ndarray, h: float, entries: np.ndarray, cfg: FlowConfig) -> np.ndarray:
    """One accepted step of size ``h`` (recursively halved on rejection)."""
    out = _rk4_step(points, h, entries)
    if not cfg.renormalize:
        return out
    negativity = -min(float(out.min()), 0.0)
    sums = out.sum(axis=1)
    sum_defect = float(np.max(np.abs(sums - 1.0)))
    if negativity <= RENORM_TOL and sum_defect <= RENORM_TOL:
        if negativity > 0:  # without negative dust the clip is a no-op
            out = np.clip(out, 0.0, None)
            sums = out.sum(axis=1)
        return out / sums[:, None]
    if h * 0.5 < cfg.min_step:
        raise StiffnessError(
            f"renormalization correction (clip {negativity:.3e}, sum defect "
            f"{sum_defect:.3e}) exceeds {RENORM_TOL} at the minimum step {cfg.min_step}"
        )
    half = _advance(points, h * 0.5, entries, cfg)
    return _advance(half, h * 0.5, entries, cfg)


def _integrate(points: np.ndarray, entries: np.ndarray, t: float, cfg: FlowConfig) -> np.ndarray:
    remaining = float(t)
    current = points
    while remaining > 1e-15 * max(1.0, t):
        h = min(cfg.step_size, remaining)
        current = _advance(current, h, entries, cfg)
        remaining -= h
    return current


def flow(
    point: SimplexPoint, matrix: PayoffMatrix, t: float, cfg: FlowConfig
) -> SimplexPoint:
    """Replicator flow map: the ODE solution at time ``t`` started at ``point``."""
    if t < 0:
        raise DomainError(f"flow time must be nonnegative, got {t}")
    if point.dimension != matrix.dimension:
        raise DomainError(
            f"point has {point.dimension} strategies, matrix has {matrix.dimension}"
        )
    out = _integrate(point.coords[None, :], matrix.entries, t, cfg)
    return SimplexPoint(out[0])


def pushforward(
    samples: EmpiricalMeasure, matrix: PayoffMatrix, t: float, cfg: FlowConfig
) -> EmpiricalMeasure:
    """Apply the flow map to every sample; preserves count and sample order."""
    if t < 0:
        raise DomainError(f"flow time must be nonnegative, got {t}")
    try:
        out = _integrate(samples.array, matrix.entries, t, cfg)
    except StiffnessError:
        # rerun one by one to name the offending sample
        for idx in range(samples.size):
            try:
                _integrate(samples.array[idx : idx + 1], matrix.entries, t, cfg)
            except StiffnessError as err:
                raise StiffnessError(f"sample {idx}: {err}") from err
        raise
    return EmpiricalMeasure(out)
