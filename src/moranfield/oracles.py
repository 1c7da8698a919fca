"""Independent oracles for the invariants the package's results rest on.

Each check recomputes an invariant by a route that shares no formula with
the code it checks: pair enumeration for the transition tables, a move-by-
move sum for the drift, permutation brute force for W1, and step halving for
the RK4 order.  Each returns the worst deviation it saw (or whether a bound
held), so ``moranfield validate`` runs them at small counts and the
acceptance suite at its pinned seeds, counts and thresholds.
"""

from __future__ import annotations

import itertools

import numpy as np

from .engine import DiscreteState, exact_drift, transition_table
from .flow import FlowConfig, flow
from .simplex import PayoffMatrix
from .transport import EmpiricalMeasure, random_witnesses, w1_dual_lower_bound, w1_exact


def transition_sweep(rng, per_combo):
    """Random (A, counts) instances over the pinned (M, N, w) grid."""
    for m in (2, 3, 4):
        for n in range(2, 13):
            for w in (0.0, 0.1, 1.0):
                for _ in range(per_combo):
                    entries = rng.random((m, m)) * 6
                    counts = rng.multinomial(n, np.full(m, 1.0 / m))
                    yield m, n, w, entries, counts


def brute_force_pairs(counts, entries, w):
    """(replicator, dead) pair enumeration: the independent transition oracle."""
    counts = np.asarray(counts, dtype=float)
    n = counts.sum()
    m = counts.size
    pay = np.array(
        [
            sum(
                entries[i][j] * ((counts[j] - 1) if j == i else counts[j])
                for j in range(m)
            )
            / (n - 1)
            for i in range(m)
        ]
    )
    fit = (1 - w) + w * pay
    total = float(counts @ fit)
    moves = np.zeros((m, m))
    stay = 0.0
    for i in range(m):
        repl = counts[i] * fit[i] / total
        for j in range(m):
            dead = counts[j] / n
            if i == j:
                stay += repl * dead
            else:
                moves[i, j] += repl * dead
    return moves, stay


def transition_gaps(rng, per_combo):
    """(instances, max |table sum - 1|, max gap to :func:`brute_force_pairs`)."""
    checked, worst_sum, worst_gap = 0, 0.0, 0.0
    for m, n, w, entries, counts in transition_sweep(rng, per_combo):
        table = transition_table(DiscreteState(counts, n, w), PayoffMatrix(entries))
        worst_sum = max(worst_sum, abs(table.stay_prob + table.move_probs.sum() - 1.0))
        oracle_moves, oracle_stay = brute_force_pairs(counts, entries, w)
        worst_gap = max(worst_gap, np.max(np.abs(table.move_probs - oracle_moves)))
        worst_gap = max(worst_gap, abs(table.stay_prob - oracle_stay))
        checked += 1
    return checked, worst_sum, worst_gap


def drift_gap(rng, per_combo):
    """Max |exact_drift - table mean| over the sweep, the mean summed move by move."""
    worst = 0.0
    for m, n, w, entries, counts in transition_sweep(rng, per_combo):
        state = DiscreteState(counts, n, w)
        mat = PayoffMatrix(entries)
        table = transition_table(state, mat)
        mean = np.zeros(m)
        for i in range(m):
            for j in range(m):
                if i != j:
                    delta = np.zeros(m)
                    delta[i], delta[j] = 1.0 / n, -1.0 / n
                    mean += table.move_probs[i, j] * delta
        worst = max(worst, np.max(np.abs(exact_drift(state, mat) - mean)))
    return worst


def assignment_gap(rng, count):
    """Max |w1_exact - best of all 120 matchings| over ``count`` pairs of 5 points in M = 3."""
    worst = 0.0
    for _ in range(count):
        mu = EmpiricalMeasure(rng.dirichlet(np.ones(3), size=5))
        nu = EmpiricalMeasure(rng.dirichlet(np.ones(3), size=5))
        dist, _ = w1_exact(mu, nu)
        best = min(
            float(np.mean(np.linalg.norm(mu.array - nu.array[list(p)], axis=1)))
            for p in itertools.permutations(range(5))
        )
        worst = max(worst, abs(dist - best))
    return worst


def metric_axioms_hold(rng, count):
    """Symmetry, nonnegativity and the triangle inequality on ``count`` random triples."""
    holds = True
    for _ in range(count):
        a, b, c = (EmpiricalMeasure(rng.dirichlet(np.ones(3), size=8)) for _ in range(3))
        d_ab, _ = w1_exact(a, b)
        d_ba, _ = w1_exact(b, a)
        d_ac, _ = w1_exact(a, c)
        d_cb, _ = w1_exact(c, b)
        if abs(d_ab - d_ba) > 1e-12 or d_ab < 0 or d_ab > d_ac + d_cb + 1e-10:
            holds = False
    return holds


def dual_bound_holds(rng, count):
    """Whether 32 random witnesses never certify more than the exact W1, on ``count`` pairs."""
    holds = True
    for _ in range(count):
        mu = EmpiricalMeasure(rng.dirichlet(np.ones(3), size=10))
        nu = EmpiricalMeasure(rng.dirichlet(np.ones(3), size=10))
        exact, _ = w1_exact(mu, nu)
        if w1_dual_lower_bound(mu, nu, random_witnesses(3, 32, rng)) > exact + 1e-10:
            holds = False
    return holds


def rk4_orders(point, matrix):
    """Observed convergence orders of the flow to t = 1 at steps 1/8 -> 1/16 -> 1/32."""
    ref = flow(point, matrix, 1.0, FlowConfig(step_size=(1.0 / 32) / 64)).coords
    errs = [
        np.linalg.norm(flow(point, matrix, 1.0, FlowConfig(step_size=dt)).coords - ref)
        for dt in (1 / 8, 1 / 16, 1 / 32)
    ]
    return [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
