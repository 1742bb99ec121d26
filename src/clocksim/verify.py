"""Statistical and numerical oracles.

Independent checks of the sampling machinery: the Nelson-Aalen cumulative
hazard estimator (simulation output back to hazard), a numerical
product-integral evaluator for competing risks with mixed continuous and
atomic hazards, a brute-force CTMC occupancy oracle by uniformization, and
goodness-of-fit statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy import stats as _stats
from scipy.special import kolmogorov as _kolmogorov

from .clocks import DISABLED, Enabled, StateView, apply_mark_inplace
from .errors import (
    DuplicateAtoms,
    ModelError,
    NonExponentialClock,
    StateSpaceTooLarge,
)
from .hazards import Exponential
from .kernel import final_state


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous step function; `initial` before the first breakpoint."""

    times: np.ndarray
    values: np.ndarray
    initial: float = 0.0

    def __call__(self, t: float) -> float:
        idx = np.searchsorted(self.times, t, side="right") - 1
        return self.initial if idx < 0 else float(self.values[idx])

    @property
    def final(self):
        return float(self.values[-1]) if len(self.values) else self.initial


@dataclass(frozen=True)
class CensoredSample:
    duration: float
    observed: bool = True


def nelson_aalen(samples) -> StepFunction:
    """Cumulative hazard estimate: sum over event times of d_i / Y(t_i-)."""
    if not samples:
        raise ModelError("need at least one sample")
    durations = np.array([s.duration for s in samples])
    observed = np.array([s.observed for s in samples], dtype=bool)
    order = np.argsort(durations, kind="stable")
    durations = durations[order]
    observed = observed[order]
    n = len(durations)
    times = []
    values = []
    cum = 0.0
    i = 0
    while i < n:
        t = durations[i]
        j = i
        events = 0
        while j < n and durations[j] == t:
            events += int(observed[j])
            j += 1
        if events:
            at_risk = n - i
            cum += events / at_risk
            times.append(t)
            values.append(cum)
        i = j
    return StepFunction(np.array(times), np.array(values), initial=0.0)


def cif_numeric(specs, grid_step, horizon):
    """Numerical competing-risks solution for clocks racing from time 0.

    specs: list of (HazardSpec, enabling_time).  Returns (total survival,
    [per-clock cumulative incidence]) as step functions on a grid refined to
    contain every atom's absolute time.  Continuous parts integrate by the
    trapezoid rule; atomic factors are exact, with the survival entering
    each atomic increment as its left limit.
    """
    if grid_step <= 0.0:
        raise ModelError("grid_step must be > 0")
    grid = list(np.arange(0.0, horizon + grid_step * 0.5, grid_step))
    if grid[-1] < horizon:
        grid.append(horizon)
    atom_at = {}
    for idx, (spec, te) in enumerate(specs):
        for a in spec.atoms:
            t = te + a.offset
            if t > horizon:
                continue
            if t in atom_at and atom_at[t][0] != idx:
                raise DuplicateAtoms(f"clocks {atom_at[t][0]} and {idx} share atom time {t}")
            atom_at[t] = (idx, a.mass)
            grid.append(t)
    grid = np.unique(np.asarray(grid))

    def hazard(idx, t):
        spec, te = specs[idx]
        d = t - te
        if d < 0.0:
            return 0.0
        return spec.continuous_hazard(d)

    k = len(specs)
    surv = np.empty(len(grid))
    cifs = np.zeros((k, len(grid)))
    s = 1.0
    h_prev = [hazard(j, grid[0]) for j in range(k)]
    if grid[0] in atom_at:
        j, mass = atom_at[grid[0]]
        cifs[j, 0] += s * mass
        s *= 1.0 - mass
    surv[0] = s
    for g in range(1, len(grid)):
        dt = grid[g] - grid[g - 1]
        h_here = [hazard(j, grid[g]) for j in range(k)]
        total = sum(h_prev) + sum(h_here)
        s_left = s * math.exp(-0.5 * dt * total)
        for j in range(k):
            cifs[j, g] = cifs[j, g - 1] + 0.5 * dt * (s * h_prev[j] + s_left * h_here[j])
        s = s_left
        if grid[g] in atom_at:
            j, mass = atom_at[grid[g]]
            cifs[j, g] += s * mass
            s *= 1.0 - mass
        surv[g] = s
        h_prev = h_here
    total_sf = StepFunction(grid, surv, initial=1.0)
    cif_sfs = [StepFunction(grid, cifs[j], initial=0.0) for j in range(k)]
    return total_sf, cif_sfs


# -- CTMC occupancy oracle -------------------------------------------------


def _canonical(counts) -> tuple:
    return tuple(sorted(counts.items()))


def ctmc_oracle(model, horizon, max_states=10_000, tail=1e-9):
    """Exact state occupancy at the horizon for exponential-clock models.

    Enumerates the reachable states breadth-first (errors out above
    max_states) and applies uniformization with Poisson-weight truncation
    error below `tail`.  Returns {canonical state tuple: probability}.
    """
    start = dict(model.initial_state.counts)
    index = {_canonical(start): 0}
    states = [start]
    rows = []
    frontier = [0]
    while frontier:
        nxt = []
        for si in frontier:
            counts = states[si]
            view = StateView(counts, {})
            out = []
            for cid in sorted(model.by_id):
                raw = model.by_id[cid].enabling(view, 0.0)
                if raw is DISABLED:
                    continue
                if not isinstance(raw, Enabled):
                    raise ModelError(f"clock {cid}: cannot resolve enabling without history")
                spec = raw.spec
                if spec.atoms or not isinstance(spec.continuous, Exponential):
                    raise NonExponentialClock(f"clock {cid} is not purely exponential")
                rate = spec.continuous.rate
                if rate <= 0.0:
                    continue
                target = dict(counts)
                apply_mark_inplace(target, model.by_id[cid].mark)
                key = _canonical(target)
                ti = index.get(key)
                if ti is None:
                    ti = len(states)
                    if ti >= max_states:
                        raise StateSpaceTooLarge(f"more than {max_states} reachable states")
                    index[key] = ti
                    states.append(target)
                    nxt.append(ti)
                out.append((ti, rate))
            rows.append((si, out))
        frontier = nxt
    n = len(states)
    q_matrix = sparse.lil_matrix((n, n))
    for si, out in rows:
        total = 0.0
        for ti, rate in out:
            q_matrix[si, ti] += rate
            total += rate
        q_matrix[si, si] -= total
    q_rate = max(-q_matrix[i, i] for i in range(n)) if n else 0.0
    pi = np.zeros(n)
    pi[0] = 1.0
    if q_rate > 0.0 and horizon > 0.0:
        p_hat = (sparse.eye(n) + q_matrix.tocsr() / q_rate).tocsr()
        qt = q_rate * horizon
        k_max = int(_stats.poisson.isf(tail, qt)) + 1
        weights = _stats.poisson.pmf(np.arange(k_max + 1), qt)
        acc = weights[0] * pi
        v = pi
        for k in range(1, k_max + 1):
            v = v @ p_hat
            acc = acc + weights[k] * v
        pi = acc
    keys = sorted(index, key=index.get)
    return {keys[i]: float(pi[i]) for i in range(n)}


def occupancy_from_trajectories(model, trajectories):
    """Empirical final-state distribution {canonical state: fraction}."""
    counts = {}
    for traj in trajectories:
        key = _canonical(final_state(model, traj).counts)
        counts[key] = counts.get(key, 0) + 1
    n = len(trajectories)
    return {k: v / n for k, v in counts.items()}


def total_variation(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


# -- goodness of fit ---------------------------------------------------------


def ks_statistic(samples, cdf):
    """One-sample Kolmogorov-Smirnov with asymptotic (Stephens) p-value."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n < 10:
        raise ModelError(f"need at least 10 samples, got {n}")
    f = np.asarray([cdf(v) for v in x], dtype=float)
    d_plus = np.max(np.arange(1, n + 1) / n - f)
    d_minus = np.max(f - np.arange(0, n) / n)
    d = max(d_plus, d_minus)
    root_n = math.sqrt(n)
    p = float(_kolmogorov((root_n + 0.12 + 0.11 / root_n) * d))
    return d, min(max(p, 0.0), 1.0)


def ks_two_sample(a, b):
    """Two-sample KS (asymptotic p), for pairwise sampler comparisons."""
    res = _stats.ks_2samp(a, b, method="asymp")
    return float(res.statistic), float(res.pvalue)


def chi_square_homogeneity(counts_a, counts_b):
    """Two-sample chi-square that the two count vectors share a distribution."""
    a = np.asarray(counts_a, dtype=float)
    b = np.asarray(counts_b, dtype=float)
    if len(a) != len(b) or len(a) < 2:
        raise ModelError("need matching count vectors with >= 2 cells")
    grand = a.sum() + b.sum()
    col = a + b
    min_row = min(a.sum(), b.sum())
    keep_a, keep_b = [], []
    pool_a = pool_b = 0.0
    for i in range(len(a)):
        if min_row * col[i] / grand < 5.0:
            pool_a += a[i]
            pool_b += b[i]
        else:
            keep_a.append(a[i])
            keep_b.append(b[i])
    if pool_a + pool_b > 0.0:
        keep_a.append(pool_a)
        keep_b.append(pool_b)
    table = np.array([keep_a, keep_b])
    table = table[:, table.sum(axis=0) > 0]
    if table.shape[1] < 2:
        raise ModelError("insufficient data: all cells merged")
    stat, p, _, _ = _stats.chi2_contingency(table, correction=False)
    return float(stat), float(p)
