"""Statistical and numerical oracles, and the checks built on them.

Independent checks of the sampling machinery: the Nelson-Aalen cumulative
hazard estimator (simulation output back to hazard), a numerical
product-integral evaluator for competing risks with mixed continuous and
atomic hazards, a brute-force CTMC occupancy oracle by uniformization, and
goodness-of-fit statistics.

The checks at the end (`distributions`, `sampler_equivalence`,
`competing_risks`, `ctmc_agreement`, `hazard_round_trip`) each take their
sizes, seeds and thresholds and return (label, statistics, ok) rows.
`clocksim verify` runs them at its suites' sizes and the acceptance criteria
at theirs.  `sampler_equivalence` runs its independent collections on
`pool.fork_map`, the pool of `clocksim run --workers`, whose forked workers
inherit each case's built model, and compares them in this process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy import stats as _stats

from .clocks import DISABLED, UNCHANGED, StateView, apply_mark_inplace, evaluate_enabling
from . import hazards
from .errors import (
    DuplicateAtoms,
    ModelError,
    NonExponentialClock,
    StateSpaceTooLarge,
)
from .hazards import Exponential
from .kernel import EndTime, EventCount, StalledOnly, final_state, run_ensemble, run_trajectory
from .models import build, parse_hazard
from .pool import fork_map
from .samplers import _BASE_SAMPLERS


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


def nelson_aalen_sup_distance(samples, cumulative) -> float:
    """Sup over [0, 1] of |Nelson-Aalen estimate - `cumulative`| (an array of
    times to their cumulative hazards), at each step and just before it."""
    sf = nelson_aalen(samples)
    mask = sf.times <= 1.0
    h = cumulative(sf.times[mask])
    vals = sf.values[mask]
    prev_vals = np.concatenate([[0.0], vals[:-1]])
    return max(float(np.max(np.abs(vals - h))), float(np.max(np.abs(prev_vals - h))))


def cif_numeric(specs, grid_step, horizon):
    """Numerical competing-risks solution for clocks racing from time 0.

    specs: list of (HazardSpec, enabling_time >= 0).  Returns (total survival,
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
    # an atom lies strictly after its enabling time >= 0, so none at grid[0] = 0
    s = surv[0] = 1.0
    h_prev = [hazard(j, grid[0]) for j in range(k)]
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


_CTMC_MAX_STATES = 10_000  # reachable states `ctmc_oracle` enumerates before it gives up
_CTMC_TAIL = 1e-9  # Poisson weight `ctmc_oracle`'s uniformization leaves out


def ctmc_oracle(model, horizon):
    """Exact state occupancy at the horizon for exponential-clock models.

    Enumerates the reachable states breadth-first (errors out above
    _CTMC_MAX_STATES) and applies uniformization with Poisson-weight truncation
    error below _CTMC_TAIL.  Returns {canonical state tuple: probability}.
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
                resolved = evaluate_enabling(model.by_id[cid], view, 0.0, DISABLED)
                if resolved is UNCHANGED:  # still disabled
                    continue
                spec = resolved.spec
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
                    if ti >= _CTMC_MAX_STATES:
                        raise StateSpaceTooLarge(f"more than {_CTMC_MAX_STATES} reachable states")
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
        k_max = int(_stats.poisson.isf(_CTMC_TAIL, qt)) + 1
        weights = _stats.poisson.pmf(np.arange(k_max + 1), qt)
        acc = weights[0] * pi
        v = pi
        for k in range(1, k_max + 1):
            v = v @ p_hat
            acc = acc + weights[k] * v
        pi = acc
    return {key: float(p) for key, p in zip(index, pi)}  # index holds the states in index order


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


def compare_to_reference(reference, samples):
    """[(name, KS p, chi-square p)] of each (times, mark counts) sample in the
    mapping `samples` against `reference`: two-sample KS on the times,
    chi-square homogeneity on the counts over the clocks either one saw (None
    with fewer than 2; a clock neither saw would only add an empty cell, which
    the chi-square pools away)."""
    ref_times, ref_marks = reference
    rows = []
    for name, (times, marks) in samples.items():
        p_ks = _stats.ks_2samp(ref_times, times, method="asymp").pvalue
        clocks = sorted(ref_marks.keys() | marks.keys())
        p_chi = None
        if len(clocks) >= 2:
            _, p_chi = chi_square_homogeneity([ref_marks.get(c, 0) for c in clocks],
                                              [marks.get(c, 0) for c in clocks])
        rows.append((name, p_ks, p_chi))
    return rows


# -- checks: rows for `clocksim verify` and the acceptance criteria -----------


def distributions():
    """Survival against exp(-time_process) and its inversion back to time, on eleven hazard specs."""
    matrix = [
        "exponential:1",
        "exponential:0.5@1,0.3",
        "weibull:2,1",
        "weibull:0.7,2",
        "gamma:2,3",
        "uniform:0.5,2",
        "piecewise:0,1,2|0.5,0,2",
        "none@1,0.25;2,0.5",
        "exponential:0.6931471805599453@1,0.5",
        "gamma:0.5,1",
        "weibull:1.5,1@0.5,0.2;1.5,1",
    ]
    ts = [float(t) for t in np.linspace(0.01, 4.0, 101)]
    rows = []
    for text in matrix:
        spec = parse_hazard(text)
        worst = worst_rt = 0.0
        for t in ts:
            s = hazards.survival(spec, t)
            via_tp = math.exp(-hazards.time_process(spec, 0.0, t))
            if s > 1e-300:
                worst = max(worst, abs(s - via_tp) / s)
            if s <= 1e-12 or s >= 1.0:
                continue
            t_back = hazards.invert_conditional(spec, 0.0, math.log(s))
            if abs(t_back - t) > 1e-9 * t:
                # a tie inside a flat segment or at an atom is consistent iff
                # no hazard was consumed between the two answers
                gap = hazards.time_process(spec, min(t, t_back), max(t, t_back))
                if gap > 1e-9:
                    worst_rt = math.inf
            else:
                worst_rt = max(worst_rt, abs(t_back - t) / t)
        ok = worst < 1e-10 and worst_rt < 1e-9
        rows.append((f"distributions {text}", f"sup-rel {worst:.2e} rt {worst_rt:.2e}", ok))
    return rows


def event_sample(model, sampler, seed, stop, trajectories=math.inf, events=math.inf):
    """(first-event times, mark counts over all events) of the trajectories on
    stream indices 0, 1, ... under base seed `seed`, until `trajectories` have
    run or `events` events have fired; a trajectory without events adds nothing."""
    if math.isinf(trajectories) and math.isinf(events):
        raise ModelError("event_sample needs a finite trajectories or events bound")
    times = []
    marks = {}
    index = total = 0
    while index < trajectories and total < events:
        traj = run_trajectory(model, sampler, seed, stop, stream_index=index)
        index += 1
        if traj.events:
            times.append(traj.events[0].time)
            for ev in traj.events:
                marks[ev.clock] = marks.get(ev.clock, 0) + 1
            total += len(traj.events)
    return times, marks


_SAMPLERS = tuple(_BASE_SAMPLERS)  # first-reaction first: the reference


def sampler_equivalence(cases, seed0, trajectories=math.inf, events=math.inf):
    """Every sampler against first-reaction on each case, by `compare_to_reference`
    on `event_sample`s; a row passes when both p-values exceed 0.01.

    A case is (label, model, stop, hierarchical sampler spec).  The samples
    are collected in (case, sampler) order, the k-th on base seed seed0 + k:
    each sampler needs its own stream family, since on a shared one the
    samplers that draw one variate per enabled clock in id order give
    identical first events.  The pool's workers inherit the cases' models.
    """
    tasks = []
    for _, model, stop, hier in cases:
        for name in (*_SAMPLERS, hier):
            tasks.append((model, name, seed0 + len(tasks), stop, trajectories, events))
    collected = iter(fork_map(event_sample, tasks))
    rows = []
    for label, _, _, hier in cases:
        reference = next(collected)
        samples = {name: next(collected) for name in (*_SAMPLERS[1:], hier)}
        for name, p_ks, p_chi in compare_to_reference(reference, samples):
            rows.append((f"equivalence {name} vs first-reaction on {label}",
                         f"KS p {p_ks:.3f} chi2 p {p_chi:.3f}", p_ks > 0.01 and p_chi > 0.01))
    return rows


def competing_risks(trajectories, seed, grid_step, horizon, tol, cif_tol):
    """Atomic-showcase's probability 1/4 that the atom B wins: from
    `trajectories` direct runs (within `tol`) and from `cif_numeric` on its
    rules' initial specs, `grid_step` apart up to `horizon` (within `cif_tol`)."""
    model = build("atomic-showcase", {})
    view = StateView(model.initial_state.counts, {})
    specs = [(evaluate_enabling(clock, view, 0.0, DISABLED).spec, 0.0) for clock in model.clocks]
    b = next(j for j, (spec, _) in enumerate(specs) if spec.atoms)
    _, marks = event_sample(model, "direct", seed, StalledOnly(), trajectories=trajectories)
    _, cifs = cif_numeric(specs, grid_step=grid_step, horizon=horizon)
    emp, cif_b = marks.get(model.clocks[b].id, 0) / trajectories, cifs[b].final
    ok = abs(emp - 0.25) < tol and abs(cif_b - 0.25) < cif_tol
    return [("oracle atomic-showcase P(B)", f"empirical {emp:.4f} cif {cif_b:.6f}", ok)]


def ctmc_agreement(cases, trajectories, horizon, tol):
    """Each case's final-state occupancy at `horizon` over `trajectories` runs
    against `ctmc_oracle`, by total variation below `tol`.  A case is
    (label, model, sampler, seed)."""
    rows = []
    for label, model, sampler, seed in cases:
        trajs = run_ensemble(model, sampler, seed, trajectories, EndTime(horizon))
        tv = total_variation(occupancy_from_trajectories(model, trajs), ctmc_oracle(model, horizon))
        rows.append((f"oracle {label} occupancy", f"TV {tv:.4f}", tv < tol))
    return rows


def hazard_round_trip(events, seed, tol):
    """Nelson-Aalen over the interarrivals of `events` Weibull(2, 1) renewals
    against their cumulative hazard t^2: the sup distance on [0, 1], at each
    step of the estimate and just before it, below `tol`."""
    model = build("renewal", {"interarrival": "weibull:2,1"})
    times = [ev.time for ev in run_trajectory(model, "next-to-fire", seed, EventCount(events)).events]
    samples = [CensoredSample(t - prev) for prev, t in zip([0.0, *times], times)]
    sup = nelson_aalen_sup_distance(samples, lambda ts: ts ** 2)
    return [("hazard-round-trip renewal weibull:2,1",
             f"sup |NA(t) - t^2| on [0,1] {sup:.4f} over {len(samples)} samples", sup < tol)]
