import math
import multiprocessing
import os

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import ks_2samp

from clocksim import verify
from clocksim.errors import ModelError, NonExponentialClock, StateSpaceTooLarge
from clocksim.kernel import EventCount, StalledOnly
from clocksim.models import build, parse_hazard
from clocksim.verify import (
    CensoredSample,
    StepFunction,
    chi_square_homogeneity,
    cif_numeric,
    ctmc_oracle,
    nelson_aalen,
    nelson_aalen_sup_distance,
    sampler_equivalence,
    total_variation,
)

LN2 = math.log(2.0)


# -- Nelson-Aalen -------------------------------------------------------------

def test_nelson_aalen_two_events():
    sf = nelson_aalen([CensoredSample(1.0), CensoredSample(2.0)])
    # 1/2 at t=1, plus 1/1 at t=2
    assert sf(0.5) == 0.0
    assert sf(1.0) == pytest.approx(0.5)
    assert sf(2.0) == pytest.approx(1.5)
    assert sf(99.0) == pytest.approx(1.5)


def test_nelson_aalen_all_censored():
    sf = nelson_aalen([CensoredSample(1.0, observed=False), CensoredSample(2.0, observed=False)])
    assert sf(10.0) == 0.0


def test_nelson_aalen_censoring_shrinks_risk_set():
    # event at 1, censored at 1.5, event at 2: H = 1/3 + 1/1
    sf = nelson_aalen([
        CensoredSample(1.0), CensoredSample(1.5, observed=False), CensoredSample(2.0),
    ])
    assert sf(2.0) == pytest.approx(1.0 / 3.0 + 1.0)


def test_nelson_aalen_exponential_consistency():
    rng = np.random.default_rng(8)
    draws = rng.exponential(size=100_000)
    assert nelson_aalen_sup_distance([CensoredSample(float(d)) for d in draws], lambda ts: ts) < 0.05


def test_nelson_aalen_empty_rejected():
    with pytest.raises(ModelError):
        nelson_aalen([])


# -- competing-risks numerics ---------------------------------------------------

def test_cif_single_exponential():
    sf, cifs = cif_numeric([(parse_hazard("exponential:1"), 0.0)], 1e-3, 20.0)
    assert sf(1.0) == pytest.approx(math.exp(-1.0), abs=1e-4)
    assert cifs[0].final == pytest.approx(1.0, abs=1e-4)


def test_cif_two_exponentials_share():
    sf, cifs = cif_numeric(
        [(parse_hazard("exponential:1"), 0.0), (parse_hazard("exponential:2"), 0.0)], 1e-3, 20.0
    )
    assert cifs[1].final == pytest.approx(2.0 / 3.0, abs=1e-4)
    assert cifs[0].final == pytest.approx(1.0 / 3.0, abs=1e-4)


def test_cif_atomic_showcase_left_limit_rule():
    specs = [(parse_hazard(f"exponential:{LN2!r}"), 0.0), (parse_hazard("none@1,0.5"), 0.0)]
    sf, cifs = cif_numeric(specs, 1e-3, 30.0)
    # survival of the race at t=1 (after the atom): 0.5 * 0.5
    assert sf(1.0) == pytest.approx(0.25, abs=1e-6)
    # left-limit rule: CIF_B = S(1-) * mass = 0.25, not 0.125
    assert cifs[1].final == pytest.approx(0.25, abs=1e-6)
    assert cifs[0].final == pytest.approx(0.75, abs=1e-4)


def test_cif_conservation():
    specs = [(parse_hazard("weibull:2,1"), 0.0), (parse_hazard("exponential:1@0.7,0.3"), 0.0)]
    step = 1e-3
    sf, cifs = cif_numeric(specs, step, 6.0)
    max_h = 2.0 * 6.0 + 1.0  # weibull hazard at the horizon dominates
    bound = 2.0 * step * max_h
    worst = 0.0
    for i, t in enumerate(sf.times):
        total = sf.values[i] + sum(c.values[i] for c in cifs)
        worst = max(worst, abs(total - 1.0))
    assert worst < bound


def test_cif_halving_step_reduces_error():
    # cubic cumulative hazard: the trapezoid rule is not exact, so the
    # discretization error is visible and must shrink at least first-order
    spec = [(parse_hazard("weibull:3,1@1,0.5"), 0.0)]

    def max_err(step):
        sf, _ = cif_numeric(spec, step, 2.0)
        worst = 0.0
        for i, t in enumerate(sf.times):
            atom = 0.5 if t >= 1.0 else 1.0
            exact = math.exp(-(t ** 3)) * atom
            worst = max(worst, abs(sf.values[i] - exact))
        return worst

    coarse = max_err(2e-3)
    fine = max_err(1e-3)
    assert coarse / fine > 1.8  # at least first-order convergence


def test_cif_rejects_bad_grid():
    with pytest.raises(ModelError):
        cif_numeric([(parse_hazard("exponential:1"), 0.0)], 0.0, 1.0)


# -- CTMC oracle ------------------------------------------------------------------

def _occupancy_by_x(dist):
    out = {}
    for key, p in dist.items():
        x = dict(key).get("x", 0)
        out[x] = out.get(x, 0.0) + p
    return out


def test_ctmc_birth_death_matches_expm():
    cap = 5
    model = build("birth-death", {"birth": 1.0, "death": 1.0, "x0": 1, "capacity": cap})
    horizon = 1.0
    dist = _occupancy_by_x(ctmc_oracle(model, horizon))
    q = np.zeros((cap + 1, cap + 1))
    for x in range(cap + 1):
        if x < cap:
            q[x, x + 1] = 1.0
        if x >= 1:
            q[x, x - 1] = float(x)
        q[x, x] = -q[x].sum()
    pi0 = np.zeros(cap + 1)
    pi0[1] = 1.0
    expect = pi0 @ expm(q * horizon)
    for x in range(cap + 1):
        assert dist.get(x, 0.0) == pytest.approx(expect[x], abs=1e-8)


def test_ctmc_zero_horizon_is_point_mass():
    model = build("birth-death", {"birth": 1.0, "death": 1.0, "x0": 2, "capacity": 5})
    dist = ctmc_oracle(model, 0.0)
    assert dist[(("x", 2),)] == pytest.approx(1.0)


def test_ctmc_absorbing_mass_conserved():
    model = build("sir", {"n": 2})
    dist = ctmc_oracle(model, 50.0)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-8)
    absorbed = sum(p for key, p in dist.items() if not any(k.startswith("I_") for k, _ in key))
    assert absorbed > 1.0 - 1e-6


def test_ctmc_rejects_nonexponential_and_large_spaces():
    with pytest.raises(NonExponentialClock):
        ctmc_oracle(build("sir", {"n": 2, "recover": "weibull:2,1"}), 1.0)
    with pytest.raises(StateSpaceTooLarge):
        # 10,001 reachable states: one past the oracle's limit
        ctmc_oracle(build("birth-death", {"birth": 1.0, "death": 1.0, "x0": 1, "capacity": 10_000}), 1.0)


# -- goodness of fit -----------------------------------------------------------------

def test_two_sample_helpers_accept_null():
    rng = np.random.default_rng(41)
    a = rng.normal(size=2000)
    b = rng.normal(size=2000)
    assert ks_2samp(a, b, method="asymp").pvalue > 0.01
    ca = rng.multinomial(1000, [0.2, 0.3, 0.5])
    cb = rng.multinomial(1000, [0.2, 0.3, 0.5])
    _, p = chi_square_homogeneity(ca, cb)
    assert p > 0.01


def test_chi_square_ignores_cells_both_samples_left_empty():
    # compare_to_reference counts only the clocks a pair saw; a clock that
    # neither saw is an empty cell, which pools to nothing
    a, b = [30, 50, 2, 1], [25, 55, 3, 0]
    assert chi_square_homogeneity(a, b) == chi_square_homogeneity([30, 0, 50, 2, 1, 0], [25, 0, 55, 3, 0, 0])
    with pytest.raises(ModelError, match="need matching count vectors with >= 2 cells"):
        chi_square_homogeneity([1, 2], [1, 2, 3])
    # every cell's expected count is below 5, so all of them pool into one
    with pytest.raises(ModelError, match="insufficient data: all cells merged"):
        chi_square_homogeneity([1, 1], [1, 1])


def test_step_function_interface():
    sf = StepFunction(np.array([1.0, 2.0]), np.array([0.5, 0.25]), initial=1.0)
    assert sf(0.0) == 1.0
    assert sf(1.0) == 0.5
    assert sf(1.5) == 0.5
    assert sf(2.5) == 0.25
    assert sf.final == 0.25


def test_total_variation():
    assert total_variation({"a": 1.0}, {"a": 1.0}) == 0.0
    assert total_variation({"a": 1.0}, {"b": 1.0}) == 1.0


# -- sampler equivalence ----------------------------------------------------------

SIR3 = ("sir3", build("sir", {"n": 3, "initial_infected": 1}), StalledOnly(),
        "hierarchical:direct=6-8;next-reaction=rest")


def test_sampler_equivalence_compares_independent_samples(monkeypatch):
    # first-reaction, next-reaction and next-to-fire draw one uniform per enabled
    # clock in id order, so on one shared stream their first events coincide
    # and every comparison passes whatever the samplers do
    compared = []

    def capture(a, b, **kwargs):
        compared.append((list(a), list(b)))
        return ks_2samp(a, b, **kwargs)

    monkeypatch.setattr(verify._stats, "ks_2samp", capture)
    rows = sampler_equivalence([SIR3], seed0=101, trajectories=2000)
    reference = compared[0][0]
    assert all(a == reference and b != reference for a, b in compared)
    assert [label.split()[1].split(":")[0] for label, _, _ in rows] == [
        "next-reaction", "next-to-fire", "direct", "hierarchical"]
    assert len(compared) == 4 and all(ok for _, _, ok in rows), rows


def test_event_sample_needs_a_bound():
    with pytest.raises(ModelError, match="bound"):
        verify.event_sample(build("poisson", {}), "direct", 0, EventCount(1))


def test_sampler_equivalence_rows_do_not_depend_on_the_worker_count(monkeypatch):
    rows = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        rows.append(sampler_equivalence([SIR3], seed0=101, trajectories=300))
        assert multiprocessing.active_children() == []
    assert rows[0] == rows[1]
