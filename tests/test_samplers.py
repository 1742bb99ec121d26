import hashlib
import io
import math
import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from clocksim import samplers
from clocksim.clocks import DISABLED, ClockSpec, Enabled, JumpMark, SystemState
from clocksim.errors import ModelError, Stalled, UnknownClock
from clocksim.hazards import INF, Atom, Exponential, HazardSpec, Weibull
from clocksim.kernel import EventCount, StalledOnly, run_ensemble, run_trajectory, write_trajectory
from clocksim.models import Model, build, parse_hazard
from clocksim.samplers import (
    SAMPLER_NAMES,
    DirectSampler,
    EnablingDelta,
    FirstReactionSampler,
    HierarchicalSampler,
    NextReactionSampler,
    NextToFireSampler,
    make_sampler,
)
from clocksim.verify import compare_to_reference

from conftest import AuditedNextReaction, FakeStream, enable, last_event_sample

LN2 = math.log(2.0)
EXP1 = HazardSpec(Exponential(1.0))
EXP2 = HazardSpec(Exponential(2.0))


def u_for_budget(budget):
    """Uniform variate whose drawn log-survival is -budget."""
    return 1.0 - math.exp(-budget)


def queued(sampler):
    """Ids in a queue-based sampler's putative queue."""
    return set(sampler._queue.times)


def assert_not_enabled(sampler, cid):
    """The sampler rejects disabling `cid`: it does not hold it as enabled."""
    with pytest.raises(UnknownClock):
        sampler.absorb(EnablingDelta(newly_disabled=[cid]), 0.0, FakeStream([]))


# -- first reaction -----------------------------------------------------------

def test_fr_two_exponentials_minimum():
    s = FirstReactionSampler()
    enable(s, {0: (EXP1, 0.0), 1: (EXP2, 0.0)}, 0.0, FakeStream([]))
    ev = s.next_event(0.0, FakeStream([0.5, 0.5]))
    assert ev.clock == 1
    assert ev.time == pytest.approx(LN2 / 2.0, rel=1e-12)


def test_fr_single_clock_any_variate():
    s = FirstReactionSampler()
    enable(s, {4: (EXP1, 0.0)}, 0.0, FakeStream([]))
    assert s.next_event(0.0, FakeStream([0.99])).clock == 4


def test_fr_atom_beats_slow_exponential():
    # clock 1's draw at u=0.9 is -ln(0.1)/ln(2) ~ 3.32; clock 2 is certain at 0.5
    atom = HazardSpec(None, (Atom(0.5, 1.0),))
    s = FirstReactionSampler()
    enable(s, {1: (HazardSpec(Exponential(LN2)), 0.0), 2: (atom, 0.0)}, 0.0, FakeStream([]))
    ev = s.next_event(0.0, FakeStream([0.9, 0.37]))
    assert (ev.clock, ev.time) == (2, 0.5)


def test_fr_stalled():
    s = FirstReactionSampler()
    enable(s, {0: (HazardSpec(None, (Atom(1.0, 0.4),)), 0.0)}, 0.0, FakeStream([]))
    with pytest.raises(Stalled):
        s.next_event(2.0, FakeStream([0.9]))  # atom is in the past, no hazard left


def test_fr_conditional_on_survival_to_now():
    # Weibull clock enabled at 0; at now=1 the draw conditions on survival to 1:
    # (t^2 - 1) = budget
    s = FirstReactionSampler()
    enable(s, {0: (HazardSpec(Weibull(2.0, 1.0)), 0.0)}, 0.0, FakeStream([]))
    ev = s.next_event(1.0, FakeStream([u_for_budget(3.0)]))
    assert ev.time == pytest.approx(2.0, rel=1e-12)


# -- next reaction ------------------------------------------------------------

def test_nr_modified_rate_keeps_budget():
    s = NextReactionSampler()
    enable(s, {0: (EXP1, 0.0)}, 0.0, FakeStream([u_for_budget(2.0)]))
    assert s.next_event(0.0, FakeStream([])).time == pytest.approx(2.0, rel=1e-12)
    # at t=1 the rate doubles: consumed 1, remaining 1, putative 1 + 1/2
    s.absorb(EnablingDelta(modified=[(0, EXP2, 0.0)]), 1.0, FakeStream([]))
    e = s._entries[0]
    assert e.consumed == pytest.approx(1.0, rel=1e-12)
    assert s.next_event(1.0, FakeStream([])).time == pytest.approx(1.5, rel=1e-12)


def test_nr_disable_freezes_budget():
    s = NextReactionSampler()
    enable(s, {0: (EXP1, 0.0)}, 0.0, FakeStream([u_for_budget(2.0)]))
    s.absorb(EnablingDelta(newly_disabled=[0]), 1.0, FakeStream([]))
    with pytest.raises(Stalled):
        s.next_event(1.0, FakeStream([]))
    # re-enabled at t=4 with the same spec: one unit of budget left
    s.absorb(EnablingDelta(newly_enabled=[(0, EXP1, 4.0)]), 4.0, FakeStream([]))
    assert s.next_event(4.0, FakeStream([])).time == pytest.approx(5.0, rel=1e-12)


def test_nr_atom_consumes_past_budget():
    spec = HazardSpec(None, (Atom(1.0, 0.5),))
    s = NextReactionSampler()
    enable(s, {0: (spec, 0.0)}, 0.0, FakeStream([u_for_budget(0.6)]))
    # remaining budget 0.6 < ln 2 consumed by the atom: putative at the atom
    assert s.next_event(0.0, FakeStream([])).time == 1.0


def test_nr_fired_clock_redrawn_fresh():
    s = NextReactionSampler()
    enable(s, {0: (EXP1, 0.0), 1: (EXP1, 0.0)},
           0.0, FakeStream([u_for_budget(0.5), u_for_budget(9.0)]))
    ev = s.next_event(0.0, FakeStream([]))
    assert (ev.clock, ev.time) == (0, 0.5)
    s.absorb(EnablingDelta(fired=0, newly_enabled=[(0, EXP1, 0.5)]),
             0.5, FakeStream([u_for_budget(0.25)]))
    ev = s.next_event(0.5, FakeStream([]))
    assert ev.clock == 0
    assert ev.time == pytest.approx(0.75, rel=1e-12)


def test_nr_unknown_clock():
    s = NextReactionSampler()
    enable(s, {0: (EXP1, 0.0)}, 0.0, FakeStream([0.5]))
    with pytest.raises(UnknownClock):
        s.absorb(EnablingDelta(fired=3), 1.0, FakeStream([]))
    with pytest.raises(UnknownClock):
        s.absorb(EnablingDelta(modified=[(7, EXP1, 0.0)]), 1.0, FakeStream([]))


@pytest.mark.parametrize("make", [
    FirstReactionSampler, NextReactionSampler, NextToFireSampler, DirectSampler,
    pytest.param(lambda: make_sampler("hierarchical:next-to-fire=0;first-reaction=rest"), id="hierarchical"),
])
def test_malformed_delta_raises_unknown_clock(make):
    malformed = [
        EnablingDelta(newly_disabled=[7]),            # disable an unknown clock
        EnablingDelta(fired=7),                       # fire an unknown clock
        EnablingDelta(newly_enabled=[(0, EXP1, 0.0)]),  # re-enable an enabled clock
        EnablingDelta(modified=[(7, EXP1, 0.0)]),     # modify an unknown clock
        EnablingDelta(newly_disabled=[0, 7]),         # a known clock, then an unknown one
        EnablingDelta(newly_enabled=[(1, EXP1, 0.0), (1, EXP1, 0.0)]),  # enable one clock twice
        EnablingDelta(newly_disabled=[0], modified=[(0, EXP1, 0.0)]),  # disable, then modify
    ]
    for delta in malformed:
        s = make()
        enable(s, {0: (EXP1, 0.0)}, 0.0, FakeStream([0.5]))
        before = pickle.dumps(s)
        stream = FakeStream([0.5, 0.5])
        with pytest.raises(UnknownClock):
            s.absorb(delta, 1.0, stream)
        # rejected before any state changed
        assert pickle.dumps(s) == before
        assert stream.count == 0


@pytest.mark.parametrize("te", [1.5, math.nextafter(1.0, INF), math.nan, -INF], ids=["future", "next-ulp", "nan", "-inf"])
@pytest.mark.parametrize("make", [
    FirstReactionSampler, NextReactionSampler, NextToFireSampler, DirectSampler,
    pytest.param(lambda: make_sampler("hierarchical:next-to-fire=0;direct=rest"), id="hierarchical"),
])
def test_anchor_after_now_or_not_finite_raises_model_error(make, te):
    rejected = [
        EnablingDelta(newly_enabled=[(1, EXP1, te)]),
        EnablingDelta(modified=[(0, EXP1, te)]),
        # a valid entry first (under hierarchical, another child's part): it must not apply either
        EnablingDelta(modified=[(0, EXP2, 0.5)], newly_enabled=[(1, EXP1, te)]),
        EnablingDelta(newly_disabled=[0], newly_enabled=[(0, EXP2, te)]),
    ]
    for delta in rejected:
        s = make()
        enable(s, {0: (EXP1, 0.0)}, 0.0, FakeStream([0.5]))
        before = pickle.dumps(s)
        stream = FakeStream([0.5, 0.5])
        with pytest.raises(ModelError, match="is not finite, or is in the future"):
            s.absorb(delta, 1.0, stream)
        assert pickle.dumps(s) == before
        assert stream.count == 0
        # the next proposal is the one the sampler made before the rejected delta
        expect = pickle.loads(before).next_event(1.0, FakeStream([0.25, 0.75]))
        assert s.next_event(1.0, FakeStream([0.25, 0.75])) == expect


def test_nr_queue_tracks_enabled_set():
    s = NextReactionSampler()
    enable(s, {0: (EXP1, 0.0), 1: (EXP1, 0.0), 2: (EXP1, 0.0)},
           0.0, FakeStream([0.3, 0.4, 0.5]))
    assert queued(s) == {0, 1, 2}
    s.absorb(EnablingDelta(newly_disabled=[1]), 0.1, FakeStream([]))
    assert queued(s) == {0, 2}
    assert_not_enabled(s, 1)
    s.absorb(EnablingDelta(fired=0, newly_enabled=[(1, EXP1, 0.2)]),
             0.2, FakeStream([]))
    assert queued(s) == {1, 2}
    assert_not_enabled(s, 0)


def test_nr_audit_records_budget():
    s = AuditedNextReaction()
    enable(s, {0: (EXP1, 0.0)}, 0.0, FakeStream([u_for_budget(1.25)]))
    ev = s.next_event(0.0, FakeStream([]))
    s.absorb(EnablingDelta(fired=0), ev.time, FakeStream([]))
    ((cid, consumed, budget, at_atom),) = s.audit_log
    assert cid == 0 and not at_atom
    assert consumed == pytest.approx(budget, abs=1e-9)
    assert budget == pytest.approx(1.25, rel=1e-12)


# -- next to fire --------------------------------------------------------------

def test_ntf_modified_redrawn_conditionally():
    s = NextToFireSampler()
    enable(s, {0: (EXP1, 0.0)}, 0.0, FakeStream([0.5]))
    s.absorb(EnablingDelta(modified=[(0, EXP2, 0.0)]), 1.0, FakeStream([u_for_budget(1.0)]))
    assert s.next_event(1.0, FakeStream([])).time == pytest.approx(1.5, rel=1e-12)


def test_ntf_unaffected_keeps_putative():
    s = NextToFireSampler()
    enable(s, {0: (EXP1, 0.0), 1: (EXP1, 0.0)},
           0.0, FakeStream([u_for_budget(0.3), u_for_budget(2.0)]))
    ev = s.next_event(0.0, FakeStream([]))
    assert (ev.clock, ev.time) == (0, pytest.approx(0.3))
    s.absorb(EnablingDelta(fired=0), 0.3, FakeStream([]))
    assert s.next_event(0.3, FakeStream([])).time == pytest.approx(2.0, rel=1e-12)


def test_ntf_queue_tracks_enabled_set():
    s = NextToFireSampler()
    enable(s, {0: (EXP1, 0.0), 1: (EXP1, 0.0)}, 0.0, FakeStream([0.3, 0.4]))
    assert queued(s) == {0, 1}
    s.absorb(EnablingDelta(fired=0, newly_enabled=[(2, EXP2, 0.1)]),
             0.1, FakeStream([0.5]))
    assert queued(s) == {1, 2}
    assert_not_enabled(s, 0)


def test_ntf_weibull_conditional_matches_quadrature():
    spec = HazardSpec(Weibull(1.7, 1.3))
    s = NextToFireSampler()
    enable(s, {0: (spec, 0.0)}, 0.0, FakeStream([0.2]))
    budget = 0.9
    s.absorb(EnablingDelta(modified=[(0, spec, 0.0)]), 1.0, FakeStream([u_for_budget(budget)]))
    got = s.next_event(1.0, FakeStream([])).time

    def consumed(t):
        val, _ = quad(spec.continuous.hazard, 1.0, t, limit=200)
        return val - budget

    expect = brentq(consumed, 1.0, 50.0, xtol=1e-12)
    assert got == pytest.approx(expect, rel=1e-9)


# -- direct ----------------------------------------------------------------------

def test_direct_two_exponentials():
    s = DirectSampler()
    enable(s, {1: (EXP1, 0.0), 2: (EXP2, 0.0)}, 0.0, FakeStream([]))
    ev = s.next_event(0.0, FakeStream([0.5, 0.5]))
    # waiting time ln2/3; cumulative fractions (1/3, 1): 0.5 > 1/3 -> clock 2
    assert ev.clock == 2
    assert ev.time == pytest.approx(LN2 / 3.0, rel=1e-12)
    ev = s.next_event(0.0, FakeStream([0.5, 0.2]))
    assert ev.clock == 1


def test_direct_pure_atom():
    s = DirectSampler()
    enable(s, {0: (HazardSpec(None, (Atom(3.0, 1.0),)), 0.0)}, 0.0, FakeStream([]))
    for u1 in (0.01, 0.5, 0.99):
        ev = s.next_event(0.0, FakeStream([u1, 0.5]))
        assert (ev.clock, ev.time) == (0, 3.0)


def test_direct_atom_vs_exponential_race():
    # total survival at 1-: 0.5, at 1: 0.25; u1=0.6 targets 0.4 in [0.25, 0.5)
    s = DirectSampler()
    enable(
        s,
        {0: (HazardSpec(Exponential(LN2)), 0.0), 1: (HazardSpec(None, (Atom(1.0, 0.5),)), 0.0)},
        0.0, FakeStream([]),
    )
    ev = s.next_event(0.0, FakeStream([0.6, 0.9]))
    assert (ev.clock, ev.time) == (1, 1.0)
    # u1=0.4 targets survival 0.6 > 0.5: continuous crossing before the atom
    ev = s.next_event(0.0, FakeStream([0.4, 0.0]))
    assert ev.clock == 0
    assert ev.time == pytest.approx(-math.log(0.6) / LN2, rel=1e-12)


def test_direct_atom_breakpoints_follow_enabling_changes():
    # an atom assertion scripts a budget that runs out at that atom
    half = 0.5 * LN2  # half the budget drop at a mass-0.5 atom
    spec = HazardSpec(EXP1.continuous, (Atom(1.0, 0.5), Atom(3.0, 0.5)))
    s = DirectSampler()
    enable(s, {0: (spec, 0.0), 1: (EXP2, 0.0)}, 0.0, FakeStream([]))
    ev = s.next_event(0.0, FakeStream([u_for_budget(3.0 + half), 0.5]))
    assert (ev.clock, ev.time) == (0, 1.0)
    # disabled at 0.5: its atom at 1.0 no longer exhausts the same budget
    s.absorb(EnablingDelta(newly_disabled=[0]), 0.5, FakeStream([]))
    ev = s.next_event(0.5, FakeStream([u_for_budget(1.0 + half), 0.5]))
    assert ev.clock == 1
    assert ev.time == pytest.approx(0.5 + (1.0 + half) / 2.0, rel=1e-12)
    # re-enabled at 2.0 with anchor 0.5: the atom at 1.5 is already past, 3.5 is next
    s.absorb(EnablingDelta(newly_enabled=[(0, spec, 0.5)]), 2.0, FakeStream([]))
    ev = s.next_event(2.0, FakeStream([u_for_budget(4.5 + half), 0.5]))
    assert (ev.clock, ev.time) == (0, 3.5)
    # clock 0 takes 4.5 from clock 2 within one delta, while clock 2 moves on to 5.5
    late = HazardSpec(None, (Atom(4.0, 0.5),))
    s.absorb(EnablingDelta(newly_enabled=[(2, late, 0.5)]), 2.0, FakeStream([]))
    s.absorb(EnablingDelta(modified=[(0, late, 0.5), (2, late, 1.5)]), 3.0, FakeStream([]))
    ev = s.next_event(3.0, FakeStream([u_for_budget(3.0 + half), 0.5]))
    assert (ev.clock, ev.time) == (0, 4.5)
    ev = s.next_event(3.0, FakeStream([u_for_budget(3.0 + LN2 + 2.0 + half), 0.5]))
    assert (ev.clock, ev.time) == (2, 5.5)


def test_direct_stalled_when_mass_insufficient():
    s = DirectSampler()
    enable(s, {0: (HazardSpec(None, (Atom(1.0, 0.5),)), 0.0)}, 0.0, FakeStream([]))
    with pytest.raises(Stalled):
        s.next_event(0.0, FakeStream([0.9, 0.5]))  # budget beyond the single atom


def test_direct_weibull_waiting_time_matches_quadrature():
    specs = {0: (HazardSpec(Weibull(2.0, 1.0)), 0.0), 1: (EXP1, 0.0)}
    s = DirectSampler()
    enable(s, specs, 0.0, FakeStream([]))
    budget = 1.1
    ev = s.next_event(0.0, FakeStream([u_for_budget(budget), 0.0]))

    def consumed(t):
        return (t ** 2) + t - budget

    expect = brentq(consumed, 0.0, 10.0, xtol=1e-13)
    assert ev.time == pytest.approx(expect, rel=1e-9)
    assert ev.clock == 0  # u2=0 picks the first positive-hazard slot


def test_direct_bracket_search_reaches_the_float_range():
    # Weibull shape 0.01 crosses budget 5 at 5**100 ~ 7.9e69, past 200 doublings (~1.6e60)
    s = DirectSampler()
    enable(s, {0: (HazardSpec(Weibull(0.01, 1.0)), 0.0)}, 0.0, FakeStream([]))
    ev = s.next_event(0.0, FakeStream([u_for_budget(5.0), 0.5]))
    assert ev.time == pytest.approx(5.0 ** 100, rel=1e-9)
    s = DirectSampler()
    enable(s, {0: (HazardSpec(Weibull(3.0, 1e300)), 0.0)}, 0.0, FakeStream([]))
    ev = s.next_event(0.0, FakeStream([u_for_budget(1.0), 0.5]))
    assert ev.time == pytest.approx(1e300, rel=1e-9)
    # shape 0.001 needs 5**1000, beyond the float range: no finite time to propose
    s = DirectSampler()
    enable(s, {0: (HazardSpec(Weibull(0.001, 1.0)), 0.0)}, 0.0, FakeStream([]))
    with pytest.raises(Stalled):
        s.next_event(0.0, FakeStream([u_for_budget(5.0), 0.5]))


def test_direct_infinite_hazard_at_the_sampled_time_fires():
    # u1 = 0 samples t = now, where the Weibull clock's hazard is infinite:
    # it fires with certainty, though the exponential clock has the smaller id
    s = DirectSampler()
    enable(s, {0: (EXP1, 0.0), 1: (HazardSpec(Weibull(0.5, 1.0)), 0.0)}, 0.0, FakeStream([]))
    assert s.next_event(0.0, FakeStream([0.0, 0.0])) == (1, 0.0)


def _renewal_pair(hazard):
    """Two clocks, always enabled, each re-anchored at its own jumps."""
    outcome = Enabled(parse_hazard(hazard))
    clocks = tuple(
        ClockSpec(id=i, enabling=lambda view, now, out=outcome: out, mark=JumpMark({f"n{i}": 1}),
                  reads=frozenset(), name=f"renew_{i}")
        for i in range(2)
    )
    return Model("renewal-pair", clocks, SystemState({}), {})


@pytest.mark.parametrize("hazard", ["weibull:0.5,1", "gamma:0.5,1"])
@pytest.mark.parametrize("sampler", ["direct", "hierarchical:direct=0-1"])
def test_direct_race_with_infinite_starting_hazard(sampler, hazard):
    # Both hazards are infinite at the enabling instant.  The first jump of
    # each independent trajectory is a symmetric race, so clock 0 wins
    # Binomial(n, 1/2) of them: mean 1000, sd 22.4; the bound is 4.5 sd.
    model = _renewal_pair(hazard)
    n = 2000
    wins = sum(
        run_trajectory(model, sampler, 4321, EventCount(1), stream_index=i).events[0].clock == 0
        for i in range(n)
    )
    assert abs(wins - n / 2) <= 100, wins


def _root_or_error(solve, f, lo, hi, maxiter):
    """The root's bits, or the name of the error raised."""
    try:
        return struct.pack("<d", solve(f, lo, hi, maxiter))
    except (ValueError, RuntimeError) as err:
        return type(err).__name__


def _ours(f, lo, hi, maxiter):
    return samplers._brentq(f, lo, f(lo), hi, f(hi), 1e-15, 1e-12, maxiter)


def _scipy(f, lo, hi, maxiter):
    return brentq(f, lo, hi, xtol=1e-15, rtol=1e-12, maxiter=maxiter)


def _weibull_consumption(terms, crate, budget):
    def f(t):
        g = crate * t
        for te, shape, scale in terms:
            if t > te:
                try:
                    g += ((t - te) / scale) ** shape
                except OverflowError:
                    return math.inf
        return g - budget
    return f


@given(
    terms=st.lists(st.tuples(st.floats(0.0, 3.0), st.floats(0.01, 5.0), st.sampled_from([1e-3, 1.0, 2.5, 1e300])),
                   min_size=1, max_size=3),
    crate=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 4.0),
    budget=st.floats(1e-6, 50.0),
    hi=st.sampled_from([0.5, 4.0, 1e3, 1e60]),
    maxiter=st.sampled_from([3, 200]),
)
@settings(max_examples=400, deadline=None)
def test_direct_root_finder_is_scipy_brentq_to_the_bit(terms, crate, budget, hi, maxiter):
    # the same root, the same error (no sign change, too few steps) on
    # consumption sums like the ones direct solves, flat stretches included
    f = _weibull_consumption(terms, crate, budget)
    assert _root_or_error(_ours, f, 0.0, hi, maxiter) == _root_or_error(_scipy, f, 0.0, hi, maxiter)


@pytest.mark.parametrize("f, lo, hi", [
    (lambda t: -1.0 if t < 0.3 else 1.0, 0.0, 1.0),  # a jump: interpolation divides by zero
    (lambda t: math.inf if t > 3.0 else t - 1.5, 0.0, 10.0),
    (lambda t: math.tanh(t - 2.0) * 1e-300, 0.0, 10.0),
    (lambda t: math.nan if t > 0.5 else -1.0, 0.0, 1.0),
])
def test_direct_root_finder_matches_scipy_on_degenerate_functions(f, lo, hi):
    assert _root_or_error(_ours, f, lo, hi, 200) == _root_or_error(_scipy, f, lo, hi, 200)


def test_direct_evaluates_each_consumption_sum_once(monkeypatch):
    # One next_event never sweeps the enabled clocks twice at the same (s_prev, t).
    seen, repeats, sweeps = set(), [], [0]
    g = DirectSampler._g
    next_event = DirectSampler.next_event

    def once(varying, bases, crate, s_prev, t):
        if (s_prev, t) in seen:
            repeats.append((s_prev, t))
        seen.add((s_prev, t))
        sweeps[0] += 1
        return g(varying, bases, crate, s_prev, t)

    def fresh(self, now, stream):
        seen.clear()
        return next_event(self, now, stream)

    monkeypatch.setattr(DirectSampler, "_g", staticmethod(once))
    monkeypatch.setattr(DirectSampler, "next_event", fresh)
    for name, params in (
        ("sir", {"n": 6, "recover": "weibull:2,1@1.5,0.5", "infect": "exponential:2"}),
        ("rabbits", {"m": 5, "food_rate": 10, "portions": "1;2"}),
    ):
        model = build(name, params)
        events = sum(len(run_trajectory(model, "direct", 3, EventCount(300), stream_index=i).events)
                     for i in range(10))
        assert events > 100 and sweeps[0] > events
        assert repeats == [], (name, repeats[:5])


@pytest.mark.parametrize("name,params,direct_ids,seed", [
    ("renewal", {"interarrival": "uniform:0.5,2"}, "0", 610),
    ("renewal", {"interarrival": "uniform:0.5,2@1,0.3"}, "0", 620),
    ("sir", {"n": 3, "recover": "uniform:0.2,1.5"}, "6-8", 630),
], ids=["uniform", "uniform-atom", "sir-uniform-recovery"])
def test_direct_finite_support_matches_first_reaction(name, params, direct_ids, seed):
    # A uniform hazard's support ends where its cumulative hazard is infinite:
    # direct brackets the waiting time at that end (or at an atom before it) and
    # bisects until the upper value is finite.  Each sampler runs on its own
    # stream family.
    model = build(name, params)
    samplers = ["first-reaction", "direct", f"hierarchical:direct={direct_ids};next-reaction=rest"]
    samples = {s: last_event_sample(model, s, seed + i, 2000, EventCount(4)) for i, s in enumerate(samplers)}
    for sampler, p_ks, p_chi in compare_to_reference(samples.pop("first-reaction"), samples):
        assert p_ks > 0.005, (sampler, p_ks)
        assert p_chi is None or p_chi > 0.005, (sampler, p_chi)


@pytest.mark.parametrize("sampler", ["direct", "hierarchical:direct=0;next-reaction=rest"])
def test_direct_stalls_when_finite_hazard_mass_runs_out(sampler):
    # Unit hazard on [0, 1), none after: total mass 1, so a trajectory stalls
    # before its first event with probability exp(-1); the bound is 4.5 sd.
    model = build("renewal", {"interarrival": "piecewise:0,1|1,0"})
    n = 2000
    stalled = sum(not traj.events for traj in run_ensemble(model, sampler, 640, n, EventCount(1)))
    p = math.exp(-1.0)
    assert abs(stalled - n * p) <= 4.5 * math.sqrt(n * p * (1.0 - p)), stalled


@pytest.mark.parametrize("sampler", ["direct", "hierarchical:direct=0;next-reaction=rest"])
def test_direct_decides_a_finite_mass_stall_without_a_bracket_search(sampler, monkeypatch):
    # budget ln 10 > 1, the clock's whole mass: about 1,024 bracket doublings
    # would each evaluate the cumulative hazard before the float range ends
    calls = []
    cumulative = HazardSpec.cumulative_hazard
    monkeypatch.setattr(HazardSpec, "cumulative_hazard", lambda spec, d: calls.append(d) or cumulative(spec, d))
    s = make_sampler(sampler)
    enable(s, {0: (parse_hazard("piecewise:0,1|1,0"), 0.0)}, 0.0, FakeStream([]))
    with pytest.raises(Stalled):
        s.next_event(0.0, FakeStream([0.9, 0.5]))
    assert len(calls) <= 5, calls


@pytest.mark.parametrize("sampler", ["direct", "hierarchical:direct=0-2"])
def test_direct_fires_past_the_first_bracket_over_a_negative_constant_rate_residue(sampler):
    # enabling rates 0.1, 0.7 and removing 0.7, then 0.1 leaves direct's constant
    # rate sum at -2.8e-17, not 0; the piecewise clock's mass 1.0 still covers the
    # budget 0.9, which it reaches at t = 1.8, past the first bracket (0, 1]
    specs = {0: (HazardSpec(Exponential(0.1)), 0.0), 1: (HazardSpec(Exponential(0.7)), 0.0),
             2: (parse_hazard("piecewise:0,2|0.5,0"), 0.0)}
    u1 = -math.expm1(-0.9)
    events = []
    for name in (sampler, "next-reaction"):
        s = make_sampler(name)
        enable(s, specs, 0.0, FakeStream([0.5, 0.5, u1]))
        s.absorb(EnablingDelta(newly_disabled=[1]), 0.0, FakeStream([]))
        s.absorb(EnablingDelta(newly_disabled=[0]), 0.0, FakeStream([]))
        events.append(s.next_event(0.0, FakeStream([u1, 0.5])))
    assert events[0].clock == events[1].clock == 2
    assert events[0].time == pytest.approx(events[1].time, rel=1e-12)
    assert events[0].time == pytest.approx(1.8, rel=1e-12)


def test_direct_keeps_a_tiny_rate_whose_sum_a_removal_cancelled():
    # removing rate 1.0 from the tree's running sums leaves 0.0 over the 1e-20 leaf
    s = DirectSampler()
    enable(s, {0: (EXP1, 0.0), 1: (HazardSpec(Exponential(1e-20)), 0.0)}, 0.0, FakeStream([]))
    s.absorb(EnablingDelta(newly_disabled=[0]), 0.0, FakeStream([]))
    ev = s.next_event(0.0, FakeStream([0.5, 0.5]))
    assert ev.clock == 1
    assert ev.time == pytest.approx(LN2 / 1e-20, rel=1e-12)


@pytest.mark.parametrize("sampler", ["direct", "hierarchical:direct=0-1;next-reaction=rest"])
def test_direct_boundary_fallback_fires_the_clock_whose_hazard_just_ended(sampler):
    # u1 = 1 - e^-1 makes the budget exactly 1.0, unit hazard's whole mass on
    # [0, 1): the sampled time is 1.0, where the tree totals 0.0, so the clock
    # is picked by its hazard just before 1.0.  A clock of zero hazard is skipped.
    ends = parse_hazard("piecewise:0,1|1,0")
    for enabled, fires in (({0: (ends, 0.0)}, 0), ({0: (parse_hazard("piecewise:0|0"), 0.0), 1: (ends, 0.0)}, 1)):
        s = make_sampler(sampler)
        enable(s, enabled, 0.0, FakeStream([]))
        assert s.next_event(0.0, FakeStream([0.6321205588285577, 0.5])) == (fires, 1.0)
        direct = s if isinstance(s, DirectSampler) else s._children[0]
        assert direct._tree.total() == 0.0


@pytest.mark.parametrize("sampler", [*SAMPLER_NAMES[:-1], "hierarchical:direct=0;next-reaction=rest"])
def test_zero_budget_fires_at_now_on_every_sampler(sampler):
    # u1 = 0.0 makes the budget 0, so the sampled time is now itself, where
    # Weibull(2, 1)'s hazard is 0: direct's boundary fallback must look just
    # after now, as nothing lies before it, and fire the clock as the others do.
    # The queue-based samplers draw on absorb, the others on next_event.
    s, stream = make_sampler(sampler), FakeStream([0.0, 0.0])
    enable(s, {0: (parse_hazard("weibull:2,1"), 0.0)}, 0.0, stream)
    assert s.next_event(0.0, stream) == samplers.SamplerEvent(0, 0.0)


# sha256 of the files of streams 0-19 (seed 640), written one after another
STALL_PATH_DIGESTS = {
    "direct": "ff24c5e4359db84f5e4d090470f3a5ccb45f8e1bc5475a38fc1f5ee85db1b5eb",
    "hierarchical:direct=0;next-reaction=rest": "8e48ca24752bb87bf085dd5d0a1296c15bd24f18f75738b55c53bb02d05933f0",
}


def _race_then_atom():
    """A (rate 0.1) and B (rate 0.2) race, either disarms both, then C gets one atom of mass 1/2."""
    race = [Enabled(HazardSpec(Exponential(r))) for r in (0.1, 0.2)]
    atom = Enabled(parse_hazard("none@1,0.5"))
    clocks = (
        *(ClockSpec(id=i, enabling=lambda view, now, out=out: out if view.count("armed") else DISABLED,
                    mark=JumpMark({"armed": -1, "done": 1}), reads=frozenset({"armed"}), name=name)
          for i, (name, out) in enumerate(zip("AB", race))),
        ClockSpec(id=2, enabling=lambda view, now: atom if view.count("done") else DISABLED,
                  mark=JumpMark({"done": -1}), reads=frozenset({"done"}), name="C"),
    )
    return Model("race-then-atom", clocks, SystemState({"armed": 1}), {})


def test_direct_stalls_where_only_zero_hazard_clocks_remain():
    # After the race only C is enabled and its hazard is 0 off its atom:
    # the run ends with C firing at te + 1 or with a stall.  Direct's second
    # variate goes unused on C's draw, so both samplers decide C on the
    # third uniform of the stream, and their splits agree exactly.
    model = _race_then_atom()
    splits = {}
    for sampler in ("first-reaction", "direct"):
        outcomes = []
        for i in range(2000):
            events = run_trajectory(model, sampler, 9, StalledOnly(), stream_index=i).events
            assert len(events) in (1, 2) and events[0].clock in (0, 1)
            if len(events) == 2:
                assert events[1].clock == 2 and events[1].time == events[0].time + 1.0
            outcomes.append(len(events) == 2)
        splits[sampler] = outcomes
    assert splits["direct"] == splits["first-reaction"]
    assert 900 < sum(splits["direct"]) < 1100


@pytest.mark.parametrize("sampler", list(STALL_PATH_DIGESTS))
def test_stall_after_the_hazard_mass_runs_out_is_pinned(sampler):
    # Every run ends when the unit of hazard mass runs out before the drawn
    # budget: the bracket doubling reaches INF and direct stalls after its
    # two variates, so a run with k events consumes 2 * (k + 1).
    model = build("renewal", {"interarrival": "piecewise:0,1|1,0"})
    buf = io.StringIO()
    before_first = 0
    for i in range(20):
        traj = run_trajectory(model, sampler, 640, StalledOnly(), stream_index=i)
        assert traj.variates_consumed == 2 * (len(traj.events) + 1)
        before_first += not traj.events
        write_trajectory(buf, traj, model)
    assert before_first == 6
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == STALL_PATH_DIGESTS[sampler]


@pytest.mark.parametrize("sampler", [*SAMPLER_NAMES[:-1], "hierarchical:direct=0;next-reaction=rest"])
def test_extreme_weibull_powers_stall_instead_of_raising(sampler):
    # shape 0.001 puts about one draw in eight (budget > 2.03) past the float range
    model = build("renewal", {"interarrival": "weibull:0.001,1"})
    stalled = 0
    for i in range(40):
        events = run_trajectory(model, sampler, 99, EventCount(20), stream_index=i).events
        times = [ev.time for ev in events]
        assert times == sorted(times) and all(math.isfinite(t) for t in times)
        stalled += len(events) < 20
    assert stalled > 0


# -- hierarchical -----------------------------------------------------------------

def test_hier_single_child_identical_to_child():
    for mk in (lambda: DirectSampler(), lambda: NextReactionSampler()):
        solo = mk()
        enable(solo, {0: (EXP1, 0.0), 1: (EXP2, 0.0)}, 0.0, FakeStream([0.3, 0.6]))
        hier = HierarchicalSampler([(mk(), None)])
        enable(hier, {0: (EXP1, 0.0), 1: (EXP2, 0.0)}, 0.0, FakeStream([0.3, 0.6]))
        vs = [0.25, 0.75]
        assert solo.next_event(0.0, FakeStream(list(vs))) == hier.next_event(0.0, FakeStream(list(vs)))


def test_hier_empty_second_partition():
    hier = HierarchicalSampler([(NextToFireSampler(), None), (DirectSampler(), set())])
    enable(hier, {0: (EXP1, 0.0)}, 0.0, FakeStream([u_for_budget(0.8)]))
    ev = hier.next_event(0.0, FakeStream([]))
    assert (ev.clock, ev.time) == (0, pytest.approx(0.8))


def test_hier_routes_delta_to_owner():
    child_a = NextReactionSampler()
    child_b = NextReactionSampler()
    hier = HierarchicalSampler([(child_a, {0}), (child_b, None)])
    enable(hier, {0: (EXP1, 0.0), 1: (EXP1, 0.0)},
           0.0, FakeStream([u_for_budget(1.0), u_for_budget(2.0)]))
    assert queued(child_a) == {0}
    assert queued(child_b) == {1}
    ev = hier.next_event(0.0, FakeStream([]))
    assert ev.clock == 0
    hier.absorb(EnablingDelta(fired=0), ev.time, FakeStream([]))
    assert queued(child_a) == set()
    assert hier.next_event(ev.time, FakeStream([])).clock == 1


class RecordingChild:
    """Child sampler that logs each delta it absorbs under its own tag."""

    def __init__(self, tag, log):
        self.tag = tag
        self.log = log

    def _apply(self, delta, now, stream):
        self.log.append((self.tag, delta.fired, [e[0] for e in delta.newly_enabled],
                         list(delta.newly_disabled), [e[0] for e in delta.modified]))


def test_hier_splits_delta_in_construction_order():
    log = []
    hier = HierarchicalSampler([
        (RecordingChild("a", log), {4, 1}),
        (RecordingChild("b", log), None),
        (RecordingChild("c", log), {2, 6}),
    ])
    enable(hier, {cid: (EXP1, 0.0) for cid in (2, 3, 4, 6, 7)}, 0.0, FakeStream([]))
    log.clear()
    hier.absorb(EnablingDelta(
        fired=2,
        newly_enabled=[(0, EXP1, 0.0), (1, EXP1, 0.0), (2, EXP1, 0.0), (5, EXP1, 0.0)],
        newly_disabled=[4, 6],
        modified=[(3, EXP1, 0.0), (7, EXP1, 0.0)],
    ), 1.0, FakeStream([]))
    assert log == [
        ("a", None, [1], [4], []),
        ("b", None, [0, 5], [], [3, 7]),
        ("c", 2, [2], [6], []),
    ]
    log.clear()
    # a child the delta does not touch absorbs nothing; a fired-only delta counts
    hier.absorb(EnablingDelta(fired=1), 2.0, FakeStream([]))
    assert log == [("a", 1, [], [], [])]


def test_hier_checks_each_delta_once(monkeypatch):
    checked = []
    check = samplers._check_delta

    def counting_check(delta, enabled, now):
        checked.append(sorted(e[0] for e in delta.newly_enabled))
        check(delta, enabled, now)

    monkeypatch.setattr(samplers, "_check_delta", counting_check)
    hier = HierarchicalSampler([
        (NextToFireSampler(), {0, 1}), (DirectSampler(), {2}), (FirstReactionSampler(), None),
    ])
    # touches the first and last children; the whole delta is checked once, before the split
    enable(hier, {0: (EXP1, 0.0), 1: (EXP1, 0.0), 5: (EXP1, 0.0)}, 0.0, FakeStream([0.5, 0.5]))
    assert checked == [[0, 1, 5]]
    checked.clear()
    enable(NextReactionSampler(), {3: (EXP1, 0.0)}, 0.0, FakeStream([0.5]))
    assert checked == [[3]]


def test_hier_uncovered_clock_and_second_catch_all_rejected():
    hier = HierarchicalSampler([(NextToFireSampler(), {0}), (DirectSampler(), {1})])
    with pytest.raises(ModelError, match="clock 2 not covered"):
        enable(hier, {0: (EXP1, 0.0), 2: (EXP1, 0.0)}, 0.0, FakeStream([0.5, 0.5]))
    with pytest.raises(ModelError, match="catch-all"):
        HierarchicalSampler([(NextToFireSampler(), None), (DirectSampler(), {1}), (DirectSampler(), None)])


# Each fault follows a valid entry for the other child, so a part applied before
# the check would show.  Clocks 0 (the sooner) and 1 are enabled, 2 is covered but
# disabled, and 5 lies outside every part: a clock that is not enabled is unknown,
# whatever the partition.
FAULTY_DELTAS = {
    "listed-twice": EnablingDelta(newly_disabled=[0], modified=[(1, EXP1, 0.5), (1, EXP1, 0.5)]),
    "disabled-modified": EnablingDelta(newly_disabled=[0], modified=[(2, EXP1, 0.5)]),
    "enabled-newly-enabled": EnablingDelta(newly_disabled=[0], newly_enabled=[(1, EXP1, 0.5)]),
    "outside-every-part": EnablingDelta(newly_disabled=[0, 5]),
}


def assert_rejected_unchanged(s, delta, error):
    """`s.absorb(delta)` raises exactly `error` and leaves `s` and its stream as they were."""
    before = pickle.dumps(s)
    stream = FakeStream([0.5, 0.5])
    with pytest.raises(error) as raised:
        s.absorb(delta, 1.0, stream)
    assert type(raised.value) is error
    assert pickle.dumps(s) == before
    assert stream.count == 0
    # the next proposal is the one the sampler made before the rejected delta
    expect = pickle.loads(before).next_event(1.0, FakeStream([0.25, 0.75, 0.25, 0.75]))
    assert s.next_event(1.0, FakeStream([0.25, 0.75, 0.25, 0.75])) == expect


@pytest.mark.parametrize("fault", FAULTY_DELTAS)
@pytest.mark.parametrize("child", SAMPLER_NAMES[:-1])
def test_hier_rejects_a_faulty_delta_as_its_base_sampler_does(child, fault):
    for name in (child, f"hierarchical:{child}=0;{child}=1-2"):
        s = make_sampler(name)
        enable(s, {0: (EXP2, 0.0), 1: (EXP1, 0.0)}, 0.0, FakeStream([0.5, 0.5]))
        assert_rejected_unchanged(s, FAULTY_DELTAS[fault], UnknownClock)


@pytest.mark.parametrize("child", SAMPLER_NAMES[:-1])
def test_hier_newly_enabled_uncovered_clock_changes_nothing(child):
    # clock 0's disabling precedes the uncovered clock 5 in the split, so an
    # owner looked up after the enabled table changes would leave a trace
    s = make_sampler(f"hierarchical:{child}=0;{child}=1-2")
    enable(s, {0: (EXP2, 0.0), 1: (EXP1, 0.0)}, 0.0, FakeStream([0.5, 0.5]))
    assert_rejected_unchanged(s, EnablingDelta(newly_disabled=[0], newly_enabled=[(5, EXP1, 0.5)]), ModelError)


@pytest.mark.parametrize("name", [*SAMPLER_NAMES[:-1], "hierarchical:direct=0;next-reaction=rest"])
def test_every_sampler_checks_a_delta_against_a_dict(name):
    # `_check_delta`'s `cid in enabled` is then a C lookup, not a Python method
    assert type(make_sampler(name)._enabled) is dict


def test_hier_looks_up_an_owner_only_for_a_newly_enabled_clock(monkeypatch):
    calls = []
    owner_index = HierarchicalSampler._owner_index

    def counting(self, cid):
        calls.append(cid)
        return owner_index(self, cid)

    monkeypatch.setattr(HierarchicalSampler, "_owner_index", counting)
    hier = make_sampler("hierarchical:next-to-fire=0-2;direct=rest")
    enable(hier, {cid: (EXP1, 0.0) for cid in range(6)}, 0.0, FakeStream([0.5] * 3))
    assert calls == [0, 1, 2, 3, 4, 5]
    calls.clear()
    hier.absorb(EnablingDelta(
        fired=0,
        newly_enabled=[(0, EXP1, 1.0), (6, EXP1, 1.0), (7, EXP1, 1.0)],
        newly_disabled=[1, 4],
        modified=[(2, EXP2, 0.0), (3, EXP2, 0.0), (5, EXP2, 0.0)],
    ), 1.0, FakeStream([0.5] * 2))
    assert calls == [0, 6, 7]
    assert hier._enabled == {0: 0, 2: 0, 3: 1, 5: 1, 6: 1, 7: 1}


def test_built_hierarchical_sampler_writes_the_file_its_spec_does():
    spec = "hierarchical:direct=0-3;next-reaction=rest"
    model = build("sir", {"n": 4})
    files = []
    for sampler in (spec, make_sampler(spec)):
        buf = io.StringIO()
        write_trajectory(buf, run_trajectory(model, sampler, 5, EventCount(20)), model)
        files.append(buf.getvalue())
    assert files[0] == files[1]
    assert f"# sampler: {spec}\n" in files[0]


def test_make_sampler_names_and_partition_spec():
    assert make_sampler("direct").name == "direct"
    hier = make_sampler("hierarchical:direct=0-2,5;next-reaction=rest")
    assert isinstance(hier, HierarchicalSampler)
    assert hier._owner_index(1) == 0
    assert hier._owner_index(5) == 0
    assert hier._owner_index(9) == 1
    assert SAMPLER_NAMES == ("first-reaction", "next-reaction", "next-to-fire", "direct", "hierarchical")
    assert [make_sampler(name).name for name in SAMPLER_NAMES[:-1]] == list(SAMPLER_NAMES[:-1])
    # bare "hierarchical" is not a sampler; the message shows the partition spelling
    form = r"hierarchical:<child>=<ids>;\.\.\.$"
    with pytest.raises(ModelError, match="valid: first-reaction, next-reaction, next-to-fire, direct, " + form):
        make_sampler("bogus")
    for bare in ("hierarchical", "hierarchical:", "hierarchical: ; "):
        with pytest.raises(ModelError, match="hierarchical needs a partition: " + form):
            make_sampler(bare)
    with pytest.raises(ModelError, match="valid: first-reaction, next-reaction, next-to-fire, direct$"):
        make_sampler("hierarchical:bogus=rest")
    for bad in (
        "hierarchical:direct=a",
        "hierarchical:direct=5-3;next-reaction=rest",
        "hierarchical:direct=0-5;next-reaction=3-8",
        "hierarchical:direct;next-reaction=rest",
        "hierarchical:direct=;next-reaction=rest",
        "hierarchical:direct= , ;next-reaction=rest",
    ):
        with pytest.raises(ModelError):
            make_sampler(bad)
