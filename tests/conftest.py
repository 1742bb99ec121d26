import gc
import math
import tracemalloc

import pytest
from scipy.integrate import quad

from clocksim.kernel import run_ensemble
from clocksim.samplers import EnablingDelta, NextReactionSampler


class FakeStream:
    """Scripted uniform variates for exact sampler-contract tests."""

    def __init__(self, values):
        self.values = list(values)
        self.count = 0

    def uniform(self):
        self.count += 1
        return self.values.pop(0)


class AuditedNextReaction(NextReactionSampler):
    """Next-reaction that logs (cid, consumed, budget, at_atom) at every jump.

    The fired clock's ledger entry accrues its consumption up to the jump
    time before the base sampler drops it; budget is the drawn -log survival.
    """

    def __init__(self):
        super().__init__()
        self.audit_log = []

    def _apply(self, delta, now, stream):
        fired = delta.fired
        if fired is not None:
            e = self._entries[fired]
            self._accrue(e, now)
            at_atom = any(e.te + a.offset == now for a in e.spec.atoms)
            self.audit_log.append((fired, e.consumed, -e.drawn, at_atom))
        super()._apply(delta, now, stream)


def enable(sampler, enabled, now, stream):
    """Hand a sampler its initial enabled set {cid: (spec, te)} as the
    kernel does: one delta listing every clock in newly_enabled, ascending id."""
    entries = [(cid, spec, te) for cid, (spec, te) in sorted(enabled.items())]
    sampler.absorb(EnablingDelta(newly_enabled=entries), now, stream)


def last_event_sample(model, sampler, seed, n, stop):
    """(last-event times, mark counts over all events) of n trajectories under base seed `seed`."""
    times = []
    marks = {}
    for traj in run_ensemble(model, sampler, seed, n, stop):
        times.append(traj.events[-1].time)
        for ev in traj.events:
            marks[ev.clock] = marks.get(ev.clock, 0) + 1
    return times, marks


def tracked_objects_after_build(build):
    """(build(), the number of collector-tracked objects it made that are still alive).

    Only objects absent from the pre-build list count, so objects the build
    frees cannot lower the count; the list is kept alive, so no id in it is reused.
    """
    gc.collect()
    before = gc.get_objects()
    seen = {id(obj) for obj in before}
    built = build()
    gc.collect()
    return built, sum(id(obj) not in seen for obj in gc.get_objects())


def traced_bytes_after_build(build):
    """(build(), the bytes tracemalloc sees it leave allocated)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = build()
        gc.collect()
        return built, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def scan_find(leaves, x):
    """Prefix-tree oracle: smallest index whose inclusive prefix sum strictly exceeds x, else -1."""
    acc = 0.0
    for i, v in enumerate(leaves):
        acc += v
        if acc > x:
            return i
    return -1


def survival_quadrature(spec, t):
    """Independent survival oracle: numerical quadrature of the continuous
    hazard plus the explicit atom product.  Never uses the closed-form
    cumulatives under test."""
    if t == 0.0:
        h_int = 0.0
    elif spec.continuous is None:
        h_int = 0.0
    else:
        kinks = set()
        if hasattr(spec.continuous, "breakpoints"):
            kinks.update(spec.continuous.breakpoints)
        if hasattr(spec.continuous, "a"):
            kinks.add(spec.continuous.a)
        points = sorted(k for k in kinks if 0.0 < k < t) or None
        h_int, _ = quad(spec.continuous.hazard, 0.0, t, points=points, limit=300)
    s = math.exp(-h_int)
    for a in spec.atoms:
        if a.offset <= t:
            s *= 1.0 - a.mass
    return s


@pytest.fixture
def fake_stream():
    return FakeStream
