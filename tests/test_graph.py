import numpy as np
import pytest

from clocksim import graph as depgraph
from clocksim.clocks import DISABLED, ClockSpec, Enabled, JumpMark, StateView, evaluate_enabling
from clocksim.hazards import Exponential, HazardSpec
from clocksim.models import build_sir


def test_sir_edges_match_hand_enumeration():
    # N=2, one initial infective: clocks are infect_0_1, infect_1_0,
    # recover_0, recover_1 in id order.
    model = build_sir(2)
    readers = depgraph.build(model.clocks)
    clocks = {c.name: c for c in model.clocks}
    names = {c.name: c.id for c in model.clocks}
    assert clocks["infect_0_1"].reads == frozenset({"I_0", "S_1"})
    assert clocks["infect_0_1"].mark.deltas.keys() == {"S_1", "I_1"}
    assert clocks["infect_1_0"].reads == frozenset({"I_1", "S_0"})
    assert clocks["infect_1_0"].mark.deltas.keys() == {"S_0", "I_0"}
    assert clocks["recover_0"].reads == frozenset({"I_0"})
    assert clocks["recover_0"].mark.deltas.keys() == {"I_0", "R_0"}
    # reverse edges: readers of I_1 are infect_1_0 and recover_1
    assert readers["I_1"] == (names["infect_1_0"], names["recover_1"])
    # infection 0->1 touches S_1 (read by nobody else) and I_1
    assert depgraph.affected(readers, clocks["infect_0_1"]) == {
        names["infect_0_1"], names["infect_1_0"], names["recover_1"],
    }


def _clock(cid, reads, writes_delta, rate=1.0):
    keys = tuple(reads)

    def rule(v, now, keys=keys, rate=rate):
        return Enabled(HazardSpec(Exponential(rate))) if all(v.count(k) >= 1 for k in keys) else DISABLED

    return ClockSpec(id=cid, enabling=rule, mark=JumpMark(writes_delta), reads=frozenset(reads))


def test_self_exciting_clock():
    clock = _clock(0, {"x"}, {"x": +1})
    readers = depgraph.build([clock])
    assert readers["x"] == (0,)
    assert depgraph.affected(readers, clock) == {0}


def test_independent_clocks_never_overlap():
    a = _clock(0, {"x"}, {"x": +1})
    b = _clock(1, {"y"}, {"y": +1})
    readers = depgraph.build([a, b])
    assert depgraph.affected(readers, a) == {0}
    assert depgraph.affected(readers, b) == {1}


def test_write_nothing_reads():
    a = _clock(0, {"x"}, {"x": -1, "log": +1})
    assert depgraph.affected(depgraph.build([a]), a) == {0}


def test_affected_always_contains_fired_and_is_bounded():
    model = build_sir(3)
    readers = depgraph.build(model.clocks)
    for c in model.clocks:
        aff = depgraph.affected(readers, c)
        assert c.id in aff
        assert len(aff) <= len(model.clocks)


def test_soundness_unaffected_clocks_unchanged_under_fuzz():
    """Clocks outside affected(fired) must see an unchanged enabling after
    the fired clock's mark is applied, for random states."""
    model = build_sir(3)
    readers = depgraph.build(model.clocks)
    by_id = {c.id: c for c in model.clocks}
    keys = sorted({k for c in model.clocks for k in c.reads | c.mark.deltas.keys()})
    rng = np.random.default_rng(42)
    for _ in range(200):
        counts = {k: int(rng.integers(0, 2)) for k in keys}
        counts = {k: v for k, v in counts.items() if v}
        fired = int(rng.integers(0, len(model.clocks)))
        mark = by_id[fired].mark
        if any(counts.get(k, 0) + d < 0 for k, d in mark.deltas.items()):
            continue
        after = dict(counts)
        for k, d in mark.deltas.items():
            after[k] = after.get(k, 0) + d
            if after[k] == 0:
                del after[k]
        aff = depgraph.affected(readers, by_id[fired])
        for cid, clock in by_id.items():
            if cid in aff:
                continue
            before_out = evaluate_enabling(clock, StateView(counts, {}), 1.0, DISABLED)
            prev = before_out if before_out is not DISABLED else DISABLED
            if prev is not DISABLED and not isinstance(prev, Enabled):
                prev = DISABLED
            out = evaluate_enabling(clock, StateView(after, {}), 1.0, prev)
            from clocksim.clocks import UNCHANGED

            assert out is UNCHANGED
