import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clocksim.clocks import (
    DISABLED,
    UNCHANGED,
    ClockSpec,
    Enabled,
    JumpMark,
    StateView,
    SystemState,
    apply_mark_inplace,
    evaluate_enabling,
)
from clocksim.errors import ModelError, NegativeSubstate
from clocksim.hazards import Exponential, HazardSpec, Weibull


def view(counts, changed=None):
    return StateView(counts, changed or {})


def test_outcome_reprs():
    assert (repr(DISABLED), repr(UNCHANGED)) == ("Disabled", "UnchangedSinceLastQuery")


def apply_mark(counts, mark):
    out = dict(counts)
    apply_mark_inplace(out, mark)
    return out


def test_apply_mark_examples():
    assert apply_mark({"S": 3, "I": 1}, JumpMark({"S": -1, "I": +1})) == {"S": 2, "I": 2}
    assert apply_mark({"S": 1}, JumpMark({"S": -1})) == {}
    with pytest.raises(NegativeSubstate):
        apply_mark({}, JumpMark({"S": -1}))
    # a rejected mark changes nothing: "c" reached zero and "b" appeared before "a" went negative
    counts = {"a": 1, "c": 1}
    with pytest.raises(NegativeSubstate):
        apply_mark_inplace(counts, JumpMark({"c": -1, "b": 1, "a": -2, "d": 1}))
    assert counts == {"a": 1, "c": 1}


def test_zero_entries_removed_on_construction():
    assert SystemState({"a": 0, "b": 2}).counts == {"b": 2}
    assert JumpMark({"a": 0, "b": -1}).deltas == {"b": -1}
    assert JumpMark({"a": 1}).deltas == {"a": 1}


@pytest.mark.parametrize("value", [0.5, 1.7, 2.0, "3", True, False, None])
@pytest.mark.parametrize("make", [JumpMark, SystemState], ids=["JumpMark", "SystemState"])
def test_non_integer_counts_rejected_naming_the_key(make, value):
    with pytest.raises(ModelError, match="'x'"):
        make({"a": 1, "x": value})


def test_negative_counts_rejected_naming_the_key():
    # a state starts at or above zero; a mark keeps its negative deltas
    with pytest.raises(ModelError, match="substate 'x': count must be an integer >= 0, got -2"):
        SystemState({"a": 1, "x": -2})
    with pytest.raises(ModelError, match="'x'"):
        SystemState({"x": np.int64(-1)})
    assert JumpMark({"x": -2}).deltas == {"x": -2}


def test_bare_string_reads_rejected_naming_the_clock():
    # "x_0" would otherwise read the keys "x", "_" and "0", and the
    # dependency graph would never re-evaluate the clock after x_0 changes
    with pytest.raises(ModelError, match="clock 3: reads must be a collection"):
        ClockSpec(id=3, enabling=lambda v, now: DISABLED, mark=JumpMark({}), reads="x_0")
    clock = ClockSpec(id=3, enabling=lambda v, now: DISABLED, mark=JumpMark({}), reads=("x_0",))
    assert clock.reads == frozenset({"x_0"})
    # a frozenset is kept as given; a subclass becomes a plain frozenset
    reads = frozenset({"x_0"})
    assert ClockSpec(id=3, enabling=clock.enabling, mark=clock.mark, reads=reads).reads is reads
    sub = type("Reads", (frozenset,), {})({"x_0"})
    assert type(ClockSpec(id=3, enabling=clock.enabling, mark=clock.mark, reads=sub).reads) is frozenset


def test_numpy_integer_counts_become_ints():
    # a mark's delta may be negative, a state's count may not
    for make, attr, value in ((JumpMark, "deltas", -2), (SystemState, "counts", 2)):
        out = getattr(make({"a": np.int64(value), "b": np.int32(0)}), attr)
        assert out == {"a": value} and type(out["a"]) is int


_keys = ("a", "b", "c")


@given(
    start=st.lists(st.integers(10, 20), min_size=3, max_size=3),
    d1=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    d2=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_apply_mark_associative_with_mark_addition(start, d1, d2):
    state = dict(zip(_keys, start))
    m1 = JumpMark(dict(zip(_keys, d1)))
    m2 = JumpMark(dict(zip(_keys, d2)))
    summed = JumpMark({k: a + b for k, a, b in zip(_keys, d1, d2)})
    step = apply_mark(apply_mark(state, m1), m2)
    direct = apply_mark(state, summed)
    assert step == direct


def _simple_clock(spec=None, reads=("a",)):
    spec = spec or HazardSpec(Exponential(1.0))

    def rule(v, now):
        return Enabled(spec) if v.count("a") >= 1 else DISABLED

    return ClockSpec(id=0, enabling=rule, mark=JumpMark({"a": -1}), reads=frozenset(reads))


def test_evaluate_enabling_deterministic():
    clock = _simple_clock()
    v = view({"a": 2})
    first = evaluate_enabling(clock, v, 1.0, DISABLED)
    second = evaluate_enabling(clock, v, 1.0, DISABLED)
    assert first == second
    assert isinstance(first, Enabled)


def test_enable_anchors_at_now_then_sticks():
    clock = _simple_clock()
    out = evaluate_enabling(clock, view({"a": 1}), 2.5, DISABLED)
    assert out == Enabled(HazardSpec(Exponential(1.0)), 2.5)
    # re-query while still enabled: same functional form and anchor
    again = evaluate_enabling(clock, view({"a": 1}), 4.0, out)
    assert again is UNCHANGED
    # disabling reported once, then unchanged
    off = evaluate_enabling(clock, view({}), 5.0, out)
    assert off is DISABLED
    assert evaluate_enabling(clock, view({}), 6.0, DISABLED) is UNCHANGED


def test_spec_change_keeps_anchor():
    def rule(v, now):
        n = v.count("a")
        return Enabled(HazardSpec(Exponential(float(n)))) if n >= 1 else DISABLED

    clock = ClockSpec(id=0, enabling=rule, mark=JumpMark({"a": -1}), reads=frozenset({"a"}))
    first = evaluate_enabling(clock, view({"a": 1}), 1.0, DISABLED)
    assert first.enabling_time == 1.0
    changed = evaluate_enabling(clock, view({"a": 3}), 2.0, first)
    assert changed == Enabled(HazardSpec(Exponential(3.0)), 1.0)


def test_explicit_anchor_from_state_history():
    spec = HazardSpec(Weibull(2.0, 1.0))
    returned = []

    def rule(v, now):
        if v.count("food") < 1:
            return DISABLED
        returned.append(Enabled(spec, enabling_time=v.changed_at("meal")))
        return returned[-1]

    clock = ClockSpec(id=0, enabling=rule, mark=JumpMark({"food": -1, "meal": +1}),
                      reads=frozenset({"food", "meal"}))
    v = view({"food": 2, "meal": 1}, changed={"meal": 3.25})
    out = evaluate_enabling(clock, v, 7.0, DISABLED)
    assert out == Enabled(spec, 3.25)
    # an outcome with a concrete time is the rule's own, not a copy
    assert out is returned[-1]
    # unchanged across a later query at a new stopping time
    assert evaluate_enabling(clock, v, 9.0, out) is UNCHANGED
    moved = evaluate_enabling(clock, view({"food": 1, "meal": 2}, changed={"meal": 8.5}), 9.0, out)
    assert moved == Enabled(spec, 8.5) and moved is returned[-1]


def test_future_anchor_rejected():
    def rule(v, now):
        return Enabled(HazardSpec(Exponential(1.0)), enabling_time=now + 1.0)

    clock = ClockSpec(id=0, enabling=rule, mark=JumpMark({"a": 1}), reads=frozenset())
    with pytest.raises(ModelError, match="in the future"):
        evaluate_enabling(clock, view({}), 1.0, DISABLED)


def test_rule_returning_none_is_rejected_naming_its_clock():
    # a rule that forgets `return DISABLED`; the previous outcome does not matter
    clock = ClockSpec(id=7, enabling=lambda v, now: None, mark=JumpMark({"a": 1}), reads=frozenset())
    for previously in (DISABLED, Enabled(HazardSpec(Exponential(1.0)), 0.0)):
        with pytest.raises(ModelError, match="clock 7: enabling rule returned None, not DISABLED or an Enabled"):
            evaluate_enabling(clock, view({}), 1.0, previously)


def test_rule_returning_its_previous_outcome_is_unchanged_while_the_anchor_holds():
    # A rule that hands back its own previous object is UNCHANGED, and its
    # anchor is still rejected when it lies after now or is not finite.
    def returning(out):
        return ClockSpec(id=0, enabling=lambda v, now: out, mark=JumpMark({"a": 1}), reads=frozenset())

    spec = HazardSpec(Weibull(2.0, 1.0))
    for previously in (DISABLED, Enabled(spec, 1.0)):
        assert evaluate_enabling(returning(previously), view({}), 1.0, previously) is UNCHANGED
        assert evaluate_enabling(returning(previously), view({}), 5.0, previously) is UNCHANGED
    for te in (1.5, math.nan, -math.inf):
        previously = Enabled(spec, te)
        with pytest.raises(ModelError, match="not finite, or is in the future"):
            evaluate_enabling(returning(previously), view({}), 1.0, previously)


@given(
    a=st.integers(0, 5),
    noise=st.dictionaries(st.sampled_from(["b", "c", "d"]), st.integers(0, 50), max_size=3),
    now=st.floats(0.0, 100.0),
)
@settings(max_examples=200, deadline=None)
def test_locality_outside_reads(a, noise, now):
    clock = _simple_clock()
    base = {"a": a}
    out_plain = evaluate_enabling(clock, view(dict(base)), now, DISABLED)
    perturbed = dict(base)
    perturbed.update(noise)
    out_noise = evaluate_enabling(clock, view(perturbed), now, DISABLED)
    assert out_plain == out_noise
