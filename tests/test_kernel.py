import contextlib
import dataclasses
import gc
import io
import json
import math
import random
import re
import weakref

import numpy as np
import pytest

from clocksim import graph, kernel, samplers
from clocksim.clocks import (
    DISABLED,
    UNCHANGED,
    ClockSpec,
    Enabled,
    JumpMark,
    SystemState,
    _collector_paused,
    apply_mark_inplace,
)
from clocksim.errors import ConfigError, DuplicateAtoms, ModelError, NegativeSubstate, Stalled, UnknownClock
from clocksim.hazards import Atom, Exponential, HazardSpec
from clocksim.kernel import (
    CountingStream,
    EndTime,
    Engine,
    EventCount,
    StalledOnly,
    derived_generator,
    final_state,
    model_hash,
    read_trajectory,
    run_ensemble,
    run_trajectory,
    write_trajectory,
)
from clocksim.models import Model, build, build_atomic_showcase, build_poisson, build_sir
from clocksim.samplers import make_sampler
from conftest import tracked_objects_after_build

SAMPLERS = ["first-reaction", "next-reaction", "next-to-fire", "direct"]


@pytest.mark.parametrize("sampler", SAMPLERS)
def test_same_seed_identical_trajectories(sampler):
    model = build("birth-death", {"birth": 2.0, "death": 1.0, "x0": 1, "capacity": 50})
    a = run_trajectory(model, sampler, 123, EventCount(200))
    b = run_trajectory(model, sampler, 123, EventCount(200))
    assert a == b
    c = run_trajectory(model, sampler, 124, EventCount(200))
    assert a != c


def test_end_time_zero_gives_empty_event_list():
    model = build_poisson(5.0)
    traj = run_trajectory(model, "direct", 1, EndTime(0.0))
    assert traj.events == ()
    assert traj.final_time == 0.0


def test_end_time_censors_and_sets_final_time():
    model = build_poisson(1.0)
    traj = run_trajectory(model, "next-reaction", 5, EndTime(10.0))
    assert traj.final_time == 10.0
    assert all(ev.time <= 10.0 for ev in traj.events)


def test_poisson_mean_event_count_within_3_sigma():
    model = build_poisson(1.0)
    horizon = 1000.0
    counts = [
        len(run_trajectory(model, "next-to-fire", 900 + s, EndTime(horizon)).events)
        for s in range(30)
    ]
    mean = sum(counts) / len(counts)
    sigma_mean = math.sqrt(horizon / len(counts))
    assert abs(mean - horizon) < 3.0 * sigma_mean


def test_pure_birth_counts_and_strictly_increasing_times():
    model = build_poisson(3.0)
    traj = run_trajectory(model, "first-reaction", 2, EventCount(500))
    assert len(traj.events) == 500
    times = [ev.time for ev in traj.events]
    assert all(b > a for a, b in zip(times, times[1:]))
    assert final_state(model, traj).counts == {"n": 500}


def test_no_enabled_clocks_stalls_immediately():
    # no sampler draws a variate for an empty enabled set: the `# variates:`
    # header of a stalled file depends on it
    model = build_sir(3, initial_infected=0)
    for sampler in ALL_SAMPLERS:
        traj = run_trajectory(model, sampler, 9, StalledOnly())
        assert traj.events == (), sampler
        assert traj.variates_consumed == 0, sampler


def test_sir_infection_step_enables_recoveries():
    model = build_sir(2, recover="weibull:2,1", infect="exponential:50")
    # infection dominates: step once, expect both individuals infectious
    stream = CountingStream(np.random.default_rng(4))
    engine = Engine(model, make_sampler("first-reaction"), stream)
    fired, t = engine.step()
    clock = model.by_id[fired]
    if clock.name.startswith("infect"):
        assert engine._counts == {"I_0": 1, "I_1": 1}
        # recovery of individual 1 now enabled, anchored at the infection time
        names = {c.name: c.id for c in model.clocks}
        cached = engine._cache[names["recover_1"]]
        assert cached.enabling_time == t
    assert engine.cache_consistent()


@pytest.mark.parametrize("sampler", SAMPLERS)
def test_cache_audit_along_trajectory(sampler):
    model = build_sir(4, recover="weibull:2,1", infect="exponential:0.8")
    stream = CountingStream(np.random.default_rng(11))
    engine = Engine(model, make_sampler(sampler), stream)
    for _ in range(30):
        try:
            engine.step()
        except Stalled:
            break
        assert engine.cache_consistent()


def test_replay_reproduces_nonnegative_states():
    model = build("birth-death", {"birth": 1.0, "death": 1.0, "x0": 3, "capacity": 30})
    traj = run_trajectory(model, "direct", 77, EventCount(400))
    counts = dict(model.initial_state.counts)
    for ev in traj.events:
        apply_mark_inplace(counts, model.by_id[ev.clock].mark)
        assert all(v > 0 for v in counts.values())
    assert len(traj.events) == 400


def test_variates_counted():
    model = build_poisson(1.0)
    traj = run_trajectory(model, "first-reaction", 0, EventCount(10))
    assert traj.variates_consumed >= 10


def test_serialization_round_trip():
    model = build("birth-death", {"birth": 1.5, "death": 0.7, "x0": 2, "capacity": 40})
    traj = run_trajectory(model, "next-reaction", 31, EventCount(50))
    buf = io.StringIO()
    write_trajectory(buf, traj, model)
    text = buf.getvalue()
    tf = read_trajectory(io.StringIO(text))
    assert tf.events == traj.events  # 17 significant digits round-trip floats
    assert tf.header["model"] == "birth-death"
    assert tf.header["model_hash"] == model_hash(model)
    assert int(tf.header["seed"]) == 31
    assert int(tf.header["events"]) == 50
    assert float(tf.header["final_time"]) == traj.final_time
    assert json.loads(tf.header["initial_state"]) == model.initial_state.counts
    assert final_state(model, tf) == final_state(model, traj)


def test_final_state_replays_only_what_the_kernel_could_write():
    # an in-memory trajectory is replayed through the kernel too, with no file check before it
    model = build_poisson(1.0)
    traj = run_trajectory(model, "direct", 1, EventCount(3))
    e0 = traj.events[0]
    assert final_state(model, traj).counts == {"n": 3}
    for events, message in (
        ((e0._replace(clock=99),), "event 0: clock 99 at time .* is not enabled"),  # a clock the model lacks
        ((e0, e0._replace(seq=1)), "event 1: clock .* is not after"),
        ((e0._replace(time=math.nan),), "event 0: clock .* at time nan is not after 0"),
        ((e0._replace(time=math.inf),), "event 0: clock .* at time inf is not after 0"),
    ):
        with pytest.raises(ModelError, match=message):
            final_state(model, dataclasses.replace(traj, events=events))


@pytest.mark.parametrize("final_time", ["0.5", "1.5", "inf", "nan", "-1"])
def test_final_time_before_the_last_event_or_not_finite_is_rejected(final_time):
    # a replay runs a file to its final_time, so it must be finite and reach the last event
    def text(value):
        return f"# final_time: {value}\n# events: 2\n0\t1.0\t0\n1\t2.0\t0\n"

    with pytest.raises(ModelError, match=f"final_time {final_time} is not finite or lies before the last event"):
        read_trajectory(io.StringIO(text(final_time)))
    for ok in ("2", "2.5"):
        assert read_trajectory(io.StringIO(text(ok))).header["final_time"] == ok
    with pytest.raises(ModelError, match="malformed line: '# final_time: soon'"):
        read_trajectory(io.StringIO(text("soon")))


@pytest.mark.parametrize("content, names", [
    (b"0\tabc\t0\n", r"malformed line: '0\tabc\t0'"),
    (b"0\t1.0\n", r"malformed line: '0\t1.0'"),
    (b"0.0\t1.0\t0\n", r"malformed line: '0.0\t1.0\t0'"),
    (b"# model: ring\n\xff\xfe\n", "not a text file"),
], ids=["time-not-a-number", "two-columns", "seq-not-an-integer", "not-text"])
def test_malformed_trajectory_line_is_a_model_error_naming_it(content, names):
    with pytest.raises(ModelError, match=re.escape(names)):
        read_trajectory(io.TextIOWrapper(io.BytesIO(content), encoding="utf-8"))


def test_ensemble_matches_run_trajectory_and_order_invariant():
    model = build_poisson(2.0)
    ensemble = run_ensemble(model, "direct", 55, 4, EventCount(20))
    single = run_trajectory(model, "direct", 55, EventCount(20), stream_index=0)
    assert ensemble[0] == single
    # independent per-index streams: shuffled execution gives the same set
    indices = list(range(4))
    random.Random(0).shuffle(indices)
    shuffled = {i: run_trajectory(model, "direct", 55, EventCount(20), stream_index=i) for i in indices}
    assert [shuffled[i] for i in range(4)] == ensemble


def test_atomic_showcase_single_shot():
    model = build_atomic_showcase()
    for seed in range(20):
        traj = run_trajectory(model, "direct", seed, StalledOnly())
        assert len(traj.events) == 1
        if traj.events[0].clock == 1:
            assert traj.events[0].time == 1.0


def test_stop_validation():
    with pytest.raises(ModelError):
        EventCount(0)
    with pytest.raises(ModelError):
        EndTime(-1.0)
    with pytest.raises(ModelError):
        EndTime(math.inf)


def test_unknown_stop_is_rejected():
    # sir n=2 stalls, so a stop taken for StalledOnly still returns
    with pytest.raises(ModelError, match="EndTime, EventCount or StalledOnly"):
        run_trajectory(build_sir(2), "direct", 0, 5)


@pytest.mark.parametrize("make, error", [
    (lambda: derived_generator(-1, 0), ConfigError),
    (lambda: derived_generator(2**64, 0), ConfigError),
    (lambda: derived_generator(5, -1), ConfigError),
    (lambda: derived_generator(True, 0), ConfigError),
    (lambda: run_trajectory(build_poisson(1.0), "direct", 1.5, EventCount(1)), ConfigError),
    (lambda: derived_generator(np.int64(5), np.uint64(0)), None),
    (lambda: EventCount(2.5), ModelError),
    (lambda: EventCount(True), ModelError),
    (lambda: run_ensemble(build_sir(2), "direct", 0, True, StalledOnly()), ModelError),
    (lambda: run_ensemble(build_sir(2), "direct", 0, 2.5, StalledOnly()), ModelError),
    (lambda: run_ensemble(build_sir(2), "direct", 0, "3", StalledOnly()), ModelError),
], ids=["seed-negative", "seed-2**64", "index-negative", "seed-bool", "seed-float", "numpy-ints",
        "events-float", "events-bool", "ensemble-bool", "ensemble-float", "ensemble-string"])
def test_seed_index_and_event_count_are_checked_not_wrapped(make, error):
    # seeds and stream indices are integers in [0, 2**64); integer-like numpy
    # scalars name the same stream as the equal int
    if error is None:
        assert make().random(3).tolist() == derived_generator(5, 0).random(3).tolist()
    else:
        with pytest.raises(error):
            make()


def test_counting_stream_matches_scalar_draws():
    # 1000 draws cross several of the stream's blocks
    stream = CountingStream(derived_generator(7, 3))
    scalar = derived_generator(7, 3)
    for n in range(1, 1001):
        assert stream.uniform() == scalar.random()
        assert stream.count == n


@pytest.mark.parametrize("seed, index", [(0, 0), (1, 7), (2**64 - 1, 2**64 - 1)])
def test_stream_matches_a_pcg64_seeded_then_given_the_derived_state(seed, index):
    # the derivation spelled out once more, over a bit generator seeded the usual way
    s0 = kernel._mix64(seed ^ 0x243F6A8885A308D3)
    s1 = kernel._mix64(s0 ^ index)
    i0 = kernel._mix64(seed + 0x452821E638D01377 + index * 0x9E3779B97F4A7C15)
    ref = np.random.PCG64(0)
    ref.state = {
        "bit_generator": "PCG64",
        "state": {"state": (s0 << 64) | s1, "inc": ((i0 << 64) | kernel._mix64(i0 + 1)) | 1},
        "has_uint32": 0,
        "uinteger": 0,
    }
    gen = derived_generator(seed, index)
    assert gen.bit_generator.state == ref.state
    assert gen.random(1000).tolist() == np.random.Generator(ref).random(1000).tolist()


def test_model_tables_are_freed_with_the_model():
    model = build_sir(4, recover="weibull:2,1")
    run_trajectory(model, "next-reaction", 3, StalledOnly())
    first_clock = weakref.ref(model.clocks[0])
    del model
    gc.collect()
    assert first_clock() is None


def test_interleaved_engines_keep_their_own_streams():
    model = build("birth-death", {"birth": 2.0, "death": 1.0, "x0": 1, "capacity": 50})
    solo = [run_trajectory(model, "direct", 8, EventCount(40), stream_index=i).events for i in (0, 1)]
    engines = [Engine(model, make_sampler("direct"), CountingStream(derived_generator(8, i))) for i in (0, 1)]
    stepped = [[], []]
    for _ in range(40):
        for i, engine in enumerate(engines):
            stepped[i].append(engine.step())
    assert stepped == [[(ev.clock, ev.time) for ev in events] for events in solo]


def test_fired_clock_anchored_in_the_future_is_rejected():
    spec = HazardSpec(Exponential(1.0))

    def rule(view, now):
        # the first firing re-anchors this clock one time unit ahead
        return Enabled(spec, None if view.count("n") == 0 else now + 1.0)

    clock = ClockSpec(id=0, enabling=rule, mark=JumpMark({"n": 1}), reads=frozenset({"n"}))
    model = Model("future-anchor", (clock,), SystemState({}))
    engine = Engine(model, make_sampler("next-reaction"), CountingStream(derived_generator(1, 0)))
    with pytest.raises(ModelError, match="in the future"):
        engine.step()


class _ProposesOnly:
    """A custom sampler that proposes `clock` at time 0.5 and checks no delta."""

    name = "proposes-only"

    def __init__(self, clock):
        self.clock = clock

    def absorb(self, delta, now, stream):
        pass

    def next_event(self, now, stream):
        return samplers.SamplerEvent(self.clock, 0.5)


class _NextReactionProposing(samplers.NextReactionSampler):
    """next-reaction with a forged proposal of `clock`; its absorb checks every delta."""

    def __init__(self, clock):
        super().__init__()
        self.clock = clock

    def next_event(self, now, stream):
        return samplers.SamplerEvent(self.clock, 0.5)


@pytest.mark.parametrize("make, clock", [
    (_ProposesOnly, 1), (_ProposesOnly, 7), (_NextReactionProposing, 1), (_NextReactionProposing, 7),
], ids=["unchecked-disabled", "unchecked-outside-model", "checked-disabled", "checked-outside-model"])
def test_proposal_of_a_clock_not_enabled_changes_nothing(make, clock):
    # clock 0 is always enabled; clock 1 waits for k >= 5; there is no clock 7
    spec = HazardSpec(Exponential(1.0))
    model = Model("k", (
        ClockSpec(id=0, enabling=lambda view, now: Enabled(spec), mark=JumpMark({"k": 1}), reads=frozenset()),
        ClockSpec(id=1, enabling=lambda view, now: Enabled(spec) if view.count("k") >= 5 else DISABLED,
                  mark=JumpMark({"k": 1}), reads=frozenset({"k"})),
    ), SystemState({}))
    engine = Engine(model, make(clock), CountingStream(derived_generator(1, 0)))
    with pytest.raises(UnknownClock, match=f"clock {clock} "):
        engine.step()
    assert engine._counts == {} and engine._changed == {} and engine.now == 0.0
    assert engine.cache_consistent()


class _ProposesNever(_ProposesOnly):
    """A custom sampler that proposes an infinite time instead of raising Stalled."""

    def next_event(self, now, stream):
        return samplers.SamplerEvent(self.clock, math.inf)


def test_infinite_proposal_stalls_and_changes_nothing():
    spec = HazardSpec(Exponential(1.0))
    clock = ClockSpec(id=0, enabling=lambda view, now: Enabled(spec), mark=JumpMark({"k": 1}), reads=frozenset())
    engine = Engine(Model("k", (clock,), SystemState({})), _ProposesNever(0), CountingStream(derived_generator(1, 0)))
    with pytest.raises(Stalled, match="infinite time"):
        engine.step()
    assert engine._counts == {} and engine._changed == {} and engine.now == 0.0


@pytest.mark.parametrize("sampler", SAMPLERS)
def test_undeclared_read_leaves_the_cache_inconsistent(sampler):
    # clock 0 reads y without declaring it, so clock 1's jump on y does not re-evaluate it
    never = HazardSpec(Exponential(0.0))
    model = Model("undeclared", (
        ClockSpec(id=0, enabling=lambda view, now: Enabled(never) if view.count("y") == 0 else DISABLED,
                  mark=JumpMark({}), reads=frozenset()),
        ClockSpec(id=1, enabling=lambda view, now: Enabled(HazardSpec(Exponential(1.0))),
                  mark=JumpMark({"y": 1}), reads=frozenset()),
    ), SystemState({}))
    engine = Engine(model, make_sampler(sampler), CountingStream(derived_generator(1, 0)))
    assert engine.cache_consistent()
    assert engine.step()[0] == 1
    assert not engine.cache_consistent()


def test_rejected_mark_changes_nothing():
    # the mark's first key is written before its second goes negative
    spec = HazardSpec(Exponential(1.0))
    clock = ClockSpec(id=0, enabling=lambda view, now: Enabled(spec), mark=JumpMark({"b": 1, "a": -2}),
                      reads=frozenset())
    model = Model("overdraw", (clock,), SystemState({"a": 1}))
    engine = Engine(model, make_sampler("next-reaction"), CountingStream(derived_generator(1, 0)))
    with pytest.raises(NegativeSubstate, match="'a'"):
        engine.step()
    assert engine._counts == {"a": 1} and engine._changed == {} and engine.now == 0.0
    assert engine.cache_consistent()


FIVE_SAMPLERS = [*SAMPLERS, "hierarchical:first-reaction=rest"]


def _one_clock_model(cid, enabling_time=None):
    spec = HazardSpec(Exponential(1.0))
    clock = ClockSpec(id=cid, enabling=lambda view, now: Enabled(spec, enabling_time),
                      mark=JumpMark({"n": 1}), reads=frozenset())
    return Model("one-clock", (clock,), SystemState({}))


@pytest.mark.parametrize("sampler", FIVE_SAMPLERS)
def test_negative_clock_id_fires_like_any_other(sampler):
    # a clock id is any integer; none of them means "no clock"
    events = run_trajectory(_one_clock_model(-1), sampler, 1, EventCount(3)).events
    same = run_trajectory(_one_clock_model(0), sampler, 1, EventCount(3)).events
    assert [ev.clock for ev in events] == [-1, -1, -1]
    assert [ev.time for ev in events] == [ev.time for ev in same]


@pytest.mark.parametrize("te", [math.nan, -math.inf])
@pytest.mark.parametrize("sampler", FIVE_SAMPLERS)
def test_non_finite_enabling_time_is_rejected(sampler, te):
    with pytest.raises(ModelError, match=f"clock 0: enabling time {te} is not finite"):
        run_trajectory(_one_clock_model(0, te), sampler, 1, EventCount(3))


def _atoms_at(*offsets, mass=0.5):
    return HazardSpec(None, tuple(Atom(o, mass) for o in offsets))


def _certain_once(cid, offset, key):
    """Jumps exactly at `offset` after time 0, setting `key`; disabled afterwards."""
    spec = _atoms_at(offset, mass=1.0)
    return ClockSpec(id=cid, enabling=lambda view, now: DISABLED if view.count(key) else Enabled(spec),
                     mark=JumpMark({key: 1}), reads=frozenset({key}))


def _atom_race(rule0, rule1):
    """Clocks 0 and 1 follow the given rules; clock 2 jumps at 0.5 setting `a`, clock 3 at 1.0 setting `b`."""
    clocks = [
        ClockSpec(id=cid, enabling=rule, mark=JumpMark({f"x{cid}": 1}), reads=frozenset({"b"}))
        for cid, rule in ((0, rule0), (1, rule1))
    ]
    return Model("atom-race", (*clocks, _certain_once(2, 0.5, "a"), _certain_once(3, 1.0, "b")), SystemState({}))


ALL_SAMPLERS = [*SAMPLERS, "hierarchical:direct=0;next-reaction=rest"]


@pytest.mark.parametrize("sampler", ALL_SAMPLERS)
def test_shared_future_atom_time_is_rejected(sampler):
    def engine(model):
        return Engine(model, make_sampler(sampler), CountingStream(derived_generator(1, 0)))

    at_2 = _atoms_at(2.0)
    at_1_5 = _atoms_at(1.5)

    def fixed(view, now):
        return Enabled(at_2)

    def re_anchored(view, now):
        # at the second jump (b set, t=1.0) re-anchor at the first (a set, t=0.5): atom 1.5 moves to 2.0
        return Enabled(at_1_5, view.changed_at("a") if view.count("b") else None)

    def leaves_2(view, now):
        return DISABLED if view.count("b") else Enabled(at_2)

    # two clocks anchored at 0 share the atom at 2.0
    with pytest.raises(DuplicateAtoms, match="clocks 0 and 1 share atom time 2.0"):
        engine(_atom_race(fixed, fixed))
    # a clock re-anchored to a past jump time lands on another enabled clock's future atom
    eng = engine(_atom_race(fixed, re_anchored))
    assert eng.step() == (2, 0.5)
    with pytest.raises(DuplicateAtoms, match="clocks 0 and 1 share atom time 2.0"):
        eng.step()
    # a clock may take an atom time that another clock gives up at the same jump
    eng = engine(_atom_race(re_anchored, leaves_2))
    assert [eng.step(), eng.step()] == [(2, 0.5), (3, 1.0)]
    assert eng._atoms == {2.0: 0}


class RecordingSampler:
    """Pass-through sampler that keeps the ids of every delta it absorbs."""

    def __init__(self, inner):
        self.inner = inner
        self.deltas = []

    def next_event(self, now, stream):
        return self.inner.next_event(now, stream)

    def absorb(self, delta, now, stream):
        self.deltas.append((
            delta.fired,
            [e[0] for e in delta.newly_enabled],
            list(delta.newly_disabled),
            [e[0] for e in delta.modified],
        ))
        self.inner.absorb(delta, now, stream)


DELTA_MODELS = {
    # infection clocks fire and are disabled by their own jump
    "sir": build_sir(4, recover="weibull:2,1", infect="exponential:2", initial_infected=2),
    # both clocks re-enable after firing, and the death rate is modified
    "birth-death": build("birth-death", {"birth": 1.0, "death": 0.5, "x0": 2, "capacity": 4}),
}


@pytest.mark.parametrize("sampler", [*SAMPLERS, "hierarchical:direct=0-5;next-to-fire=rest"])
@pytest.mark.parametrize("name", DELTA_MODELS)
def test_deltas_ascend_and_list_the_fired_clock_only_when_it_re_enables(name, sampler):
    recorder = RecordingSampler(make_sampler(sampler))
    engine = Engine(DELTA_MODELS[name], recorder, CountingStream(derived_generator(5, 0)))
    fired_seen = []
    for _ in range(40):
        try:
            fired, _ = engine.step()
        except Stalled:
            break
        fired_seen.append((fired, isinstance(engine._cache[fired], Enabled)))
    assert len(recorder.deltas) == len(fired_seen) + 1 >= 4
    assert recorder.deltas[0][0] is None
    for _, *lists in recorder.deltas:
        for ids in lists:
            assert all(a < b for a, b in zip(ids, ids[1:]))
    for (fired, enabled, disabled, modified), (cid, re_enabled) in zip(recorder.deltas[1:], fired_seen):
        assert fired == cid
        assert fired not in disabled and fired not in modified
        assert (fired in enabled) == re_enabled


def _unchanged_model():
    clock = ClockSpec(id=0, enabling=lambda view, now: UNCHANGED, mark=JumpMark({"n": 1}), reads=frozenset())
    return Model("unchanged", (clock,), SystemState({}))


def test_rule_returning_unchanged_is_rejected():
    with pytest.raises(ModelError, match="UNCHANGED"):
        Engine(_unchanged_model(), make_sampler("next-reaction"), CountingStream(derived_generator(1, 0)))


@contextlib.contextmanager
def _collector_passes():
    """The generations of the collector passes that start inside the block,
    which starts from an empty young generation."""
    gc.collect()
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.callbacks.append(count)
    try:
        yield passes
    finally:
        gc.callbacks.remove(count)


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_build_and_engine_init_pause_the_collector(enabled):
    was_enabled = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        with _collector_passes() as passes:
            model = build("ring", {"m": 4096})
        assert len(passes) <= 1 and gc.isenabled() is enabled
        with _collector_passes() as passes:
            Engine(model, make_sampler("next-reaction"), CountingStream(derived_generator(1, 0)))
        assert len(passes) <= 1 and gc.isenabled() is enabled
        with pytest.raises(ModelError):
            build("ring", {"m": 1})
        assert gc.isenabled() is enabled
        with pytest.raises(ModelError, match="UNCHANGED"):
            Engine(_unchanged_model(), make_sampler("next-reaction"), CountingStream(derived_generator(1, 0)))
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


@pytest.fixture
def collector_on():
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        yield
    finally:
        gc.enable() if was_enabled else gc.disable()


class _Node:
    pass


def _in_generation(obj, generation):
    return any(o is obj for o in gc.get_objects(generation))


def test_build_and_engine_init_leave_their_tables_in_the_oldest_generation(collector_on):
    model = build("ring", {"m": 4096})
    assert gc.get_count()[0] < 100 and _in_generation(model.clocks[0], 2)
    engine = Engine(model, make_sampler("next-reaction"), CountingStream(derived_generator(1, 0)))
    assert gc.get_count()[0] < 100 and _in_generation(engine._cache, 2)


def test_pause_keeps_the_callers_frozen_objects_frozen(collector_on):
    gc.collect()
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        build("ring", {"m": 64})
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


def test_cycle_promoted_by_the_pause_is_still_collected(collector_on):
    with _collector_paused():
        node = _Node()
        node.self = node
    assert _in_generation(node, 2)
    ref = weakref.ref(node)
    del node
    gc.collect()
    assert ref() is None


def test_pause_left_by_an_exception_promotes_nothing(collector_on):
    gc.collect()
    with pytest.raises(RuntimeError):
        with _collector_paused():
            node = _Node()
            node.self = node
            ref = weakref.ref(node)
            del node
            raise RuntimeError
    gc.collect(0)
    assert ref() is None


def test_nested_pause_promotes_nothing_at_its_inner_exit(collector_on):
    gc.collect()
    with _collector_paused():
        with _collector_paused():
            node = _Node()
        assert _in_generation(node, 0)
    assert _in_generation(node, 2)


def test_promoted_trajectories_are_not_kept_alive():
    """5000 trajectories through `run_ensemble`, each engine init ending in a
    promotion, leave no more tracked objects than the first 500 did."""
    model = build("atomic-showcase", {})
    counts = []
    for chunk in range(10):
        run_ensemble(model, "next-reaction", chunk, 500, StalledOnly())
        gc.collect()
        counts.append(len(gc.get_objects()))
    assert max(counts) - counts[0] < 50


@pytest.mark.parametrize("sampler", [*SAMPLERS, "hierarchical:direct=0-511;next-reaction=rest"])
def test_engine_init_footprint_per_enabled_clock(sampler):
    def tracked_by_engine(m):
        model = build("ring", {"m": m})
        model.graph, model.by_id
        stream = CountingStream(derived_generator(1, 0))
        engine, count = tracked_objects_after_build(lambda: Engine(model, make_sampler(sampler), stream))
        assert len(engine.sampler._enabled) == m
        return count

    # the difference between two sizes leaves out what an engine makes once
    assert (tracked_by_engine(2048) - tracked_by_engine(1024)) / 1024 <= 1


def test_clocks_enabled_together_share_one_outcome():
    model = build_sir(6, recover="exponential:0.01", infect="exponential:10")
    engine = Engine(model, make_sampler("next-reaction"), CountingStream(derived_generator(2, 0)))
    initial = [engine._cache[c.id] for c in model.clocks if c.name.startswith("infect_0_")]
    assert len(initial) == 5 and all(out is initial[0] for out in initial)
    fired, t = engine.step()
    name = model.by_id[fired].name
    assert name.startswith("infect_0_")
    infected = name.split("_")[2]
    enabled = [
        engine._cache[c.id] for c in model.clocks
        if c.name.startswith(f"infect_{infected}_") and engine._cache[c.id] is not DISABLED
    ]
    assert len(enabled) == 4 and enabled[0].enabling_time == t
    assert all(out is enabled[0] for out in enabled)


# The benchmark's per-layer metrics wrap these names where the program looks
# them up at call time; a name inlined away stops being called and its
# metrics read 0 without an error.  Each sampler must keep calling the
# names it uses on the ring.
KERNEL_NAMES = {"evaluate_enabling", "apply_mark_inplace", "affected", "uniform"}
WRAPPED = [
    (kernel, "evaluate_enabling"),
    (kernel, "apply_mark_inplace"),
    (graph, "affected"),
    (kernel.CountingStream, "uniform"),
    (samplers, "invert_conditional"),
    (samplers, "time_process"),
]
USED_ON_RING = {
    "first-reaction": KERNEL_NAMES | {"invert_conditional"},
    "next-reaction": KERNEL_NAMES | {"invert_conditional", "time_process"},
    "next-to-fire": KERNEL_NAMES | {"invert_conditional"},
    "direct": KERNEL_NAMES,
    "hierarchical:direct=0-7;next-reaction=rest": KERNEL_NAMES | {"invert_conditional", "time_process"},
}


@pytest.mark.parametrize("sampler", USED_ON_RING)
def test_benchmark_wrapped_names_stay_on_the_call_path(monkeypatch, sampler):
    calls = dict.fromkeys((attr for _, attr in WRAPPED), 0)
    for owner, attr in WRAPPED:
        def counting(*args, _attr=attr, _fn=getattr(owner, attr), **kwargs):
            calls[_attr] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counting)
    run_trajectory(build("ring", {"m": 16, "tokens": 2}), sampler, 5, EventCount(50))
    assert [attr for attr in sorted(USED_ON_RING[sampler]) if not calls[attr]] == []


@pytest.mark.parametrize("name, params", [
    ("sir", {"n": 8, "recover": "weibull:2,1@1.5,0.5"}),
    ("rabbits", {"m": 4, "food_rate": 2.0, "portions": "1;2"}),
    ("atomic-showcase", {}),
    ("ring", {"m": 64}),
    ("sir", {"n": 6}),
])
def test_first_reaction_draws_once_per_enabled_clock(monkeypatch, name, params):
    # The samplers docstring's contract, seen through the wrapped names:
    # each event calls `uniform` and `invert_conditional` once per enabled
    # clock, whatever the spec: Weibull with atoms (SIR), Weibull anchored
    # at a past meal (rabbits), atoms only (atomic-showcase), and plain
    # exponentials over many clocks (ring-64, SIR with 6 individuals).
    calls = {"uniform": 0, "invert_conditional": 0}
    for owner, attr in ((kernel.CountingStream, "uniform"), (samplers, "invert_conditional")):
        def counting(*args, _attr=attr, _fn=getattr(owner, attr), **kwargs):
            calls[_attr] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counting)
    sampler = make_sampler("first-reaction")
    engine = Engine(build(name, params), sampler, CountingStream(derived_generator(3, 0)))
    events = 0
    while events < 60:
        enabled = len(sampler._enabled)
        before = dict(calls)
        try:
            engine.step()
        except Stalled:
            break
        finally:
            assert calls == {k: v + enabled for k, v in before.items()}
        events += 1
    assert events
