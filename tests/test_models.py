import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import kstest

from clocksim import graph as depgraph
from clocksim import models
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
from clocksim.errors import ModelError
from clocksim.hazards import Exponential, HazardSpec, Weibull
from clocksim.kernel import (
    EventCount,
    EventRecord,
    StalledOnly,
    TrajectoryFile,
    final_state,
    model_hash,
    run_ensemble,
    run_trajectory,
)
from clocksim.models import (
    Model,
    build,
    build_atomic_showcase,
    build_rabbits,
    build_ring,
    build_sir,
    parse_hazard,
    unparse_hazard,
)
from clocksim.verify import compare_to_reference, ctmc_oracle, event_sample
from conftest import last_event_sample, traced_bytes_after_build, tracked_objects_after_build

ALL_BUILTINS = [
    ("sir", {"n": 3, "initial_infected": 1, "recover": "weibull:2,1"}),
    ("rabbits", {"m": 2, "food_rate": 2.0, "portions": "1;2", "initial_food": 3}),
    ("atomic-showcase", {}),
    ("birth-death", {"birth": 1.0, "death": 1.0, "x0": 2, "capacity": 20}),
    ("ring", {"m": 4}),
    ("poisson", {"rate": 1.0}),
    ("renewal", {}),
]


def test_parse_hazard_round_trip():
    for text in ["exponential:1.5", "weibull:2,1", "gamma:2,3", "uniform:0.5,2",
                 "piecewise:0,1,2|0.5,0,2", "none@1,0.5", "exponential:1@0.5,0.25;2,1"]:
        spec = parse_hazard(text)
        again = parse_hazard(unparse_hazard(spec))
        assert again == spec
    assert parse_hazard(HazardSpec(Exponential(2.0))) == HazardSpec(Exponential(2.0))
    with pytest.raises(ModelError):
        parse_hazard("cauchy:1")
    with pytest.raises(ModelError):
        parse_hazard("weibull:2")
    with pytest.raises(ModelError, match="expected a hazard string or HazardSpec"):
        parse_hazard(2.0)
    # an atom at the enabling instant would be an immediate event
    with pytest.raises(ModelError, match="atom offset must be finite and > 0"):
        parse_hazard("exponential:1@0,1")


def test_unknown_model_rejected():
    with pytest.raises(ModelError):
        build("nope", {})
    with pytest.raises(ModelError):
        build("sir", {"n": 0})
    with pytest.raises(ModelError):
        build("sir", {})  # n required
    with pytest.raises(ModelError, match="need initial_infected <= n, got 4 > 3"):
        build("sir", {"n": 3, "initial_infected": 4})
    with pytest.raises(ModelError, match="parameter 'portions' must name at least one size"):
        build("rabbits", {"m": 1, "food_rate": 1.0, "portions": []})
    with pytest.raises(ModelError, match="need x0 <= capacity, got x0=5, capacity=2"):
        build("birth-death", {"x0": 5, "capacity": 2})


@pytest.mark.parametrize("name,params,key", [
    ("sir", {"n": 3, "initial_infectd": 2}, "initial_infectd"),
    ("sir", {"n": 3.7}, "n"),
    ("ring", {"m": 4, "rate": math.inf}, "rate"),
    ("poisson", {"rate": math.nan}, "rate"),
    ("atomic-showcase", {"n": 1}, "n"),
    ("sir", {"n": True}, "n"),
    ("rabbits", {"m": 2, "food_rate": True}, "food_rate"),
    ("sir", {"n": "abc"}, "n"),
])
def test_bad_parameter_names_model_and_parameter(name, params, key):
    with pytest.raises(ModelError) as info:
        build(name, params)
    message = str(info.value)
    assert message.count(repr(name)) == 1 and repr(key) in message, message


def test_integer_parameters_accept_integral_spellings():
    for n in (3, 3.0, "3"):
        assert build("sir", {"n": n}).params["n"] == 3
    model = build("rabbits", {"m": 1, "food_rate": 2, "portions": 2})
    assert model.params["portions"] == [2] and model.params["food_rate"] == 2.0


@pytest.mark.parametrize("name,params", ALL_BUILTINS, ids=[m[0] for m in ALL_BUILTINS])
def test_recorded_params_rebuild_the_same_model(name, params):
    model = build(name, params)
    assert model_hash(build(name, model.params)) == model_hash(model)


def test_sir_structure():
    model = build_sir(3)
    names = [c.name for c in model.clocks]
    assert sum(1 for n in names if n.startswith("infect")) == 6
    assert sum(1 for n in names if n.startswith("recover")) == 3
    assert model.initial_state.counts == {"I_0": 1, "S_1": 1, "S_2": 1}


def test_model_tables_computed_once_per_instance():
    model = build_sir(3)
    assert model.graph is model.graph and model.by_id is model.by_id
    assert model.by_id[4] is model.clocks[4]
    copy = dataclasses.replace(model)
    assert copy.graph is not model.graph and copy.graph == model.graph


def test_duplicate_ids_rejected():
    # every reader of the clocks by id goes through by_id: a replay must not
    # silently take the last of two clocks with one id
    spec = HazardSpec(Exponential(1.0))
    clocks = tuple(
        ClockSpec(id=0, enabling=lambda view, now: Enabled(spec), mark=JumpMark({key: 1}), reads=frozenset())
        for key in ("x", "y")
    )
    model = Model("twins", clocks, SystemState({}))
    with pytest.raises(ModelError, match="duplicate clock id 0"):
        model.by_id
    with pytest.raises(ModelError, match="duplicate clock id 0"):
        final_state(model, TrajectoryFile(header={}, events=(EventRecord(0, 1.0, 0),)))
    with pytest.raises(ModelError, match="duplicate clock id 0"):
        run_trajectory(model, "next-reaction", 1, EventCount(1))
    with pytest.raises(ModelError, match="duplicate clock id 0"):
        ctmc_oracle(model, 1.0)


# Distinct HazardSpec objects a built-in model's rules may return: the
# specs its builder makes, or one per entry of a table keyed by the state.
SPEC_BOUNDS = {
    "sir": lambda p: 2,
    "rabbits": lambda p: len(p["portions"]) + 2,
    "atomic-showcase": lambda p: 2,
    "birth-death": lambda p: p["capacity"] + 1,
    "ring": lambda p: p["m"] * p["tokens"],
    "poisson": lambda p: 1,
    "renewal": lambda p: 1,
}


@pytest.mark.parametrize("name,params", ALL_BUILTINS, ids=[m[0] for m in ALL_BUILTINS])
def test_builtin_rules_share_outcomes(name, params):
    model = build(name, params)
    specs = {}  # id -> spec, holding each spec so that no id is reused

    def sharing(rule):
        def rule_twice(view, now):
            out = rule(view, now)
            again = rule(view, now)
            if out is not DISABLED:
                assert again.spec is out.spec
                specs[id(out.spec)] = out.spec
            return out
        return rule_twice

    clocks = tuple(dataclasses.replace(c, enabling=sharing(c.enabling)) for c in model.clocks)
    run_trajectory(dataclasses.replace(model, clocks=clocks), "next-reaction", 8, EventCount(200))
    assert specs
    assert len(specs) <= SPEC_BOUNDS[name](model.params)


def test_sir_two_individuals_second_infected_half_the_time():
    model = build_sir(2)  # rate-1 infection races rate-1 recovery
    n = 3000
    hits = 0
    for traj in run_ensemble(model, "direct", 2024, n, StalledOnly()):
        state = final_state(model, traj).counts
        if "R_1" in state:
            hits += 1
    assert abs(hits / n - 0.5) < 0.03


def test_sir_weibull_recovery_anchored_at_infection_time():
    model = build_sir(2, recover="weibull:2,1", infect="exponential:100")
    traj = run_trajectory(model, "next-reaction", 3, EventCount(2))
    names = {c.name: c.id for c in model.clocks}
    infections = [ev for ev in traj.events if ev.clock == names["infect_0_1"]]
    assert infections, "with rate-100 infection the pair clock fires first"
    # replaying: individual 1 became infectious exactly at the infection event
    t_inf = infections[0].time
    view_counts = {"I_0": 1, "I_1": 1}
    out = evaluate_enabling(
        model.by_id[names["recover_1"]], StateView(view_counts, {"I_1": t_inf}), t_inf, DISABLED
    )
    assert out == Enabled(HazardSpec(Weibull(2.0, 1.0)), t_inf)


def test_rabbits_food_bookkeeping():
    model = build_rabbits(2, 3.0, (1, 2), initial_food=5)
    traj = run_trajectory(model, "next-to-fire", 17, EventCount(500))
    state = final_state(model, traj).counts
    by_name = {c.id: c.name for c in model.clocks}
    produced = sum(1 for ev in traj.events if by_name[ev.clock] == "food")
    eaten = 0
    for ev in traj.events:
        name = by_name[ev.clock]
        if name.startswith("eat_"):
            k = int(name.split("_")[-1])
            eaten += (1, 2)[k]
    assert state.get("food", 0) == 5 + produced - eaten


def test_rabbits_eating_rule_reuses_its_outcome_until_the_rabbit_eats():
    # Rabbit 0 owns clocks 1 (portion 1) and 2 (portion 2).  While its meal
    # history is unchanged both return one shared object, whatever the food
    # count, the time or another rabbit's meals; a meal gives a new outcome.
    model = build_rabbits(2, 1.0, (1, 2))
    eat_1, eat_2 = model.by_id[1].enabling, model.by_id[2].enabling
    first = eat_1(StateView({"food": 2}, {"food": 0.5}), 1.0)
    assert first == Enabled(HazardSpec(Weibull(2.0, 1.0)), 0.0)
    other_meal = StateView({"food": 3, "meal_1_0": 1}, {"food": 2.0, "meal_1_0": 1.5})
    assert eat_1(other_meal, 2.0) is first
    assert eat_2(other_meal, 2.5) is first
    eaten = StateView({"food": 2, "meal_0_1": 1}, {"food": 3.0, "meal_0_1": 3.0})
    after = eat_1(eaten, 4.0)
    assert after == Enabled(HazardSpec(Weibull(2.0, 2.0)), 3.0)
    assert after is not first
    assert eat_2(StateView({"food": 5, "meal_0_1": 1}, {"food": 4.5, "meal_0_1": 3.0}), 5.0) is after


def test_rabbits_eating_rule_builds_one_outcome_per_meal(monkeypatch):
    # Each rabbit's clocks build an Enabled on their first enable and after
    # each of its meals, not on every re-evaluation.
    model = build("rabbits", {"m": 20, "food_rate": 10, "portions": "1;2"})
    built = []

    def counting(*args, **kwargs):
        built.append(None)
        return Enabled(*args, **kwargs)

    monkeypatch.setattr(models, "Enabled", counting)
    traj = run_trajectory(model, "next-reaction", 3, EventCount(500))
    meals = sum(ev.clock != 0 for ev in traj.events)
    assert meals > 100
    assert len(built) <= meals + model.params["m"]


def test_rabbits_zero_food_disables_eating():
    model = build_rabbits(1, 1.0, (1,), initial_food=0)
    view = StateView(dict(model.initial_state.counts), {})
    for c in model.clocks:
        if c.name.startswith("eat"):
            assert c.enabling(view, 0.0) is DISABLED


def test_rabbits_intermeal_times_are_weibull():
    # abundant food: the single eating clock is enabled continuously, so
    # inter-meal durations are iid Weibull(2, 1)
    model = build_rabbits(1, 2.0, (1,), initial_food=2000)
    traj = run_trajectory(model, "next-reaction", 12321, EventCount(30_000))
    eat_id = next(c.id for c in model.clocks if c.name.startswith("eat"))
    meal_times = [ev.time for ev in traj.events if ev.clock == eat_id]
    assert len(meal_times) >= 10_000
    prev = 0.0
    gaps = []
    for t in meal_times:
        gaps.append(t - prev)
        prev = t
    # food never ran out, so the clock was never disabled mid-interval
    counts = dict(model.initial_state.counts)
    for ev in traj.events:
        apply_mark_inplace(counts, model.by_id[ev.clock].mark)
        assert counts.get("food", 0) >= 1
    res = kstest(gaps[:10_000], lambda t: 1.0 - np.exp(-(t ** 2)), method="asymp")
    assert res.pvalue > 0.01, (res.statistic, res.pvalue)


def test_atomic_showcase_probability_and_final_states():
    model = build_atomic_showcase()
    n = 2000
    b_fired = 0
    for traj in run_ensemble(model, "direct", 99, n, StalledOnly()):
        assert len(traj.events) == 1
        state = final_state(model, traj).counts
        if traj.events[0].clock == 1:
            b_fired += 1
            assert state == {"b_count": 1}
            assert traj.events[0].time == 1.0
        else:
            assert state == {"a_count": 1}
    assert abs(b_fired / n - 0.25) < 0.03


def test_sir_final_size_matches_ctmc_oracle():
    from clocksim.kernel import EndTime
    from clocksim.verify import ctmc_oracle, total_variation

    model = build_sir(3)
    horizon = 40.0  # epidemic over: essentially all mass on absorbing states

    def size_of(key_or_counts):
        items = dict(key_or_counts)
        return sum(v for k, v in items.items() if k.startswith("R_"))

    oracle = {}
    for key, p in ctmc_oracle(model, horizon).items():
        oracle[size_of(key)] = oracle.get(size_of(key), 0.0) + p
    n = 4000
    emp = {}
    for traj in run_ensemble(model, "next-to-fire", 303, n, EndTime(horizon)):
        s = size_of(final_state(model, traj).counts)
        emp[s] = emp.get(s, 0.0) + 1.0 / n
    assert total_variation(emp, oracle) < 0.03


def test_ring_conserves_tokens():
    model = build_ring(6, rate=2.0, tokens=2)
    traj = run_trajectory(model, "direct", 5, EventCount(300))
    state = final_state(model, traj).counts
    assert sum(state.values()) == 12


def _with_tables(builder, size):
    model = builder(size)
    model.graph, model.by_id
    return model


def test_built_ring_footprint_per_clock():
    # the difference between two sizes leaves out what a build makes once
    small, small_count = tracked_objects_after_build(lambda: _with_tables(build_ring, 1024))
    large, large_count = tracked_objects_after_build(lambda: _with_tables(build_ring, 2048))
    assert (large_count - small_count) / 1024 <= 4
    for readers in large.graph.values():
        assert type(readers) is tuple and list(readers) == sorted(readers)


@pytest.mark.parametrize("builder,small,large,bound", [
    (build_ring, 1024, 2048, 950),
    (build_sir, 20, 28, 880),
], ids=["ring", "sir"])
def test_built_model_bytes_per_clock(builder, small, large, bound):
    # the difference between two sizes leaves out what a build makes once;
    # a clock's rule is one 64-byte bound method
    small_model, small_bytes = traced_bytes_after_build(lambda: _with_tables(builder, small))
    large_model, large_bytes = traced_bytes_after_build(lambda: _with_tables(builder, large))
    per_clock = (large_bytes - small_bytes) / (len(large_model.clocks) - len(small_model.clocks))
    assert per_clock <= bound


def test_ring_clocks_share_key_strings():
    model = build_ring(8)
    initial = {k: k for k in model.initial_state.counts}
    for clock in model.clocks:
        (key,) = clock.reads
        previous_writes = {k: k for k in model.clocks[clock.id - 1].mark.deltas}
        assert key is initial[key] and key is previous_writes[key]


def test_sir_clocks_share_key_strings():
    model = build_sir(5, initial_infected=2)
    keys = [*model.initial_state.counts]
    for clock in model.clocks:
        keys.extend(clock.reads)
        keys.extend(clock.mark.deltas)
    assert len({id(k) for k in keys}) == len(set(keys))


def test_sir_infections_of_one_individual_share_one_mark():
    model = build_sir(6)
    marks = {}
    for clock in model.clocks:
        if clock.name.startswith("infect_"):
            j = clock.name.split("_")[2]
            assert marks.setdefault(j, clock.mark) is clock.mark
    assert len(marks) == 6 and len({id(m) for m in marks.values()}) == 6


@pytest.mark.parametrize("name,params", ALL_BUILTINS, ids=[m[0] for m in ALL_BUILTINS])
def test_graph_soundness_fuzz(name, params):
    """Unaffected clocks see an unchanged enabling outcome after any jump."""
    model = build(name, params)
    readers = depgraph.build(model.clocks)
    by_id = {c.id: c for c in model.clocks}
    keys = sorted({k for c in model.clocks for k in c.reads | c.mark.deltas.keys()})
    rng = np.random.default_rng(1234)
    trials = 0
    while trials < 120:
        counts = {k: int(rng.integers(0, 4)) for k in keys}
        counts = {k: v for k, v in counts.items() if v}
        changed = {k: float(rng.random() * 5.0) for k in keys}
        fired = int(rng.choice([c.id for c in model.clocks]))
        mark = by_id[fired].mark
        if any(counts.get(k, 0) + d < 0 for k, d in mark.deltas.items()):
            continue
        trials += 1
        after = dict(counts)
        for k, d in mark.deltas.items():
            after[k] = after.get(k, 0) + d
            if after[k] == 0:
                del after[k]
        changed_after = dict(changed)
        now = 6.0
        for k in mark.deltas:
            changed_after[k] = now
        aff = depgraph.affected(readers, by_id[fired])
        for cid, clock in by_id.items():
            if cid in aff:
                continue
            prev = evaluate_enabling(clock, StateView(counts, changed), now, DISABLED)
            if prev is UNCHANGED:
                prev = DISABLED
            out = evaluate_enabling(clock, StateView(after, changed_after), now, prev)
            assert out is UNCHANGED, (name, cid, counts, fired)


def test_rabbits_scarce_food_equivalence_multi_event():
    """Scarce food churns enabling: frozen budgets, past anchors, and scale
    changes must leave every sampler on the same trajectory distribution."""
    model = build("rabbits", {"m": 2, "food_rate": 1.0, "portions": "1;2", "initial_food": 1})
    n = 1200
    depth = 8
    data = {}
    # each sampler gets its own stream family, as in acceptance criterion 1.  The
    # three comparisons share the first-reaction reference, so its noise enters all
    # three; a reference four times the compared size keeps that share small
    for seed, sampler in enumerate(("first-reaction", "next-reaction", "next-to-fire", "direct"), start=4096):
        size = 4 * n if sampler == "first-reaction" else n
        data[sampler] = last_event_sample(model, sampler, seed, size, EventCount(depth))
        assert sum(data[sampler][1].values()) == depth * size  # every trajectory reached the depth
    for sampler, p_ks, p_chi in compare_to_reference(data.pop("first-reaction"), data):
        assert p_ks > 0.005, (sampler, p_ks)
        assert p_chi > 0.005, (sampler, p_chi)


@pytest.mark.parametrize("name,params", ALL_BUILTINS, ids=[m[0] for m in ALL_BUILTINS])
def test_first_event_equivalence_desk_scale(name, params):
    """All samplers draw the first (clock, time) from the same distribution."""
    model = build(name, params)
    # each sampler gets its own stream family, as in acceptance criterion 1
    data = {sampler: event_sample(model, sampler, seed, EventCount(1), trajectories=1200)
            for seed, sampler in enumerate(("first-reaction", "next-reaction", "next-to-fire", "direct"), start=81)}
    for sampler, p_ks, p_chi in compare_to_reference(data.pop("first-reaction"), data):
        assert p_ks > 0.005, (name, sampler, p_ks)
        assert p_chi is None or p_chi > 0.005, (name, sampler, p_chi)
