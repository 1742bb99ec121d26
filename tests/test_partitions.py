"""Hierarchical partitions: the routing identities the variate contract
implies, the engine's check of a partition against its model, and a check
of every partition the repository runs against its model."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from clocksim.cli import _SUITES
from clocksim.errors import ModelError
from clocksim.kernel import EventCount, run_ensemble, run_trajectory
from clocksim.models import build
from clocksim.samplers import NextReactionSampler, NextToFireSampler, make_sampler

from test_acceptance import CRITERION_1_CASES, RACE3
from test_samplers import RACE_THEN_ATOM
from test_verify import SIR3

ROOT = Path(__file__).resolve().parent.parent

# -- pathwise identities ---------------------------------------------------------
# Each identity pairs a base sampler X with a partition that must draw the same
# uniforms for the same clocks, so both write the same trajectory on every stream.

MODELS = {
    "sir": ("sir", {"n": 8, "recover": "weibull:2,1@1.5,0.5"}),
    "rabbits": ("rabbits", {"m": 4, "food_rate": 10, "portions": "1;2"}),
    "ring": ("ring", {"m": 32, "tokens": 3}),
    "birth-death": ("birth-death", {}),
    "atomic-showcase": ("atomic-showcase", {}),
    "poisson": ("poisson", {}),
    "renewal": ("renewal", {"interarrival": "gamma:2,3@0.5,0.3"}),
    "table-race3": ("table", RACE3),
    "table-race-then-atom": ("table", RACE_THEN_ATOM),
}

# (base sampler, partition template over the model's low half `{low}`, the clause it follows from)
IDENTITIES = [
    *((x, f"{x}=rest",
       "hierarchical: a lone child is handed every delta whole and asked for every proposal, "
       "and keeps its own discipline")
      for x in ("first-reaction", "next-reaction", "next-to-fire", "direct")),
    # next-to-fire draws for modified clocks before newly enabled ones, and each direct
    # child draws two variates: a split reorders or adds draws, so neither is here
    ("first-reaction", "first-reaction={low};first-reaction=rest",
     "first-reaction: next_event draws one variate per enabled clock in ascending id; the children "
     "are asked in construction order, low ids first, and a tie goes to the smallest id"),
    ("next-reaction", "next-reaction={low};next-reaction=rest",
     "next-reaction: absorb draws once per fresh clock in ascending id and next_event draws none; "
     "the children apply in construction order, low ids first"),
]


def outcome(traj):
    """What a trajectory's file records of the sampler's draws, byte for byte."""
    return repr((traj.events, traj.variates_consumed, traj.final_time))


def low_half(model):
    """The id range of the model's low half, `first-middle`."""
    ids = sorted(model.by_id)
    return f"{ids[0]}-{ids[(len(ids) - 1) // 2]}"


@pytest.mark.parametrize("base, partition, clause", IDENTITIES, ids=[p.format(low="low") for _, p, _ in IDENTITIES])
@pytest.mark.parametrize("model_key", MODELS)
def test_hierarchical_identity(model_key, base, partition, clause):
    model = build(*MODELS[model_key])
    spec = "hierarchical:" + partition.format(low=low_half(model))
    for stream in range(10):
        expect = outcome(run_trajectory(model, base, 2024, EventCount(100), stream_index=stream))
        assert outcome(run_trajectory(model, spec, 2024, EventCount(100), stream_index=stream)) == expect, (
            f"{spec} differs from {base} on stream {stream}; the identity follows from {clause}")


# -- next-reaction and next-to-fire ----------------------------------------------

class _FreshDrawsOnly(NextReactionSampler):
    """Next-reaction that asserts, on every delta, that it holds no modified and no resumed clock."""

    def __init__(self):
        super().__init__()
        self.deltas = 0

    def _apply(self, delta, now, stream):
        assert not delta.modified, f"modified clocks {delta.modified} at {now}"
        frozen = [cid for cid, _, _ in delta.newly_enabled if cid in self._entries and cid != delta.fired]
        assert not frozen, f"resumed clocks {frozen} at {now}"
        self.deltas += 1
        super()._apply(delta, now, stream)


NEXT_TO_FIRE_CLAUSE = (
    "next-reaction draws once per fresh clock in ascending id and resumes or re-inverts without a draw; "
    "next-to-fire draws once per modified then per newly enabled clock in ascending id; both invert the "
    "fresh draw from the same anchor, so with no modified or resumed clock they draw alike")


@pytest.mark.parametrize("params", [{"n": 8, "recover": "weibull:2,1@1.5,0.5"}, {"n": 12}],
                         ids=["n8-weibull-atom", "n12"])
def test_next_reaction_is_next_to_fire_on_sir(params):
    model = build("sir", params)
    for stream in range(10):
        recording = _FreshDrawsOnly()
        got = outcome(run_trajectory(model, recording, 2024, EventCount(100), stream_index=stream))
        assert recording.deltas > 1, "the precondition was checked on no step"
        expect = outcome(run_trajectory(model, "next-to-fire", 2024, EventCount(100), stream_index=stream))
        assert got == expect, f"stream {stream}: the identity follows from {NEXT_TO_FIRE_CLAUSE}"


def test_the_fresh_draws_check_sees_a_resumed_clock():
    # rabbits' eating clocks pause when the food runs out and resume when it returns
    model = build(*MODELS["rabbits"])
    with pytest.raises(AssertionError, match="resumed clocks"):
        for stream in range(10):
            run_trajectory(model, _FreshDrawsOnly(), 2024, EventCount(100), stream_index=stream)


class _NoModified(NextToFireSampler):
    """Next-to-fire that asserts, on every delta, that no entry is modified."""

    def __init__(self):
        super().__init__()
        self.deltas = 0

    def _apply(self, delta, now, stream):
        assert not delta.modified, f"modified clocks {delta.modified} at {now}"
        self.deltas += 1
        super()._apply(delta, now, stream)


NEXT_TO_FIRE_SPLIT_CLAUSE = (
    "next-to-fire draws once per modified then per newly enabled clock in ascending id; the children "
    "apply in construction order, low ids first, so with no modified clock they draw in the same order")


@pytest.mark.parametrize("name, params", [
    ("sir", {"n": 8, "recover": "weibull:2,1@1.5,0.5"}), ("sir", {"n": 12}), ("atomic-showcase", {}),
], ids=["sir-n8-weibull-atom", "sir-n12", "atomic-showcase"])
def test_next_to_fire_split_is_next_to_fire_without_modified_clocks(name, params):
    model = build(name, params)
    spec = f"hierarchical:next-to-fire={low_half(model)};next-to-fire=rest"
    for stream in range(10):
        recording = _NoModified()
        expect = outcome(run_trajectory(model, recording, 2024, EventCount(100), stream_index=stream))
        assert recording.deltas > 1, "the precondition was checked on no step"
        got = outcome(run_trajectory(model, spec, 2024, EventCount(100), stream_index=stream))
        assert got == expect, f"stream {stream}: the identity follows from {NEXT_TO_FIRE_SPLIT_CLAUSE}"


def test_the_no_modified_check_sees_a_modified_clock():
    # a ring site's hop rate is proportional to its tokens, so a hop into an occupied site modifies its clock
    model = build(*MODELS["ring"])
    with pytest.raises(AssertionError, match="modified clocks"):
        for stream in range(10):
            run_trajectory(model, _NoModified(), 2024, EventCount(100), stream_index=stream)


# -- the engine's check --------------------------------------------------------------

def test_the_engine_checks_the_partition_against_its_model():
    # ring m=4 has clocks 0-3: the direct child would sit idle and `rest` take every clock
    model = build("ring", {"m": 4})
    spec = "hierarchical:direct=10-20;next-reaction=rest"
    for run in (lambda: run_trajectory(model, spec, 1, EventCount(5)),
                lambda: run_ensemble(model, spec, 1, 2, EventCount(5))):
        with pytest.raises(ModelError) as raised:
            run()
        assert str(raised.value) == "the partition names clocks 10-20 that the model lacks"


# -- every partition the repository runs -------------------------------------------
# The engine checks a partition when a run starts; this checks, without running
# them, that no suite, test or benchmark partition misses its model.

def _perfbench_workloads():
    """perfbench/workloads.py, which imports no clocksim, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _run_partitions():
    """(where, model, partition spec) for each partition the suites, tests and benchmark run."""
    [suite_case] = _SUITES["sampler-equivalence"](SimpleNamespace(sampler_equivalence=lambda cases, **_: cases))
    cases = [("clocksim verify sampler-equivalence", suite_case[1], suite_case[3])]
    cases += [(f"criterion 1 {label}", model, spec) for label, model, _, spec in CRITERION_1_CASES]
    cases.append(("test_verify.SIR3", SIR3[1], SIR3[3]))
    workloads = _perfbench_workloads()
    for profile, table in workloads.PROFILES.items():
        for w in table.values():
            spec = next(c.sampler for c in w.cases if c.label == "hierarchical")
            cases.append((f"perfbench {profile} {w.name}", build(w.model, w.params), spec))
    return cases


def test_every_partition_the_repository_runs_fits_its_model():
    cases = _run_partitions()
    assert len(cases) == 12
    for where, model, spec in cases:
        try:
            make_sampler(spec).check_partition(model.by_id)
        except ModelError as exc:
            pytest.fail(f"{where}: {spec}: {exc}")
