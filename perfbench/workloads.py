"""Workloads and metric tables of the clocksim benchmark.

Every workload is a closed loop driven by one caller in one process on one
core: the next `Engine.step()` (or the next trajectory) starts only when
the previous one has returned.  Nothing here imports clocksim, so the
orchestrator can fail fast in a directory that does not hold the program.
"""

from __future__ import annotations

from dataclasses import dataclass

# The stored digests in digests.json are the trajectories of this seed.
RECORDED_SEED = 1

SAMPLER_LABELS = ("first-reaction", "next-reaction", "next-to-fire", "direct", "hierarchical")


@dataclass(frozen=True)
class Case:
    label: str          # metric suffix, one of SAMPLER_LABELS
    sampler: str        # name for clocksim.samplers.make_sampler
    block: int | None   # events per timed block; None: a whole trajectory
    trace_events: int | None  # events stepped in the traced run; None: until stalled


@dataclass(frozen=True)
class Cli:
    trajectories: int         # timed `clocksim run` ensemble at the run seed
    digest_trajectories: int  # ensemble at RECORDED_SEED checked against digests.json
    trace_trajectories: int   # ensemble in the traced run


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    params: dict
    cases: tuple
    prefix_events: int | None  # events per setup repeat; None: until stalled
    setup_reps: int
    stalls: bool               # trajectories end by Stalled (StalledOnly stop)
    setup_case: str | None = None  # setup_s from this case alone, else summed over cases
    cli: Cli | None = None

    def cli_args(self, seed, trajectories, output):
        """`clocksim run` arguments for this workload's ensemble."""
        args = ["run", "--model", self.model]
        for key, value in self.params.items():
            args += ["--param", f"{key}={value}"]
        # the ensemble runs the sampler of the case setup_s measures
        sampler = next(c.sampler for c in self.cases if c.label == self.setup_case)
        return args + [
            "--sampler", sampler, "--seed", str(seed), "--trajectories", str(trajectories),
            "--workers", "1", "--output", output,
        ]


def _cases(hierarchical, block, trace_events, first_reaction=None):
    """The five sampler cases; `first_reaction` overrides (block, trace_events)."""
    cases = []
    for label in SAMPLER_LABELS:
        sampler = hierarchical if label == "hierarchical" else label
        if label == "first-reaction" and first_reaction:
            cases.append(Case(label, sampler, *first_reaction))
        else:
            cases.append(Case(label, sampler, block, trace_events))
    return tuple(cases)


def _ring(m, reps, prefix, fr_trace, trace):
    return Workload(
        name="ring-large",
        model="ring",
        params={"m": m, "tokens": 1},
        # first-reaction redraws all m clocks per event (tens of ms at
        # m=16384), so its blocks are single events
        cases=_cases(f"hierarchical:direct=0-{m // 2 - 1};next-reaction=rest", 64, trace,
                     first_reaction=(1, fr_trace)),
        prefix_events=prefix,
        setup_reps=reps,
        stalls=False,
    )


def _rabbits(m, reps, prefix, trace):
    return Workload(
        name="rabbits",
        model="rabbits",
        params={"m": m, "food_rate": 10, "portions": "1;2", "shape": 2},
        cases=_cases("hierarchical:direct=0;next-reaction=rest", 16, trace),
        prefix_events=prefix,
        setup_reps=reps,
        stalls=False,
    )


def _sir(n, reps, cli):
    # clocks 0 .. n(n-1)-1 are infections, the last n are recoveries
    first_recovery = n * (n - 1)
    hierarchical = f"hierarchical:direct={first_recovery}-{first_recovery + n - 1};next-reaction=rest"
    return Workload(
        name="sir-ensemble",
        model="sir",
        params={"n": n, "recover": "weibull:2,1@1.5,0.5"},
        # A block is a whole epidemic: per-event cost swings tenfold
        # between its phases, so fixed-size blocks would mix them unevenly.
        cases=_cases(hierarchical, None, None),
        prefix_events=None,
        setup_reps=reps,
        stalls=True,
        setup_case="hierarchical",
        cli=cli,
    )


PROFILES = {
    "full": {
        w.name: w
        for w in (
            _ring(16384, reps=5, prefix=10, fr_trace=3, trace=1000),
            _rabbits(20, reps=15, prefix=100, trace=2000),
            _sir(60, reps=5, cli=Cli(trajectories=60, digest_trajectories=2, trace_trajectories=20)),
        )
    },
    # reduced sizes for the harness's own smoke test
    "smoke": {
        w.name: w
        for w in (
            _ring(256, reps=2, prefix=10, fr_trace=5, trace=100),
            _rabbits(4, reps=2, prefix=50, trace=100),
            _sir(8, reps=2, cli=Cli(trajectories=3, digest_trajectories=2, trace_trajectories=2)),
        )
    },
}

WORKLOADS = tuple(PROFILES["full"])


# -- metric tables: name -> (unit, better) --------------------------------

END_TO_END = {
    "setup_s": ("s", "lower"),
    **{f"us_per_event.{s}": ("us/event", "lower") for s in SAMPLER_LABELS},
    "traj_per_s": ("traj/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

# Per-event layer metrics, reported once per sampler case as `<name>.<label>`.
PER_CASE = {
    "structs.queue_ops_per_event": ("count/event", "lower"),
    "structs.queue_us": ("us/event", "lower"),
    "structs.tree_ops_per_event": ("count/event", "lower"),
    "structs.tree_us": ("us/event", "lower"),
    "kernel.variates_per_event": ("count/event", "lower"),
    "kernel.stream_us": ("us/event", "lower"),
    "hazards.invert_calls_per_event": ("count/event", "lower"),
    "hazards.time_process_calls_per_event": ("count/event", "lower"),
    "hazards.cumhaz_calls_per_event": ("count/event", "lower"),
    "hazards.self_us": ("us/event", "lower"),
    "clocks.enabling_evals_per_event": ("count/event", "lower"),
    "clocks.enabling_change_ratio": ("ratio", "higher"),
    "clocks.enabling_us": ("us/event", "lower"),
    "models.rule_us": ("us/event", "lower"),
    "graph.affected_size": ("count", "lower"),
    "graph.affected_us": ("us/event", "lower"),
    "samplers.next_event_self_us": ("us/event", "lower"),
    "samplers.absorb_self_us": ("us/event", "lower"),
    "samplers.delta_entries_per_event": ("count/event", "lower"),
    "kernel.step_self_us": ("us/event", "lower"),
    "kernel.tie_nudges": ("count", "lower"),
}

PER_WORKLOAD = {
    "models.build_ms": ("ms", "lower"),
    "graph.build_ms": ("ms", "lower"),
    "kernel.engine_init_ms": ("ms", "lower"),
    "kernel.write_ms_per_traj": ("ms/traj", "lower"),
    "cli.self_ms_per_traj": ("ms/traj", "lower"),
    "gc.gen2_collections": ("count", "lower"),
    "gc.pause_ms": ("ms", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

PER_LAYER = {
    **{f"{name}.{s}": spec for name, spec in PER_CASE.items() for s in SAMPLER_LABELS},
    **PER_WORKLOAD,
}


_DETERMINISTIC = {"kernel.tie_nudges", "graph.affected_size", "clocks.enabling_change_ratio",
                  "gc.gen2_collections"}


def is_deterministic(name):
    """Per-layer metrics that two traced runs at one seed must reproduce exactly."""
    for label in SAMPLER_LABELS:
        if name.endswith("." + label):
            name = name[: -len(label) - 1]
    return name.endswith("_per_event") or name in _DETERMINISTIC
