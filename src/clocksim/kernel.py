"""The trajectory loop: compute the kernel, sample, apply, update caches.

A trajectory is a pure function of (model, sampler, seed): uniform variates
come from one counted PCG64 stream per trajectory, owned by that trajectory,
whose 128-bit state and odd stream increment are splitmix64-derived from
(seed, stream_index) (see :func:`derived_generator`).  Ensembles give
trajectory i stream index i, so results are independent of execution order
and worker count.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import graph as depgraph
from .clocks import (
    DISABLED,
    UNCHANGED,
    StateView,
    SystemState,
    _check_integer,
    _collector_paused,
    apply_mark_inplace,
    evaluate_enabling,
)
from .errors import ConfigError, DuplicateAtoms, ModelError, Stalled, UnknownClock
from .hazards import INF, _check_parameter
from .samplers import EnablingDelta, make_sampler


_BLOCK = 256  # variates drawn from the generator at a time


class CountingStream:
    """Uniform variate source that counts what it hands out.

    Values are drawn from the generator in blocks of _BLOCK, which yields
    the same sequence as one scalar `random()` per variate; `count` counts
    only the values handed out, not the ones drawn ahead.
    """

    __slots__ = ("_random", "_block", "count")

    def __init__(self, rng):
        self._random = rng.random
        self._block = None
        self.count = 0

    def uniform(self):
        i = self.count % _BLOCK
        if not i:
            self._block = self._random(_BLOCK).tolist()
        self.count += 1
        return self._block[i]


SEED_BOUND = 2**64  # seeds and stream indices are integers in [0, SEED_BOUND)
_MASK64 = SEED_BOUND - 1


def _mix64(x):
    # splitmix64 finalizer
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


class _ZeroSeed(np.random.bit_generator.ISeedSequence):
    """Zero seed words, for a bit generator whose state `derived_generator` sets at once.

    PCG64(0) would run a SeedSequence whose output is thrown away.
    """

    def generate_state(self, n_words, dtype=np.uint32):
        return np.zeros(n_words, dtype=dtype)


_ZERO_SEED = _ZeroSeed()


def derived_generator(seed, index):
    """The uniform stream for trajectory `index` under base `seed`.

    A PCG64 stream: state = mix(seed) || mix(seed, index), increment =
    (mix(seed, index, salt) || mix(...)+1) | 1.  Distinct odd increments are
    PCG64's designed multi-stream mechanism, so trajectories get independent
    streams from a pure function of (seed, index).  Every call returns a
    Generator over a bit generator of its own.
    """
    seed = _check_integer("seed", seed, 0, ConfigError, SEED_BOUND)
    index = _check_integer("stream index", index, 0, ConfigError, SEED_BOUND)
    s0 = _mix64(seed ^ 0x243F6A8885A308D3)
    s1 = _mix64(s0 ^ index)
    i0 = _mix64(seed + 0x452821E638D01377 + index * 0x9E3779B97F4A7C15)
    i1 = _mix64(i0 + 1)
    bg = np.random.PCG64(_ZERO_SEED)
    bg.state = {
        "bit_generator": "PCG64",
        "state": {"state": (s0 << 64) | s1, "inc": ((i0 << 64) | i1) | 1},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(bg)


STREAM_DERIVATION = "PCG64(state=splitmix64(seed,index), inc=splitmix64(seed,index,salt)|1)"


class EventRecord(NamedTuple):
    seq: int
    time: float
    clock: int


@dataclass(frozen=True)
class Trajectory:
    events: tuple
    final_time: float
    rng_seed: int
    stream_index: int
    sampler: str
    variates_consumed: int


@dataclass(frozen=True)
class EndTime:
    t: float

    def __post_init__(self):
        _check_parameter("end time", self.t, zero_ok=True, error=ModelError)


@dataclass(frozen=True)
class EventCount:
    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _check_integer("event count", self.n, 1))


@dataclass(frozen=True)
class StalledOnly:
    pass


class Engine:
    """Mutable per-trajectory state: counts, hazard cache, sampler, and the table
    of enabled clocks' future atom times, where a shared time raises DuplicateAtoms.

    Construction runs inside `clocks._collector_paused` (see there for
    why): the first touch of `model.graph` and `model.by_id`, the hazard
    cache, every enabling rule's first evaluation and the sampler's initial
    `absorb`.
    """

    def __init__(self, model, sampler, stream):
        with _collector_paused():
            self._readers, self._by_id = model.graph, model.by_id
            self.sampler = sampler
            self.stream = stream
            self.now = 0.0
            self._counts = dict(model.initial_state.counts)
            self._changed = {}
            self._view = StateView(self._counts, self._changed)
            self._cache = dict.fromkeys(self._by_id, DISABLED)
            self._atoms = {}
            delta = EnablingDelta()
            self._resolve(sorted(self._by_id), 0.0, delta)
            sampler.absorb(delta, 0.0, stream)

    def _drop_atoms(self, cid, prev):
        """Remove the atom table entries `cid` holds under its cached Enabled `prev`."""
        for a in prev.spec.atoms:
            at = prev.enabling_time + a.offset
            if self._atoms.get(at) == cid:
                del self._atoms[at]

    def _resolve(self, cids, t, delta):
        """Re-evaluate `cids` (ascending) at time t against the cache; record changes in delta."""
        cache, by_id, view = self._cache, self._by_id, self._view
        with_atoms = []
        for cid in cids:
            prev = cache[cid]
            out = evaluate_enabling(by_id[cid], view, t, prev)
            if out is UNCHANGED:
                continue
            if prev is not DISABLED and prev.spec.atoms:
                self._drop_atoms(cid, prev)
            cache[cid] = out
            if out is DISABLED:
                delta.newly_disabled.append(cid)
            else:
                entry = (cid, out.spec, out.enabling_time)
                (delta.newly_enabled if prev is DISABLED else delta.modified).append(entry)
                if out.spec.atoms:
                    with_atoms.append(entry)
        # added after every changed clock dropped its old atoms: one may take a time another leaves
        atoms = self._atoms
        for cid, spec, te in with_atoms:
            for a in spec.atoms:
                at = te + a.offset
                if at > t:
                    other = atoms.setdefault(at, cid)
                    if other != cid:
                        raise DuplicateAtoms(f"clocks {other} and {cid} share atom time {at}")

    def step(self, limit=None):
        """Fire the next event; returns (clock, time), or None if censored.

        Raises Stalled when no clock can ever fire, and UnknownClock before
        any state changes for a proposed clock that is not enabled.  The
        hazard cache is inconsistent only inside this call (the invariant-
        breaking update between applying the mark and absorbing the delta).
        """
        ev = self.sampler.next_event(self.now, self.stream)
        t = ev.time
        if t == INF:
            raise Stalled("sampler proposed an infinite time")
        if limit is not None and t > limit:
            return None
        if t <= self.now:
            # strictly increasing stopping times; ties are fp artifacts
            t = math.nextafter(self.now, INF)
        fired = ev.clock
        prev = self._cache.get(fired, DISABLED)
        if prev is DISABLED:
            raise UnknownClock(fired)
        clock = self._by_id[fired]
        apply_mark_inplace(self._counts, clock.mark)
        for key in clock.mark.deltas:
            self._changed[key] = t
        # the jump consumed the fired clock's draw: re-enabling is regenerative
        self._drop_atoms(fired, prev)
        self._cache[fired] = DISABLED
        delta = EnablingDelta(fired=fired)
        self._resolve(sorted(depgraph.affected(self._readers, clock)), t, delta)
        self.sampler.absorb(delta, t, self.stream)
        self.now = t
        return (fired, t)

    def cache_consistent(self) -> bool:
        """Debug sweep: every cached outcome matches a fresh evaluation."""
        for cid, clock in self._by_id.items():
            out = evaluate_enabling(clock, self._view, self.now, self._cache[cid])
            if out is not UNCHANGED:
                return False
        return True


def run_trajectory(model, sampler, seed, stop, stream_index=0) -> Trajectory:
    """One realization; deterministic given (model, sampler, seed, index).

    `sampler` is a name for :func:`clocksim.samplers.make_sampler` or an
    already-built sampler instance (exclusively owned by this call).
    """
    if not isinstance(stop, (EndTime, EventCount, StalledOnly)):
        # anything else would run until the model stalls, which some never do
        raise ModelError(f"stop must be an EndTime, EventCount or StalledOnly, got {stop!r}")
    sampler_obj = make_sampler(sampler) if isinstance(sampler, str) else sampler
    sampler_name = getattr(sampler_obj, "name", "custom")
    stream = CountingStream(derived_generator(seed, stream_index))
    engine = Engine(model, sampler_obj, stream)
    limit = stop.t if isinstance(stop, EndTime) else None
    max_events = stop.n if isinstance(stop, EventCount) else None
    events = []
    while max_events is None or len(events) < max_events:
        try:
            res = engine.step(limit)
        except Stalled:
            break
        if res is None:
            break
        fired, t = res
        events.append(EventRecord(seq=len(events), time=t, clock=fired))
    # a run under an end time ends there, stalled or censored
    final_time = limit if limit is not None else engine.now
    return Trajectory(
        events=tuple(events),
        final_time=final_time,
        rng_seed=seed,
        stream_index=stream_index,
        sampler=sampler_name,
        variates_consumed=stream.count,
    )


def run_ensemble(model, sampler, base_seed, count, stop) -> list:
    """Independent trajectories; trajectory i uses stream (base_seed, i)."""
    count = _check_integer("count", count, 1)
    return [run_trajectory(model, sampler, base_seed, stop, stream_index=i) for i in range(count)]


def final_state(model, trajectory) -> SystemState:
    """The state after the trajectory's last event; `trajectory` is a Trajectory or a TrajectoryFile.

    The replay starts from `model.initial_state`, the copy `model_hash` covers.
    """
    counts = dict(model.initial_state.counts)
    for ev in trajectory.events:
        apply_mark_inplace(counts, model.by_id[ev.clock].mark)
    return SystemState(counts)


# -- serialization -------------------------------------------------------

def model_hash(model) -> str:
    """Stable hash of (name, params, initial state)."""
    doc = {
        "name": model.name,
        "params": model.params,
        "initial_state": model.initial_state.counts,
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _fmt(x: float) -> str:
    return "%.17g" % x


def model_header(model) -> dict:
    """{key: value} of the header lines that name a model: `write_trajectory` writes them, `summarize` checks them."""
    return {"model": model.name, "params": json.dumps(model.params, sort_keys=True), "model_hash": model_hash(model),
            "initial_state": json.dumps(model.initial_state.counts, sort_keys=True)}


def write_trajectory(fh, trajectory, model) -> None:
    """Tab-separated events with a #-header; times at 17 significant digits."""
    fh.write("# clocksim trajectory v1\n")
    for key, value in model_header(model).items():
        fh.write(f"# {key}: {value}\n")
    fh.write(f"# sampler: {trajectory.sampler}\n")
    fh.write(f"# seed: {trajectory.rng_seed}\n")
    fh.write(f"# stream: {trajectory.stream_index}\n")
    fh.write(f"# final_time: {_fmt(trajectory.final_time)}\n")
    fh.write(f"# events: {len(trajectory.events)}\n")
    fh.write(f"# variates: {trajectory.variates_consumed}\n")
    fh.write("# columns: seq\ttime\tclock\n")
    for ev in trajectory.events:
        fh.write(f"{ev.seq}\t{_fmt(ev.time)}\t{ev.clock}\n")


@dataclass(frozen=True)
class TrajectoryFile:
    header: dict
    events: tuple


def read_trajectory(fh) -> TrajectoryFile:
    """Parse a file `write_trajectory` wrote; ModelError, naming the line, for one that does not parse."""
    header = {}
    events = []
    try:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" in body:
                    key, _, value = body.partition(":")
                    header[key.strip()] = value.strip()
                    if key.strip() == "final_time":
                        float(value)  # ValueError, so a malformed line, unless a number
                continue
            seq, time, clock = line.split("\t")
            events.append(EventRecord(seq=int(seq), time=float(time), clock=int(clock)))
    except UnicodeDecodeError as exc:
        raise ModelError(f"not a text file: {exc}") from None
    except ValueError:
        raise ModelError(f"malformed line: {line!r}") from None
    times = [ev.time for ev in events]
    if not all(0.0 <= t < INF for t in times) or any(b <= a for a, b in zip(times, times[1:])):
        raise ModelError("event times must be finite, >= 0 and strictly increasing")
    # a run ends at or after its last event, so a replay to final_time passes every event
    if "final_time" in header and not max(times, default=0.0) <= float(header["final_time"]) < INF:
        raise ModelError(f"final_time {header['final_time']} is not finite or lies before the last event")
    if "events" in header:
        # a truncated or spliced file: the header's count or the seq column disagrees
        if header["events"] != str(len(events)):
            raise ModelError(f"header says {header['events']} events, found {len(events)} event lines")
        if any(ev.seq != i for i, ev in enumerate(events)):
            raise ModelError("event seq column does not run 0, 1, 2, ...")
    return TrajectoryFile(header=header, events=tuple(events))
