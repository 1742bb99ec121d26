"""Clock processes and the discrete system state they increment.

A clock is declared by its enabling rule, its jump mark, and the substates
it reads.  The enabling rule is a pure function of a :class:`StateView`
(current counts plus the time each substate last changed) and the current
time; it answers "can this clock fire, and with what hazard, measured from
when" by returning :data:`DISABLED` or an :class:`Enabled`.  The kernel
compares successive answers and collapses identical ones to
:data:`UNCHANGED`, so rules may be re-evaluated freely; a rule never returns
:data:`UNCHANGED` itself.  The comparison is cheapest when the answer's
HazardSpec is the very object returned last time, so a rule should return
outcomes built once (in the model's builder), or taken from a table bounded
by the state, such as one keyed by a count that cannot exceed a conserved
total; then no spec is built per event.  A rule anchored at a past change
can keep its last outcome and return it again while the anchor and spec are
unchanged (rabbits does), so that it builds no outcome per event either.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping

from .errors import ModelError, NegativeSubstate
from .hazards import INF, HazardSpec

ClockId = int
SubstateKey = str


def _check_integer(name, value, minimum=None, error=ModelError, below=None) -> int:
    """`value` as a plain int; `error` unless it has `__index__` (numpy integers
    do; bools are refused) and lies in [minimum, below), an end open when None.
    The one statement of the rule."""
    n = (value if type(value) is int else
         value.__index__() if hasattr(value, "__index__") and not isinstance(value, bool) else None)
    if n is None or minimum is not None and n < minimum or below is not None and n >= below:
        limits = "" if minimum is None else f" >= {minimum}" if below is None else f" in [{minimum}, {below})"
        raise error(f"{name} must be an integer{limits}, got {value!r}")
    return n


def _nonzero_integers(what, mapping, nonnegative=False) -> dict:
    """`mapping` without its zero entries; ModelError naming the key for a
    value the integer rule rejects (>= 0 when `nonnegative`).  The keys are
    kept, not copied, so builders can share one string per substate."""
    cleaned = {}
    for key, value in mapping.items():
        try:
            value = _check_integer(what, value, 0 if nonnegative else None)
        except ModelError as exc:
            # the key is named only here: formatting it per entry would slow every model build
            raise ModelError(f"substate {key!r}: {exc}") from None
        if value:
            cleaned[key] = value
    return cleaned


@dataclass(frozen=True, slots=True)
class SystemState:
    """Sparse non-negative integer counts over substate keys; zero entries are absent."""

    counts: Mapping[SubstateKey, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "counts", _nonzero_integers("count", self.counts, nonnegative=True))


@dataclass(frozen=True, slots=True)
class JumpMark:
    """Sparse integer increment applied to the state when a clock fires."""

    deltas: Mapping[SubstateKey, int]

    def __post_init__(self):
        object.__setattr__(self, "deltas", _nonzero_integers("jump mark delta", self.deltas))


class _Outcome(Enum):
    """Enabling outcomes other than Enabled: the clock cannot fire
    (DISABLED), or its hazard and enabling time are identical to the last
    query (UNCHANGED)."""

    DISABLED = "Disabled"
    UNCHANGED = "UnchangedSinceLastQuery"

    def __repr__(self):
        return self.value


DISABLED = _Outcome.DISABLED
UNCHANGED = _Outcome.UNCHANGED


@dataclass(frozen=True, slots=True)
class Enabled:
    """The clock can fire with the given hazard, measured from enabling_time.

    enabling_time=None anchors the hazard at the moment the clock (re)became
    enabled; the kernel resolves it to the previous anchor while the clock
    stays enabled, or to the current time on a fresh enable.  Models that
    anchor at a past jump (rabbits: the last meal) return an explicit time.
    """

    spec: HazardSpec
    enabling_time: float | None = None


class StateView:
    """Read access to the current counts and per-substate last-change times.

    changed_at(key) is the most recent stopping time at which the count of
    `key` changed (0.0 if never) -- the T_k of intensities of the restricted
    form lambda(t, X(T_k), T_k).
    """

    __slots__ = ("_counts", "_changed")

    def __init__(self, counts: Mapping[SubstateKey, int], changed: Mapping[SubstateKey, float]):
        self._counts = counts
        self._changed = changed

    def count(self, key: SubstateKey) -> int:
        return self._counts.get(key, 0)

    def changed_at(self, key: SubstateKey) -> float:
        return self._changed.get(key, 0.0)


@dataclass(frozen=True)
class ClockSpec:
    """One clock process: enabling rule, jump mark, and declared reads.

    The enabling callable returns DISABLED or an Enabled; it must depend
    only on substates in `reads` (a collection of keys; a bare string is
    rejected) and be deterministic given (view, time).
    It should return outcomes built once, or taken from a table bounded by
    the state, rather than build a HazardSpec per call.
    """

    id: ClockId
    enabling: Callable[[StateView, float], object]
    mark: JumpMark
    reads: frozenset
    name: str = ""

    def __post_init__(self):
        reads = self.reads
        if type(reads) is not frozenset:
            if isinstance(reads, str):
                raise ModelError(f"clock {self.id}: reads must be a collection of substate keys, got {reads!r}")
            object.__setattr__(self, "reads", frozenset(reads))


@contextmanager
def _collector_paused():
    """Pause Python's cyclic collector while building long-lived tables.

    A model build and an engine init allocate many containers that live as
    long as the model or trajectory and form no reference cycles, so the
    collector passes their allocation count would start find no garbage.
    CPython keeps counting allocations while the collector is off, so
    re-enabling it alone would leave one young-generation collection over
    everything made inside the pause to the next tracked allocation.  On a
    normal exit the pause therefore calls `gc.freeze()` then
    `gc.unfreeze()`: together they move every tracked object into the
    oldest generation and zero the young count, in constant time.  The
    objects stay collectable (a full collection sees them; a bare
    `gc.freeze()` would hide them from every collection for good).

    Two exits only re-enable the collector: an exception, so a failed
    build's cycles stay young and are reclaimed soon; and a caller that
    holds frozen objects of its own (`gc.get_freeze_count() > 0`), which
    `gc.unfreeze()` would release.  A pause entered with the collector off,
    a nested one included, promotes nothing.  The previous `gc.isenabled()`
    is put back on every exit; a collector the caller switched off stays
    off.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
        if was_enabled and not gc.get_freeze_count():
            gc.freeze()
            gc.unfreeze()
    finally:
        if was_enabled:
            gc.enable()


def apply_mark_inplace(counts: dict, mark: JumpMark) -> None:
    """Componentwise sum into `counts`; zero results removed; negative results rejected.

    A rejected mark leaves `counts` as it was: the keys already written are
    undone before NegativeSubstate is raised.
    """
    deltas = mark.deltas
    for key, delta in deltas.items():
        new = counts.get(key, 0) + delta
        if new < 0:
            for done, back in deltas.items():
                if done == key:
                    break
                old = counts.get(done, 0) - back
                if old == 0:
                    counts.pop(done, None)
                else:
                    counts[done] = old
            raise NegativeSubstate(key, new)
        if new == 0:
            counts.pop(key, None)
        else:
            counts[key] = new


def _check_anchor(cid, te, now):
    """ModelError unless -inf < te <= now (NaN fails): every sampler needs a finite anchor at or before now."""
    if not -INF < te <= now:
        raise ModelError(f"clock {cid}: enabling time {te} is not finite, or is in the future (now={now})")


# The last Enabled that evaluate_enabling resolved from an enabling_time of
# None.  Consecutive resolutions with the same spec object and enabling time
# share it, so a bulk enable (engine init, one SIR infection) makes one
# outcome, not one per clock.  One immutable entry: bounded, safe to read
# from any thread, and it holds a spec, never a clock.
_last_resolved = None


def evaluate_enabling(clock: ClockSpec, view: StateView, now: float, previously) -> object:
    """Resolve the clock's enabling against its previous outcome.

    Returns DISABLED, Enabled (with a concrete enabling time), or UNCHANGED
    when the functional form and enabling time are identical to `previously`.
    `previously` is DISABLED for a clock never queried (or just fired, whose
    draw was consumed: re-enabling is regenerative).  Raises ModelError if
    the rule itself returns UNCHANGED or anything else that is neither
    DISABLED nor an Enabled (None, say).  Consecutive resolutions of one spec
    object at one enabling time return one shared Enabled.
    """
    raw = clock.enabling(view, now)
    if raw is UNCHANGED:
        raise ModelError(f"clock {clock.id}: enabling rule returned UNCHANGED, not DISABLED or an Enabled")
    if raw is DISABLED:
        return UNCHANGED if previously is DISABLED else DISABLED
    was_enabled = isinstance(previously, Enabled)
    try:
        te = raw.enabling_time
    except AttributeError:
        raise ModelError(f"clock {clock.id}: enabling rule returned {raw!r}, not DISABLED or an Enabled") from None
    if te is None:
        te = previously.enabling_time if was_enabled else now
    _check_anchor(clock.id, te, now)
    if (
        was_enabled
        and previously.enabling_time == te
        and (previously.spec is raw.spec or previously.spec == raw.spec)
    ):
        return UNCHANGED
    # an outcome with a concrete enabling time is already resolved: no copy
    if raw.enabling_time is not None:
        return raw
    global _last_resolved
    last = _last_resolved
    # the same equality that makes an outcome UNCHANGED above
    if last is None or last.spec is not raw.spec or last.enabling_time != te:
        last = _last_resolved = Enabled(raw.spec, te)
    return last
