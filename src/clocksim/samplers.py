"""Exact sampling strategies over enabled clocks.

Every sampler implements the same contract:

    next_event(now, stream) -> SamplerEvent      (raises Stalled)
    absorb(delta, now, stream)                   an EnablingDelta

and is exclusively owned by one trajectory.  The initial enabled set arrives
as the first delta (newly_enabled only, fired None); after that, one delta
follows each jump.  Every sampler, hierarchical included, absorbs through
the one base `absorb`: it checks the whole delta once against its
`_enabled` dict (`_check_delta`) before any state changes, so a rejected
delta changes nothing, then `_apply`s it.  `stream.uniform()` yields the
trajectory's uniform variates; each sampler consumes a documented number
per call, the initial delta included, so runs are reproducible:

  first-reaction  next_event: one variate per enabled clock, ascending id.
  next-reaction   absorb: one variate per fresh draw (never-seen or just-
                  fired clocks in newly_enabled, ascending id); resumed and
                  modified clocks consume none.  next_event: none.
  next-to-fire    absorb: one variate per modified clock then per newly
                  enabled clock, each ascending id.  next_event: none.
  direct          next_event: exactly two variates (waiting time, then the
                  clock draw; the second is consumed even on an atom hit),
                  or none when no clock is enabled: it raises Stalled first.
  hierarchical    children queried in construction order; a child provides
                  only next_event and _apply, and keeps its own discipline
                  (losing first-reaction/direct children re-propose next
                  step and draw again).

Anchors satisfy -inf < te <= now and now never decreases, so every elapsed
duration x - te (x >= now) is >= 0 unclamped.  The per-clock samplers
(first-reaction, next-to-fire, next-reaction on re-inversion) draw inline as

    te + invert_conditional(spec, now - te, log1p(-u))

with next-reaction passing minus its remaining budget for log1p(-u).
`stream.uniform` and `invert_conditional` are looked up once per call, so a
wrapper installed on either name still sees every draw.

Ties between equal finite putative times break toward the smallest clock id.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import NamedTuple

from .clocks import _check_anchor
from .errors import ModelError, Stalled, UnknownClock
from .hazards import INF, Exponential, invert_conditional, time_process
from .hazards import _INVERT_MAXITER, _INVERT_RTOL
from .structs import PrefixSumTree, PutativeQueue


def _div(x, y):
    """x / y as C computes it: a zero divisor gives an infinity or NaN, not ZeroDivisionError."""
    if y:
        return x / y
    if x != x or x == 0.0:
        return math.nan
    return math.copysign(INF, x) * math.copysign(1.0, y)


def _brentq(f, xa, fa, xb, fb, xtol, rtol, maxiter):
    """Root of f in [xa, xb] by Brent's method, as scipy.optimize.brentq finds
    it; fa and fb are f(xa) and f(xb), which the caller already holds.

    A transcription of scipy's brentq.c (BSD-3-Clause, by Charles Harris):
    the same steps and the same floating-point operations in the same
    order, so the same root to the bit, and the same errors (ValueError for
    a NaN value or a bracket without a sign change, RuntimeError after
    `maxiter` steps).  Importing scipy.optimize would cost a direct run
    half a second and about 60 MB.
    """

    def value(x, fx):
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = xa, xb
    fpre = value(xa, fa)
    fcur = value(xb, fb)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = _div(-fcur * (xcur - xpre), fcur - fpre)
            else:
                # extrapolate
                dpre = _div(fpre - fcur, xpre - xcur)
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            limit = abs(spre) if abs(spre) < 3 * abs(sbis) - delta else 3 * abs(sbis) - delta
            if 2 * abs(stry) < limit:
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur, f(xcur))
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur!r}")


class SamplerEvent(NamedTuple):
    clock: int
    time: float


class EnablingDelta:
    """Enabling changes at one stopping time, as seen by a sampler.

    Each list is in ascending clock id order.  The fired clock's old draw
    is consumed by the jump; it is listed only in newly_enabled (fresh
    draw), and only when it is enabled in the post-jump state.  fired is
    None for the initial enabled set and for children of a hierarchical
    sampler that do not own the jump.
    """

    __slots__ = ("fired", "newly_enabled", "newly_disabled", "modified")

    def __init__(self, fired=None, newly_enabled=None, newly_disabled=None, modified=None):
        self.fired = fired
        self.newly_enabled = [] if newly_enabled is None else newly_enabled  # (cid, spec, te)
        self.newly_disabled = [] if newly_disabled is None else newly_disabled  # cid
        self.modified = [] if modified is None else modified  # (cid, spec, te)


def _check_delta(delta, enabled, now):
    """Raise unless `delta` applies at `now` to the ids in `enabled`, which is only asked `cid in enabled`.

    Each clock is listed at most once, except that a fired or newly disabled
    clock may also be newly enabled; only enabled clocks fire, are disabled
    or are modified, and only the others are newly enabled (UnknownClock).
    Modified and newly enabled anchors pass `clocks._check_anchor` (ModelError).
    """
    fired = delta.fired
    freed = {}  # id listed so far -> whether this delta frees it to be enabled
    for cid in delta.newly_disabled if fired is None else (fired, *delta.newly_disabled):
        if cid in freed or cid not in enabled:
            raise UnknownClock(cid)
        freed[cid] = True
    for cid, _, te in delta.modified:
        if cid in freed or cid not in enabled:
            raise UnknownClock(cid)
        _check_anchor(cid, te, now)
        freed[cid] = False
    for cid, _, te in delta.newly_enabled:
        if not freed.get(cid, cid not in enabled):
            raise UnknownClock(cid)
        _check_anchor(cid, te, now)
        freed[cid] = False


class _Sampler:
    """Base sampler: `absorb` checks a delta against the ids in `_enabled`, then `_apply`s it."""

    def absorb(self, delta, now, stream):
        _check_delta(delta, self._enabled, now)
        self._apply(delta, now, stream)


class FirstReactionSampler(_Sampler):
    """Redraw every enabled clock each step and take the minimum."""

    name = "first-reaction"

    def __init__(self):
        self._enabled = {}  # cid -> the delta's (cid, spec, te) entry

    def next_event(self, now, stream):
        enabled = self._enabled
        uniform = stream.uniform
        invert = invert_conditional
        log1p = math.log1p
        best_t = INF
        best_cid = None
        for cid in sorted(enabled):
            _, spec, te = enabled[cid]
            t = te + invert(spec, now - te, log1p(-uniform()))
            if t < best_t:
                best_t = t
                best_cid = cid
        if best_t == INF:
            raise Stalled("all putative times are infinite")
        return SamplerEvent(best_cid, best_t)

    def _apply(self, delta, now, stream):
        enabled = self._enabled
        if delta.fired is not None:
            del enabled[delta.fired]
        for cid in delta.newly_disabled:
            del enabled[cid]
        for entry in delta.modified:
            enabled[entry[0]] = entry
        for entry in delta.newly_enabled:
            enabled[entry[0]] = entry


class _LedgerEntry:
    __slots__ = ("drawn", "consumed", "spec", "te", "seg_start")

    def __init__(self, drawn, spec, te, seg_start):
        self.drawn = drawn          # drawn log-survival, <= 0
        self.consumed = 0.0         # hazard consumed so far, >= 0
        self.spec = spec
        self.te = te
        self.seg_start = seg_start  # absolute time this spec segment began


class _QueueSampler(_Sampler):
    """The putative-time queue is the enabled set (`_enabled` is its cid -> time dict)."""

    def __init__(self):
        self._queue = PutativeQueue()
        self._enabled = self._queue.times

    def next_event(self, now, stream):
        top = self._queue.peek()
        if top is None or top[1] == INF:
            raise Stalled("all putative times are infinite")
        return SamplerEvent(top[0], top[1])


class NextReactionSampler(_QueueSampler):
    """Keep one drawn log-survival per clock and consume it additively.

    A clock's budget survives disabling (frozen, resumed on re-enable) and
    spec changes (consumption accrues under the old spec, then the remaining
    budget is re-inverted under the new one).  Only the jumping clock's draw
    is removed and resampled.  `_entries` keeps the budgets of queued
    clocks and the frozen budgets of disabled ones.
    """

    name = "next-reaction"

    def __init__(self):
        super().__init__()
        self._entries = {}

    @staticmethod
    def _reinvert(e, now):
        """Start a spec segment at now and return the remaining budget's putative time."""
        remaining = -e.drawn - e.consumed
        if remaining < 0.0:
            remaining = 0.0
        e.seg_start = now
        te = e.te
        return te + invert_conditional(e.spec, now - te, -remaining)

    def _accrue(self, e, now):
        te = e.te
        e.consumed += time_process(e.spec, e.seg_start - te, now - te)

    def _apply(self, delta, now, stream):
        entries, queue = self._entries, self._queue
        fired = delta.fired
        if fired is not None:
            del entries[fired]
            queue.delete(fired)
        for cid in delta.newly_disabled:
            self._accrue(entries[cid], now)
            queue.delete(cid)
        for cid, spec, te in delta.modified:
            e = entries[cid]
            self._accrue(e, now)
            e.spec = spec
            e.te = te
            queue.update(cid, self._reinvert(e, now))
        for cid, spec, te in delta.newly_enabled:
            e = entries.get(cid)
            if e is None:
                e = entries[cid] = _LedgerEntry(math.log1p(-stream.uniform()), spec, te, now)
            else:
                # resume the frozen budget under the (possibly new) spec
                e.spec = spec
                e.te = te
            queue.insert(cid, self._reinvert(e, now))


class NextToFireSampler(_QueueSampler):
    """Keep putative times; redraw affected clocks with fresh variates."""

    name = "next-to-fire"

    def _apply(self, delta, now, stream):
        queue = self._queue
        if delta.fired is not None:
            queue.delete(delta.fired)
        for cid in delta.newly_disabled:
            queue.delete(cid)
        uniform = stream.uniform
        invert = invert_conditional
        log1p = math.log1p
        for cid, spec, te in delta.modified:
            queue.update(cid, te + invert(spec, now - te, log1p(-uniform())))
        for cid, spec, te in delta.newly_enabled:
            queue.insert(cid, te + invert(spec, now - te, log1p(-uniform())))


class DirectSampler(_Sampler):
    """Sample the waiting-time factorization: when, then which clock.

    The total survival over all enabled clocks is inverted for the next
    event time, with atoms as exact breakpoints.  The inversion is closed
    form when every continuous part is constant-rate; otherwise a segment's
    upper bracket is an atom time, a support end, or found by doubling, and
    `_crossing` solves inside it.  If the budget runs out at an atom, the
    owning clock jumps; otherwise a discrete draw over the continuous
    hazards at the sampled time picks the clock via find-by-prefix on the
    hazard tree.  The tree holds only finite weights: a time-varying clock's
    leaf is refreshed at the sampled time before every find.
    """

    name = "direct"

    def __init__(self):
        self._enabled = {}         # cid -> the delta's (cid, spec, te) entry
        self._tree = PrefixSumTree()
        self._slot = {}
        self._owner = {}
        self._free = []
        self._varying = set()      # enabled cids with time-varying continuous hazard
        self._atoms = {}           # cid -> [(absolute atom time, mass, cid)] of an enabled clock with atoms
        self._crate = 0.0          # sum of enabled constant (exponential) rates
        self._crate_ops = 0

    # -- bookkeeping ---------------------------------------------------

    def _bump_crate(self, delta):
        self._crate += delta
        self._crate_ops += 1
        if self._crate_ops >= 4096:
            # rebuild the running sum to bound float drift
            total = 0.0
            for other in self._enabled:
                if other not in self._varying:
                    cont = self._enabled[other][1].continuous
                    if cont is not None:
                        total += cont.rate
            self._crate = total
            self._crate_ops = 0

    def _add(self, entry, now):
        cid, spec, te = entry
        self._enabled[cid] = entry
        # no free slot means slots 0..len-1 are all occupied
        slot = self._free.pop() if self._free else len(self._owner)
        self._slot[cid] = slot
        self._owner[slot] = cid
        cont = spec.continuous
        if cont is not None and not isinstance(cont, Exponential):
            self._varying.add(cid)
        elif cont is not None:
            self._bump_crate(cont.rate)
        # an infinite start (Weibull or gamma shape < 1) waits for the refresh in next_event
        h = spec.continuous_hazard(now - te)
        self._tree.set(slot, h if h < INF else 0.0)
        if spec.atoms:
            self._atoms[cid] = [(te + a.offset, a.mass, cid) for a in spec.atoms]

    def _remove(self, cid):
        spec = self._enabled.pop(cid)[1]
        slot = self._slot.pop(cid)
        del self._owner[slot]
        self._tree.set(slot, 0.0)
        self._free.append(slot)
        if cid in self._varying:
            self._varying.discard(cid)
        elif spec.continuous is not None:
            self._bump_crate(-spec.continuous.rate)
        self._atoms.pop(cid, None)

    def _apply(self, delta, now, stream):
        if delta.fired is not None:
            self._remove(delta.fired)
        for cid in delta.newly_disabled:
            self._remove(cid)
        for entry in delta.modified:
            self._remove(entry[0])
            self._add(entry, now)
        for entry in delta.newly_enabled:
            self._add(entry, now)

    # -- waiting-time inversion ------------------------------------------

    @staticmethod
    def _bases(varying, s_prev):
        """Each varying clock's cumulative hazard at s_prev, in `varying` order."""
        return [spec.cumulative_hazard(s_prev - te) for _, spec, te in varying]

    @staticmethod
    def _g(varying, bases, crate, s_prev, t):
        """Total continuous consumption over (s_prev, t]; finite at t = inf when the mass is."""
        g = crate * (t - s_prev) if crate else 0.0
        i = 0
        for _, spec, te in varying:
            c = spec.cumulative_hazard(t - te)
            if c == INF:
                return INF
            g += c - bases[i]
            i += 1
        return g

    def _crossing(self, varying, bases, crate, s_prev, hi, g_hi, budget):
        """t in (s_prev, hi] where consumption hits budget; g_hi is the consumption at hi.

        Bisection until the upper bracket value is finite (it may start at a
        survival asymptote), then Brent's method to relative 1e-12 in time.
        Brent is handed both bracket values, which are already known (at
        s_prev nothing is consumed, so f is -budget there), so every
        consumption sum is evaluated at most once per time point; a zero
        budget returns lo at Brent's own f(lo) == 0 test.
        """
        g = self._g
        lo = s_prev
        f_lo = -budget
        f_hi = g_hi - budget
        for _ in range(_INVERT_MAXITER):
            if f_hi < INF:
                break
            mid = 0.5 * (lo + hi)
            f_mid = g(varying, bases, crate, s_prev, mid) - budget
            if f_mid >= 0.0:
                hi = mid
                f_hi = f_mid
            else:
                lo = mid
                f_lo = f_mid
        if hi - lo <= _INVERT_RTOL * max(abs(hi), 1e-300):
            return hi
        return float(_brentq(lambda t: g(varying, bases, crate, s_prev, t) - budget,
                             lo, f_lo, hi, f_hi, 1e-15, _INVERT_RTOL, _INVERT_MAXITER))

    def _invert_waiting(self, now, budget):
        """(absolute event time, atom owner cid | None); raises Stalled.

        The time is INF when no finite time consumes the budget (the hazard
        mass runs out, or the crossing lies past the float range).
        """
        upcoming = sorted(entry for entries in self._atoms.values() for entry in entries if entry[0] > now)
        varying = [self._enabled[cid] for cid in self._varying]
        crate = self._crate if varying else self._tree.total()
        s_prev = now
        for at_time, mass, at_cid in upcoming:
            if not varying:
                seg = crate * (at_time - s_prev)
                if crate > 0.0 and budget <= seg:
                    return s_prev + budget / crate, None
            else:
                bases = self._bases(varying, s_prev)
                seg = self._g(varying, bases, crate, s_prev, at_time)
                if budget <= seg:
                    return self._crossing(varying, bases, crate, s_prev, at_time, seg, budget), None
            budget -= seg
            drop = INF if mass >= 1.0 else -math.log1p(-mass)
            if budget <= drop:
                return at_time, at_cid
            budget -= drop
            s_prev = at_time
        # last, unbounded segment
        if not varying:
            if crate <= 0.0:
                raise Stalled("no hazard remains")
            return s_prev + budget / crate, None
        bases = self._bases(varying, s_prev)
        asym = INF
        for _, spec, te in varying:
            end = spec.support_end()
            if end < INF and s_prev < te + end < asym:
                asym = te + end
        if asym < INF:
            g_asym = self._g(varying, bases, crate, s_prev, asym)
            return self._crossing(varying, bases, crate, s_prev, asym, g_asym, budget), None
        # double the bracket until it holds the budget; past the float range, propose INF
        hi = s_prev + max(1.0, abs(s_prev) * 1e-6)
        g_hi = self._g(varying, bases, crate, s_prev, hi)
        # the whole remaining mass is short of the budget: no bracket holds it.  A negative
        # `crate` residue only lowers every finite g_hi, so it is left out of this bound
        if g_hi < budget and self._g(varying, bases, max(crate, 0.0), s_prev, INF) < budget:
            return INF, None
        while g_hi < budget:
            hi = s_prev + 2.0 * (hi - s_prev)
            if hi == INF:
                return INF, None
            g_hi = self._g(varying, bases, crate, s_prev, hi)
        return self._crossing(varying, bases, crate, s_prev, hi, g_hi, budget), None

    def next_event(self, now, stream):
        if not self._enabled:
            raise Stalled("no enabled clocks")
        u1 = stream.uniform()
        u2 = stream.uniform()
        t, atom_cid = self._invert_waiting(now, -math.log1p(-u1))
        if atom_cid is not None:
            return SamplerEvent(atom_cid, t)
        if t == INF:
            raise Stalled("no finite waiting time")
        if self._varying:
            enabled, slot, tree = self._enabled, self._slot, self._tree
            surest = None  # smallest id whose hazard is infinite at t: it fires with certainty
            for cid in self._varying:
                _, spec, te = enabled[cid]
                h = spec.continuous_hazard(t - te)
                if h == INF:
                    if surest is None or cid < surest:
                        surest = cid
                    h = 0.0
                tree.set(slot[cid], h)
            if surest is not None:
                return SamplerEvent(surest, t)
        total = self._tree.total()
        if total > 0.0:
            slot = self._tree.find(u2 * total)
            if slot >= 0:
                return SamplerEvent(self._owner[slot], t)
        # Degenerate boundary (hazard vanished exactly at t): pick the
        # smallest-id clock with positive hazard just before t; just after t
        # when t is now (a zero budget), since nextafter(now, now) is now.
        probe = math.nextafter(t, INF) if t == now else math.nextafter(t, now)
        for cid in sorted(self._enabled):
            _, spec, te = self._enabled[cid]
            if spec.continuous_hazard(probe - te) > 0.0:
                return SamplerEvent(cid, t)
        raise Stalled("no hazard at sampled time")


def _ids_text(first, last):
    """'clock 5' or 'clocks 5-9': how an error names the ids first..last."""
    return f"clock {first}" if first == last else f"clocks {first}-{last}"


def _uncovered(first, last):
    """The error for clocks first..last, which no part of a partition owns."""
    return ModelError(f"{_ids_text(first, last)} not covered by the partition")


class HierarchicalSampler(_Sampler):
    """Partition the clocks over child samplers; the soonest proposal wins.

    parts: list of (base sampler, iterable of clock-id `range`s of step 1,
    or None).  Ranges of different parts must be disjoint, and at most one
    None entry (`rest`) catches every clock no range names.  The partition
    is kept as written, as a step function of the id: sorted range bounds
    and the child owning each piece between them, so its memory is
    O(ranges) however many ids they span, and an owner is one bisect.
    Children keep their own contracts for retained vs re-proposed draws.
    A child provides only `next_event(now, stream)` (raising Stalled rather
    than proposing INF) and `_apply(delta, now, stream)`, which applies a
    part without checking it.  `_enabled` maps each enabled clock to its
    child, so the base `absorb` checks a delta here and `_apply` looks up
    an owner only for a newly enabled clock.
    """

    name = "hierarchical"

    def __init__(self, parts):
        self._children = [s for s, _ in parts]
        self._enabled = {}  # enabled cid -> index of its child
        rest = None  # index of the catch-all child
        rows = []
        for i, (_, ranges) in enumerate(parts):
            if ranges is None:
                if rest is not None:
                    raise ModelError("at most one catch-all partition")
                rest = i
            else:
                rows.extend((r.start, r.stop, i) for r in ranges if r)
        # Piece k, the ids from _bounds[k - 1] up to _bounds[k], is child _owners[k]'s
        # (None: no child's).  The odd pieces are the ranges, the even ones what `rest` catches.
        bounds = self._bounds = []
        owners = self._owners = [rest]
        for start, stop, i in sorted(rows):
            # sorted by start, some two ranges overlap only if two neighbours do
            if bounds and start < bounds[-1]:
                if owners[-2] != i:
                    raise ModelError(f"{_ids_text(start, min(stop, bounds[-1]) - 1)} named by more than one part")
                bounds[-1] = max(stop, bounds[-1])
            else:
                bounds += (start, stop)
                owners += (i, rest)

    def _owner_index(self, cid):
        i = self._owners[bisect_right(self._bounds, cid)]
        if i is None:
            raise _uncovered(cid, cid)
        return i

    def check_ranges(self, ids):
        """Raise ModelError unless the ranges name only clocks in `ids` and cover each; returns whether `rest` owns one.

        The engine's check: a partition run on several models, such as a low
        part and `rest`, may leave `rest` nothing on a small one.  `ids` is
        sorted once and bisected twice per piece of the partition; an error
        names the first offending span of ids.
        """
        ids = sorted(ids)
        edges = [-INF, *self._bounds, INF]
        rest_owns = False
        for k, i in enumerate(self._owners):
            start, stop = edges[k], edges[k + 1]
            lo, hi = bisect_left(ids, start), bisect_left(ids, stop)
            if k % 2 and hi - lo < stop - start:
                # in a range, ids[j] - j stays start - lo up to the first id the model lacks
                j = lo + bisect_right(range(lo, hi), start - lo, key=lambda n: ids[n] - n)
                first = ids[j - 1] + 1 if j > lo else start
                last = ids[j] - 1 if j < hi else stop - 1
                raise ModelError(f"the partition names {_ids_text(first, last)} that the model lacks")
            if k % 2 == 0 and lo < hi:
                if i is None:
                    raise _uncovered(ids[lo], ids[hi - 1])
                rest_owns = True
        return rest_owns

    def check_partition(self, ids):
        """`check_ranges`, and ModelError if `rest` is left no clock: `clocksim run`'s check,
        since a partition written for one model uses its `rest`."""
        if not self.check_ranges(ids) and self._owners[0] is not None:
            span = _ids_text(min(ids), max(ids)) if ids else "clocks"
            raise ModelError(f"the catch-all part `rest` owns no clock: the other parts name all the model's {span}")

    def next_event(self, now, stream):
        best = None
        for child in self._children:
            try:
                ev = child.next_event(now, stream)
            except Stalled:
                continue
            if best is None or (ev.time, ev.clock) < (best.time, best.clock):
                best = ev
        if best is None:
            raise Stalled("all children stalled")
        return best

    def _apply(self, delta, now, stream):
        enabled = self._enabled
        # owners first: a clock outside every part raises before anything changes
        owners = [self._owner_index(entry[0]) for entry in delta.newly_enabled]
        subs = [EnablingDelta() for _ in self._children]
        if delta.fired is not None:
            subs[enabled.pop(delta.fired)].fired = delta.fired
        for cid in delta.newly_disabled:
            subs[enabled.pop(cid)].newly_disabled.append(cid)
        for entry in delta.modified:
            subs[enabled[entry[0]]].modified.append(entry)
        for entry, i in zip(delta.newly_enabled, owners):
            enabled[entry[0]] = i
            subs[i].newly_enabled.append(entry)
        # children apply in construction order, and only those the delta touches
        for child, sub in zip(self._children, subs):
            if sub.fired is not None or sub.newly_enabled or sub.newly_disabled or sub.modified:
                child._apply(sub, now, stream)


_BASE_SAMPLERS = {
    cls.name: cls for cls in (FirstReactionSampler, NextReactionSampler, NextToFireSampler, DirectSampler)
}

SAMPLER_NAMES = (*_BASE_SAMPLERS, HierarchicalSampler.name)


def _parse_id_set(text):
    """A part's ids as the `range`s written, or None for `rest`."""
    if text == "rest":
        return None
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo, sep, hi = part.partition("-")
        try:
            lo = int(lo)
            hi = int(hi) if sep else lo
        except ValueError:
            raise ModelError(f"bad clock id set {text!r}: {part!r} is not an id or a range") from None
        if hi < lo:
            raise ModelError(f"bad clock id set {text!r}: range {part!r} is reversed")
        out.append(range(lo, hi + 1))
    if not out:
        raise ModelError(f"bad clock id set {text!r}: no ids")
    return out


_HIER_FORM = "hierarchical:<child>=<ids>;..."


def make_sampler(name: str):
    """Build a sampler by name; the sampler's `name` is `name`.

    Hierarchical partitions are spelled
    `hierarchical:<child>=<ids>;<child>=<ids>` where <ids> is a comma list
    of clock ids or ranges (`0-5,7`), or `rest` for every other clock.
    A part is kept as its ranges, so building costs O(parts) in time and
    memory however many ids the ranges span (`0-999999` is two bounds).
    """
    if name in _BASE_SAMPLERS:
        return _BASE_SAMPLERS[name]()
    head, _, spec = name.partition(":")
    if head != HierarchicalSampler.name:
        raise ModelError(f"unknown sampler {name!r}; valid: {', '.join(_BASE_SAMPLERS)}, {_HIER_FORM}")
    parts = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        child_name, _, ids = chunk.partition("=")  # no "=" leaves no ids, which _parse_id_set rejects
        child_name = child_name.strip()
        if child_name not in _BASE_SAMPLERS:
            raise ModelError(f"unknown hierarchical child {child_name!r}; valid: {', '.join(_BASE_SAMPLERS)}")
        parts.append((_BASE_SAMPLERS[child_name](), _parse_id_set(ids.strip())))
    if not parts:
        raise ModelError(f"hierarchical needs a partition: {_HIER_FORM}")
    sampler = HierarchicalSampler(parts)
    sampler.name = name  # a trajectory file's `# sampler:` line then rebuilds this partition
    return sampler
