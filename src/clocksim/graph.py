"""Bipartite clock/substate dependency graph.

Edges run from each clock to the substates its enabling rule reads
(`ClockSpec.reads`) and to the substates its mark writes (the keys of
`mark.deltas`).  After clock j fires, only the clocks reading some substate
j writes can see a different enabling outcome; the reverse index from
substate to readers answers that set in O(edges touched).
"""

from __future__ import annotations


def build(clocks) -> dict:
    """Reverse index: substate -> tuple of the ids of clocks reading it, ascending.

    Tuples of ints are smaller than frozensets and, unlike them, are left
    out of the cyclic collector's lists.
    """
    readers = {}
    for clock in clocks:
        for key in clock.reads:
            readers.setdefault(key, []).append(clock.id)
    return {k: tuple(sorted(v)) for k, v in readers.items()}


def affected(readers: dict, clock) -> set:
    """Ids of the clocks whose enabling must be re-evaluated after `clock` jumps.

    Union of readers of every substate the fired clock's mark writes, always
    including the fired clock itself.
    """
    out = {clock.id}
    for key in clock.mark.deltas:
        out.update(readers.get(key, ()))
    return out
