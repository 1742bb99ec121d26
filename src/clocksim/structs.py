"""The per-event data structures: putative-time queue and prefix-sum tree.

PutativeQueue: indexed min-priority queue over (time, clock id).  Ordering
is lexicographic, so equal times break toward the smallest clock id and pop
order is deterministic.  It is a binary heap of (time, cid) tuples on
`heapq` with lazy deletion: the dict `times` (cid -> current time; read
only outside the queue) is the source of truth, and a heap entry is live
only while its time equals that dict's entry.  `delete` drops the dict
entry, `update` pushes a new entry, and `peek`/`pop` discard stale tops.
Whenever the heap holds more than 2*len(times) + 16 entries it is rebuilt
from the dict, so after every operation stale entries number at most
len(times) + 16.

PrefixSumTree: Fenwick tree over finite nonnegative float weights with point
update, total, and find-by-prefix (smallest index whose inclusive prefix
sum strictly exceeds the target -- zero-weight slots are never returned).
Updates are deltas, so float error can drift; the tree is rebuilt from the
exact leaf array every 4096 updates to bound it.  The internal nodes of a
tree whose leaves are all 0 may still hold that drift, so the tree counts
its positive leaves: with none, `total()` is exactly 0.0, and `find`
returns -1 wherever its descent ends on a leaf that is not > 0.  With some,
a running total that reads <= 0 (a large weight's removal cancelled a tiny
one) is re-summed from the leaves, so `total()` is > 0 whenever a leaf is.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .clocks import _check_integer
from .hazards import INF, _check_parameter

# Recorded by the benchmark with every result; records from different
# backends are not compared.
BACKEND = "python"

__all__ = ["PrefixSumTree", "PutativeQueue", "BACKEND"]

_TREE_START = 16        # leaves allocated up front; the tree doubles as ids grow
_REBUILD_EVERY = 4096   # point updates between rebuilds from the exact leaves


class PutativeQueue:
    """Indexed min-priority queue over clock putative times."""

    def __init__(self):
        self._heap = []
        self.times = {}

    def _compact(self):
        heap = self._heap
        if len(heap) > 2 * len(self.times) + 16:
            heap[:] = [(t, cid) for cid, t in self.times.items()]
            heapify(heap)

    def insert(self, cid, time):
        if cid in self.times:
            raise KeyError(f"clock {cid} already queued")
        self.times[cid] = time
        heappush(self._heap, (time, cid))

    def peek(self):
        heap = self._heap
        times = self.times
        while heap:
            time, cid = heap[0]
            if times.get(cid) == time:
                return (cid, time)
            heappop(heap)
        return None

    def pop(self):
        heap = self._heap
        times = self.times
        while heap:
            time, cid = heappop(heap)
            if times.get(cid) == time:
                del times[cid]
                self._compact()
                return (cid, time)
        raise IndexError("pop from empty queue")

    def delete(self, cid):
        del self.times[cid]
        self._compact()

    def update(self, cid, time):
        times = self.times
        if times[cid] == time:
            return
        times[cid] = time
        heappush(self._heap, (time, cid))
        self._compact()


class PrefixSumTree:
    """Fenwick tree over clock hazard weights with find-by-prefix."""

    def __init__(self):
        self._n = _TREE_START
        self._leaves = [0.0] * _TREE_START
        self._tree = [0.0] * (_TREE_START + 1)
        self._ops = 0
        self._positive = 0  # leaves > 0

    def _grow(self, needed):
        n = self._n
        while n < needed:
            n *= 2
        self._leaves.extend([0.0] * (n - self._n))
        self._n = n
        self.rebuild()

    def rebuild(self):
        n = self._n
        tree = [0.0] * (n + 1)
        for i, v in enumerate(self._leaves):
            j = i + 1
            tree[j] += v
            parent = j + (j & -j)
            if parent <= n:
                tree[parent] += tree[j]
        self._tree = tree
        self._ops = 0

    def set(self, index, value):
        # A NaN or infinite weight would poison every prefix sum it enters, and a negative
        # index's update loop would never end (Fenwick index 0 has no lowest set bit).
        # The samplers' plain floats and ints in range skip the rules' helpers.
        if not (type(value) is float and 0.0 <= value < INF):
            value = _check_parameter("weights", value, True)
        if not (type(index) is int and index >= 0):
            index = _check_integer("index", index, 0, IndexError)
        if index >= self._n:
            self._grow(index + 1)
        old = self._leaves[index]
        delta = value - old
        if delta == 0.0:
            return
        # weights are >= 0, so a changed leaf crosses zero or stays positive
        if old == 0.0:
            self._positive += 1
        elif value == 0.0:
            self._positive -= 1
        self._leaves[index] = value
        j = index + 1
        tree = self._tree
        n = self._n
        while j <= n:
            tree[j] += delta
            j += j & -j
        self._ops += 1
        if self._ops >= _REBUILD_EVERY:
            self.rebuild()

    def prefix(self, index):
        """Inclusive prefix sum of leaves[0..index]."""
        j = index + 1
        s = 0.0
        tree = self._tree
        while j > 0:
            s += tree[j]
            j -= j & -j
        return s

    def total(self):
        if not self._positive:
            return 0.0
        s = self.prefix(self._n - 1)
        if s <= 0.0:
            # the running sums cancelled a positive leaf: re-sum the leaves once
            self.rebuild()
            s = self.prefix(self._n - 1)
        return s

    def find(self, x):
        """Smallest index with inclusive prefix sum > x; -1 if x >= total or that leaf is not > 0."""
        pos = 0
        bit = self._n
        rem = x
        tree = self._tree
        n = self._n
        while bit:
            nxt = pos + bit
            if nxt <= n and tree[nxt] <= rem:
                pos = nxt
                rem -= tree[nxt]
            bit >>= 1
        if pos >= n or not self._leaves[pos] > 0.0:
            return -1
        return pos
