import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clocksim.structs import PrefixSumTree, PutativeQueue

from conftest import scan_find


# -- putative queue ----------------------------------------------------------

def test_queue_basic():
    q = PutativeQueue()
    q.insert(3, 2.0)
    q.insert(1, 5.0)
    q.insert(2, 1.0)
    assert q.times == {3: 2.0, 1: 5.0, 2: 1.0}
    assert q.peek() == (2, 1.0)
    assert q.pop() == (2, 1.0)
    assert q.pop() == (3, 2.0)
    assert q.pop() == (1, 5.0)
    assert q.peek() is None
    with pytest.raises(IndexError):
        q.pop()


def test_queue_tie_breaks_toward_smaller_id():
    q = PutativeQueue()
    for cid in (5, 1, 3):
        q.insert(cid, 7.0)
    assert [q.pop()[0] for _ in range(3)] == [1, 3, 5]


def test_queue_update_and_delete():
    q = PutativeQueue()
    for cid in range(6):
        q.insert(cid, 10.0 + cid)
    q.update(5, 0.5)           # decrease
    q.update(0, 99.0)          # increase
    q.delete(2)
    q.update(3, math.inf)      # park at infinity
    order = []
    while q.peek() is not None:
        order.append(q.pop())
    assert order == [(5, 0.5), (1, 11.0), (4, 14.0), (0, 99.0), (3, math.inf)]


def test_queue_duplicate_insert_rejected():
    q = PutativeQueue()
    q.insert(1, 1.0)
    with pytest.raises(KeyError):
        q.insert(1, 2.0)


def test_queue_random_workloads_match_sort():
    rng = np.random.default_rng(7)
    for _ in range(300):
        q = PutativeQueue()
        live = {}
        next_id = 0
        for _ in range(rng.integers(5, 60)):
            op = rng.random()
            if op < 0.5 or not live:
                t = float(rng.exponential()) if rng.random() < 0.9 else math.inf
                q.insert(next_id, t)
                live[next_id] = t
                next_id += 1
            elif op < 0.8:
                cid = int(rng.choice(list(live)))
                t = float(rng.exponential()) if rng.random() < 0.9 else math.inf
                q.update(cid, t)
                live[cid] = t
            else:
                cid = int(rng.choice(list(live)))
                q.delete(cid)
                del live[cid]
        assert q.times == live
        got = [q.pop() for _ in range(len(live))]
        assert got == sorted(live.items(), key=lambda kv: (kv[1], kv[0]))


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["insert", "update", "delete", "pop"]),
                  st.integers(0, 15),
                  # repeated values: update back to an earlier time, re-insert
                  # at the time of a deleted entry
                  st.one_of(st.sampled_from([0.0, 1.0, math.inf]), st.floats(0.0, 100.0))),
        max_size=60,
    )
)
@settings(max_examples=150, deadline=None)
def test_queue_model_property(ops):
    q = PutativeQueue()
    model = {}
    for op, cid, t in ops:
        if op == "insert" and cid not in model:
            q.insert(cid, t)
            model[cid] = t
        elif op == "update" and cid in model:
            q.update(cid, t)
            model[cid] = t
        elif op == "delete" and cid in model:
            q.delete(cid)
            del model[cid]
        elif op == "pop" and model:
            got = q.pop()
            want = min(model.items(), key=lambda kv: (kv[1], kv[0]))
            assert got == (want[0], want[1])
            del model[got[0]]
    assert q.times == model


def test_queue_churn_keeps_heap_bounded():
    """Many updates and deletes over a few clocks: stale heap entries stay
    bounded by the live count and the pop order still matches the sort."""
    rng = np.random.default_rng(5)
    q = PutativeQueue()
    live = {}
    for k in range(5_000):
        cid = int(rng.integers(0, 4))
        t = float(rng.integers(0, 3)) if rng.random() < 0.3 else float(rng.exponential())
        if cid not in live:
            q.insert(cid, t)
            live[cid] = t
        elif rng.random() < 0.2:
            q.delete(cid)
            del live[cid]
        else:
            q.update(cid, t)
            live[cid] = t
        if k % 7 == 0 and live:
            want = min(live.items(), key=lambda kv: (kv[1], kv[0]))
            assert q.peek() == want
        assert len(q._heap) <= 2 * len(q.times) + 17
    got = []
    while q.times:
        got.append(q.pop())
        assert len(q._heap) <= 2 * len(q.times) + 17
    assert got == sorted(live.items(), key=lambda kv: (kv[1], kv[0]))


# -- prefix-sum tree -----------------------------------------------------------

def test_tree_basic():
    t = PrefixSumTree()
    t.set(0, 1.0)
    t.set(2, 2.0)
    assert t.prefix(0) == 1.0
    assert t.total() == pytest.approx(3.0)
    assert t.find(0.0) == 0
    assert t.find(0.5) == 0
    assert t.find(1.0) == 2   # zero-weight slot 1 is skipped at the tie
    assert t.find(2.999) == 2
    assert t.find(3.0) == -1


def test_tree_grows():
    t = PrefixSumTree()
    t.set(37, 4.0)
    assert t.total() == pytest.approx(4.0)
    assert t.find(3.9) == 37


def test_tree_rejects_negative():
    t = PrefixSumTree()
    t.set(1, 2.0)
    for bad in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            t.set(0, bad)
    # a rejected weight leaves every prefix sum as it was
    assert t.total() == 2.0 and t.find(1.0) == 1


def test_tree_rejects_negative_index():
    def hung(signum, frame):
        raise TimeoutError("negative index did not raise")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        t = PrefixSumTree()
        with pytest.raises(IndexError):
            t.set(-1, 1.0)
        assert t.total() == 0.0
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_tree_random_matches_scan():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 65))
        t = PrefixSumTree()
        leaves = [0.0] * n
        for _ in range(int(rng.integers(1, 120))):
            i = int(rng.integers(0, n))
            v = float(rng.random() * 10.0) if rng.random() < 0.8 else 0.0
            t.set(i, v)
            leaves[i] = v
        total = sum(leaves)
        assert t.total() == pytest.approx(total, rel=1e-12, abs=1e-12)
        for _ in range(20):
            x = float(rng.random()) * (total if total > 0 else 1.0)
            assert t.find(x) == scan_find(leaves, x)


def test_tree_total_drift_bounded_with_rebuilds():
    t = PrefixSumTree()
    rng = np.random.default_rng(3)
    leaves = [0.0] * 64
    for k in range(50_000):
        i = int(rng.integers(0, 64))
        v = float(rng.random() * 100.0)
        t.set(i, v)
        leaves[i] = v
        if k % 5_000 == 0:
            assert t.total() == pytest.approx(math.fsum(leaves), rel=1e-12)
    assert t.total() == pytest.approx(math.fsum(leaves), rel=1e-12)


def test_tree_total_resums_a_positive_leaf_that_a_removal_cancelled():
    # 1.0 + 1e-20 rounds to 1.0, so removing the 1.0 leaves 0.0 in the running sums
    t = PrefixSumTree()
    t.set(0, 1.0)
    t.set(1, 1e-20)
    t.set(0, 0.0)
    assert t.total() == 1e-20
    assert t.find(0.0) == 1


# Weights span twelve orders of magnitude.  Wider ranges let a delta update
# absorb a small weight into a large one, so a node can read 0.0 over a
# positive leaf: that is the delta tree's drift, not its zero handling.
_WEIGHTS = st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0]) | st.floats(1e-6, 1e6)


@given(
    ops=st.lists(st.tuples(st.integers(0, 40), _WEIGHTS), max_size=80),
    clear_all=st.booleans(),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
)
@settings(max_examples=300, deadline=None)
def test_tree_finds_no_zero_leaf_and_an_empty_tree_totals_zero(ops, clear_all, fractions):
    # Cleared leaves leave rounding residue in the internal nodes: set 0.1
    # and 0.2, clear both, and the nodes hold 2.8e-17.
    t = PrefixSumTree()
    leaves = {}
    for i, v in ops + [(i, 0.0) for i, _ in ops] * clear_all:
        t.set(i, v)
        leaves[i] = v
    total = t.total()
    assert (total == 0.0) == all(v == 0.0 for v in leaves.values())
    for x in (0.0, *(f * total for f in fractions)):
        slot = t.find(x)
        assert slot == -1 or leaves.get(slot, 0.0) > 0.0, (x, slot)
