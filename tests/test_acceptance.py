"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings.  Seeds are fixed so the statistical checks are deterministic.
"""

import gc
import os
import time

import numpy as np
from click.testing import CliRunner

from clocksim.cli import cli
from clocksim.clocks import DISABLED, ClockSpec, Enabled, JumpMark, SystemState
from clocksim.hazards import Exponential, HazardSpec
from clocksim.kernel import (
    CountingStream,
    Engine,
    EventCount,
    StalledOnly,
    derived_generator,
    run_trajectory,
)
from clocksim.models import Model, build
from clocksim.samplers import make_sampler
from clocksim.structs import PrefixSumTree, PutativeQueue
from clocksim.verify import competing_risks, ctmc_agreement, hazard_round_trip, sampler_equivalence

from conftest import AuditedNextReaction, scan_find


def _report(num, label, ok, detail):
    print(f"\nACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'} -- {detail}")
    return ok


def _race3():
    """Three-clock single-shot exponential race (rates 1, 2, 3)."""
    clocks = []
    for i, r in enumerate((1.0, 2.0, 3.0)):
        on = Enabled(HazardSpec(Exponential(r)))
        clocks.append(
            ClockSpec(
                id=i,
                enabling=lambda v, now, out=on: out if v.count("armed") == 1 else DISABLED,
                mark=JumpMark({"armed": -1, f"win_{i}": +1}),
                reads=frozenset({"armed"}),
                name=f"race_{i}",
            )
        )
    return Model("race3", tuple(clocks), SystemState({"armed": 1}), {})


def test_criterion_1_four_sampler_equivalence():
    started = time.perf_counter()
    cases = [
        ("race3", _race3(), EventCount(1), "hierarchical:direct=0;next-reaction=rest"),
        ("sir10-weibull", build("sir", {"n": 10, "infect": "exponential:0.5", "recover": "weibull:2,1"}),
         StalledOnly(), "hierarchical:direct=0-89;next-reaction=rest"),
        ("atomic-showcase", build("atomic-showcase", {}), EventCount(1),
         "hierarchical:direct=0;next-reaction=rest"),
        # decreasing hazards, infinite at each recovery's enabling instant;
        # the recoveries (ids 12-15) go to the direct child
        ("sir4-weibull-decreasing", build("sir", {"n": 4, "infect": "exponential:1",
                                                  "recover": "weibull:0.5,1"}),
         StalledOnly(), "hierarchical:direct=12-15;next-reaction=rest"),
    ]
    rows = sampler_equivalence(cases, seed0=5000, events=100_000)
    elapsed = time.perf_counter() - started
    label, stats, _ = min(rows, key=lambda row: float(row[1].split()[2]))
    detail = f"{len(rows)} comparisons all p > 0.01; lowest-KS line: {label}: {stats}; {elapsed:.1f}s"
    assert _report(1, "four-sampler equivalence", all(ok for _, _, ok in rows), detail), rows


def test_criterion_2_atomic_competing_risks():
    started = time.perf_counter()
    [(_, stats, ok)] = competing_risks(10_000, seed=4242, grid_step=1e-4, horizon=1.5, tol=0.01, cif_tol=1e-4)
    elapsed = time.perf_counter() - started
    assert _report(
        2, "atomic competing risks", ok,
        f"P(B) {stats}; empirical vs 0.25 +/- 0.01, cif vs 0.25 +/- 1e-4; {elapsed:.1f}s",
    )


def test_criterion_3_ctmc_oracle_agreement():
    started = time.perf_counter()
    cases = [
        ("sir3", build("sir", {"n": 3, "infect": "exponential:1", "recover": "exponential:1"}), "direct", 777),
        ("birth-death", build("birth-death", {"birth": 1.0, "death": 1.0, "x0": 1, "capacity": 30}),
         "next-reaction", 778),
    ]
    rows = ctmc_agreement(cases, 10_000, horizon=1.0, tol=0.02)
    elapsed = time.perf_counter() - started
    assert _report(
        3, "CTMC oracle agreement", all(ok for _, _, ok in rows),
        "; ".join(f"{label}: {stats} (< 0.02)" for label, stats, _ in rows) + f"; {elapsed:.1f}s",
    )


def test_criterion_4_hazard_round_trip():
    started = time.perf_counter()
    [(_, stats, ok)] = hazard_round_trip(100_000, seed=909, tol=0.05)
    elapsed = time.perf_counter() - started
    assert _report(4, "hazard round trip", ok, f"{stats} (< 0.05); {elapsed:.1f}s")


def test_criterion_5_next_reaction_budget_conservation():
    started = time.perf_counter()
    # birth-death modifies the death rate at every jump while x > 0
    model = build("birth-death", {"birth": 1.0, "death": 1.0, "x0": 1, "capacity": 1000})
    sampler = AuditedNextReaction()
    run_trajectory(model, sampler, 31337, EventCount(10_000))
    records = sampler.audit_log
    assert len(records) == 10_000
    worst = 0.0
    violations = 0
    for cid, consumed, budget, at_atom in records:
        if at_atom:
            continue
        err = abs(consumed - budget)
        worst = max(worst, err)
        if err > 1e-9:
            violations += 1
    # atom case: the showcase's clock B overshoots only at its atom offset
    showcase = build("atomic-showcase", {})
    atom_hits = 0
    for i in range(2000):
        s = AuditedNextReaction()
        traj = run_trajectory(showcase, s, 515, StalledOnly(), stream_index=i)
        for cid, consumed, budget, at_atom in s.audit_log:
            if cid == 1:
                assert at_atom, "clock B can only fire at its atom"
                atom_hits += 1
                assert consumed >= budget - 1e-9
            else:
                worst = max(worst, abs(consumed - budget))
                if abs(consumed - budget) > 1e-9:
                    violations += 1
    ok = violations == 0 and atom_hits > 0
    elapsed = time.perf_counter() - started
    assert _report(
        5, "next-reaction budget conservation", ok,
        f"10^4 modified-rate jumps + showcase: max |consumed - budget| = {worst:.2e} "
        f"(<= 1e-9), atom overshoots only at offsets ({atom_hits} atom jumps); {elapsed:.1f}s",
    )


def test_criterion_6_data_structure_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(92)
    tree_checks = 0
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        tree = PrefixSumTree()
        leaves = [0.0] * n
        for _ in range(int(rng.integers(1, 40))):
            i = int(rng.integers(0, n))
            v = float(rng.random() * 10.0) if rng.random() < 0.85 else 0.0
            tree.set(i, v)
            leaves[i] = v
        total = sum(leaves)
        for _ in range(5):
            x = float(rng.random()) * (total if total > 0 else 1.0)
            assert tree.find(x) == scan_find(leaves, x)
            tree_checks += 1
    queue_checks = 0
    for _ in range(1000):
        q = PutativeQueue()
        live = {}
        nid = 0
        for _ in range(int(rng.integers(1, 40))):
            op = rng.random()
            if op < 0.55 or not live:
                t = float(rng.exponential())
                q.insert(nid, t)
                live[nid] = t
                nid += 1
            elif op < 0.8:
                cid = int(rng.choice(list(live)))
                t = float(rng.exponential())
                q.update(cid, t)
                live[cid] = t
            else:
                cid = int(rng.choice(list(live)))
                q.delete(cid)
                del live[cid]
        got = [q.pop() for _ in range(len(live))]
        assert got == sorted(live.items(), key=lambda kv: (kv[1], kv[0]))
        queue_checks += 1
    elapsed = time.perf_counter() - started
    assert _report(
        6, "data-structure oracles", True,
        f"{tree_checks} find-by-prefix vs scan, {queue_checks} pop orders vs sort, "
        f"exact agreement; {elapsed:.1f}s",
    )


def _per_event_seconds(model, sampler_name, warm, measured, seed):
    engine = Engine(model, make_sampler(sampler_name), CountingStream(derived_generator(seed, 0)))
    for _ in range(warm):
        engine.step()
    # a full collection inside the window costs time linear in the whole heap,
    # and whether one falls there depends on what earlier tests allocated
    gc.collect()
    t0 = time.perf_counter()
    for _ in range(measured):
        engine.step()
    return (time.perf_counter() - t0) / measured


def test_criterion_7_sublinear_scaling():
    started = time.perf_counter()
    details = []
    ok = True
    for sampler in ("direct", "next-to-fire"):
        small = build("ring", {"m": 2 ** 10})
        large = build("ring", {"m": 2 ** 14})
        t_small = _per_event_seconds(small, sampler, 300, 2000, seed=5)
        t_large = _per_event_seconds(large, sampler, 300, 2000, seed=5)
        ratio = t_large / t_small
        ok &= ratio <= 3.0
        details.append(f"{sampler}: {t_small*1e6:.1f} -> {t_large*1e6:.1f} us/event, x{ratio:.2f}")
    elapsed = time.perf_counter() - started
    assert _report(
        7, "sub-linear per-event scaling 2^10 -> 2^14", ok,
        "; ".join(details) + f" (budget x3); {elapsed:.1f}s",
    )


def test_criterion_8_byte_identical_runs(tmp_path):
    started = time.perf_counter()
    runner = CliRunner()

    def run_into(out, workers):
        result = runner.invoke(cli, [
            "run", "--model", "sir", "--param", "n=5", "--param", "recover=weibull:2,1",
            "--sampler", "next-reaction", "--seed", "2718", "--t-end", "3",
            "--trajectories", "4", "--workers", str(workers), "--output", str(out),
        ])
        assert result.exit_code == 0, result.output
        blobs = {}
        for name in sorted(os.listdir(out)):
            if name.startswith("traj_"):
                with open(os.path.join(out, name), "rb") as fh:
                    blobs[name] = fh.read()
        return blobs

    a = run_into(tmp_path / "a", workers=1)
    b = run_into(tmp_path / "b", workers=1)
    c = run_into(tmp_path / "c", workers=4)
    ok = (a == b == c) and len(a) == 4
    elapsed = time.perf_counter() - started
    assert _report(
        8, "byte-identical trajectory files", ok,
        f"two runs and workers 1 vs 4 identical over {len(a)} files; {elapsed:.1f}s",
    )
