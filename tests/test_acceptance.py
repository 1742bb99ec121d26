"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings.  Seeds are fixed so the statistical checks are deterministic.
"""

import math
import os
import time

import numpy as np
from click.testing import CliRunner

from clocksim.cli import cli
from clocksim.clocks import DISABLED, ClockSpec, Enabled, JumpMark, SystemState
from clocksim.hazards import Exponential, HazardSpec
from clocksim.kernel import (
    CountingStream,
    EndTime,
    Engine,
    EventCount,
    StalledOnly,
    derived_generator,
    run_ensemble,
    run_trajectory,
)
from clocksim.models import Model, build, parse_hazard
from clocksim.samplers import (
    DirectSampler,
    HierarchicalSampler,
    NextReactionSampler,
    make_sampler,
)
from clocksim.structs import PrefixSumTree, PutativeQueue
from clocksim.verify import (
    CensoredSample,
    chi_square_homogeneity,
    cif_numeric,
    ctmc_oracle,
    ks_two_sample,
    nelson_aalen,
    occupancy_from_trajectories,
    total_variation,
)

from conftest import AuditedNextReaction

LN2 = math.log(2.0)


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


def _collect_events(model, sampler_factory, target_events, base_seed, stop):
    """First-event times and pooled mark counts over >= target_events events."""
    times = []
    marks = {}
    total = 0
    index = 0
    while total < target_events:
        traj = run_trajectory(model, sampler_factory(), base_seed, stop, stream_index=index)
        index += 1
        if traj.events:
            times.append(traj.events[0].time)
            for ev in traj.events:
                marks[ev.clock] = marks.get(ev.clock, 0) + 1
            total += len(traj.events)
    return times, marks


def test_criterion_1_four_sampler_equivalence():
    started = time.perf_counter()
    cases = [
        ("race3", _race3(), EventCount(1),
         lambda: HierarchicalSampler([(DirectSampler(), {0}), (NextReactionSampler(), None)])),
        ("sir10-weibull", build("sir", {"n": 10, "infect": "exponential:0.5",
                                        "recover": "weibull:2,1"}),
         StalledOnly(),
         lambda: HierarchicalSampler([(DirectSampler(), set(range(90))),
                                      (NextReactionSampler(), None)])),
        ("atomic-showcase", build("atomic-showcase", {}), EventCount(1),
         lambda: HierarchicalSampler([(DirectSampler(), {0}), (NextReactionSampler(), None)])),
        # decreasing hazards, infinite at each recovery's enabling instant;
        # the recoveries (ids 12-15) go to the direct child
        ("sir4-weibull-decreasing", build("sir", {"n": 4, "infect": "exponential:1",
                                                  "recover": "weibull:0.5,1"}),
         StalledOnly(),
         lambda: HierarchicalSampler([(DirectSampler(), set(range(12, 16))),
                                      (NextReactionSampler(), None)])),
    ]
    target = 100_000
    all_ok = True
    details = []
    seed = 5000  # each (model, sampler) pair gets its own stream family
    for name, model, stop, hier_factory in cases:
        factories = {
            "first-reaction": lambda: make_sampler("first-reaction"),
            "next-reaction": lambda: make_sampler("next-reaction"),
            "next-to-fire": lambda: make_sampler("next-to-fire"),
            "direct": lambda: make_sampler("direct"),
            "hierarchical": hier_factory,
        }
        data = {}
        for s, factory in factories.items():
            data[s] = _collect_events(model, factory, target, seed, stop)
            seed += 1
        ref_times, ref_marks = data["first-reaction"]
        clocks = sorted({c for _, m in data.values() for c in m})
        for sampler in ("next-reaction", "next-to-fire", "direct", "hierarchical"):
            times, marks = data[sampler]
            _, p_ks = ks_two_sample(ref_times, times)
            _, p_chi = chi_square_homogeneity(
                [ref_marks.get(c, 0) for c in clocks], [marks.get(c, 0) for c in clocks]
            )
            ok = p_ks > 0.01 and p_chi > 0.01
            all_ok &= ok
            details.append(f"{name}/{sampler}: KS p={p_ks:.3f} chi2 p={p_chi:.3f}")
    elapsed = time.perf_counter() - started
    worst = min(details, key=lambda line: float(line.split("KS p=")[1].split(" ")[0]))
    detail = f"{len(details)} comparisons all p > 0.01; lowest-KS line: {worst}; {elapsed:.1f}s"
    assert _report(1, "four-sampler equivalence", all_ok, detail), details


def test_criterion_2_atomic_competing_risks():
    started = time.perf_counter()
    model = build("atomic-showcase", {})
    n = 10_000
    b_fired = 0
    for traj in run_ensemble(model, "direct", 4242, n, StalledOnly()):
        if traj.events and traj.events[0].clock == 1:
            b_fired += 1
    emp = b_fired / n
    _, cifs = cif_numeric(
        [(parse_hazard(f"exponential:{LN2!r}"), 0.0), (parse_hazard("none@1,0.5"), 0.0)],
        grid_step=1e-4, horizon=1.5,
    )
    cif_b = cifs[1].final
    ok = abs(emp - 0.25) <= 0.01 and abs(cif_b - 0.25) <= 1e-4
    elapsed = time.perf_counter() - started
    assert _report(
        2, "atomic competing risks",
        ok, f"P(B): empirical {emp:.4f} vs 0.25 +/- 0.01; cif {cif_b:.6f} vs 0.25 +/- 1e-4; {elapsed:.1f}s",
    )


def test_criterion_3_ctmc_oracle_agreement():
    started = time.perf_counter()
    results = []
    sir = build("sir", {"n": 3, "infect": "exponential:1", "recover": "exponential:1"})
    trajs = run_ensemble(sir, "direct", 777, 10_000, EndTime(1.0))
    tv_sir = total_variation(occupancy_from_trajectories(sir, trajs), ctmc_oracle(sir, 1.0))
    results.append(("sir3", tv_sir))
    bd = build("birth-death", {"birth": 1.0, "death": 1.0, "x0": 1, "capacity": 30})
    trajs = run_ensemble(bd, "next-reaction", 778, 10_000, EndTime(1.0))
    tv_bd = total_variation(occupancy_from_trajectories(bd, trajs), ctmc_oracle(bd, 1.0))
    results.append(("birth-death", tv_bd))
    ok = all(tv < 0.02 for _, tv in results)
    elapsed = time.perf_counter() - started
    assert _report(
        3, "CTMC oracle agreement", ok,
        "; ".join(f"{name} TV={tv:.4f} (< 0.02)" for name, tv in results) + f"; {elapsed:.1f}s",
    )


def test_criterion_4_hazard_round_trip():
    started = time.perf_counter()
    model = build("renewal", {"interarrival": "weibull:2,1"})
    traj = run_trajectory(model, "next-to-fire", 909, EventCount(100_000))
    prev = 0.0
    samples = []
    for ev in traj.events:
        samples.append(CensoredSample(ev.time - prev))
        prev = ev.time
    sf = nelson_aalen(samples)
    mask = sf.times <= 1.0
    ts = sf.times[mask]
    vals = sf.values[mask]
    prev_vals = np.concatenate([[0.0], vals[:-1]])
    sup = max(float(np.max(np.abs(vals - ts ** 2))), float(np.max(np.abs(prev_vals - ts ** 2))))
    ok = sup < 0.05
    elapsed = time.perf_counter() - started
    assert _report(
        4, "hazard round trip", ok,
        f"sup |NA(t) - t^2| on [0,1] = {sup:.4f} (< 0.05) over {len(samples)} samples; {elapsed:.1f}s",
    )


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


def _scan_find(leaves, x):
    acc = 0.0
    for i, v in enumerate(leaves):
        acc += v
        if acc > x:
            return i
    return -1


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
            assert tree.find(x) == _scan_find(leaves, x)
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
