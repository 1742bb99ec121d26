"""One repeat of one workload, run by run.py in a fresh process.

Usage: python3 perfbench/worker.py '<json job>'; the job names the mode:
  cases   end to end: setup repeats and time-bounded blocks of Engine.step();
  cli     end to end: the workload's `clocksim run` ensemble;
  fixed   a fixed amount of work, traced or not, for the per-layer run;
  digests the trajectories at RECORDED_SEED only, for --record-digests.
The last stdout line is one JSON object with the results.

Isolation rules this module keeps:
  * Engines are built and finished one at a time: derived_generator reuses
    one PCG64 per thread, so a second live Engine would corrupt the first.
  * Every timed block follows warm-up steps: first use of a code path can
    cost ten times the steady state.
  * gc.disable/gc.freeze are never called: the collector's cost over the
    leaked model tables is a cost users pay on sir-ensemble.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import tracing
import workloads
from workloads import RECORDED_SEED

# run.py puts the checkout's src/ on PYTHONPATH; main() checks it was used
import clocksim
from clocksim import cli, kernel, models
from clocksim.errors import Stalled
from clocksim.samplers import make_sampler

perf_counter = time.perf_counter
# Measured times are CPU seconds of this process.  On a shared virtual
# machine the wall clock also runs while the hypervisor serves other guests
# (steal time); single 0.3 s stretches of stepping were seen to lose 40% of
# their wall time that way, while their CPU time stayed within a few per cent.
# The caller is one thread with no I/O wait worth the name, so CPU time is
# the time the program needs.  Deadlines stay on the wall clock.
cpu_time = time.process_time

# The CPU itself changes speed too: a fixed loop took 0.9 ms in some
# minutes and 1.8 ms in others, and whole runs moved together by up to 25%.
# So a run interleaves a fixed loop that does not touch clocksim with its
# measurements and reports times scaled to the speed at which that loop
# takes CAL_REFERENCE_S (its median on the 2-vCPU Intel Xeon VM the benchmark
# was defined on).  The loop mixes interpreter arithmetic with a random walk
# over a large dict, because the program's speed follows neither alone: in
# fast spells the arithmetic sped up more than clocksim did and the walk
# less.  Raw times and the loop's median stay in the detail line.
CAL_REFERENCE_S = 3.1e-3
CAL_WALK_KEYS = 1 << 18


class Calibration:
    """CPU-time samples of the fixed loop: the machine's speed, now."""

    def __init__(self):
        order = list(range(CAL_WALK_KEYS))
        random.Random(1).shuffle(order)
        # ints only: the collector does not track this table, so it leaves
        # the collector's work in the measured program unchanged
        self._next = dict(zip(order, order[1:] + order[:1]))
        self.samples = []

    def sample(self):
        t0 = cpu_time()
        counts = {}
        acc = 0.0
        for i in range(2000):
            k = i % 97
            counts[k] = counts.get(k, 0) + 1
            acc += math.log1p(i * 1e-3)
        key, nxt = 0, self._next
        for _ in range(5000):
            key = nxt[key]
        self.samples.append(cpu_time() - t0)

    def scale(self):
        """Factor from this run's CPU times to times at the reference speed."""
        return CAL_REFERENCE_S / statistics.median(self.samples)

    def median(self):
        return statistics.median(self.samples)


class Ops:
    """Operations attempted and failed; a failed operation keeps its reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    @contextlib.contextmanager
    def op(self, what):
        """One checked operation: an exception or a failed check inside it fails it."""
        self.attempted += 1
        before = len(self.failures)
        try:
            yield
        except Exception as exc:  # the program under test failed this operation
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        if len(self.failures) > before:
            self.failed += 1

    def check(self, ok, what):
        if not ok:
            self.failures.append(what)


def machine():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": clocksim.structs.BACKEND,
    }


def digest(events):
    h = hashlib.sha256()
    for seq, (clock, t) in enumerate(events):
        h.update(b"%d\t%.17g\t%d\n" % (seq, t, clock))
    return h.hexdigest()


def new_engine(wl, case, seed, stream_index=0, model=None):
    model = model if model is not None else models.build(wl.model, wl.params)
    stream = kernel.CountingStream(kernel.derived_generator(seed, stream_index))
    return model, kernel.Engine(model, make_sampler(case.sampler), stream)


def run_events(wl, engine, n):
    """Step `n` events (None: until stalled); Stalled is expected only on stalling workloads."""
    events = []
    try:
        while n is None or len(events) < n:
            events.append(engine.step())
    except Stalled:
        if not wl.stalls:
            raise
    return events


def case_trajectory(wl, case, seed):
    """Build, initialise and run one prefix trajectory: (setup s, trajectory s, digest, model, engine)."""
    t0 = cpu_time()
    model, engine = new_engine(wl, case, seed)
    t1 = cpu_time()
    events = run_events(wl, engine, wl.prefix_events)
    t2 = cpu_time()
    return t1 - t0, t2 - t0, digest(events), model, engine


def cli_ensemble(wl, root, seed, count, run=None):
    """`clocksim run` in-process into a scratch directory: (CPU s, wall s, {file: digest}, events per file)."""
    run = run or cli.cli.main
    out = tempfile.mkdtemp(prefix="cli-", dir=scratch_dir(root))
    try:
        args = wl.cli_args(seed, count, out)
        with contextlib.redirect_stdout(io.StringIO()):
            t0, c0 = perf_counter(), cpu_time()
            run(args=args, prog_name="clocksim", standalone_mode=False)
            wall, cpu = perf_counter() - t0, cpu_time() - c0
        files, events = {}, {}
        # manifest.yaml is left out: its wall_time_s differs on every run
        for name in sorted(os.listdir(out)):
            if name.startswith("traj_"):
                with open(os.path.join(out, name), "rb") as fh:
                    blob = fh.read()
                files[name] = hashlib.sha256(blob).hexdigest()
                events[name] = check_trajectory_file(blob)
        if len(files) != count:
            raise AssertionError(f"expected {count} trajectory files, found {len(files)}")
        return cpu, wall, files, events
    finally:
        shutil.rmtree(out, ignore_errors=True)


def check_trajectory_file(blob):
    """Events of a trajectory file, checking its header, sequence and strictly rising times."""
    with io.StringIO(blob.decode()) as fh:
        tf = kernel.read_trajectory(fh)
    if int(tf.header["events"]) != len(tf.events):
        raise AssertionError("header event count differs from the event lines")
    for i, ev in enumerate(tf.events):
        if ev.seq != i or (i and ev.time <= tf.events[i - 1].time):
            raise AssertionError(f"event {i} out of sequence")
    return len(tf.events)


def gc_snapshot(gc_stats):
    return {"gen2_collections": gc_stats.gen2_collections, "pause_ms": gc_stats.pause_s * 1e3}


def scratch_dir(root):
    path = os.path.join(root, ".perfbench_out")
    os.makedirs(path, exist_ok=True)
    return path


def block_stats(samples, block):
    """Median µs/event over blocks, and the highest percentile with at least 10 blocks beyond it."""
    us = sorted(s * 1e6 / n for s, n in samples)
    out = {"blocks": len(us), "block_events": block or "trajectory", "median": statistics.median(us) if us else None}
    if len(us) > 10:
        pct = (100 * (len(us) - 10)) // len(us)
        out[f"p{pct}"] = us[max(0, math.ceil(pct * len(us) / 100) - 1)]  # nearest rank
    return out


# -- modes -------------------------------------------------------------------

def timed_cli(job, wl, ops):
    """traj_per_s of the workload's `clocksim run` ensemble, in a process of its own."""
    metrics, details = {}, {}
    with ops.op("cli recorded-seed run"):
        _, _, files, _ = cli_ensemble(wl, job["root"], RECORDED_SEED, wl.cli.digest_trajectories)
        for name, d in files.items():
            ops.check(d == job["expected"]["cli"].get(name), f"cli {name}: digest differs from digests.json")
    cal = Calibration()
    write = kernel.write_trajectory

    def write_then_calibrate(*args, **kwargs):
        write(*args, **kwargs)
        cal.sample()

    with ops.op("cli timed run"):
        # The ensemble is one call, so the loop runs after each trajectory's
        # file is written, through the name the CLI looks up; its own CPU
        # time is taken out again.
        kernel.write_trajectory = write_then_calibrate
        try:
            cpu, wall, files, events = cli_ensemble(wl, job["root"], job["seed"], wl.cli.trajectories)
        finally:
            kernel.write_trajectory = write
        cpu -= sum(cal.samples)
        metrics["traj_per_s"] = wl.cli.trajectories / (cpu * cal.scale())
        details["cli"] = {"trajectories": wl.cli.trajectories, "cpu_s": cpu, "wall_s": wall - sum(cal.samples),
                          "events": sum(events.values()), "calibration_s": cal.median()}
    return metrics, details


def timed_cases(job, wl, ops):
    """setup_s and us_per_event.* of every sampler case (and traj_per_s without a CLI part)."""
    metrics, details = {}, {}
    # Round robin, so that a slow or fast spell of a shared machine falls on
    # every case alike.  Each repeat builds, initialises and runs the prefix
    # of every case.  On a workload that never stalls, blocks then continue
    # the prefix's trajectory for a share of the run.  On a stalling one
    # (sir-ensemble) every block is a whole fresh trajectory, one per case
    # in turn; they run after all repeats, so the collector's work that
    # lands in the timed setups does not depend on how much ran before them.
    runs = {case.label: CaseRuns() for case in wl.cases}
    cal = Calibration()
    budget = job["seconds"] / (len(wl.cases) * wl.setup_reps)
    for rep in range(wl.setup_reps):
        for case in wl.cases:
            cal.sample()
            engine = run_repeat(job, wl, case, rep, runs[case.label], ops)
            if engine is not None and not wl.stalls:
                run_window(case, engine, budget, runs[case.label], ops)
            del engine  # finished before the next case builds its own
    deadline = perf_counter() + job["seconds"]
    while wl.stalls and perf_counter() < deadline:
        for case in wl.cases:
            cal.sample()
            if runs[case.label].model is not None:
                run_fresh_trajectory(job, wl, case, runs[case.label], ops)

    scale = cal.scale()
    details["calibration_s"] = cal.median()
    for case in wl.cases:
        r = runs[case.label]
        details[case.label] = {**block_stats(r.blocks, case.block), "setup_s": r.setups, "traj_s": r.trajs}
        if r.blocks:
            metrics[f"us_per_event.{case.label}"] = details[case.label]["median"] * scale
    if all(r.setups for r in runs.values()):
        med = {k: statistics.median(r.setups) for k, r in runs.items()}
        metrics["setup_s"] = (med[wl.setup_case] if wl.setup_case else sum(med.values())) * scale
        if not wl.cli:
            # one trajectory of every case, each with its own build and init
            traj = sum(statistics.median(r.trajs) for r in runs.values())
            metrics["traj_per_s"] = len(wl.cases) / (traj * scale)
    return metrics, details


class CaseRuns:
    """What the repeats of one case measured so far."""

    def __init__(self):
        self.setups, self.trajs, self.blocks = [], [], []
        self.run_digest = None
        self.model = None
        self.streams = 0  # stream indices used at the run seed


def run_repeat(job, wl, case, rep, runs, ops):
    """One build, init and prefix trajectory of `case`; returns the engine, or None if it failed."""
    # repeat 0 is checked against digests.json, the later ones against each other
    seed = RECORDED_SEED if rep == 0 else job["seed"]
    with ops.op(f"{case.label} repeat {rep}"):
        s, t, d, runs.model, engine = case_trajectory(wl, case, seed)
        runs.setups.append(s)
        runs.trajs.append(t)
        if rep == 0:
            ops.check(d == job["expected"]["cases"].get(case.label),
                      f"{case.label}: digest differs from digests.json")
        elif runs.run_digest is None:
            runs.run_digest = d
        else:
            ops.check(d == runs.run_digest, f"{case.label}: repeat {rep} differs from repeat 1 at one seed")
        ops.check(engine.cache_consistent(), f"{case.label} repeat {rep}: cache inconsistent")
        return engine


def run_window(case, engine, budget, runs, ops):
    """`budget` seconds of timed `case.block`-event blocks continuing `engine`.

    The prefix that ran on it before was the warm-up.
    """
    deadline = perf_counter() + budget
    with ops.op(f"{case.label} timed blocks"):
        step = engine.step
        while perf_counter() < deadline:
            t0 = cpu_time()
            for _ in range(case.block):
                step()
            runs.blocks.append((cpu_time() - t0, case.block))
        ops.check(engine.cache_consistent(), f"{case.label} timed blocks: cache inconsistent")


def run_fresh_trajectory(job, wl, case, runs, ops):
    """One block of a stalling workload: a fresh trajectory, timed from its first step to the stall."""
    with ops.op(f"{case.label} timed trajectory"):
        runs.streams += 1
        _, engine = new_engine(wl, case, job["seed"], runs.streams, runs.model)
        step = engine.step
        events = 0
        t0 = cpu_time()
        try:
            while True:
                step()
                events += 1
        except Stalled:
            runs.blocks.append((cpu_time() - t0, events))
        ops.check(engine.cache_consistent(), f"{case.label} timed trajectory: cache inconsistent")


def fixed(job, wl, ops, gc_stats):
    """The per-layer run's work: one trajectory per case plus the CLI ensemble."""
    tracer = cli_run = None
    if job["traced"]:
        tracer = tracing.Tracer()
        cli_run = tracing.install(tracer)
    digests, cases = {}, []
    cli_range = None
    t0 = perf_counter()
    if wl.cli:
        with ops.op("cli traced-size run"):
            lo = len(tracer) if tracer else 0
            _, _, files, _ = cli_ensemble(wl, job["root"], job["seed"], wl.cli.trace_trajectories, cli_run)
            cli_range = (lo, len(tracer) if tracer else 0)
            digests.update({f"cli/{k}": v for k, v in files.items()})
    for case in wl.cases:
        engine = None
        with ops.op(f"{case.label} trajectory"):
            lo = len(tracer) if tracer else 0
            _, engine = new_engine(wl, case, job["seed"])
            events = run_events(wl, engine, case.trace_events)
            cases.append((case.label, lo, len(tracer) if tracer else 0, len(events)))
            digests[case.label] = digest(events)
            ops.check(engine.cache_consistent(), f"{case.label}: cache inconsistent")
    wall = perf_counter() - t0
    out = {"wall_s": wall, "digests": digests, "gc": gc_snapshot(gc_stats)}
    if tracer:
        out["spans"] = len(tracer)
        out["per_layer"] = tracing.analyze(tracer, cases, cli_range,
                                           wl.cli.trace_trajectories if wl.cli else 0)
        tracer.save(os.path.join(scratch_dir(job["root"]), f"spans-{wl.name}.npz"))
    return out


def recorded_digests(job, wl, ops):
    """The trajectories digests.json stores: every case, and the CLI files, at RECORDED_SEED."""
    out = {"cases": {}, "cli": {}}
    for case in wl.cases:
        engine = None
        with ops.op(f"{case.label} recorded-seed trajectory"):
            _, _, out["cases"][case.label], _, engine = case_trajectory(wl, case, RECORDED_SEED)
            ops.check(engine.cache_consistent(), f"{case.label}: cache inconsistent")
    if wl.cli:
        with ops.op("cli recorded-seed run"):
            _, _, out["cli"], _ = cli_ensemble(wl, job["root"], RECORDED_SEED, wl.cli.digest_trajectories)
    return out


def main():
    job = json.loads(sys.argv[1])
    here = os.path.realpath(os.path.join(job["root"], "src", "clocksim"))
    if os.path.dirname(os.path.realpath(clocksim.__file__)) != here:
        sys.exit(f"clocksim was imported from {clocksim.__file__}, not from {here}")
    wl = workloads.PROFILES[job["profile"]][job["workload"]]
    ops = Ops()
    gc_stats = tracing.GcStats()
    gc.callbacks.append(gc_stats)
    try:
        if job["mode"] in ("cli", "cases"):
            metrics, details = (timed_cli if job["mode"] == "cli" else timed_cases)(job, wl, ops)
            result = {"metrics": metrics, "details": details}
        elif job["mode"] == "fixed":
            result = fixed(job, wl, ops, gc_stats)
        else:
            result = {"digests": recorded_digests(job, wl, ops)}
    finally:
        gc.callbacks.remove(gc_stats)
    result.setdefault("gc", gc_snapshot(gc_stats))
    result.update(
        attempted=ops.attempted,
        failed=ops.failed,
        failures=ops.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        machine=machine(),
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
