#!/usr/bin/env python3
"""The clocksim benchmark: one workload, end to end or per layer.

    python3 perfbench/run.py --workload ring-large --seed 3 --seconds 15 --trace 0

Runs the program in src/ next to this directory, in fresh worker processes.
Prints one detail line (machine, block percentiles and counts, failures)
and, last, one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  The detail line also goes to .perfbench_out/results/ for
compare.py.  `--record-digests` rewrites digests.json from the current
program, for a change that alters trajectories on purpose.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
DIGESTS = os.path.join(HERE, "digests.json")
OUT = os.path.join(ROOT, ".perfbench_out")
TIME_LIMIT_S = 170  # one invocation must end within 180 s


class HarnessError(Exception):
    pass


def spawn(job, deadline):
    """Run one worker job to completion and return its result object.

    Every workload repeat runs in a fresh process: kernel._MODEL_TABLES keeps
    the tables of every model built, and the collector's work grows with
    them, so a second repeat in one process would measure another state.
    """
    env = dict(
        os.environ,
        PYTHONPATH=os.path.join(ROOT, "src"),
        # fixed string hashing keeps the GC counters of two runs identical
        PYTHONHASHSEED="0",
        # one core: no idle BLAS threads beside the single caller
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
    )
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, WORKER, json.dumps(job)], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"worker {job['mode']} exceeded the time limit") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise HarnessError(f"worker {job['mode']} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(job, deadline):
    """The sampler cases and, where the workload has one, the CLI ensemble.

    The ensemble runs in a process of its own, as `clocksim run` does: the
    tables it leaks would otherwise slow the collector for the cases, and
    the cases' tables would slow it for the ensemble.
    """
    wl = workloads.PROFILES[job["profile"]][job["workload"]]
    parts = [spawn({**job, "mode": mode}, deadline) for mode in (("cli", "cases") if wl.cli else ("cases",))]
    values = {k: v for r in parts for k, v in r["metrics"].items()}
    values["peak_rss_mb"] = max(r["peak_rss_mb"] for r in parts)
    detail = {"details": {k: v for r in parts for k, v in r["details"].items()},
              "gc": [r["gc"] for r in parts], "machine": parts[-1]["machine"]}
    attempted = sum(r["attempted"] for r in parts)
    failed = sum(r["failed"] for r in parts)
    failures = [f for r in parts for f in r["failures"]]
    return values, attempted, failed, failures, detail, workloads.END_TO_END


def per_layer(job, deadline):
    """One untraced and two traced runs of the same fixed work."""
    plain = spawn({**job, "mode": "fixed", "traced": False}, deadline)
    runs = [spawn({**job, "mode": "fixed", "traced": True}, deadline) for _ in range(2)]
    attempted = sum(r["attempted"] for r in (plain, *runs)) + 2
    failed = sum(r["failed"] for r in (plain, *runs))
    failures = [f for r in (plain, *runs) for f in r["failures"]]
    # tracing must not change a trajectory, and two runs at one seed agree
    if not plain["digests"] == runs[0]["digests"] == runs[1]["digests"]:
        failed += 1
        failures.append("trajectories differ between the untraced and the two traced runs")
    counts = []
    for r in runs:
        layer = {**r["per_layer"], "gc.gen2_collections": r["gc"]["gen2_collections"]}
        counts.append({k: v for k, v in layer.items() if workloads.is_deterministic(k)})
    if counts[0] != counts[1]:
        failed += 1
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        failures.append(f"counters differ between two traced runs: {diff}")
    traced = runs[0]
    values = {
        **traced["per_layer"],
        "gc.gen2_collections": traced["gc"]["gen2_collections"],
        "gc.pause_ms": traced["gc"]["pause_ms"],
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
    }
    detail = {
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": [r["wall_s"] for r in runs],
        "spans": traced["spans"],
        "machine": traced["machine"],
    }
    return values, attempted, failed, failures, detail, workloads.PER_LAYER


def record_digests(deadline):
    """Digests of every profile and workload at RECORDED_SEED, from two fresh runs that must agree."""
    doc = {"seed": workloads.RECORDED_SEED, "profiles": {}}
    for profile, table in workloads.PROFILES.items():
        for name in table:
            job = {"root": ROOT, "profile": profile, "workload": name, "mode": "digests"}
            first, second = (spawn(job, deadline) for _ in range(2))
            if first["failed"] or second["failed"]:
                raise HarnessError(f"{profile}/{name}: {first['failures'] + second['failures']}")
            if first["digests"] != second["digests"]:
                raise HarnessError(f"{profile}/{name}: two runs at one seed differ")
            doc["profiles"].setdefault(profile, {})[name] = first["digests"]
    with open(DIGESTS, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.RECORDED_SEED)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=tuple(workloads.PROFILES), default="full",
                        help="smoke: reduced sizes for the harness's own test")
    parser.add_argument("--digests", default=DIGESTS, help="stored digests to check against")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "clocksim", "__init__.py")):
        print(f"no clocksim sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        if args.record_digests:
            record_digests(deadline)
            return 0
        if args.workload is None or args.seconds < 1:
            parser.error("--workload and --seconds >= 1 are required")
        with open(args.digests) as fh:
            expected = json.load(fh)["profiles"][args.profile][args.workload]
        job = {"root": ROOT, "profile": args.profile, "workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "expected": expected}
        measure = per_layer if args.trace else end_to_end
        values, attempted, failed, failures, detail, table = measure(job, deadline)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    missing = sorted(set(table) - set(values))
    if missing and not failed:
        print(f"benchmark error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    # a run with any failed operation reports no numbers
    metrics = {name: {"value": None if failed else values[name], "unit": unit}
               for name, (unit, _) in table.items()}
    record = {"workload": args.workload, "profile": args.profile, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "failures": failures, **detail,
              "values": {k: values.get(k) for k in table}}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(OUT, "results", f"{args.workload}-t{args.trace}-s{args.seed}-{stamp}-{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
