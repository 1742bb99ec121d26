"""Smoke test of the benchmark harness at reduced size (the `smoke` profile).

Run with `python -m pytest perfbench`.  Each case starts run.py as the
BENCHMARK.json command does and reads the JSON object on its last stdout line.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def result(*args):
    proc = run("--profile", "smoke", "--seconds", "1", "--seed", "7", *args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m for m in json.load(fh)[section]}


def test_benchmark_json_matches_the_harness_tables():
    for section, table in (("end_to_end", workloads.END_TO_END), ("per_layer", workloads.PER_LAYER)):
        decl = declared(section)
        assert list(decl) == list(table)
        assert all((decl[n]["unit"], decl[n]["better"]) == table[n] for n in table)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(workload):
    res = result("--workload", workload, "--trace", "0")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {n: m["unit"] for n, m in res["metrics"].items()} == {n: u for n, (u, _) in workloads.END_TO_END.items()}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_per_layer_metrics_emitted_with_units_and_repeatable_counts():
    # sir-ensemble exercises every layer, the CLI included; the run fails
    # if two traced runs disagree on a counter
    res = result("--workload", "sir-ensemble", "--trace", "1")
    assert res["correct"] and res["failed"] == 0
    assert {n: m["unit"] for n, m in res["metrics"].items()} == {n: u for n, (u, _) in workloads.PER_LAYER.items()}
    assert all(m["value"] >= 0 for m in res["metrics"].values())
    assert res["metrics"]["kernel.write_ms_per_traj"]["value"] > 0


def test_wrong_digest_is_a_failure_not_a_number(tmp_path):
    with open(os.path.join(HERE, "digests.json")) as fh:
        doc = json.load(fh)
    doc["profiles"]["smoke"]["ring-large"]["cases"]["next-reaction"] = "0" * 64
    bad = tmp_path / "digests.json"
    bad.write_text(json.dumps(doc))
    res = result("--workload", "ring-large", "--trace", "0", "--digests", str(bad))
    assert not res["correct"] and res["failed"] >= 1
    assert all(m["value"] is None for m in res["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "rabbits", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
