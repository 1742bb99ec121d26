import concurrent.futures
import dataclasses
import multiprocessing
import os
import pathlib
import subprocess
import sys

import click
import pytest
import yaml
from click.testing import CliRunner

import clocksim
import clocksim.cli as cli_module
from clocksim import kernel, models
from clocksim.cli import RunSpec, cli
from clocksim.pool import fork_map

from test_acceptance import CRITERION_1_CASES


@pytest.fixture
def runner():
    return CliRunner()


def _count_builds(monkeypatch):
    """Names passed to models.build from now on."""
    calls = []
    real = models.build

    def counting(name, params=None):
        calls.append(name)
        return real(name, params)

    monkeypatch.setattr(models, "build", counting)
    return calls


def _read_traj_files(outdir):
    out = {}
    for name in sorted(os.listdir(outdir)):
        if name.startswith("traj_"):
            with open(os.path.join(outdir, name), "rb") as fh:
                out[name] = fh.read()
    return out


def test_run_writes_files_and_manifest(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(cli, [
        "run", "--model", "poisson", "--param", "rate=2.0", "--sampler", "direct",
        "--seed", "7", "--t-end", "3", "--trajectories", "4", "--output", str(out),
    ])
    assert result.exit_code == 0, result.output
    files = _read_traj_files(out)
    assert len(files) == 4
    with open(out / "manifest.yaml") as fh:
        manifest = yaml.safe_load(fh)
    assert manifest["model"] == "poisson"
    assert manifest["sampler"] == "direct"
    assert manifest["seed"] == 7
    assert len(manifest["files"]) == 4
    assert "wall_time_s" in manifest
    assert "model_hash" in manifest
    # RunSpec is the table of run settings: each but params (fed by --param)
    # is a run option, and the manifest records each but output
    settings = set(RunSpec.__dataclass_fields__)
    options = {p.name for p in cli.commands["run"].params}
    assert settings - {"params"} <= options
    runs = {"model_hash", "stream_derivation", "files", "events", "wall_time_s"}
    assert set(manifest) == settings - {"output"} | runs


def test_run_byte_identical_across_invocations(runner, tmp_path):
    def run(out, trajectories, workers):
        result = runner.invoke(cli, [
            "run", "--model", "sir", "--param", "n=4", "--param", "recover=weibull:2,1",
            "--sampler", "next-reaction", "--seed", "42", "--max-events", "10",
            "--trajectories", str(trajectories), "--workers", str(workers), "--output", str(out),
        ])
        with open(out / "manifest.yaml") as fh:
            manifest = yaml.safe_load(fh)
        return result.exit_code, _read_traj_files(out), manifest["files"], manifest["events"]

    for trajectories, workers in ((3, 1), (5, 3), (2, 4)):
        base = run(tmp_path / f"{trajectories}-1", trajectories, 1)
        assert base[0] == 0 and len(base[1]) == trajectories
        assert run(tmp_path / f"{trajectories}-{workers}", trajectories, workers) == base


def test_run_builds_the_model_once(runner, tmp_path, monkeypatch):
    calls = _count_builds(monkeypatch)
    result = runner.invoke(cli, [
        "run", "--model", "sir", "--param", "n=3", "--t-end", "1",
        "--trajectories", "5", "--workers", "1", "--output", str(tmp_path / "out"),
    ])
    assert result.exit_code == 0, result.output
    assert calls == ["sir"]


def test_one_trajectory_runs_in_process_whatever_the_workers(runner, tmp_path, monkeypatch):
    def run(workers):
        out = tmp_path / f"w{workers}"
        result = runner.invoke(cli, [
            "run", "--model", "sir", "--param", "n=4", "--sampler", "direct", "--seed", "5",
            "--max-events", "10", "--trajectories", "1", "--workers", str(workers), "--output", str(out),
        ])
        assert result.exit_code == 0, result.output
        return _read_traj_files(out)

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was forked for one trajectory")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert run(4) == run(1)


def test_forked_workers_inherit_the_built_model(runner, tmp_path, monkeypatch):
    # the count goes to a file, so a build in a forked worker counts too
    log = tmp_path / "builds"
    real = models.build

    def counting(name, params=None):
        with open(log, "a") as fh:
            fh.write(f"{name}\n")
        return real(name, params)

    monkeypatch.setattr(models, "build", counting)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    result = runner.invoke(cli, [
        "run", "--model", "sir", "--param", "n=3", "--t-end", "1",
        "--trajectories", "4", "--workers", "2", "--output", str(tmp_path / "out"),
    ])
    assert result.exit_code == 0, result.output
    assert log.read_text() == "sir\n"


def test_fork_map_hands_workers_what_cannot_be_pickled(monkeypatch):
    # a built model holds bound local rules and a lambda has no import path:
    # neither pickles, and forked workers inherit both
    model = models.build("sir", {"n": 3})
    tasks = [(model, lambda traj: [ev.clock for ev in traj.events], seed) for seed in range(4)]

    def fn(model, marks, seed):
        return marks(kernel.run_trajectory(model, "direct", seed, kernel.EventCount(5)))

    serial = [fn(*task) for task in tasks]
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert fork_map(fn, tasks) == serial
    assert multiprocessing.active_children() == []


def test_direct_runs_sir_past_its_last_continuous_hazard(runner, tmp_path):
    # Recoveries are atoms only, so once no infection clock is enabled the
    # hazard tree's leaves are all 0; the rounding residue of the cleared
    # leaves is no rate, and no slot is found in it.
    out = tmp_path / "out"
    result = runner.invoke(cli, [
        "run", "--model", "sir", "--param", "n=5", "--param", "recover=none@1,0.5",
        "--param", "infect=weibull:2,1", "--sampler", "direct", "--trajectories", "300",
        "--output", str(out),
    ])
    assert result.exit_code == 0, result.output
    assert len(_read_traj_files(out)) == 300


def test_unknown_sampler_exits_2_with_valid_names(runner, tmp_path):
    result = runner.invoke(cli, [
        "run", "--model", "poisson", "--sampler", "bogus", "--t-end", "1",
        "--output", str(tmp_path / "x"),
    ])
    assert result.exit_code == 2
    assert "first-reaction" in result.output and "direct" in result.output


def test_bad_hierarchical_partition_exits_2(runner, tmp_path):
    for spec in (
        "hierarchical:direct=a",
        "hierarchical:direct=5-3",
        "hierarchical:direct=0-5;next-reaction=3-8",
        "hierarchical:direct;next-reaction=rest",
        "hierarchical:direct=;next-reaction=rest",
        "hierarchical",
        # ring m=4 has clocks 0-3: a child that owns only absent clocks, a clock no part
        # covers, and a catch-all left with no clock
        "hierarchical:direct=0-3;next-reaction=4-9",
        "hierarchical:direct=0-2",
        "hierarchical:direct=0-3;next-reaction=rest",
    ):
        result = runner.invoke(cli, [
            "run", "--model", "ring", "--param", "m=4", "--sampler", spec, "--max-events", "3",
            "--output", str(tmp_path / "x"),
        ])
        assert result.exit_code == 2, (spec, result.output)
        assert not os.path.exists(tmp_path / "x"), spec


def test_a_partition_wider_than_the_model_exits_2_with_a_short_message(runner, tmp_path):
    result = runner.invoke(cli, [
        "run", "--model", "ring", "--param", "m=4", "--sampler", "hierarchical:direct=0-999999;next-reaction=rest",
        "--max-events", "3", "--output", str(tmp_path / "x"),
    ])
    assert result.exit_code == 2
    assert len(result.output) < 500, len(result.output)
    assert "clocks 4-999999 that the model lacks" in result.output


def test_unknown_model_and_bad_param_exit_2(runner, tmp_path):
    result = runner.invoke(cli, ["run", "--model", "nope", "--output", str(tmp_path / "x")])
    assert result.exit_code == 2
    result = runner.invoke(cli, [
        "run", "--model", "sir", "--param", "n=-3", "--output", str(tmp_path / "x"),
    ])
    assert result.exit_code == 2
    result = runner.invoke(cli, [
        "run", "--model", "poisson", "--param", "oops", "--output", str(tmp_path / "x"),
    ])
    assert result.exit_code == 2
    # an atom at the enabling instant would be an immediate event
    result = runner.invoke(cli, [
        "run", "--model", "renewal", "--param", "interarrival=none@0,0.5", "--max-events", "3",
        "--output", str(tmp_path / "x"),
    ])
    assert result.exit_code == 2, result.output
    assert "atom offset must be finite and > 0" in result.output


@pytest.mark.parametrize("interarrival", ["piecewise:0,nan|1,2", "piecewise:0,inf|1,2"])
def test_non_finite_piecewise_breakpoint_exits_2(runner, tmp_path, interarrival):
    result = runner.invoke(cli, [
        "run", "--model", "renewal", "--param", f"interarrival={interarrival}",
        "--max-events", "3", "--output", str(tmp_path / "x"),
    ])
    assert result.exit_code == 2, result.output
    assert "breakpoints must be finite" in result.output


def test_unknown_param_exits_2(runner, tmp_path):
    result = runner.invoke(cli, [
        "run", "--model", "sir", "--param", "n=3", "--param", "initial_infectd=2",
        "--max-events", "5", "--output", str(tmp_path / "x"),
    ])
    assert result.exit_code == 2, result.output
    assert "initial_infectd" in result.output


def test_repeated_param_key_exits_2_but_a_param_overrides_the_config_file(runner, tmp_path):
    result = runner.invoke(cli, [
        "run", "--model", "ring", "--param", "m=4", "--param", " m=6", "--max-events", "3",
        "--output", str(tmp_path / "x"),
    ])
    assert result.exit_code == 2, result.output
    assert "--param 'm' is given more than once" in result.output
    assert not os.path.exists(tmp_path / "x")
    cfg = tmp_path / "run.yaml"
    doc = {"model": "ring", "params": {"m": 4}, "max_events": 3, "output": str(tmp_path / "y")}
    cfg.write_text(yaml.safe_dump(doc))
    result = runner.invoke(cli, ["run", "--config", str(cfg), "--param", "m=6"])
    assert result.exit_code == 0, result.output
    with open(tmp_path / "y" / "manifest.yaml") as fh:
        assert yaml.safe_load(fh)["params"] == {"m": 6}


@pytest.mark.parametrize("sampler", ["direct", "next-reaction"])
@pytest.mark.parametrize("workers", ["1", "2"])
def test_model_error_mid_run_exits_2(runner, tmp_path, workers, sampler):
    # both initially infected individuals' recovery atoms land at t = 1.5
    result = runner.invoke(cli, [
        "run", "--model", "sir", "--param", "n=3", "--param", "initial_infected=2",
        "--param", "recover=weibull:2,1@1.5,0.5", "--sampler", sampler,
        "--max-events", "20", "--trajectories", "2", "--workers", workers,
        "--output", str(tmp_path / "x"),
    ])
    assert result.exit_code == 2, result.output
    assert "DuplicateAtoms" in result.output


def test_stalled_before_any_event_exits_3(runner, tmp_path):
    result = runner.invoke(cli, [
        "run", "--model", "sir", "--param", "n=2", "--param", "initial_infected=0",
        "--max-events", "5", "--output", str(tmp_path / "x"),
    ])
    assert result.exit_code == 3


def test_config_file_with_flag_overrides(runner, tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump({
        "model": "poisson", "params": {"rate": 1.0}, "sampler": "direct",
        "seed": 1, "trajectories": 2, "t_end": 2.0, "output": str(tmp_path / "from_file"),
    }))
    result = runner.invoke(cli, ["run", "--config", str(cfg)])
    assert result.exit_code == 0, result.output
    assert len(_read_traj_files(tmp_path / "from_file")) == 2
    # flag overrides the file's sampler and output
    result = runner.invoke(cli, [
        "run", "--config", str(cfg), "--sampler", "next-to-fire",
        "--output", str(tmp_path / "over"),
    ])
    assert result.exit_code == 0
    with open(tmp_path / "over" / "manifest.yaml") as fh:
        assert yaml.safe_load(fh)["sampler"] == "next-to-fire"


@pytest.mark.parametrize("fields, flags", [
    ({"params": [1, 2]}, []),
    ({"seed": "abc"}, []),
    ({"seed": True}, []),
    ({"trajectories": "3"}, []),
    ({"workers": 1.5}, []),
    ({"max_events": 2.5}, []),
    ({"max_events": None, "t_end": "soon"}, []),
    ({}, ["--seed", "-1"]),
    ({}, ["--seed", str(2**64)]),
    ({"trajectories": 0}, []),
    ({"workers": 0}, []),
    ({"model": 5}, []),
    ({"sampler": ["direct"]}, []),
    ({"output": 7}, []),
], ids=["params-list", "seed-str", "seed-bool", "trajectories-str", "workers-float",
        "max_events-float", "t_end-str", "seed-negative", "seed-2**64", "trajectories-0", "workers-0",
        "model-int", "sampler-list", "output-int"])
def test_malformed_config_value_exits_2(runner, tmp_path, monkeypatch, fields, flags):
    monkeypatch.chdir(tmp_path)  # where a relative output directory would go
    cfg = tmp_path / "run.yaml"
    doc = {"model": "poisson", "max_events": 3, "output": str(tmp_path / "x")}
    cfg.write_text(yaml.safe_dump({**doc, **fields}))
    result = runner.invoke(cli, ["run", "--config", str(cfg), *flags])
    assert result.exit_code == 2, result.output
    assert os.listdir(tmp_path) == ["run.yaml"]


@pytest.mark.parametrize("text", ["model: [poisson\n", "- model\n- poisson\n", "[]\n"],
                         ids=["not-yaml", "top-level-list", "empty-list"])
def test_config_file_that_is_not_a_yaml_mapping_exits_2(runner, tmp_path, text):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(text)
    result = runner.invoke(cli, ["run", "--config", str(cfg), "--output", str(tmp_path / "x")])
    assert result.exit_code == 2, result.output
    assert str(cfg) in result.output
    assert not os.path.exists(tmp_path / "x")


def test_internal_error_exits_4_with_its_traceback(runner, tmp_path, monkeypatch):
    error = KeyError("boom")

    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(kernel, "run_trajectory", broken)
    args = ["run", "--model", "poisson", "--max-events", "3", "--output", str(tmp_path / "x")]
    result = runner.invoke(cli, args)
    assert result.exit_code == 4, result.output
    assert "Traceback" in result.stderr and "KeyError: 'boom'" in result.stderr
    # in process, without click's standalone handling, the code still reaches the caller
    with pytest.raises(SystemExit) as exc:
        cli.main(args=args, prog_name="clocksim", standalone_mode=False)
    assert exc.value.code == 4
    # click's own exceptions pass through unchanged, and so does a broken pipe, which click ends quietly
    with pytest.raises(click.UsageError):
        cli.main(args=[*args, "--sampler", "bogus"], prog_name="clocksim", standalone_mode=False)
    error = BrokenPipeError()
    with pytest.raises(BrokenPipeError):
        cli.main(args=args, prog_name="clocksim", standalone_mode=False)


@pytest.mark.parametrize("fields", [
    {"t_end": 5},
    {"params": None, "max_events": 3},
    {"max_events": None, "t_end": 2.5},
], ids=["t_end-int", "params-null", "max_events-null"])
def test_well_formed_config_value_runs(runner, tmp_path, fields):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump({"model": "poisson", "output": str(tmp_path / "x"), **fields}))
    result = runner.invoke(cli, ["run", "--config", str(cfg)])
    assert result.exit_code == 0, result.output
    assert len(_read_traj_files(tmp_path / "x")) == 1


@pytest.mark.parametrize("source", ["config", "flag"])
@pytest.mark.parametrize("output", ["afile", "", "afile/sub"],
                         ids=["existing-file", "empty", "under-a-file"])
def test_output_that_cannot_be_a_directory_exits_2(runner, tmp_path, source, output):
    (tmp_path / "afile").write_text("not a directory\n")
    path = str(tmp_path / output) if output else ""
    cfg = tmp_path / "run.yaml"
    doc = {"model": "poisson", "max_events": 3}
    if source == "config":
        cfg.write_text(yaml.safe_dump({**doc, "output": path}))
        result = runner.invoke(cli, ["run", "--config", str(cfg)])
    else:
        cfg.write_text(yaml.safe_dump(doc))
        result = runner.invoke(cli, ["run", "--config", str(cfg), "--output", path])
    assert result.exit_code == 2, result.output
    assert repr(path) in result.output
    assert isinstance(result.exception, SystemExit)  # a usage error, not a traceback


def test_run_spec_round_trip():
    spec = RunSpec(model="sir", params={"n": 5, "recover": "weibull:2,1"},
                   sampler="direct", seed=9, trajectories=4, t_end=2.5,
                   output="somewhere", workers=2)
    doc = yaml.safe_load(yaml.safe_dump(dataclasses.asdict(spec)))
    assert RunSpec.from_dict(doc) == spec


def test_readme_config_schema_is_a_valid_run_spec():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Config file schema", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    model = RunSpec.from_dict(yaml.safe_load(block)).validate()
    assert model.name == "sir"


def test_readme_table_example_is_a_valid_run_spec():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = "model: table\n" + readme.split("```yaml\nmodel: table\n", 1)[1].split("```", 1)[0]
    model = RunSpec.from_dict(yaml.safe_load(block)).validate()
    assert [c.name for c in model.clocks] == ["arrive", "serve"]


def test_run_spec_rejects_unknown_fields():
    from clocksim.errors import ConfigError

    with pytest.raises(ConfigError):
        RunSpec.from_dict({"model": "poisson", "bogus": 1})
    with pytest.raises(ConfigError, match="unknown config fields"):  # YAML keys need not be strings
        RunSpec.from_dict({"model": "poisson", "bogus": 1, 1: "x"})
    with pytest.raises(ConfigError):
        RunSpec.from_dict({})
    with pytest.raises(ConfigError):
        RunSpec(model="poisson", t_end=1.0, max_events=5).validate()


def test_summarize_event_count_and_interarrival(runner, tmp_path):
    out = tmp_path / "out"
    runner.invoke(cli, [
        "run", "--model", "poisson", "--sampler", "first-reaction", "--seed", "3",
        "--max-events", "5", "--trajectories", "2", "--output", str(out),
    ])
    files = [str(out / f) for f in sorted(os.listdir(out)) if f.startswith("traj_")]
    result = runner.invoke(cli, ["summarize", "--observable", "event-count", *files])
    assert result.exit_code == 0
    lines = result.output.strip().split("\n")
    assert lines[0] == "file\tevents"
    assert all(line.endswith("\t5") for line in lines[1:])
    result = runner.invoke(cli, ["summarize", "--observable", "interarrival", *files])
    assert result.exit_code == 0
    rows = result.output.strip().split("\n")[1:]
    assert len(rows) == 10
    assert all(float(r) > 0 for r in rows)


def test_summarize_final_state_histogram(runner, tmp_path, monkeypatch):
    out = tmp_path / "out"
    runner.invoke(cli, [
        "run", "--model", "sir", "--param", "n=2", "--sampler", "direct", "--seed", "5",
        "--t-end", "50", "--trajectories", "6", "--output", str(out),
    ])
    files = [str(out / f) for f in sorted(os.listdir(out)) if f.startswith("traj_")]
    calls = _count_builds(monkeypatch)
    result = runner.invoke(cli, ["summarize", "--observable", "final-state", *files])
    assert result.exit_code == 0, result.output
    assert calls == ["sir"]  # one build for the six files' shared header
    lines = result.output.strip().split("\n")
    assert lines[0] == "final_state\tcount"
    total = sum(int(line.rsplit("\t", 1)[1]) for line in lines[1:])
    assert total == 6


def test_summarize_final_state_checks_the_model_hash(runner, tmp_path):
    out = tmp_path / "out"
    runner.invoke(cli, ["run", "--model", "ring", "--param", "m=4", "--param", "tokens=1", "--seed", "1",
                        "--max-events", "3", "--output", str(out)])
    written = out / "traj_000000.tsv"
    text = written.read_text()
    result = runner.invoke(cli, ["summarize", "--observable", "final-state", str(written)])
    assert result.exit_code == 0, result.output
    # a header edited to another model, or without its hash, is not replayed
    edited = tmp_path / "edited.tsv"
    edited.write_text(text.replace('"m": 4', '"m": 5'))
    unhashed = tmp_path / "unhashed.tsv"
    unhashed.write_text("".join(line for line in text.splitlines(keepends=True)
                                if not line.startswith("# model_hash:")))
    for bad in (edited, unhashed):
        assert bad.read_text() != text
        result = runner.invoke(cli, ["summarize", "--observable", "final-state", str(written), str(bad)])
        assert result.exit_code == 2, (bad, result.output)
        assert f"{bad}: cannot replay (model_hash " in result.output


def test_summarize_no_files_exits_2(runner):
    result = runner.invoke(cli, ["summarize", "--observable", "event-count"])
    assert result.exit_code == 2


def test_summarize_malformed_file_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.tsv"
    # bad columns, a field that is not a number, a final time that is not one, bytes that are not text
    for content in (b"not a valid line\n", b"0\tabc\t0\n", b"# final_time: x\n", b"\xff\xfe\n"):
        bad.write_bytes(b"# clocksim trajectory v1\n" + content)
        result = runner.invoke(cli, ["summarize", "--observable", "event-count", str(bad)])
        assert result.exit_code == 2, (content, result.output)


def test_summarize_truncated_file_exits_2(runner, tmp_path):
    out = tmp_path / "out"
    runner.invoke(cli, [
        "run", "--model", "poisson", "--max-events", "5", "--output", str(out),
    ])
    lines = (out / "traj_000000.tsv").read_text().splitlines(keepends=True)
    assert "# events: 5\n" in lines
    truncated = tmp_path / "truncated.tsv"
    truncated.write_text("".join(lines[:-2]))
    # the header's count kept right, but the seq column skips event 2
    spliced = tmp_path / "spliced.tsv"
    spliced.write_text("".join(lines[:-3] + lines[-2:]).replace("# events: 5", "# events: 4"))
    for bad in (truncated, spliced):
        result = runner.invoke(cli, ["summarize", "--observable", "event-count", str(bad)])
        assert result.exit_code == 2, (bad, result.output)


@pytest.mark.parametrize("times", [
    ("1.0", "0.5", "nan"), ("1.0", "1.0", "2.0"), ("-1.0", "1.0", "2.0"), ("1.0", "2.0", "inf"),
], ids=["backwards-then-nan", "repeated", "negative", "infinite"])
def test_summarize_bad_event_times_exits_2(runner, tmp_path, times):
    out = tmp_path / "out"
    runner.invoke(cli, ["run", "--model", "poisson", "--max-events", "3", "--output", str(out)])
    lines = (out / "traj_000000.tsv").read_text().splitlines(keepends=True)
    header = [line for line in lines if line.startswith("#")]
    bad = tmp_path / "bad.tsv"
    bad.write_text("".join(header) + "".join(f"{i}\t{t}\t0\n" for i, t in enumerate(times)))
    result = runner.invoke(cli, ["summarize", "--observable", "interarrival", str(bad)])
    assert result.exit_code == 2, result.output
    assert "event times must be finite, >= 0 and strictly increasing" in result.output


def test_summarize_final_state_bad_initial_state_exits_2(runner, tmp_path):
    out = tmp_path / "out"
    runner.invoke(cli, ["run", "--model", "poisson", "--max-events", "3", "--output", str(out)])
    text = (out / "traj_000000.tsv").read_text()
    # the model_hash pins the initial state; a well-formed but other one is not replayed either
    for value in ("5", '{"n": "x"}', '{"n": 1.5}', '{"n": true}', '{"n": -1}', "not json", '{"n": 5}'):
        bad = tmp_path / "bad.tsv"
        bad.write_text(text.replace("# initial_state: {}", f"# initial_state: {value}"))
        result = runner.invoke(cli, ["summarize", "--observable", "final-state", str(bad)])
        assert result.exit_code == 2, (value, result.output)
        assert "cannot replay" in result.output


# (model flags, the one event line written over a real file's events, the replay's complaint)
IMPOSSIBLE_FILES = {
    # infect_2_1 fires while individual 2 is still susceptible
    "disabled-clock": (["--model", "sir", "--param", "n=3"], "0\t0.5\t5\n",
                       "event 0: clock 5 at time 0.5 is not enabled"),
    # a uniform:0.5,2 interarrival has no hazard before 0.5
    "no-intensity": (["--model", "renewal", "--param", "interarrival=uniform:0.5,2"], "0\t0.3\t0\n",
                     "event 0: clock 0 at time 0.29999999999999999 has no intensity"),
    # the kernel would nudge a jump at 0 one ulp later
    "at-start": (["--model", "poisson"], "0\t0\t0\n", "event 0: clock 0 at time 0 is not after 0"),
    # a uniform:0.5,2 interarrival's survival is 0 from 2 on
    "past-support-end": (["--model", "renewal", "--param", "interarrival=uniform:0.5,2"], "0\t3\t0\n",
                         "event 0: clock 0 at time 3 has no intensity"),
}


@pytest.mark.parametrize("flags, event, message", IMPOSSIBLE_FILES.values(), ids=IMPOSSIBLE_FILES)
def test_summarize_final_state_rejects_a_path_the_kernel_could_not_write(runner, tmp_path, flags, event, message):
    out = tmp_path / "out"
    result = runner.invoke(cli, ["run", *flags, "--seed", "1", "--max-events", "1", "--output", str(out)])
    assert result.exit_code == 0, result.output
    written = out / "traj_000000.tsv"
    result = runner.invoke(cli, ["summarize", "--observable", "final-state", str(written)])
    assert result.exit_code == 0, result.output
    # the edited run ends at its one event, as a run stopped after one event does
    ended = f"# final_time: {event.split()[1]}\n"
    header = [ended if line.startswith("# final_time:") else line
              for line in written.read_text().splitlines(keepends=True) if line.startswith("#")]
    bad = tmp_path / "bad.tsv"
    assert "# events: 1\n" in header and ended in header
    bad.write_text("".join(header) + event)
    result = runner.invoke(cli, ["summarize", "--observable", "final-state", str(bad)])
    assert result.exit_code == 2, result.output
    assert f"{bad}: cannot replay ({message})" in result.output


QUEUE_CONFIG = """\
model: table
params:
  clocks:
    - {hazard: "exponential:1.2", mark: {q: 1}, name: arrive}
    - {hazard: "weibull:2,1", mark: {q: -1}, need: {q: 1}, anchor: q, name: serve}
sampler: direct
trajectories: 3
max_events: 20
"""


def test_table_model_files_replay_from_their_headers(runner, tmp_path):
    cfg = tmp_path / "queue.yaml"
    cfg.write_text(QUEUE_CONFIG)
    out = tmp_path / "out"
    result = runner.invoke(cli, ["run", "--config", str(cfg), "--output", str(out)])
    assert result.exit_code == 0, result.output
    files = sorted(str(path) for path in out.glob("traj_*.tsv"))
    result = runner.invoke(cli, ["summarize", "--observable", "final-state", *files])
    assert result.exit_code == 0, result.output
    assert sum(int(line.rsplit("\t", 1)[1]) for line in result.output.strip().split("\n")[1:]) == 3
    # the server cannot fire while the queue is empty
    header = [line for line in pathlib.Path(files[0]).read_text().splitlines(keepends=True) if line.startswith("#")]
    bad = tmp_path / "bad.tsv"
    bad.write_text("".join(header).replace("# events: 20\n", "# events: 1\n") + "0\t0.5\t1\n")
    result = runner.invoke(cli, ["summarize", "--observable", "final-state", str(bad)])
    assert result.exit_code == 2, result.output
    assert f"{bad}: cannot replay (event 0: clock 1 at time 0.5 is not enabled)" in result.output


def test_a_criterion_1_race3_file_summarizes(runner, tmp_path):
    # race3 is a table model, so its file's header rebuilds it
    label, model, stop, _ = CRITERION_1_CASES[0]
    assert label == "race3"
    path = tmp_path / "race3.tsv"
    with open(path, "w") as fh:
        kernel.write_trajectory(fh, kernel.run_trajectory(model, "direct", 1, stop), model)
    result = runner.invoke(cli, ["summarize", "--observable", "final-state", str(path)])
    assert result.exit_code == 0, result.output
    assert result.output.split("\n")[1].endswith("\t1")


def test_hierarchical_sampler_spec_accepted(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(cli, [
        "run", "--model", "sir", "--param", "n=3", "--param", "recover=weibull:2,1",
        "--sampler", "hierarchical:direct=0-5;next-reaction=rest",
        "--seed", "4", "--t-end", "2", "--trajectories", "2", "--output", str(out),
    ])
    assert result.exit_code == 0, result.output
    assert len(_read_traj_files(out)) == 2


def test_verify_unknown_suite_exits_2(runner):
    result = runner.invoke(cli, ["verify", "nonsense"])
    assert result.exit_code == 2
    assert "distributions" in result.output and "hazard-round-trip" in result.output


def test_verify_distributions_suite_passes(runner):
    result = runner.invoke(cli, ["verify", "distributions"])
    assert result.exit_code == 0, result.output
    assert "PASS" in result.output
    assert "FAIL" not in result.output


def test_verify_oracle_suite_passes(runner):
    result = runner.invoke(cli, ["verify", "oracle"])
    assert result.exit_code == 0, result.output
    assert [line.split()[-1] for line in result.output.strip().split("\n")] == ["PASS", "PASS"]


def test_verify_hazard_round_trip_suite_passes(runner):
    result = runner.invoke(cli, ["verify", "hazard-round-trip"])
    assert result.exit_code == 0, result.output
    assert [line.split()[-1] for line in result.output.strip().split("\n")] == ["PASS"]


def test_verify_runs_suites_in_order_and_exits_1_on_a_failed_check(runner, monkeypatch):
    ran = []

    def suite(name, ok):
        def run(verify):
            ran.append(name)
            return [(f"{name} check", "stats", ok)]
        return run

    monkeypatch.setattr(cli_module, "_SUITES", {
        "first": suite("first", True), "second": suite("second", False), "third": suite("third", True),
    })
    result = runner.invoke(cli, ["verify", "all"])
    assert result.exit_code == 1, result.output
    assert ran == ["first", "second", "third"]
    assert [line.split()[0] for line in result.stdout.splitlines()] == ran
    assert result.stderr == "1 check(s) failed\n"
    ran.clear()
    result = runner.invoke(cli, ["verify", "second"])
    assert (result.exit_code, ran, result.stderr) == (1, ["second"], "1 check(s) failed\n")
    result = runner.invoke(cli, ["verify", "third"])
    assert (result.exit_code, ran, result.stderr) == (0, ["second", "third"], "")


# `clocksim run` in a fresh interpreter, then the scipy modules it imported
_RUN_THEN_LIST_SCIPY = """
import sys
from clocksim.cli import cli
cli.main(sys.argv[1:], standalone_mode=False)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def _this_clocksim_env():
    """The environment of a fresh interpreter that imports this clocksim."""
    src = os.path.dirname(os.path.dirname(clocksim.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _fresh_python(code, *args):
    """The last line `code` prints in a fresh interpreter importing this clocksim."""
    done = subprocess.run([sys.executable, "-c", code, *args], env=_this_clocksim_env(),
                          capture_output=True, text=True, check=True)
    return done.stdout.strip().splitlines()[-1]


def test_python_dash_m_clocksim_is_the_cli():
    done = subprocess.run([sys.executable, "-m", "clocksim", "verify", "distributions"],
                          env=_this_clocksim_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    rows = done.stdout.splitlines()
    assert len(rows) == 11 and all(row.startswith("distributions ") and row.endswith("PASS") for row in rows)


def test_main_runs_an_argument_list_in_process(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as done:
        cli_module.main(["run", "--model", "poisson", "--max-events", "3", "--output", str(out)])
    assert done.value.code == 0
    assert len(_read_traj_files(out)) == 1


def _scipy_modules_after_run(tmp_path, *args):
    loaded = _fresh_python(_RUN_THEN_LIST_SCIPY, "run", *args, "--max-events", "10",
                           "--output", str(tmp_path / "out"))
    assert os.listdir(tmp_path / "out")
    return loaded


@pytest.mark.parametrize("args", [
    ("--model", "ring", "--param", "m=8", "--sampler", "next-reaction"),
    ("--model", "ring", "--param", "m=8", "--sampler", "direct"),
    # direct's root finder on time-varying hazards
    ("--model", "sir", "--param", "n=3", "--param", "recover=weibull:2,1", "--sampler", "direct"),
], ids=["ring-next-reaction", "ring-direct", "sir-weibull-direct"])
def test_run_without_gamma_clocks_never_imports_scipy(tmp_path, args):
    assert _scipy_modules_after_run(tmp_path, *args) == "[]"


def test_run_on_gamma_clocks_imports_scipy_special_on_use(tmp_path):
    loaded = _scipy_modules_after_run(tmp_path, "--model", "sir", "--param", "n=3",
                                      "--param", "recover=gamma:2,1", "--sampler", "direct")
    assert "'scipy.special'" in loaded


def test_importing_the_cli_loads_no_process_pool():
    # only `clocksim run` with more than one worker forks a pool
    loaded = _fresh_python(
        "import sys, clocksim.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    assert loaded == "[]"


def test_the_console_entry_point_reads_no_setting_from_the_environment(tmp_path, monkeypatch):
    # flags and --config are the only sources of a run setting
    monkeypatch.setenv("CLOCKSIM_RUN_SEED", "5")
    monkeypatch.setenv("CLOCKSIM_RUN_SAMPLER", "direct")
    out = tmp_path / "out"
    _fresh_python("from clocksim.cli import main; main()",
                  "run", "--model", "poisson", "--max-events", "2", "--output", str(out))
    with open(out / "manifest.yaml") as fh:
        manifest = yaml.safe_load(fh)
    assert (manifest["seed"], manifest["sampler"]) == (0, "first-reaction")
