"""Command-line front end: run models, verify, summarize trajectories.

`RunSpec`'s fields are the one table of `clocksim run` settings: each is a
YAML config key and a `run` flag (flags win); nothing is read from the
environment.  Values from both sources are checked on one path, each setting by
the rule that owns it (`RunSpec.validate`).  Exit codes: 0 success,
1 verification failure, 2 configuration/usage error, 3 a trajectory stalled
before producing any event under an event-count stop, 4 internal error (any
other exception; its traceback goes to stderr).
"""

from __future__ import annotations

import json
import os
import time
import traceback
from dataclasses import asdict, dataclass, field

import click
import yaml

from . import kernel, models
from .clocks import _check_integer, _mapping
from .errors import ClocksimError, ConfigError, ModelError
from .pool import fork_map
from .samplers import SAMPLER_NAMES, HierarchicalSampler, make_sampler


@dataclass
class RunSpec:
    """Validated description of one `clocksim run` invocation."""

    model: str
    params: dict = field(default_factory=dict)
    sampler: str = "first-reaction"
    seed: int = 0
    trajectories: int = 1
    t_end: float | None = None
    max_events: int | None = None
    output: str = "out"
    workers: int = 1

    @classmethod
    def from_dict(cls, doc: dict) -> "RunSpec":
        extra = set(doc) - cls.__dataclass_fields__.keys()
        if extra:
            raise ConfigError(f"unknown config fields: {sorted(extra, key=str)}")
        if "model" not in doc:
            raise ConfigError("missing required field 'model'")
        return cls(**doc)

    def stop(self):
        if self.t_end is not None and self.max_events is not None:
            raise ConfigError("give only one of t_end / max_events")
        if self.t_end is not None:
            return kernel.EndTime(self.t_end)
        if self.max_events is not None:
            return kernel.EventCount(self.max_events)
        return kernel.StalledOnly()

    def validate(self) -> models.Model:
        """Check every field; returns the model, built once here."""
        for name in ("model", "sampler", "output"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ConfigError(f"{name} must be a string, got {value!r}")
        _check_integer("seed", self.seed, 0, ConfigError, kernel.SEED_BOUND)
        _check_integer("trajectories", self.trajectories, 1, ConfigError)
        _check_integer("workers", self.workers, 1, ConfigError)
        self.stop()
        sampler = make_sampler(self.sampler)
        model = models.build(self.model, self.params)
        if isinstance(sampler, HierarchicalSampler):
            sampler.check_partition(model.by_id)
        return model


def _parse_param_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _load_run_spec(config, param, flags) -> tuple[RunSpec, models.Model]:
    """The config file's values, then `--param` items (each key once), then every flag given."""
    doc = {}
    if config:
        try:
            with open(config) as fh:
                loaded = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{config}: {exc}") from exc
        doc.update(_mapping(f"{config}: top level", loaded, ConfigError))
    params = _mapping("params", doc.get("params"), ConfigError)
    given = {}
    for item in param:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--param needs key=value, got {item!r}")
        key = key.strip()
        if key in given:
            raise ConfigError(f"--param {key!r} is given more than once")
        given[key] = _parse_param_value(value.strip())
    doc["params"] = {**params, **given}
    doc.update((key, value) for key, value in flags.items() if value is not None)
    spec = RunSpec.from_dict(doc)
    return spec, spec.validate()


def _run_trajectories(model, spec: RunSpec, indices):
    """Run and write the trajectories `indices`; returns [(index, file name, events)]."""
    stop = spec.stop()
    results = []
    for i in indices:
        traj = kernel.run_trajectory(model, spec.sampler, spec.seed, stop, stream_index=i)
        name = f"traj_{i:06d}.tsv"
        with open(os.path.join(spec.output, name), "w") as fh:
            kernel.write_trajectory(fh, traj, model)
        results.append((i, name, len(traj.events)))
    return results


class _Group(click.Group):
    """The `clocksim` group: an exception other than click's own or a broken pipe is an internal error, exit 4."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort, BrokenPipeError):
            raise  # click turns these into their own exit codes
        except Exception:
            traceback.print_exc()
            # SystemExit, not ctx.exit: under standalone_mode=False ctx.exit's code is only returned
            raise SystemExit(4) from None


@click.group(cls=_Group)
def cli():
    """Exact simulation of competing clock processes."""


@cli.command("run")
@click.option("--config", type=click.Path(exists=True, dir_okay=False), default=None,
              help="YAML run spec; flags override file values.")
@click.option("--model", default=None, help="Built-in model name.")
@click.option("--param", multiple=True, help="Model parameter key=value (repeatable).")
@click.option("--sampler", default=None, help=" | ".join(SAMPLER_NAMES) + ":<spec>")
@click.option("--seed", type=int, default=None)
@click.option("--trajectories", type=int, default=None)
@click.option("--t-end", type=float, default=None)
@click.option("--max-events", type=int, default=None)
@click.option("--output", default=None, help="Directory for the trajectory files and manifest.")
@click.option("--workers", type=int, default=None)
def cmd_run(config, param, **flags):
    """Generate trajectory files and a manifest."""
    started = time.perf_counter()
    try:
        spec, built = _load_run_spec(config, param, flags)
    except ClocksimError as exc:
        raise click.UsageError(str(exc))
    try:
        os.makedirs(spec.output, exist_ok=True)
    except OSError as exc:
        raise click.UsageError(f"cannot create output directory {spec.output!r}: {exc.strerror}")
    try:
        n = spec.trajectories
        k = min(spec.workers, n)
        shares = fork_map(_run_trajectories, [(built, spec, range(w, n, k)) for w in range(k)])
        results = sorted(r for share in shares for r in share)
    except ClocksimError as exc:
        # a model that violates the clock contract mid-run (e.g. DuplicateAtoms)
        raise click.UsageError(f"{type(exc).__name__}: {exc}")
    manifest = asdict(spec)
    del manifest["output"]  # the manifest is written inside that directory
    manifest.update(
        model_hash=kernel.model_hash(built),
        stream_derivation=kernel.STREAM_DERIVATION,
        files=[name for _, name, _ in results],
        events={i: events for i, _, events in results},
        wall_time_s=round(time.perf_counter() - started, 6),
    )
    with open(os.path.join(spec.output, "manifest.yaml"), "w") as fh:
        yaml.safe_dump(manifest, fh, sort_keys=True)
    click.echo(f"wrote {spec.trajectories} trajectories to {spec.output}")
    if spec.max_events is not None and any(events == 0 for *_, events in results):
        click.echo("stalled before any event", err=True)
        raise SystemExit(3)


@cli.command("summarize")
@click.argument("files", nargs=-1, type=click.Path(exists=True, dir_okay=False))
@click.option("--observable", type=click.Choice(["event-count", "final-state", "interarrival"]),
              default="event-count", show_default=True)
def cmd_summarize(files, observable):
    """Tabulate an observable over trajectory files (TSV on stdout)."""
    if not files:
        raise click.UsageError("no trajectory files given")
    parsed = []
    for path in sorted(files):
        try:
            with open(path) as fh:
                parsed.append((path, kernel.read_trajectory(fh)))
        except ClocksimError as exc:
            raise click.UsageError(f"{path}: {exc}")
    if observable == "event-count":
        click.echo("file\tevents")
        for path, tf in parsed:
            click.echo(f"{path}\t{len(tf.events)}")
        return
    if observable == "interarrival":
        click.echo("interarrival")
        for _, tf in parsed:
            prev = 0.0
            for ev in tf.events:
                click.echo(kernel._fmt(ev.time - prev))
                prev = ev.time
        return
    # final-state: pooled histogram over replayed final states
    hist = {}
    built = {}  # (model, params) header -> (Model, its model_header)
    for path, tf in parsed:
        try:
            header = (tf.header["model"], tf.header.get("params", "{}"))
            if header not in built:
                model = models.build(header[0], json.loads(header[1]))
                built[header] = model, kernel.model_header(model)
            model, pinned = built[header]
            for key in ("model_hash", "initial_state"):
                written = tf.header.get(key, "(none)")
                if written != pinned[key]:
                    raise ModelError(f"{key} {written} is not the rebuilt model's {pinned[key]}")
            counts = kernel.final_state(model, tf).counts
        except (ClocksimError, KeyError, TypeError, ValueError) as exc:
            raise click.UsageError(f"{path}: cannot replay ({exc})")
        key = json.dumps(counts, sort_keys=True)
        hist[key] = hist.get(key, 0) + 1
    click.echo("final_state\tcount")
    for key in sorted(hist):
        click.echo(f"{key}\t{hist[key]}")


# -- verification suites ------------------------------------------------------
# Each suite is the `verify` checks it runs, at its own sizes and seeds; the
# acceptance criteria run the same checks at theirs.  `cmd_verify` hands each
# suite the `verify` module, so scipy's statistics load only for the suites.

_SUITES = {
    "distributions": lambda verify: verify.distributions(),
    "sampler-equivalence": lambda verify: verify.sampler_equivalence(
        [("sir3", models.build("sir", {"n": 3, "initial_infected": 1}), kernel.StalledOnly(),
          "hierarchical:direct=6-8;next-reaction=rest")],
        seed0=101, trajectories=20_000),
    "oracle": lambda verify: (
        verify.competing_risks(4000, seed=7, grid_step=1e-3, horizon=3.0, tol=0.02, cif_tol=1e-3)
        + verify.ctmc_agreement(
            [("birth-death", models.build("birth-death", {"birth": 1.0, "death": 1.0, "x0": 1, "capacity": 30}),
              "next-reaction", 11)],
            4000, horizon=1.0, tol=0.03)),
    "hazard-round-trip": lambda verify: verify.hazard_round_trip(20_000, seed=13, tol=0.05),
}


@cli.command("verify", help="Run a verification suite: " + " | ".join([*_SUITES, "all"]) + ".")
@click.argument("suite")
def cmd_verify(suite):
    if suite != "all" and suite not in _SUITES:
        raise click.UsageError(f"unknown suite {suite!r}; valid: {', '.join([*_SUITES, 'all'])}")
    from . import verify

    rows = []
    for name in _SUITES if suite == "all" else [suite]:
        rows.extend(_SUITES[name](verify))
    width = max(len(r[0]) for r in rows)
    for label, stats, ok in rows:
        click.echo(f"{label.ljust(width)}  {stats}  {'PASS' if ok else 'FAIL'}")
    failed = sum(not ok for _, _, ok in rows)
    if failed:
        click.echo(f"{failed} check(s) failed", err=True)
        raise SystemExit(1)


def main(argv=None):
    """Run the command line `argv` (default: the process's arguments); exits through SystemExit."""
    cli(argv)


if __name__ == "__main__":
    main()
