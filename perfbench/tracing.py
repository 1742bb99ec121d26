"""Span tracing from the benchmark's side of the program's public names.

`install` replaces the names the program looks up at call time (module
globals, class attributes) with wrappers that record one span per call:
(name, start, end, parent) plus one integer of call detail.  Spans stay in
flat in-memory arrays until the run ends; `analyze` turns them into the
per-layer metrics and `save` writes them out.  Nothing under src/ changes.
"""

from __future__ import annotations

import dataclasses
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.aux = array("q")
        self._stack = [-1]
        self.last_proposal = None

    def __len__(self):
        return len(self.name)

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, aux=None):
        """`fn` recording a span per call; `aux(result, args)` gives the detail integer."""
        nid = self._id(name)
        names, starts, ends, parents, auxs = self.name, self.start, self.end, self.parent, self.aux
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            auxs.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if aux is not None:
                auxs[i] = aux(out, args)
            return out

        return traced

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.intc),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            aux=np.frombuffer(self.aux, dtype=np.int64),
        )


class GcStats:
    """Full (generation 2) collections and total collector pause, via gc.callbacks."""

    def __init__(self):
        self.gen2_collections = 0
        self.pause_s = 0.0
        self._t0 = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._t0
            if info["generation"] == 2:
                self.gen2_collections += 1


QUEUE_METHODS = ("insert", "delete", "update", "peek", "pop")
TREE_METHODS = ("set", "total", "find", "prefix")


def _traced_class(tracer, base, prefix, methods):
    """Subclass of the active structure class whose public methods record spans."""
    body = {m: tracer.wrap(f"{prefix}.{m}", getattr(base, m)) for m in methods}
    return type(base.__name__, (base,), body)


def install(tracer):
    """Wrap the program's public names; returns the benchmark's `cli.run` span wrapper."""
    from clocksim import UNCHANGED, cli, graph, hazards, kernel, models, samplers

    kernel.CountingStream.uniform = tracer.wrap("kernel.uniform", kernel.CountingStream.uniform)
    hazards.HazardSpec.cumulative_hazard = tracer.wrap(
        "hazards.cumulative_hazard", hazards.HazardSpec.cumulative_hazard)
    samplers.invert_conditional = tracer.wrap("hazards.invert_conditional", samplers.invert_conditional)
    samplers.time_process = tracer.wrap("hazards.time_process", samplers.time_process)
    samplers.PutativeQueue = _traced_class(tracer, samplers.PutativeQueue, "structs.queue", QUEUE_METHODS)
    samplers.PrefixSumTree = _traced_class(tracer, samplers.PrefixSumTree, "structs.tree", TREE_METHODS)

    def proposal(ev, args):
        tracer.last_proposal = ev.time
        return 0

    def delta_entries(_, args):
        delta = args[1]
        return len(delta.newly_enabled) + len(delta.newly_disabled) + len(delta.modified)

    for cls in (samplers.FirstReactionSampler, samplers.NextReactionSampler,
                samplers.NextToFireSampler, samplers.DirectSampler, samplers.HierarchicalSampler):
        cls.next_event = tracer.wrap("samplers.next_event", cls.next_event, aux=proposal)
        cls.absorb = tracer.wrap("samplers.absorb", cls.absorb, aux=delta_entries)

    kernel.evaluate_enabling = tracer.wrap(
        "clocks.evaluate_enabling", kernel.evaluate_enabling, aux=lambda out, _: int(out is not UNCHANGED))
    kernel.apply_mark_inplace = tracer.wrap("clocks.apply_mark", kernel.apply_mark_inplace)
    graph.affected = tracer.wrap("graph.affected", graph.affected, aux=lambda out, _: len(out))
    graph.build = tracer.wrap("graph.build", graph.build)
    kernel.write_trajectory = tracer.wrap("kernel.write_trajectory", kernel.write_trajectory)

    # A step is nudged when the time it returns is not the sampler's proposal.
    def nudged(out, _):
        return int(out is not None and out[1] != tracer.last_proposal)

    base_engine = kernel.Engine
    kernel.Engine = type("Engine", (base_engine,), {
        "__init__": tracer.wrap("kernel.engine_init", base_engine.__init__),
        "step": tracer.wrap("kernel.step", base_engine.step, aux=nudged),
    })

    build = tracer.wrap("models.build", models.build)

    def build_with_timed_rules(name, params=None):
        model = build(name, params)
        clocks = tuple(
            dataclasses.replace(c, enabling=tracer.wrap("models.rule", c.enabling)) for c in model.clocks
        )
        return dataclasses.replace(model, clocks=clocks)

    # The rewrapping is tracing cost: its own span keeps it out of the
    # caller's self time (cli.self_ms_per_traj).
    models.build = tracer.wrap("trace.rewrap", build_with_timed_rules)
    return tracer.wrap("cli.run", cli.cli.main)


def analyze(tracer, cases, cli_range, cli_trajectories):
    """Per-layer metrics from the recorded spans.

    cases: [(label, first span, end span, events stepped)]; per-event
    metrics count only spans at or below a `kernel.step` of that range.
    cli_range: (first, end) span indices of the `clocksim run` call, or None.
    """
    table = tracer.names
    name = np.frombuffer(tracer.name, dtype=np.intc)
    start = np.frombuffer(tracer.start)
    dur = np.frombuffer(tracer.end) - start
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    aux = np.frombuffer(tracer.aux, dtype=np.int64)
    n = len(name)
    idx = np.arange(n)
    has_parent = parent >= 0
    self_t = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    # name id of each span's parent; len(table) stands for "no parent"
    parent_name = np.where(has_parent, name[np.where(has_parent, parent, 0)], len(table))

    def ids(pred):
        return np.array([pred(s) for s in table] + [False], dtype=bool)

    def spans(pred):
        return ids(pred)[name]

    def named(s):
        return spans(lambda x: x == s)

    step_ids = ids(lambda s: s == "kernel.step")
    in_step = step_ids[name]
    anc = parent.copy()
    while (anc >= 0).any():
        live = anc >= 0
        in_step[live] |= step_ids[name[anc[live]]]
        anc[live] = parent[anc[live]]

    queue_ids = ids(lambda s: s.startswith("structs.queue."))
    tree_ids = ids(lambda s: s.startswith("structs.tree."))
    queue, tree = queue_ids[name], tree_ids[name]
    outer_queue = queue & ~queue_ids[parent_name]  # update -> delete+insert counts once
    outer_tree = tree & ~tree_ids[parent_name]
    step, absorb, next_event = named("kernel.step"), named("samplers.absorb"), named("samplers.next_event")
    top_absorb = absorb & step_ids[parent_name]
    evaluate, affected, uniform = named("clocks.evaluate_enabling"), named("graph.affected"), named("kernel.uniform")
    invert, time_proc, cumhaz = (named(f"hazards.{s}") for s in ("invert_conditional", "time_process", "cumulative_hazard"))
    hazard = spans(lambda s: s.startswith("hazards."))
    clocks = spans(lambda s: s.startswith("clocks."))
    rule = named("models.rule")

    out = {}
    for label, lo, hi, events in cases:
        m = in_step & (idx >= lo) & (idx < hi)
        e = max(events, 1)

        def count(sel):
            return int((m & sel).sum())

        def us(sel):
            return float(self_t[m & sel].sum()) * 1e6 / e

        evals = count(evaluate)
        calls = count(affected)
        per_case = {
            "structs.queue_ops_per_event": count(outer_queue) / e,
            "structs.queue_us": us(queue),
            "structs.tree_ops_per_event": count(outer_tree) / e,
            "structs.tree_us": us(tree),
            "kernel.variates_per_event": count(uniform) / e,
            "kernel.stream_us": us(uniform),
            "hazards.invert_calls_per_event": count(invert) / e,
            "hazards.time_process_calls_per_event": count(time_proc) / e,
            "hazards.cumhaz_calls_per_event": count(cumhaz) / e,
            "hazards.self_us": us(hazard),
            "clocks.enabling_evals_per_event": evals / e,
            "clocks.enabling_change_ratio": int(aux[m & evaluate].sum()) / evals if evals else 0.0,
            "clocks.enabling_us": us(clocks),
            "models.rule_us": us(rule),
            "graph.affected_size": int(aux[m & affected].sum()) / calls if calls else 0.0,
            "graph.affected_us": us(affected),
            "samplers.next_event_self_us": us(next_event),
            "samplers.absorb_self_us": us(absorb),
            "samplers.delta_entries_per_event": int(aux[m & top_absorb].sum()) / e,
            "kernel.step_self_us": us(step),
            "kernel.tie_nudges": int(aux[m & step].sum()),
        }
        out.update({f"{k}.{label}": v for k, v in per_case.items()})

    def mean_ms(values):
        return float(values.mean()) * 1e3 if len(values) else 0.0

    graph_build = named("graph.build")
    graph_in_init = np.bincount(parent[graph_build], weights=dur[graph_build], minlength=n)
    out["models.build_ms"] = mean_ms(dur[named("models.build")])
    out["graph.build_ms"] = mean_ms(dur[graph_build])
    out["kernel.engine_init_ms"] = mean_ms((dur - graph_in_init)[named("kernel.engine_init")])
    out["kernel.write_ms_per_traj"] = 0.0
    out["cli.self_ms_per_traj"] = 0.0
    if cli_range is not None:
        in_cli = (idx >= cli_range[0]) & (idx < cli_range[1])
        per_traj = 1e3 / cli_trajectories
        out["kernel.write_ms_per_traj"] = float(dur[in_cli & named("kernel.write_trajectory")].sum()) * per_traj
        out["cli.self_ms_per_traj"] = float(self_t[in_cli & named("cli.run")].sum()) * per_traj
    return out
