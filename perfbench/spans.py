"""Timing proxies around fogrep's layer boundaries, for the traced run.

A proxy replaces a module attribute or class attribute with a wrapper that
opens a span, calls the original and closes the span. Spans nest on a stack;
a span's self time is its duration minus the durations of the spans opened
directly inside it. Only per-name aggregates are kept, so memory stays flat
however many calls a run makes. Nothing in fogrep is edited: the proxies are
installed in the process that runs the command, before the command starts.
"""
from __future__ import annotations

import functools
import gc
import importlib
import time
from collections import Counter, defaultdict


class TargetMissing(RuntimeError):
    """A proxied name no longer exists in fogrep; the trace would be wrong."""


class Recorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack: list[list] = []  # [name, start, time covered by children]
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def enter(self, name):
        self._stack.append([name, self.clock(), 0.0])

    def exit(self):
        name, start, children = self._stack.pop()
        duration = self.clock() - start
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - children
        if self._stack:
            self._stack[-1][2] += duration

    def summary(self) -> dict:
        return {"calls": dict(self.calls), "total_s": dict(self.total),
                "self_s": dict(self.self_time), "counts": dict(self.counts)}


def proxy(rec: Recorder, name, fn, after=None):
    """Wrap ``fn`` in a span called ``name``; ``after(rec, args, result)``
    runs once the span is closed, to count the work the call did."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit()
        if after is not None:
            after(rec, args, result)
        return result
    return traced


def resolve(site):
    """``"pkg.module:Attr.sub"`` -> (owner object, attribute name)."""
    module, _, path = site.partition(":")
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    try:
        for part in parents:
            owner = getattr(owner, part)
        getattr(owner, attr)
    except AttributeError as exc:
        raise TargetMissing(f"traced target {site} no longer exists") from exc
    return owner, attr


def install(rec: Recorder, name, sites, after=None):
    for site in sites:
        owner, attr = resolve(site)
        setattr(owner, attr, proxy(rec, name, getattr(owner, attr), after))


def _visits(timelines):
    return sum(len(visits) for tl in timelines for visits in tl.sessions)


def _count(key, measure):
    def after(rec, args, result):
        rec.counts[key] += measure(args, result)
    return after


def _simulation(rec, args, result):
    timelines = args[0]
    rec.counts["simengine.visits"] += _visits(timelines)
    rec.counts["simengine.presence_intervals"] += sum(len(ivs) for _, ivs in result.ledger.items())


def _actions(rec, args, result):
    for action in result:
        rec.counts[f"policies.{type(action).__name__.lower()}_actions"] += 1


def _prediction(rec, args, result):
    if result is None:
        rec.counts["markov.predict.none"] += 1


def _markov_sites(method) -> list[str]:
    """Every predictor class in fogrep.markov that defines ``method``."""
    markov = importlib.import_module("fogrep.markov")
    sites = [f"fogrep.markov:{name}.{method}" for name, obj in sorted(vars(markov).items())
             if isinstance(obj, type) and obj.__module__ == markov.__name__
             and method in vars(obj)]
    if not sites:
        raise TargetMissing(f"no class in fogrep.markov defines {method}()")
    return sites


def install_all(rec: Recorder):
    """Proxy every layer boundary the benchmark reports on."""
    install(rec, "traces.load_geolife_dir", ["fogrep.cli:load_geolife_dir"])
    install(rec, "traces.parse_plt", ["fogrep.traces:parse_plt"],
            _count("traces.parse_plt.points", lambda a, r: len(r)))
    install(rec, "traces.sessionize", ["fogrep.traces:sessionize"])
    install(rec, "traces.map_to_node_visits", ["fogrep.traces:map_to_node_visits"])
    install(rec, "topology.nearest_nodes", ["fogrep.traces:nearest_nodes"],
            _count("topology.nearest_nodes.points", lambda a, r: len(a[0])))
    install(rec, "traces.write_visits_csv", ["fogrep.cli:write_visits_csv"],
            _count("traces.write_visits_csv.rows", lambda a, r: _visits(a[0])))
    install(rec, "traces.read_visits_csv", ["fogrep.experiment:read_visits_csv"],
            _count("traces.read_visits_csv.rows", lambda a, r: _visits(r)))
    install(rec, "topology.build", ["fogrep.cli:build_grid", "fogrep.experiment:TopologySpec.build"])
    install(rec, "topology.transfer_time", ["fogrep.simengine:transfer_time"])
    install(rec, "experiment.run_experiment", ["fogrep.cli:run_experiment"])
    install(rec, "experiment.load_traces", ["fogrep.experiment:load_traces"])
    install(rec, "simengine.run", ["fogrep.experiment:run_simulation"], _simulation)
    install(rec, "simengine.snapshot_memory", ["fogrep.experiment:snapshot_memory"])
    for handler in ("on_session_start", "on_arrival", "on_session_end"):
        install(rec, f"policies.{handler}", [f"fogrep.policies:ReplicaPolicy.{handler}"], _actions)
    install(rec, "markov.predict", _markov_sites("predict"), _prediction)
    install(rec, "markov.train_session", _markov_sites("train_session"))
    install(rec, "metrics.compute_report", ["fogrep.experiment:compute_report"])
    install(rec, "metrics.availability_series", ["fogrep.metrics:availability_series"])


class GcTimer:
    """Time spent in, and number of, full (generation 2) collections."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.seconds = 0.0
        self.collections = 0
        self._start = None

    def __call__(self, phase, info):
        if info.get("generation") != 2:
            return
        if phase == "start":
            self._start = self.clock()
        elif self._start is not None:
            self.seconds += self.clock() - self._start
            self.collections += 1
            self._start = None

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)
