"""Benchmark of fogrep's two user commands, ``fogrep ingest`` and
``fogrep run``, on seeded GeoLife-shaped synthetic workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The inputs are generated from the seed into
``.perfbench_work/`` (and reused while seed and shape stay the same); fogrep
only ever sees the generated files. The command is then run again and again,
each time in a fresh process, for S seconds (at least MIN_REPS times), and
every run's output is checked against a reference (see reference.py).

With ``--trace 0`` the end-to-end metrics are reported: wall time, set-up
time, throughput and peak RSS, each reduced over the repetitions as ESTIMATE
says. With
``--trace 1`` traced and untraced repetitions alternate and the per-layer
metrics of the traced ones are reported (see spans.py), with the tracing
overhead and the time no span covers. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--workload all`` runs every workload in turn.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from child import TARGET_MISSING

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

VARIANTS = 32         # sweep inputs cycle through this many seeds, each with a recorded reference
MIN_REPS = 3          # repetitions per run, however short --seconds is
CHILD_TIMEOUT = 150   # seconds allowed to one fogrep command


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    clients: int
    sessions: int          # per client; one PLT file each for ingest
    rows: int
    cols: int
    config: str | None = None  # sweep config under perfbench/configs; None for ingest


WORKLOADS = {w.name: w for w in (
    Workload("ingest-plt",
             "fogrep ingest of a PLT tree onto a 25x25 grid: PLT parsing, sessionizing, nearest-node "
             "mapping and the visits CSV do all the work; no engine, predictor or metrics",
             clients=12, sessions=30, rows=25, cols=25),
    Workload("sweep-flow",
             "fogrep run of baseline, short-pause, VOMM backoff and FOMM fusion policies with series on "
             "the 625-node flow network: engine, handlers, predictors and metrics; no PLT ingest",
             clients=16, sessions=100, rows=25, cols=25, config="sweep-flow.yaml"),
)}

# (name, unit, better) of every end-to-end metric; throughput counts PLT
# points for ingest and input visits x sweep points for the sweeps
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
]

# How a run reduces its repetitions to one value per metric. On small shared
# machines the same command slows down by tens of per cent in phases lasting
# from seconds to minutes, which moves a median over one run about as much;
# the best repetition is what the program costs when least disturbed.
ESTIMATE = {"wall_s": min, "setup_s": statistics.median,
            "throughput_per_s": max, "peak_rss_mb": statistics.median}

HANDLERS = ("on_session_start", "on_arrival", "on_session_end")

# (name, unit, better) of every per-layer metric, computed by layer_metrics
PER_LAYER = [
    ("traces.parse_plt.points_per_s", "1/s", "higher"),
    ("traces.parse_plt.self_s", "s", "lower"),
    ("traces.sessionize.self_s", "s", "lower"),
    ("traces.map_to_node_visits.self_s", "s", "lower"),
    ("traces.load_geolife_dir.self_s", "s", "lower"),
    ("topology.nearest_nodes.points_per_s", "1/s", "higher"),
    ("topology.nearest_nodes.self_s", "s", "lower"),
    ("traces.write_visits_csv.rows_per_s", "1/s", "higher"),
    ("traces.read_visits_csv.rows_per_s", "1/s", "higher"),
    ("topology.build.self_s", "s", "lower"),
    ("topology.transfer_time.calls", "count", "lower"),
    ("topology.transfer_time.self_s", "s", "lower"),
    ("simengine.run.self_s", "s", "lower"),
    ("simengine.visits_per_self_s", "1/s", "higher"),
    ("simengine.snapshot_memory.self_s", "s", "lower"),
    *[(f"policies.{h}.{m}", unit, "lower") for h in HANDLERS
      for m, unit in (("calls", "count"), ("self_us_per_call", "us"))],
    ("policies.replicate_actions", "count", "lower"),
    ("policies.delete_actions", "count", "lower"),
    ("policies.retain_actions", "count", "lower"),
    ("simengine.presence_intervals", "count", "lower"),
    ("simengine.intervals_per_replicate", "ratio", "higher"),
    ("markov.predict.calls", "count", "lower"),
    ("markov.predict.us_per_call", "us", "lower"),
    ("markov.predict.none_ratio", "ratio", "lower"),
    ("markov.train_session.calls", "count", "lower"),
    ("markov.train_session.us_per_call", "us", "lower"),
    ("metrics.compute_report.self_s", "s", "lower"),
    ("metrics.availability_series.ms_per_series", "ms", "lower"),
    ("experiment.load_traces.self_s", "s", "lower"),
    ("experiment.write_outputs.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("runtime.gc_s", "s", "lower"),
    ("runtime.gc_collections", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
]


@dataclass
class Inputs:
    dir: Path
    out: Path
    argv: list
    first_call: str      # module:attribute whose first call ends set-up
    timelines: list
    points: int          # PLT points written (ingest)
    policies: int        # sweep points (one topology per sweep config)
    predictive: int      # sweep points whose policy predicts
    digest: str
    variant: int | None  # reference variant (sweeps)

    @property
    def visits(self) -> int:
        return sum(len(s) for tl in self.timelines for s in tl.sessions)

    @property
    def sessions(self) -> int:
        return sum(len(tl.sessions) for tl in self.timelines)

    @property
    def work(self) -> int:
        return self.points if self.points else self.visits * self.policies


def prepare(wl: Workload, seed: int) -> Inputs:
    """Generate the workload's inputs for a seed, reusing the files on disk
    when they were made for the same seed, shape and config."""
    import gen
    import yaml
    shape = gen.Shape(wl.clients, wl.sessions, wl.rows, wl.cols)
    variant = seed % VARIANTS if wl.config else None
    gen_seed = seed if variant is None else variant
    timelines = gen.generate(gen_seed, shape)
    digest = gen.digest(timelines)
    config_text = (HERE / "configs" / wl.config).read_text() if wl.config else ""
    meta = json.dumps({"seed": gen_seed, "shape": asdict(shape), "digest": digest,
                       "config": config_text}, sort_keys=True)
    d = WORK / wl.name
    stamp = d / "inputs.json"
    stored = json.loads(stamp.read_text()) if stamp.is_file() else {}
    if stored.get("meta") != meta:
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        points = 0
        if wl.config:
            gen.write_visits(timelines, d / "visits.csv")
            (d / "config.yaml").write_text(config_text)
        else:
            points = gen.write_plt_tree(gen_seed, timelines, shape, d / "geolife")
        stored = {"meta": meta, "points": points}
        stamp.write_text(json.dumps(stored))
    out = d / "out"
    if wl.config:
        policies = yaml.safe_load(config_text)["policies"]
        kinds = [p["predictor"] if isinstance(p["predictor"], str) else p["predictor"]["type"]
                 for p in policies]
        return Inputs(d, out, ["run", str(d / "config.yaml"), "--out", str(out)],
                      "fogrep.experiment:run_simulation", timelines, 0, len(kinds),
                      sum(k != "baseline" for k in kinds), digest, variant)
    return Inputs(d, out, ["ingest", str(d / "geolife"), "--grid", f"{wl.rows}x{wl.cols}",
                           "--out", str(out / "visits.csv")],
                  "fogrep.traces:parse_plt", timelines, stored["points"], 0, 0, digest, None)


@dataclass
class Rep:
    exit: int
    wall: float
    setup: float | None
    rss_mb: float | None
    stats: dict
    stderr: str


def run_command(wl: Workload, inputs: Inputs, trace: bool) -> Rep:
    """One fogrep command in a fresh process, timed from before its start."""
    shutil.rmtree(inputs.out, ignore_errors=True)
    inputs.out.mkdir(parents=True)
    stats_path = inputs.dir / "stats.json"
    stats_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(stats_path), inputs.first_call,
           "1" if trace else "0", "--", *inputs.argv]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    wall = time.monotonic() - start
    if proc.returncode == TARGET_MISSING:
        sys.exit(proc.stderr.strip())
    stats = json.loads(stats_path.read_text()) if stats_path.is_file() else {}
    first = stats.get("first_call")
    rss = stats.get("maxrss_kib")
    return Rep(proc.returncode, wall, None if first is None else first - start,
               None if rss is None else rss / 1024.0, stats, proc.stderr)


def check(wl: Workload, inputs: Inputs, rep: Rep, reference) -> tuple[int, int, list]:
    """(operations attempted, operations failed, notes) for one repetition."""
    import gen
    import reference as ref
    if rep.exit != 0:
        attempted = len(reference["points"]) if wl.config else len(inputs.timelines)
        tail = rep.stderr.strip().splitlines()[-1:] or ["no message"]
        return attempted, attempted, [f"fogrep exited {rep.exit}: {tail[0]}"]
    if wl.config:
        return ref.check_sweep(inputs.out, reference)
    return ref.check_ingest(inputs.out / "visits.csv", gen.visit_rows(inputs.timelines))


def layer_metrics(stats: dict, wall: float) -> dict:
    """Per-layer metrics of one traced repetition."""
    sp = stats["spans"]
    calls, total, own, counts = sp["calls"], sp["total_s"], sp["self_s"], sp["counts"]

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {
        "traces.parse_plt.points_per_s": per(counts.get("traces.parse_plt.points", 0),
                                             total.get("traces.parse_plt", 0.0)),
        "topology.nearest_nodes.points_per_s": per(counts.get("topology.nearest_nodes.points", 0),
                                                   total.get("topology.nearest_nodes", 0.0)),
        "traces.write_visits_csv.rows_per_s": per(counts.get("traces.write_visits_csv.rows", 0),
                                                  total.get("traces.write_visits_csv", 0.0)),
        "traces.read_visits_csv.rows_per_s": per(counts.get("traces.read_visits_csv.rows", 0),
                                                 total.get("traces.read_visits_csv", 0.0)),
        "topology.transfer_time.calls": calls.get("topology.transfer_time", 0),
        "simengine.visits_per_self_s": per(counts.get("simengine.visits", 0),
                                           own.get("simengine.run", 0.0)),
        "policies.replicate_actions": counts.get("policies.replicate_actions", 0),
        "policies.delete_actions": counts.get("policies.delete_actions", 0),
        "policies.retain_actions": counts.get("policies.retain_actions", 0),
        "simengine.presence_intervals": counts.get("simengine.presence_intervals", 0),
        "simengine.intervals_per_replicate": per(counts.get("simengine.presence_intervals", 0),
                                                 counts.get("policies.replicate_actions", 0)),
        "markov.predict.calls": calls.get("markov.predict", 0),
        "markov.predict.us_per_call": per(total.get("markov.predict", 0.0),
                                          calls.get("markov.predict", 0), 1e6),
        "markov.predict.none_ratio": per(counts.get("markov.predict.none", 0),
                                         calls.get("markov.predict", 0)),
        "markov.train_session.calls": calls.get("markov.train_session", 0),
        "markov.train_session.us_per_call": per(total.get("markov.train_session", 0.0),
                                                calls.get("markov.train_session", 0), 1e6),
        "metrics.availability_series.ms_per_series": per(
            total.get("metrics.availability_series", 0.0),
            calls.get("metrics.availability_series", 0), 1e3),
        "experiment.write_outputs.self_s": own.get("experiment.run_experiment", 0.0),
        "runtime.gc_s": stats["gc_s"],
        "runtime.gc_collections": stats["gc_collections"],
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - sum(own.values()),
    }
    for span in ("traces.parse_plt", "traces.sessionize", "traces.map_to_node_visits",
                 "traces.load_geolife_dir", "topology.nearest_nodes", "topology.build",
                 "topology.transfer_time", "simengine.run", "simengine.snapshot_memory",
                 "metrics.compute_report", "experiment.load_traces", "cli.main"):
        m[f"{span}.self_s"] = own.get(span, 0.0)
    for h in HANDLERS:
        m[f"policies.{h}.calls"] = calls.get(f"policies.{h}", 0)
        m[f"policies.{h}.self_us_per_call"] = per(own.get(f"policies.{h}", 0.0),
                                                  calls.get(f"policies.{h}", 0), 1e6)
    return m


def cross_check(inputs: Inputs, reps: list, per_rep: list) -> list:
    """Counts must repeat exactly between traced runs and agree with the
    generated inputs."""
    notes = []
    counts = [({k: v for k, v in m.items() if UNITS[k] in ("count", "ratio")},
               rep.stats["spans"]["calls"], rep.stats["spans"]["counts"])
              for m, rep in zip(per_rep, reps)]
    if any(c != counts[0] for c in counts[1:]):
        notes.append("per-layer counts differ between traced runs")
    calls, raw = counts[0][1], counts[0][2]
    if inputs.policies:
        expected = {
            "policies.on_session_start": inputs.sessions * inputs.policies,
            "policies.on_arrival": (inputs.visits - inputs.sessions) * inputs.policies,
            "policies.on_session_end": inputs.sessions * inputs.policies,
            "markov.predict": inputs.visits * inputs.predictive,
        }
        got = {k: calls.get(k, 0) for k in expected}
        got_rows = raw.get("traces.read_visits_csv.rows", 0)
    else:
        expected = {
            "traces.parse_plt": inputs.sessions,
            "traces.sessionize": len(inputs.timelines),
            "traces.parse_plt.points": inputs.points,
            "topology.nearest_nodes.points": inputs.points,
            "policies.on_arrival": 0,
            "markov.predict": 0,
        }
        got = {k: calls.get(k, raw.get(k, 0)) for k in expected}
        got_rows = raw.get("traces.write_visits_csv.rows", 0)
    expected["visits CSV rows"] = inputs.visits
    got["visits CSV rows"] = got_rows
    notes.extend(f"{k}: counted {got[k]}, the generated inputs imply {want}"
                 for k, want in expected.items() if got[k] != want)
    return notes


UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for ``seconds``; returns the result object."""
    import reference as ref
    inputs = prepare(wl, seed)
    reference = None
    if wl.config:
        reference = ref.load(wl.name)["variants"][str(inputs.variant)]
        if reference["inputs"] != inputs.digest:
            sys.exit(f"perfbench: the {wl.name} reference for variant {inputs.variant} was recorded "
                     "for other inputs; the generator changed, record the references again")
    plain, traced = [], []
    attempted = failed = 0
    notes: list = []
    deadline = time.monotonic() + seconds
    while True:
        traced_turn = trace and len(traced) <= len(plain)
        rep = run_command(wl, inputs, traced_turn)
        a, f, n = check(wl, inputs, rep, reference)
        attempted, failed = attempted + a, failed + f
        notes.extend(n)
        (traced if traced_turn else plain).append(rep)
        done = (len(traced) >= 2 and plain) if trace else len(plain) >= MIN_REPS
        if done and time.monotonic() >= deadline:
            break
    correct = failed == 0
    lines = [f"workload {wl.name}  seed {seed}  input variant {inputs.variant}  "
             f"{len(plain)} untraced + {len(traced)} traced runs  "
             f"{inputs.work} work items per run"]
    if trace:
        ok = [rep for rep in traced if rep.exit == 0 and "spans" in rep.stats]
        if len(ok) < 2:
            correct = False
            notes.append("fewer than two traced runs succeeded")
        per_rep = [layer_metrics(rep.stats, rep.wall) for rep in ok]
        metrics = {}
        for name, unit, _ in PER_LAYER:
            if name == "trace.overhead_s":
                value = _median([r.wall for r in ok]) - _median([r.wall for r in plain])
            else:
                value = _median([m[name] for m in per_rep])
            metrics[name] = {"value": value, "unit": unit}
        if per_rep:
            cross = cross_check(inputs, ok, per_rep)
            correct = correct and not cross
            notes.extend(cross)
    else:
        good = [rep for rep in plain if rep.exit == 0 and rep.setup is not None]
        if not good:
            correct = False
            notes.append("no repetition succeeded")
        values = {
            "wall_s": [r.wall for r in good],
            "setup_s": [r.setup for r in good],
            "throughput_per_s": [inputs.work / (r.wall - r.setup) for r in good],
            "peak_rss_mb": [r.rss_mb for r in good],
        }
        metrics = {}
        for name, unit, _ in END_TO_END:
            v = values[name] or [0.0]
            metrics[name] = {"value": ESTIMATE[name](v), "unit": unit}
            lines.append(f"  {name:<18} {metrics[name]['value']:.6g} {unit}  "
                         f"({ESTIMATE[name].__name__} of {len(values[name])}; median {_median(v):.6g}, "
                         f"min {min(v):.6g}, max {max(v):.6g})")
    if trace:
        for name, unit, _ in PER_LAYER:
            lines.append(f"  {name:<44} {metrics[name]['value']:.6g} {unit}")
    lines.append(f"  error_rate         {failed / attempted if attempted else 0.0:.6g} "
                 f"({failed} of {attempted} operations failed)")
    lines.extend(f"  FAIL {n}" for n in notes[:10])
    print("\n".join(lines), flush=True)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds, so that subprocess.run kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "fogrep" / "__init__.py").is_file():
        print(f"perfbench: fogrep sources not found under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{n}.{k}": v for n, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
