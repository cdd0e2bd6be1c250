"""Config-driven experiment execution: parse a declarative YAML experiment
file, run every (policy, topology) sweep point deterministically, and emit
results.csv, per-client availability series, a machine-readable summary, and
an optional Pareto scatter SVG.

A point runs one client at a time: each client's model is freed right after
its memory snapshot, before the next client runs, so a point holds one model
at a time however many clients the trace has.

The config file is the single source of truth; only the output directory and
the seed can be overridden from the command line, so experiments stay
archivable.
"""
from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import yaml

from . import __version__
from .errors import ConfigError, DataError
from .metrics import active_time, compute_report, series_step, write_report_csv
from .policies import PolicyConfig
from .simengine import run as run_simulation
from .simengine import (ReplicaLedger, merge_event_logs, snapshot_memory,
                        write_event_log_csv)
from .topology import (BEIJING_BBOX, DEFAULT_EDGE_RATE, DEFAULT_UPLINK_RATE,
                       FixedDelay, FlowGraph, Topology, build_complex_network,
                       build_grid)
from .traces import (DEFAULT_GAP_THRESHOLD, SchedulePattern, SyntheticSpec,
                     load_geolife_dir, read_visits_csv, synth_generate,
                     write_visits_csv)

GEOLIFE_TZ_OFFSET = 8 * 3600.0
MAX_SERIES_POINTS = 1_000_000  # a year at one-minute buckets is 525,600 points

RESULTS_TYPES = {"experiment": str, "topology": str, "policy": str, "clients": int,
                 "availability": float, "excess_ratio": float,
                 "memory_avg_bytes": float, "memory_max_bytes": int}
RESULTS_HEADER = list(RESULTS_TYPES)


def load_yaml_with_lines(text: str, source="<config>"):
    """Parse YAML and build a key-path -> line-number map for error anchors."""
    try:
        doc = yaml.safe_load(text)
        tree = yaml.compose(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{source} line {mark.line + 1}" if mark else source
        raise ConfigError(f"{where}: invalid YAML: {exc}") from exc
    lines: dict[str, int] = {}

    def walk(node, path):
        if isinstance(node, yaml.MappingNode):
            for key_node, val_node in node.value:
                p = f"{path}.{key_node.value}" if path else str(key_node.value)
                lines[p] = key_node.start_mark.line + 1
                walk(val_node, p)
        elif isinstance(node, yaml.SequenceNode):
            for i, item in enumerate(node.value):
                p = f"{path}[{i}]"
                lines[p] = item.start_mark.line + 1
                walk(item, p)

    if tree is not None:
        walk(tree, "")
    return doc, lines


def _strict(types, what, cast=None, ok=lambda v: True):
    """Converter accepting only values of ``types`` (never a bool in place
    of a number or a string) for which ``ok`` holds."""
    def convert(v):
        if not isinstance(v, types) or (isinstance(v, bool) and bool not in types) or not ok(v):
            raise ValueError(f"expected {what}, got {v!r}")
        return cast(v) if cast else v
    return convert


_integer = _strict((int,), "an integer")
_number = _strict((int, float), "a finite number", float, lambda v: -math.inf < v < math.inf)
_boolean = _strict((bool,), "true or false")
_text = _strict((str, int, float), "a string", str)
_list = _strict((list,), "a list")
_positive = _strict((int, float), "a finite number > 0", float, lambda v: 0 < v < math.inf)
_non_negative = _strict((int, float), "a finite number >= 0", float, lambda v: 0 <= v < math.inf)
_positive_integer = _strict((int,), "an integer > 0", ok=lambda v: v > 0)


def _file_name(v) -> str:
    """A string that names an output file or directory: one plain path component."""
    name = _text(v)
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ValueError(f"expected one plain file-name component, got {name!r}")
    return name


_WEEKDAYS = ("monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday")


def _weekday(v) -> int:
    """A weekday name (``mon`` or ``monday``, any case) or index, 0 = Monday."""
    if isinstance(v, str):
        for index, name in enumerate(_WEEKDAYS):
            if v.lower() in (name, name[:3]):
                return index
    elif _integer(v) in range(7):
        return v
    raise ValueError(f"expected a weekday name or 0-6, got {v!r}")


def _clock(v) -> int:
    """A quoted ``"HH:MM"`` wall-clock time -> seconds past midnight."""
    match = re.fullmatch(r"([01]?\d|2[0-3]):([0-5]\d)", v) if isinstance(v, str) else None
    if match is None:
        raise ValueError(f'expected a quoted "HH:MM" time, got {v!r}')
    return int(match[1]) * 3600 + int(match[2]) * 60


def _list_of(convert, length=None, unique=False):
    def convert_list(v):
        if not isinstance(v, list) or length not in (None, len(v)):
            raise ValueError(f"expected a list{f' of {length} items' if length else ''}, got {v!r}")
        items = tuple(convert(x) for x in v)
        for k, x in enumerate(items):
            if unique and x in items[:k]:
                raise ValueError(f"duplicate item {x!r}")
        return items
    return convert_list


def _pair(first, second):
    def convert(v):
        a, b = _list_of(lambda x: x, 2)(v)
        return first(a), second(b)
    return convert


def _one_of(*choices):
    def convert(v):
        if v not in choices:
            raise ValueError(f"unknown value {v!r}; expected one of {choices}")
        return v
    return convert


def _anchored(message, lines) -> ConfigError:
    """ConfigError for a message that starts with its full key path, pointing
    at the YAML line of the deepest key on that path the file has."""
    path = message.split(":", 1)[0]
    while path and path not in lines:
        path = path.rpartition(".")[0]
    return ConfigError(f"{message} (line {lines[path]})" if path else message)


def read_fields(doc, table, lines, where="", required=()) -> dict:
    """Keyword arguments from a YAML mapping, driven by a table of key path
    (``topn.threshold``, relative to ``where``) -> (field name, converter).
    A path that is also a section (``predictor``) takes a scalar or a
    mapping; a null value leaves the field at its default. An unknown key,
    a value its converter rejects or a missing ``required`` key raises
    ConfigError naming the full key path and its line."""
    out = {}
    pending = [("", doc)]
    while pending:
        rel, node = pending.pop()
        if not isinstance(node, dict):
            raise _anchored(f"{'.'.join(filter(None, (where, rel))) or 'config'}: "
                            f"expected a mapping, got {node!r}", lines)
        for key, value in node.items():
            path = f"{rel}.{key}" if rel else str(key)
            full = f"{where}.{path}" if where else path
            section = any(p.startswith(path + ".") for p in table)
            if not section and path not in table:
                raise _anchored(f"{full}: unknown key", lines)
            if value is None:
                continue
            if section and (isinstance(value, dict) or path not in table):
                pending.append((path, value))
                continue
            name, convert = table[path]
            try:
                out[name] = convert(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise _anchored(f"{full}: {exc}", lines) from None
    for path in required:
        if table[path][0] not in out:
            raise _anchored(f"{f'{where}.' if where else ''}{path}: required key missing", lines)
    return out


@dataclass
class TopologySpec:
    name: str
    kind: str = "grid"  # grid | complex
    rows: int = 10
    cols: int = 10
    bbox: tuple = BEIJING_BBOX
    transfer_delay: float = 300.0
    data_size_gb: float = 1.0
    edge_rate: float = DEFAULT_EDGE_RATE
    uplink_rate: float = DEFAULT_UPLINK_RATE
    neighborhood: int = 4

    def build(self) -> tuple[Topology, object]:
        if self.kind == "grid":
            topo = build_grid(self.rows, self.cols, self.bbox)
            return topo, FixedDelay(self.transfer_delay)
        if self.kind == "complex":
            topo = build_complex_network(self.rows, self.cols, self.bbox,
                                         edge_rate=self.edge_rate,
                                         uplink_rate=self.uplink_rate,
                                         neighborhood=self.neighborhood)
            return topo, FlowGraph(topo, self.data_size_gb * 8e9)
        raise ConfigError(f"topology.kind: unknown kind {self.kind!r}")


TOPOLOGY_FIELDS = {key: (key, convert) for key, convert in dict(
    name=_file_name, kind=_one_of("grid", "complex"), rows=_positive_integer, cols=_positive_integer,
    bbox=_list_of(_number, 4),  # lat_min, lat_max, lon_min, lon_max
    transfer_delay=_positive, data_size_gb=_positive, edge_rate=_positive, uplink_rate=_positive,
    neighborhood=_one_of(4, 8)).items()}

POLICY_FIELDS = {
    "name": ("name", _file_name),
    "predictor": ("predictor", _text),
    "predictor.type": ("predictor", _text),
    "predictor.k": ("k", _integer),
    "predictor.day_splits": ("day_splits", _list_of(_integer)),
    "predictor.time_splits": ("time_splits", _list_of(_integer)),
    "eot": ("eot", _boolean),
    "topn.type": ("topn_mode", _text),
    "topn.n": ("topn_n", _integer),
    "topn.threshold": ("topn_threshold", _number),
    "topn.include_eot": ("topn_include_eot", _boolean),
    "preload_buffer": ("preload_buffer", _number),
    "startup": ("startup_mode", _text),
    "startup.type": ("startup_mode", _text),
    "startup.mode": ("short_pause_mode", _text),
    "startup.duration": ("short_pause_duration", _non_negative),
    "startup.max": ("short_pause_max", _non_negative),
    "startup.threshold": ("plmm_threshold", _positive),
    "startup.factor": ("retention_factor", _positive),
    "startup.min_samples": ("min_samples", _positive_integer),
}

# the scalar keys of the top level and of the metrics section
EXPERIMENT_FIELDS = {
    "experiment": ("experiment", _text),
    "output": ("output", lambda v: Path(_text(v))),
    "seed": ("seed", _integer),
    "jobs": ("jobs", _positive_integer),
    "plot": ("plot", _file_name),
    "dump_events": ("dump_events", _boolean),
    "metrics.series_clients": ("series_clients", _list_of(_file_name, unique=True)),
    "metrics.series_bucket": ("series_bucket", _positive),
    "metrics.window": ("window", _list_of(_number, 2)),
}

# the keys each trace source reads
_TRACE_COMMON = {"source": ("source", _text), "tz_offset": ("tz_offset", _number)}
TRACE_FIELDS = {
    "synthetic": {**_TRACE_COMMON,
                  "spec": ("spec", _strict((dict, str), "a mapping or a spec file path"))},
    "geolife": {**_TRACE_COMMON, "path": ("path", _text), "gap_threshold": ("gap_threshold", _positive),
                "clients": ("clients", _list_of(_text))},
    "visits": {**_TRACE_COMMON, "path": ("path", _text)},
}

# a synthetic spec: the spec-level values are defaults for each client
SPEC_FIELDS = {
    "anchor": ("anchor", _number),  # epoch seconds of a Monday 00:00
    "weeks": ("weeks", _positive_integer),
    "jitter": ("jitter", _non_negative),
    "seed": ("seed", _integer),
}
CLIENT_FIELDS = {**SPEC_FIELDS, "client": ("client_id", _text), "patterns": ("patterns", _list)}
PATTERN_FIELDS = {
    "days": ("days", _list_of(_weekday)),
    "start": ("start_clock", _clock),
    "path": ("path", _list_of(_pair(_integer, _non_negative))),  # [node, stay seconds]
}


@dataclass(frozen=True)
class TraceConfig:
    """Where the client timelines come from; ``TRACE_FIELDS`` lists what each source reads."""
    source: str
    path: Path | None = None  # GeoLife root or visits CSV
    spec: tuple[tuple[SyntheticSpec, int | None], ...] = ()  # synthetic: (client, seed)
    gap_threshold: float = DEFAULT_GAP_THRESHOLD
    clients: tuple[str, ...] | None = None
    tz_offset: float = 0.0


@dataclass
class ExperimentConfig:
    trace: TraceConfig
    topologies: list[TopologySpec]
    policies: list[PolicyConfig]
    experiment: str = "experiment"
    output: Path = Path("out")
    seed: int | None = None
    jobs: int = 1
    series_clients: tuple[str, ...] = ()
    series_bucket: float = 86400.0
    window: tuple[float, float] | None = None
    plot: str | None = None
    dump_events: bool = False


def point_dir_name(policy: PolicyConfig, topology: TopologySpec) -> str:
    """The output directory of one sweep point, inside the output directory."""
    return f"{policy.name}__{topology.name}"


def parse_policy(doc, lines=None, where="", **defaults) -> PolicyConfig:
    """One policy mapping of an experiment file, validated; ``defaults``
    holds field values the mapping does not set."""
    lines = lines or {}
    fields = {**defaults, **read_fields(doc or {}, POLICY_FIELDS, lines, where)}
    try:
        return PolicyConfig(**fields).validate()
    except ConfigError as exc:
        raise _anchored(f"{where}.{exc}" if where else str(exc), lines) from None


def parse_spec(doc, lines, where="") -> tuple[tuple[SyntheticSpec, int | None], ...]:
    """A synthetic spec mapping -> one (SyntheticSpec, seed or None) per
    client; the timelines are generated later, when the run seed is known."""
    defaults = read_fields(doc, {**SPEC_FIELDS, "clients": ("clients", _list)}, lines, where, ("clients",))
    clients = []
    for i, entry in enumerate(defaults.pop("clients")):
        at = f"{where}.clients[{i}]" if where else f"clients[{i}]"
        fields = {"weeks": 1, **defaults,
                  **read_fields(entry, CLIENT_FIELDS, lines, at, ("client", "patterns"))}
        fields["patterns"] = [SchedulePattern(**read_fields(pattern, PATTERN_FIELDS, lines,
                                                            f"{at}.patterns[{j}]", tuple(PATTERN_FIELDS)))
                              for j, pattern in enumerate(fields["patterns"])]
        if any(spec.client_id == fields["client_id"] for spec, _ in clients):
            raise _anchored(f"{at}.client: duplicate client id {fields['client_id']!r}", lines)
        seed = fields.pop("seed", None)
        clients.append((SyntheticSpec(**fields), seed))
    return tuple(clients)


def parse_trace(trace, lines, config_dir: Path) -> TraceConfig:
    """The ``trace:`` section, read through the field table of its source."""
    source = trace.get("source") if isinstance(trace, dict) else None
    if source not in TRACE_FIELDS:
        raise _anchored(f"trace.source: expected one of {tuple(TRACE_FIELDS)}, got {source!r}", lines)
    table = TRACE_FIELDS[source]
    fields = read_fields(trace, table, lines, "trace", [key for key in ("spec", "path") if key in table])
    if "path" in fields:
        fields["path"] = config_dir / fields["path"]  # an absolute path stays as it is
    elif isinstance(fields["spec"], dict):
        fields["spec"] = parse_spec(fields["spec"], lines, "trace.spec")
    else:
        spec_path = config_dir / fields["spec"]
        if not spec_path.is_file():
            raise DataError(f"synthetic spec not found: {spec_path}")
        spec_doc, spec_lines = load_yaml_with_lines(spec_path.read_text(), str(spec_path))
        try:
            fields["spec"] = parse_spec(spec_doc, spec_lines)
        except ConfigError as exc:
            raise ConfigError(f"{spec_path}: {exc}") from None
    return TraceConfig(**{"tz_offset": GEOLIFE_TZ_OFFSET if source == "geolife" else 0.0, **fields})


def parse_experiment_config(text: str, source="<config>", config_dir=Path(".")) -> ExperimentConfig:
    doc, lines = load_yaml_with_lines(text, source)
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: config must be a mapping")
    doc = dict(doc)
    trace = parse_trace(doc.pop("trace", None), lines, config_dir)
    single = "topologies" not in doc
    topo_docs = [doc.pop("topology", None)] if single else doc.pop("topologies")
    if not isinstance(topo_docs, list) or not topo_docs:
        raise _anchored("topologies: sweep list must be non-empty", lines)
    topologies = [TopologySpec(**{"name": f"topo{i}", **read_fields(
                      td or {}, TOPOLOGY_FIELDS, lines, "topology" if single else f"topologies[{i}]")})
                  for i, td in enumerate(topo_docs)]
    pol_docs = doc.pop("policies", None)
    if not isinstance(pol_docs, list) or not pol_docs:
        raise _anchored("policies: sweep list must be non-empty", lines)
    # the trace's local time zone drives every predictor's day/time buckets
    policies = [parse_policy(pd, lines, f"policies[{i}]", name=f"policy{i}", tz_offset=trace.tz_offset)
                for i, pd in enumerate(pol_docs)]
    names = [p.name for p in policies]
    if len(set(names)) != len(names):
        raise ConfigError("policies: names must be unique")
    points: dict[str, str] = {}  # output directory -> the point that writes it
    for i, topo in enumerate(topologies):
        for j, policy in enumerate(policies):
            name = point_dir_name(policy, topo)
            point = f"policies[{j}] {policy.name!r} on topologies[{i}] {topo.name!r}"
            if name in points:
                raise ConfigError(f"{points[name]} and {point} both write the directory {name!r}")
            points[name] = point
    fields = read_fields(doc, EXPERIMENT_FIELDS, lines)
    taken = {"results.csv": "the results table", "summary.json": "the summary",
             **{name: f"the directory of {point}" for name, point in points.items()}}
    if fields.get("plot") in taken:
        raise _anchored(f"plot: {fields['plot']!r} would overwrite {taken[fields['plot']]}", lines)
    return ExperimentConfig(trace=trace, topologies=topologies, policies=policies, **fields)


def load_experiment_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_experiment_config(path.read_text(), source=str(path), config_dir=path.parent)


def _ingest_key(trace: TraceConfig, topo: Topology) -> str:
    """Digest of everything a GeoLife ingest reads: the trace fields, the grid
    the points map onto, each PLT file's name, size and mtime, and the version."""
    import hashlib  # here, not at the top: it loads OpenSSL, about 3.5 MiB of RSS per run
    digest = hashlib.sha256(repr((__version__, trace, topo.grid)).encode())
    for plt in sorted(trace.path.rglob("*.plt")):
        stat = plt.stat()
        digest.update(f"{plt.relative_to(trace.path)} {stat.st_size} {stat.st_mtime_ns}\n".encode())
    return digest.hexdigest()[:16]


def load_traces(cfg: ExperimentConfig, topo: Topology, topo_name: str):
    trace = cfg.trace
    if trace.source == "synthetic":
        return [synth_generate(spec, noise_seed=cfg.seed if seed is None else seed)
                for spec, seed in trace.spec]
    path = trace.path
    if trace.source == "geolife":
        path = cfg.output / f"visits_{topo_name}_{_ingest_key(trace, topo)}.csv"
        if not path.exists():
            timelines = load_geolife_dir(trace.path, topo, gap_threshold=trace.gap_threshold,
                                         clients=trace.clients)
            cfg.output.mkdir(parents=True, exist_ok=True)
            with open(path, "w") as fh:
                write_visits_csv(timelines, fh)
            return timelines
    if not path.exists():
        raise DataError(f"visits file not found: {path}")
    with open(path) as fh:
        return read_visits_csv(fh)


def _run_point(topo, network, policy: PolicyConfig, timelines,
               window, series_clients, series_bucket, dump_events):
    """One sweep point, run one client at a time in client-id order. Each
    client's ledger (and, with ``dump_events``, its event log) joins the
    point's after its memory snapshot, and its model is freed before the next
    client runs; the report is computed once, over the merged ledger."""
    ledger, memory, logs = ReplicaLedger(), {}, []
    for tl in sorted(timelines, key=lambda tl: tl.client_id):
        result = run_simulation([tl], topo, network, policy, record_log=dump_events)
        memory.update(snapshot_memory(result.policies))
        ledger.update(result.ledger)
        logs.append(result.event_log)
        del result  # frees the client's model before the next client's run
    report = compute_report(ledger, timelines, memory_by_client=memory,
                            window=window, series_clients=series_clients,
                            series_bucket=series_bucket)
    return report, (merge_event_logs(logs) if dump_events else None)


def run_experiment(cfg: ExperimentConfig) -> list[dict]:
    """Execute the sweep and write all artifacts; returns the result rows."""
    cfg.output.mkdir(parents=True, exist_ok=True)
    points = []
    for topo_spec in cfg.topologies:
        topo, network = topo_spec.build()
        timelines = load_traces(cfg, topo, topo_spec.name)
        if cfg.window and not any(active_time(tl, cfg.window) > 0 for tl in timelines):
            raise ConfigError(f"metrics.window: {list(cfg.window)} covers no active second of the trace")
        clients = {tl.client_id: tl for tl in timelines}
        for cid in cfg.series_clients:
            if cid not in clients:
                raise ConfigError(f"metrics.series_clients: no client {cid!r} in the trace")
            tl = clients[cid]
            series_step(tl.first_t, cfg.series_bucket)  # a bucket too small to move time
            span = tl.last_t - tl.first_t
            if span / cfg.series_bucket > MAX_SERIES_POINTS:
                raise ConfigError(f"metrics.series_bucket: {cfg.series_bucket!r} s over client {cid!r}'s "
                                  f"{span!r} s makes more than {MAX_SERIES_POINTS} points")
        for policy in cfg.policies:
            points.append((topo_spec, (topo, network, policy, timelines)))
    shared = (cfg.window, cfg.series_clients, cfg.series_bucket, cfg.dump_events)
    if cfg.jobs > 1 and len(points) > 1:
        import concurrent.futures  # here, not at the top: a serial run need not load it, logging or threading
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            futures = [pool.submit(_run_point, *args, *shared) for _, args in points]
            outcomes = [f.result() for f in futures]
    else:
        outcomes = [_run_point(*args, *shared) for _, args in points]

    rows = []
    for (topo_spec, (_, _, policy, _)), (report, event_log) in zip(points, outcomes):
        rows.append({
            "experiment": cfg.experiment,
            "topology": topo_spec.name,
            "policy": policy.name,
            "clients": len(report.per_client),
            "availability": report.availability,
            "excess_ratio": report.excess_ratio,
            "memory_avg_bytes": report.memory_avg,
            "memory_max_bytes": report.memory_max,
        })
        point_dir = cfg.output / point_dir_name(policy, topo_spec)
        point_dir.mkdir(parents=True, exist_ok=True)
        with open(point_dir / "report.csv", "w") as fh:
            write_report_csv(report, fh)
        for cid, series in report.series.items():
            with open(point_dir / f"series_{cid}.csv", "w") as fh:
                fh.write("time,availability\n")
                for t, a in series:
                    fh.write(f"{t!r},{a!r}\n")
        if event_log is not None:
            with open(point_dir / "events.csv", "w") as fh:
                write_event_log_csv(event_log, fh)
    write_results_csv(rows, cfg.output / "results.csv")
    summary = {cfg.experiment: {"rows": rows, "seed": cfg.seed}}
    (cfg.output / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    if cfg.plot:
        (cfg.output / cfg.plot).write_text(pareto_svg(rows))
    return rows


def write_results_csv(rows, path):
    with open(path, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULTS_HEADER)
        for row in rows:
            writer.writerow([row["experiment"], row["topology"], row["policy"], row["clients"],
                             repr(row["availability"]), repr(row["excess_ratio"]),
                             repr(row["memory_avg_bytes"]), row["memory_max_bytes"]])


def read_results_csv(path) -> list[dict]:
    """The rows of a results.csv file, with its numbers read back as numbers."""
    with open(path) as fh:
        reader = csv.DictReader(fh, restval="")
        if reader.fieldnames != RESULTS_HEADER:
            raise DataError(f"{path}: unexpected results header {reader.fieldnames}")
        rows = []
        for row in reader:
            try:
                if None in row:
                    raise ValueError(f"more than {len(RESULTS_HEADER)} fields")
                rows.append({key: convert(row[key]) for key, convert in RESULTS_TYPES.items()})
            except ValueError as exc:
                raise DataError(f"{path} line {reader.line_num}: {exc}") from None
        return rows


def merge_results(paths) -> list[dict]:
    """Concatenate results files into one comparison table, sorted by
    (experiment, topology, policy)."""
    rows = []
    for p in paths:
        rows.extend(read_results_csv(p))
    rows.sort(key=lambda r: (r["experiment"], r["topology"], r["policy"]))
    return rows


def pareto_svg(rows, width=640, height=480) -> str:
    """Scatter of availability vs excess data with the Pareto front (maximal
    availability, minimal excess) drawn as a line."""
    pts = [(float(r["availability"]) * 100.0, float(r["excess_ratio"]) * 100.0,
            f"{r['policy']}/{r['topology']}") for r in rows]
    if not pts:
        return "<svg xmlns='http://www.w3.org/2000/svg'/>"
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0
    margin = 60

    def sx(x):
        return margin + (x - x0) / xspan * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y0) / yspan * (height - 2 * margin)

    front = []
    best_excess = float("inf")
    for x, y, label in sorted(pts, key=lambda p: (-p[0], p[1])):
        if y < best_excess:
            front.append((x, y))
            best_excess = y
    parts = [f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' height='{height}'>",
             f"<rect width='{width}' height='{height}' fill='white'/>",
             f"<text x='{width / 2}' y='{height - 15}' text-anchor='middle' font-size='13'>availability [%]</text>",
             f"<text x='18' y='{height / 2}' text-anchor='middle' font-size='13' "
             f"transform='rotate(-90 18 {height / 2})'>excess data [%]</text>"]
    if len(front) > 1:
        path = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in front)
        parts.append(f"<polyline points='{path}' fill='none' stroke='#888' stroke-width='1'/>")
    for x, y, label in pts:
        parts.append(f"<circle cx='{sx(x):.1f}' cy='{sy(y):.1f}' r='4' fill='#1f77b4'/>")
        parts.append(f"<text x='{sx(x) + 6:.1f}' y='{sy(y) - 6:.1f}' font-size='11'>{label}</text>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
