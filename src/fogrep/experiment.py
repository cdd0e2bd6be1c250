"""Config-driven experiment execution: parse a declarative YAML experiment
file, run every (policy, topology) sweep point deterministically, and emit
results.csv, per-client availability series, a machine-readable summary, and
an optional Pareto scatter SVG.

A point runs one client at a time and folds their report rows: a client's
row is computed right after its run, and its ledger and model are freed
before the next client runs, so a point holds one ledger and one model at a
time however many clients the trace has.

The config file is the single source of truth; only the output directory and
the seed can be overridden from the command line, so experiments stay
archivable. The parsers, and the metrics checks that need the trace, raise a
plain ``ConfigError("key.path: problem")``; ``_in_file`` alone turns it into
``<file>: key.path: problem (line N)``, with the file the key is in.
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
from .markov import MAX_NODE_ID
from .metrics import active_time, compute_report, point_report, series_step, write_report_csv
from .policies import PolicyConfig
from .simengine import run as run_simulation
from .simengine import merge_event_logs, snapshot_memory, write_event_log_csv
from .startup import FIXED
from .topology import BEIJING_BBOX, FixedDelay, Topology, build_grid, check_bbox
from .traces import (DEFAULT_GAP_THRESHOLD, SchedulePattern, SyntheticSpec,
                     csv_rows, load_geolife_dir, read_visits_csv,
                     replacing_file, synth_generate, write_visits_csv)

GEOLIFE_TZ_OFFSET = 8 * 3600.0
MAX_SERIES_POINTS = 1_000_000  # a year at one-minute buckets is 525,600 points

RESULTS_TYPES = {"experiment": str, "topology": str, "policy": str, "clients": int,
                 "availability": float, "excess_ratio": float,
                 "memory_avg_bytes": float, "memory_max_bytes": int}
RESULTS_HEADER = list(RESULTS_TYPES)


class _FileError(ConfigError):
    """A ConfigError whose message already names the file it comes from."""


def _in_file(source, lines, parse, *args):
    """``parse(*args)``, each ConfigError ``key.path: problem`` of which comes out as
    ``<source>: key.path: problem (line N)``, N the line in the file's key-line map
    ``lines`` of the deepest key on that path (no line if it has none)."""
    try:
        return parse(*args)
    except _FileError:
        raise
    except ConfigError as exc:
        path = str(exc).split(":", 1)[0]
        while path and path not in lines:
            path = path.rpartition(".")[0]
        raise _FileError(f"{source}: {exc}" + (f" (line {lines[path]})" if path else "")) from None


def load_yaml_with_lines(data: bytes | str, source="<config>"):
    """Parse YAML once, from a file's bytes (read as UTF-8) or its text: the
    document (as ``yaml.safe_load`` builds it) and, from the same node tree,
    a key-path -> line-number map for error anchors. A key given twice in one
    mapping is a ConfigError, where PyYAML would keep the last value, and so
    is a value that contains itself through an alias."""
    lines: dict[str, int] = {}

    def walk(node, path, above=()):
        if node in above:
            raise _FileError(f"{source}: {path}: contains itself through an alias (line {lines[path]})")
        above = (*above, node)
        if isinstance(node, yaml.MappingNode):
            seen = {}
            for key_node, val_node in node.value:
                p = f"{path}.{key_node.value}" if path else str(key_node.value)
                line = key_node.start_mark.line + 1
                if p in seen:
                    raise _FileError(f"{source}: {p}: key given twice (lines {seen[p]} and {line})")
                seen[p] = lines[p] = line
                walk(val_node, p, above)
        elif isinstance(node, yaml.SequenceNode):
            for i, item in enumerate(node.value):
                p = f"{path}[{i}]"
                lines[p] = item.start_mark.line + 1
                walk(item, p, above)

    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        loader = yaml.SafeLoader(text)  # rejects unprintable characters
        try:
            tree = loader.get_single_node()
            if tree is not None:  # before construction, which merges `<<` keys into their mapping
                walk(tree, "")
            try:
                doc = None if tree is None else loader.construct_document(tree)
            except (AttributeError, KeyError, ValueError) as exc:  # a tag PyYAML cannot build, as !!int abc
                raise _FileError(f"{source}: invalid YAML: a tagged value cannot be built "
                                 f"({type(exc).__name__}: {exc})") from exc
        finally:
            loader.dispose()
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{source} line {mark.line + 1}" if mark else source
        raise _FileError(f"{where}: invalid YAML: {exc}") from exc
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise _FileError(f"{source} line {line}: not UTF-8 text ({exc.reason})") from None
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
_number_or_inf = _strict((int, float), "a finite number or .inf", float,
                         lambda v: -math.inf < v <= math.inf)
_boolean = _strict((bool,), "true or false")
_text = _strict((str, int, float), "a string", str)
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


def _list_of(convert, length=None, unique=False, nonempty=False):
    def convert_list(v):
        if not isinstance(v, list) or length not in (None, len(v)) or (nonempty and not v):
            what = f" of {length} items" if length else " of at least one item" if nonempty else ""
            raise ValueError(f"expected a list{what}, got {v!r}")
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


def read_fields(doc, table, where="", required=(), unknown="unknown key") -> dict:
    """Keyword arguments from a YAML mapping, driven by a table of key path
    (``topn.threshold``, relative to ``where``) -> (field name, converter).
    A path that is also a section (``predictor``) takes a scalar or a
    mapping; a null value leaves the field at its default. A key the table
    lacks (``unknown`` says why), a value its converter rejects or a missing
    ``required`` key raises ConfigError naming the full key path."""
    out = {}
    pending = [("", doc)]
    while pending:
        rel, node = pending.pop()
        if not isinstance(node, dict):
            raise ConfigError(f"{'.'.join(filter(None, (where, rel))) or 'config'}: "
                              f"expected a mapping, got {node!r}")
        for key, value in node.items():
            path = f"{rel}.{key}" if rel else str(key)
            full = f"{where}.{path}" if where else path
            section = any(p.startswith(path + ".") for p in table)
            if not section and path not in table:
                raise ConfigError(f"{full}: {unknown}")
            if value is None:
                continue
            if section and (isinstance(value, dict) or path not in table):
                pending.append((path, value))
                continue
            name, convert = table[path]
            try:
                out[name] = convert(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"{full}: {exc}") from None
    for path in required:
        if table[path][0] not in out:
            raise ConfigError(f"{f'{where}.' if where else ''}{path}: required key missing")
    return out


@dataclass
class TopologySpec:
    """A grid of rows x cols edge nodes and the one time every transfer from
    the cloud takes. ``grid`` sets it as ``transfer_delay``; ``complex`` as
    ``data_size_gb`` over the slower of the ``edge_rate`` and ``uplink_rate``
    links the data crosses."""
    name: str
    kind: str = "grid"  # grid | complex
    rows: int = 10
    cols: int = 10
    bbox: tuple = BEIJING_BBOX
    transfer_delay: float = 300.0
    data_size_gb: float = 1.0
    edge_rate: float = 40e6  # bits/s
    uplink_rate: float = 800e6  # bits/s

    def build(self) -> tuple[Topology, FixedDelay]:
        topo = build_grid(self.rows, self.cols, self.bbox)
        if self.kind == "grid":
            return topo, FixedDelay(self.transfer_delay)
        return topo, FixedDelay(self.data_size_gb * 8e9 / min(self.edge_rate, self.uplink_rate))


# the keys every topology kind reads, then the table of each kind
_TOPOLOGY_COMMON = dict(
    name=_file_name, kind=_one_of("grid", "complex"), rows=_positive_integer, cols=_positive_integer,
    bbox=lambda v: check_bbox(_list_of(_number, 4)(v)))  # lat_min, lat_max, lon_min, lon_max
TOPOLOGY_FIELDS = {kind: {key: (key, convert) for key, convert in {**_TOPOLOGY_COMMON, **own}.items()}
                   for kind, own in (("grid", dict(transfer_delay=_positive)),
                                     ("complex", dict(data_size_gb=_positive, edge_rate=_positive,
                                                      uplink_rate=_positive)))}

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
    "preload_buffer": ("preload_buffer", _number_or_inf),  # .inf: replicate right away
    "startup": ("startup_mode", _text),
    "startup.type": ("startup_mode", _text),
    "startup.mode": ("short_pause_mode", _text),
    "startup.duration": ("short_pause_duration", _number),
    "startup.max": ("short_pause_max", _number),
    "startup.threshold": ("plmm_threshold", _number),
    "startup.factor": ("retention_factor", _number),
    "startup.min_samples": ("min_samples", _integer),
}

# the keys a policy reads only with some settings: setting -> (the keys, or
# top-level keys, it decides on, the keys each of its values reads); other
# values read them all
POLICY_READS = {
    "predictor.type": (("predictor", "eot", "topn", "preload_buffer"), {"baseline": ()}),
    "startup.type": (("startup",), {
        "none": (), "plmm": ("startup.threshold", "startup.factor"),
        "short_pause": ("startup.mode", "startup.duration", "startup.max", "startup.min_samples")}),
    "topn.type": (("topn",), {"fixed": ("topn.n",), "dynamic": ("topn.threshold", "topn.include_eot")}),
    "startup.mode": (("startup.min_samples",), {"fixed": (), "learned": ()}),
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
                "clients": ("clients", _list_of(_text, nonempty=True))},
    "visits": {**_TRACE_COMMON, "path": ("path", _text)},
}

# a synthetic spec: the spec-level values are defaults for each client
SPEC_FIELDS = {
    "anchor": ("anchor", _number),  # epoch seconds of a Monday 00:00
    "weeks": ("weeks", _positive_integer),
    "jitter": ("jitter", _non_negative),
    "seed": ("seed", _integer),
}
CLIENT_FIELDS = {**SPEC_FIELDS, "client": ("client_id", _text),
                 "patterns": ("patterns", _list_of(lambda x: x, nonempty=True))}


def _path(v):
    """A pattern's [node, stay seconds] pairs: at least one, and no node twice in a row."""
    path = _list_of(_pair(_integer, _non_negative), nonempty=True)(v)
    for (a, _), (b, _) in zip(path, path[1:]):
        if a == b:
            raise ValueError(f"node {a} twice in a row")
    return path


PATTERN_FIELDS = {
    "days": ("days", _list_of(_weekday, nonempty=True)),
    "start": ("start_clock", _clock),
    "path": ("path", _path),
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
    origin: tuple[str, dict] = ("<config>", {})  # (file, key-line map) for errors the trace shows; no key sets it


def point_dir_name(policy: PolicyConfig, topology: TopologySpec) -> str:
    """The output directory of one sweep point, inside the output directory."""
    return f"{policy.name}__{topology.name}"


def parse_policy(doc, where="", **defaults) -> PolicyConfig:
    """One policy mapping of an experiment file, validated, each key read by its
    settings (``POLICY_READS``); ``defaults`` holds fields the mapping does not set."""
    given = read_fields({} if doc is None else doc, POLICY_FIELDS, where)
    try:
        policy = PolicyConfig(**{**defaults, **given})
    except ConfigError as exc:
        raise ConfigError(f"{where}.{exc}" if where else str(exc)) from None
    for setting, (decides, reads) in POLICY_READS.items():
        setting_field = POLICY_FIELDS[setting][0]
        chosen = getattr(policy, setting_field)
        for path, (field, _) in POLICY_FIELDS.items():
            if (field in given and field != setting_field
                    and (path in decides or path.split(".")[0] in decides)
                    and path not in reads.get(chosen, (path,))):
                raise ConfigError(f"{f'{where}.' if where else ''}{path}: not read when {setting} is {chosen!r}")
    return policy


def parse_spec(doc, grid: TopologySpec, where="") -> tuple[tuple[SyntheticSpec, int | None], ...]:
    """A synthetic spec mapping -> one (SyntheticSpec, seed or None) per
    client, each pattern's nodes on ``grid``, the sweep's smallest topology;
    the timelines are generated later, when the run seed is known."""
    table = {**SPEC_FIELDS, "clients": ("clients", _list_of(lambda x: x, nonempty=True))}
    defaults = read_fields(doc, table, where, ("clients",))
    clients = []
    for i, entry in enumerate(defaults.pop("clients")):
        at = f"{where}.clients[{i}]" if where else f"clients[{i}]"
        fields = {"weeks": 1, **defaults,
                  **read_fields(entry, CLIENT_FIELDS, at, ("client", "patterns"))}
        fields["patterns"] = [SchedulePattern(**read_fields(pattern, PATTERN_FIELDS, f"{at}.patterns[{j}]",
                                                            tuple(PATTERN_FIELDS)))
                              for j, pattern in enumerate(fields["patterns"])]
        for j, pattern in enumerate(fields["patterns"]):
            for k, (node, _) in enumerate(pattern.path):
                if node not in range(grid.rows * grid.cols):
                    raise ConfigError(f"{at}.patterns[{j}].path[{k}]: node {node} is not on topology "
                                      f"{grid.name!r}, whose nodes are 0 to {grid.rows * grid.cols - 1}")
        if any(spec.client_id == fields["client_id"] for spec, _ in clients):
            raise ConfigError(f"{at}.client: duplicate client id {fields['client_id']!r}")
        seed = fields.pop("seed", None)
        clients.append((SyntheticSpec(**fields), seed))
    return tuple(clients)


def parse_trace(trace, config_dir: Path, grid: TopologySpec) -> TraceConfig:
    """The ``trace:`` section, read through the field table of its source;
    a synthetic spec's nodes must be on ``grid``, the sweep's smallest topology."""
    source = trace.get("source") if isinstance(trace, dict) else None
    if source not in tuple(TRACE_FIELDS):  # by equality: a list or mapping source is unhashable
        raise ConfigError(f"trace.source: expected one of {tuple(TRACE_FIELDS)}, got {source!r}")
    table = TRACE_FIELDS[source]
    fields = read_fields(trace, table, "trace", [key for key in ("spec", "path") if key in table],
                         f"unknown key for source {source!r}")
    if "path" in fields:
        fields["path"] = config_dir / fields["path"]  # an absolute path stays as it is
    elif isinstance(fields["spec"], dict):
        fields["spec"] = parse_spec(fields["spec"], grid, "trace.spec")
    else:
        spec_path = config_dir / fields["spec"]
        if not spec_path.is_file():
            problem = "path is not a file" if spec_path.exists() else "not found"
            raise DataError(f"synthetic spec {problem}: {spec_path}")
        spec_doc, spec_lines = load_yaml_with_lines(spec_path.read_bytes(), str(spec_path))
        fields["spec"] = _in_file(spec_path, spec_lines, parse_spec, spec_doc, grid)
    return TraceConfig(**{"tz_offset": GEOLIFE_TZ_OFFSET if source == "geolife" else 0.0, **fields})


def parse_experiment_config(data: bytes | str, source="<config>", config_dir=Path(".")) -> ExperimentConfig:
    """The experiment that the YAML ``data`` of file ``source`` declares; each
    ConfigError names that file, or the spec file it comes from."""
    doc, lines = load_yaml_with_lines(data, source)
    return _in_file(source, lines, _parse_document, doc, config_dir, (source, lines))


def _parse_document(doc, config_dir: Path, origin) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a mapping")
    doc = dict(doc)
    trace_doc = doc.pop("trace", None)
    single = "topologies" not in doc
    topo_docs = [doc.pop("topology", None)] if single else doc.pop("topologies")
    if not isinstance(topo_docs, list) or not topo_docs:
        raise ConfigError("topologies: sweep list must be non-empty")
    topologies = []
    for i, td in enumerate(topo_docs):
        kind = "complex" if isinstance(td, dict) and td.get("kind") == "complex" else "grid"
        topologies.append(TopologySpec(**{"name": f"topo{i}", **read_fields(
            {} if td is None else td, TOPOLOGY_FIELDS[kind], "topology" if single else f"topologies[{i}]",
            unknown=f"unknown key for kind {kind!r}")}))
    trace = parse_trace(trace_doc, config_dir, min(topologies, key=lambda topo: topo.rows * topo.cols))
    pol_docs = doc.pop("policies", None)
    if not isinstance(pol_docs, list) or not pol_docs:
        raise ConfigError("policies: sweep list must be non-empty")
    # the trace's local time zone drives every predictor's day/time buckets
    policies = [parse_policy(pd, f"policies[{i}]", name=f"policy{i}", tz_offset=trace.tz_offset)
                for i, pd in enumerate(pol_docs)]
    names = [p.name for p in policies]
    for i, name in enumerate(names):
        if names.index(name) < i:
            raise ConfigError(f"policies[{i}].name: names must be unique, and {name!r} "
                              f"is also the name of policies[{names.index(name)}]")
    # a predictor, a PLMM and a learning short-pause window key their models by 16-bit node ids
    keyed = [p.name for p in policies if p.predictor != "baseline" or p.startup_mode == "plmm"
             or (p.startup_mode == "short_pause" and p.short_pause_mode != FIXED)]
    for i, topo in enumerate(topologies):
        if topo.rows * topo.cols > MAX_NODE_ID + 1 and keyed:
            raise ConfigError(f"{'topology' if single else f'topologies[{i}]'}.rows: {topo.rows} x {topo.cols} "
                              f"nodes do not fit the 16-bit node ids of policy {keyed[0]!r}'s model "
                              f"(at most {MAX_NODE_ID + 1})")
    points: dict[str, str] = {}  # output directory -> the point that writes it
    for i, topo in enumerate(topologies):
        for j, policy in enumerate(policies):
            name = point_dir_name(policy, topo)
            point = f"policies[{j}] {policy.name!r} on topologies[{i}] {topo.name!r}"
            if name in points:
                raise ConfigError(f"{points[name]} and {point} both write the directory {name!r}")
            points[name] = point
    fields = read_fields(doc, EXPERIMENT_FIELDS)
    taken = {"results.csv": "the results table", "summary.json": "the summary",
             **{name: f"the directory of {point}" for name, point in points.items()}}
    if fields.get("plot") in taken:
        raise ConfigError(f"plot: {fields['plot']!r} would overwrite {taken[fields['plot']]}")
    return ExperimentConfig(trace=trace, topologies=topologies, policies=policies, origin=origin, **fields)


def load_experiment_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    if not path.is_file():
        raise ConfigError(f"config path is not a file: {path}")
    return parse_experiment_config(path.read_bytes(), source=str(path), config_dir=path.parent)


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
            with replacing_file(path) as fh:
                write_visits_csv(timelines, fh)
            return timelines
    if not path.exists():
        raise DataError(f"visits file not found: {path}")
    if not path.is_file():
        raise DataError(f"visits path is not a file: {path}")
    with open(path, encoding="utf-8", newline="") as fh:
        return read_visits_csv(fh, topo.node_count)


def _run_point(topo, network, policy: PolicyConfig, timelines,
               window, series_clients, series_bucket, dump_events):
    """One sweep point, run one client at a time in client-id order. Each
    client's report row is computed from its ledger and memory snapshot right
    after its run, and its ledger and model are freed before the next client
    runs (its event log is kept, with ``dump_events``); the point's report is
    the fold of the rows."""
    rows, logs = [], []
    for tl in sorted(timelines, key=lambda tl: tl.client_id):
        cid = tl.client_id
        result = run_simulation([tl], topo, network, policy, record_log=dump_events)
        rows.append(compute_report(result.ledger, tl, snapshot_memory(result.policies)[cid], window,
                                   series_bucket if cid in series_clients else None))
        logs.append(result.event_log)
        del result  # frees the client's ledger and model before the next client's run
    return point_report(rows), (merge_event_logs(logs) if dump_events else None)


def _check_metrics(cfg: ExperimentConfig, timelines):
    """The metrics keys that only the trace can check."""
    if cfg.window and not any(active_time(tl, cfg.window) > 0 for tl in timelines):
        raise ConfigError(f"metrics.window: {list(cfg.window)} covers no active second of the trace")
    clients = {tl.client_id: tl for tl in timelines}
    for cid in cfg.series_clients:
        if cid not in clients:
            raise ConfigError(f"metrics.series_clients: no client {cid!r} in the trace")
        tl = clients[cid]
        # a bucket too small to move time, at the end where floats are farthest apart
        series_step(max(tl.first_t, tl.last_t, key=abs), cfg.series_bucket)
        span = tl.last_t - tl.first_t
        if span / cfg.series_bucket > MAX_SERIES_POINTS:
            raise ConfigError(f"metrics.series_bucket: {cfg.series_bucket!r} s over client {cid!r}'s "
                              f"{span!r} s makes more than {MAX_SERIES_POINTS} points")


def run_experiment(cfg: ExperimentConfig) -> list[dict]:
    """Execute the sweep and write all artifacts; returns the result rows.
    The output directory is made once every trace has loaded and passed
    the metrics checks."""
    points = []
    for topo_spec in cfg.topologies:
        topo, network = topo_spec.build()
        timelines = load_traces(cfg, topo, topo_spec.name)
        _in_file(*cfg.origin, _check_metrics, cfg, timelines)
        for policy in cfg.policies:
            points.append((topo_spec, (topo, network, policy, timelines)))
    cfg.output.mkdir(parents=True, exist_ok=True)
    shared = (cfg.window, cfg.series_clients, cfg.series_bucket, cfg.dump_events)
    if cfg.jobs > 1 and len(points) > 1:
        import concurrent.futures  # here, not at the top: a serial run need not load it, logging or threading
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(cfg.jobs, len(points))) as pool:
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
        with open(point_dir / "report.csv", "w", encoding="utf-8", newline="") as fh:
            write_report_csv(report, fh)
        for m in report.per_client:
            if m.series is not None:
                with open(point_dir / f"series_{m.client_id}.csv", "w", encoding="utf-8") as fh:
                    fh.write("time,availability\n")
                    for t, a in m.series:
                        fh.write(f"{t!r},{a!r}\n")
        if event_log is not None:
            with open(point_dir / "events.csv", "w", encoding="utf-8", newline="") as fh:
                write_event_log_csv(event_log, fh)
    with open(cfg.output / "results.csv", "w", encoding="utf-8", newline="") as fh:
        write_results_csv(rows, fh)
    summary = {cfg.experiment: {"rows": rows, "seed": cfg.seed}}
    (cfg.output / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    if cfg.plot:
        (cfg.output / cfg.plot).write_text(pareto_svg(rows), encoding="utf-8")
    return rows


def write_results_csv(rows, fileobj):
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(RESULTS_HEADER)
    for row in rows:
        writer.writerow([row["experiment"], row["topology"], row["policy"], row["clients"],
                         repr(row["availability"]), repr(row["excess_ratio"]),
                         repr(row["memory_avg_bytes"]), row["memory_max_bytes"]])


def read_results_csv(path) -> list[dict]:
    """The rows of a results.csv file, with its numbers read back as numbers."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = csv_rows(fh)
        _, header = next(lines, (1, None))
        if header != RESULTS_HEADER:
            raise DataError(f"{path}: unexpected results header {header}")
        rows = []
        for lineno, row in lines:
            try:
                if len(row) > len(RESULTS_HEADER):
                    raise ValueError(f"more than {len(RESULTS_HEADER)} fields")
                if row:  # a blank line is skipped, and a short row's missing fields are ""
                    row += [""] * (len(RESULTS_HEADER) - len(row))
                    rows.append({key: convert(v) for (key, convert), v in zip(RESULTS_TYPES.items(), row)})
            except ValueError as exc:
                raise DataError(f"{path} line {lineno}: {exc}") from None
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
        # not xml.sax.saxutils.escape: it imports urllib.request and ssl, megabytes of RSS per run
        text = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(f"<circle cx='{sx(x):.1f}' cy='{sy(y):.1f}' r='4' fill='#1f77b4'/>")
        parts.append(f"<text x='{sx(x) + 6:.1f}' y='{sy(y) - 6:.1f}' font-size='11'>{text}</text>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
