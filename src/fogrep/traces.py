"""GPS trace ingestion: GeoLife PLT parsing, session/pause segmentation,
mapping onto node-visit sequences, a deterministic synthetic generator, and
the cached node-visit CSV format.

Conventions: one trajectory file is one application session (file boundaries
are the only on/off signal in the dataset), additionally split at intra-file
gaps larger than ``gap_threshold`` (default 300 s). Timestamps are epoch
seconds from a naive UTC parse of the file's date/time strings; time-of-day
bucketing applies a timezone offset downstream. Points travel as float64
columns (``Track``) from the parsed file to the node visits. Mapping is per
client: ``sessionize`` returns a client's sessions as one set of columns and
the index where each session starts (``Sessions``: ``points`` and ``bounds``,
with no per-session objects), and ``map_to_node_visits`` finds the nearest
node of every point in one ``nearest_nodes`` call. A data error in a
user's files (a malformed file, or two files that overlap in time) names
the files relative to the GeoLife root. A visits file is written through
``replacing_file``, so an interrupted write leaves no file in its place.

What a user's ingest holds: ``load_geolife_dir`` hands ``sessionize`` a
generator that parses the user's files one at a time, so at most one file's
text, row strings and structured array (36 bytes a point: coordinates, date
and time) are alive beside the parsed columns. ``sessionize`` keeps a file's
columns as parsed when the file is in time order and sorts a copy only of one
that is not; joining the columns briefly holds them twice, then the per-file
columns are freed. Mapping adds one int64 node per point and a byte per point
for the run boundaries. Visits and pauses are slotted records.

Only GeoLife ingest uses numpy: ``parse_plt_rows``, ``_parse_columns``,
``sessionize`` and ``map_to_node_visits`` import it when called, and
``load_geolife_dir`` on entry. Synthetic timelines and the visits CSV never
load it.
"""
from __future__ import annotations

import csv
import math
import os
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (ConfigError, DataError, EmptyTraceError, TraceFormatError,
                     TraceOverlapError)
from .topology import Topology, nearest_nodes

if TYPE_CHECKING:
    import numpy as np

DEFAULT_GAP_THRESHOLD = 300.0  # seconds

PLT_HEADER_LINES = 6


@dataclass(frozen=True)
class GeoPoint:
    lat: float
    lon: float
    t: float  # epoch seconds


@dataclass(frozen=True, eq=False)
class Track:
    """GPS points as equal-length float64 columns: latitude, longitude and
    epoch seconds. A slice or an index array gives a Track."""
    lat: np.ndarray
    lon: np.ndarray
    t: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i):
        return Track(self.lat[i], self.lon[i], self.t[i])


@dataclass(frozen=True, eq=False)
class Sessions:
    """A client's sessions, in time order, as one set of columns: session i
    is ``points[bounds[i]:bounds[i + 1]]``, and the last bound is
    ``len(points)``."""
    points: Track
    bounds: list[int]


@dataclass(frozen=True, slots=True)
class Pause:
    client_id: str
    node: int  # node where the shutdown occurred
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True, slots=True)
class NodeVisit:
    node: int
    arrival: float
    departure: float


@dataclass
class ClientTimeline:
    """Alternating sessions (as node-visit sequences) and pauses tiling the
    client's observed lifetime."""
    client_id: str
    sessions: list[list[NodeVisit]]
    pauses: list[Pause] = field(default_factory=list)

    @property
    def first_t(self) -> float:
        return self.sessions[0][0].arrival

    @property
    def last_t(self) -> float:
        return self.sessions[-1][-1].departure

    def validate(self):
        if not self.sessions:
            raise ConfigError(f"client {self.client_id}: empty timeline")
        if len(self.pauses) != len(self.sessions) - 1:
            raise ConfigError(f"client {self.client_id}: sessions and pauses do not alternate")
        for visits in self.sessions:
            for a, b in zip(visits, visits[1:]):
                if a.node == b.node:
                    raise ConfigError(f"client {self.client_id}: consecutive visits share a node")
                if a.departure != b.arrival:
                    raise ConfigError(f"client {self.client_id}: non-contiguous visits")
        for i, pause in enumerate(self.pauses):
            before, after = self.sessions[i], self.sessions[i + 1]
            ok = (pause.start == before[-1].departure and pause.end == after[0].arrival
                  and pause.end > pause.start and pause.node == before[-1].node)
            if not ok:
                raise ConfigError(f"client {self.client_id}: pause {i} does not tile its gap")


_EPOCH_DAY = date(1970, 1, 1).toordinal()


def _plt_midnight(date_s: str) -> int:
    """Epoch seconds of a ``YYYY-MM-DD`` date's midnight; ValueError for an impossible date
    or a part that is not ASCII digits (``int()`` also reads signs, spaces, ``_`` and other scripts)."""
    if not re.fullmatch("[0-9]+-[0-9]+-[0-9]+", date_s):
        raise ValueError(f"invalid date {date_s!r}")
    y, mo, d = date_s.split("-")
    try:
        return (date(int(y), int(mo), int(d)).toordinal() - _EPOCH_DAY) * 86400
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"invalid date {date_s!r}: {exc}") from None


def _plt_clock(time_s: str) -> int:
    """Seconds past midnight of an ``HH:MM:SS`` time, zero-padded or not; ValueError for an
    impossible time or a part that is not ASCII digits."""
    if not re.fullmatch("[0-9]+:[0-9]+:[0-9]+", time_s):
        raise ValueError(f"invalid time {time_s!r}")
    h, mi, s = (int(x) for x in time_s.split(":"))
    if not (h < 24 and mi < 60 and s < 60):
        raise ValueError(f"invalid time {time_s!r}")
    return h * 3600 + mi * 60 + s


def parse_plt_rows(data: bytes | str) -> Track:
    """parse_plt one row at a time: the reference the columnar reader must
    match, and the reader that names the line of the first malformed row."""
    import numpy as np
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    lats, lons, times = [], [], []
    for lineno, line in enumerate(data.splitlines()[PLT_HEADER_LINES:], start=PLT_HEADER_LINES + 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) < 7:
            raise TraceFormatError(f"expected 7 fields, got {len(parts)}", line=lineno)
        try:
            latlon = f"{parts[0]},{parts[1]}"
            if "_" in latlon or not latlon.isascii():  # float() reads both
                raise ValueError(f"invalid coordinates {latlon!r}")
            lat, lon = float(parts[0]), float(parts[1])
            if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
                raise ValueError(f"coordinates out of range: {lat}, {lon}")
            t = float(_plt_midnight(parts[5]) + _plt_clock(parts[6]))
        except ValueError as exc:
            raise TraceFormatError(str(exc), line=lineno) from exc
        lats.append(lat)
        lons.append(lon)
        times.append(t)
    if not times:
        raise EmptyTraceError("no data rows after header")
    return Track(np.array(lats), np.array(lons), np.array(times))


def _parse_columns(text: str) -> Track:
    """The lines the row parser reads, read in one pass by numpy's text reader. ValueError for
    a text the two could read apart (not ASCII, or with a NUL, which a date would store as
    padding, or a unit separator, white space to numpy but not to ``float()``) and for a row
    that is not in-range coordinates, a date and a zero-padded valid time."""
    import numpy as np
    rows = text.splitlines()[PLT_HEADER_LINES:]
    if not (text.isascii() and "\x00" not in text and "\x1f" not in text and any(rows)):
        raise ValueError("not a text for the columnar reader")  # with no rows, numpy would warn
    # the fields parse_plt reads; a date or time longer than its padded form sets its last byte
    columns = [("lat", "f8"), ("lon", "f8"), ("date", "S11"), ("time", "S9")]
    cols = np.loadtxt(rows, columns, comments=None, delimiter=",", usecols=(0, 1, 5, 6), ndmin=1)
    lat, lon = cols["lat"].copy(), cols["lon"].copy()
    if not ((np.abs(lat) <= 90.0).all() and (np.abs(lon) <= 180.0).all()):  # a NaN fails too
        raise ValueError("coordinates out of range")
    clock = cols.view(np.uint8).reshape(len(cols), -1)[:, 26:]  # the date's last byte, then the time
    low, high = (np.frombuffer(b, np.uint8) for b in (b"\x0000:00:00\x00", b"\x0099:99:99\x00"))
    digits = clock[:, 1:9] - np.uint8(ord("0"))
    hms = digits[:, 0::3] * np.uint8(10) + digits[:, 1::3]
    if not (((clock >= low) & (clock <= high)).all() and (hms < (24, 60, 60)).all()):
        raise ValueError("a date is too long or a time is not a valid HH:MM:SS")
    dates = cols["date"]
    bounds = [0, *(np.flatnonzero(dates[1:] != dates[:-1]) + 1).tolist(), len(cols)]  # runs of one date
    midnights = [_plt_midnight(dates[i].decode()) for i in bounds[:-1]]
    t = hms @ np.array([3600, 60, 1]) + np.repeat(midnights, np.diff(bounds))
    return Track(lat, lon, t.astype(float))


def parse_plt(data: bytes | str) -> Track:
    """Parse a GeoLife .plt file: 6 header lines, then CSV rows
    ``lat,lon,0,altitude,days,date,time``. Points are returned in file order;
    out-of-order timestamps are retained for the sessionizer to sort.

    The file is read by numpy's text reader; a file that reader does not
    accept is read again row by row, which names the first malformed line.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    try:
        return _parse_columns(data)
    except ValueError:
        return parse_plt_rows(data)


def format_plt(points) -> str:
    """Inverse of parse_plt for the fields it reads (altitude/days written as
    placeholders); used for round-trip checks and fixtures."""
    header = "\n".join(["Geolife trajectory", "WGS 84", "Altitude is in Feet",
                        "Reserved 3", "0,2,255,My Track,0,0,2,8421376", "0"])
    out = [header]
    for p in points:
        days = p.t / 86400.0 + 25569.0  # days since 1899-12-30
        tm = time.gmtime(p.t)
        out.append("%r,%r,0,0,%r,%04d-%02d-%02d,%02d:%02d:%02d" % (
            p.lat, p.lon, days, tm.tm_year, tm.tm_mon, tm.tm_mday,
            tm.tm_hour, tm.tm_min, tm.tm_sec))
    return "\n".join(out) + "\n"


def sessionize(point_groups, gap_threshold=DEFAULT_GAP_THRESHOLD, client_id="") -> Sessions:
    """Segment per-file point groups (Tracks, from any iterable, read once)
    into sessions.

    Every file boundary starts a new session; intra-file gaps larger than
    gap_threshold split further. Files are ordered by first timestamp; a file
    starting before the previous one ends is an overlap error, whose pairs
    are the files' positions in ``point_groups``. A file starting exactly
    when the previous ends merges into the same session (a pause must have
    positive duration). The groups hold at least one point, as every file
    ``parse_plt`` reads does.
    """
    import numpy as np
    if not gap_threshold > 0:  # a NaN fails this too
        raise ConfigError("gap_threshold must be > 0")
    # a file already in time order is kept as it is; a NaN time fails the test and is sorted
    groups = [(i, g if (np.diff(g.t) >= 0).all() else g[np.argsort(g.t, kind="stable")])
              for i, g in enumerate(point_groups) if len(g)]
    groups.sort(key=lambda ig: ig[1].t[0])
    overlaps = [(i, j) for (i, a), (j, b) in zip(groups, groups[1:]) if b.t[0] < a.t[-1]]
    if overlaps:
        raise TraceOverlapError(
            f"client {client_id or '?'}: {len(overlaps)} overlapping trajectory file pair(s): {overlaps}",
            pairs=overlaps)
    lat, lon, t = (np.concatenate([getattr(g, name) for _, g in groups]) for name in ("lat", "lon", "t"))
    joins = np.cumsum([len(g) for _, g in groups[:-1]], dtype=np.int64) - 1  # gap before each later file
    del groups  # the per-file columns are freed before the client is mapped
    gaps = np.diff(t)
    cut = gaps > gap_threshold
    cut[joins] |= gaps[joins] > 0  # a later file continues a session only from its exact end
    return Sessions(Track(lat, lon, t), [0, *(np.flatnonzero(cut) + 1).tolist(), len(t)])


def map_to_node_visits(sessions: Sessions, topo: Topology) -> list[list[NodeVisit]]:
    """Each session's node visits: every point of the client is assigned its
    nearest node in one pass, and consecutive equal assignments within a
    session collapse into one visit. A visit's departure is the next visit's
    arrival, the last departure is the session end."""
    import numpy as np
    points, starts = sessions.points, np.array(sessions.bounds)
    nodes = nearest_nodes(points.lat, points.lon, topo)
    cut = nodes[1:] != nodes[:-1]
    cut[starts[1:-1] - 1] = True  # every session starts a new visit
    firsts = np.r_[0, np.flatnonzero(cut) + 1]
    nodes, arrivals = nodes[firsts].tolist(), points.t[firsts].tolist()
    ends = points.t[starts[1:] - 1].tolist()
    first_visit = np.searchsorted(firsts, starts).tolist()  # of each session, and the visit count
    visit_sessions = []
    for a, b, end in zip(first_visit, first_visit[1:], ends):
        arr = arrivals[a:b]
        visit_sessions.append([NodeVisit(*v) for v in zip(nodes[a:b], arr, arr[1:] + [end])])
    return visit_sessions


def _pauses_between(client_id, visit_sessions) -> list[Pause]:
    pauses = []
    for before, after in zip(visit_sessions, visit_sessions[1:]):
        pauses.append(Pause(client_id, before[-1].node, before[-1].departure, after[0].arrival))
    return pauses


def build_timeline(client_id, point_groups, topo: Topology,
                   gap_threshold=DEFAULT_GAP_THRESHOLD) -> ClientTimeline:
    """Full pipeline for one client: sessionize per-file point groups and map
    all the sessions onto node visits for the given topology."""
    sessions = sessionize(point_groups, gap_threshold, client_id=client_id)
    visit_sessions = map_to_node_visits(sessions, topo)
    return ClientTimeline(client_id, visit_sessions, _pauses_between(client_id, visit_sessions))


def _parsed(files, root):
    """parse_plt of each file in turn, so that the files of a user are
    parsed as sessionize takes them; a data error names its file."""
    for f in files:
        try:
            points = parse_plt(f.read_bytes())
        except DataError as exc:
            exc.args = (f"{f.relative_to(root)}: {exc}",)
            raise
        yield points


def load_geolife_dir(root, topo, gap_threshold=DEFAULT_GAP_THRESHOLD,
                     clients=None) -> list[ClientTimeline]:
    """Ingest a GeoLife dataset root (layout ``Data/<user>/Trajectory/*.plt``).
    ``clients``, when given, names the user directories to read; an id with
    no directory is a DataError."""
    try:
        import numpy  # noqa: F401 -- loaded before the first file is read, so parsing never pays for it
    except ModuleNotFoundError:
        raise ConfigError("GeoLife ingest needs numpy, which is not installed") from None
    root = Path(root)
    if not root.exists():
        raise DataError(
            f"GeoLife directory not found: {root}. Download the 'GeoLife GPS Trajectories 1.3' "
            "dataset; its folder contains Data/<user>/Trajectory/*.plt")
    if not root.is_dir():
        raise DataError(f"GeoLife path is not a directory: {root}")
    data = root / "Data" if (root / "Data").is_dir() else root
    user_dirs = sorted(d for d in data.iterdir() if (d / "Trajectory").is_dir())
    if clients is not None:
        wanted = set(clients)
        missing = sorted(wanted - {d.name for d in user_dirs})
        if missing:
            raise DataError(f"no user directory under {data} for client(s) {', '.join(missing)}")
        user_dirs = [d for d in user_dirs if d.name in wanted]
    if not user_dirs:
        raise EmptyTraceError(
            f"no GeoLife user directories under {data}; expected Data/<user>/Trajectory/*.plt "
            "(the GeoLife GPS Trajectories 1.3 dataset must be downloaded separately)")
    timelines = []
    for user_dir in user_dirs:
        files = sorted((user_dir / "Trajectory").glob("*.plt"))
        if not files:
            raise EmptyTraceError(f"no .plt files under {user_dir / 'Trajectory'}")
        try:
            timelines.append(build_timeline(user_dir.name, _parsed(files, root), topo, gap_threshold))
        except TraceOverlapError as exc:
            named = "; ".join(f"{files[i].relative_to(root)} and {files[j].relative_to(root)}"
                              for i, j in exc.pairs)
            exc.args = (f"client {user_dir.name}: {len(exc.pairs)} overlapping trajectory file pair(s): {named}",)
            raise
    return timelines


# ---------------------------------------------------------------------------
# Synthetic timelines

@dataclass
class SchedulePattern:
    """A weekly repeating trip: on each listed weekday, start at a wall-clock
    time and visit the node path with the given per-node stays."""
    days: list[int]              # 0 = Monday
    start_clock: float           # seconds past local midnight
    path: list[tuple[int, float]]  # (node id, stay seconds)


@dataclass
class SyntheticSpec:
    client_id: str
    weeks: int
    patterns: list[SchedulePattern]
    anchor: float = 0.0          # epoch seconds of a Monday 00:00
    jitter: float = 0.0          # max absolute start-time jitter, seconds


def _local(spec: SyntheticSpec, t: float) -> str:
    """Weekday and wall-clock time of ``t`` in the spec's week (``Monday 08:00:00``)."""
    day, clock = divmod(t - spec.anchor, 86400.0)
    weekday = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday")[int(day) % 7]
    return f"{weekday} {time.strftime('%H:%M:%S', time.gmtime(clock))}"


def synth_generate(spec: SyntheticSpec, noise_seed=None) -> ClientTimeline:
    """Expand a weekly schedule into a fully deterministic timeline; with
    noise_seed set, uniform jitter (at most spec.jitter) is applied to start
    times only."""
    import random
    rng = random.Random(noise_seed) if noise_seed is not None else None
    entries = []
    for pat in spec.patterns:
        for w in range(spec.weeks):
            for day in pat.days:
                start = spec.anchor + (w * 7 + day) * 86400.0 + pat.start_clock
                entries.append((start, pat))
    entries.sort(key=lambda e: e[0])
    sessions: list[list[NodeVisit]] = []
    for idx, (start, pat) in enumerate(entries):
        if rng is not None and spec.jitter > 0:
            start += rng.uniform(-spec.jitter, spec.jitter)
        visits = []
        t = start
        for node, stay in pat.path:
            visits.append(NodeVisit(int(node), t, t + stay))
            t += stay
        if sessions and visits[0].arrival <= sessions[-1][-1].departure:
            raise ConfigError(
                f"client {spec.client_id}: synthetic session {idx} starting {_local(spec, visits[0].arrival)} "
                f"overlaps session {idx - 1} starting {_local(spec, sessions[-1][0].arrival)}")
        sessions.append(visits)
    return ClientTimeline(spec.client_id, sessions, _pauses_between(spec.client_id, sessions))


# ---------------------------------------------------------------------------
# Cached node-visit CSV

VISITS_HEADER = ["client_id", "session_id", "node_id", "arrival_epoch_s", "departure_epoch_s"]


@contextmanager
def replacing_file(path):
    """A text file to write in place of ``path``. It is written as the sibling
    ``<name>.partial`` and moved onto ``path`` only when the block completes,
    so an interrupted write never leaves a file that reads as whole."""
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    try:
        with open(partial, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def write_visits_csv(timelines, fileobj):
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(VISITS_HEADER)
    for tl in sorted(timelines, key=lambda t: t.client_id):
        for sid, visits in enumerate(tl.sessions):
            for v in visits:
                writer.writerow([tl.client_id, sid, v.node, repr(v.arrival), repr(v.departure)])


def csv_rows(fileobj):
    """(line, row) of each row csv reads from a file opened as UTF-8 with ``newline=""``;
    DataError naming the file for a byte that is not UTF-8, and its line for a row csv cannot split."""
    reader = csv.reader(fileobj)
    try:
        for row in reader:
            yield reader.line_num, row
    except UnicodeDecodeError as exc:
        raise DataError(f"{getattr(fileobj, 'name', 'CSV')}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise DataError(f"{getattr(fileobj, 'name', 'CSV')} line {reader.line_num}: {exc}") from None


def read_visits_csv(fileobj, node_count) -> list[ClientTimeline]:
    """Timelines from a visits CSV (see ``csv_rows``). The rows are checked for
    everything ``ClientTimeline.validate`` checks, and node ids against a
    topology's ``node_count``; a fault names its line, after the file's name
    if the file object has one."""
    source = getattr(fileobj, "name", None)
    fault = partial(TraceFormatError, source=source)
    lines = csv_rows(fileobj)
    _, header = next(lines, (1, None))
    if header != VISITS_HEADER:
        raise fault(f"unexpected visits header {header!r}", line=1)
    by_client: dict[str, dict[int, list[tuple[int, NodeVisit]]]] = {}
    for lineno, row in lines:
        if not row:
            continue
        if len(row) != len(VISITS_HEADER):
            raise fault(f"expected {len(VISITS_HEADER)} fields, got {len(row)}", line=lineno)
        try:
            cid, sid, node, arr, dep = row[0], int(row[1]), int(row[2]), float(row[3]), float(row[4])
        except ValueError as exc:
            raise fault(str(exc), line=lineno) from exc
        if not (math.isfinite(arr) and math.isfinite(dep)):
            raise fault(f"non-finite visit time: {row[3]}, {row[4]}", line=lineno)
        if dep < arr:
            raise fault(f"departure {dep!r} before arrival {arr!r}", line=lineno)
        if not 0 <= node < node_count:
            raise fault(f"unknown node id {node}; the topology has ids 0 to {node_count - 1}", line=lineno)
        by_client.setdefault(cid, {}).setdefault(sid, []).append((lineno, NodeVisit(node, arr, dep)))
    timelines = []
    for cid in sorted(by_client):
        sessions = []
        for sid in sorted(by_client[cid]):
            rows = by_client[cid][sid]
            for (_, a), (lineno, b) in zip(rows, rows[1:]):
                if a.node == b.node:
                    raise fault(f"consecutive visits of session {sid} at node {b.node}", line=lineno)
                if a.departure != b.arrival:
                    raise fault(f"visit arrives at {b.arrival!r}, not when the previous visit "
                                f"of session {sid} departs at {a.departure!r}", line=lineno)
            lineno, first = rows[0]
            if sessions and not first.arrival > sessions[-1][-1].departure:
                raise fault(f"session {sid} starts at {first.arrival!r}, not after the "
                            f"previous session ends at {sessions[-1][-1].departure!r}", line=lineno)
            sessions.append([v for _, v in rows])
        timelines.append(ClientTimeline(cid, sessions, _pauses_between(cid, sessions)))
    if not timelines:
        raise EmptyTraceError(f"{f'{source}: ' if source else ''}visits file contains no rows")
    return timelines
