"""Seeded generator of GeoLife-shaped mobile clients.

Every client is an anchored random walk on a rows x cols grid of cells: it
has a home and a work cell, commutes between them on weekdays at jittered
morning and evening times (mostly greedy steps toward the goal, with random
detours), and makes random excursions on weekends. Some trips, and every trip
longer than MAX_SESSION_S, are split by stops of a few minutes, and some days
are skipped, so pauses mix minutes, hours and days. Stays at a cell last
30-600 whole seconds. Capping session length also caps the largest session,
which sets fogrep's peak memory during ingest, so that it varies little
between seeds.

The generator is the reference for ingestion: a PLT tree is written with one
file per session, points every 1-5 s placed strictly inside their cell (away
from every cell border), so the node visits that ingesting it must produce are
exactly the visits generated here, without running fogrep's ingest code.
"""
from __future__ import annotations

import calendar
import hashlib
import random
import time
from dataclasses import dataclass
from pathlib import Path

from fogrep.topology import BEIJING_BBOX
from fogrep.traces import (ClientTimeline, GeoPoint, NodeVisit, Pause,
                           format_plt, write_visits_csv)

TZ_OFFSET = 8 * 3600                                    # Beijing local time
ANCHOR = calendar.timegm((2008, 10, 6, 0, 0, 0)) - TZ_OFFSET  # a local Monday 00:00
MIN_STAY, MAX_STAY = 30, 600                            # seconds at one cell
MIN_STEP, MAX_STEP = 1, 5                               # PLT sampling interval, s
CELL_MARGIN = 0.1                                       # points keep this share of a cell from its borders
DETOUR_P = 0.15                                         # chance that a step is a random detour
SPLIT_P = 0.25                                          # chance that a trip stops for minutes
MAX_SESSION_S = 3600                                    # longer trips are recorded as several sessions
SKIP_DAY_P = 0.1                                        # chance that a client stays offline all day
WEEKEND_TRIP_P = 0.6                                    # chance of an excursion on a weekend day


@dataclass(frozen=True)
class Shape:
    clients: int
    sessions: int    # sessions (one PLT file each) per client
    rows: int
    cols: int
    bbox: tuple = BEIJING_BBOX


def _cell(node, cols):
    return divmod(node, cols)


def _trip(rng, src, dst, rows, cols) -> list[int]:
    """Cells from src to dst: greedy grid steps with random detours."""
    path = [src]
    r, c = _cell(src, cols)
    gr, gc = _cell(dst, cols)
    while (r, c) != (gr, gc):
        moves = [(r + dr, c + dc) for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1))
                 if 0 <= r + dr < rows and 0 <= c + dc < cols]
        closer = [m for m in moves if abs(m[0] - gr) + abs(m[1] - gc) < abs(r - gr) + abs(c - gc)]
        r, c = rng.choice(moves if rng.random() < DETOUR_P else closer)
        path.append(r * cols + c)
    return path


def _far_cell(rng, origin, rows, cols, lo, hi) -> int:
    r0, c0 = _cell(origin, cols)
    while True:
        node = rng.randrange(rows * cols)
        r, c = _cell(node, cols)
        if lo <= abs(r - r0) + abs(c - c0) <= hi:
            return node


def _client_trips(rng, index, shape: Shape):
    """Yield (start, path) trips of one client in time order, forever."""
    rows, cols = shape.rows, shape.cols
    reach = max(2, min(8, (rows + cols) // 4))
    home = rng.randrange(rows * cols)
    # commute lengths cycle over the clients instead of being drawn, so that
    # the amount of work varies little from one seed to the next
    commute = 2 + index % (reach - 1)
    work = _far_cell(rng, home, rows, cols, commute, commute)
    day = 0
    while True:
        midnight = ANCHOR + day * 86400
        day += 1
        if rng.random() < SKIP_DAY_P:
            continue
        if (day - 1) % 7 < 5:
            yield midnight + rng.randint(7 * 3600, 9 * 3600), _trip(rng, home, work, rows, cols)
            yield midnight + rng.randint(17 * 3600, 19 * 3600), _trip(rng, work, home, rows, cols)
        elif rng.random() < WEEKEND_TRIP_P:
            goal = _far_cell(rng, home, rows, cols, 1, reach)
            yield midnight + rng.randint(10 * 3600, 12 * 3600), _trip(rng, home, goal, rows, cols)
            yield midnight + rng.randint(15 * 3600, 17 * 3600), _trip(rng, goal, home, rows, cols)


def _client_timeline(rng, index, shape: Shape) -> ClientTimeline:
    client_id = f"{index:03d}"
    sessions: list[list[NodeVisit]] = []
    trips = _client_trips(rng, index, shape)
    while len(sessions) < shape.sessions:
        start, path = next(trips)
        if sessions and start <= sessions[-1][-1].departure:
            continue  # a long trip ran into the next one: drop the later trip
        cut = rng.randrange(1, len(path)) if len(path) > 2 and rng.random() < SPLIT_P else None
        current, t = [], start
        for i, node in enumerate(path):
            stay = rng.randint(MIN_STAY, MAX_STAY)
            if i == cut or (current and t + stay - current[0].arrival > MAX_SESSION_S):
                # the client switches off for a few minutes, then resumes the trip
                sessions.append(current)
                current = []
                t += rng.randint(60, 900)
            current.append(NodeVisit(node, float(t), float(t + stay)))
            t += stay
        sessions.append(current)
    sessions = sessions[:shape.sessions]
    pauses = [Pause(client_id, a[-1].node, a[-1].departure, b[0].arrival)
              for a, b in zip(sessions, sessions[1:])]
    return ClientTimeline(client_id, sessions, pauses)


def generate(seed: int, shape: Shape) -> list[ClientTimeline]:
    """Timelines of ``shape.clients`` clients; all times are whole seconds."""
    rng = random.Random(seed)
    return [_client_timeline(rng, i, shape) for i in range(shape.clients)]


def _session_points(rng, visits, shape: Shape) -> list[GeoPoint]:
    lat0, lat1, lon0, lon1 = shape.bbox
    dlat = (lat1 - lat0) / shape.rows
    dlon = (lon1 - lon0) / shape.cols
    lo, hi = CELL_MARGIN, 1.0 - CELL_MARGIN
    points = []

    def point(node, t):
        r, c = _cell(node, shape.cols)
        points.append(GeoPoint(lat0 + (r + rng.uniform(lo, hi)) * dlat,
                               lon0 + (c + rng.uniform(lo, hi)) * dlon, float(t)))

    for v in visits:
        t = int(v.arrival)
        while t < v.departure:
            point(v.node, t)
            t += rng.randint(MIN_STEP, MAX_STEP)
    point(visits[-1].node, int(visits[-1].departure))
    return points


def write_plt_tree(seed: int, timelines, shape: Shape, root: Path) -> int:
    """Write ``root/Data/<user>/Trajectory/<start>.plt``, one file per
    session; returns the number of points written."""
    rng = random.Random(f"plt-{seed}")
    total = 0
    for tl in timelines:
        traj = root / "Data" / tl.client_id / "Trajectory"
        traj.mkdir(parents=True, exist_ok=True)
        for visits in tl.sessions:
            points = _session_points(rng, visits, shape)
            name = time.strftime("%Y%m%d%H%M%S", time.gmtime(visits[0].arrival))
            (traj / f"{name}.plt").write_text(format_plt(points))
            total += len(points)
    return total


def write_visits(timelines, path: Path):
    with open(path, "w") as fh:
        write_visits_csv(timelines, fh)


def visit_rows(timelines) -> list[tuple]:
    """(client, session, node, arrival, departure) in visits-CSV order."""
    return [(tl.client_id, sid, v.node, v.arrival, v.departure)
            for tl in sorted(timelines, key=lambda t: t.client_id)
            for sid, visits in enumerate(tl.sessions) for v in visits]


def digest(timelines) -> str:
    """Hash of the generated visits, independent of any fogrep file format."""
    h = hashlib.sha256()
    for row in visit_rows(timelines):
        h.update(repr(row).encode())
    return h.hexdigest()
