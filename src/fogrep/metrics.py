"""Availability, excess-data and memory metrics over a replica ledger, the
dict from (client, node) to sorted, disjoint presence intervals [from, to)
that ``simengine.run`` records.

Everything is computed by interval intersection, never by time stepping:
availability is the fraction of application-active time during which the
current closest node held the replica, excess data is all remaining presence
time divided by active time (preloads before arrival, late deletions, wrong
nodes, and retention during pauses all land here). Data in transit counts as
present nowhere. Both ratios are formed in two places only: ``compute_report``
gives one client's row from ``active_time``, ``covered_time`` and
``presence_time``, and ``point_report`` folds a sweep point's rows, forming
the ratios over all clients from their sums in client-id order. The
cumulative availability series is one forward sweep over a client's sessions
and visits, and ignores ``metrics.window``.
"""
from __future__ import annotations

import csv
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter

from .errors import ConfigError, UndefinedMetricError
from .traces import ClientTimeline


def _clip(a, b, window):
    if window is None:
        return a, b
    lo, hi = window
    return max(a, lo), min(b, hi)


def _overlap(intervals, a, b) -> float:
    """Total length of the sorted, disjoint ``intervals`` inside [a, b), from
    the first interval that ends after ``a`` to the last that starts before ``b``."""
    total = 0.0
    for k in range(bisect_right(intervals, a, key=itemgetter(1)), len(intervals)):
        x, y = intervals[k]
        if x >= b:
            break
        lo = x if x > a else a
        hi = y if y < b else b
        if hi > lo:
            total += hi - lo
    return total


def active_time(timeline: ClientTimeline, window=None) -> float:
    total = 0.0
    for visits in timeline.sessions:
        a, b = _clip(visits[0].arrival, visits[-1].departure, window)
        if b > a:
            total += b - a
    return total


def covered_time(ledger: dict, timeline: ClientTimeline, window=None) -> float:
    """Active time during which the current closest node held the replica."""
    total = 0.0
    for visits in timeline.sessions:
        for v in visits:
            a, b = _clip(v.arrival, v.departure, window)
            if b > a:
                total += _overlap(ledger.get((timeline.client_id, v.node), ()), a, b)
    return total


def presence_time(ledger: dict, client, window=None) -> float:
    """Time any replica of the client was present, over its nodes in ascending order."""
    total = 0.0
    for key in sorted(key for key in ledger if key[0] == client):
        for a, b in ledger[key]:
            a, b = _clip(a, b, window)
            if b > a:
                total += b - a
    return total


def series_step(t, bucket) -> float:
    """The series boundary one bucket after ``t``; ConfigError naming
    ``metrics.series_bucket`` when the step does not advance past ``t``."""
    if not t + bucket > t:
        raise ConfigError(f"metrics.series_bucket: a step of {bucket!r} s does not advance past {t!r}")
    return t + bucket


def availability_series(ledger: dict, timeline: ClientTimeline, bucket) -> list[tuple[float, float]]:
    """Cumulative availability at each bucket boundary after the client's first
    arrival, starting at the first bucket with any activity; ``metrics.window``
    does not apply. One forward sweep keeps totals over the sessions and visits
    that end by the boundary and adds the one session and the one visit that
    straddle it, in the order ``active_time`` and ``covered_time`` add them."""
    cid = timeline.client_id
    sessions = [(s[0].arrival, s[-1].departure) for s in timeline.sessions]
    visits = [(v.arrival, v.departure, v.node) for s in timeline.sessions for v in s]
    points = []
    active = covered = 0.0  # over the sessions and visits that end by t
    i = j = 0
    t = timeline.first_t
    while True:
        t = series_step(t, bucket)
        while i < len(sessions) and sessions[i][1] <= t:
            a, b = sessions[i]
            if b > a:
                active += b - a
            i += 1
        while j < len(visits) and visits[j][1] <= t:
            a, b, node = visits[j]
            if b > a:
                covered += _overlap(ledger.get((cid, node), ()), a, b)
            j += 1
        active_now, covered_now = active, covered
        if i < len(sessions) and sessions[i][0] < t:
            active_now += t - sessions[i][0]
        if active_now > 0:
            if j < len(visits) and visits[j][0] < t:
                covered_now += _overlap(ledger.get((cid, visits[j][2]), ()), visits[j][0], t)
            points.append((t, covered_now / active_now))
        if t >= timeline.last_t:
            return points


@dataclass
class ClientMetrics:
    """One client's row of a point's report, with the sums the point's totals add up."""
    client_id: str
    active_s: float
    availability: float
    excess_ratio: float
    memory_bytes: int
    covered_s: float
    presence_s: float
    series: list[tuple[float, float]] | None = None


@dataclass
class MetricsReport:
    active_s: float  # over all clients, summed in client-id order
    availability: float
    excess_ratio: float
    memory_avg: float
    memory_max: int
    per_client: list[ClientMetrics]


def compute_report(ledger: dict, timeline: ClientTimeline, memory_bytes=0, window=None,
                   series_bucket=None) -> ClientMetrics:
    """One client's row: its ratios (NaN without active time), the sums a
    point's report adds up and, given ``series_bucket``, its availability series."""
    active = active_time(timeline, window)
    covered = covered_time(ledger, timeline, window)
    presence = presence_time(ledger, timeline.client_id, window)
    return ClientMetrics(
        client_id=timeline.client_id,
        active_s=active,
        availability=covered / active if active > 0 else float("nan"),
        excess_ratio=(presence - covered) / active if active > 0 else float("nan"),
        memory_bytes=memory_bytes,
        covered_s=covered,
        presence_s=presence,
        series=None if series_bucket is None else availability_series(ledger, timeline, series_bucket),
    )


def point_report(rows) -> MetricsReport:
    """A sweep point's report from its clients' rows, given in client-id
    order: the availability and excess numerators and the active-time
    denominator sum over the clients in that order."""
    tot_active = tot_covered = tot_presence = 0.0
    for m in rows:
        tot_active += m.active_s
        tot_covered += m.covered_s
        tot_presence += m.presence_s
    if tot_active <= 0:
        raise UndefinedMetricError("no active time across clients")
    mems = [m.memory_bytes for m in rows]
    return MetricsReport(
        active_s=tot_active,
        availability=tot_covered / tot_active,
        excess_ratio=(tot_presence - tot_covered) / tot_active,
        memory_avg=sum(mems) / len(mems),
        memory_max=max(mems),
        per_client=rows,
    )


REPORT_HEADER = ["client_id", "active_s", "availability", "excess_ratio", "memory_bytes"]


def write_report_csv(report: MetricsReport, fileobj):
    """Per-client rows plus an aggregate row."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(REPORT_HEADER)
    for m in report.per_client:
        writer.writerow([m.client_id, repr(m.active_s), repr(m.availability),
                         repr(m.excess_ratio), m.memory_bytes])
    writer.writerow(["ALL", repr(report.active_s),
                     repr(report.availability), repr(report.excess_ratio),
                     repr(report.memory_avg)])
