import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fogrep import metrics
from fogrep.errors import ConfigError, UndefinedMetricError
from fogrep.metrics import _overlap, availability_series, compute_report, write_report_csv
from fogrep.policies import PolicyConfig
from fogrep.simengine import check_ledger, run
from fogrep.topology import FixedDelay, build_grid
from fogrep.traces import ClientTimeline, NodeVisit, Pause

from oracles import fold_report, make_micro_scenario, per_second_metrics

UNIT_BBOX = (0.0, 1.0, 0.0, 1.0)
A, B, C = 0, 1, 2


def timeline(client_id, *sessions):
    visit_sessions = [[NodeVisit(n, float(a), float(d)) for n, a, d in sess]
                      for sess in sessions]
    pauses = [Pause(client_id, before[-1].node, before[-1].departure, after[0].arrival)
              for before, after in zip(visit_sessions, visit_sessions[1:])]
    return ClientTimeline(client_id, visit_sessions, pauses)


def row(ledger, tl, window=None):
    """The client's row of a one-client report."""
    return fold_report(ledger, [tl], window=window).per_client[0]


def ledger_of(client_id, entries):
    return {(client_id, node): [(float(a), float(b)) for a, b in intervals]
            for node, intervals in entries.items()}


class TestAvailability:
    def test_half_covered(self):
        tl = timeline("c", [(A, 0, 100)])
        ledger = ledger_of("c", {A: [(0, 50)]})
        assert row(ledger, tl).availability == 0.50

    def test_full_coverage(self):
        tl = timeline("c", [(A, 0, 100), (B, 100, 300)])
        ledger = ledger_of("c", {A: [(0, 100)], B: [(100, 300)]})
        assert row(ledger, tl).availability == 1.0

    def test_presence_at_wrong_node_does_not_count(self):
        tl = timeline("c", [(A, 0, 100)])
        ledger = ledger_of("c", {B: [(0, 100)]})
        assert row(ledger, tl).availability == 0.0

    def test_zero_active_time_undefined(self):
        tl = timeline("c", [(A, 5, 5)])
        with pytest.raises(UndefinedMetricError, match="no active time"):
            fold_report(ledger_of("c", {}), [tl])
        # one idle client among active ones has no ratios of its own
        report = fold_report(ledger_of("c", {}), [tl, timeline("d", [(A, 0, 10)])])
        assert math.isnan(report.per_client[0].availability) and report.availability == 0.0

    def test_window_restriction(self):
        tl = timeline("c", [(A, 0, 100)])
        ledger = ledger_of("c", {A: [(0, 50)]})
        assert row(ledger, tl, window=(0, 50)).availability == 1.0
        assert row(ledger, tl, window=(50, 100)).availability == 0.0


class TestExcessData:
    def test_wrong_node_half(self):
        tl = timeline("c", [(A, 0, 100)])
        ledger = ledger_of("c", {A: [(0, 100)], B: [(25, 75)]})
        assert row(ledger, tl).excess_ratio == 0.50

    def test_baseline_zero_exact(self):
        tl = timeline("c", [(A, 0, 1000), (B, 1000, 2000)], [(A, 3000, 4000)])
        result = run([tl], build_grid(1, 3, UNIT_BBOX), FixedDelay(300.0), PolicyConfig())
        assert row(result.ledger, tl).excess_ratio == 0.0

    def test_preload_window_counts(self):
        # replica at B during [700, 1000) before the client arrives at 1000
        tl = timeline("c", [(A, 0, 1000), (B, 1000, 2000)])
        ledger = ledger_of("c", {A: [(300, 1000)], B: [(700, 2000)]})
        assert row(ledger, tl).excess_ratio == 300.0 / 2000.0

    def test_retention_during_pause_counts(self):
        tl = timeline("c", [(A, 0, 100)], [(A, 200, 300)])
        ledger = ledger_of("c", {A: [(0, 300)]})
        assert row(ledger, tl).excess_ratio == 100.0 / 200.0

    def test_can_exceed_one(self):
        tl = timeline("c", [(A, 0, 100)])
        ledger = ledger_of("c", {B: [(0, 100)], C: [(0, 100)]})
        assert row(ledger, tl).excess_ratio == 2.0


class TestPartitionInvariant:
    def test_availability_plus_miss_is_one(self):
        rng = random.Random(8)
        for _ in range(15):
            timelines, topo, network, config = make_micro_scenario(rng)
            ledger = run(timelines, topo, network, config).ledger
            for tl in timelines:
                from fogrep.metrics import active_time, covered_time
                active = active_time(tl)
                covered = covered_time(ledger, tl)
                missed = active - covered
                assert covered / active + missed / active == pytest.approx(1.0, abs=1e-12)


class TestSeries:
    def test_flat_series(self):
        tl = timeline("c", [(A, 0, 100)])
        ledger = ledger_of("c", {A: [(0, 100)]})
        series = availability_series(ledger, tl, bucket=25.0)
        assert series == [(25.0, 1.0), (50.0, 1.0), (75.0, 1.0), (100.0, 1.0)]

    def test_rising_after_warmup(self):
        # miss in the first session, perfect afterwards: cumulative curve rises
        tl = timeline("c", [(A, 0, 100)], [(A, 200, 300)], [(A, 400, 500)])
        ledger = ledger_of("c", {A: [(50, 100), (200, 300), (400, 500)]})
        series = availability_series(ledger, tl, bucket=100.0)
        values = [v for _, v in series]
        assert values[0] == 0.5
        assert values == sorted(values)
        assert values[-1] > 0.8

    def test_skips_inactive_leading_buckets(self):
        tl = timeline("c", [(A, 0, 10)], [(A, 1000, 1100)])
        ledger = ledger_of("c", {A: [(0, 10)]})
        series = availability_series(ledger, tl, bucket=50.0)
        assert series[0][0] == 50.0  # first bucket has the initial session

    @pytest.mark.parametrize("t0, bucket", [(1.2e9, 1e-9), (0.0, 0.0), (0.0, -1.0), (0.0, math.nan)])
    def test_bucket_that_does_not_advance_is_a_config_error(self, t0, bucket):
        tl = timeline("c", [(A, t0, t0 + 3600.0)])
        with pytest.raises(ConfigError, match=r"^metrics\.series_bucket: "):
            availability_series(ledger_of("c", {A: [(t0, t0 + 1800.0)]}), tl, bucket)

    def test_every_step_must_advance(self):
        # the first step lands on 1.0 exactly; 1.0 + 2**-53 rounds back to 1.0
        tl = timeline("c", [(A, 1.0 - 2.0 ** -53, 2.0)])
        with pytest.raises(ConfigError, match=r"does not advance past 1\.0$"):
            availability_series(ledger_of("c", {A: [(1.0, 2.0)]}), tl, 2.0 ** -53)

    def test_one_overlap_per_visit_and_bucket(self, monkeypatch):
        # 20 sessions of three visits each, 1000 s apart, with one-minute buckets
        tl = timeline("c", *[[(A, d * 1000, d * 1000 + 100), (B, d * 1000 + 100, d * 1000 + 250),
                              (C, d * 1000 + 250, d * 1000 + 400)] for d in range(20)])
        ledger = ledger_of("c", {A: [(d * 1000 + 50, d * 1000 + 100) for d in range(20)],
                                 B: [(d * 1000, d * 1000 + 300) for d in range(0, 20, 2)]})
        calls = []
        monkeypatch.setattr(metrics, "_overlap", lambda *args: calls.append(args) or _overlap(*args))
        series = availability_series(ledger, tl, bucket=60.0)
        buckets = math.ceil((tl.last_t - tl.first_t) / 60.0)
        assert len(series) == buckets
        assert len(calls) <= sum(map(len, tl.sessions)) + buckets

    def test_report_calls_the_series_once_per_series_client(self, monkeypatch):
        tls = [timeline(cid, [(A, 0, 100)]) for cid in ("c1", "c2", "c3")]
        ledger = ledger_of("c2", {A: [(0, 50)]})
        calls = []
        monkeypatch.setattr(metrics, "availability_series",
                            lambda *args: calls.append(args[1].client_id) or availability_series(*args))
        report = fold_report(ledger, tls, series_clients=("c2", "c3"), series_bucket=50.0)
        assert calls == ["c2", "c3"]
        assert {m.client_id: m.series for m in report.per_client if m.series is not None} == \
               {"c2": [(50.0, 1.0), (100.0, 0.5)], "c3": [(50.0, 0.0), (100.0, 0.0)]}

    def test_row_has_a_series_only_given_a_bucket(self):
        tl = timeline("c", [(A, 0, 100)])
        ledger = ledger_of("c", {A: [(0, 50)]})
        assert compute_report(ledger, tl).series is None
        assert compute_report(ledger, tl, series_bucket=50.0).series == [(50.0, 1.0), (100.0, 0.5)]


NODES = (A, B, C)
UNVISITED = 3


@st.composite
def sorted_disjoint(draw, times, lo, hi):
    """Sorted, disjoint, non-empty intervals whose endpoints are drawn from
    ``times`` or from [lo, hi]; consecutive intervals may touch."""
    ends = sorted(set(draw(st.lists(st.sampled_from(times) | st.floats(lo, hi), max_size=10))))
    intervals, k = [], 0
    while k + 1 < len(ends):
        intervals.append((ends[k], ends[k + 1]))
        k += draw(st.sampled_from((1, 2)))  # 1: the next interval starts where this one ends
    return intervals


@st.composite
def series_cases(draw):
    """A validated timeline, a validated ledger over its nodes and one never
    visited, and a bucket. Stays and pauses are multiples of a quantum and the
    bucket mostly is too, so that boundaries can fall exactly on arrivals,
    departures and session ends; zero-length stays are allowed."""
    quantum = draw(st.sampled_from((0.25, 1.0, 0.1, 7 / 3)))
    t = draw(st.sampled_from((0.0, 1.5, 1_200_000_000.0)))
    sessions = []
    for _ in range(draw(st.integers(1, 4))):
        visits, node = [], None
        for _ in range(draw(st.integers(1, 4))):
            node = draw(st.sampled_from([n for n in NODES if n != node]))
            departure = t + quantum * draw(st.integers(0, 6))
            visits.append((node, t, departure))
            t = departure
        sessions.append(visits)
        t += quantum * draw(st.integers(1, 6))
    tl = timeline("c", *sessions)
    tl.validate()
    times = sorted({x for visits in sessions for _, a, d in visits for x in (a, d)})
    lo, hi = times[0] - 4 * quantum, times[-1] + 4 * quantum
    ledger = {("c", node): intervals for node in (*NODES, UNVISITED)
              if (intervals := draw(sorted_disjoint(times, lo, hi)))}
    check_ledger(ledger)
    bucket = draw(st.integers(1, 8).map(lambda k: k * quantum)
                  | st.floats(quantum / 2, 20 * quantum, exclude_min=True))
    return tl, ledger, bucket


class TestSeriesOracle:
    @settings(max_examples=50, deadline=None)
    @given(series_cases())
    def test_sweep_matches_recomputation(self, case):
        tl, ledger, bucket = case
        with mock.patch("fogrep.metrics._overlap", oracles.overlap):
            want = oracles.availability_series(ledger, tl, bucket)
        got = availability_series(ledger, tl, bucket)
        assert len(got) == len(want)
        assert [repr(p) for p in got] == [repr(p) for p in want]

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_bisected_overlap_matches_scan(self, data):
        times = data.draw(st.lists(st.floats(-100, 100), min_size=1, max_size=8))
        intervals = data.draw(sorted_disjoint(times, -100.0, 100.0))
        bound = st.sampled_from([x for iv in intervals for x in iv] or times) | st.floats(-120, 120)
        a = data.draw(bound)
        b = data.draw(st.just(a) | bound)  # empty when a == b, inverted when b < a
        assert repr(_overlap(intervals, a, b)) == repr(oracles.overlap(intervals, a, b))


class TestAggregation:
    def test_excess_additive_over_clients_by_active_time(self):
        t1 = timeline("c1", [(A, 0, 100)])
        t2 = timeline("c2", [(B, 0, 300)])
        ledger = {("c1", B): [(0.0, 50.0)],    # 50 s excess on 100 s active
                  ("c2", A): [(0.0, 150.0)]}   # 150 s excess on 300 s active
        report = fold_report(ledger, [t1, t2])
        assert report.excess_ratio == (50.0 + 150.0) / (100.0 + 300.0)
        per = {m.client_id: m.excess_ratio for m in report.per_client}
        assert per == {"c1": 0.5, "c2": 0.5}

    def test_global_replication_closed_form(self):
        # full replication at all nodes for the whole observed lifetime:
        # excess = (N - 1) + N * pause_time / active_time
        tl = timeline("c", [(A, 0, 600)], [(B, 1800, 2400)])
        n_nodes = 3
        lifetime = (0.0, 2400.0)
        ledger = {("c", node): [lifetime] for node in range(n_nodes)}
        active = 1200.0
        pause = 1200.0
        expected = (n_nodes - 1) + n_nodes * pause / active
        assert row(ledger, tl).excess_ratio == expected
        assert row(ledger, tl).availability == 1.0

    def test_report_csv_shape(self, tmp_path):
        tl = timeline("c", [(A, 0, 100)])
        ledger = ledger_of("c", {A: [(0, 100)]})
        report = fold_report(ledger, [tl], memory_by_client={"c": 42})
        out = tmp_path / "report.csv"
        with open(out, "w") as fh:
            write_report_csv(report, fh)
        lines = out.read_text().splitlines()
        assert lines[0] == "client_id,active_s,availability,excess_ratio,memory_bytes"
        assert lines[1].startswith("c,")
        assert lines[2].startswith("ALL,")


class TestPerSecondOracle:
    def test_interval_metrics_match_stepping(self):
        rng = random.Random(5150)
        for _ in range(30):
            timelines, topo, network, config = make_micro_scenario(rng)
            ledger = run(timelines, topo, network, config).ledger
            report = fold_report(ledger, timelines)
            oracle_avail, oracle_excess = per_second_metrics(ledger, timelines)
            assert report.availability == oracle_avail
            assert report.excess_ratio == oracle_excess
