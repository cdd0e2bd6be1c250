import calendar
import io
import pickle
import random
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogrep.errors import (ConfigError, DataError, EmptyTraceError,
                           TraceFormatError, TraceOverlapError)
from fogrep.metrics import active_time
from fogrep.topology import build_grid
from fogrep.traces import (ClientTimeline, GeoPoint, NodeVisit, Pause,
                           SchedulePattern, Sessions, SyntheticSpec, Track,
                           build_timeline, format_plt, load_geolife_dir,
                           map_to_node_visits, parse_plt, parse_plt_rows,
                           read_visits_csv, sessionize, synth_generate,
                           write_visits_csv)
from fogrep.traces import _parse_columns
from oracles import track_points

UNIT_BBOX = (0.0, 1.0, 0.0, 1.0)

PLT_HEADER = ("Geolife trajectory\nWGS 84\nAltitude is in Feet\nReserved 3\n"
              "0,2,255,My Track,0,0,2,8421376\n0\n")


def plt_file(rows):
    return PLT_HEADER + "\n".join(rows) + ("\n" if rows else "")


def epoch(date_s, time_s):
    y, mo, d = (int(x) for x in date_s.split("-"))
    h, mi, s = (int(x) for x in time_s.split(":"))
    return float(calendar.timegm((y, mo, d, h, mi, s)))


class TestParsePlt:
    def test_single_row_field_mapping(self):
        data = plt_file(["39.9,116.4,0,492,39744.12,2008-10-23,02:53:04"])
        points = parse_plt(data)
        assert track_points(points) == [GeoPoint(39.9, 116.4, epoch("2008-10-23", "02:53:04"))]

    def test_header_only_is_empty_trace(self):
        with warnings.catch_warnings(), pytest.raises(EmptyTraceError):
            warnings.simplefilter("error")
            parse_plt(plt_file([]))

    @pytest.mark.parametrize("rows", [["", ""], ["", "  ", "\t"]], ids=["empty", "white-space"])
    def test_blank_lines_after_the_header_are_an_empty_trace(self, rows):
        """numpy's reader warns that it read no data; that warning must not escape."""
        for data in (plt_file(rows), plt_file(rows).encode()):
            with warnings.catch_warnings(), pytest.raises(EmptyTraceError):
                warnings.simplefilter("error")
                parse_plt(data)

    def test_decreasing_timestamps_retained(self):
        data = plt_file([
            "39.9,116.4,0,1,0,2008-10-23,02:53:10",
            "39.9,116.4,0,1,0,2008-10-23,02:53:04",
        ])
        points = parse_plt(data)
        assert points.t.tolist() == [epoch("2008-10-23", "02:53:10"),
                                         epoch("2008-10-23", "02:53:04")]

    def test_malformed_row_reports_line(self):
        data = plt_file([
            "39.9,116.4,0,1,0,2008-10-23,02:53:04",
            "not,a,row",
        ])
        with pytest.raises(TraceFormatError) as err:
            parse_plt(data)
        assert err.value.line == 8  # 6 header lines + second data row

    def test_bytes_accepted(self):
        data = plt_file(["1.0,2.0,0,0,0,2009-01-01,00:00:00"]).encode()
        assert parse_plt(data).lat[0] == 1.0

    def test_round_trip(self):
        rows = ["39.906631,116.385564,0,492,39744.1201851852,2008-10-23,02:53:04",
                "39.907,116.3855,0,491,39744.1202,2008-10-23,02:53:09"]
        points = parse_plt(plt_file(rows))
        again = parse_plt(format_plt(track_points(points)))
        assert track_points(again) == track_points(points)


IMPOSSIBLE_FIELDS = [
    ("95.0,116.4,0,0,0,2008-10-23,02:53:04", "coordinates out of range: 95.0, 116.4"),
    ("nan,116.4,0,0,0,2008-10-23,02:53:04", "coordinates out of range: nan, 116.4"),
    ("39.9,116.4,0,0,0,2008-10-40,02:53:04", "invalid date '2008-10-40'"),
    ("39.9,116.4,0,0,0,2008-10-23,25:00:00", "invalid time '25:00:00'"),
    ("39.9,116.4,0,0,0,2008-10-23,12:61:75", "invalid time '12:61:75'"),
    # float() and int() read these, but a PLT number is ASCII digits with no underscore
    ("3_9.9,116.4,0,0,0,2008-10-23,02:53:04", "invalid coordinates '3_9.9,116.4'"),
    ("\u0663\u0669.\u0669,116.4,0,0,0,2008-10-23,02:53:04", "invalid coordinates '\u0663\u0669.\u0669,116.4'"),
    ("39.9,116.4,0,0,0,2008-+10-+23,02:53:04", "invalid date '2008-+10-+23'"),
    ("39.9,116.4,0,0,0,2008-10-23,-0:-0:-0", "invalid time '-0:-0:-0'"),
    ("39.9,116.4,0,0,0,2008-10-2\u0663,02:53:04", "invalid date '2008-10-2\u0663'"),
    ("39.9,116.4,0,0,0,2008-10-23,02:53:0\u0664", "invalid time '02:53:0\u0664'"),
]


class TestExactFields:
    @pytest.mark.parametrize("parse", [parse_plt, parse_plt_rows], ids=["columns", "rows"])
    @pytest.mark.parametrize("row, message", IMPOSSIBLE_FIELDS,
                             ids=["lat-95", "lat-nan", "day-40", "hour-25", "minute-61", "lat-underscore",
                                  "lat-arabic-indic-digits", "date-signs", "time-signs", "date-arabic-indic-digit",
                                  "time-arabic-indic-digit"])
    def test_impossible_field_names_its_line(self, parse, row, message):
        data = plt_file(["39.9,116.4,0,0,0,2008-10-23,02:53:03", row])
        with pytest.raises(TraceFormatError, match="^line 8: " + re.escape(message)) as err:
            parse(data)
        assert err.value.line == 8

    @pytest.mark.parametrize("parse", [parse_plt, parse_plt_rows], ids=["columns", "rows"])
    def test_short_row_balanced_by_a_long_one_names_its_line(self, parse):
        # fourteen fields in two rows: seven per row on average, but row 7 has six
        data = plt_file(["1.0,2.0,0,0,0,2008-10-23", "12:00:00,1.0,2.0,0,0,0,2008-10-23,12:00:00"])
        with pytest.raises(TraceFormatError, match="^line 7: expected 7 fields, got 6"):
            parse(data)

    def test_last_second_of_the_day_and_leap_day(self):
        data = plt_file(["39.9,116.4,0,0,0,2008-02-29,23:59:59"])
        assert parse_plt(data).t.tolist() == [epoch("2008-02-29", "23:59:59")]

    @pytest.mark.parametrize("parse", [parse_plt, parse_plt_rows], ids=["columns", "rows"])
    def test_unpadded_time_and_date(self, parse):
        data = plt_file(["39.9,116.4,0,0,0,2008-1-2,2:5:4"])
        assert parse(data).t.tolist() == [epoch("2008-01-02", "02:05:04")]


BAD_ROWS = ["not,a,row", "39.9,abc,0,0,0,2008-10-23,02:53:04", "39.9,116.4,0,0,0,2008/10/23,02:53:04",
            "39.9,116.4,0,0,0,2008-10-23,02:53", "0x1p3,116.4,0,0,0,2008-10-23,02:53:04",
            *(row for row, _ in IMPOSSIBLE_FIELDS)]


# where numpy's reader and float() or str.splitlines could part: NUL, VT, FF,
# FS to US, a lone CR, NEL and the line separator
ODD_CHARACTERS = ["\x00", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\r", "\x85", "\u2028"]


@st.composite
def plt_texts(draw):
    """A PLT file and whether the columnar reader must accept it: LF or CRLF,
    blank lines, at most one quirk and at most one malformed row at a random
    position. The reader accepts an eighth field; it may leave the other
    quirks to the row parser: unpadded times, lines of spaces, and in one
    field of one row an odd character or underscore, a non-ASCII digit, or
    white space before or after it."""
    quirk = draw(st.sampled_from([None, None, "unpadded", "extra field", "spaces",
                                  "character", "underscore", "digit", "padded"]))
    rows = []
    for _ in range(draw(st.integers(1, 25))):
        lat = draw(st.floats(-90.0, 90.0))
        lon = draw(st.floats(-180.0, 180.0))
        clock = draw(st.times())
        clock_s = clock.strftime("%H:%M:%S")
        if quirk == "unpadded" and draw(st.booleans()):
            clock_s = f"{clock.hour}:{clock.minute}:{clock.second}"
        extra = ",x" if quirk == "extra field" and draw(st.booleans()) else ""
        rows.append(f"{draw(st.sampled_from([repr(lat), f'{lat:.6f}']))},{lon!r},0,492,"
                    f"39744.12,{draw(st.dates()).isoformat()},{clock_s}{extra}")
        if draw(st.integers(0, 9)) == 0:
            rows.append("   " if quirk == "spaces" else "")
    if quirk in ("character", "underscore", "digit", "padded"):
        i = draw(st.integers(0, len(rows) - 1))
        fields = rows[i].split(",")
        j = draw(st.integers(0, len(fields) - 1))
        field, digits = fields[j], [k for k, c in enumerate(fields[j]) if c.isdigit()]
        if quirk == "digit":
            if digits:
                k = draw(st.sampled_from(digits))
                zero = draw(st.sampled_from([0x660, 0x6f0, 0x966, 0xff10]))  # Arabic-Indic, Devanagari, full width
                field = field[:k] + chr(zero + int(field[k])) + field[k + 1:]
        elif quirk == "padded":
            pad = draw(st.sampled_from([" ", "\t", "  ", "\xa0", "\u3000"]))
            field = draw(st.sampled_from([pad + field, field + pad]))
        else:
            k = draw(st.integers(0, len(field)))
            field = field[:k] + ("_" if quirk == "underscore" else draw(st.sampled_from(ODD_CHARACTERS))) + field[k:]
        rows[i] = ",".join([*fields[:j], field, *fields[j + 1:]])
    malformed = draw(st.integers(0, 2)) == 0
    if malformed:
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(BAD_ROWS)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = (PLT_HEADER + "\n".join(rows) + "\n").replace("\n", newline)
    return text, quirk in (None, "extra field") and not malformed


def _columns(track):
    return [getattr(track, name).tobytes() for name in ("lat", "lon", "t")]


def assert_readers_agree(data):
    """parse_plt gives the row parser's columns, or raises its error for the same line."""
    try:
        expected = parse_plt_rows(data)
    except DataError as exc:
        with pytest.raises(type(exc)) as err:
            parse_plt(data)
        assert str(err.value) == str(exc)
        assert getattr(err.value, "line", None) == getattr(exc, "line", None)
        return None
    assert _columns(parse_plt(data)) == _columns(expected)
    return expected


class TestColumnarParse:
    @settings(max_examples=200, deadline=None)
    @given(plt_texts())
    def test_columns_match_row_parser(self, case):
        text, canonical = case
        for data in (text, text.encode()):
            expected = assert_readers_agree(data)
            if canonical:  # the fast reader itself, not its row-by-row fallback
                assert _columns(_parse_columns(text)) == _columns(expected)

    @pytest.mark.parametrize("row", [
        "1.5\x1f,116.4,0,0,0,2008-10-23,02:53:04",  # numpy reads 1.5, float() refuses it
        "39.9,116.4,0,0,0,2008-10-23\x00,02:53:04",  # numpy stores the NUL as padding
        "39.9,116.4,0,0\x0b,0,2008-10-23,02:53:04",  # splitlines ends the line at the VT
        "39.9,\xa0116.4,0,0,0,2008-10-23,02:53:04",  # numpy and float() read 116.4; the row parser refuses it
        "39.9,116.4,0,0,0,2008-10-0230,02:53:04",  # the date column keeps 2008-10-023
        "39.9,116.4,0,0,0,2008-10-23,02:53:040",  # the row parser reads 02:53:40
    ], ids=["unit-separator", "nul-after-date", "vertical-tab", "no-break-space", "long-date", "long-time"])
    def test_text_numpy_reads_apart_reads_as_the_row_parser_reads(self, row):
        text = plt_file(["39.9,116.4,0,0,0,2008-10-23,02:53:03", row])
        for data in (text, text.encode()):
            assert_readers_agree(data)

    @pytest.mark.parametrize("start, steps, dates", [
        ("2008-10-23 00:00:00", range(1, 6), 1), ("2008-12-31 23:00:00", range(1, 6), 2),
        ("2008-02-27 12:00:00", range(40, 80), 4)], ids=["one-date", "new-year", "leap-day"])
    def test_long_files_match_row_parser(self, start, steps, dates):
        """Files of thousands of rows on one date, and across midnights; the
        drawn files above almost always give every row its own date."""
        rng = random.Random(7)
        times = epoch(*start.split()) + np.cumsum(rng.choices(steps, k=4000))
        text = format_plt([GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180), float(t)) for t in times])
        assert len({row.split(",")[5] for row in text.splitlines()[6:]}) == dates
        assert _columns(_parse_columns(text)) == _columns(parse_plt_rows(text))

    def test_points_index_and_slice(self):
        track = parse_plt(plt_file(["1.0,2.0,0,0,0,2009-01-01,00:00:00", "3.0,4.0,0,0,0,2009-01-01,00:00:05"]))
        assert len(track) == 2 and track_points(track[1:]) == [GeoPoint(3.0, 4.0, track.t[-1])]
        assert track_points(track[np.array([1, 0])]) == track_points(track)[::-1]
        assert track.t.dtype == np.float64


def track(points):
    return Track(*(np.array([getattr(p, name) for p in points]) for name in ("lat", "lon", "t")))


def pts(*times, lat=0.2, lon=0.2):
    return track([GeoPoint(lat, lon, float(t)) for t in times])


def one_session(points):
    return Sessions(points, [0, len(points)])


def session_count(sessions):
    return len(sessions.bounds) - 1


def spans(sessions):
    """(start, end) of each session, read from its bounds in the time column."""
    t, bounds = sessions.points.t, sessions.bounds
    return [(float(t[a]), float(t[b - 1])) for a, b in zip(bounds, bounds[1:])]


class TestSessionize:
    def test_one_file_one_session(self):
        sessions = sessionize([pts(0, 60, 120)])
        assert session_count(sessions) == 1
        assert spans(sessions) == [(0.0, 120.0)]

    def test_two_files_two_sessions(self):
        sessions = sessionize([pts(0, 100), pts(700, 800)])
        assert spans(sessions) == [(0.0, 100.0), (700.0, 800.0)]

    def test_intra_file_gap_splits(self):
        sessions = sessionize([pts(0, 100, 500, 600)], gap_threshold=300.0)
        assert spans(sessions) == [(0.0, 100.0), (500.0, 600.0)]

    def test_gap_at_threshold_does_not_split(self):
        sessions = sessionize([pts(0, 300)], gap_threshold=300.0)
        assert session_count(sessions) == 1

    def test_file_boundary_always_splits(self):
        sessions = sessionize([pts(0, 100), pts(200, 300)], gap_threshold=1000.0)
        assert session_count(sessions) == 2

    def test_zero_gap_files_merge(self):
        sessions = sessionize([pts(0, 100), pts(100, 200)])
        assert spans(sessions) == [(0.0, 200.0)]

    def test_overlapping_files_rejected(self):
        with pytest.raises(TraceOverlapError) as err:
            sessionize([pts(0, 500), pts(400, 900)])
        assert err.value.pairs == [(0, 1)]

    def test_overlap_pairs_are_input_positions(self):
        """The pair names the files as they were given, not their places in time order."""
        with pytest.raises(TraceOverlapError, match=r"\[\(0, 2\)\]") as err:
            sessionize([pts(480, 510), pts(420, 430), pts(490, 500)], client_id="u")
        assert err.value.pairs == [(0, 2)]

    def test_unsorted_points_within_file_sorted(self):
        sessions = sessionize([pts(100, 0, 50)])
        assert sessions.points.t.tolist() == [0.0, 50.0, 100.0]

    def test_sessions_are_views_of_one_set_of_columns(self):
        sessions = sessionize([pts(0, 100, 500, 600), pts(900)], gap_threshold=300.0)
        assert sessions.bounds == [0, 2, 4, 5]
        assert session_count(sessions) == 3
        assert spans(sessions) == [(0.0, 100.0), (500.0, 600.0), (900.0, 900.0)]

    def test_files_are_taken_as_they_come(self):
        """The files may come from a one-pass iterator, in any order, some
        already in time order and some not."""
        files = iter([pts(700, 900), pts(50, 0, 100), pts(100, 300)])
        sessions = sessionize(files, gap_threshold=1000.0)
        assert sessions.points.t.tolist() == [0.0, 50.0, 100.0, 100.0, 300.0, 700.0, 900.0]
        assert sessions.bounds == [0, 5, 7]

    def test_lower_threshold_never_fewer_sessions(self):
        rng = random.Random(13)
        times = sorted(rng.sample(range(0, 5000), 60))
        groups = [pts(*times)]
        counts = [session_count(sessionize(groups, gap_threshold=th))
                  for th in (1000.0, 500.0, 250.0, 100.0, 50.0)]
        assert counts == sorted(counts)


class TestMapToNodeVisits:
    def test_constant_assignment(self):
        topo = build_grid(1, 2, UNIT_BBOX)  # node 0 at lon .25, node 1 at lon .75
        session = one_session(pts(0, 10, 20, lon=0.2))
        assert map_to_node_visits(session, topo) == [[NodeVisit(0, 0.0, 20.0)]]

    def test_switch_at_first_new_nearest(self):
        topo = build_grid(1, 2, UNIT_BBOX)
        session = one_session(track([GeoPoint(0.5, 0.2, 0.0), GeoPoint(0.5, 0.3, 10.0),
                                     GeoPoint(0.5, 0.8, 25.0), GeoPoint(0.5, 0.9, 40.0)]))
        # brute-force nearest scan on the 4-point fixture: 0.2, 0.3 -> node 0; 0.8, 0.9 -> node 1
        assert map_to_node_visits(session, topo) == [[
            NodeVisit(0, 0.0, 25.0), NodeVisit(1, 25.0, 40.0)]]

    def test_equidistant_point_goes_to_lower_id(self):
        topo = build_grid(1, 2, UNIT_BBOX)
        session = one_session(track([GeoPoint(0.5, 0.5, 0.0)]))
        assert map_to_node_visits(session, topo) == [[NodeVisit(0, 0.0, 0.0)]]

    def test_idempotent(self):
        topo = build_grid(2, 2, UNIT_BBOX)
        rng = random.Random(5)
        session = one_session(track([GeoPoint(rng.random(), rng.random(), float(i * 10))
                                     for i in range(30)]))
        assert map_to_node_visits(session, topo) == map_to_node_visits(session, topo)

    def test_session_that_starts_where_the_last_ended_gets_a_new_visit(self):
        topo = build_grid(1, 2, UNIT_BBOX)
        sessions = sessionize([pts(0, 10, lon=0.2), pts(400, 410, lon=0.2), pts(900, lon=0.8)])
        assert map_to_node_visits(sessions, topo) == [
            [NodeVisit(0, 0.0, 10.0)], [NodeVisit(0, 400.0, 410.0)], [NodeVisit(1, 900.0, 900.0)]]

    def test_one_pass_maps_each_session_as_on_its_own(self):
        topo = build_grid(3, 3, UNIT_BBOX)
        rng = random.Random(11)
        groups = [track([GeoPoint(rng.random(), rng.random(), float(t))
                         for t in range(k * 1000, k * 1000 + 400, 20)]) for k in range(5)]
        sessions = sessionize(groups, gap_threshold=100.0)
        assert session_count(sessions) == 5
        bounds = sessions.bounds
        assert map_to_node_visits(sessions, topo) == \
               [map_to_node_visits(one_session(sessions.points[a:b]), topo)[0]
                for a, b in zip(bounds, bounds[1:])]


class TestBuildTimeline:
    def test_tiling_and_pause_anchor(self):
        topo = build_grid(1, 2, UNIT_BBOX)
        groups = [
            track([GeoPoint(0.5, 0.2, 0.0), GeoPoint(0.5, 0.8, 100.0)]),
            track([GeoPoint(0.5, 0.8, 700.0), GeoPoint(0.5, 0.8, 800.0)]),
        ]
        tl = build_timeline("c", groups, topo)
        assert len(tl.sessions) == 2
        assert len(tl.pauses) == 1
        pause = tl.pauses[0]
        assert pause.node == 1  # last node of the earlier session
        assert (pause.start, pause.end) == (100.0, 700.0)
        tl.validate()

    def test_tiling_property_random(self):
        topo = build_grid(2, 2, UNIT_BBOX)
        rng = random.Random(23)
        t = 0.0
        groups = []
        for _ in range(6):
            times = [t + i * 20 for i in range(rng.randint(2, 8))]
            groups.append(track([GeoPoint(rng.random(), rng.random(), ts) for ts in times]))
            t = times[-1] + rng.randint(400, 2000)
        tl = build_timeline("c", groups, topo)
        tl.validate()
        observed = tl.last_t - tl.first_t
        total = active_time(tl) + sum(p.duration for p in tl.pauses)
        assert total == pytest.approx(observed, abs=1e-9)


class TestIngestMemory:
    FILES, POINTS = 64, 250  # one user, 16,000 points: 375 kB of float64 columns

    def one_user_tree(self, root):
        """Time-ordered files of points that stay in one of four cells for 600 s at a time."""
        rng = random.Random(5)
        traj = root / "Data" / "000" / "Trajectory"
        traj.mkdir(parents=True)
        t = 1_200_000_000
        for k in range(self.FILES):
            points = []
            for _ in range(self.POINTS):
                points.append(GeoPoint(0.125 + 0.25 * (t // 600 % 4) + rng.uniform(-0.05, 0.05),
                                       0.375 + rng.uniform(-0.05, 0.05), float(t)))
                t += rng.choice([1, 2, 5])
            (traj / f"{k:03d}.plt").write_text(format_plt(points))
            t += 3600
        return sorted(traj.iterdir())

    def test_ingest_holds_the_user_columns_about_twice(self, tmp_path):
        """load_geolife_dir's traced peak stays under 2.5 times the user's
        column bytes plus the peak of parsing its largest file: the parsed
        files are joined once, and nothing else holds them meanwhile."""
        files = self.one_user_tree(tmp_path)
        topo = build_grid(4, 4, UNIT_BBOX)
        load_geolife_dir(tmp_path, topo)  # the grid's first query builds its arrays once
        largest = max((f.read_bytes() for f in files), key=len)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            parse_plt(largest)
            one_parse = tracemalloc.get_traced_memory()[1] - start
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            timelines = load_geolife_dir(tmp_path, topo)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        columns = self.FILES * self.POINTS * 3 * 8
        assert sum(map(len, timelines[0].sessions)) < self.FILES * self.POINTS / 50  # few visits
        assert peak < 2.5 * columns + one_parse

    def test_slotted_records_pickle_and_compare(self):
        visit, pause = NodeVisit(3, 1.5, 2.5), Pause("c", 3, 2.5, 9.0)
        assert not hasattr(visit, "__dict__") and not hasattr(pause, "__dict__")
        assert pickle.loads(pickle.dumps([visit, pause])) == [visit, pause]
        assert visit == NodeVisit(3, 1.5, 2.5) and hash(visit) == hash(NodeVisit(3, 1.5, 2.5))


WEEKDAYS = ["mon", "tue", "wed", "thu", "fri"]


def commuter_spec(weeks=2, jitter=0.0):
    return SyntheticSpec(
        client_id="commuter",
        weeks=weeks,
        patterns=[SchedulePattern(days=[0, 1, 2, 3, 4], start_clock=8 * 3600,
                                  path=[(0, 600.0), (1, 600.0), (2, 600.0)])],
        anchor=0.0,
        jitter=jitter,
    )


class TestSynthetic:
    def test_weekday_expansion(self):
        tl = synth_generate(commuter_spec(weeks=2))
        assert len(tl.sessions) == 10
        for visits in tl.sessions:
            assert [v.node for v in visits] == [0, 1, 2]
        tl.validate()

    def test_empty_spec(self):
        tl = synth_generate(SyntheticSpec("c", 1, []))
        assert tl.sessions == []

    def test_deterministic_with_seed(self):
        spec = commuter_spec(weeks=3, jitter=120.0)
        a = synth_generate(spec, noise_seed=42)
        b = synth_generate(spec, noise_seed=42)
        assert a.sessions == b.sessions

    def test_overlap_rejected(self):
        spec = SyntheticSpec("c", 1, patterns=[
            SchedulePattern([0], 8 * 3600, [(0, 7200.0)]),
            SchedulePattern([0], 9 * 3600, [(1, 600.0)]),
        ])
        with pytest.raises(ConfigError):
            synth_generate(spec)


class TestVisitsCsv:
    def test_round_trip(self, tmp_path):
        tl = synth_generate(commuter_spec(weeks=1))
        path = tmp_path / "visits.csv"
        with open(path, "w") as fh:
            write_visits_csv([tl], fh)
        with open(path) as fh:
            loaded = read_visits_csv(fh, node_count=3)
        assert len(loaded) == 1
        assert loaded[0].sessions == tl.sessions
        assert loaded[0].pauses == tl.pauses

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with open(path) as fh:
            with pytest.raises(TraceFormatError):
                read_visits_csv(fh, node_count=3)

    def test_field_over_the_csv_limit_in_a_stream(self):
        # a stream without a file name still fails as a DataError naming the line
        text = "client_id,session_id,node_id,arrival_epoch_s,departure_epoch_s\n" + "x" * 200_000 + ",0,0,1.0,2.0\n"
        with pytest.raises(DataError, match=r"^CSV line 2: field larger than field limit"):
            read_visits_csv(io.StringIO(text), node_count=1)
