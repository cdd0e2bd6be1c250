import concurrent.futures
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogrep import cli, experiment
from fogrep.cli import main
from fogrep.errors import ConfigError
from fogrep.experiment import (load_experiment_config, load_traces,
                               parse_experiment_config)
from fogrep.topology import _NEAREST_SLICE, BEIJING_BBOX, build_grid
from fogrep.traces import GeoPoint, format_plt, synth_generate, write_visits_csv

from oracles import node_coords, point_ingest

REPO = Path(__file__).resolve().parent.parent
SMOKE_CONFIG = REPO / "configs" / "smoke.yaml"
SHIPPED_CONFIGS = sorted([*REPO.glob("configs/**/*.yaml"), *REPO.glob("perfbench/configs/*.yaml")])
GOLDEN_RESULTS = Path(__file__).resolve().parent / "data" / "smoke_results.csv"
# the four restart models: results.csv and each point's report.csv
RESTART_CONFIG = REPO / "configs" / "restart.yaml"
RESTART_GOLDEN = Path(__file__).resolve().parent / "data" / "restart"
# SHA-256 of every file of each point directory when configs/smoke.yaml runs
# with dump_events; without it, the same files but events.csv
SMOKE_POINT_DIGESTS = {
    "baseline__strip-3/events.csv": "92ffad89d310cf9c9481784da488d337a841ff78289d9f586b0a90373419936c",
    "baseline__strip-3/report.csv": "8883f8df112fed894cbf36de1f85a37eb00892132e78f9a44a5a3dc9cbbcd1a4",
    "baseline__strip-3/series_commuter.csv": "3173f9b4e5713cd2bd40081724fc9aeb40f7d50405ea3236155655b8e684aff1",
    "combination__strip-3/events.csv": "6bd43cef3c7371cfae39a87ce10a4a286fabb875b968830c0007afb8ad80245b",
    "combination__strip-3/report.csv": "859ff7241cdc498eaa14d621406a2bfb66260920b8d9609a1fc43c4b68a43392",
    "combination__strip-3/series_commuter.csv": "ef077211b7f60ab4e569b50fc29525f51c8f0d1b5884ae0ff574706832020d6c",
    "vomm-k2__strip-3/events.csv": "2aadbed50ce0c450f2883c1ad76b4be525a3a629f30f7ee8f2a7748dc4091d8e",
    "vomm-k2__strip-3/report.csv": "6087e06d01d2d321793f1b0e8f4d27fd794e67fa91779da17e0e54173cc09609",
    "vomm-k2__strip-3/series_commuter.csv": "71beefe444dcd2cbd335ebbb406158ce812c880691a1acb75f531fc961bdab2a",
}
# the same with three clients (see three_client_smoke)
THREE_CLIENT_POINT_DIGESTS = {
    "baseline__strip-3/events.csv": "f3d46d033a868ab0d106ffe4188c6fba5e87e48a43ae190c1b568f5687d1d182",
    "baseline__strip-3/report.csv": "6b314378ee4d5e210f37457d709b92fc779f9fe7fec5bd98556bfa0b9f5826df",
    "baseline__strip-3/series_commuter.csv": "3173f9b4e5713cd2bd40081724fc9aeb40f7d50405ea3236155655b8e684aff1",
    "baseline__strip-3/series_late.csv": "8a83ee5b33ec4e0415df4c9879cc7a9239af2e75139dee8fba70981a6e06b2e0",
    "baseline__strip-3/series_reverse.csv": "3173f9b4e5713cd2bd40081724fc9aeb40f7d50405ea3236155655b8e684aff1",
    "combination__strip-3/events.csv": "ef8679ca2506bddb50c19659e9dddea84a3016a9664b1976d8d502eb4faa1cae",
    "combination__strip-3/report.csv": "1438a2b230600651581581ef4ae6c5d14628e4f12994bee160463ddc60f26023",
    "combination__strip-3/series_commuter.csv": "ef077211b7f60ab4e569b50fc29525f51c8f0d1b5884ae0ff574706832020d6c",
    "combination__strip-3/series_late.csv": "4bfa4d4a37a82de9dd2769280f51b58e5414b8f7853a057d54755ce28a5964ec",
    "combination__strip-3/series_reverse.csv": "b055c13ec915623339f752fef9bf0bcc535e2c8c4ccf9321a467f24748f7f72a",
    "vomm-k2__strip-3/events.csv": "c4c813e3a16d551766f40aabd63fe7e8c52cc7255cd3aeb9e6ca2f230479d99a",
    "vomm-k2__strip-3/report.csv": "a2d2fcacfcd9f67fd2cc34099612f64f16c5928716a197450a81bb291de737ea",
    "vomm-k2__strip-3/series_commuter.csv": "71beefe444dcd2cbd335ebbb406158ce812c880691a1acb75f531fc961bdab2a",
    "vomm-k2__strip-3/series_late.csv": "41d0bc25fcb9a7da006e46a5afa279f33afb70157303417c8aa14d6dc5c05995",
    "vomm-k2__strip-3/series_reverse.csv": "658e5149ff37318cabd3ffea1773c06053d51bcfe334c70a8ae325f0551d7191",
}
# SHA-256 of each point's events.csv when configs/restart.yaml runs with
# dump_events: the one shipped config whose logs hold retention expiries
RESTART_EVENT_DIGESTS = {
    "fixed-max__grid-4/events.csv": "e3b999bc3a50b6b90f3f7920ec40db74510069fbddb168f01ca6c3e3d426b57e",
    "learned__grid-4/events.csv": "5a50b2d20a2bf540722215868cbb4349baaaa5436d8e4121a365fbc128ba78f4",
    "node-specific__grid-4/events.csv": "8555f4ed53268c8008eb991f20ecbd3d7c0cf47d198aafe13db22b50f0f4d104",
    "plmm__grid-4/events.csv": "84ed765954fcce7f5b13b238987eb40685d131d1d7313730925af4320bf2097a",
}

VISITS_HEADER = "client_id,session_id,node_id,arrival_epoch_s,departure_epoch_s\n"
# a one-point experiment over visits.csv, beside the config
VISITS_RUN = ("experiment: x\ntrace: {source: visits, path: visits.csv}\n"
              "topology: {rows: 1, cols: 2}\npolicies: [{name: p}]\n")
# a one-point experiment whose synthetic starts the run seed jitters, with its event log
JITTERED_RUN = ("experiment: s\n"
                "trace: {source: synthetic, spec: {jitter: 600, clients: [{client: c, "
                "patterns: [{days: [mon, tue], start: '08:00', path: [[0, 600], [1, 600]]}]}]}}\n"
                "topology: {name: strip-2, rows: 1, cols: 2}\npolicies: [{name: p}]\ndump_events: true\n")

PLT_HEADER = ("Geolife trajectory\nWGS 84\nAltitude is in Feet\nReserved 3\n"
              "0,2,255,My Track,0,0,2,8421376\n0\n")


def three_client_smoke(tmp_path):
    """configs/smoke.yaml with three clients, a series for each and event
    dumps: two start at 08:00, the third at 08:05, when the first transfers
    of the other two complete (the strip's transfer delay is 300 s)."""
    clients = ("    clients:\n"
               "      - client: commuter\n"
               "        weeks: 3\n"
               "        patterns:\n"
               "          - {days: [mon, tue, wed, thu, fri], start: \"08:00\", path: [[0, 600], [1, 600], [2, 600]]}\n"
               "          - {days: [mon, tue, wed, thu, fri], start: \"17:00\", path: [[2, 600], [1, 600], [0, 600]]}\n"
               "      - client: reverse\n"
               "        weeks: 3\n"
               "        patterns:\n"
               "          - {days: [mon, wed, fri], start: \"08:00\", path: [[2, 300], [1, 900]]}\n"
               "          - {days: [mon, wed, fri], start: \"18:00\", path: [[1, 900], [2, 300]]}\n"
               "      - client: late\n"
               "        weeks: 3\n"
               "        patterns:\n"
               "          - {days: [mon, tue, wed, thu, fri], start: \"08:05\", path: [[1, 600], [0, 300], [1, 600]]}\n")
    text = SMOKE_CONFIG.read_text()
    head, rest = text.split("    clients:\n", 1)
    tail = rest[rest.index("\ntopology:"):].replace("series_clients: [commuter]",
                                                    "series_clients: [commuter, reverse, late]")
    cfg = tmp_path / "three.yaml"
    cfg.write_text(head + "    jitter: 0\n" + clients + tail + "\ndump_events: true\n")
    return cfg


def point_digests(out):
    """SHA-256 of every file in the point directories under ``out``, by ``point/file`` name."""
    return {f"{p.parent.name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.glob("*/*.csv")}


def run_python(script, *args):
    """Run a Python script in a fresh interpreter that imports fogrep from src/."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"),
                                                                    os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)


def write_plt(path, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(PLT_HEADER + "\n".join(rows) + "\n")


def fake_geolife(root):
    """Two tiny users on a unit-square bbox: user 000 commutes between the
    two cells, user 001 stays put."""
    d = root / "Data"
    write_plt(d / "000" / "Trajectory" / "20080101000000.plt", [
        "0.5,0.2,0,0,0,2008-01-01,08:00:00",
        "0.5,0.2,0,0,0,2008-01-01,08:02:00",
        "0.5,0.8,0,0,0,2008-01-01,08:04:00",
    ])
    write_plt(d / "000" / "Trajectory" / "20080101120000.plt", [
        "0.5,0.8,0,0,0,2008-01-01,12:00:00",
        "0.5,0.2,0,0,0,2008-01-01,12:04:00",
    ])
    write_plt(d / "001" / "Trajectory" / "20080102000000.plt", [
        "0.5,0.3,0,0,0,2008-01-02,09:00:00",
        "0.5,0.3,0,0,0,2008-01-02,09:30:00",
    ])
    return root


class TestRun:
    def test_smoke_config_runs_fast_and_matches_golden(self, tmp_path, capsys):
        start = time.monotonic()
        code = main(["run", str(SMOKE_CONFIG), "--out", str(tmp_path / "out")])
        elapsed = time.monotonic() - start
        assert code == 0
        assert elapsed < 5.0
        results = (tmp_path / "out" / "results.csv").read_bytes()
        assert results == GOLDEN_RESULTS.read_bytes()
        assert point_digests(tmp_path / "out") == {
            name: digest for name, digest in SMOKE_POINT_DIGESTS.items() if not name.endswith("/events.csv")}
        # warmed-up combined policy serves every active second
        combo = [line for line in results.decode().splitlines() if ",combination," in line]
        assert combo and combo[0].split(",")[4] == "1.0"

    def test_restart_config_matches_goldens(self, tmp_path):
        assert main(["run", str(RESTART_CONFIG), "--out", str(tmp_path / "out")]) == 0
        golden = sorted(p.relative_to(RESTART_GOLDEN) for p in RESTART_GOLDEN.rglob("*.csv"))
        assert [str(p) for p in golden] == [
            "fixed-max__grid-4/report.csv", "learned__grid-4/report.csv",
            "node-specific__grid-4/report.csv", "plmm__grid-4/report.csv", "results.csv"]
        for rel in golden:
            assert (tmp_path / "out" / rel).read_bytes() == (RESTART_GOLDEN / rel).read_bytes(), rel

    def test_restart_event_logs_match_recorded_digests(self, tmp_path):
        cfg = tmp_path / "restart.yaml"
        cfg.write_text(RESTART_CONFIG.read_text() + "\ndump_events: true\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        digests = point_digests(tmp_path / "out")
        assert {name: digests[name] for name in RESTART_EVENT_DIGESTS} == RESTART_EVENT_DIGESTS
        retention_expiries = [(tmp_path / "out" / name).read_text().count(",RetentionExpire,")
                              for name in sorted(RESTART_EVENT_DIGESTS)]
        assert retention_expiries == [92, 70, 75, 12]

    def test_rerun_is_byte_identical(self, tmp_path):
        assert main(["run", str(SMOKE_CONFIG), "--out", str(tmp_path / "a")]) == 0
        assert main(["run", str(SMOKE_CONFIG), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "results.csv").read_bytes() == \
               (tmp_path / "b" / "results.csv").read_bytes()
        assert (tmp_path / "a" / "summary.json").exists()
        assert (tmp_path / "a" / "pareto.svg").exists()
        series = tmp_path / "a" / "combination__strip-3" / "series_commuter.csv"
        assert series.exists()

    def test_event_logs_match_recorded_digests(self, tmp_path):
        cfg = tmp_path / "events.yaml"
        cfg.write_text(SMOKE_CONFIG.read_text() + "\ndump_events: true\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert point_digests(tmp_path / "out") == SMOKE_POINT_DIGESTS

    def test_run_needs_no_numpy(self, tmp_path):
        # a None entry in sys.modules makes every `import numpy` raise ImportError
        script = ("import sys\n"
                  "sys.modules['numpy'] = None\n"
                  "from fogrep.cli import main\n"
                  "sys.exit(main(['run', sys.argv[1], '--out', sys.argv[2]]))\n")
        proc = run_python(script, SMOKE_CONFIG, tmp_path / "out")
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "results.csv").read_bytes() == GOLDEN_RESULTS.read_bytes()

    def test_serial_run_does_not_load_the_process_pool(self, tmp_path):
        script = ("import json, sys\n"
                  "from fogrep.cli import main\n"
                  "code = main(['run', sys.argv[1], '--out', sys.argv[2]])\n"
                  "print(json.dumps([code, 'concurrent.futures' in sys.modules]))\n")
        proc = run_python(script, SMOKE_CONFIG, tmp_path / "out")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [0, False]
        assert (tmp_path / "out" / "results.csv").read_bytes() == GOLDEN_RESULTS.read_bytes()

    def test_three_client_event_logs_match_recorded_digests(self, tmp_path):
        assert main(["run", str(three_client_smoke(tmp_path)), "--out", str(tmp_path / "out")]) == 0
        assert point_digests(tmp_path / "out") == THREE_CLIENT_POINT_DIGESTS

    def test_unknown_series_client_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "series.yaml"
        cfg.write_text(SMOKE_CONFIG.read_text().replace("series_clients: [commuter]", "series_clients: [comuter]"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "metrics.series_clients: no client 'comuter' in the trace" in capsys.readouterr().err

    @pytest.mark.parametrize("metrics, message", [
        ("series_clients: [d]", "metrics.series_clients: no client 'd' in the trace"),
        ("window: [0, 10]", "metrics.window: [0.0, 10.0] covers no active second of the trace"),
    ], ids=["series-client", "window"])
    def test_metrics_checked_against_the_trace_name_the_file_and_line(self, tmp_path, capsys, metrics, message):
        (tmp_path / "visits.csv").write_text("client_id,session_id,node_id,arrival_epoch_s,departure_epoch_s\n"
                                             "c,0,0,1000.0,2000.0\n")
        cfg = tmp_path / "metrics.yaml"
        cfg.write_text(error_config(top=f"metrics:\n  {metrics}"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {cfg}: {message} (line 4)\n"

    def test_series_bucket_that_does_not_advance_is_a_config_error(self, tmp_path, capsys):
        # 1e-9 s is below half the float spacing at 1.2e9 s, so t + bucket == t
        cfg = tmp_path / "tiny.yaml"
        cfg.write_text(error_config(trace=spec_trace().replace("{clients:", "{anchor: 1200000000, clients:"),
                                    top="metrics: {series_clients: [c], series_bucket: 1.0e-9}"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (f"config error: {cfg}: metrics.series_bucket: a step of 1e-09 s "
                                           "does not advance past 1200028860.0 (line 3)\n")

    @pytest.mark.parametrize("first, last, end", [
        (1073741823.95, 1073741824.05, 1073741824.05),
        (-1073741824.05, -1073741823.95, -1073741824.05),
    ], ids=["last", "first-when-negative"])
    def test_series_bucket_is_checked_where_floats_are_farthest_apart(self, tmp_path, capsys, monkeypatch,
                                                                       first, last, end):
        # 1e-7 s advances time below 2**30 s, where floats are 2**-23 s apart,
        # but not above it, where they are 2**-22 s apart
        (tmp_path / "visits.csv").write_text("client_id,session_id,node_id,arrival_epoch_s,departure_epoch_s\n"
                                             f"c,0,0,{first!r},{last!r}\n")
        cfg = tmp_path / "tiny.yaml"
        cfg.write_text(error_config(top="metrics: {series_clients: [c], series_bucket: 1.0e-7}"))
        calls = []
        monkeypatch.setattr(experiment, "run_simulation", lambda *args, **kwargs: calls.append(args))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == \
            f"config error: {cfg}: metrics.series_bucket: a step of 1e-07 s does not advance past {end!r} (line 3)\n"
        assert calls == []  # before any client runs

    def test_series_bucket_with_too_many_points_is_a_config_error(self, tmp_path, capsys):
        # Monday 08:00 to Tuesday 08:01 in 0.05 s buckets is 1,729,200 points
        cfg = tmp_path / "fine.yaml"
        cfg.write_text(error_config(trace=spec_trace(pattern="days: [mon, tue], start: '08:00'"),
                                    top="metrics: {series_clients: [c], series_bucket: 0.05}"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (f"config error: {cfg}: metrics.series_bucket: 0.05 s over client 'c''s "
                                           "86460.0 s makes more than 1000000 points (line 3)\n")
        assert not (tmp_path / "out" / "p__strip-2").exists()  # checked before any point runs
        # one minute over the same day is 1,441 points
        cfg.write_text(cfg.read_text().replace("series_bucket: 0.05", "series_bucket: 60"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert len((tmp_path / "out" / "p__strip-2" / "series_c.csv").read_text().splitlines()) > 1

    def test_unknown_policy_errors_with_field(self, tmp_path, capsys):
        bad = SMOKE_CONFIG.read_text().replace("predictor: baseline", "predictor: oracle")
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(bad)
        code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "predictor" in err and "oracle" in err and "line" in err

    def test_invalid_yaml_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "syntax.yaml"
        cfg.write_text("experiment: x\ntrace: [unclosed\n")
        code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["!!timestamp nope", "!!int abc", "!!float abc",
                                       "!!timestamp 2020-13-45", "!!bool maybe"])
    def test_tag_that_cannot_be_built_is_a_config_error(self, tmp_path, capsys, value):
        cfg = tmp_path / "tag.yaml"
        cfg.write_text(f"seed: {value}\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: {cfg}: invalid YAML: a tagged value cannot be built (")

    def test_missing_dataset_hints_fetch(self, tmp_path, capsys):
        cfg = tmp_path / "geo.yaml"
        cfg.write_text(
            "experiment: x\n"
            "trace: {source: geolife, path: /nonexistent/geolife}\n"
            "topology: {rows: 2, cols: 2}\n"
            "policies: [{name: baseline}]\n")
        code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert "GeoLife" in err and "Trajectory" in err

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.yaml")]) == 2

    def test_config_path_that_is_a_directory_is_a_config_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: config path is not a file: {tmp_path}\n"

    def test_out_that_is_a_file_is_a_config_error(self, tmp_path, capsys):
        (tmp_path / "out").write_text("")
        assert main(["run", str(SMOKE_CONFIG), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: --out: {tmp_path / 'out'} is not a directory\n"

    def test_out_below_a_file_is_a_config_error(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        assert main(["run", str(SMOKE_CONFIG), "--out", str(tmp_path / "file" / "sub")]) == 2
        assert capsys.readouterr().err == f"config error: --out: {tmp_path / 'file'} is not a directory\n"

    def test_visits_path_that_is_a_directory_is_a_data_error(self, tmp_path, capsys):
        (tmp_path / "visits.csv").mkdir()
        cfg = tmp_path / "dir.yaml"
        cfg.write_text(error_config())
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == f"data error: visits path is not a file: {tmp_path / 'visits.csv'}\n"

    def test_window_without_activity_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "window.yaml"
        cfg.write_text(SMOKE_CONFIG.read_text().replace("window: [950400, 2160000]", "window: [0, 1000]"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "metrics.window:" in capsys.readouterr().err

    def test_zero_active_time_is_a_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "zero.yaml"
        cfg.write_text(error_config(trace=spec_trace(pattern="days: [mon], start: '08:00'").replace(
            "[[0, 60]]", "[[0, 0]]")))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == "data error: no active time across clients\n"

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_flag_must_be_positive(self, tmp_path, capsys, jobs):
        assert main(["run", str(SMOKE_CONFIG), "--out", str(tmp_path / "out"), "--jobs", jobs]) == 2
        assert capsys.readouterr().err == f"config error: --jobs: expected an integer > 0, got {jobs}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("row, message", [
        ("a,0,0,nan,nan", "non-finite visit time: nan, nan"),
        ("a,0,0,0.0,inf", "non-finite visit time: 0.0, inf"),
        ("a,0,0,1000.0,500.0", "departure 500.0 before arrival 1000.0"),
        ("b,1,0,-500.0,-100.0", "session 1 starts at -500.0, not after the previous session ends at 1000.0"),
        ("b,1,0,1000.0,2000.0", "session 1 starts at 1000.0, not after the previous session ends at 1000.0"),
        ("b,0,0,1500.0,2000.0", "visit arrives at 1500.0, not when the previous visit of session 0 departs at 1000.0"),
        ("b,0,1,1000.0,2000.0", "consecutive visits of session 0 at node 1"),
        ("a,0,0,0.0,10.0,junk", "expected 5 fields, got 6"),
        ("a,0,0,0.0", "expected 5 fields, got 4"),
        ("a", "expected 5 fields, got 1"),
        ("a,0,7,0.0,60.0", "unknown node id 7; the topology has ids 0 to 1"),
        ("a,0,-1,0.0,60.0", "unknown node id -1; the topology has ids 0 to 1"),
    ], ids=["nan", "inf", "reversed", "session-before-previous", "session-at-previous-end", "gap",
            "repeated-node", "extra-field", "missing-field", "one-field", "off-grid-node", "negative-node"])
    def test_impossible_visit_times_are_data_errors(self, tmp_path, capsys, row, message):
        (tmp_path / "visits.csv").write_text(
            "client_id,session_id,node_id,arrival_epoch_s,departure_epoch_s\n"
            f"b,0,1,0.0,1000.0\n{row}\n")
        cfg = tmp_path / "visits.yaml"
        cfg.write_text(error_config())
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == f"data error: {tmp_path / 'visits.csv'} line 3: {message}\n"

    def test_header_only_visits_file_names_it_and_makes_no_output(self, tmp_path, capsys):
        (tmp_path / "visits.csv").write_text("client_id,session_id,node_id,arrival_epoch_s,departure_epoch_s\n")
        cfg = tmp_path / "visits.yaml"
        cfg.write_text(error_config())
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == f"data error: {tmp_path / 'visits.csv'}: visits file contains no rows\n"
        assert not (tmp_path / "out").exists()

    def test_zero_length_first_visit_runs_in_timeline_order(self, tmp_path):
        # the session starts before the next visit's arrival at the same time,
        # though arrivals come before session starts among other ties
        (tmp_path / "visits.csv").write_text(
            "client_id,session_id,node_id,arrival_epoch_s,departure_epoch_s\n"
            "c,0,0,1000.0,1000.0\nc,0,1,1000.0,1600.0\n")
        cfg = tmp_path / "visits.yaml"
        cfg.write_text(error_config(top="seed: 1\ndump_events: true").replace("strip-2", "strip-3")
                       .replace("cols: 2", "cols: 3"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "p__strip-3" / "events.csv").read_text() == (
            "t,client,kind,node\n"
            "1000.0,c,SessionStart,0\n"
            "1000.0,c,TransferStart,0\n"
            "1000.0,c,Arrival,1\n"
            "1000.0,c,TransferStart,1\n"
            "1300.0,c,TransferComplete,1\n"
            "1600.0,c,SessionEnd,1\n")
        rows = experiment.read_results_csv(tmp_path / "out" / "results.csv")
        assert (rows[0]["availability"], rows[0]["excess_ratio"]) == (0.5, 0.0)

    def test_jobs_flag_matches_serial(self, tmp_path):
        assert main(["run", str(SMOKE_CONFIG), "--out", str(tmp_path / "serial")]) == 0
        assert main(["run", str(SMOKE_CONFIG), "--out", str(tmp_path / "par"),
                     "--jobs", "3"]) == 0
        assert (tmp_path / "serial" / "results.csv").read_bytes() == \
               (tmp_path / "par" / "results.csv").read_bytes()

    def test_worker_pool_is_capped_at_the_point_count(self, tmp_path, monkeypatch):
        """A pool starts all its workers at the first submit (the fork start
        method), so --jobs beyond the sweep's points would fork idle processes."""
        sizes = []

        class InlinePool:  # records its size and runs each point here, starting no process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        assert main(["run", str(SMOKE_CONFIG), "--out", str(tmp_path / "out"), "--jobs", "500"]) == 0
        assert sizes == [3]
        assert (tmp_path / "out" / "results.csv").read_bytes() == GOLDEN_RESULTS.read_bytes()

    @pytest.mark.parametrize("config, visits, code, message", [
        ("- a\n- b\n", None, 2, "config error: {cfg}: config must be a mapping"),
        (VISITS_RUN.replace("topology: {rows: 1, cols: 2}", "topologies: []"), None, 2,
         "config error: {cfg}: topologies: sweep list must be non-empty (line 3)"),
        (VISITS_RUN.replace("[{name: p}]", "[]"), None, 2,
         "config error: {cfg}: policies: sweep list must be non-empty (line 4)"),
        (VISITS_RUN.replace(", path: visits.csv", ""), None, 2,
         "config error: {cfg}: trace.path: required key missing (line 2)"),
        (VISITS_RUN, None, 3, "data error: visits file not found: {visits}"),
        (VISITS_RUN.replace("{name: p}", "{name: p, predictor: vomm, topn: {type: foo}}"), None, 2,
         "config error: {cfg}: policies[0].topn.type: unknown mode 'foo' (line 4)"),
        (VISITS_RUN, "a,0,x,0.0,60.0\n", 3,
         "data error: {visits} line 2: invalid literal for int() with base 10: 'x'"),
    ], ids=["config-list", "topologies-empty", "policies-empty", "visits-without-path", "visits-file-missing",
            "topn-type-unknown", "node-id-word"])
    def test_input_error_names_its_key_or_file(self, tmp_path, capsys, config, visits, code, message):
        cfg, visits_path = tmp_path / "run.yaml", tmp_path / "visits.csv"
        cfg.write_text(config)
        if visits is not None:
            visits_path.write_text(VISITS_HEADER + visits)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == code
        assert capsys.readouterr().err == message.format(cfg=cfg, visits=visits_path) + "\n"
        assert not (tmp_path / "out").exists()

    def test_seed_flag_overrides_the_config_seed(self, tmp_path):
        def events(seed, *flags):
            cfg = tmp_path / f"seed-{seed}.yaml"
            cfg.write_text(JITTERED_RUN + f"seed: {seed}\n")
            out = tmp_path / f"out-{seed}-{len(flags)}"
            assert main(["run", str(cfg), "--out", str(out), *flags]) == 0
            return json.loads((out / "summary.json").read_text())["s"]["seed"], \
                (out / "p__strip-2" / "events.csv").read_bytes()

        flagged, configured, other = events(1, "--seed", "5"), events(5), events(1)
        assert flagged == configured and flagged[0] == 5
        assert flagged[1] != other[1]  # the seed moves the jittered starts

    def test_null_seed_keeps_the_default(self, tmp_path):
        runs = []
        for name, seed_line in (("null", "seed: ~\n"), ("absent", "")):
            cfg = tmp_path / f"{name}.yaml"
            cfg.write_text(JITTERED_RUN + seed_line)
            assert main(["run", str(cfg), "--out", str(tmp_path / name)]) == 0
            runs.append((json.loads((tmp_path / name / "summary.json").read_text())["s"]["seed"],
                         (tmp_path / name / "p__strip-2" / "events.csv").read_bytes()))
        assert runs[0] == runs[1] and runs[0][0] is None

    def test_blank_visits_row_is_skipped(self, tmp_path):
        rows = ["c,0,0,0.0,600.0", "c,0,1,600.0,900.0", "c,1,1,2000.0,2600.0"]
        results = []
        for name, text in (("blank", "\n".join([rows[0], "", *rows[1:]])), ("plain", "\n".join(rows))):
            (tmp_path / f"{name}.csv").write_text(VISITS_HEADER + text + "\n")
            (tmp_path / f"{name}.yaml").write_text(VISITS_RUN.replace("visits.csv", f"{name}.csv"))
            assert main(["run", str(tmp_path / f"{name}.yaml"), "--out", str(tmp_path / name)]) == 0
            results.append((tmp_path / name / "results.csv").read_bytes())
        assert results[0] == results[1]


class TestIngest:
    def test_ingest_and_run_from_cache(self, tmp_path, capsys):
        root = fake_geolife(tmp_path / "geolife")
        visits = tmp_path / "visits.csv"
        code = main(["ingest", str(root), "--grid", "1x2",
                     "--bbox", "0", "1", "0", "1", "--out", str(visits)])
        assert code == 0
        lines = visits.read_text().splitlines()
        assert lines[0] == "client_id,session_id,node_id,arrival_epoch_s,departure_epoch_s"
        assert any(line.startswith("000,") for line in lines[1:])
        assert any(line.startswith("001,") for line in lines[1:])

        cfg = tmp_path / "visits.yaml"
        cfg.write_text(
            "experiment: cached\n"
            f"trace: {{source: visits, path: {visits}}}\n"
            "topology: {name: strip-2, rows: 1, cols: 2, bbox: [0, 1, 0, 1], transfer_delay: 30}\n"
            "policies: [{name: baseline}, {name: vomm, predictor: {type: vomm, k: 2}}]\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        rows = (out / "results.csv").read_text().splitlines()
        assert len(rows) == 3  # header + 2 policies

    def test_ingest_loads_numpy_before_it_parses(self, tmp_path):
        """Importing fogrep leaves numpy unloaded; ingest loads it before its
        first parse_plt call, so the import is not part of the parse."""
        script = ("import json, sys\n"
                  "from fogrep import traces\n"
                  "from fogrep.cli import main\n"
                  "at_import = 'numpy' in sys.modules\n"
                  "parse, at_parse = traces.parse_plt, []\n"
                  "traces.parse_plt = lambda data: at_parse.append('numpy' in sys.modules) or parse(data)\n"
                  "code = main(['ingest', sys.argv[1], '--grid', '1x2', '--bbox', '0', '1', '0', '1',\n"
                  "             '--out', sys.argv[2]])\n"
                  "print(json.dumps([code, at_import, at_parse]))\n")
        proc = run_python(script, fake_geolife(tmp_path / "geolife"), tmp_path / "visits.csv")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [0, False, [True, True, True]]

    def test_ingest_loads_no_simulator_code(self, tmp_path):
        """`fogrep ingest` needs only the trace and topology modules: not the
        engine, policies, predictors, metrics, PyYAML or the process pool."""
        script = ("import json, sys\n"
                  "from fogrep.cli import main\n"
                  "code = main(['ingest', sys.argv[1], '--grid', '1x2', '--bbox', '0', '1', '0', '1',\n"
                  "             '--out', sys.argv[2]])\n"
                  "print(json.dumps([code, sorted(set(sys.argv[3:]) & set(sys.modules))]))\n")
        unused = ["fogrep.experiment", "fogrep.simengine", "fogrep.policies", "fogrep.markov",
                  "fogrep.metrics", "fogrep.startup", "yaml", "concurrent.futures"]
        proc = run_python(script, fake_geolife(tmp_path / "geolife"), tmp_path / "visits.csv", *unused)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [0, []]
        assert (tmp_path / "visits.csv").read_text().startswith("client_id,session_id,")

    def test_run_and_ingest_import_neither_calendar_nor_locale(self):
        """Every module `fogrep run` and `fogrep ingest` load leaves out
        `calendar` and the `locale` it imports."""
        proc = run_python("import json, sys\n"
                          "import fogrep.cli, fogrep.experiment\n"
                          "print(json.dumps(sorted({'calendar', 'locale'} & set(sys.modules))))\n")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []

    def test_run_cache_is_keyed_by_the_ingest_inputs(self, tmp_path, monkeypatch):
        root = fake_geolife(tmp_path / "geolife")
        ingested = []
        ingest = experiment.load_geolife_dir
        monkeypatch.setattr(experiment, "load_geolife_dir",
                            lambda *a, **kw: ingested.append(kw["gap_threshold"]) or ingest(*a, **kw))
        out = tmp_path / "out"

        def run(gap_threshold):
            cfg = tmp_path / "geo.yaml"
            cfg.write_text(
                "experiment: geo\n"
                f"trace: {{source: geolife, path: {root}, gap_threshold: {gap_threshold}}}\n"
                "topology: {name: strip-2, rows: 1, cols: 2, bbox: [0, 1, 0, 1], transfer_delay: 30}\n"
                "policies: [{name: baseline}]\n")
            assert main(["run", str(cfg), "--out", str(out)]) == 0
            return (out / "baseline__strip-2" / "report.csv").read_text()

        first = run(300)
        assert run(300) == first
        assert ingested == [300.0]  # the second run read the cached visits
        assert run(150) != first  # user 000's second trip splits at its 240 s gap
        assert ingested == [300.0, 150.0]
        assert len(list(out.glob("visits_strip-2_*.csv"))) == 2

    def test_interrupted_cache_write_is_not_reused(self, tmp_path, monkeypatch):
        """A run stopped while it writes the GeoLife cache leaves no cache
        file, so the next run ingests again and sees every client."""
        root = fake_geolife(tmp_path / "geolife")
        cfg = tmp_path / "geo.yaml"
        cfg.write_text(
            "experiment: geo\n"
            f"trace: {{source: geolife, path: {root}}}\n"
            "topology: {name: strip-2, rows: 1, cols: 2, bbox: [0, 1, 0, 1], transfer_delay: 30}\n"
            "policies: [{name: baseline}]\n")
        out = tmp_path / "out"

        def interrupted(timelines, fh):
            write_visits_csv(timelines[:1], fh)
            raise KeyboardInterrupt

        monkeypatch.setattr(experiment, "write_visits_csv", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["run", str(cfg), "--out", str(out)])
        assert list(out.iterdir()) == []
        monkeypatch.undo()
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        report = (out / "baseline__strip-2" / "report.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in report[1:]] == ["000", "001", "ALL"]

    @settings(max_examples=15, deadline=None)
    @given(rows=st.integers(1, 6), cols=st.integers(1, 6),
           bbox=st.sampled_from([(0.0, 1.0, 0.0, 1.0), BEIJING_BBOX, (39.9, 39.9 + 1e-9, 116.4, 116.4 + 1e-9)]),
           seed=st.integers(0, 2**32 - 1))
    def test_ingest_matches_point_pipeline(self, rows, cols, bbox, seed):
        """`fogrep ingest` of a format_plt tree writes the visits CSV that
        the row parser, a point loop and the scan over every node give."""
        rng = random.Random(seed)
        topo = build_grid(rows, cols, bbox)
        lat0, lat1, lon0, lon1 = bbox
        lats = [lat for lat, _ in node_coords(topo)] + [lat0, lat1, (lat0 + lat1) / 2, -89.0, 89.0]
        lons = [lon for _, lon in node_coords(topo)] + [lon0, lon1, (lon0 + lon1) / 2, -179.0, 179.0]
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "geolife"
            for user in range(rng.randint(1, 3)):
                traj = root / "Data" / f"{user:03d}" / "Trajectory"
                traj.mkdir(parents=True)
                t = rng.randint(1_200_000_000, 1_300_000_000)
                for k in range(rng.randint(1, 4)):
                    points = []
                    for _ in range(rng.randint(1, 30)):
                        lat = rng.choice(lats) if rng.random() < 0.7 else rng.uniform(lat0, lat1)
                        lon = rng.choice(lons) if rng.random() < 0.7 else rng.uniform(lon0, lon1)
                        points.append(GeoPoint(lat, lon, float(t)))
                        t += rng.choice([0, 1, 5, 60, 300, 301, 900])
                    name = time.strftime("%Y%m%d%H%M%S", time.gmtime(points[0].t))
                    rng.shuffle(points)  # ingest sorts each file's points by time
                    (traj / f"{name}-{k}.plt").write_text(format_plt(points))  # names sort in time order
                    t = max(p.t for p in points) + rng.choice([0, 0, 60, 600])
            out = Path(tmp) / "visits.csv"
            assert main(["ingest", str(root), "--grid", f"{rows}x{cols}", "--bbox", *map(repr, bbox),
                         "--out", str(out)]) == 0
            expected = io.StringIO()
            write_visits_csv(point_ingest(root, topo, 300.0), expected)
            assert out.read_text() == expected.getvalue()

    def test_client_longer_than_a_nearest_nodes_slice(self, tmp_path):
        """One client with more points than nearest_nodes takes in one
        slice, with gaps, file joins and points equidistant from two nodes."""
        rng = random.Random(3)
        topo = build_grid(4, 4, (0.0, 1.0, 0.0, 1.0))  # rows and columns meet at 0.25, 0.5, 0.75
        traj = tmp_path / "geolife" / "Data" / "000" / "Trajectory"
        traj.mkdir(parents=True)
        lat, lon, t = 0.5, 0.5, 1_200_000_000
        for k, n in enumerate((2 * _NEAREST_SLICE + 500, 3000)):
            points = []
            for _ in range(n):
                lat = min(max(lat + rng.uniform(-0.01, 0.01), 0.0), 1.0)
                lon = min(max(lon + rng.uniform(-0.01, 0.01), 0.0), 1.0)
                tie = rng.random() < 0.01
                points.append(GeoPoint(0.5 if tie else lat, lon, float(t)))
                t += rng.choice([1, 2, 5, 5, 400])
            (traj / f"{k}.plt").write_text(format_plt(points))
        out = tmp_path / "visits.csv"
        assert main(["ingest", str(tmp_path / "geolife"), "--grid", "4x4", "--bbox", "0", "1", "0", "1",
                     "--out", str(out)]) == 0
        expected = io.StringIO()
        write_visits_csv(point_ingest(tmp_path / "geolife", topo, 300.0), expected)
        assert out.read_text() == expected.getvalue()

    def test_unknown_client_ids_are_a_data_error(self, tmp_path, capsys):
        root = fake_geolife(tmp_path / "geolife")
        code = main(["ingest", str(root), "--grid", "1x2", "--bbox", "0", "1", "0", "1",
                     "--clients", "000", "nope", "002", "--out", str(tmp_path / "v.csv")])
        assert code == 3
        assert capsys.readouterr().err.endswith("for client(s) 002, nope\n")
        assert not (tmp_path / "v.csv").exists()
        cfg = tmp_path / "geo.yaml"
        cfg.write_text(
            "experiment: geo\n"
            f"trace: {{source: geolife, path: {root}, clients: ['001', nope]}}\n"
            "topology: {name: strip-2, rows: 1, cols: 2, bbox: [0, 1, 0, 1], transfer_delay: 30}\n"
            "policies: [{name: baseline}]\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.endswith("for client(s) nope\n")

    @pytest.mark.parametrize("rows, message", [
        (["0.5,0.2,0,0,0,2008-01-03,08:00:00", "0.5,0.2,0,0,2008-01-03,08:01:00"],
         "line 8: expected 7 fields, got 6"),
        ([], "no data rows after header"),
    ], ids=["short-row", "empty"])
    def test_plt_data_errors_name_their_file(self, tmp_path, capsys, rows, message):
        root = fake_geolife(tmp_path / "geolife")
        write_plt(root / "Data" / "001" / "Trajectory" / "20080103000000.plt", rows)
        code = main(["ingest", str(root), "--grid", "1x2", "--bbox", "0", "1", "0", "1",
                     "--out", str(tmp_path / "v.csv")])
        assert code == 3
        path = Path("Data", "001", "Trajectory", "20080103000000.plt")
        assert capsys.readouterr().err == f"data error: {path}: {message}\n"
        assert not (tmp_path / "v.csv").exists()

    def test_empty_client_list_is_a_config_error(self, tmp_path, capsys):
        root = fake_geolife(tmp_path / "geolife")
        code = main(["ingest", str(root), "--grid", "1x2", "--bbox", "0", "1", "0", "1",
                     "--clients", "--out", str(tmp_path / "v.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: --clients: expected at least one user id")
        assert not (tmp_path / "v.csv").exists()
        cfg = tmp_path / "geo.yaml"
        cfg.write_text(
            "experiment: geo\n"
            "trace:\n"
            "  source: geolife\n"
            f"  path: {root}\n"
            "  clients: []\n"
            "topology: {name: strip-2, rows: 1, cols: 2, bbox: [0, 1, 0, 1], transfer_delay: 30}\n"
            "policies: [{name: baseline}]\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == \
            f"config error: {cfg}: trace.clients: expected a list of at least one item, got [] (line 5)\n"

    def test_ingest_without_numpy_is_a_config_error(self, tmp_path):
        script = ("import sys\n"
                  "sys.modules['numpy'] = None\n"
                  "from fogrep.cli import main\n"
                  "sys.exit(main(['ingest', sys.argv[1], '--out', sys.argv[2]]))\n")
        proc = run_python(script, fake_geolife(tmp_path / "geolife"), tmp_path / "visits.csv")
        assert proc.returncode == 2
        assert proc.stderr == "config error: GeoLife ingest needs numpy, which is not installed\n"
        assert not (tmp_path / "visits.csv").exists()

    def test_nan_gap_threshold_is_a_config_error(self, tmp_path, capsys):
        root = fake_geolife(tmp_path / "geolife")
        code = main(["ingest", str(root), "--grid", "1x2", "--bbox", "0", "1", "0", "1",
                     "--gap-threshold", "nan", "--out", str(tmp_path / "v.csv")])
        assert code == 2
        assert "gap_threshold must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("bbox", [("39.6", "inf", "116.0", "116.8"), ("39.6", "40.3", "116.0", "inf")],
                             ids=["lat-max-inf", "lon-max-inf"])
    def test_non_finite_bbox_is_a_config_error(self, tmp_path, capsys, bbox):
        root = fake_geolife(tmp_path / "geolife")
        code = main(["ingest", str(root), "--grid", "1x2", "--bbox", *bbox,
                     "--out", str(tmp_path / "v.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: bbox: expected finite")

    def test_ingest_missing_dir(self, tmp_path, capsys):
        code = main(["ingest", str(tmp_path / "none"), "--out", str(tmp_path / "v.csv")])
        assert code == 3
        assert "GeoLife" in capsys.readouterr().err

    def test_clients_selects_exactly_those_users(self, tmp_path):
        root = fake_geolife(tmp_path / "geolife")
        write_plt(root / "Data" / "002" / "Trajectory" / "20080103000000.plt",
                  ["0.5,0.8,0,0,0,2008-01-03,10:00:00", "0.5,0.8,0,0,0,2008-01-03,10:10:00"])
        assert main(["ingest", str(root), "--grid", "1x2", "--bbox", "0", "1", "0", "1",
                     "--clients", "002", "000", "--out", str(tmp_path / "v.csv")]) == 0
        rows = (tmp_path / "v.csv").read_text().splitlines()[1:]
        assert sorted({row.split(",")[0] for row in rows}) == ["000", "002"]
        cfg = tmp_path / "geo.yaml"
        cfg.write_text(
            "experiment: geo\n"
            f"trace: {{source: geolife, path: {root}, clients: ['002', '000']}}\n"
            "topology: {name: strip-2, rows: 1, cols: 2, bbox: [0, 1, 0, 1], transfer_delay: 30}\n"
            "policies: [{name: baseline}]\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        report = (tmp_path / "out" / "baseline__strip-2" / "report.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in report[1:]] == ["000", "002", "ALL"]

    def test_grid_that_is_not_rows_by_cols_is_a_config_error(self, tmp_path, capsys):
        assert main(["ingest", str(tmp_path), "--grid", "3", "--out", str(tmp_path / "v.csv")]) == 2
        assert capsys.readouterr().err == "config error: --grid: expected ROWSxCOLS, got '3'\n"

    def test_root_without_user_directories_is_a_data_error(self, tmp_path, capsys):
        (tmp_path / "geolife" / "Data").mkdir(parents=True)
        assert main(["ingest", str(tmp_path / "geolife"), "--out", str(tmp_path / "v.csv")]) == 3
        assert capsys.readouterr().err.startswith(
            f"data error: no GeoLife user directories under {tmp_path / 'geolife' / 'Data'}; "
            "expected Data/<user>/Trajectory/*.plt")

    def test_user_without_plt_files_is_a_data_error(self, tmp_path, capsys):
        trajectory = tmp_path / "geolife" / "Data" / "000" / "Trajectory"
        trajectory.mkdir(parents=True)
        assert main(["ingest", str(tmp_path / "geolife"), "--out", str(tmp_path / "v.csv")]) == 3
        assert capsys.readouterr().err == f"data error: no .plt files under {trajectory}\n"

    def test_ingest_of_a_file_is_a_data_error(self, tmp_path, capsys):
        plt = tmp_path / "20080101000000.plt"
        write_plt(plt, ["0.5,0.2,0,0,0,2008-01-01,08:00:00"])
        assert main(["ingest", str(plt), "--out", str(tmp_path / "v.csv")]) == 3
        assert capsys.readouterr().err == f"data error: GeoLife path is not a directory: {plt}\n"

    @pytest.mark.parametrize("option", ["--out", "--dump-topology"])
    def test_output_that_is_a_directory_is_a_config_error(self, tmp_path, capsys, option):
        root = fake_geolife(tmp_path / "geolife")
        (tmp_path / "taken").mkdir()
        args = {"--out": str(tmp_path / "visits.csv"), option: str(tmp_path / "taken")}
        code = main(["ingest", str(root), "--grid", "1x2", "--bbox", "0", "1", "0", "1",
                     *(arg for pair in args.items() for arg in pair)])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {option}: {tmp_path / 'taken'} is a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["geolife", "taken"]  # nothing written

    @pytest.mark.parametrize("option", ["--out", "--dump-topology"])
    def test_output_below_a_file_is_a_config_error(self, tmp_path, capsys, option):
        root = fake_geolife(tmp_path / "geolife")
        (tmp_path / "file").write_text("")
        args = {"--out": str(tmp_path / "visits.csv"), option: str(tmp_path / "file" / "out")}
        code = main(["ingest", str(root), "--grid", "1x2", "--bbox", "0", "1", "0", "1",
                     *(arg for pair in args.items() for arg in pair)])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {option}: {tmp_path / 'file'} is not a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "geolife"]  # nothing written

    def test_overlapping_files_are_named(self, tmp_path, capsys):
        traj = tmp_path / "geolife" / "Data" / "000" / "Trajectory"
        for name, start, end in (("a", "08:00", "08:30"), ("b", "07:00", "07:10"), ("c", "08:10", "08:20")):
            write_plt(traj / f"{name}.plt", [f"0.5,0.2,0,0,0,2008-01-01,{start}:00",
                                             f"0.5,0.2,0,0,0,2008-01-01,{end}:00"])
        code = main(["ingest", str(tmp_path / "geolife"), "--grid", "1x2", "--bbox", "0", "1", "0", "1",
                     "--out", str(tmp_path / "v.csv")])
        assert code == 3
        a, c = (Path("Data", "000", "Trajectory", name) for name in ("a.plt", "c.plt"))
        assert capsys.readouterr().err == \
               f"data error: client 000: 1 overlapping trajectory file pair(s): {a} and {c}\n"

    def test_interrupted_ingest_leaves_no_visits_file(self, tmp_path, monkeypatch):
        root = fake_geolife(tmp_path / "geolife")

        def interrupted(timelines, fh):
            write_visits_csv(timelines[:1], fh)
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "write_visits_csv", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["ingest", str(root), "--grid", "1x2", "--bbox", "0", "1", "0", "1",
                  "--out", str(tmp_path / "v.csv")])
        assert list(tmp_path.iterdir()) == [root]  # neither v.csv nor v.csv.partial

    def test_ingest_topology_dump(self, tmp_path):
        root = fake_geolife(tmp_path / "geolife")
        topo_file = tmp_path / "topo.txt"
        code = main(["ingest", str(root), "--grid", "1x2", "--bbox", "0", "1", "0", "1",
                     "--out", str(tmp_path / "v.csv"), "--dump-topology", str(topo_file)])
        assert code == 0
        assert topo_file.read_text() == ("grid 1 2 0.0 1.0 0.0 1.0\n"
                                         "node 0 edge 0.5 0.25\n"
                                         "node 1 edge 0.5 0.75\n")


class TestReport:
    def test_merge(self, tmp_path, capsys):
        for name in ("a", "b"):
            assert main(["run", str(SMOKE_CONFIG), "--out", str(tmp_path / name)]) == 0
        merged = tmp_path / "merged.csv"
        code = main(["report", str(tmp_path / "a" / "results.csv"),
                     str(tmp_path / "b" / "results.csv"), "--out", str(merged)])
        assert code == 0
        lines = merged.read_text().splitlines()
        assert len(lines) == 1 + 6  # header + 3 policies x 2 runs

    def test_out_writes_the_rows_of_one_file_unchanged_and_sorted(self, tmp_path):
        merged = tmp_path / "merged.csv"
        assert main(["report", str(GOLDEN_RESULTS), "--out", str(merged)]) == 0
        header, *rows = GOLDEN_RESULTS.read_text().splitlines(keepends=True)
        assert merged.read_text() == header + "".join(sorted(rows, key=lambda r: r.split(",")[:3]))

    def test_row_that_does_not_convert_names_file_and_line(self, tmp_path, capsys):
        bad = tmp_path / "results.csv"
        bad.write_text(GOLDEN_RESULTS.read_text().replace(",0.5,", ",half,"))
        assert main(["report", str(bad)]) == 3
        assert capsys.readouterr().err == f"data error: {bad} line 2: could not convert string to float: 'half'\n"

    def test_wrong_header_is_a_data_error(self, tmp_path, capsys):
        bad = tmp_path / "results.csv"
        bad.write_text("a,b,c\n" + GOLDEN_RESULTS.read_text().split("\n", 1)[1])
        assert main(["report", str(bad)]) == 3
        assert capsys.readouterr().err == f"data error: {bad}: unexpected results header ['a', 'b', 'c']\n"

    def test_row_with_a_ninth_field_is_a_data_error(self, tmp_path, capsys):
        bad = tmp_path / "results.csv"
        header, first, *_ = GOLDEN_RESULTS.read_text().splitlines()
        bad.write_text(f"{header}\n{first},extra\n")
        assert main(["report", str(bad)]) == 3
        assert capsys.readouterr().err == f"data error: {bad} line 2: more than 8 fields\n"

    def test_missing_results_file(self, tmp_path):
        assert main(["report", str(tmp_path / "none.csv")]) == 3

    def test_stdout_is_the_out_file(self, tmp_path, capsys):
        """Without --out the merged table goes to stdout, header and quoting included."""
        results = tmp_path / "results.csv"
        results.write_text(GOLDEN_RESULTS.read_text().replace("\nsmoke,", '\n"a,b",'))
        assert main(["report", str(results)]) == 0
        stdout = capsys.readouterr().out
        assert main(["report", str(results), "--out", str(tmp_path / "merged.csv")]) == 0
        assert stdout.encode() == (tmp_path / "merged.csv").read_bytes()
        assert stdout.splitlines()[1].startswith('"a,b",strip-3,')

    def test_out_that_is_a_directory_is_a_config_error(self, tmp_path, capsys):
        assert main(["run", str(SMOKE_CONFIG), "--out", str(tmp_path / "a")]) == 0
        capsys.readouterr()
        (tmp_path / "merged").mkdir()
        assert main(["report", str(tmp_path / "a" / "results.csv"), "--out", str(tmp_path / "merged")]) == 2
        assert capsys.readouterr().err == f"config error: --out: {tmp_path / 'merged'} is a directory\n"

    def test_out_below_a_file_is_a_config_error(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        assert main(["report", str(GOLDEN_RESULTS), "--out", str(tmp_path / "file" / "x.csv")]) == 2
        assert capsys.readouterr().err == f"config error: --out: {tmp_path / 'file'} is not a directory\n"

    def test_results_path_that_is_a_directory_is_a_data_error(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 3
        assert capsys.readouterr().err == f"data error: results path is not a file: {tmp_path}\n"


def error_config(top="seed: 1", topo="rows: 1", policy="predictor: baseline",
                 trace="{source: visits, path: visits.csv}"):
    """A ten-line experiment file; each argument replaces one line
    (``trace`` line 2, ``top`` line 3, ``topo`` line 6, ``policy`` line 10)."""
    return ("experiment: errors\n"
            f"trace: {trace}\n"
            f"{top}\n"
            "topologies:\n"
            "  - name: strip-2\n"
            f"    {topo}\n"
            "    cols: 2\n"
            "policies:\n"
            "  - name: p\n"
            f"    {policy}\n")


def spec_trace(client="weeks: 1", pattern="days: [mon], start: '08:00'"):
    """A one-client inline synthetic spec for error_config's ``trace`` line."""
    return ("{source: synthetic, spec: {clients: [{client: c, %s, "
            "patterns: [{%s, path: [[0, 60]]}]}]}}" % (client, pattern))


SPEC_CLIENT = "trace.spec.clients[0]"
# a one-topology experiment file whose topology (line 3) is the argument
SINGLE_TOPOLOGY = "experiment: x\ntrace: {{source: visits, path: visits.csv}}\ntopology: {}\npolicies: [{{name: p}}]\n"


class TestConfigErrors:
    @pytest.mark.parametrize("override, key_path, line", [
        ({"policy": "predictor: {type: vomm, k: two}"}, "policies[0].predictor.k", 10),
        ({"top": "jobs: many"}, "jobs", 3),
        ({"policy": 'eot: "false"'}, "policies[0].eot", 10),
        ({"policy": "predictor: {type: vomm, k: 2.5}"}, "policies[0].predictor.k", 10),
        ({"policy": "predictor: {type: vomm, k: 2, day_splits: [1, 7]}"},
         "policies[0].predictor.day_splits", 10),
        ({"policy": "predictor: {type: momm, k: 1, time_splits: [1, 24]}"},
         "policies[0].predictor.time_splits", 10),
        ({"topo": "bbox: [1, 2, 3]"}, "topologies[0].bbox", 6),
        ({"topo": "kind: ring"}, "topologies[0].kind", 6),
        ({"trace": spec_trace(client="wekks: 3")}, f"{SPEC_CLIENT}.wekks", 2),
        ({"trace": spec_trace(client="weeks: two")}, f"{SPEC_CLIENT}.weeks", 2),
        ({"trace": spec_trace(pattern="days: [mon], start: '8am'")}, f"{SPEC_CLIENT}.patterns[0].start", 2),
        ({"trace": spec_trace(pattern="days: [mon], start: 8:00")}, f"{SPEC_CLIENT}.patterns[0].start", 2),
        ({"trace": spec_trace(pattern="days: [mon], start: '25:90'")}, f"{SPEC_CLIENT}.patterns[0].start", 2),
        ({"trace": spec_trace(pattern="days: [mon, fry], start: '08:00'")}, f"{SPEC_CLIENT}.patterns[0].days", 2),
        ({"trace": spec_trace(client="client_id: x")}, f"{SPEC_CLIENT}.client_id", 2),
        ({"trace": "{source: synthetic, spec: {clients: ["
                   "{client: c, patterns: [{days: [mon], start: '08:00', path: [[0, 60]]}]}, "
                   "{client: c, patterns: [{days: [tue], start: '08:00', path: [[1, 60]]}]}]}}"},
         "trace.spec.clients[1].client", 2),
        ({"trace": "{source: geolife, path: g, gap_treshold: 60}"}, "trace.gap_treshold", 2),
        ({"trace": "{source: geolife, path: g, gap_threshold: 0}"}, "trace.gap_threshold", 2),
        ({"trace": "{source: visits, path: v.csv, clients: [a]}"}, "trace.clients", 2),
        ({"topo": "edge_rate: 0"}, "topologies[0].edge_rate", 6),
        ({"topo": "transfer_delay: 0"}, "topologies[0].transfer_delay", 6),
        ({"topo": "rows: 0"}, "topologies[0].rows", 6),
        ({"top": "metrics: {series_bucket: 0}"}, "metrics.series_bucket", 3),
        ({"top": "jobs: 0"}, "jobs", 3),
        ({"policy": "startup: {type: plmm, threshold: 0}"}, "policies[0].startup.threshold", 10),
        ({"policy": "startup: {type: plmm, factor: -1}"}, "policies[0].startup.factor", 10),
        ({"policy": "startup: {type: short_pause, min_samples: 0}"}, "policies[0].startup.min_samples", 10),
        ({"policy": "startup: {type: short_pause, duration: -230000}"}, "policies[0].startup.duration", 10),
        ({"policy": "startup: {type: short_pause, max: -1}"}, "policies[0].startup.max", 10),
        ({"top": "metrics: {window: [.nan, .nan]}"}, "metrics.window", 3),
        ({"trace": "{source: visits, path: visits.csv, tz_offset: .nan}"}, "trace.tz_offset", 2),
        ({"topo": "transfer_delay: .inf"}, "topologies[0].transfer_delay", 6),
        ({"topo": "bbox: [.nan, 1, 0, 1]"}, "topologies[0].bbox", 6),
        ({"trace": spec_trace().replace("{clients:", "{anchor: .nan, clients:")}, "trace.spec.anchor", 2),
        ({"policy": "startup: {type: short_pause, max: .inf}"}, "policies[0].startup.max", 10),
        ({"topo": "data_size_gb: 1" + "0" * 400}, "topologies[0].data_size_gb", 6),
        ({"top": 'metrics: {series_clients: ["000", "001", "000"]}'}, "metrics.series_clients", 3),
        ({"trace": spec_trace().replace("[[0, 60]]", "[]")}, f"{SPEC_CLIENT}.patterns[0].path", 2),
        ({"trace": spec_trace().replace("[[0, 60]]", "[[0, 60], [0, 30]]")}, f"{SPEC_CLIENT}.patterns[0].path", 2),
        ({"trace": spec_trace(pattern="days: [], start: '08:00'")}, f"{SPEC_CLIENT}.patterns[0].days", 2),
        ({"trace": "{source: synthetic, spec: {clients: [{client: c, patterns: []}]}}"},
         f"{SPEC_CLIENT}.patterns", 2),
        ({"trace": "{source: synthetic, spec: {clients: []}}"}, "trace.spec.clients", 2),
        ({"topo": "bbox: [1.0, 0.0, 0.0, 1.0]"}, "topologies[0].bbox", 6),
        ({"policy": "predictor: {type: vomm, k: 0}"}, "policies[0].predictor.k", 10),
        ({"policy": "predictor: {type: fomm, k: 1, day_splits: [1, 3]}"}, "policies[0].predictor.day_splits", 10),
        ({"policy": "topn: {type: dynamic, threshold: 1.5}"}, "policies[0].topn.threshold", 10),
        ({"policy": "topn: {type: dynamic, threshold: 0}"}, "policies[0].topn.threshold", 10),
        ({"policy": "topn: {type: fixed, n: 0}"}, "policies[0].topn.n", 10),
        ({"topo": "neighborhood: 8"}, "topologies[0].neighborhood", 6),
        ({"policy": "preload_buffer: -.inf"}, "policies[0].preload_buffer", 10),
        ({"policy": "preload_buffer: .nan"}, "policies[0].preload_buffer", 10),
        ({"policy": "preload_buffer: -1"}, "policies[0].preload_buffer", 10),
        ({"topo": "rows: 32769", "policy": "predictor: {type: vomm, k: 2}"}, "topologies[0].rows", 6),
        ({"topo": "rows: 32769", "policy": "startup: {type: plmm}"}, "topologies[0].rows", 6),
        ({"topo": "rows: 32769", "policy": "startup: {type: short_pause, mode: learned}"}, "topologies[0].rows", 6),
        ({"topo": "rows: 32769", "policy": "startup: {type: short_pause, mode: node_specific}"},
         "topologies[0].rows", 6),
        ({"trace": "{source: [visits], path: visits.csv}"}, "trace.source", 2),
        ({"topo": "kind: complex\n    transfer_delay: 10"}, "topologies[0].transfer_delay", 7),
        ({"topo": "kind: grid\n    data_size_gb: 2"}, "topologies[0].data_size_gb", 7),
        ({"topo": "uplink_rate: 800000000"}, "topologies[0].uplink_rate", 6),
        ({"policy": "startup: {type: plmm, duration: 5}"}, "policies[0].startup.duration", 10),
        ({"policy": "startup: {type: short_pause, factor: 2}"}, "policies[0].startup.factor", 10),
        ({"policy": "startup: {mode: learned}"}, "policies[0].startup.mode", 10),
        ({"policy": "predictor: vomm\n    topn: {type: fixed, threshold: 0.5}"}, "policies[0].topn.threshold", 11),
        ({"policy": "predictor: vomm\n    topn: {type: dynamic, n: 2}"}, "policies[0].topn.n", 11),
        ({"policy": "predictor: {type: baseline, k: 5}"}, "policies[0].predictor.k", 10),
        ({"policy": "eot: true"}, "policies[0].eot", 10),
        ({"policy": "topn: {type: fixed, n: 2}"}, "policies[0].topn.type", 10),
        ({"policy": "preload_buffer: 60"}, "policies[0].preload_buffer", 10),
        ({"top": "seed: &s [*s]"}, "seed[0]", 3),
        ({"top": "metrics: &m {window: *m}"}, "metrics.window", 3),
        ({"policy": "startup: {type: short_pause, min_samples: 5}"}, "policies[0].startup.min_samples", 10),
        ({"policy": "predictor: baseline\n  - 0"}, "policies[1]", 11),
        ({"policy": "predictor: baseline\n  - ''"}, "policies[1]", 11),
        ({"policy": "predictor: baseline\n  - false"}, "policies[1]", 11),
        ({"policy": "predictor: baseline\n  - []"}, "policies[1]", 11),
        ({"topo": "cols: 2\n  - 0\n  - rows: 1"}, "topologies[1]", 7),
        (SINGLE_TOPOLOGY.format("[]"), "topology", 3),
        (SINGLE_TOPOLOGY.format("''"), "topology", 3),
        ({"trace": spec_trace().replace("[[0, 60]]", "[[0, 60], [-1, 60]]")}, f"{SPEC_CLIENT}.patterns[0].path[1]", 2),
    ], ids=["k-word", "jobs-word", "eot-string", "k-float", "vomm-day-splits",
            "momm-time-splits", "bbox-three", "kind-unknown", "spec-wekks", "spec-weeks-word",
            "spec-start-8am", "spec-start-unquoted", "spec-start-25-90", "spec-day-fry",
            "spec-client-id", "spec-client-twice", "trace-gap-treshold", "trace-gap-zero", "visits-clients",
            "edge-rate-zero", "transfer-delay-zero", "rows-zero", "series-bucket-zero",
            "jobs-zero", "plmm-threshold-zero", "plmm-factor-negative", "min-samples-zero",
            "pause-duration-negative", "pause-max-negative", "window-nan", "tz-offset-nan",
            "transfer-delay-inf", "bbox-nan", "spec-anchor-nan", "pause-max-inf",
            "data-size-too-large", "series-clients-twice", "spec-path-empty", "spec-path-node-twice",
            "spec-days-empty", "spec-patterns-empty", "spec-clients-empty", "bbox-reversed",
            "k-zero", "fomm-day-split-3", "topn-threshold-over-one", "topn-threshold-zero", "topn-n-zero",
            "neighborhood-unknown", "preload-buffer-minus-inf", "preload-buffer-nan",
            "preload-buffer-negative", "grid-too-large-for-predictor", "grid-too-large-for-plmm",
            "grid-too-large-for-learned-pause", "grid-too-large-for-node-specific-pause",
            "trace-source-list", "complex-transfer-delay", "grid-data-size", "grid-uplink-rate",
            "plmm-duration", "short-pause-factor", "no-startup-mode", "fixed-topn-threshold",
            "dynamic-topn-n", "baseline-k", "baseline-eot", "baseline-topn", "baseline-preload-buffer",
            "alias-in-itself", "alias-in-a-mapping", "default-pause-min-samples", "policy-zero",
            "policy-empty-string", "policy-false", "policy-list", "topology-entry-zero", "topology-list",
            "topology-empty-string", "spec-node-negative"])
    def test_run_names_key_path_and_line(self, tmp_path, capsys, override, key_path, line):
        """``override`` holds error_config's arguments, or the whole file."""
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(error_config(**override) if isinstance(override, dict) else override)
        code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{key_path}:" in err and f"(line {line})" in err
        assert not (tmp_path / "out").exists()  # caught before any output is made

    @pytest.mark.parametrize("override, message", [
        ({"policy": "startup: {type: short_pause, duration: 5}\n    startup: plmm"},
         "policies[0].startup: key given twice (lines 10 and 11)"),
        ({"policy": "predictor: {type: vomm, k: 2, k: 3}"}, "policies[0].predictor.k: key given twice (lines 10 and 10)"),
        ({"policy": "predictor: baseline\npolicies:\n  - name: q"}, "policies: key given twice (lines 8 and 11)"),
    ], ids=["policy-startup", "flow-mapping", "top-level-policies"])
    def test_key_given_twice_is_a_config_error(self, tmp_path, capsys, override, message):
        cfg = tmp_path / "twice.yaml"
        cfg.write_text(error_config(**override))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {cfg}: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["fixed", "learned"])
    def test_min_samples_is_read_only_per_node(self, tmp_path, capsys, mode):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(error_config(policy=f"startup: {{type: short_pause, mode: {mode}, min_samples: 5}}"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (f"config error: {cfg}: policies[0].startup.min_samples: "
                                           f"not read when startup.mode is '{mode}' (line 10)\n")

    def test_duplicate_policy_name_names_the_file_the_duplicate_and_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(error_config(policy="predictor: baseline\n  - name: q\n  - name: p"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (f"config error: {cfg}: policies[2].name: names must be unique, "
                                           "and 'p' is also the name of policies[0] (line 12)\n")
        assert not (tmp_path / "out").exists()

    def test_parse_error_in_a_spec_file_names_that_file_once(self, tmp_path, capsys):
        spec = tmp_path / "spec.yaml"
        spec.write_text("clients:\n"
                        "  - client: c\n"
                        "    weeks: 0\n"
                        "    patterns: [{days: [mon], start: '08:00', path: [[0, 60]]}]\n")
        cfg = tmp_path / "run.yaml"
        cfg.write_text(error_config(trace="{source: synthetic, spec: spec.yaml}"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {spec}: clients[0].weeks: ") and err.endswith(" (line 3)\n")

    def test_key_given_twice_in_a_spec_file_is_a_config_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.yaml"
        spec.write_text("clients:\n"
                        "  - client: c\n"
                        "    weeks: 1\n"
                        "    weeks: 2\n"
                        "    patterns: [{days: [mon], start: '08:00', path: [[0, 60]]}]\n")
        cfg = tmp_path / "spec-twice.yaml"
        cfg.write_text(error_config(trace="{source: synthetic, spec: spec.yaml}"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {spec}: clients[0].weeks: key given twice (lines 3 and 4)\n"
        assert not (tmp_path / "out").exists()

    def test_non_mapping_entry_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(error_config(policy="predictor: baseline\n  - 0"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {cfg}: policies[1]: expected a mapping, got 0 (line 11)\n"

    def test_null_entry_takes_the_defaults(self):
        cfg = parse_experiment_config("trace: {source: visits, path: v.csv}\ntopology:\npolicies: [null]\n")
        assert [(t.name, t.rows, t.cols) for t in cfg.topologies] == [("topo0", 10, 10)]
        assert [(p.name, p.predictor) for p in cfg.policies] == [("policy0", "baseline")]

    def test_pattern_node_off_the_grid_names_the_experiment_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(error_config(trace=spec_trace().replace("[[0, 60]]", "[[0, 60], [7, 60]]")))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (f"config error: {cfg}: {SPEC_CLIENT}.patterns[0].path[1]: node 7 "
                                           "is not on topology 'strip-2', whose nodes are 0 to 1 (line 2)\n")
        assert not (tmp_path / "out").exists()

    def test_pattern_node_off_the_smallest_grid_names_the_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "spec.yaml"
        spec.write_text("clients:\n"
                        "  - client: c\n"
                        "    patterns:\n"
                        "      - {days: [mon], start: '08:00', path: [[0, 60], [5, 60]]}\n")
        cfg = tmp_path / "run.yaml"
        cfg.write_text("trace: {source: synthetic, spec: spec.yaml}\n"
                       "topologies: [{name: large, rows: 3, cols: 3}, {name: small, rows: 1, cols: 2}]\n"
                       "policies: [{name: p}]\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (f"config error: {spec}: clients[0].patterns[0].path[1]: node 5 "
                                           "is not on topology 'small', whose nodes are 0 to 1 (line 4)\n")
        cfg.write_text(cfg.read_text().replace("rows: 1, cols: 2", "rows: 2, cols: 3"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_merged_keys_may_be_overridden(self):
        """A `<<` merge key brings a mapping's keys in; a key after it overrides one of them."""
        cfg = parse_experiment_config("trace: {source: visits, path: v.csv}\n"
                                      "policies:\n"
                                      "  - {name: p, predictor: &vomm {type: vomm, k: 2}}\n"
                                      "  - {name: q, predictor: {<<: *vomm, k: 3}}\n")
        assert [(p.predictor, p.k) for p in cfg.policies] == [("vomm", 2), ("vomm", 3)]

    def test_predictor_takes_up_to_65536_nodes(self):
        """Node ids are 16-bit in a predictor's model, a PLMM and a short-pause
        window that learns; a grid without any of them may be larger."""
        vomm = "predictor: {type: vomm, k: 2}"
        assert parse_experiment_config(error_config(topo="rows: 32768", policy=vomm)).topologies[0].rows == 32768
        assert parse_experiment_config(error_config(topo="rows: 32769")).topologies[0].rows == 32769
        fixed = parse_experiment_config(  # a fixed window keeps no node ids
            "trace: {source: visits, path: v.csv}\ntopology: {rows: 300, cols: 300}\n"
            "policies:\n  - {name: p, startup: {type: short_pause, mode: fixed}}\n")
        assert fixed.topologies[0].rows * fixed.topologies[0].cols == 90000
        with pytest.raises(ConfigError, match=r"^<config>: topology\.rows: 70000 x 1 nodes do not fit .* \(line 3\)$"):
            parse_experiment_config("trace: {source: visits, path: v.csv}\ntopology:\n  rows: 70000\n  cols: 1\n"
                                    f"policies:\n  - {{name: p, {vomm}}}\n")

    def test_infinite_preload_buffer_is_the_default(self, tmp_path):
        written, left_out = tmp_path / "inf.yaml", tmp_path / "default.yaml"
        written.write_text(error_config(policy="predictor: vomm\n    preload_buffer: .inf"))
        left_out.write_text(error_config(policy="predictor: vomm"))
        assert load_experiment_config(written).policies == load_experiment_config(left_out).policies

    def test_overlapping_patterns_name_client_and_local_times(self, tmp_path, capsys):
        trace = spec_trace(pattern="days: [mon], start: '08:00'").replace(
            "path: [[0, 60]]}", "path: [[0, 7200]]}, {days: [mon], start: '09:00', path: [[1, 600]]}")
        cfg = tmp_path / "overlap.yaml"
        cfg.write_text(error_config(trace=trace))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == ("config error: client c: synthetic session 1 starting "
                                           "Monday 09:00:00 overlaps session 0 starting Monday 08:00:00\n")

    def test_time_zone_comes_from_the_trace(self):
        text = ("experiment: tz\n"
                "trace: {source: geolife, path: geolife, tz_offset: 0}\n"
                "policies:\n"
                "  - name: baseline\n"
                "  - name: fomm\n"
                "    predictor: {type: fomm, k: 1, time_splits: [1, 24]}\n")
        assert [p.tz_offset for p in parse_experiment_config(text).policies] == [0.0, 0.0]
        geolife_default = parse_experiment_config(text.replace(", tz_offset: 0", ""))
        assert [p.tz_offset for p in geolife_default.policies] == [28800.0, 28800.0]
        with pytest.raises(ConfigError, match=r"policies\[1\]\.tz_offset: unknown key \(line 7\)"):
            parse_experiment_config(text + "    tz_offset: 0\n")

    def test_spec_errors_name_key_path_and_line(self, tmp_path, capsys):
        spec = ("anchor: 345600\n"
                "clients:\n"
                "  - client: commuter\n"
                "    patterns:\n"
                "      - days: [mon, fry]\n"
                "        start: '08:00'\n"
                "        path: [[0, 600], [1, 600]]\n")
        (tmp_path / "commuter.yaml").write_text(spec)
        inline = "\n".join(["experiment: inline", "trace:", "  source: synthetic", "  spec:",
                            *("    " + line for line in spec.splitlines()),
                            "topology: {rows: 1, cols: 2}", "policies: [{name: p}]", ""])
        (tmp_path / "inline.yaml").write_text(inline)
        (tmp_path / "file.yaml").write_text(error_config(trace="{source: synthetic, spec: commuter.yaml}"))
        assert main(["run", str(tmp_path / "inline.yaml"), "--out", str(tmp_path / "out")]) == 2
        assert "trace.spec.clients[0].patterns[0].days: " in capsys.readouterr().err
        # the days key is on line 5 of the spec, and on line 9 when inlined
        with pytest.raises(ConfigError, match=r"\(line 9\)"):
            load_experiment_config(tmp_path / "inline.yaml")
        assert main(["run", str(tmp_path / "file.yaml"), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'commuter.yaml'}: clients[0].patterns[0].days: " in err and "(line 5)" in err


NAME_KEYS = {  # key path -> (smoke config text to replace, its replacement with {name})
    "policies[1].name": ("  - name: vomm-k2\n", "  - name: {name}\n"),
    "topology.name": ("  name: strip-3\n", "  name: {name}\n"),
    "metrics.series_clients": ("series_clients: [commuter]", "series_clients: [{name}]"),
    "plot": ("plot: pareto.svg", "plot: {name}"),
}


class TestOutputNames:
    """A name that becomes an output path is one plain file-name component."""

    @pytest.mark.parametrize("key_path", NAME_KEYS)
    @pytest.mark.parametrize("name", ["", ".", "..", "../../escaped", "x/y", "a\\b", "a\0b"],
                             ids=["empty", "dot", "dot-dot", "escape", "slash", "backslash", "nul"])
    def test_run_rejects_a_path_for_a_name(self, tmp_path, capsys, key_path, name):
        old, new = NAME_KEYS[key_path]
        text = SMOKE_CONFIG.read_text()
        line = text[:text.index(old)].count("\n") + 1
        # the series client is in the trace, so only the name check can stop it
        text = text.replace(old, new.format(name=json.dumps(name))).replace(
            "client: commuter", f"client: {json.dumps(name)}")
        cfg = tmp_path / "names.yaml"
        cfg.write_text(text)
        assert main(["run", str(cfg), "--out", str(tmp_path / "oute" / "sub")]) == 2
        err = capsys.readouterr().err
        assert f"{key_path}: expected one plain file-name component, got {name!r}" in err
        assert f"(line {line})" in err
        assert list(tmp_path.rglob("*")) == [cfg]  # nothing written, inside --out or out of it

    @pytest.mark.parametrize("topologies, policies, first, second, directory", [
        (["same", "same"], ["baseline"], "policies[0] 'baseline' on topologies[0] 'same'",
         "policies[0] 'baseline' on topologies[1] 'same'", "baseline__same"),
        (["c", "b__c"], ["a__b", "a"], "policies[0] 'a__b' on topologies[0] 'c'",
         "policies[1] 'a' on topologies[1] 'b__c'", "a__b__c"),
    ], ids=["same-topology-name", "names-split-at-underscores"])
    def test_points_that_share_a_directory_are_a_config_error(self, tmp_path, capsys, topologies,
                                                               policies, first, second, directory):
        (tmp_path / "visits.csv").write_text(
            "client_id,session_id,node_id,arrival_epoch_s,departure_epoch_s\nc,0,0,0.0,1000.0\n")
        cfg = tmp_path / "points.yaml"
        cfg.write_text("trace: {source: visits, path: visits.csv}\ntopologies:\n"
                       + "".join(f"  - {{name: {t}, rows: 1, cols: 2}}\n" for t in topologies)
                       + "policies:\n" + "".join(f"  - {{name: {p}}}\n" for p in policies))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == \
            f"config error: {cfg}: {first} and {second} both write the directory {directory!r}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("plot, taken", [
        ("results.csv", "the results table"),
        ("summary.json", "the summary"),
        ("baseline__strip-3", "the directory of policies[0] 'baseline' on topologies[0] 'strip-3'"),
    ], ids=["results", "summary", "point-directory"])
    def test_plot_that_names_another_output_is_a_config_error(self, tmp_path, capsys, plot, taken):
        text = SMOKE_CONFIG.read_text()
        line = text[:text.index("plot: pareto.svg")].count("\n") + 1
        cfg = tmp_path / "plot.yaml"
        cfg.write_text(text.replace("plot: pareto.svg", f"plot: {plot}"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {cfg}: plot: {plot!r} would overwrite {taken} (line {line})\n"
        assert not (tmp_path / "out").exists()

    def test_plot_escapes_names(self, tmp_path):
        cfg = tmp_path / "markup.yaml"
        cfg.write_text(SMOKE_CONFIG.read_text().replace("  - name: vomm-k2\n", "  - name: p&q\n")
                       .replace("  name: strip-3\n", "  name: <x]]>\n"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        svg = ElementTree.fromstring((tmp_path / "out" / "pareto.svg").read_text())
        assert "p&q/<x]]>" in [t.text for t in svg.iter("{http://www.w3.org/2000/svg}text")]

    def test_dots_inside_a_name_are_plain(self, tmp_path):
        cfg = tmp_path / "dots.yaml"
        cfg.write_text(SMOKE_CONFIG.read_text().replace("  - name: vomm-k2\n", "  - name: ..vomm..k2\n"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "..vomm..k2__strip-3" / "report.csv").is_file()


class TestTraceSection:
    def test_spec_file_matches_inline_spec(self, tmp_path):
        text = SMOKE_CONFIG.read_text()
        head, rest = text.split("  spec:\n", 1)
        spec_lines = rest.split("\n\n", 1)[0]
        (tmp_path / "spec.yaml").write_text("\n".join(line[4:] for line in spec_lines.splitlines()) + "\n")
        (tmp_path / "smoke.yaml").write_text(text.replace("  spec:\n" + spec_lines, "  spec: spec.yaml"))
        assert main(["run", str(tmp_path / "smoke.yaml"), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "results.csv").read_bytes() == GOLDEN_RESULTS.read_bytes()

    def test_run_seed_fills_a_spec_without_seed(self):
        cfg = parse_experiment_config(
            "trace:\n"
            "  source: synthetic\n"
            "  spec:\n"
            "    jitter: 600\n"
            "    clients:\n"
            "      - client: a\n"
            "        patterns: [{days: [0, Tuesday, wed], start: '08:00', path: [[0, 60], [1, 60]]}]\n"
            "      - client: b\n"
            "        seed: 3\n"
            "        weeks: 2\n"
            "        patterns: [{days: [fri], start: '23:59', path: [[1, 60]]}]\n"
            "policies: [{name: p}]\n")
        (spec_a, seed_a), (spec_b, seed_b) = cfg.trace.spec
        assert (spec_a.patterns[0].days, spec_a.weeks, seed_a) == ((0, 1, 2), 1, None)
        assert (spec_b.patterns[0].start_clock, spec_b.weeks, seed_b) == (23 * 3600 + 59 * 60, 2, 3)
        cfg.seed = 11  # as `fogrep run --seed 11` sets it after parsing
        a, b = load_traces(cfg, build_grid(1, 2), "strip-2")
        assert a.sessions == synth_generate(spec_a, noise_seed=11).sessions
        assert b.sessions == synth_generate(spec_b, noise_seed=3).sessions


SHIPPED_POINTS = {  # shipped config -> its sweep points, topologies x policies
    "configs/geolife/combination.yaml": 2 * 4,
    "configs/geolife/networks.yaml": 5 * 2,
    "configs/geolife/preload_buffers.yaml": 1 * 6,
    "configs/restart.yaml": 1 * 4,
    "configs/smoke.yaml": 1 * 3,
    "perfbench/configs/sweep-flow.yaml": 1 * 4,
}


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: str(p.relative_to(REPO)))
def test_shipped_config_parses(path):
    """Every config the repository ships loads as `fogrep run` loads it, with
    all its sweep points, so a table change that drops or renames a key one
    of them uses fails here. A new config needs its row in SHIPPED_POINTS."""
    cfg = load_experiment_config(path)
    assert len(cfg.topologies) * len(cfg.policies) == SHIPPED_POINTS[str(path.relative_to(REPO))]


class TestUnreadableFiles:
    """A file fogrep reads that is not UTF-8 text, or that has a field over
    csv's size limit, fails with its file named (and the line, where it is
    known), never with a traceback."""

    SPEC = b"clients: [{client: c, patterns: [{days: [mon], start: '08:00', path: [[0, 60]]}]}]\n"
    VISITS = "client_id,session_id,node_id,arrival_epoch_s,departure_epoch_s\nb,0,1,0.0,1000.0\n"

    @pytest.mark.parametrize("bad", ["run.yaml", "spec.yaml"])
    def test_yaml_file_that_is_not_utf8(self, tmp_path, capsys, bad):
        (tmp_path / "spec.yaml").write_bytes(self.SPEC)
        (tmp_path / "run.yaml").write_text(error_config(trace="{source: synthetic, spec: spec.yaml}"))
        (tmp_path / bad).write_bytes(b"# caf\xe9\n" + (tmp_path / bad).read_bytes())
        assert main(["run", str(tmp_path / "run.yaml"), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (f"config error: {tmp_path / bad} line 1: "
                                           "not UTF-8 text (invalid continuation byte)\n")
        assert not (tmp_path / "out").exists()

    def test_spec_path_that_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "spec").mkdir()
        cfg = tmp_path / "dir.yaml"
        cfg.write_text(error_config(trace="{source: synthetic, spec: spec}"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == f"data error: synthetic spec path is not a file: {tmp_path / 'spec'}\n"

    @pytest.mark.parametrize("first_field, problem", [
        (b"\xff", ": not UTF-8 text (invalid start byte)"),
        (b"b" * 200_000, " line 3: field larger than field limit (131072)"),
    ], ids=["not-utf8", "field-over-limit"])
    def test_visits_file(self, tmp_path, capsys, first_field, problem):
        (tmp_path / "visits.csv").write_bytes(self.VISITS.encode() + first_field + b",1,0,2000.0,3000.0\n")
        cfg = tmp_path / "visits.yaml"
        cfg.write_text(error_config())
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == f"data error: {tmp_path / 'visits.csv'}{problem}\n"

    @pytest.mark.parametrize("experiment, problem", [
        (b"sm\xf6ke", ": not UTF-8 text (invalid start byte)"),
        (b"x" * 200_000, " line 2: field larger than field limit (131072)"),
    ], ids=["not-utf8", "field-over-limit"])
    def test_results_file(self, tmp_path, capsys, experiment, problem):
        bad = tmp_path / "results.csv"
        bad.write_bytes(GOLDEN_RESULTS.read_bytes().replace(b"\nsmoke,", b"\n" + experiment + b",", 1))
        assert main(["report", str(bad)]) == 3
        assert capsys.readouterr().err == f"data error: {bad}{problem}\n"
