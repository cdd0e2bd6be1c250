import time
from pathlib import Path

import pytest

from fogrep.cli import main
from fogrep.errors import ConfigError
from fogrep.experiment import parse_experiment_config

REPO = Path(__file__).resolve().parent.parent
SMOKE_CONFIG = REPO / "configs" / "smoke.yaml"
GOLDEN_RESULTS = Path(__file__).resolve().parent / "data" / "smoke_results.csv"

PLT_HEADER = ("Geolife trajectory\nWGS 84\nAltitude is in Feet\nReserved 3\n"
              "0,2,255,My Track,0,0,2,8421376\n0\n")


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
        # warmed-up combined policy serves every active second
        combo = [line for line in results.decode().splitlines() if ",combination," in line]
        assert combo and combo[0].split(",")[4] == "1.0"

    def test_rerun_is_byte_identical(self, tmp_path):
        assert main(["run", str(SMOKE_CONFIG), "--out", str(tmp_path / "a")]) == 0
        assert main(["run", str(SMOKE_CONFIG), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "results.csv").read_bytes() == \
               (tmp_path / "b" / "results.csv").read_bytes()
        assert (tmp_path / "a" / "summary.json").exists()
        assert (tmp_path / "a" / "pareto.svg").exists()
        series = tmp_path / "a" / "combination__strip-3" / "series_commuter.csv"
        assert series.exists()

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

    def test_jobs_flag_matches_serial(self, tmp_path):
        assert main(["run", str(SMOKE_CONFIG), "--out", str(tmp_path / "serial")]) == 0
        assert main(["run", str(SMOKE_CONFIG), "--out", str(tmp_path / "par"),
                     "--jobs", "3"]) == 0
        assert (tmp_path / "serial" / "results.csv").read_bytes() == \
               (tmp_path / "par" / "results.csv").read_bytes()


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

    def test_ingest_missing_dir(self, tmp_path, capsys):
        code = main(["ingest", str(tmp_path / "none"), "--out", str(tmp_path / "v.csv")])
        assert code == 3
        assert "GeoLife" in capsys.readouterr().err

    def test_ingest_topology_dump(self, tmp_path):
        root = fake_geolife(tmp_path / "geolife")
        topo_file = tmp_path / "topo.txt"
        code = main(["ingest", str(root), "--grid", "1x2", "--bbox", "0", "1", "0", "1",
                     "--out", str(tmp_path / "v.csv"), "--dump-topology", str(topo_file)])
        assert code == 0
        from fogrep.topology import load_topology
        topo = load_topology(topo_file.read_text())
        assert len(topo.edge_nodes) == 2


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

    def test_missing_results_file(self, tmp_path):
        assert main(["report", str(tmp_path / "none.csv")]) == 3


def error_config(top="seed: 1", topo="rows: 1", policy="predictor: baseline"):
    """A ten-line experiment file; each argument replaces one line
    (``top`` line 3, ``topo`` line 6, ``policy`` line 10)."""
    return ("experiment: errors\n"
            "trace: {source: visits, path: visits.csv}\n"
            f"{top}\n"
            "topologies:\n"
            "  - name: strip-2\n"
            f"    {topo}\n"
            "    cols: 2\n"
            "policies:\n"
            "  - name: p\n"
            f"    {policy}\n")


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
    ], ids=["k-word", "jobs-word", "eot-string", "k-float", "vomm-day-splits",
            "momm-time-splits", "bbox-three", "kind-unknown"])
    def test_run_names_key_path_and_line(self, tmp_path, capsys, override, key_path, line):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(error_config(**override))
        code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{key_path}:" in err and f"(line {line})" in err

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
