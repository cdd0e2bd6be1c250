"""The shipped GeoLife configs are the experiments of the reproduction
harness (test_geolife_repro.py): each criterion reads the rows of a config's
points. The settings the harness built for itself before it read them are
pinned here, and every config runs end to end on a small PLT tree."""
import dataclasses
import math
from datetime import datetime, timedelta

import pytest

from fogrep import experiment
from fogrep.experiment import load_experiment_config, run_experiment
from fogrep.policies import PolicyConfig
from fogrep.topology import BEIJING_BBOX

from test_cli import REPO, SHIPPED_POINTS, write_plt
from test_geolife_repro import CONFIGS, geolife_config

TZ = 8 * 3600.0

# the policies the harness built for itself, by its name for them
HARNESS_POLICIES = {
    "baseline": PolicyConfig(name="baseline", tz_offset=TZ),
    **{f"vomm-k{k}": PolicyConfig(name=f"vomm-k{k}", predictor="vomm", k=k, topn_mode="fixed", topn_n=1,
                                  preload_buffer=86400.0, tz_offset=TZ) for k in (2, 5)},
    "fomm": PolicyConfig(name="fomm", predictor="fomm", k=2, day_splits=(1, 2, 7), time_splits=(1, 4, 24),
                         eot=True, topn_mode="dynamic", topn_threshold=0.9, preload_buffer=86400.0,
                         tz_offset=TZ),
    "short-pause": PolicyConfig(name="short-pause", startup_mode="short_pause", short_pause_mode="fixed",
                                short_pause_duration=600.0, tz_offset=TZ),
    "combination": PolicyConfig(name="combination", predictor="fomm", k=2, day_splits=(1, 2, 7),
                                time_splits=(1, 4, 24), eot=True, topn_mode="dynamic", topn_threshold=0.9,
                                preload_buffer=86400.0, startup_mode="short_pause", short_pause_mode="fixed",
                                short_pause_duration=600.0, tz_offset=TZ),
}
# and its networks, by its cache key for them: kind, rows, cols and the
# transfer time in seconds, all over the Beijing box
HARNESS_NETWORKS = {
    "grid10": ("grid", 10, 10, 300.0),
    "grid30": ("grid", 30, 30, 300.0),
    **{f"grid{n}c": ("complex", n, n, 200.0) for n in (9, 16, 25)},  # 1 GB over a 40 Mbit/s edge link
}
# criterion -> the config it reads, and its points as
# (harness policy, harness network, config policy, config topology)
CRITERIA = {
    9: ("networks.yaml", [("baseline", "grid10", "baseline", "simple-100"),
                          ("baseline", "grid30", "baseline", "simple-900")]),
    10: ("preload_buffers.yaml", [("vomm-k2", "grid10", "vomm-k2-buf24h", "simple-100"),
                                  ("vomm-k5", "grid10", "vomm-k5-buf24h", "simple-100")]),
    11: ("networks.yaml", [(policy, f"grid{n}c", policy, f"complex-{n * n}")
                           for n in (9, 16, 25) for policy in ("baseline", "fomm")]),
    12: ("combination.yaml", [(policy, network, policy, topology)
                              for network, topology in (("grid10", "simple-100"), ("grid25c", "complex-625"))
                              for policy in ("baseline", "combination")]),
    13: ("combination.yaml", [("short-pause", "grid10", "short-pause-10m", "simple-100")]),
    14: ("preload_buffers.yaml", [("vomm-k2", "grid10", "vomm-k2-buf24h", "simple-100")]),
}


@pytest.mark.parametrize("criterion", CRITERIA)
def test_configs_hold_the_settings_the_harness_built(criterion):
    name, points = CRITERIA[criterion]
    cfg = load_experiment_config(CONFIGS / name)
    policies = {p.name: p for p in cfg.policies}
    topologies = {t.name: t for t in cfg.topologies}
    for harness_policy, network, policy, topology in points:
        expected = dataclasses.replace(HARNESS_POLICIES[harness_policy], name=policy)
        if harness_policy in ("fomm", "combination"):
            # the one setting that changed: the configs replicate as soon as a node is predicted
            assert (expected.preload_buffer, policies[policy].preload_buffer) == (86400.0, math.inf)
            expected = dataclasses.replace(expected, preload_buffer=math.inf)
        assert policies[policy] == expected
        topo, delay = topologies[topology].build()
        kind, rows, cols, transfer = HARNESS_NETWORKS[network]
        assert (topologies[topology].kind, topo.grid.rows, topo.grid.cols, topo.grid.bbox, delay.delay) == \
            (kind, rows, cols, BEIJING_BBOX, transfer)


def plt_tree(root):
    """Two users who commute across the Beijing box on five weekdays, one
    PLT file per trip, a point a minute: user 000 between the south-west and
    the north-east, user 001 between the north-west and the south-east."""
    lat_min, lat_max, lon_min, lon_max = BEIJING_BBOX
    ends = {"000": ((lat_min + 0.05, lon_min + 0.05), (lat_max - 0.05, lon_max - 0.05)),
            "001": ((lat_max - 0.05, lon_min + 0.05), (lat_min + 0.05, lon_max - 0.05))}
    for user, (home, work) in ends.items():
        for day in range(5):
            for hour, (a, b) in ((8, (home, work)), (18, (work, home))):
                start = datetime(2008, 10, 20 + day, hour - 8)  # UTC; 08:00 and 18:00 in Beijing
                rows = []
                for minute in range(31):
                    f, t = minute / 30, start + timedelta(minutes=minute)
                    rows.append(f"{a[0] + f * (b[0] - a[0]):.6f},{a[1] + f * (b[1] - a[1]):.6f},0,0,0,"
                                f"{t:%Y-%m-%d},{t:%H:%M:%S}")
                write_plt(root / "Data" / user / "Trajectory" / f"{start:%Y%m%d%H%M%S}.plt", rows)
    return root


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.name)
def test_config_runs_end_to_end(path, tmp_path, monkeypatch):
    cfg = geolife_config(path.name, plt_tree(tmp_path / "geolife"), tmp_path / "out")
    ingested = []
    ingest = experiment.load_geolife_dir
    monkeypatch.setattr(experiment, "load_geolife_dir", lambda *a, **kw: ingested.append(a[1]) or ingest(*a, **kw))
    rows = run_experiment(cfg)
    assert len(rows) == SHIPPED_POINTS[str(path.relative_to(REPO))]
    assert [(r["policy"], r["topology"]) for r in rows] == \
        [(p.name, t.name) for t in cfg.topologies for p in cfg.policies]
    assert {r["clients"] for r in rows} == {2}
    assert len(ingested) == len(cfg.topologies)  # once per grid
    ingested.clear()
    assert run_experiment(cfg) == rows
    assert ingested == []  # the second run read each grid's cached visits
