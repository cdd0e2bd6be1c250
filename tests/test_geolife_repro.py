"""GeoLife reproduction harness.

Runs only when GEOLIFE_DATA_DIR points at a checkout of the GeoLife GPS
Trajectories 1.3 dataset (the directory containing Data/<user>/Trajectory).
Sessionization and fusion weights are underdetermined in the reference
results, so the tolerances are deliberately wide.

Node-visit ingestion is cached per topology under FOGREP_CACHE_DIR (defaults
to <GEOLIFE_DATA_DIR>/.fogrep_cache) because mapping 24M GPS points is the
slow part.
"""
import os
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from fogrep.experiment import TopologySpec
from fogrep.policies import PolicyConfig
from fogrep.simengine import run, snapshot_memory
from fogrep.startup import LEARNED, ShortPause
from fogrep.topology import FixedDelay, build_grid
from fogrep.traces import load_geolife_dir, read_visits_csv, write_visits_csv

from oracles import fold_report

GEOLIFE_DIR = os.environ.get("GEOLIFE_DATA_DIR")

pytestmark = pytest.mark.skipif(
    not GEOLIFE_DIR,
    reason="set GEOLIFE_DATA_DIR to the GeoLife dataset root to run the reproduction harness")

TZ = 8 * 3600.0
PCT = 0.01  # one percentage point


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {name}: FAIL")
        raise
    print(f"[criterion {num:02d}] {name}: PASS")


def cache_dir() -> Path:
    d = Path(os.environ.get("FOGREP_CACHE_DIR", Path(GEOLIFE_DIR) / ".fogrep_cache"))
    d.mkdir(parents=True, exist_ok=True)
    return d


_TIMELINES = {}


def timelines_for(key, topo):
    if key in _TIMELINES:
        return _TIMELINES[key]
    cache = cache_dir() / f"visits_{key}.csv"
    if cache.exists():
        with open(cache, encoding="utf-8", newline="") as fh:
            timelines = read_visits_csv(fh)
    else:
        timelines = load_geolife_dir(GEOLIFE_DIR, topo)
        with open(cache, "w", encoding="utf-8", newline="") as fh:
            write_visits_csv(timelines, fh)
    _TIMELINES[key] = timelines
    return timelines


def simple_grid(rows):
    return build_grid(rows, rows), FixedDelay(300.0)


def complex_net(rows):
    return TopologySpec("complex", kind="complex", rows=rows, cols=rows).build()


BASELINE = PolicyConfig(name="baseline", tz_offset=TZ)


def vomm(k, **kwargs):
    defaults = dict(name=f"vomm-k{k}", predictor="vomm", k=k, topn_mode="fixed",
                    topn_n=1, preload_buffer=86400.0, tz_offset=TZ)
    defaults.update(kwargs)
    return PolicyConfig(**defaults)


def fomm(**kwargs):
    defaults = dict(name="fomm", predictor="fomm", k=2, day_splits=(1, 2, 7),
                    time_splits=(1, 4, 24), eot=True, topn_mode="dynamic",
                    topn_threshold=0.9, preload_buffer=86400.0, tz_offset=TZ)
    defaults.update(kwargs)
    return PolicyConfig(**defaults)


SHORT_PAUSE = PolicyConfig(name="short-pause", startup_mode="short_pause",
                           short_pause_mode="fixed", short_pause_duration=600.0,
                           tz_offset=TZ)
COMBINATION = fomm(name="combination", startup_mode="short_pause",
                   short_pause_mode="fixed", short_pause_duration=600.0)


def run_report(timelines, topo, network, config):
    result = run(timelines, topo, network, config, record_log=False)
    memory = snapshot_memory(result.policies)
    return fold_report(result.ledger, timelines, memory_by_client=memory)


def test_criterion_9_baseline_availability():
    with criterion(9, "baseline availability on the 10x10 and 30x30 grids"):
        topo, network = simple_grid(10)
        report = run_report(timelines_for("grid10", topo), topo, network, BASELINE)
        assert report.availability == pytest.approx(0.6143, abs=3 * PCT)
        topo30, network30 = simple_grid(30)
        report30 = run_report(timelines_for("grid30", topo30), topo30, network30, BASELINE)
        assert report30.availability == pytest.approx(0.4640, abs=4 * PCT)


def test_criterion_10_vomm_metrics_and_model_size():
    with criterion(10, "plain variable-order model metrics and model size"):
        topo, network = simple_grid(10)
        timelines = timelines_for("grid10", topo)
        report = run_report(timelines, topo, network, vomm(2))
        assert report.availability == pytest.approx(0.690, abs=3 * PCT)
        assert report.excess_ratio == pytest.approx(0.548, abs=8 * PCT)
        report5 = run_report(timelines, topo, network, vomm(5))
        # same order of magnitude as 23 kB per client (within 5x either way)
        assert 23_000 / 5 <= report5.memory_avg <= 23_000 * 5


def test_criterion_11_fomm_beats_baseline_on_complex_networks():
    with criterion(11, "fusion model beats the baseline by >= 7 pts on complex networks"):
        for rows in (9, 16, 25):
            topo, network = complex_net(rows)
            timelines = timelines_for(f"grid{rows}c", topo)
            base = run_report(timelines, topo, network, BASELINE)
            pred = run_report(timelines, topo, network, fomm())
            delta = pred.availability - base.availability
            assert delta >= 7 * PCT, f"{rows * rows} nodes: delta {delta:.4f}"


def test_criterion_12_combination_improvement_band():
    with criterion(12, "combined policy improves availability by 16-21 (+-4) pts"):
        for key, (topo, network) in (("grid10", simple_grid(10)),
                                     ("grid25c", complex_net(25))):
            timelines = timelines_for(key, topo)
            base = run_report(timelines, topo, network, BASELINE)
            combo = run_report(timelines, topo, network, COMBINATION)
            delta = combo.availability - base.availability
            assert (16 - 4) * PCT <= delta <= (21 + 4) * PCT, f"{key}: delta {delta:.4f}"


def test_criterion_13_short_pause_and_median():
    with criterion(13, "fixed 10-minute retention metrics and the median pause"):
        topo, network = simple_grid(10)
        timelines = timelines_for("grid10", topo)
        report = run_report(timelines, topo, network, SHORT_PAUSE)
        assert report.availability == pytest.approx(0.7198, abs=3 * PCT)
        assert report.excess_ratio == pytest.approx(0.4610, abs=8 * PCT)
        pauses = ShortPause(LEARNED, 0.0)  # a learned window is the lower median pause
        for tl in timelines:
            for pause in tl.pauses:
                pauses.record(pause.node, None, pause.duration)
        assert pauses.until(None, 0.0) == pytest.approx(595.0, abs=60.0)


def test_criterion_14_sweep_performance():
    with criterion(14, "one-policy sweep on the 100-node network in under 5 minutes"):
        topo, network = simple_grid(10)
        timelines = timelines_for("grid10", topo)
        start = time.monotonic()
        run_report(timelines, topo, network, vomm(2))
        elapsed = time.monotonic() - start
        assert elapsed <= 300.0, f"sweep took {elapsed:.1f} s"
