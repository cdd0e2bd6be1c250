"""GeoLife reproduction harness.

Runs only when GEOLIFE_DATA_DIR points at a checkout of the GeoLife GPS
Trajectories 1.3 dataset (the directory containing Data/<user>/Trajectory).
Sessionization and fusion weights are underdetermined in the reference
results, so the tolerances are deliberately wide.

Each criterion runs a shipped config of configs/geolife/ as `fogrep run`
does, with its trace path set to GEOLIFE_DATA_DIR, and reads the result rows
of the points it names (policy on topology):

- 9: networks.yaml, baseline on simple-100 and on simple-900;
- 10: preload_buffers.yaml, vomm-k2-buf24h and vomm-k5-buf24h on simple-100;
- 11: networks.yaml, baseline and fomm on complex-81, complex-256 and
  complex-625;
- 12: combination.yaml, baseline and combination on simple-100 and on
  complex-625;
- 13: combination.yaml, short-pause-10m on simple-100, and the median pause
  of the simple-100 timelines;
- 14: preload_buffers.yaml with vomm-k2-buf24h alone, timed.

Every config writes its outputs to FOGREP_CACHE_DIR (defaults to
<GEOLIFE_DATA_DIR>/.fogrep_cache), and so does each run's node-visit cache
(``visits_<topology>_<key>.csv``): mapping 24M GPS points is the slow part,
and the configs share their trace and topology names, so each grid is
ingested once.
"""
import dataclasses
import functools
import os
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from fogrep.experiment import load_experiment_config, load_traces, run_experiment
from fogrep.startup import LEARNED, ShortPause

GEOLIFE_DIR = os.environ.get("GEOLIFE_DATA_DIR")
CONFIGS = Path(__file__).resolve().parent.parent / "configs" / "geolife"

pytestmark = pytest.mark.skipif(
    not GEOLIFE_DIR,
    reason="set GEOLIFE_DATA_DIR to the GeoLife dataset root to run the reproduction harness")

PCT = 0.01  # one percentage point


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {name}: FAIL")
        raise
    print(f"[criterion {num:02d}] {name}: PASS")


def geolife_config(name, root, output):
    """configs/geolife/<name> as `fogrep run` loads it, with its trace read
    from the GeoLife root ``root`` and its outputs written to ``output``."""
    cfg = load_experiment_config(CONFIGS / name)
    return dataclasses.replace(cfg, trace=dataclasses.replace(cfg.trace, path=Path(root)), output=Path(output))


def dataset_config(name):
    """configs/geolife/<name> on the dataset, writing to the cache directory."""
    return geolife_config(name, GEOLIFE_DIR,
                          os.environ.get("FOGREP_CACHE_DIR", Path(GEOLIFE_DIR) / ".fogrep_cache"))


@functools.cache
def results(name):
    """The result rows of one run of configs/geolife/<name>, by (policy, topology)."""
    return {(row["policy"], row["topology"]): row for row in run_experiment(dataset_config(name))}


def test_criterion_9_baseline_availability():
    with criterion(9, "baseline availability on the 10x10 and 30x30 grids"):
        rows = results("networks.yaml")
        assert rows["baseline", "simple-100"]["availability"] == pytest.approx(0.6143, abs=3 * PCT)
        assert rows["baseline", "simple-900"]["availability"] == pytest.approx(0.4640, abs=4 * PCT)


def test_criterion_10_vomm_metrics_and_model_size():
    with criterion(10, "plain variable-order model metrics and model size"):
        rows = results("preload_buffers.yaml")
        k2 = rows["vomm-k2-buf24h", "simple-100"]
        assert k2["availability"] == pytest.approx(0.690, abs=3 * PCT)
        assert k2["excess_ratio"] == pytest.approx(0.548, abs=8 * PCT)
        # same order of magnitude as 23 kB per client (within 5x either way)
        assert 23_000 / 5 <= rows["vomm-k5-buf24h", "simple-100"]["memory_avg_bytes"] <= 23_000 * 5


def test_criterion_11_fomm_beats_baseline_on_complex_networks():
    with criterion(11, "fusion model beats the baseline by >= 7 pts on complex networks"):
        rows = results("networks.yaml")
        for topology in ("complex-81", "complex-256", "complex-625"):
            delta = rows["fomm", topology]["availability"] - rows["baseline", topology]["availability"]
            assert delta >= 7 * PCT, f"{topology}: delta {delta:.4f}"


def test_criterion_12_combination_improvement_band():
    with criterion(12, "combined policy improves availability by 16-21 (+-4) pts"):
        rows = results("combination.yaml")
        for topology in ("simple-100", "complex-625"):
            delta = rows["combination", topology]["availability"] - rows["baseline", topology]["availability"]
            assert (16 - 4) * PCT <= delta <= (21 + 4) * PCT, f"{topology}: delta {delta:.4f}"


def test_criterion_13_short_pause_and_median():
    with criterion(13, "fixed 10-minute retention metrics and the median pause"):
        row = results("combination.yaml")["short-pause-10m", "simple-100"]
        assert row["availability"] == pytest.approx(0.7198, abs=3 * PCT)
        assert row["excess_ratio"] == pytest.approx(0.4610, abs=8 * PCT)
        cfg = dataset_config("combination.yaml")
        spec = next(t for t in cfg.topologies if t.name == "simple-100")
        pauses = ShortPause(LEARNED, 0.0)  # a learned window is the lower median pause
        for tl in load_traces(cfg, spec.build()[0], spec.name):
            for before, after in zip(tl.sessions, tl.sessions[1:]):
                pauses.record(before[-1].node, None, after[0].arrival - before[-1].departure)
        assert pauses.until(None, 0.0) == pytest.approx(595.0, abs=60.0)


def test_criterion_14_sweep_performance():
    with criterion(14, "one-policy sweep on the 100-node network in under 5 minutes"):
        cfg = dataset_config("preload_buffers.yaml")
        cfg.policies = [p for p in cfg.policies if p.name == "vomm-k2-buf24h"]
        load_traces(cfg, cfg.topologies[0].build()[0], cfg.topologies[0].name)  # ingest outside the timing
        start = time.monotonic()
        run_experiment(cfg)
        elapsed = time.monotonic() - start
        assert elapsed <= 300.0, f"sweep took {elapsed:.1f} s"
