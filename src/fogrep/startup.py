"""Application-restart prediction: short-pause retention with fixed, learned
or node-specific durations, and the pause-length Markov model (history size
one) that predicts the startup node and expected pause duration.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, DataError

DEFAULT_PLMM_THRESHOLD = 1500.0  # seconds
DEFAULT_RETENTION_FACTOR = 1.5   # retained for factor x predicted pause
DEFAULT_MIN_SAMPLES = 3

FIXED = "fixed"
LEARNED = "learned"
NODE_SPECIFIC = "node_specific"
RETENTION_MODES = (FIXED, LEARNED, NODE_SPECIFIC)


class PauseStats:
    """Per-client pause durations, overall and per shutdown node."""

    def __init__(self):
        self.durations: list[float] = []
        self.by_node: dict[int, list[float]] = {}

    def add(self, node, duration):
        if duration <= 0:
            raise DataError(f"pause duration must be > 0, got {duration}")
        self.durations.append(duration)
        self.by_node.setdefault(node, []).append(duration)

    def memory_bytes(self) -> int:
        # canonical encoding: 8 bytes per duration in the client list,
        # 2 bytes per node key + 8 per duration in the per-node lists
        return 8 * len(self.durations) + sum(2 + 8 * len(v) for v in self.by_node.values())


@dataclass
class _Successor:
    count: int = 0
    pause_sum: float = 0.0


class PlmmModel:
    """shutdown node -> per startup-node transition counts and pause sums."""

    def __init__(self):
        self.entries: dict[int, dict[int, _Successor]] = {}

    def record(self, shutdown_node, startup_node, duration):
        successors = self.entries.setdefault(shutdown_node, {})
        rec = successors.get(startup_node)
        if rec is None:
            rec = successors[startup_node] = _Successor()
        rec.count += 1
        rec.pause_sum += duration

    def memory_bytes(self) -> int:
        # 2 bytes per shutdown node + (4 id + 4 count + 8 sum) per successor
        return sum(2 + 16 * len(s) for s in self.entries.values())


def record_pause(stats: PauseStats | None, plmm: PlmmModel | None,
                 shutdown_node, startup_node, duration):
    """Feed one observed pause into whichever models are in use."""
    if duration <= 0:
        raise DataError(f"pause duration must be > 0, got {duration}")
    if stats is not None:
        stats.add(shutdown_node, duration)
    if plmm is not None:
        plmm.record(shutdown_node, startup_node, duration)


def _median_lower(values):
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def median_pause(stats: PauseStats, node=None, min_samples=DEFAULT_MIN_SAMPLES):
    """Median pause duration; the node-specific list is used only when it has
    at least min_samples entries, otherwise the client-level list. Returns
    None without any data. Even-length medians take the lower middle element."""
    if min_samples < 1:
        raise ConfigError("min_samples must be >= 1")
    if node is not None:
        node_list = stats.by_node.get(node, ())
        if len(node_list) >= min_samples:
            return _median_lower(node_list)
    if stats.durations:
        return _median_lower(stats.durations)
    return None


def short_pause_retention(mode, shutdown_t, shutdown_node=None, stats=None,
                          fixed_duration=600.0, max_duration=None,
                          min_samples=DEFAULT_MIN_SAMPLES) -> float | None:
    """The deadline until which the shutdown node's replica is kept, or None
    for an empty window: the fixed duration, the client's learned median or
    the node-specific median (falling back to the fixed duration when no
    history exists), optionally capped by max_duration."""
    if mode not in RETENTION_MODES:
        raise ConfigError(f"unknown short-pause mode {mode!r}")
    duration = fixed_duration
    if mode != FIXED and stats is not None:
        learned = median_pause(stats, node=shutdown_node if mode == NODE_SPECIFIC else None,
                               min_samples=min_samples)
        if learned is not None:
            duration = learned
    if max_duration is not None:
        duration = min(duration, max_duration)
    return shutdown_t + duration if duration > 0 else None


def plmm_predict(plmm: PlmmModel, shutdown_node):
    """Most frequent startup node after shutting down here (ties to the
    smaller id) and its mean pause, or None for an unseen shutdown node."""
    successors = plmm.entries.get(shutdown_node)
    if not successors:
        return None
    node = min(successors, key=lambda n: (-successors[n].count, n))
    rec = successors[node]
    return node, rec.pause_sum / rec.count


def plmm_retention(plmm: PlmmModel, shutdown_node, shutdown_t,
                   threshold=DEFAULT_PLMM_THRESHOLD,
                   factor=DEFAULT_RETENTION_FACTOR) -> float | None:
    """The deadline until which the shutdown node's replica is kept, or None.
    It is kept only when the predicted startup node is the shutdown node and
    the expected pause is within the threshold, for that pause padded by
    ``factor`` to cover right-skewed pauses."""
    if threshold <= 0:
        raise ConfigError("pause threshold must be > 0")
    predicted = plmm_predict(plmm, shutdown_node)
    if predicted is None:
        return None
    node, expected = predicted
    if node != shutdown_node or expected > threshold:
        return None
    return shutdown_t + expected * factor
