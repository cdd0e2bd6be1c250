"""Application-restart prediction: how long the shutdown node's replica is
kept when a session ends.

A policy holds one restart model, chosen once from its ``startup_mode``:
none, a ``ShortPause`` window (fixed, learned from the client's pauses, or
learned per shutdown node) or a ``Plmm``, the pause-length Markov model of
history size one that predicts the startup node and the expected pause.
Both models have the same three methods: ``record`` feeds one observed
pause, ``until`` gives the deadline until which the shutdown node's replica
is kept (None keeps nothing), and ``memory_bytes`` their canonical size.
The settings are checked once, when the ``PolicyConfig`` is made.
"""
from __future__ import annotations

DEFAULT_PLMM_THRESHOLD = 1500.0  # seconds
DEFAULT_RETENTION_FACTOR = 1.5   # retained for factor x predicted pause
DEFAULT_MIN_SAMPLES = 3

FIXED = "fixed"
LEARNED = "learned"
NODE_SPECIFIC = "node_specific"
RETENTION_MODES = (FIXED, LEARNED, NODE_SPECIFIC)


class ShortPause:
    """A window after each shutdown: the fixed ``duration``, or the lower
    middle of the client's pauses (``learned``) or of the shutdown node's once
    it has ``min_samples`` of them, and the client's until then
    (``node_specific``). Without any pause the fixed duration is used. ``max``
    caps the window, and a window that is not positive keeps nothing."""

    def __init__(self, mode, duration, max=None, min_samples=DEFAULT_MIN_SAMPLES):
        self.mode = mode
        self.duration = duration
        self.max = max
        self.min_samples = min_samples
        self.pauses: list[float] = []              # the client's, in order
        self.by_node: dict[int, list[float]] = {}  # per shutdown node

    def record(self, shutdown_node, startup_node, duration):
        if self.mode != FIXED:  # a fixed window learns nothing
            self.pauses.append(duration)
            self.by_node.setdefault(shutdown_node, []).append(duration)

    def until(self, node, t) -> float | None:
        pauses = self.by_node.get(node, ()) if self.mode == NODE_SPECIFIC else ()
        if len(pauses) < self.min_samples:
            pauses = self.pauses
        window = sorted(pauses)[(len(pauses) - 1) // 2] if pauses else self.duration
        if self.max is not None:
            window = min(window, self.max)
        return t + window if window > 0 else None

    def memory_bytes(self) -> int:
        # canonical encoding: 8 bytes per duration in the client list,
        # 2 bytes per node key + 8 per duration in the per-node lists
        return 8 * len(self.pauses) + sum(2 + 8 * len(v) for v in self.by_node.values())


class Plmm:
    """Per shutdown node, how often each startup node followed it and the
    sum of those pauses. The replica is kept only when the most frequent
    startup node (ties to the smaller id) is the shutdown node and its mean
    pause is within ``threshold``, for that pause times ``factor``, which
    pads right-skewed pauses."""

    def __init__(self, threshold=DEFAULT_PLMM_THRESHOLD, factor=DEFAULT_RETENTION_FACTOR):
        self.threshold = threshold
        self.factor = factor
        self.entries: dict[int, dict[int, list]] = {}  # shutdown -> startup -> [count, pause sum]

    def record(self, shutdown_node, startup_node, duration):
        rec = self.entries.setdefault(shutdown_node, {}).setdefault(startup_node, [0, 0.0])
        rec[0] += 1
        rec[1] += duration

    def until(self, node, t) -> float | None:
        successors = self.entries.get(node)
        if not successors:
            return None
        startup = min(successors, key=lambda n: (-successors[n][0], n))
        count, pause_sum = successors[startup]
        expected = pause_sum / count
        if startup != node or expected > self.threshold:
            return None
        return t + expected * self.factor

    def memory_bytes(self) -> int:
        # 2 bytes per shutdown node + (4 id + 4 count + 8 sum) per successor
        return sum(2 + 16 * len(s) for s in self.entries.values())
