"""Replica-placement decisions, one policy instance per client.

Each handler returns the replicas its client should hold from that event on.
The engine (``fogrep.simengine``) alone owns replica state: it drops the live
replicas the list leaves out and keeps retention deadlines, so a decision
reads the client's timeline only. A policy holds at most two models, both
chosen once from its config: a next-node predictor (fixed/variable-order or
fusion, with optional end-of-trip handling, top-N selection and preload-buffer
timing) that adds targets at arrivals, and a restart model (``fogrep.startup``:
a short-pause window or the pause-length model) that keeps the copy at a
session end. The reactive baseline has neither, and the combined policy both.
``PolicyConfig`` checks every setting when it is made, so the models built
from it take their settings as given.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError
from .markov import EOT, KINDS, check_kind, dynamic_topn, make_model
from .startup import (DEFAULT_MIN_SAMPLES, DEFAULT_PLMM_THRESHOLD,
                      DEFAULT_RETENTION_FACTOR, FIXED, RETENTION_MODES, Plmm,
                      ShortPause)

PREDICTORS = ("baseline", *KINDS)
STARTUP_MODES = ("none", "short_pause", "plmm")

IMMEDIATE_BUFFER = math.inf  # larger than any stay: replicate right away


@dataclass(frozen=True)
class Replicate:
    node: int
    at: float  # transfer start time


@dataclass(frozen=True)
class Retain:
    node: int
    until: float


PlacementAction = Replicate | Retain


@dataclass(frozen=True)
class PolicyConfig:
    name: str = "baseline"
    predictor: str = "baseline"
    k: int = 2
    day_splits: tuple[int, ...] = (1,)
    time_splits: tuple[int, ...] = (1,)
    eot: bool = False
    topn_mode: str = "fixed"          # fixed | dynamic
    topn_n: int = 1
    topn_threshold: float = 0.9
    topn_include_eot: bool = True
    preload_buffer: float = IMMEDIATE_BUFFER  # seconds of lead time
    startup_mode: str = "none"        # none | short_pause | plmm
    short_pause_mode: str = FIXED
    short_pause_duration: float = 600.0
    short_pause_max: float | None = None
    plmm_threshold: float = DEFAULT_PLMM_THRESHOLD
    retention_factor: float = DEFAULT_RETENTION_FACTOR
    min_samples: int = DEFAULT_MIN_SAMPLES
    tz_offset: float = 0.0            # local time of the trace; set from trace.tz_offset

    def __post_init__(self):
        if self.predictor not in PREDICTORS:
            raise ConfigError(f"predictor: unknown predictor {self.predictor!r}; expected one of {PREDICTORS}")
        if self.predictor != "baseline":
            check_kind(self.predictor, self.k, self.day_splits, self.time_splits)
        if self.topn_mode not in ("fixed", "dynamic"):
            raise ConfigError(f"topn.type: unknown mode {self.topn_mode!r}")
        if self.topn_mode == "dynamic" and not 0.0 < self.topn_threshold <= 1.0:
            raise ConfigError(f"topn.threshold: must be in (0, 1], got {self.topn_threshold}")
        if self.topn_mode == "fixed" and self.topn_n < 1:
            raise ConfigError("topn.n: must be >= 1")
        if self.startup_mode not in STARTUP_MODES:
            raise ConfigError(f"startup.type: unknown mode {self.startup_mode!r}; expected one of {STARTUP_MODES}")
        if self.startup_mode == "short_pause" and self.short_pause_mode not in RETENTION_MODES:
            raise ConfigError(f"startup.mode: unknown short-pause mode {self.short_pause_mode!r}")
        if not self.short_pause_duration >= 0:
            raise ConfigError(f"startup.duration: must be >= 0, got {self.short_pause_duration}")
        if self.short_pause_max is not None and not self.short_pause_max >= 0:
            raise ConfigError(f"startup.max: must be >= 0, got {self.short_pause_max}")
        if not self.plmm_threshold > 0:
            raise ConfigError(f"startup.threshold: must be > 0, got {self.plmm_threshold}")
        if not self.retention_factor > 0:
            raise ConfigError(f"startup.factor: must be > 0, got {self.retention_factor}")
        if self.min_samples < 1:
            raise ConfigError(f"startup.min_samples: must be >= 1, got {self.min_samples}")
        if self.preload_buffer < 0:
            raise ConfigError("preload_buffer: must be >= 0")


class ReplicaPolicy:
    """Per-client decision state; driven by the simulation event loop.

    A session start or an arrival returns a ``Replicate`` of the current node
    and of each chosen target, planned from its prediction's expected stay:
    the first ``n`` ranked predictions for a fixed top-N, ``dynamic_topn``'s
    prefix for a dynamic one, and no target when end of trip ranks first. A
    session end returns ``[Retain(node, until)]`` when the restart model
    keeps the copy, else ``[]``. Whether a wanted copy is present, on its way
    or retained is the engine's concern (``fogrep.simengine``, where D4's
    mend goes). The policy tracks the trip's node ids and the stay at each
    node it has left; the predictor trains on them at the session end.
    """

    def __init__(self, config: PolicyConfig, transfer_estimate):
        self.config = config
        self.transfer_estimate = transfer_estimate  # seconds to move the data set to a node
        self.predictor = None if config.predictor == "baseline" else make_model(
            config.predictor, config.k, config.day_splits, config.time_splits,
            eot=config.eot, tz_offset=config.tz_offset)
        self.restart: ShortPause | Plmm | None = None
        if config.startup_mode == "short_pause":
            self.restart = ShortPause(config.short_pause_mode, config.short_pause_duration,
                                      config.short_pause_max, config.min_samples)
        elif config.startup_mode == "plmm":
            self.restart = Plmm(config.plmm_threshold, config.retention_factor)
        self.trip_start: float | None = None
        self.trip_nodes: list[int] = []
        self.trip_stays: list[float] = []  # seconds at each trip node before the next
        self._arrived: float | None = None  # arrival time at the trip's last node
        self.last_shutdown: tuple[int, float] | None = None

    # -- event handlers ------------------------------------------------------

    def on_session_start(self, node, t) -> list[PlacementAction]:
        if self.restart is not None and self.last_shutdown is not None and t > self.last_shutdown[1]:
            shutdown_node, end_t = self.last_shutdown
            self.restart.record(shutdown_node, node, t - end_t)
        self.trip_start = t
        self.trip_nodes = [node]
        self.trip_stays = []
        self._arrived = t
        return self._arrival_actions(node, t)

    def on_arrival(self, node, t) -> list[PlacementAction]:
        self.trip_stays.append(t - self._arrived)
        self._arrived = t
        self.trip_nodes.append(node)
        return self._arrival_actions(node, t)

    def on_session_end(self, node, t) -> list[PlacementAction]:
        until = None if self.restart is None else self.restart.until(node, t)
        if self.predictor is not None:
            self.predictor.train_session(self.trip_nodes, self.trip_stays, self.trip_start)
        self.last_shutdown = (node, t)
        self.trip_start = None
        self.trip_nodes = []
        self.trip_stays = []
        return [Retain(node, until)] if until is not None and until > t else []

    # -- internals -----------------------------------------------------------

    def _arrival_actions(self, node, t) -> list[PlacementAction]:
        actions: list[PlacementAction] = [Replicate(node, t)]
        preds = None if self.predictor is None else self.predictor.predict(self.trip_nodes, self.trip_start)
        if not preds:
            return actions
        cfg = self.config
        chosen = (dynamic_topn(preds, cfg.topn_threshold, cfg.topn_include_eot) if cfg.topn_mode == "dynamic"
                  else preds[:cfg.topn_n])
        if chosen[0].target == EOT:
            return actions  # a predicted trip end schedules nothing at all
        for target, _, stay in chosen:
            if target not in (node, EOT):
                at = t if stay is None else max(t, t + stay - self.transfer_estimate(target) - cfg.preload_buffer)
                actions.append(Replicate(target, at))
        return actions

    def memory_bytes(self) -> int:
        return sum(model.memory_bytes() for model in (self.predictor, self.restart)
                   if model is not None)
