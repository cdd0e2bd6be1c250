"""Discrete-event engine: replays client timelines against a topology,
executes policy actions, models transfers, and records the replica ledger.

Events are processed in non-decreasing time; ties break by kind (transfer
starts, then transfer completions, arrivals, session starts, session ends,
retention expiries), then client id, then insertion order. A preloaded
transfer completing exactly at the arrival it targets therefore counts as
available.

Scheduled events are invalidated by their unique id, not by a per-(client,
node) generation counter, and are never removed from the heap: a replica's
state keeps the id of the one event that may still act on it, and any other
event for that replica, or for one that is gone, is stale. So only live
replicas (pending, in flight, present or retained) have a state.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import ConfigError, EngineInvariantError
from .policies import (Delete, PolicyConfig, Replicate, ReplicaPolicy,
                       ReplicaView, Retain, make_policy)
from .topology import (FixedDelay, FlowGraph, Topology, transfer_source,
                       transfer_time)

# event kinds, in tie-break order
TRANSFER_START = 0
TRANSFER_COMPLETE = 1
ARRIVAL = 2
SESSION_START = 3
SESSION_END = 4
RETENTION_EXPIRE = 5

KIND_NAMES = {
    TRANSFER_START: "TransferStart",
    TRANSFER_COMPLETE: "TransferComplete",
    ARRIVAL: "Arrival",
    SESSION_START: "SessionStart",
    SESSION_END: "SessionEnd",
    RETENTION_EXPIRE: "RetentionExpire",
}

# status of a live replica per (client, node); an absent one has no state
_PENDING = 0
_IN_FLIGHT = 1
_PRESENT = 2
_RETAINED = 3


class ReplicaLedger:
    """Per (client, node): sorted disjoint presence intervals [from, to)."""

    def __init__(self):
        self._intervals: dict[tuple[str, int], list[tuple[float, float]]] = {}

    def add(self, client, node, start, end):
        if end <= start:
            return
        self._intervals.setdefault((client, node), []).append((start, end))

    def intervals(self, client, node) -> list[tuple[float, float]]:
        return self._intervals.get((client, node), [])

    def nodes(self, client) -> list[int]:
        return sorted(n for c, n in self._intervals if c == client)

    def items(self):
        return self._intervals.items()

    def validate(self):
        for (c, n), ivs in self._intervals.items():
            for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
                if a2 < b1:
                    raise EngineInvariantError(f"overlapping intervals for ({c}, {n})")
            for a, b in ivs:
                if b <= a:
                    raise EngineInvariantError(f"empty interval for ({c}, {n})")

    def __eq__(self, other):
        return isinstance(other, ReplicaLedger) and self._intervals == other._intervals


@dataclass
class EventRecord:
    t: float
    client: str
    kind: str
    node: int


@dataclass
class RunResult:
    ledger: ReplicaLedger
    event_log: list[EventRecord]
    policies: dict[str, ReplicaPolicy]


class _NodeState:
    """One live replica: a transfer pending or in flight, or a copy present
    or retained. ``event`` is the id of the one scheduled event that may still
    act on it, or None."""
    __slots__ = ("status", "event", "open_since", "retained_until", "pending_start")

    def __init__(self):
        self.status = _PENDING
        self.event = None
        self.open_since = 0.0
        self.retained_until = None
        self.pending_start = 0.0


class _View(ReplicaView):
    def __init__(self, client_states):
        self._client_states = client_states

    def present(self, node) -> bool:
        st = self._client_states.get(node)
        return st is not None and st.status in (_PRESENT, _RETAINED)

    def tracked(self):
        return list(self._client_states)


class SimulationEngine:
    def __init__(self, timelines, topology: Topology, network, policy_config: PolicyConfig,
                 record_log=True):
        if not isinstance(network, (FixedDelay, FlowGraph)):
            raise ConfigError(f"unknown network model {network!r}")
        self.topology = topology
        self.network = network
        self.timelines = sorted(timelines, key=lambda tl: tl.client_id)
        self._edge_ids = {n.id for n in topology.edge_nodes}
        self._source = transfer_source(network, topology)
        self.record_log = record_log
        self._horizons: dict[str, float] = {}
        for tl in self.timelines:
            if not tl.sessions:
                raise ConfigError(f"client {tl.client_id}: empty timeline")
            if tl.client_id in self._horizons:
                raise ConfigError(f"client {tl.client_id}: duplicate client id")
            self._horizons[tl.client_id] = tl.last_t
            for visits in tl.sessions:
                for v in visits:
                    if v.node not in self._edge_ids:
                        raise ConfigError(f"client {tl.client_id}: unknown node id {v.node}")
        self.policies: dict[str, ReplicaPolicy] = {
            tl.client_id: make_policy(policy_config, self._ttime) for tl in self.timelines}
        self._states: dict[str, dict[int, _NodeState]] = {
            tl.client_id: {} for tl in self.timelines}
        self._heap: list = []
        self._seq = 0
        self.ledger = ReplicaLedger()
        self.event_log: list[EventRecord] = []

    def _ttime(self, dst) -> float:
        return transfer_time(self._source, dst, self.network)

    def _push(self, t, kind, client, node) -> int:
        """Schedule an event; returns its id."""
        self._seq += 1
        heapq.heappush(self._heap, (t, kind, client, self._seq, node))
        return self._seq

    def _close(self, client, node, t):
        """Drop a replica; a present or retained copy leaves its presence interval."""
        st = self._states[client].pop(node)
        if st.status in (_PRESENT, _RETAINED):
            self.ledger.add(client, node, st.open_since, t)

    def run(self) -> RunResult:
        for tl in self.timelines:
            for visits in tl.sessions:
                self._push(visits[0].arrival, SESSION_START, tl.client_id, visits[0].node)
                for v in visits[1:]:
                    self._push(v.arrival, ARRIVAL, tl.client_id, v.node)
                self._push(visits[-1].departure, SESSION_END, tl.client_id, visits[-1].node)
        last_t = float("-inf")
        while self._heap:
            t, kind, client, seq, node = heapq.heappop(self._heap)
            if t < last_t:
                raise EngineInvariantError(f"event time regression: {t} after {last_t}")
            last_t = t
            if t > self._horizons[client]:
                continue
            if not self._dispatch(t, kind, client, node, seq):
                continue
            if self.record_log:
                self.event_log.append(EventRecord(t, client, KIND_NAMES[kind], node))
        self._finalize()
        return RunResult(self.ledger, self.event_log, self.policies)

    def _dispatch(self, t, kind, client, node, seq) -> bool:
        """Returns False for stale (cancelled) events."""
        states = self._states[client]
        st = states.get(node)
        if kind in (TRANSFER_START, TRANSFER_COMPLETE, RETENTION_EXPIRE):
            if st is None or st.event != seq:
                return False
            if kind == TRANSFER_START:
                st.status = _IN_FLIGHT
                st.event = self._push(t + self._ttime(node), TRANSFER_COMPLETE, client, node)
            elif kind == RETENTION_EXPIRE:
                self._close(client, node, t)
            elif st.retained_until is None:
                st.status = _PRESENT
                st.open_since = t
                st.event = None
            elif st.retained_until <= t:
                # retention was granted while the transfer was in flight
                self._close(client, node, t)
            else:
                st.status = _RETAINED
                st.open_since = t
                st.event = self._push(st.retained_until, RETENTION_EXPIRE, client, node)
            return True
        # timeline events
        if st is not None and st.status == _RETAINED:
            # the client is back at a retained node: presence continues
            st.status = _PRESENT
            st.retained_until = None
            st.event = None
        elif st is not None and st.status == _IN_FLIGHT:
            st.retained_until = None
        policy = self.policies[client]
        view = _View(states)
        if kind == SESSION_START:
            actions = policy.on_session_start(node, t, view)
        elif kind == ARRIVAL:
            actions = policy.on_arrival(node, t, view)
        elif kind == SESSION_END:
            actions = policy.on_session_end(node, t, view)
        else:
            raise EngineInvariantError(f"unknown event kind {kind}")
        for action in actions:
            self._apply(t, client, action)
        return True

    def _apply(self, now, client, action):
        node = action.node
        if node not in self._edge_ids:
            raise ConfigError(f"action references unknown node id {node}")
        states = self._states[client]
        st = states.get(node)
        if isinstance(action, Replicate):
            at = action.at
            if at < now:
                raise EngineInvariantError(f"replicate scheduled in the past: {at} < {now}")
            if st is None:
                st = states[node] = _NodeState()
            elif st.status != _PENDING or at == st.pending_start:
                return  # a copy is there or on its way, or this start is planned already
            st.pending_start = at
            st.event = self._push(at, TRANSFER_START, client, node)
        elif isinstance(action, Delete):
            if st is not None:
                self._close(client, node, now)
        elif isinstance(action, Retain):
            if st is None:
                return
            if action.until <= now or st.status == _PENDING:
                self._close(client, node, now)
            elif st.status == _IN_FLIGHT:
                # let the paid-for transfer finish into the retained state
                st.retained_until = action.until
            else:
                st.status = _RETAINED
                st.retained_until = action.until
                st.event = self._push(action.until, RETENTION_EXPIRE, client, node)
        else:
            raise EngineInvariantError(f"unknown action {action!r}")

    def _finalize(self):
        for client in sorted(self._states):
            for node in sorted(self._states[client]):
                self._close(client, node, self._horizons[client])
        self.ledger.validate()


def run(timelines, topology, network, policy_config, record_log=True) -> RunResult:
    """Simulate the timelines under one policy configuration."""
    return SimulationEngine(timelines, topology, network, policy_config, record_log=record_log).run()


def snapshot_memory(policies: dict[str, ReplicaPolicy]) -> dict[str, int]:
    """Per-client model bytes at the end of a run."""
    return {cid: policy.memory_bytes() for cid, policy in sorted(policies.items())}


def write_event_log_csv(event_log, fileobj):
    """Debugging/oracle-comparison dump of the processed events."""
    fileobj.write("t,client,kind,node\n")
    for e in event_log:
        fileobj.write(f"{e.t!r},{e.client},{e.kind},{e.node}\n")
