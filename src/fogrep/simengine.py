"""Discrete-event engine: replays client timelines against a topology,
executes policy actions, models transfers, and records the replica ledger,
(client, node) -> that replica's sorted, disjoint presence intervals [from, to).

Clients never interact (each has its own policy and replicas, and every
transfer takes its network's fixed time), so each client runs its own event
loop. Its events are processed in non-decreasing time; ties break by kind
(transfer starts, then transfer completions, arrivals, session starts, session
ends, retention expiries), then scheduling order. A preloaded transfer
completing exactly at the arrival it targets therefore counts as available.

The loop walks the client's timeline (session starts, arrivals, session ends)
in its own order, so a zero-length first visit's session start comes before
the next visit's arrival at the same time, where the tie order of kinds would
not. At each of these events the client's policy returns the replicas it
wants (see ``ReplicaPolicy``); the engine drops every live replica the list
does not name, in node order, and then applies the list. Only live replicas
(a transfer pending or in flight, or a copy present) have a state, and each
holds its one next scheduled event: a transfer start, completion or retention
expiry. Before each timeline event, and at the end up to the horizon, the
loop runs the smallest of these events that comes before it in the tie order,
again and again, since each may schedule another. Planning a replica again
replaces its event, and dropping it removes it. Retention is engine state: a
retained replica is one with a deadline. A present copy waits for its expiry,
an in-flight one keeps the deadline until it completes, and the client's
return to the node drops it, but a later event that wants the copy does not
(ROADMAP's D4; its mend clears the deadline in ``_apply``'s ``Replicate``).

The global event log merges the clients' logs by taking the smallest next
event by (time, kind, client) each time. That replays one queue shared by all
clients; a sort would not (see ``merge_event_logs``).
"""
from __future__ import annotations

import csv
import heapq
import itertools
from dataclasses import dataclass

from .errors import ConfigError, EngineInvariantError
from .policies import PolicyConfig, Replicate, ReplicaPolicy, Retain
from .topology import FixedDelay, Topology, transfer_time

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
_KIND_ORDER = {name: kind for kind, name in KIND_NAMES.items()}

# status of a live replica per node; an absent one has no state
_PENDING = 0
_IN_FLIGHT = 1
_PRESENT = 2


@dataclass
class EventRecord:
    t: float
    client: str
    kind: str
    node: int


@dataclass
class RunResult:
    ledger: dict[tuple[str, int], list[tuple[float, float]]]
    event_log: list[EventRecord]
    policies: dict[str, ReplicaPolicy]


class _NodeState:
    """One live replica: a transfer pending or in flight, or a copy present.
    ``next`` is its one scheduled event, (time, kind, scheduling order), or
    None; ``retained_until`` is the retention deadline, or None."""
    __slots__ = ("status", "next", "open_since", "retained_until")

    def __init__(self):
        self.status = _PENDING
        self.next = None
        self.open_since = 0.0
        self.retained_until = None


class _ClientRun:
    """One client's event loop and the only owner of its replicas."""

    def __init__(self, timeline, policy, network, ledger, record_log):
        self.client = timeline.client_id
        self.timeline = timeline
        self.policy = policy
        self._network = network
        self._ledger = ledger
        self.log: list[EventRecord] | None = [] if record_log else None
        self._states: dict[int, _NodeState] = {}
        self._order = itertools.count()  # scheduling order

    def _close(self, node, t):
        """Drop a replica; a present copy leaves its presence interval."""
        st = self._states.pop(node)
        if st.status == _PRESENT and t > st.open_since:
            self._ledger.setdefault((self.client, node), []).append((st.open_since, t))

    def _timeline_events(self):
        """(time, kind, node) of each session start, arrival and session end, in timeline order."""
        for visits in self.timeline.sessions:
            yield visits[0].arrival, SESSION_START, visits[0].node
            for v in visits[1:]:
                yield v.arrival, ARRIVAL, v.node
            yield visits[-1].departure, SESSION_END, visits[-1].node

    def run(self):
        policy = self.policy
        handlers = {SESSION_START: policy.on_session_start, ARRIVAL: policy.on_arrival,
                    SESSION_END: policy.on_session_end}
        for t, kind, node in self._timeline_events():
            self._run_scheduled(t, kind)
            st = self._states.get(node)
            if st is not None:  # the client is back, so a retention ends
                st.retained_until = None
                if st.status == _PRESENT:
                    st.next = None  # and so does its expiry
            actions = handlers[kind](node, t)
            for other in sorted(self._states.keys() - {action.node for action in actions}):
                self._close(other, t)
            for action in actions:
                self._apply(t, action)
            if self.log is not None:
                self.log.append(EventRecord(t, self.client, KIND_NAMES[kind], node))
        horizon = self.timeline.last_t
        self._run_scheduled(horizon, RETENTION_EXPIRE + 1)  # every event up to the horizon, of any kind
        for node in sorted(self._states):
            self._close(node, horizon)

    def _run_scheduled(self, t, kind):
        """Run, smallest first, every scheduled event that comes before (t, kind)."""
        states = self._states
        while True:
            first, node = (t, kind), None
            for n, st in states.items():
                if st.next is not None and st.next < first:
                    first, node = st.next, n
            if node is None:
                return
            st = states[node]
            at, event, _ = first
            st.next = None
            until = st.retained_until
            if event == TRANSFER_START:
                st.status = _IN_FLIGHT
                # transfer_time is looked up at each start, so a proxy of it counts transfers started
                st.next = (at + transfer_time(node, self._network), TRANSFER_COMPLETE, next(self._order))
            elif event == RETENTION_EXPIRE or (until is not None and until <= at):
                # an expiry, or a completion after the retention granted in flight
                self._close(node, at)
            else:
                st.status = _PRESENT
                st.open_since = at
                if until is not None:
                    st.next = (until, RETENTION_EXPIRE, next(self._order))
            if self.log is not None:
                self.log.append(EventRecord(at, self.client, KIND_NAMES[event], node))

    def _apply(self, now, action):
        node = action.node
        st = self._states.get(node)
        if isinstance(action, Replicate):
            at = action.at
            if at < now:
                raise EngineInvariantError(f"replicate scheduled in the past: {at} < {now}")
            if st is None:
                st = self._states[node] = _NodeState()
            elif st.status != _PENDING or at == st.next[0]:
                return  # a copy is there or on its way, or this start is planned already
            st.next = (at, TRANSFER_START, next(self._order))
        elif isinstance(action, Retain):
            # the policy retains only the copy its visit started, and only until a later time
            if st is None or st.status == _PENDING or action.until <= now:
                raise EngineInvariantError(f"cannot retain node {node} until {action.until} at {now}")
            # an in-flight transfer is paid for: it finishes into the retention
            st.retained_until = action.until
            if st.status == _PRESENT:
                st.next = (action.until, RETENTION_EXPIRE, next(self._order))
        else:
            raise EngineInvariantError(f"unknown action {action!r}")


def run(timelines, topology: Topology, network: FixedDelay, policy_config: PolicyConfig,
        record_log=True) -> RunResult:
    """Simulate the timelines under one policy configuration, one client at a time."""
    node_ids = range(topology.node_count)
    runs: dict[str, _ClientRun] = {}
    ledger = {}
    for tl in sorted(timelines, key=lambda tl: tl.client_id):
        if not tl.sessions:
            raise ConfigError(f"client {tl.client_id}: empty timeline")
        if tl.client_id in runs:
            raise ConfigError(f"client {tl.client_id}: duplicate client id")
        for visits in tl.sessions:
            for v in visits:
                if v.node not in node_ids:
                    raise ConfigError(f"client {tl.client_id}: unknown node id {v.node}")
        policy = ReplicaPolicy(policy_config, network.delay)
        runs[tl.client_id] = _ClientRun(tl, policy, network, ledger, record_log)
    for client_run in runs.values():
        client_run.run()
    check_ledger(ledger)
    return RunResult(ledger, merge_event_logs(r.log or () for r in runs.values()),
                     {cid: r.policy for cid, r in runs.items()})


def check_ledger(ledger):
    """The engine's invariant: each replica's presence intervals are non-empty, sorted and disjoint."""
    for (client, node), ivs in ledger.items():
        if any(b <= a for a, b in ivs) or any(a2 < b1 for (_, b1), (a2, _) in zip(ivs, ivs[1:])):
            raise EngineInvariantError(f"empty or overlapping intervals for ({client}, {node})")


def merge_event_logs(logs) -> list[EventRecord]:
    """One event log from per-client logs, each in its client's processing
    order, by taking the smallest next event of any client by (time, kind,
    client) each time, with the kind's tie order, not its name's.

    That replays the one shared queue: a client's next event depends only on
    its own past, and an event past its horizon is neither run nor logged. A sort by the same key would not: it puts the transfer
    start that a session start schedules for the same time before that
    session start."""
    return list(heapq.merge(*logs, key=lambda e: (e.t, _KIND_ORDER[e.kind], e.client)))


def snapshot_memory(policies: dict[str, ReplicaPolicy]) -> dict[str, int]:
    """Per-client model bytes at the end of a run."""
    return {cid: policy.memory_bytes() for cid, policy in sorted(policies.items())}


def write_event_log_csv(event_log, fileobj):
    """Debugging/oracle-comparison dump of the processed events."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(("t", "client", "kind", "node"))
    writer.writerows((repr(e.t), e.client, e.kind, e.node) for e in event_log)
