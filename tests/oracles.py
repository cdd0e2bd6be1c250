"""Independent oracles for the simulation engine, the interval metrics,
flow transfer paths and GeoLife ingestion.

The engine oracle re-runs a scenario as a naive per-second state machine (no
event queue), sharing only the policy layer with the real engine. The metrics
oracle counts seconds. Both require every timestamp in a scenario to be an
integer, which the micro-scenario generators guarantee: the stay at a node
(or at a node before a given next node) and the pause after it are constant
(so learned means stay integral) and pause durations are even (so padded
retention windows stay integral). The series oracle recomputes the active and
covered time from scratch at every bucket boundary, and the overlap oracle
scans every interval of a (client, node) pair. The path oracle runs one
breadth-first search from each destination and walks the smallest-id
neighbour one hop closer at each step. The ingest oracle handles one point
at a time: the row-by-row PLT parser, a loop over sorted points for the
sessions and a scan over every node for each point.
"""
import random
from collections import deque
from pathlib import Path

from fogrep.errors import ConfigError, TopologyError
from fogrep.metrics import active_time, covered_time
from fogrep.policies import Delete, PolicyConfig, Replicate, ReplicaPolicy, Retain
from fogrep.simengine import ReplicaLedger
from fogrep.topology import FixedDelay, Topology, build_grid, transfer_time
from fogrep.traces import ClientTimeline, NodeVisit, Pause, parse_plt_rows

_START, _ARRIVE, _END = 3, 2, 4  # same tie ranks as the engine


class _SetView:
    def __init__(self, pending, inflight, present, retained):
        self._pending = pending
        self._inflight = inflight
        self._present = present
        self._retained = retained

    def present(self, node):
        return node in self._present or node in self._retained

    def tracked(self):
        return sorted(set(self._pending) | set(self._inflight)
                      | set(self._present) | set(self._retained))


def brute_force_run(timelines, topology, network, config: PolicyConfig) -> ReplicaLedger:
    def ttime(dst):
        return transfer_time(dst, network)

    ledger = ReplicaLedger()
    for tl in timelines:
        policy = ReplicaPolicy(config, ttime)
        pending: dict[int, float] = {}
        inflight: dict[int, list] = {}   # node -> [complete_t, retained_until|None]
        present: dict[int, float] = {}   # node -> open_since
        retained: dict[int, tuple] = {}  # node -> (open_since, until)
        view = _SetView(pending, inflight, present, retained)

        def close(node, t):
            if node in present:
                ledger.add(tl.client_id, node, present.pop(node), t)
            elif node in retained:
                open_since, _ = retained.pop(node)
                ledger.add(tl.client_id, node, open_since, t)

        def apply(action, now):
            node = action.node
            if isinstance(action, Replicate):
                assert action.at == int(action.at), "oracle needs integer times"
                if node in present or node in retained or node in inflight:
                    return
                if action.at <= now:
                    pending.pop(node, None)
                    inflight[node] = [now + ttime(node), None]
                else:
                    pending[node] = action.at
            elif isinstance(action, Delete):
                close(node, now)
                pending.pop(node, None)
                inflight.pop(node, None)
            elif isinstance(action, Retain):
                assert action.until == int(action.until), "oracle needs integer times"
                if action.until <= now:
                    close(node, now)
                    pending.pop(node, None)
                    inflight.pop(node, None)
                elif node in present:
                    retained[node] = (present.pop(node), action.until)
                elif node in retained:
                    retained[node] = (retained[node][0], action.until)
                elif node in inflight:
                    inflight[node][1] = action.until
                elif node in pending:
                    del pending[node]

        events: dict[int, list] = {}
        for visits in tl.sessions:
            events.setdefault(int(visits[0].arrival), []).append((_START, visits[0].node))
            for v in visits[1:]:
                events.setdefault(int(v.arrival), []).append((_ARRIVE, v.node))
            events.setdefault(int(visits[-1].departure), []).append((_END, visits[-1].node))
        horizon = int(tl.last_t)
        for t in range(int(tl.first_t), horizon + 1):
            for node in sorted(n for n, s in pending.items() if s == t):
                del pending[node]
                inflight[node] = [t + ttime(node), None]
            for node in sorted(n for n, (c, _) in inflight.items() if c == t):
                _, until = inflight.pop(node)
                if until is None:
                    present[node] = t
                elif until > t:
                    retained[node] = (t, until)
            for rank, node in sorted(events.get(t, [])):
                if node in retained:
                    open_since, _ = retained.pop(node)
                    present[node] = open_since
                elif node in inflight and inflight[node][1] is not None:
                    inflight[node][1] = None
                if rank == _START:
                    actions = policy.on_session_start(node, float(t), view)
                elif rank == _ARRIVE:
                    actions = policy.on_arrival(node, float(t), view)
                else:
                    actions = policy.on_session_end(node, float(t), view)
                for action in actions:
                    apply(action, t)
            for node in sorted(n for n, (_, u) in retained.items() if u == t):
                close(node, t)
        for node in sorted(list(present) + list(retained)):
            close(node, horizon)
    return ledger


def per_second_client_metrics(ledger: ReplicaLedger, timeline: ClientTimeline,
                              window=None):
    """(active, covered, presence) in whole seconds, by stepping."""
    cid = timeline.client_id
    lo = -float("inf") if window is None else window[0]
    hi = float("inf") if window is None else window[1]
    active = covered = 0
    for visits in timeline.sessions:
        for v in visits:
            for s in range(int(max(v.arrival, lo)), int(min(v.departure, hi))):
                active += 1
                if any(a <= s < b for a, b in ledger.intervals(cid, v.node)):
                    covered += 1
    presence = 0
    for node in ledger.nodes(cid):
        for a, b in ledger.intervals(cid, node):
            presence += int(min(b, hi)) - int(max(a, lo)) if min(b, hi) > max(a, lo) else 0
    return active, covered, presence


def per_second_metrics(ledger, timelines, window=None):
    tot_active = tot_covered = tot_presence = 0
    for tl in timelines:
        a, c, p = per_second_client_metrics(ledger, tl, window)
        tot_active += a
        tot_covered += c
        tot_presence += p
    return tot_covered / tot_active, (tot_presence - tot_covered) / tot_active


def overlap(intervals, a, b) -> float:
    """Total length of ``intervals`` inside [a, b)."""
    total = 0.0
    for x, y in intervals:
        lo = x if x > a else a
        hi = y if y < b else b
        if hi > lo:
            total += hi - lo
    return total


def availability_series(ledger: ReplicaLedger, timeline: ClientTimeline, bucket) -> list[tuple[float, float]]:
    """Cumulative availability recomputed at each bucket boundary, starting at
    the first bucket with any activity."""
    if bucket <= 0:
        raise ConfigError("bucket must be > 0")
    t0 = timeline.first_t
    end = timeline.last_t
    points = []
    t = t0 + bucket
    while True:
        active = active_time(timeline, (t0, t))
        if active > 0:
            points.append((t, covered_time(ledger, timeline, (t0, t)) / active))
        if t >= end:
            break
        t += bucket
    return points


STAY_CHOICES = (60, 120, 180, 240)
PAUSE_CHOICES = (120, 240, 600)  # even, so padded retention windows stay integral
DELAY_CHOICES = (30, 60, 120, 300)
RESCHEDULE_STAYS = (60, 120, 480, 960)


def micro_path(rng: random.Random, n_nodes) -> list[int]:
    path = [rng.randrange(n_nodes)]
    while len(path) < rng.randint(1, 4):
        nxt = rng.randrange(n_nodes)
        if nxt != path[-1]:
            path.append(nxt)
    return path


def make_micro_timeline(rng: random.Random, client_id, n_nodes, stay_of=None,
                        routes=None, n_sessions=(1, 4)) -> ClientTimeline:
    """``stay_of(node, next_node)`` gives the stay at a node, ``next_node``
    being None at the end of a session; by default it depends on the node
    alone. Each session takes one of ``routes``, or a new random path."""
    if stay_of is None:
        stay_at = {n: rng.choice(STAY_CHOICES) for n in range(n_nodes)}
        stay_of = lambda node, next_node: stay_at[node]  # noqa: E731
    pause_of = {n: rng.choice(PAUSE_CHOICES) for n in range(n_nodes)}
    t = rng.randint(0, 300)
    sessions = []
    pauses = []
    n_sessions = rng.randint(*n_sessions)
    for si in range(n_sessions):
        path = rng.choice(routes) if routes else micro_path(rng, n_nodes)
        visits = []
        for n, next_node in zip(path, [*path[1:], None]):
            stay = stay_of(n, next_node)
            visits.append(NodeVisit(n, float(t), float(t + stay)))
            t += stay
        sessions.append(visits)
        if si < n_sessions - 1:
            last = path[-1]
            pauses.append(Pause(client_id, last, float(t), float(t + pause_of[last])))
            t += pause_of[last]
    tl = ClientTimeline(client_id, sessions, pauses)
    tl.validate()
    return tl


def random_policy_config(rng: random.Random, predictors=("baseline", "momm", "vomm"),
                         preload_buffers=(0, 10, 60, 86400)) -> PolicyConfig:
    kwargs = {}
    predictor = rng.choice(predictors)
    if predictor != "baseline":
        kwargs.update(k=rng.randint(1, 3), eot=rng.random() < 0.5)
        if rng.random() < 0.5:
            kwargs.update(topn_mode="dynamic", topn_threshold=rng.choice([0.5, 0.9, 1.0]))
        else:
            kwargs.update(topn_mode="fixed", topn_n=rng.randint(1, 2))
        kwargs["preload_buffer"] = float(rng.choice(preload_buffers))
    startup = rng.choice(["none", "short_pause", "plmm"])
    if startup == "short_pause":
        kwargs.update(startup_mode="short_pause",
                      short_pause_mode=rng.choice(["fixed", "learned", "node_specific"]),
                      short_pause_duration=float(rng.choice([60, 300, 900])))
        if rng.random() < 0.3:
            kwargs["short_pause_max"] = float(rng.choice([120, 600]))
    elif startup == "plmm":
        kwargs.update(startup_mode="plmm", plmm_threshold=float(rng.choice([300, 1500])))
    return PolicyConfig(name="random", predictor=predictor, **kwargs).validate()


def make_micro_scenario(rng: random.Random, clients=(1, 2)):
    n_nodes = rng.randint(2, 3)
    topo = build_grid(1, n_nodes, (0.0, 1.0, 0.0, 1.0))
    network = FixedDelay(float(rng.choice(DELAY_CHOICES)))
    timelines = [make_micro_timeline(rng, f"c{i}", n_nodes)
                 for i in range(rng.randint(*clients))]
    return timelines, topo, network, random_policy_config(rng)


def make_rescheduling_scenario(rng: random.Random, clients=(1, 2)):
    """A micro scenario in which pending preloads get planned again.

    A client's stay at a node depends on the node it goes to next, and every
    policy predicts and preloads ahead of time. A preload planned from one
    node for the end of its usual stay is then often still pending when the
    client leaves early for another node, which plans the same preload for
    another time or deletes it. The learned stays stay integral: each
    (context, target) pair always sees the same stay. Both scenario makers
    draw between ``clients[0]`` and ``clients[1]`` clients."""
    n_nodes = rng.randint(3, 4)
    topo = build_grid(1, n_nodes, (0.0, 1.0, 0.0, 1.0))
    network = FixedDelay(float(rng.choice(DELAY_CHOICES[:2])))
    timelines = []
    for i in range(rng.randint(*clients)):
        stays = {(n, m): rng.choice(RESCHEDULE_STAYS)
                 for n in range(n_nodes) for m in (*range(n_nodes), None) if m != n}
        a, b, c = rng.sample(range(n_nodes), 3)
        routes = [[a, c], [a, b, c], micro_path(rng, n_nodes)]
        timelines.append(make_micro_timeline(rng, f"c{i}", n_nodes, lambda n, m: stays[n, m], routes, (4, 8)))
    config = random_policy_config(rng, ("momm", "vomm"), (0, 10, 60))
    return timelines, topo, network, config


def brute_force_nearest(lat, lon, topo):
    """Independent linear scan with the same equirectangular metric."""
    best_id, best_d2 = None, None
    for n in topo.edge_nodes:
        dlat = lat - n.lat
        dlon = (lon - n.lon) * topo._lon_scale
        d2 = dlat * dlat + dlon * dlon
        if best_d2 is None or d2 < best_d2:
            best_id, best_d2 = n.id, d2
    return best_id


def _hop_counts(topo: Topology, root) -> dict[int, int]:
    """Hops from ``root`` to every endpoint reachable from it (breadth-first)."""
    dist = {root: 0}
    queue = deque([root])
    while queue:
        cur = queue.popleft()
        for nb in topo._adj.get(cur, ()):
            if nb not in dist:
                dist[nb] = dist[cur] + 1
                queue.append(nb)
    return dist


def min_hop_path(topo: Topology, src, dst) -> list[int]:
    """Minimum-hop path src->dst; equal-hop ties resolve to the
    lexicographically smallest id sequence."""
    if src == dst:
        return [src]
    dist = _hop_counts(topo, dst)
    if src not in dist:
        raise TopologyError(f"no path between {src} and {dst}")
    path = [src]
    cur = src
    while cur != dst:
        cur = min(nb for nb in topo._adj[cur] if dist.get(nb, -1) == dist[cur] - 1)
        path.append(cur)
    return path


def _point_sessions(groups, gap_threshold):
    """Per-file GeoPoint lists -> sessions, by the rules of traces.sessionize."""
    groups = sorted((sorted(g, key=lambda p: p.t) for g in groups if g), key=lambda g: g[0].t)
    sessions = []
    for group in groups:
        if sessions and group[0].t == sessions[-1][-1].t:
            current = sessions[-1]  # the file continues the previous one
        else:
            current = []
            sessions.append(current)
        for p in group:
            if current and p.t - current[-1].t > gap_threshold:
                current = []
                sessions.append(current)
            current.append(p)
    return sessions


def point_ingest(root, topo, gap_threshold) -> list[ClientTimeline]:
    """`fogrep ingest` of ``root/Data/<user>/Trajectory/*.plt``, one point at a time."""
    timelines = []
    for user in sorted(d for d in (Path(root) / "Data").iterdir() if d.is_dir()):
        groups = [list(parse_plt_rows(f.read_bytes()))
                  for f in sorted((user / "Trajectory").glob("*.plt"))]
        visit_sessions = []
        for points in _point_sessions(groups, gap_threshold):
            visits = []  # [node, arrival, departure]
            for p in points:
                node = brute_force_nearest(p.lat, p.lon, topo)
                if not visits or visits[-1][0] != node:
                    if visits:
                        visits[-1][2] = p.t
                    visits.append([node, p.t, None])
            visits[-1][2] = points[-1].t
            visit_sessions.append([NodeVisit(*v) for v in visits])
        pauses = [Pause(user.name, a[-1].node, a[-1].departure, b[0].arrival)
                  for a, b in zip(visit_sessions, visit_sessions[1:])]
        timelines.append(ClientTimeline(user.name, visit_sessions, pauses))
    return timelines
