"""Independent oracles for the simulation engine, the interval metrics and
GeoLife ingestion.

The engine oracle re-runs a scenario as a naive per-second state machine (no
event queue), sharing only the policy layer with the real engine; it takes
one second's timeline events in timeline order. The metrics oracle counts
seconds. Both require every timestamp in a scenario to be an integer, which
the micro-scenario generators guarantee: the stay at a node (or at a node
before a given next node) and the pause after it are constant (so learned
means stay integral) and pause durations are even (so padded retention
windows stay integral). The series oracle recomputes the active and
covered time from scratch at every bucket boundary, and the overlap oracle
scans every interval of a (client, node) pair. The ingest oracle handles one point
at a time: the row-by-row PLT parser, a loop over sorted points for the
sessions and a scan over every node for each point. The Markov oracle keeps
one transition table per sub-model, queries each sub-model by its own history
slice and buckets, sorts every answer into a list of predictions, and writes
the canonical serialization that a model's size counts. The
restart oracle recomputes a retention deadline from the whole list of pauses
seen so far: a sorted-list lower median for the short-pause windows, and a
count argmax with ties to the smaller id for the pause-length model.
``fold_report`` gives a sweep point's report from the ledger of one run of
all its clients, as a reference for the point that runs them one at a time.
``reference_run`` is the engine as a per-client event heap with stale-event
ids, which ``simengine`` replaced by a walk over each client's timeline; the
two must give the same ledger and event log.
"""
import heapq
import json
import math
import random
import struct
from dataclasses import dataclass, field
from pathlib import Path

from fogrep.errors import ConfigError, EngineInvariantError
from fogrep.markov import (EOT, TARGET_BYTES, Context,
                           MarkovPredictor, Prediction, SubModelSpec,
                           TargetRecord, bucketize, check_kind)
from fogrep.metrics import active_time, compute_report, covered_time, point_report
from fogrep.policies import PolicyConfig, Replicate, ReplicaPolicy, Retain
from fogrep.simengine import (ARRIVAL, KIND_NAMES, RETENTION_EXPIRE, SESSION_END,
                              SESSION_START, TRANSFER_COMPLETE, TRANSFER_START, EventRecord,
                              merge_event_logs)
from fogrep.topology import FixedDelay, build_grid, transfer_time
from fogrep.traces import ClientTimeline, NodeVisit, Pause, parse_plt_rows

_START, _ARRIVE, _END = "start", "arrive", "end"


def brute_force_run(timelines, topology, network, config: PolicyConfig) -> dict:
    """The ledger: (client, node) -> presence intervals, as ``simengine.run`` records it."""
    def ttime(dst):
        return transfer_time(dst, network)

    ledger = {}
    for tl in timelines:
        policy = ReplicaPolicy(config, ttime)
        pending: dict[int, float] = {}
        inflight: dict[int, list] = {}   # node -> [complete_t, retained_until|None]
        present: dict[int, float] = {}   # node -> open_since
        retained: dict[int, tuple] = {}  # node -> (open_since, until)

        def close(node, t):
            pending.pop(node, None)
            inflight.pop(node, None)
            if node in present:
                open_since = present.pop(node)
            elif node in retained:
                open_since, _ = retained.pop(node)
            else:
                return
            if t > open_since:
                ledger.setdefault((tl.client_id, node), []).append((open_since, t))

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
            elif isinstance(action, Retain):
                assert action.until == int(action.until), "oracle needs integer times"
                if action.until <= now:
                    close(node, now)
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
            for kind, node in events.get(t, ()):  # in timeline order
                if node in retained:
                    open_since, _ = retained.pop(node)
                    present[node] = open_since
                elif node in inflight and inflight[node][1] is not None:
                    inflight[node][1] = None
                if kind == _START:
                    actions = policy.on_session_start(node, float(t))
                elif kind == _ARRIVE:
                    actions = policy.on_arrival(node, float(t))
                else:
                    actions = policy.on_session_end(node, float(t))
                held = set(pending) | set(inflight) | set(present) | set(retained)
                for other in sorted(held - {action.node for action in actions}):
                    close(other, t)
                for action in actions:
                    apply(action, t)
            for node in sorted(n for n, (_, u) in retained.items() if u == t):
                close(node, t)
        for node in sorted(list(present) + list(retained)):
            close(node, horizon)
    return ledger


def client_ledger(ledger, client) -> dict:
    """One client's part of a ledger: node -> presence intervals."""
    return {node: ivs for (c, node), ivs in ledger.items() if c == client}


def fold_report(ledger, timelines, memory_by_client=None, window=None, series_clients=(), series_bucket=86400.0):
    """A sweep point's report over the ledger of a run of all its clients:
    each client's row from the whole ledger, folded in client-id order as
    ``_run_point`` folds them."""
    memory_by_client = memory_by_client or {}
    return point_report([compute_report(ledger, tl, memory_by_client.get(tl.client_id, 0), window,
                                        series_bucket if tl.client_id in series_clients else None)
                         for tl in sorted(timelines, key=lambda tl: tl.client_id)])


def per_second_client_metrics(ledger, timeline: ClientTimeline,
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
                if any(a <= s < b for a, b in ledger.get((cid, v.node), ())):
                    covered += 1
    presence = 0
    for ivs in client_ledger(ledger, cid).values():
        for a, b in ivs:
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


def availability_series(ledger, timeline: ClientTimeline, bucket) -> list[tuple[float, float]]:
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
    return PolicyConfig(name="random", predictor=predictor, **kwargs)


def make_micro_scenario(rng: random.Random, clients=(1, 2)):
    n_nodes = rng.randint(2, 3)
    topo = build_grid(1, n_nodes, (0.0, 1.0, 0.0, 1.0))
    network = FixedDelay(float(rng.choice(DELAY_CHOICES)))
    timelines = [make_micro_timeline(rng, f"c{i}", n_nodes)
                 for i in range(rng.randint(*clients))]
    return timelines, topo, network, random_policy_config(rng)


def make_zero_stay_scenario(rng: random.Random, clients=(1, 2)):
    """A micro scenario in which every stay at one node is zero-length, so
    that node's visits open, continue and end sessions in no time (a session
    of that node alone has no length at all)."""
    n_nodes = rng.randint(2, 3)
    topo = build_grid(1, n_nodes, (0.0, 1.0, 0.0, 1.0))
    network = FixedDelay(float(rng.choice(DELAY_CHOICES)))
    timelines = []
    for i in range(rng.randint(*clients)):
        stay_at = {n: rng.choice(STAY_CHOICES) for n in range(n_nodes)}
        stay_at[rng.randrange(n_nodes)] = 0
        timelines.append(make_micro_timeline(rng, f"c{i}", n_nodes, lambda n, m: stay_at[n]))
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


def node_coords(topo):
    """Every node's (lat, lon) in id order, from the row latitudes and column
    longitudes the topology holds."""
    return [(lat, lon) for lat in topo.lat_c for lon in topo.lon_c]


def brute_force_nearest(lat, lon, topo):
    """Independent linear scan with the same equirectangular metric, over
    node coordinates worked out from the grid spec alone: cell centres of the
    bbox, ids row-major."""
    g = topo.grid
    lat_min, lat_max, lon_min, lon_max = g.bbox
    dlat_cell, dlon_cell = (lat_max - lat_min) / g.rows, (lon_max - lon_min) / g.cols
    lon_scale = math.cos(math.radians(0.5 * (lat_min + lat_max)))
    best_id, best_d2 = None, None
    for node in range(g.rows * g.cols):
        dlat = lat - (lat_min + (node // g.cols + 0.5) * dlat_cell)
        dlon = (lon - (lon_min + (node % g.cols + 0.5) * dlon_cell)) * lon_scale
        d2 = dlat * dlat + dlon * dlon
        if best_d2 is None or d2 < best_d2:
            best_id, best_d2 = node, d2
    return best_id


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


def _lower_median(values):
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def restart_until(config: PolicyConfig, pauses, node, t):
    """The deadline until which ``config``'s restart model keeps ``node``'s
    replica after a shutdown there at ``t``, given every earlier pause as a
    (shutdown node, startup node, duration) triple; None keeps nothing."""
    if config.startup_mode == "short_pause":
        window = config.short_pause_duration
        if config.short_pause_mode != "fixed":
            here = [d for shutdown, _, d in pauses if shutdown == node]
            if config.short_pause_mode == "node_specific" and len(here) >= config.min_samples:
                window = _lower_median(here)
            elif pauses:
                window = _lower_median([d for _, _, d in pauses])
        if config.short_pause_max is not None and window > config.short_pause_max:
            window = config.short_pause_max
        return t + window if window > 0 else None
    if config.startup_mode == "plmm":
        after = [(startup, d) for shutdown, startup, d in pauses if shutdown == node]
        if not after:
            return None
        counts = {}
        for startup, _ in after:
            counts[startup] = counts.get(startup, 0) + 1
        top = max(counts.values())
        startup = min(n for n, c in counts.items() if c == top)
        total = 0.0  # summed in order, as the model does: sum() may compensate
        for n, d in after:
            if n == startup:
                total += d
        mean = total / top
        if startup != node or mean > config.plmm_threshold:
            return None
        return t + mean * config.retention_factor
    return None


def restart_memory_bytes(config: PolicyConfig, pauses) -> int:
    """The canonical size of ``config``'s restart model after ``pauses``: 8
    bytes per learned pause, once for the client and once under its shutdown
    node's 2-byte key; 2 bytes per shutdown node and 16 per (shutdown,
    startup) pair for the pause-length model."""
    shutdowns = {shutdown for shutdown, _, _ in pauses}
    if config.startup_mode == "short_pause" and config.short_pause_mode != "fixed":
        return 16 * len(pauses) + 2 * len(shutdowns)
    if config.startup_mode == "plmm":
        return 2 * len(shutdowns) + 16 * len({(shutdown, startup) for shutdown, startup, _ in pauses})
    return 0


class TransitionTable:
    """Context -> per-target counts. Contexts are (history tuple, day, time)."""

    def __init__(self):
        self.entries: dict[tuple, dict[int, TargetRecord]] = {}

    def add(self, context, target, stay=None):
        targets = self.entries.setdefault(context, {})
        rec = targets.get(target)
        if rec is None:
            rec = targets[target] = TargetRecord()
        rec.count += 1
        if stay is not None:
            rec.stay_sum += stay
            rec.stay_count += 1

    def lookup(self, context):
        return self.entries.get(context)

    def __len__(self):
        return len(self.entries)


@dataclass
class SubModel:
    spec: SubModelSpec
    table: TransitionTable = field(default_factory=TransitionTable)


def momm_predict(table: TransitionTable, history, buckets) -> list[Prediction] | None:
    """Distribution for an exact-length history, or None when the context was
    never seen (absence is a value, not an error)."""
    targets = table.lookup((tuple(history), buckets[0], buckets[1]))
    if not targets:
        return None
    total = sum(rec.count for rec in targets.values())
    return [Prediction(t, rec.count / total, rec.mean_stay) for t, rec in target_order(targets)]


def table_backoff(model: "TableModel", history, trip_start):
    """The highest-order sub-model that knows the context answers alone;
    lower orders are not queried once one has answered."""
    for sm in reversed(model.submodels):
        preds = model.query(sm, history, trip_start)
        if preds is not None:
            return preds
    return None


def table_blend(model: "TableModel", history, trip_start):
    """Weighted sum of every answering sub-model's distribution, normalized
    once; stays fuse as weight-weighted averages over the sub-models that
    report one."""
    raw: dict[int, float] = {}
    stay_num: dict[int, float] = {}
    stay_den: dict[int, float] = {}
    for sm in model.submodels:
        preds = model.query(sm, history, trip_start)
        if preds is None:
            continue
        w = sm.spec.weight
        for p in preds:
            raw[p.target] = raw.get(p.target, 0.0) + p.probability * w
            if p.expected_stay is not None:
                stay_num[p.target] = stay_num.get(p.target, 0.0) + w * p.expected_stay
                stay_den[p.target] = stay_den.get(p.target, 0.0) + w
    if not raw:
        return None
    total = 0.0  # summed in order, as the model does: sum() may compensate
    for share in raw.values():
        total += share
    return [Prediction(t, raw[t] / total,
                       stay_num[t] / stay_den[t] if t in stay_den else None)
            for t in sorted(raw, key=lambda t: (t == EOT, t))]


TABLE_FUSE = {"momm": table_backoff, "vomm": table_backoff, "fomm": table_blend}


def table_model(kind, k, day_splits=(1,), time_splits=(1,), eot=True,
                tz_offset=0.0) -> "TableModel":
    """``fogrep.markov.make_model`` over one transition table per sub-model."""
    orders = check_kind(kind, k, day_splits, time_splits)[0]
    submodels = [SubModel(SubModelSpec(o, d, t, float(o * d * t)))
                 for o in orders(k) for d in sorted(day_splits) for t in sorted(time_splits)]
    return TableModel(kind, submodels, eot=eot, tz_offset=tz_offset)


class TableModel:
    """Sub-models over one table layout, queried and combined by the fuse
    rule of the model's kind."""

    def __init__(self, kind, submodels, eot=True, tz_offset=0.0):
        self.kind = kind
        self.fuse = TABLE_FUSE[kind]
        self.submodels: list[SubModel] = list(submodels)
        self.eot = eot
        self.tz_offset = tz_offset

    def _buckets(self, spec: SubModelSpec, trip_start):
        return bucketize(trip_start, spec.day_split, spec.time_split, self.tz_offset)

    def train_session(self, visits, trip_start):
        """Enter every transition of a completed trip, plus an end-of-trip
        transition when enabled. Buckets come from the trip start time."""
        nodes = [v.node for v in visits]
        for sm in self.submodels:
            k = sm.spec.order
            day, tod = self._buckets(sm.spec, trip_start)
            for i in range(k, len(nodes)):
                stay = visits[i - 1].departure - visits[i - 1].arrival
                sm.table.add((tuple(nodes[i - k:i]), day, tod), nodes[i], stay)
            if self.eot and len(nodes) >= k:
                sm.table.add((tuple(nodes[-k:]), day, tod), EOT)

    def predict(self, history, trip_start):
        """Fused next-target distribution, or None when no sub-model knows
        the context; ranked by descending probability, ties by node id and
        end of trip last among ties."""
        preds = self.fuse(self, history, trip_start)
        return preds and sorted(preds, key=lambda p: (-p.probability, p.target == EOT, p.target))

    def query(self, sm: SubModel, history, trip_start):
        k = sm.spec.order
        if len(history) < k:
            return None
        return momm_predict(sm.table, tuple(history[-k:]), self._buckets(sm.spec, trip_start))

    def memory_bytes(self) -> int:
        """Size of the canonical table serialization: per entry 2 bytes per
        history element plus 2 bytes per bucket, then 20 bytes per target
        (4 id + 4 count + 8 stay_sum + 4 stay_count)."""
        return sum(_table_bytes(sm.spec.order, sm.table) for sm in self.submodels)

    def save_bytes(self) -> bytes:
        """The canonical serialization, whose data sections ``memory_bytes``
        sizes: header, then per sub-model its entries sorted by context."""
        out = [b"FGMK1\n"]
        header = json.dumps(self._config_dict(), sort_keys=True).encode()
        out.append(struct.pack("<I", len(header)))
        out.append(header)
        for sm in self.submodels:
            entries = sorted(sm.table.entries.items())
            out.append(struct.pack("<I", len(entries)))
            counts = struct.pack(f"<{len(entries)}H", *(len(t) for _, t in entries))
            out.append(counts)
            for context, targets in entries:
                out.append(_encode_entry(context, targets))
        return b"".join(out)

    def _config_dict(self) -> dict:
        return {
            "kind": self.kind,
            "eot": self.eot,
            "tz_offset": self.tz_offset,
            "submodels": [[sm.spec.order, sm.spec.day_split, sm.spec.time_split, sm.spec.weight]
                          for sm in self.submodels],
        }


def train(model: MarkovPredictor, visits, trip_start):
    """Train a ``fogrep.markov`` model on one trip given as its visits."""
    model.train_session([v.node for v in visits], [v.departure - v.arrival for v in visits[:-1]],
                        trip_start)


def target_order(targets) -> list:
    """A table entry's (target, record) pairs, node ids ascending and end of trip last."""
    return sorted(targets.items(), key=lambda kv: (kv[0] == EOT, kv[0]))


def from_tables(kind, submodels, eot=True, tz_offset=0.0) -> MarkovPredictor:
    """A ``fogrep.markov`` model holding exactly these sub-models' tables."""
    model = MarkovPredictor(kind, [sm.spec for sm in submodels], eot=eot, tz_offset=tz_offset)
    for i, sm in enumerate(submodels):
        for (history, day, tod), targets in sm.table.entries.items():
            ctx = model.index[sm.spec.order].setdefault(history, {})[(i, day, tod)] = Context()
            for t, rec in target_order(targets):
                ctx[t] = TargetRecord(rec.count, rec.stay_sum, rec.stay_count)
                ctx.total += rec.count
    return model


def tables_of(model: MarkovPredictor) -> TableModel:
    """The oracle's tables of a ``fogrep.markov`` model: one per sub-model,
    each entry's targets in the model's order."""
    tables = TableModel(model.kind, [SubModel(spec) for spec in model.submodels],
                        eot=model.eot, tz_offset=model.tz_offset)
    for index in model.index.values():
        for history, records in index.items():
            for (i, day, tod), ctx in records.items():
                tables.submodels[i].table.entries[(history, day, tod)] = {
                    t: TargetRecord(rec.count, rec.stay_sum, rec.stay_count) for t, rec in ctx.items()}
    return tables


def _table_bytes(order, table: TransitionTable) -> int:
    per_entry = 2 * order + 4
    return sum(per_entry + TARGET_BYTES * len(t) for t in table.entries.values())


def _encode_entry(context, targets) -> bytes:
    history, day, tod = context
    parts = [struct.pack(f"<{len(history)}HHH", *history, day, tod)]
    for target, rec in target_order(targets):
        parts.append(struct.pack("<iIdI", target, rec.count, rec.stay_sum, rec.stay_count))
    return b"".join(parts)


# The reference engine: the per-client event heap that ``simengine`` ran
# before it walked each client's timeline directly. Scheduled events carry
# unique ids and are never removed from the heap; a replica's state keeps the
# id of the one event that may still act on it, and any other event for it is
# stale. Timeline events enter the heap one at a time, each when the one
# before it is taken.

# status of a live replica per node; an absent one has no state
_PENDING = 0
_IN_FLIGHT = 1
_PRESENT = 2


class _NodeState:
    """One live replica: a transfer pending or in flight, or a copy present.
    ``event`` is the id of the one scheduled event that may still act on it,
    or None; ``retained_until`` is the retention deadline, or None."""
    __slots__ = ("status", "event", "open_since", "retained_until", "pending_start")

    def __init__(self):
        self.status = _PENDING
        self.event = None
        self.open_since = 0.0
        self.retained_until = None
        self.pending_start = 0.0


class _ClientRun:
    """One client's event loop and the only owner of its replicas."""

    def __init__(self, timeline, policy, ttime, ledger, record_log):
        self.client = timeline.client_id
        self.timeline = timeline
        self.policy = policy
        self._ttime = ttime
        self._ledger = ledger
        self.log: list[EventRecord] | None = [] if record_log else None
        self._states: dict[int, _NodeState] = {}
        self._heap: list = []
        self._seq = 0

    def _push(self, t, kind, node) -> int:
        """Schedule an event; returns its id."""
        self._seq += 1
        heapq.heappush(self._heap, (t, kind, self._seq, node))
        return self._seq

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
        timeline = self._timeline_events()
        self._push(*next(timeline))
        horizon = self.timeline.last_t
        last_t = float("-inf")
        while self._heap:
            t, kind, seq, node = heapq.heappop(self._heap)
            if t < last_t:
                raise EngineInvariantError(f"event time regression: {t} after {last_t}")
            last_t = t
            if t > horizon:
                break  # every later event is past the horizon too
            if ARRIVAL <= kind <= SESSION_END:  # a timeline event: the next one enters
                upcoming = next(timeline, None)
                if upcoming is not None:
                    self._push(*upcoming)
            if self._dispatch(t, kind, node, seq) and self.log is not None:
                self.log.append(EventRecord(t, self.client, KIND_NAMES[kind], node))
        for node in sorted(self._states):
            self._close(node, horizon)

    def _dispatch(self, t, kind, node, seq) -> bool:
        """Returns False for stale (cancelled) events."""
        st = self._states.get(node)
        if kind in (TRANSFER_START, TRANSFER_COMPLETE, RETENTION_EXPIRE):
            if st is None or st.event != seq:
                return False
            until = st.retained_until
            if kind == TRANSFER_START:
                st.status = _IN_FLIGHT
                st.event = self._push(t + self._ttime(node), TRANSFER_COMPLETE, node)
            elif kind == RETENTION_EXPIRE or (until is not None and until <= t):
                # an expiry, or a completion after the retention granted in flight
                self._close(node, t)
            else:
                st.status = _PRESENT
                st.open_since = t
                st.event = None if until is None else self._push(until, RETENTION_EXPIRE, node)
            return True
        # timeline events: the client is back, so a retention ends
        if st is not None:
            st.retained_until = None
            if st.status == _PRESENT:
                st.event = None  # a retention expiry goes stale
        if kind == SESSION_START:
            actions = self.policy.on_session_start(node, t)
        elif kind == ARRIVAL:
            actions = self.policy.on_arrival(node, t)
        elif kind == SESSION_END:
            actions = self.policy.on_session_end(node, t)
        else:
            raise EngineInvariantError(f"unknown event kind {kind}")
        for other in sorted(self._states.keys() - {action.node for action in actions}):
            self._close(other, t)
        for action in actions:
            self._apply(t, action)
        return True

    def _apply(self, now, action):
        node = action.node
        st = self._states.get(node)
        if isinstance(action, Replicate):
            at = action.at
            if at < now:
                raise EngineInvariantError(f"replicate scheduled in the past: {at} < {now}")
            if st is None:
                st = self._states[node] = _NodeState()
            elif st.status != _PENDING or at == st.pending_start:
                return  # a copy is there or on its way, or this start is planned already
            st.pending_start = at
            st.event = self._push(at, TRANSFER_START, node)
        elif isinstance(action, Retain):
            if st is None:
                return
            if action.until <= now or st.status == _PENDING:
                self._close(node, now)
                return
            # an in-flight transfer is paid for: it finishes into the retention
            st.retained_until = action.until
            if st.status == _PRESENT:
                st.event = self._push(action.until, RETENTION_EXPIRE, node)
        else:
            raise EngineInvariantError(f"unknown action {action!r}")


def reference_run(timelines, topology, network, config: PolicyConfig):
    """(ledger, event log) of ``simengine.run``, from the heap engine."""
    def ttime(dst):
        return transfer_time(dst, network)

    ledger = {}
    logs = []
    for tl in sorted(timelines, key=lambda tl: tl.client_id):
        client_run = _ClientRun(tl, ReplicaPolicy(config, ttime), ttime, ledger, True)
        client_run.run()
        logs.append(client_run.log)
    return ledger, merge_event_logs(logs)
