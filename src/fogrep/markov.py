"""Online-trainable Markov predictors over node-visit sequences.

A model is a list of sub-models and a fuse rule. Every sub-model is one
table keyed on (history, day bucket, time bucket), trained with a fixed
history length (order) and fixed day-of-week and time-of-day splits; the
buckets derive from the trip start time. Each (context, target) record
carries a transition count plus stay-duration statistics for the node the
history ends at, so predictions can report an expected stay. An end-of-trip
pseudo-target (``EOT``) records trip termination when enabled.

The three predictors of the paper differ only in which sub-models they train
and how the answers are fused (``KINDS``):

* ``momm``: order ``k`` alone, by backoff over that one sub-model;
* ``vomm``: orders ``1..k``, by backoff: the highest order that knows the
  context answers, lower orders are not queried;
* ``fomm``: orders ``1..k`` x day splits x time splits, by blend: the
  weighted sum of every answering sub-model's distribution, normalized.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

from .errors import ConfigError, DataError

EOT = -1  # end-of-trip pseudo target; real node ids are >= 0

DAY_SPLITS = (1, 2, 7)
TIME_SPLITS = (1, 4, 24)

_MAGIC = b"FGMK1\n"
_TARGET_STRUCT = struct.Struct("<iIdI")  # id, count, stay_sum, stay_count
TARGET_BYTES = _TARGET_STRUCT.size  # 20
MAX_NODE_ID = 0xFFFF  # histories are stored as unsigned 16-bit ids


def bucketize(t, day_split, time_split, tz_offset=0.0) -> tuple[int, int]:
    """Map a timestamp to (day bucket, time bucket) in local wall time.

    day_split 7 -> weekday (Mon=0); 2 -> 0 weekday / 1 weekend; 1 -> 0.
    time_split 24 -> hour; 4 -> six-hour range; 1 -> 0.
    """
    if day_split not in DAY_SPLITS or time_split not in TIME_SPLITS:
        raise ConfigError(f"unsupported split sizes ({day_split}, {time_split})")
    wall = int(t + tz_offset)
    day = 0
    if day_split > 1:
        weekday = ((wall // 86400) + 3) % 7  # epoch day 0 was a Thursday
        day = weekday if day_split == 7 else (1 if weekday >= 5 else 0)
    tod = 0
    if time_split > 1:
        hour = (wall % 86400) // 3600
        tod = hour if time_split == 24 else hour // 6
    return day, tod


@dataclass
class TargetRecord:
    count: int = 0
    stay_sum: float = 0.0
    stay_count: int = 0

    @property
    def mean_stay(self) -> float | None:
        return self.stay_sum / self.stay_count if self.stay_count else None


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


@dataclass(frozen=True)
class SubModelSpec:
    order: int
    day_split: int
    time_split: int
    weight: float

    def __post_init__(self):
        if self.weight <= 0:
            raise ConfigError("sub-model weight must be > 0")


@dataclass
class SubModel:
    spec: SubModelSpec
    table: TransitionTable = field(default_factory=TransitionTable)


@dataclass(frozen=True)
class Prediction:
    target: int  # node id, or EOT
    probability: float
    expected_stay: float | None = None


def default_weight(order, day_split, time_split) -> float:
    """More specific sub-models weigh more: order x day groups x time groups."""
    return float(order * day_split * time_split)


def momm_predict(table: TransitionTable, history, buckets) -> list[Prediction] | None:
    """Distribution for an exact-length history, or None when the context was
    never seen (absence is a value, not an error)."""
    targets = table.lookup((tuple(history), buckets[0], buckets[1]))
    if not targets:
        return None
    total = sum(rec.count for rec in targets.values())
    preds = [Prediction(t, rec.count / total, rec.mean_stay)
             for t, rec in sorted(targets.items(), key=lambda kv: (kv[0] == EOT, kv[0]))]
    return preds


def backoff(model: "MarkovPredictor", history, trip_start):
    """The highest-order sub-model that knows the context answers alone;
    lower orders are not queried once one has answered."""
    for sm in reversed(model.submodels):
        preds = model.query(sm, history, trip_start)
        if preds is not None:
            return preds
    return None


def blend(model: "MarkovPredictor", history, trip_start):
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
    total = sum(raw.values())
    return [Prediction(t, raw[t] / total,
                       stay_num[t] / stay_den[t] if t in stay_den else None)
            for t in sorted(raw, key=lambda t: (t == EOT, t))]


# kind -> (orders trained for a maximum order k, whether sub-models split by
# day and time of day, fuse rule)
KINDS = {
    "momm": (lambda k: (k,), False, backoff),
    "vomm": (lambda k: range(1, k + 1), False, backoff),
    "fomm": (lambda k: range(1, k + 1), True, blend),
}


def check_kind(kind, k=1, day_splits=(1,), time_splits=(1,)):
    """The ``KINDS`` row of ``kind``; ConfigError naming the predictor key
    when the kind is unknown or cannot take these parameters."""
    if kind not in KINDS:
        raise ConfigError(f"predictor: unknown kind {kind!r}; expected one of {tuple(KINDS)}")
    if k < 1:
        raise ConfigError("predictor.k: must be >= 1")
    for key, given, allowed in (("day_splits", day_splits, DAY_SPLITS),
                                ("time_splits", time_splits, TIME_SPLITS)):
        if not KINDS[kind][1] and tuple(given) != (1,):
            raise ConfigError(f"predictor.{key}: {kind} does not split its sub-models")
        for s in given:
            if s not in allowed:
                raise ConfigError(f"predictor.{key}: unsupported split {s}; expected one of {allowed}")
    return KINDS[kind]


def make_model(kind, k, day_splits=(1,), time_splits=(1,), eot=True,
               tz_offset=0.0) -> "MarkovPredictor":
    """A fresh model of ``kind`` with maximum order ``k``."""
    orders = check_kind(kind, k, day_splits, time_splits)[0]
    submodels = [SubModel(SubModelSpec(o, d, t, default_weight(o, d, t)))
                 for o in orders(k) for d in sorted(day_splits) for t in sorted(time_splits)]
    return MarkovPredictor(kind, submodels, eot=eot, tz_offset=tz_offset)


class MarkovPredictor:
    """Sub-models over one table layout, queried and combined by the fuse
    rule of the model's kind."""

    def __init__(self, kind, submodels, eot=True, tz_offset=0.0):
        self.kind = kind
        self.fuse = check_kind(kind)[2]
        self.submodels: list[SubModel] = list(submodels)
        self.eot = eot
        self.tz_offset = tz_offset

    def _buckets(self, spec: SubModelSpec, trip_start):
        return bucketize(trip_start, spec.day_split, spec.time_split, self.tz_offset)

    def train_session(self, visits, trip_start):
        """Enter every transition of a completed trip, plus an end-of-trip
        transition when enabled. Buckets come from the trip start time."""
        if not visits:
            raise DataError("cannot train on an empty visit sequence")
        nodes = [v.node for v in visits]
        top = max(nodes)
        if top > MAX_NODE_ID:
            raise DataError(f"node id {top} does not fit the predictor's 16-bit node ids "
                            f"(at most {MAX_NODE_ID})")
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
        the context."""
        return self.fuse(self, history, trip_start)

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

    # -- persistence -------------------------------------------------------

    def save_bytes(self) -> bytes:
        out = [_MAGIC]
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

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(self.save_bytes())

    def _config_dict(self) -> dict:
        return {
            "kind": self.kind,
            "eot": self.eot,
            "tz_offset": self.tz_offset,
            "submodels": [[sm.spec.order, sm.spec.day_split, sm.spec.time_split, sm.spec.weight]
                          for sm in self.submodels],
        }

    @staticmethod
    def load_bytes(data: bytes) -> "MarkovPredictor":
        if not data.startswith(_MAGIC):
            raise DataError("not a predictor file")
        try:
            return _decode(data, len(_MAGIC))
        except (struct.error, ValueError, KeyError, TypeError, ConfigError) as exc:
            raise DataError(f"corrupt predictor file: {exc}") from exc

    @staticmethod
    def load(path) -> "MarkovPredictor":
        with open(path, "rb") as fh:
            return MarkovPredictor.load_bytes(fh.read())


def dynamic_topn(preds, threshold=None, fixed_n=None, include_eot=True) -> list[int]:
    """Select targets by descending probability (ties by node id, end-of-trip
    last among ties): either the shortest prefix whose cumulative probability
    reaches ``threshold``, or exactly ``min(fixed_n, len(preds))`` targets.

    With include_eot=False, end-of-trip mass does not count toward the
    threshold but keeps its position in the ordering.
    """
    if (threshold is None) == (fixed_n is None):
        raise ConfigError("exactly one of threshold / fixed_n must be given")
    ordered = sorted(preds, key=lambda p: (-p.probability, p.target == EOT, p.target))
    if fixed_n is not None:
        if fixed_n < 1:
            raise ConfigError("fixed_n must be >= 1")
        return [p.target for p in ordered[:fixed_n]]
    if not 0.0 < threshold <= 1.0:
        raise ConfigError(f"topN threshold must be in (0, 1], got {threshold}")
    selected = []
    cum = 0.0
    for p in ordered:
        selected.append(p.target)
        if include_eot or p.target != EOT:
            cum += p.probability
        if cum >= threshold:
            break
    return selected


def _table_bytes(order, table: TransitionTable) -> int:
    per_entry = 2 * order + 4
    return sum(per_entry + TARGET_BYTES * len(t) for t in table.entries.values())


def _encode_entry(context, targets) -> bytes:
    history, day, tod = context
    parts = [struct.pack(f"<{len(history)}HHH", *history, day, tod)]
    for target, rec in sorted(targets.items(), key=lambda kv: (kv[0] == EOT, kv[0])):
        parts.append(_TARGET_STRUCT.pack(target, rec.count, rec.stay_sum, rec.stay_count))
    return b"".join(parts)


def _decode(data, off) -> MarkovPredictor:
    (hlen,) = struct.unpack_from("<I", data, off)
    off += 4
    cfg = json.loads(data[off:off + hlen])
    off += hlen
    model = MarkovPredictor(
        cfg["kind"], [SubModel(SubModelSpec(o, d, t, w)) for o, d, t, w in cfg["submodels"]],
        eot=cfg["eot"], tz_offset=cfg["tz_offset"])
    for sm in model.submodels:
        (n_entries,) = struct.unpack_from("<I", data, off)
        off += 4
        counts = struct.unpack_from(f"<{n_entries}H", data, off)
        off += 2 * n_entries
        for n_targets in counts:
            context, targets, off = _decode_entry(data, off, sm.spec.order, n_targets)
            sm.table.entries[context] = targets
    if off != len(data):
        raise DataError("trailing bytes in predictor file")
    return model


def _decode_entry(data, off, order, n_targets):
    vals = struct.unpack_from(f"<{order}HHH", data, off)
    off += 2 * order + 4
    context = (tuple(vals[:order]), vals[order], vals[order + 1])
    targets = {}
    for _ in range(n_targets):
        tid, count, stay_sum, stay_count = _TARGET_STRUCT.unpack_from(data, off)
        off += TARGET_BYTES
        targets[tid] = TargetRecord(count, stay_sum, stay_count)
    return context, targets, off
