"""Online-trainable Markov predictors over node-visit sequences.

A model is a list of sub-models and a fuse rule. A sub-model has a fixed
history length (order) and day-of-week and time-of-day splits; the buckets
of all sub-models derive from the trip start time and are resolved once per
trip. The only storage is one index per order: a history tuple maps to one
record per trained (sub-model, day bucket, time bucket) context, so a
prediction looks a history up once per order. A record holds the context's
total count and a ``TargetRecord`` per target (a transition count plus stay
statistics for the node the history ends at), node ids ascending and the
end-of-trip pseudo-target ``EOT``, trained when enabled, last.

The three predictors of the paper differ only in which sub-models they train
and how the answers are fused (``KINDS``):

* ``momm``: order ``k`` alone, by backoff over that one sub-model;
* ``vomm``: orders ``1..k``, by backoff: the highest order that knows the
  context answers alone;
* ``fomm``: orders ``1..k`` x day splits x time splits, by blend: the
  weighted sum of every answering sub-model's distribution, normalized.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

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


@dataclass(slots=True)
class TargetRecord:
    count: int = 0
    stay_sum: float = 0.0
    stay_count: int = 0

    @property
    def mean_stay(self) -> float | None:
        return self.stay_sum / self.stay_count if self.stay_count else None


class Context(dict):
    """A trained context's record: target id -> ``TargetRecord``, node ids
    ascending and end of trip last, and ``total``, the sum of their counts."""
    __slots__ = ("total",)

    def __init__(self):
        self.total = 0

    def add(self, target, stay=None):
        """Count one transition; ``stay`` is None for the end of trip."""
        rec = self.get(target)
        if rec is None:
            last = next(reversed(self), None)
            rec = self[target] = TargetRecord()
            if target != EOT and last is not None and (last == EOT or last > target):
                for t in [t for t in self if t == EOT or t > target]:
                    self[t] = self.pop(t)  # behind the new target, in order
        self.total += 1
        rec.count += 1
        if stay is not None:
            rec.stay_sum += stay
            rec.stay_count += 1


@dataclass(frozen=True)
class SubModelSpec:
    order: int
    day_split: int
    time_split: int
    weight: float

    def __post_init__(self):
        if self.order < 1 or not self.weight > 0:
            raise ConfigError(f"sub-model order must be >= 1 and weight > 0, got {self}")
        bucketize(0.0, self.day_split, self.time_split)  # ConfigError for an unknown split


@dataclass(frozen=True)
class Prediction:
    target: int  # node id, or EOT
    probability: float
    expected_stay: float | None = None


def backoff(model: "MarkovPredictor", history, trip_start):
    """The highest-order sub-model that knows the context answers alone."""
    answers = model.answers(history, trip_start)
    if not answers:
        return None
    _, ctx = answers[-1]
    return [Prediction(t, rec.count / ctx.total, rec.mean_stay) for t, rec in ctx.items()]


def blend(model: "MarkovPredictor", history, trip_start):
    """Weighted sum of every answering sub-model's distribution, normalized
    once; stays fuse as weight-weighted averages over the sub-models that
    report one."""
    raw: dict[int, float] = {}
    stay_num: dict[int, float] = {}
    stay_den: dict[int, float] = {}
    for w, ctx in model.answers(history, trip_start):
        total = ctx.total
        for t, rec in ctx.items():
            raw[t] = raw.get(t, 0.0) + rec.count / total * w
            if rec.stay_count:
                stay_num[t] = stay_num.get(t, 0.0) + w * (rec.stay_sum / rec.stay_count)
                stay_den[t] = stay_den.get(t, 0.0) + w
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
    # more specific sub-models weigh more: order x day groups x time groups
    specs = [SubModelSpec(o, d, t, float(o * d * t))
             for o in orders(k) for d in sorted(day_splits) for t in sorted(time_splits)]
    return MarkovPredictor(kind, specs, eot=eot, tz_offset=tz_offset)


class MarkovPredictor:
    """Sub-models over one record index per order, queried and combined by
    the fuse rule of the model's kind."""

    def __init__(self, kind, submodels, eot=True, tz_offset=0.0):
        self.kind = kind
        self.fuse = check_kind(kind)[2]
        self.submodels: list[SubModelSpec] = list(submodels)
        self.eot = eot
        self.tz_offset = tz_offset
        # order -> history tuple -> (sub-model position, day, time) -> record
        self.index: dict[int, dict[tuple, dict[tuple, Context]]] = {s.order: {} for s in self.submodels}
        self._trip = None  # (trip start, _runs of that trip)

    def _runs(self, trip_start):
        """The sub-models of a trip starting at ``trip_start``, in sub-model
        order, as runs of one order: (order, [(record key, weight), ...]).
        Resolved once per trip."""
        if self._trip is None or self._trip[0] != trip_start:
            keyed = [(s.order, (i, *bucketize(trip_start, s.day_split, s.time_split, self.tz_offset)),
                      s.weight) for i, s in enumerate(self.submodels)]
            self._trip = (trip_start, [(order, [(key, w) for _, key, w in run])
                                       for order, run in groupby(keyed, itemgetter(0))])
        return self._trip[1]

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
        for order, keyed in self._runs(trip_start):
            index, keys = self.index[order], [key for key, _ in keyed]
            steps = [(tuple(nodes[i - order:i]), nodes[i], visits[i - 1].departure - visits[i - 1].arrival)
                     for i in range(order, len(nodes))]
            if self.eot and len(nodes) >= order:
                steps.append((tuple(nodes[-order:]), EOT, None))
            for history, target, stay in steps:
                records = index.setdefault(history, {})
                for key in keys:
                    ctx = records.get(key)
                    if ctx is None:
                        ctx = records[key] = Context()
                    ctx.add(target, stay)

    def predict(self, history, trip_start):
        """Fused next-target distribution, or None when no sub-model knows
        the context."""
        return self.fuse(self, history, trip_start)

    def answers(self, history, trip_start) -> list[tuple[float, Context]]:
        """(weight, record) of every sub-model that knows the context, in
        sub-model order; the history is looked up once per run of one order."""
        n = len(history)
        out = []
        for order, keyed in self._runs(trip_start):
            records = self.index[order].get(tuple(history[n - order:])) if order <= n else None
            if records is not None:
                for key, w in keyed:
                    ctx = records.get(key)
                    if ctx is not None:
                        out.append((w, ctx))
        return out

    def memory_bytes(self) -> int:
        """Size of the canonical table serialization: per entry 2 bytes per
        history element plus 2 bytes per bucket, then 20 bytes per target
        (4 id + 4 count + 8 stay_sum + 4 stay_count)."""
        return sum(2 * order + 4 + TARGET_BYTES * len(ctx)
                   for order, index in self.index.items()
                   for records in index.values() for ctx in records.values())

    def save_bytes(self) -> bytes:
        """Header, then per sub-model its entries sorted by context."""
        header = json.dumps({
            "kind": self.kind, "eot": self.eot, "tz_offset": self.tz_offset,
            "submodels": [[s.order, s.day_split, s.time_split, s.weight] for s in self.submodels],
        }, sort_keys=True).encode()
        out = [_MAGIC, struct.pack("<I", len(header)), header]
        for i, spec in enumerate(self.submodels):
            entries = sorted((((history, day, tod), ctx) for history, records in self.index[spec.order].items()
                              for (j, day, tod), ctx in records.items() if j == i), key=itemgetter(0))
            out.append(struct.pack(f"<I{len(entries)}H", len(entries), *(len(ctx) for _, ctx in entries)))
            for (history, day, tod), ctx in entries:
                out.append(struct.pack(f"<{len(history)}HHH", *history, day, tod))
                out.extend(_TARGET_STRUCT.pack(t, rec.count, rec.stay_sum, rec.stay_count)
                           for t, rec in ctx.items())
        return b"".join(out)

    @staticmethod
    def load_bytes(data: bytes) -> "MarkovPredictor":
        if not data.startswith(_MAGIC):
            raise DataError("not a predictor file")
        try:
            return _decode(data, len(_MAGIC))
        except (struct.error, ValueError, KeyError, TypeError, ConfigError) as exc:
            raise DataError(f"corrupt predictor file: {exc}") from exc


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


def _decode(data, off) -> MarkovPredictor:
    (hlen,) = struct.unpack_from("<I", data, off)
    cfg = json.loads(data[off + 4:off + 4 + hlen])
    off += 4 + hlen
    eot, tz_offset = cfg["eot"], cfg["tz_offset"]
    _require("header", (isinstance(eot, bool), f"eot {eot!r} is not true or false"),
             (type(tz_offset) in (int, float) and math.isfinite(tz_offset),
              f"tz_offset {tz_offset!r} is not a finite number"))
    model = MarkovPredictor(
        cfg["kind"], [SubModelSpec(o, d, t, w) for o, d, t, w in cfg["submodels"]],
        eot=eot, tz_offset=tz_offset)
    for i, spec in enumerate(model.submodels):
        (n_entries,) = struct.unpack_from("<I", data, off)
        counts = struct.unpack_from(f"<{n_entries}H", data, off + 4)
        off += 4 + 2 * n_entries
        last = None
        for n_targets in counts:
            *history, day, tod = struct.unpack_from(f"<{spec.order}HHH", data, off)
            off += 2 * spec.order + 4
            context, ctx = (tuple(history), day, tod), Context()
            where = f"sub-model {i}, context {context}"
            _require(where, (last is None or context > last, f"does not follow {last}"),
                     (day < spec.day_split and tod < spec.time_split,
                      f"bucket outside the {spec.day_split} x {spec.time_split} split"),
                     (n_targets > 0, "no targets"))
            for _ in range(n_targets):
                tid, count, stay_sum, stay_count = _TARGET_STRUCT.unpack_from(data, off)
                off += TARGET_BYTES
                prev = next(reversed(ctx), None)
                _require(f"{where}, target {tid}",
                         (EOT <= tid <= MAX_NODE_ID, f"id outside [{EOT}, {MAX_NODE_ID}]"),
                         (prev is None or (prev == EOT, prev) < (tid == EOT, tid), f"does not follow {prev}"),
                         (count > 0, "count 0"),
                         (stay_count <= count, f"{stay_count} stays for a count of {count}"),
                         (math.isfinite(stay_sum) and stay_sum >= 0, f"stay sum {stay_sum!r}"))
                ctx[tid] = TargetRecord(count, stay_sum, stay_count)
                ctx.total += count
            model.index[spec.order].setdefault(context[0], {})[(i, day, tod)] = ctx
            last = context
    if off != len(data):
        raise DataError("trailing bytes in predictor file")
    return model


def _require(where, *checks):
    """DataError naming ``where`` and the first failed (holds, problem) check."""
    for holds, problem in checks:
        if not holds:
            raise DataError(f"corrupt predictor file: {where}: {problem}")
