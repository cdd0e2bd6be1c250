"""Online-trainable Markov predictors over node-visit sequences.

A model is a list of sub-models and a fuse rule. A sub-model has a fixed
history length (order) and day-of-week and time-of-day splits; the trip
start time's ``hour_of_week`` fixes the buckets of all sub-models, so a model
resolves them once per hour of the week it has seen. The only storage is
one index per order: a history tuple maps to one record per trained
(sub-model, day bucket, time bucket) context, so a prediction looks a
history up once per order. A record holds the context's total count and a
``TargetRecord`` per target (a transition count plus stay statistics for
the node the history ends at), node ids ascending and the end-of-trip
pseudo-target ``EOT``, trained when enabled, last. A trip trains as its node
ids and the stays between them, which the policy tracks (``train_session``).

The three predictors of the paper differ only in which sub-models they train
and how they fuse their answers into one ranked list (``KINDS``, ``rank``):

* ``momm``: order ``k`` alone, by backoff over that one sub-model;
* ``vomm``: orders ``1..k``, by backoff: the highest order that knows the
  context answers alone;
* ``fomm``: orders ``1..k`` x day splits x time splits, by blend: the
  weighted sum of every answering sub-model's distribution, normalized.

Settings come checked: ``PolicyConfig`` calls ``check_kind`` and checks the
top-N settings when it is made, so nothing here checks them again.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

from .errors import ConfigError

EOT = -1  # end-of-trip pseudo target; real node ids are >= 0

DAY_SPLITS = (1, 2, 7)
TIME_SPLITS = (1, 4, 24)

# The canonical size of a model (``memory_bytes``) counts each history
# element and bucket as an unsigned 16-bit id, so a config whose grid has
# node ids above MAX_NODE_ID is refused when a policy predicts, and each
# target as 4 id + 4 count + 8 stay_sum + 4 stay_count.
TARGET_BYTES = 20
MAX_NODE_ID = 0xFFFF


def hour_of_week(t, tz_offset=0.0) -> int:
    """Local wall-time hour of the week, 0 at the epoch's Thursday 00:00; it fixes every bucket."""
    return int(t + tz_offset) // 3600 % 168


def bucketize(t, day_split, time_split, tz_offset=0.0) -> tuple[int, int]:
    """Map a timestamp to (day bucket, time bucket) in local wall time.

    day_split 7 -> weekday (Mon=0); 2 -> 0 weekday / 1 weekend; 1 -> 0.
    time_split 24 -> hour; 4 -> six-hour range; 1 -> 0.
    """
    how = hour_of_week(t, tz_offset)
    day = 0
    if day_split > 1:
        weekday = (how // 24 + 3) % 7  # epoch day 0 was a Thursday
        day = weekday if day_split == 7 else (1 if weekday >= 5 else 0)
    tod = 0
    if time_split > 1:
        hour = how % 24
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


@dataclass(frozen=True)
class SubModelSpec:
    order: int
    day_split: int
    time_split: int
    weight: float


class Prediction(NamedTuple):
    target: int  # node id, or EOT
    probability: float
    expected_stay: float | None = None


def rank(p: Prediction):
    """Descending probability, ties by node id, end of trip last among ties."""
    return -p.probability, p.target == EOT, p.target


def backoff(model: "MarkovPredictor", history, trip_start):
    """The highest-order sub-model that knows the context answers alone,
    ranked: orders are looked up from the highest down, up to the first record."""
    n = len(history)
    for order, keyed in reversed(model._runs(trip_start)):
        records = model.index[order].get(tuple(history[n - order:])) if order <= n else None
        if records is not None:
            for key, _ in reversed(keyed):
                ctx = records.get(key)
                if ctx is not None:
                    return sorted([Prediction(t, rec.count / ctx.total, rec.mean_stay)
                                   for t, rec in ctx.items()], key=rank)
    return None


def blend(model: "MarkovPredictor", history, trip_start):
    """Weighted sum of every answering sub-model's distribution, normalized
    once and ranked; stays fuse as weight-weighted averages over the
    sub-models that report one. Sub-models add in their order into one
    [share, stay numerator, stay denominator] accumulator per target; the
    history is looked up once per run of one order."""
    acc: dict[int, list[float]] = {}
    n = len(history)
    for order, keyed in model._runs(trip_start):
        records = model.index[order].get(tuple(history[n - order:])) if order <= n else None
        if records is None:
            continue
        for key, w in keyed:
            ctx = records.get(key)
            if ctx is None:
                continue
            total = ctx.total
            for t, rec in ctx.items():
                a = acc.get(t)
                if a is None:
                    a = acc[t] = [0.0, 0.0, 0.0]
                a[0] += rec.count / total * w
                if rec.stay_count:
                    a[1] += w * (rec.stay_sum / rec.stay_count)
                    a[2] += w
    if not acc:
        return None
    total = 0.0  # left to right: sum() compensates since Python 3.12
    for a in acc.values():
        total += a[0]
    return sorted([Prediction(t, a[0] / total, a[1] / a[2] if a[2] else None)
                   for t, a in acc.items()], key=rank)


# kind -> (orders trained for a maximum order k, whether sub-models split by
# day and time of day, fuse rule)
KINDS = {
    "momm": (lambda k: (k,), False, backoff),
    "vomm": (lambda k: range(1, k + 1), False, backoff),
    "fomm": (lambda k: range(1, k + 1), True, blend),
}


def check_kind(kind, k, day_splits, time_splits):
    """The ``KINDS`` row of ``kind``, a known kind; ConfigError naming the
    predictor key when it cannot take these parameters."""
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
    orders = KINDS[kind][0]
    # more specific sub-models weigh more: order x day groups x time groups
    specs = [SubModelSpec(o, d, t, float(o * d * t))
             for o in orders(k) for d in sorted(day_splits) for t in sorted(time_splits)]
    return MarkovPredictor(kind, specs, eot=eot, tz_offset=tz_offset)


class MarkovPredictor:
    """Sub-models over one record index per order, queried and combined by
    the fuse rule of the model's kind."""

    def __init__(self, kind, submodels, eot=True, tz_offset=0.0):
        self.kind = kind
        self.fuse = KINDS[kind][2]
        self.submodels: list[SubModelSpec] = list(submodels)
        self.eot = eot
        self.tz_offset = tz_offset
        # order -> history tuple -> (sub-model position, day, time) -> record
        self.index: dict[int, dict[tuple, dict[tuple, Context]]] = {s.order: {} for s in self.submodels}
        self._runs_by_hour: dict[int, list] = {}

    def _runs(self, trip_start):
        """The sub-models of a trip starting at ``trip_start``, in sub-model
        order, as runs of one order: (order, [(record key, weight), ...]).
        Memoised by the trip's ``hour_of_week``."""
        hour = hour_of_week(trip_start, self.tz_offset)
        runs = self._runs_by_hour.get(hour)
        if runs is None:
            keyed = [(s.order, (i, *bucketize(trip_start, s.day_split, s.time_split, self.tz_offset)),
                      s.weight) for i, s in enumerate(self.submodels)]
            runs = self._runs_by_hour[hour] = [(order, [(key, w) for _, key, w in run])
                                               for order, run in groupby(keyed, itemgetter(0))]
        return runs

    def train_session(self, nodes, stays, trip_start):
        """Enter every transition of a completed trip, plus an end-of-trip
        transition when enabled: ``nodes`` are the trip's node ids and
        ``stays[i]`` the seconds spent at ``nodes[i]`` before the move to
        ``nodes[i + 1]``. Buckets come from the trip start time."""
        for order, keyed in self._runs(trip_start):
            index = self.index[order]
            steps = [(tuple(nodes[i - order:i]), nodes[i], stays[i - 1]) for i in range(order, len(nodes))]
            if self.eot and len(nodes) >= order:
                steps.append((tuple(nodes[-order:]), EOT, None))
            for history, target, stay in steps:
                records = index.get(history)
                if records is None:
                    records = index[history] = {}
                for key, _ in keyed:
                    ctx = records.get(key)
                    if ctx is None:
                        ctx = records[key] = Context()
                    rec = ctx.get(target)
                    if rec is None:
                        rec = ctx[target] = TargetRecord()
                        if target != EOT and len(ctx) > 1:  # later targets move behind it, in order
                            for t in [t for t in ctx if t == EOT or t > target]:
                                ctx[t] = ctx.pop(t)
                    ctx.total += 1
                    rec.count += 1
                    if stay is not None:
                        rec.stay_sum += stay
                        rec.stay_count += 1

    def predict(self, history, trip_start):
        """Fused next-target distribution, ranked by ``rank``, or None when
        no sub-model knows the context."""
        return self.fuse(self, history, trip_start)

    def memory_bytes(self) -> int:
        """The model's canonical size: per trained context 2 bytes per history
        element and 2 per bucket, then ``TARGET_BYTES`` per target."""
        return sum(2 * order + 4 + TARGET_BYTES * len(ctx)
                   for order, index in self.index.items()
                   for records in index.values() for ctx in records.values())


def dynamic_topn(ranked, threshold, include_eot=True) -> list[Prediction]:
    """The shortest prefix of ``ranked`` predictions whose cumulative
    probability reaches ``threshold``, or all of them. With include_eot=False,
    end-of-trip mass does not count toward it but keeps its place."""
    cum = 0.0
    for i, p in enumerate(ranked, 1):
        if include_eot or p.target != EOT:
            cum += p.probability
        if cum >= threshold:
            return ranked[:i]
    return ranked
