import calendar
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogrep.markov import (EOT, Prediction, SubModelSpec, TargetRecord,
                           bucketize, dynamic_topn, make_model, rank)
from fogrep.traces import NodeVisit

from oracles import (SubModel, TransitionTable, from_tables, table_model,
                     tables_of, target_order, train)


def ts(date_s, time_s="00:00:00"):
    y, mo, d = (int(x) for x in date_s.split("-"))
    h, mi, s = (int(x) for x in time_s.split(":"))
    return float(calendar.timegm((y, mo, d, h, mi, s)))


def visits(*spec):
    """visits(('A', 0, 600), ...) with string node labels A=0, B=1, ..."""
    out = []
    for node, a, b in spec:
        nid = node if isinstance(node, int) else ord(node) - ord("A")
        out.append(NodeVisit(nid, float(a), float(b)))
    return out


A, B, C, D = 0, 1, 2, 3


def contexts(m, submodel=0):
    """One sub-model's records as {(history, day, time): {target: TargetRecord}}."""
    return {(history, day, tod): ctx
            for index in m.index.values() for history, records in index.items()
            for (i, day, tod), ctx in records.items() if i == submodel}


class TestBucketize:
    def test_saturday_afternoon(self):
        t = ts("2022-01-08", "13:30:00")  # a Saturday
        assert bucketize(t, 2, 4) == (1, 2)

    def test_degenerate_split(self):
        assert bucketize(ts("2023-06-14", "17:45:00"), 1, 1) == (0, 0)

    def test_monday_midnight(self):
        t = ts("2022-01-03")  # a Monday
        assert bucketize(t, 7, 24) == (0, 0)

    def test_weekday_index(self):
        for offset, expected in enumerate([0, 1, 2, 3, 4, 5, 6]):
            assert bucketize(ts("2022-01-03") + offset * 86400, 7, 1) == (expected, 0)

    def test_tz_offset_shifts_hour(self):
        t = ts("2008-10-23", "02:53:04")
        assert bucketize(t, 1, 24) == (0, 2)
        assert bucketize(t, 1, 24, tz_offset=8 * 3600) == (0, 10)

    def test_negative_time_floors_to_the_previous_day(self):
        assert bucketize(-3600.0, 7, 24) == (2, 23)  # Wednesday 23:00, before the epoch's Thursday
        assert bucketize(-3600.0, 2, 4, tz_offset=3600.0) == (0, 0)


class TestTrainSession:
    def test_order1_counts_and_stays(self):
        m = make_model("momm", 1)
        train(m, visits(("A", 0, 600), ("B", 600, 900)), 0.0)
        table = contexts(m)
        rec = table.get(((A,), 0, 0))
        assert rec[B].count == 1 and rec[B].stay_sum == 600.0 and rec[B].stay_count == 1
        eot = table.get(((B,), 0, 0))
        assert eot[EOT].count == 1 and eot[EOT].stay_count == 0
        assert len(table) == 2

    def test_single_visit_only_eot(self):
        m = make_model("momm", 1)
        train(m, visits(("A", 0, 100)), 0.0)
        table = contexts(m)
        assert len(table) == 1
        assert table.get(((A,), 0, 0))[EOT].count == 1

    def test_order2_two_visits_only_eot(self):
        m = make_model("momm", 2)
        train(m, visits(("A", 0, 600), ("B", 600, 900)), 0.0)
        table = contexts(m)
        assert len(table) == 1
        assert table.get(((A, B), 0, 0))[EOT].count == 1

    def test_eot_disabled_records_no_eot(self):
        m = make_model("momm", 1, eot=False)
        train(m, visits(("A", 0, 600), ("B", 600, 900)), 0.0)
        table = contexts(m)
        assert table.get(((B,), 0, 0)) is None


class TestMommPredict:
    def model_of(self, counts):
        """An order-1 momm model of these counts, built in the table oracle."""
        table = TransitionTable()
        for (ctx, target), n in counts.items():
            for _ in range(n):
                table.add((ctx, 0, 0), target, 100.0 if target != EOT else None)
        return from_tables("momm", [SubModel(SubModelSpec(1, 1, 1, 1.0), table)])

    def test_count_arithmetic(self):
        m = self.model_of({((A,), B): 2, ((A,), C): 1})
        preds = m.predict([A], 0.0)
        assert {p.target: p.probability for p in preds} == {B: 2 / 3, C: 1 / 3}

    def test_unseen_history_is_none(self):
        m = self.model_of({((A,), B): 1})
        assert m.predict([C], 0.0) is None

    def test_eot_only(self):
        m = self.model_of({((A,), EOT): 1})
        preds = m.predict([A], 0.0)
        assert [(p.target, p.probability) for p in preds] == [(EOT, 1.0)]
        assert preds[0].expected_stay is None

    def test_expected_stay_is_mean(self):
        m = make_model("momm", 1)
        train(m, visits(("A", 0, 100), ("B", 100, 200)), 0.0)
        train(m, visits(("A", 0, 300), ("B", 300, 400)), 0.0)
        preds = m.predict([A], 0.0)
        by_target = {p.target: p for p in preds}
        assert by_target[B].expected_stay == pytest.approx((100 + 300) / 2)


class TestVommPredict:
    def test_higher_order_wins(self):
        m = make_model("vomm", 2)
        # order-2 contexts come from sessions of length >= 3
        train(m, visits(("A", 0, 100), ("B", 100, 200), ("C", 200, 300)), 0.0)
        train(m, visits(("D", 0, 100), ("B", 100, 200), ("D", 200, 250)), 0.0)
        preds = m.predict([A, B], 0.0)
        assert {p.target: p.probability for p in preds if p.target != EOT} == {C: 1.0}

    def test_fallback_to_order1(self):
        m = make_model("vomm", 2)
        train(m, visits(("A", 0, 100), ("B", 100, 200), ("C", 200, 300)), 0.0)
        preds = m.predict([D, A], 0.0)  # order-2 context (D, A) unseen; order-1 (A,) known
        assert {p.target for p in preds} == {B}

    def test_all_orders_miss(self):
        m = make_model("vomm", 3)
        train(m, visits(("A", 0, 100), ("B", 100, 200)), 0.0)
        assert m.predict([C], 0.0) is None

    def test_untrained_is_none(self):
        assert make_model("vomm", 2).predict([A], 0.0) is None


def fomm_from_tables(specs_tables, eot=True):
    subs = [SubModel(SubModelSpec(*spec), table) for spec, table in specs_tables]
    return from_tables("fomm", subs, eot=eot)


def table_of(order, rows):
    """rows: {(history, target): (count, stay_sum, stay_count)} at buckets (0, 0)."""
    table = TransitionTable()
    for (history, target), (count, stay_sum, stay_count) in rows.items():
        rec = table.entries.setdefault((tuple(history), 0, 0), {})
        rec[target] = TargetRecord(count, stay_sum, stay_count)
    return table


class TestFommPredict:
    def test_single_submodel_weight_cancels(self):
        t1 = table_of(1, {((A,), B): (1, 100.0, 1), ((A,), C): (1, 100.0, 1)})
        m = fomm_from_tables([((1, 1, 1, 3.0), t1)])
        preds = m.predict([A], 0.0)
        assert {p.target: p.probability for p in preds} == {B: 0.5, C: 0.5}

    def test_two_submodel_fusion(self):
        # submodel 1, weight 1: {B: 0.5, C: 0.5}; submodel 2, weight 2: {B: 1.0}
        t1 = table_of(1, {((A,), B): (1, 100.0, 1), ((A,), C): (1, 100.0, 1)})
        t2 = table_of(1, {((A,), B): (3, 300.0, 3)})
        m = fomm_from_tables([((1, 1, 1, 1.0), t1), ((1, 1, 4, 2.0), t2)])
        preds = {p.target: p.probability for p in m.predict([A], 0.0)}
        assert preds[B] == pytest.approx(5 / 6, abs=1e-12)
        assert preds[C] == pytest.approx(1 / 6, abs=1e-12)

    def test_normalizes_by_the_left_to_right_sum(self):
        # 1/6 + 4/6 + 1/6 is 1.0 under the compensated sum() of Python 3.12
        # and later, but one ulp below it summed left to right, as on 3.11
        t1 = table_of(1, {((A,), B): (1, 60.0, 1), ((A,), C): (4, 60.0, 1), ((A,), D): (1, 60.0, 1)})
        total = 1 / 6 + 4 / 6 + 1 / 6
        assert total != 1.0
        preds = fomm_from_tables([((1, 1, 1, 1.0), t1)]).predict([A], 0.0)
        assert [(p.target, p.probability) for p in preds] == [(C, 4 / 6 / total), (B, 1 / 6 / total),
                                                              (D, 1 / 6 / total)]

    def test_untrained_is_none(self):
        assert make_model("fomm", 2, (1, 2), (1, 4)).predict([A], 0.0) is None

    def test_stay_fusion_weighted_average(self):
        t1 = table_of(1, {((A,), B): (1, 100.0, 1)})   # stay 100
        t2 = table_of(1, {((A,), B): (1, 400.0, 1)})   # stay 400
        m = fomm_from_tables([((1, 1, 1, 1.0), t1), ((1, 1, 4, 3.0), t2)])
        (pred,) = m.predict([A], 0.0)
        assert pred.expected_stay == pytest.approx((1 * 100 + 3 * 400) / 4)

    def test_submodel_count_is_cartesian_product(self):
        m = make_model("fomm", 2, day_splits=(1, 2, 7), time_splits=(1, 4, 24))
        assert len(m.submodels) == 2 * 3 * 3
        m5 = make_model("fomm", 5, day_splits=(1, 2), time_splits=(1, 4))
        assert len(m5.submodels) == 5 * 2 * 2


def ranked(dist):
    """{target: probability} as predictions ranked as a model ranks them."""
    return sorted((Prediction(t, p) for t, p in dist.items()), key=rank)


def topn(dist, threshold, include_eot=True):
    return [p.target for p in dynamic_topn(ranked(dist), threshold, include_eot)]


class TestDynamicTopN:
    def test_prefix_two(self):
        # prefix sums: 0.7, then 0.95 >= 0.9
        assert topn({B: 0.7, C: 0.25, D: 0.05}, 0.9) == [B, C]

    def test_prefix_three(self):
        # prefix sums: 0.6, 0.85, then 1.0 >= 0.9
        assert topn({B: 0.6, C: 0.25, D: 0.15}, 0.9) == [B, C, D]

    def test_certain_single(self):
        assert topn({B: 1.0}, 0.5) == [B]

    def test_threshold_one_returns_all(self):
        assert topn({B: 0.5, C: 0.3, D: 0.2}, 1.0) == [B, C, D]

    def test_tie_breaks(self):
        assert topn({D: 0.25, B: 0.25, EOT: 0.25, C: 0.25}, 1.0) == [B, C, D, EOT]

    def test_eot_excluded_from_threshold(self):
        assert topn({EOT: 0.6, B: 0.4}, 0.9) == [EOT, B]
        # without counting the end-of-trip mass, B alone cannot reach 0.9
        assert topn({EOT: 0.6, B: 0.4}, 0.9, include_eot=False) == [EOT, B]
        assert topn({EOT: 0.6, B: 0.4}, 0.4, include_eot=False) == [EOT, B]
        assert topn({B: 0.6, EOT: 0.4}, 0.5, include_eot=False) == [B]

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.sampled_from([EOT, A, B, C, D]), st.integers(1, 6), min_size=1),
           st.sampled_from([0.1, 0.5, 0.9, 0.99, 1.0]), st.booleans())
    def test_the_cut_is_the_shortest_prefix_that_reaches_the_threshold(self, counts, threshold, include_eot):
        total = sum(counts.values())
        preds = ranked({t: n / total for t, n in counts.items()})
        chosen = dynamic_topn(preds, threshold, include_eot)

        def counted(prefix):
            mass = 0.0  # left to right, as the cut adds
            for p in prefix:
                if include_eot or p.target != EOT:
                    mass += p.probability
            return mass

        assert chosen == preds[:len(chosen)]
        assert counted(chosen) >= threshold or chosen == preds
        assert counted(chosen[:-1]) < threshold


class TestMemoryAndPersistence:
    def test_empty_model_zero(self):
        assert make_model("momm", 1).memory_bytes() == 0

    def test_single_entry_single_target(self):
        m = make_model("momm", 1, eot=False)
        train(m, visits(("A", 0, 600), ("B", 600, 900)), 0.0)
        # 2 bytes history + 4 bytes buckets + (4 + 4 + 8 + 4) per target
        assert m.memory_bytes() == 26

    def test_growth_is_monotonic(self):
        m = make_model("vomm", 2)
        rng = random.Random(1)
        prev = 0
        for _ in range(20):
            session = visits(*[(rng.randint(0, 3), i * 100, (i + 1) * 100) for i in range(4)])
            session = [v for i, v in enumerate(session)
                       if i == 0 or v.node != session[i - 1].node]
            fixed = []
            t = 0.0
            for v in session:
                fixed.append(NodeVisit(v.node, t, t + 100.0))
                t += 100.0
            train(m, fixed, 0.0)
            size = m.memory_bytes()
            assert size >= prev
            prev = size

    def test_data_sections_equal_memory_metric(self):
        """``memory_bytes`` is the size of the canonical serialization's
        data sections, as the oracle writes them."""
        import struct
        m = make_model("vomm", 3)
        train(m, visits(("A", 0, 600), ("B", 600, 900), ("C", 900, 1000)), 0.0)
        blob = tables_of(m).save_bytes()
        off = len(b"FGMK1\n")
        (hlen,) = struct.unpack_from("<I", blob, off)
        off += 4 + hlen
        data_bytes = 0
        for sm in m.submodels:
            (n_entries,) = struct.unpack_from("<I", blob, off)
            off += 4
            counts = struct.unpack_from(f"<{n_entries}H", blob, off)
            off += 2 * n_entries
            section = sum(2 * sm.order + 4 + 20 * c for c in counts)
            data_bytes += section
            off += section
        assert off == len(blob)
        assert data_bytes == m.memory_bytes()


def random_momm(rng, k=1, nodes=4, sessions=6, eot=True):
    m = table_model("momm", k, eot=eot)
    for _ in range(sessions):
        length = rng.randint(2, 6)
        path = [rng.randrange(nodes)]
        while len(path) < length:
            nxt = rng.randrange(nodes)
            if nxt != path[-1]:
                path.append(nxt)
        t = 0.0
        vs = []
        for n in path:
            stay = rng.choice([60.0, 120.0, 600.0])
            vs.append(NodeVisit(n, t, t + stay))
            t += stay
        m.train_session(vs, 0.0)
    return m


class TestProperties:
    @given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=8))
    def test_normalization(self, weights):
        tables = []
        rng = random.Random(99)
        for i, w in enumerate(weights):
            rows = {}
            for target in range(rng.randint(1, 4)):
                count = rng.randint(1, 5)  # a record has at most one stay per count
                rows[((A,), target + 1)] = (count, 100.0, min(rng.randint(1, 5), count))
            tables.append(((1, 1, 1, w), table_of(1, rows)))
        m = fomm_from_tables(tables)
        preds = m.predict([A], 0.0)
        assert abs(sum(p.probability for p in preds) - 1.0) <= 1e-9

    def test_fusion_dominance(self):
        # identical distributions in every submodel pass through unchanged
        rows = {((A,), B): (3, 300.0, 3), ((A,), C): (1, 50.0, 1)}
        m = fomm_from_tables([((1, 1, 1, 1.0), table_of(1, dict(rows))),
                              ((1, 1, 4, 7.0), table_of(1, dict(rows))),
                              ((1, 2, 1, 0.5), table_of(1, dict(rows)))])
        preds = {p.target: p.probability for p in m.predict([A], 0.0)}
        assert preds[B] == pytest.approx(0.75, abs=1e-12)
        assert preds[C] == pytest.approx(0.25, abs=1e-12)

    def test_weight_scaling_invariance(self):
        rng = random.Random(17)
        for _ in range(50):
            tables = []
            for i in range(rng.randint(1, 4)):
                rows = {}
                for target in rng.sample(range(1, 6), rng.randint(1, 4)):
                    rows[((A,), target)] = (rng.randint(1, 9), float(rng.randint(1, 900)), 1)
                tables.append([(1, 1, 1, rng.uniform(0.1, 10.0)), table_of(1, rows)])
            scale = rng.uniform(0.01, 100.0)
            m1 = fomm_from_tables([(tuple(spec), t) for spec, t in tables])
            scaled = [((spec[0], spec[1], spec[2], spec[3] * scale), t) for spec, t in tables]
            m2 = fomm_from_tables(scaled)
            p1 = {p.target: p.probability for p in m1.predict([A], 0.0)}
            p2 = {p.target: p.probability for p in m2.predict([A], 0.0)}
            assert set(p1) == set(p2)
            for t in p1:
                assert p1[t] == pytest.approx(p2[t], abs=1e-12)

    def test_vomm1_equals_momm1(self):
        rng = random.Random(4)
        for trial in range(25):
            seed = rng.randrange(10 ** 9)
            tables = random_momm(random.Random(seed), k=1)
            vomm_tables = table_model("vomm", 1)
            for sm_m, sm_v in zip(tables.submodels, vomm_tables.submodels):
                sm_v.table.entries = sm_m.table.entries
            momm = from_tables("momm", tables.submodels)
            vomm = from_tables("vomm", vomm_tables.submodels)
            for history in ([0], [1], [2], [3]):
                a = momm.predict(history, 0.0)
                b = vomm.predict(history, 0.0)
                assert a == b

    def test_periodic_trace_converges_to_perfect_top1(self):
        # one training period over a fixed daily loop, then every context's
        # top-1 equals the realized next node
        loop = [(0, 600.0), (1, 900.0), (2, 600.0), (3, 300.0)]
        m = make_model("vomm", 2, eot=True)
        day = []
        t = 0.0
        for node, stay in loop:
            day.append(NodeVisit(node, t, t + stay))
            t += stay
        train(m, day, 0.0)
        history = []
        for i, v in enumerate(day[:-1]):
            history.append(v.node)
            preds = m.predict(history, 0.0)
            top = max(preds, key=lambda p: (p.probability, p.target != EOT))
            assert top.target == day[i + 1].node


ANCHOR = ts("2008-10-20")  # a Monday
# few node ids, so that contexts recur with several targets and the fused
# sums depend on the order of the sub-models
TRIPS = st.lists(st.tuples(
    st.lists(st.tuples(st.integers(0, 3), st.floats(0.0, 3600.0)), min_size=2, max_size=6),
    st.floats(ANCHOR, ANCHOR + 14 * 86400.0)), min_size=3, max_size=10)


class TestOracleAgreement:
    @settings(max_examples=50, deadline=None)
    @given(TRIPS, st.integers(1, 3), st.booleans(), st.sampled_from([8 * 3600.0, -5.5 * 3600.0]),
           st.sets(st.sampled_from((1, 2, 7)), min_size=1),
           st.sets(st.sampled_from((1, 4, 24)), min_size=1))
    def test_index_matches_tables(self, trips, k, eot, tz_offset, day_splits, time_splits):
        """Every kind, trained on the same trips, predicts every prefix, holds
        the same tables, targets in the same order, and sizes exactly as the
        one-table-per-sub-model oracle."""
        for kind in ("momm", "vomm", "fomm"):
            splits = (day_splits, time_splits) if kind == "fomm" else ((1,), (1,))
            m = make_model(kind, k, *splits, eot=eot, tz_offset=tz_offset)
            oracle = table_model(kind, k, *splits, eot=eot, tz_offset=tz_offset)
            for path, start in trips:
                nodes = [node for node, _ in path]
                for i in range(1, len(nodes) + 1):
                    assert repr(m.predict(nodes[:i], start)) == repr(oracle.predict(nodes[:i], start))
                t, trip = start, []
                for node, stay in path:
                    trip.append(NodeVisit(node, t, t + stay))
                    t += stay
                train(m, trip, start)
                oracle.train_session(trip, start)
            got = tables_of(m)
            assert [sm.spec for sm in got.submodels] == [sm.spec for sm in oracle.submodels]
            for sm, want in zip(got.submodels, oracle.submodels):
                assert {c: list(t.items()) for c, t in sm.table.entries.items()} == \
                       {c: target_order(t) for c, t in want.table.entries.items()}
            assert m.memory_bytes() == oracle.memory_bytes()

    @settings(max_examples=50, deadline=None)
    @given(TRIPS, st.integers(1, 3), st.booleans(), st.sampled_from([0.0, 8 * 3600.0]),
           st.sampled_from(["vomm", "fomm"]))
    def test_predictions_are_ranked(self, trips, k, eot, tz_offset, kind):
        """A trained model's predictions are sorted by ``rank`` and are the
        oracle's predictions ranked the same way."""
        splits = ((1, 2, 7), (1, 4, 24)) if kind == "fomm" else ((1,), (1,))
        m = make_model(kind, k, *splits, eot=eot, tz_offset=tz_offset)
        oracle = table_model(kind, k, *splits, eot=eot, tz_offset=tz_offset)
        for path, start in trips:
            t, trip = start, []
            for node, stay in path:
                trip.append(NodeVisit(node, t, t + stay))
                t += stay
            train(m, trip, start)
            oracle.train_session(trip, start)
        for path, start in trips:
            nodes = [node for node, _ in path]
            for i in range(1, len(nodes) + 1):
                preds = m.predict(nodes[:i], start)
                assert preds == oracle.predict(nodes[:i], start)
                assert preds is None or preds == sorted(preds, key=rank)


class TestHourOfWeekMemo:
    """A model resolves a trip's buckets once per local hour of the week;
    each case predicts every prefix, before and after training, as the
    oracle does, which buckets every query afresh."""

    def check(self, trips, tz_offset=0.0):
        for kind, splits in (("vomm", ((1,), (1,))), ("fomm", ((1, 2, 7), (1, 4, 24)))):
            m = make_model(kind, 2, *splits, tz_offset=tz_offset)
            oracle = table_model(kind, 2, *splits, tz_offset=tz_offset)
            for _ in range(2):
                for nodes, start in trips:
                    for i in range(1, len(nodes) + 1):
                        assert repr(m.predict(nodes[:i], start)) == repr(oracle.predict(nodes[:i], start))
                    trip = [NodeVisit(n, start + 60.0 * j, start + 60.0 * (j + 1)) for j, n in enumerate(nodes)]
                    train(m, trip, start)
                    oracle.train_session(trip, start)
        return m

    def test_same_hour_a_week_apart_shares_buckets(self):
        monday_nine = ANCHOR + 9 * 3600.0
        m = self.check([([A, B, C], monday_nine), ([A, B, D], monday_nine + 7 * 86400.0 + 3599.0)])
        assert len(m._runs_by_hour) == 1

    def test_next_hour_and_next_day_do_not(self):
        monday_nine = ANCHOR + 9 * 3600.0
        m = self.check([([A, B, C], monday_nine), ([A, B, D], monday_nine + 3600.0),
                        ([A, B, C], monday_nine + 86400.0)])
        assert len(m._runs_by_hour) == 3

    def test_tz_offset_moves_the_weekday(self):
        sunday_eight_pm = ANCHOR - 4 * 3600.0  # Monday 04:00 at UTC+8, Sunday 14:30 at UTC-5:30
        for tz_offset in (8 * 3600.0, -5.5 * 3600.0):
            self.check([([A, B, C], sunday_eight_pm), ([A, B, D], sunday_eight_pm + 86400.0),
                        ([A, C], sunday_eight_pm + 6 * 86400.0)], tz_offset)
        # one UTC hour, two local hours: 08:40 and 09:20 at UTC-5:30
        self.check([([A, B, C], ANCHOR + 14 * 3600.0 + 600.0), ([A, B, D], ANCHOR + 14 * 3600.0 + 3000.0)],
                   -5.5 * 3600.0)

    def test_negative_times_floor_to_the_previous_day(self):
        # -3600 s is Wednesday 23:00, the hour before the epoch's Thursday;
        # -0.5 s truncates to 0, Thursday 00:00
        self.check([([A, B, C], -3600.0), ([A, B, D], -0.5), ([A, C], -7 * 86400.0 - 3600.0),
                    ([B, C], -86400.0 * 3.5)])
        self.check([([A, B, C], -3600.0), ([A, B, D], 1800.0)], tz_offset=-7200.0)


# Fixed training trips: (node, stay) paths with their start times.
GOLDEN_TRIPS = [
    ([(0, 600), (1, 300), (2, 900)], ts("2008-10-23", "02:53:04")),
    ([(0, 500), (2, 400)], ts("2008-10-24", "08:00:00")),
    ([(3, 120), (1, 60), (0, 240), (1, 30)], ts("2008-10-25", "18:30:00")),
    ([(4464, 100), (1, 200), (2, 300)], ts("2008-10-26", "23:59:59")),
]

# kind -> (SHA-256 of the canonical serialization, memory_bytes()) for the
# models below, recorded with the one-class-per-kind implementation the
# models started with; the tables and the sizes must never drift.
GOLDEN_FILES = {
    "momm": ("677c772683074a31e3930bd6ab6d155bd80ccc2002216031f3844a117ad99d42", 188),
    "vomm": ("d31c970e81f6fdacb7ffdf8e76639ce87f7fa9573b8fa8223fdd51b5a4798f92", 498),
    "fomm": ("0403e1d0247e08b5e546bbcaef98b69005276c0a86958ca0bf7fb103ceea952d", 4346),
}


def golden_model(kind):
    if kind == "fomm":
        m = make_model("fomm", 2, day_splits=(1, 2, 7), time_splits=(1, 4, 24),
                       tz_offset=8 * 3600.0)
    else:
        m = make_model(kind, 2 if kind == "momm" else 3)
    for path, start in GOLDEN_TRIPS:
        t, trip = start, []
        for node, stay in path:
            trip.append(NodeVisit(node, t, t + stay))
            t += stay
        train(m, trip, start)
    return m


class TestGoldenPersistence:
    @pytest.mark.parametrize("kind", sorted(GOLDEN_FILES))
    def test_digest_sizes_and_round_trip(self, kind):
        """The model's tables, written by the oracle, hash as recorded; the
        model rebuilt from those tables predicts and sizes as it does."""
        m = golden_model(kind)
        tables = tables_of(m)
        blob = tables.save_bytes()
        digest, size = GOLDEN_FILES[kind]
        assert hashlib.sha256(blob).hexdigest() == digest
        assert m.memory_bytes() == size
        loaded = from_tables(kind, tables.submodels, eot=m.eot, tz_offset=m.tz_offset)
        assert tables_of(loaded).save_bytes() == blob
        assert loaded.memory_bytes() == size
        for path, start in GOLDEN_TRIPS:
            nodes = [n for n, _ in path]
            for i in range(1, len(nodes) + 1):
                assert loaded.predict(nodes[:i], start) == m.predict(nodes[:i], start)
