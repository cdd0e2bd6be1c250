"""Acceptance suite: every criterion of the property-based gate, one test per
criterion, each printing a PASS/FAIL line (run pytest with -s to see them all).

The companion GeoLife reproduction harness lives in test_geolife_repro.py and
only runs when GEOLIFE_DATA_DIR is set.
"""
import random
from contextlib import contextmanager

import pytest

from fogrep.experiment import TopologySpec
from fogrep.markov import SubModelSpec, TargetRecord, make_model
from fogrep.policies import PolicyConfig
from fogrep.simengine import run
from fogrep.topology import FixedDelay, build_grid, transfer_time
from fogrep.traces import (ClientTimeline, NodeVisit, Pause, SchedulePattern,
                           SyntheticSpec, synth_generate)

from oracles import (SubModel, TransitionTable, fold_report, from_tables,
                     make_micro_scenario, per_second_metrics, train)

MONDAY_ANCHOR = 345600.0  # 1970-01-05
WEEK = 7 * 86400.0
UNIT_BBOX = (0.0, 1.0, 0.0, 1.0)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {name}: FAIL")
        raise
    print(f"[criterion {num:02d}] {name}: PASS")


def table_of(rows):
    table = TransitionTable()
    for (history, target), (count, stay_sum, stay_count) in rows.items():
        table.entries.setdefault((tuple(history), 0, 0), {})[target] = \
            TargetRecord(count, stay_sum, stay_count)
    return table


def test_criterion_1_fusion_correctness():
    with criterion(1, "fusion correctness"):
        # submodel 1 (weight 1) sees A->B and A->C once each; submodel 2
        # (weight 2) sees A->B only: raw {B: 2.5, C: 0.5} -> {B: 5/6, C: 1/6}
        t1 = table_of({((0,), 1): (1, 100.0, 1), ((0,), 2): (1, 100.0, 1)})
        t2 = table_of({((0,), 1): (3, 300.0, 3)})
        model = from_tables("fomm", [
            SubModel(SubModelSpec(1, 1, 1, 1.0), t1),
            SubModel(SubModelSpec(1, 1, 4, 2.0), t2),
        ])
        preds = {p.target: p.probability for p in model.predict([0], 0.0)}
        assert abs(preds[1] - 5 / 6) <= 1e-12
        assert abs(preds[2] - 1 / 6) <= 1e-12

        rng = random.Random(1)
        for _ in range(200):
            subs = []
            for _ in range(rng.randint(1, 6)):
                rows = {}
                for target in rng.sample(range(1, 8), rng.randint(1, 5)):
                    rows[((0,), target)] = (rng.randint(1, 9), float(rng.randint(60, 900)), 1)
                subs.append(SubModel(SubModelSpec(1, 1, 1, rng.uniform(0.05, 20.0)),
                                     table_of(rows)))
            preds = from_tables("fomm", subs).predict([0], 0.0)
            assert abs(sum(p.probability for p in preds) - 1.0) <= 1e-9


def test_criterion_2_metrics_oracle_equivalence():
    with criterion(2, "interval metrics equal per-second brute force on 200 micro-scenarios"):
        rng = random.Random(20240202)
        for case in range(200):
            timelines, topo, network, config = make_micro_scenario(rng)
            ledger = run(timelines, topo, network, config, record_log=False).ledger
            report = fold_report(ledger, timelines)
            oracle_avail, oracle_excess = per_second_metrics(ledger, timelines)
            assert report.availability == oracle_avail, f"case {case}"
            assert report.excess_ratio == oracle_excess, f"case {case}"


def test_criterion_3_baseline_zero_excess():
    with criterion(3, "baseline produces exactly zero excess data"):
        rng = random.Random(3)
        baseline = PolicyConfig()
        for _ in range(100):
            timelines, topo, network, _ = make_micro_scenario(rng)
            ledger = run(timelines, topo, network, baseline, record_log=False).ledger
            for m in fold_report(ledger, timelines).per_client:
                assert m.excess_ratio == 0.0


def commuter_timeline(weeks, jitter=0.0, seed=None, varied_stays=False):
    first = [(0, 400.0), (1, 600.0), (2, 600.0)] if varied_stays else \
            [(0, 600.0), (1, 600.0), (2, 600.0)]
    second = [(0, 800.0), (1, 600.0), (2, 600.0)] if varied_stays else first
    patterns = [
        SchedulePattern(days=[0, 2, 4], start_clock=8 * 3600, path=first),
        SchedulePattern(days=[1, 3], start_clock=8 * 3600, path=second),
        SchedulePattern(days=[0, 1, 2, 3, 4], start_clock=17 * 3600,
                        path=[(2, 600.0), (1, 600.0), (0, 600.0)]),
    ]
    spec = SyntheticSpec("commuter", weeks, patterns, anchor=MONDAY_ANCHOR, jitter=jitter)
    return synth_generate(spec, noise_seed=seed)


def test_criterion_4_periodic_trace_convergence():
    with criterion(4, "periodic commuter reaches the transfer-delay optimum"):
        tl = commuter_timeline(weeks=12)
        topo = build_grid(1, 3, UNIT_BBOX)
        config = PolicyConfig(name="vomm-k2", predictor="vomm", k=2,
                              topn_mode="fixed", topn_n=1, preload_buffer=86400.0)
        result = run([tl], topo, FixedDelay(300.0), config, record_log=False)
        window = (MONDAY_ANCHOR + 2 * WEEK, MONDAY_ANCHOR + 12 * WEEK)
        measured = fold_report(result.ledger, [tl], window=window).per_client[0].availability
        # the best any policy can do without startup prediction: every session
        # start pays min(transfer, first stay), everything else is covered
        active = miss = 0.0
        for visits in tl.sessions:
            if visits[0].arrival >= window[0] and visits[-1].departure <= window[1]:
                active += visits[-1].departure - visits[0].arrival
                miss += min(300.0, visits[0].departure - visits[0].arrival)
        optimum = 1.0 - miss / active
        assert measured >= 0.99 * optimum

        # top-1 accuracy over week 2 onward is perfect (same plain
        # configuration as the simulated policy: no end-of-trip extension)
        model = make_model("vomm", 2, eot=False)
        checked = wrong = 0
        for visits in tl.sessions:
            trip_start = visits[0].arrival
            history = []
            for i, v in enumerate(visits):
                history.append(v.node)
                if i + 1 < len(visits) and trip_start >= MONDAY_ANCHOR + WEEK:
                    top = model.predict(history, trip_start)[0].target  # ranked: top-1 first
                    checked += 1
                    wrong += top != visits[i + 1].node
            train(model, visits, trip_start)
        assert checked > 0 and wrong == 0


def test_criterion_5_preload_buffer_monotonicity():
    with criterion(5, "preload buffer ordering: availability and excess never decrease"):
        tl = commuter_timeline(weeks=8, jitter=120.0, seed=11, varied_stays=True)
        topo = build_grid(1, 3, UNIT_BBOX)
        results = []
        for buffer_s in (10.0, 60.0, 300.0, 600.0, 86400.0):
            config = PolicyConfig(name=f"buf{buffer_s}", predictor="vomm", k=2,
                                  topn_mode="fixed", topn_n=1, preload_buffer=buffer_s)
            result = run([tl], topo, FixedDelay(300.0), config, record_log=False)
            m = fold_report(result.ledger, [tl]).per_client[0]
            results.append((m.availability, m.excess_ratio))
        avails = [a for a, _ in results]
        excesses = [e for _, e in results]
        assert avails == sorted(avails)
        assert excesses == sorted(excesses)
        assert avails[-1] > avails[0]
        assert excesses[-1] > excesses[0]


def random_walk_timelines(rng, n_clients=4, n_nodes=5, sessions=90):
    timelines = []
    for ci in range(n_clients):
        t = float(rng.randint(0, 1000))
        visit_sessions = []
        pauses = []
        for si in range(sessions):
            length = rng.randint(4, 10)
            path = [rng.randrange(n_nodes)]
            while len(path) < length:
                nxt = rng.randrange(n_nodes)
                if nxt != path[-1]:
                    path.append(nxt)
            visits = []
            for node in path:
                visits.append(NodeVisit(node, t, t + 300.0))
                t += 300.0
            visit_sessions.append(visits)
            if si < sessions - 1:
                pauses.append(Pause(f"w{ci}", path[-1], t, t + 3600.0))
                t += 3600.0
        timelines.append(ClientTimeline(f"w{ci}", visit_sessions, pauses))
    return timelines


def test_criterion_6_momm_order_effect():
    with criterion(6, "fixed-order model: availability and excess non-increasing in k"):
        rng = random.Random(66)
        timelines = random_walk_timelines(rng)
        topo = build_grid(1, 5, UNIT_BBOX)
        avails, excesses = [], []
        for k in range(1, 6):
            config = PolicyConfig(name=f"momm{k}", predictor="momm", k=k,
                                  topn_mode="fixed", topn_n=1, preload_buffer=86400.0)
            result = run(timelines, topo, FixedDelay(120.0), config, record_log=False)
            report = fold_report(result.ledger, timelines)
            avails.append(report.availability)
            excesses.append(report.excess_ratio)
        assert avails == sorted(avails, reverse=True), avails
        assert excesses == sorted(excesses, reverse=True), excesses
        assert avails[0] > avails[-1]
        assert excesses[0] > excesses[-1] > 0.0


def random_training_sessions(rng, n_nodes=5, count=8):
    sessions = []
    for _ in range(count):
        t = 0.0
        path = [rng.randrange(n_nodes)]
        while len(path) < rng.randint(2, 6):
            nxt = rng.randrange(n_nodes)
            if nxt != path[-1]:
                path.append(nxt)
        visits = []
        for node in path:
            stay = float(rng.choice([60, 300, 600]))
            visits.append(NodeVisit(node, t, t + stay))
            t += stay
        sessions.append(visits)
    return sessions


def test_criterion_7_model_properties_on_1000_tables():
    with criterion(7, "weight scaling invariance and variable/fixed-order equivalence"):
        rng = random.Random(7777)
        for _ in range(1000):
            subs = []
            for _ in range(rng.randint(1, 4)):
                rows = {}
                for target in rng.sample(range(1, 7), rng.randint(1, 4)):
                    count = rng.randint(1, 9)  # a record has at most one stay per count
                    rows[((0,), target)] = (count, float(rng.randint(60, 900)),
                                            min(rng.randint(1, 9), count))
                subs.append((rng.uniform(0.1, 10.0), table_of(rows)))
            scale = rng.uniform(0.01, 100.0)
            m1 = from_tables("fomm", [SubModel(SubModelSpec(1, 1, 1, w), t) for w, t in subs])
            m2 = from_tables("fomm", [SubModel(SubModelSpec(1, 1, 1, w * scale), t)
                                      for w, t in subs])
            p1 = {p.target: p.probability for p in m1.predict([0], 0.0)}
            p2 = {p.target: p.probability for p in m2.predict([0], 0.0)}
            assert set(p1) == set(p2)
            for target in p1:
                assert abs(p1[target] - p2[target]) <= 1e-12

        for _ in range(1000):
            seed = rng.randrange(10 ** 9)
            srng = random.Random(seed)
            sessions = random_training_sessions(srng)
            momm = make_model("momm", 1)
            vomm = make_model("vomm", 1)
            for visits in sessions:
                train(momm, visits, 0.0)
                train(vomm, visits, 0.0)
            for node in range(5):
                assert momm.predict([node], 0.0) == vomm.predict([node], 0.0)


def test_criterion_8_transfer_times_exact():
    with criterion(8, "transfer times: 1 GB over the complex network and the fixed delay"):
        _, flow = TopologySpec("complex-81", kind="complex", rows=9, cols=9).build()
        for dst in (0, 40, 80):
            assert transfer_time(dst, flow) == 200.0
        assert transfer_time(77, FixedDelay(300.0)) == 300.0
