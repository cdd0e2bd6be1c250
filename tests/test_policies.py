import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogrep.errors import ConfigError
from fogrep.experiment import parse_policy
from fogrep.markov import EOT
from fogrep.policies import PolicyConfig, Replicate, ReplicaPolicy, Retain
from fogrep.simengine import run
from fogrep.topology import FixedDelay, build_grid
from fogrep.traces import ClientTimeline, NodeVisit, Pause

from oracles import (make_micro_scenario, make_rescheduling_scenario, table_model,
                     tables_of, target_order)

A, B, C, D = 0, 1, 2, 3

COMMUTE = ((A, 600.0), (B, 600.0), (C, 600.0))


def engine_run(config, *sessions, transfer=300.0):
    """``simengine.run`` of one client on a 1x4 grid; sessions are lists of
    (node, arrival, departure)."""
    visits = [[NodeVisit(n, float(a), float(d)) for n, a, d in sess] for sess in sessions]
    pauses = [Pause("c", before[-1].node, before[-1].departure, after[0].arrival)
              for before, after in zip(visits, visits[1:])]
    return run([ClientTimeline("c", visits, pauses)], build_grid(1, 4, (0.0, 1.0, 0.0, 1.0)),
               FixedDelay(transfer), config)


def commute_sessions(days, path=COMMUTE, pause=80000.0):
    """The sessions ``train_commute`` drives, as engine input, and the time after them."""
    sessions, t = [], 0.0
    for _ in range(days):
        session = []
        for node, stay in path:
            session.append((node, t, t + stay))
            t += stay
        sessions.append(session)
        t += pause
    return sessions, t


BASELINE = PolicyConfig()


def baseline():
    return ReplicaPolicy(BASELINE, lambda node: 0.0)


def predictive(transfer=300.0, **kwargs):
    defaults = dict(predictor="vomm", k=2)
    defaults.update(kwargs)
    cfg = PolicyConfig(name="pred", **defaults)
    return ReplicaPolicy(cfg, transfer_estimate=lambda node: transfer)


def train_commute(policy, days=2, path=COMMUTE, pause=80000.0):
    """Drive full sessions through the policy so its model learns the route."""
    sessions, t = commute_sessions(days, path, pause)
    for session in sessions:
        policy.on_session_start(session[0][0], session[0][1])
        for node, arrival, _ in session[1:]:
            policy.on_arrival(node, arrival)
        policy.on_session_end(session[-1][0], session[-1][2])
    return t


class TestBaseline:
    def test_cold_start_replicates(self):
        actions = baseline().on_session_start(A, 100.0)
        assert actions == [Replicate(A, 100.0)]

    def test_retained_hit_needs_no_replicate(self):
        # the handler wants A again at the restart; the engine has it retained,
        # so no transfer starts for it
        config = PolicyConfig(startup_mode="short_pause", short_pause_duration=600.0)
        policy = ReplicaPolicy(config, lambda node: 0.0)
        policy.on_session_start(A, 0.0)
        policy.on_session_end(A, 1000.0)
        assert policy.on_session_start(A, 1400.0) == [Replicate(A, 1400.0)]
        result = engine_run(config, [(A, 0, 1000)], [(A, 1400, 2000)])
        assert [(e.t, e.node) for e in result.event_log if e.kind == "TransferStart"] == [(0.0, A)]
        assert result.ledger[("c", A)] == [(300.0, 2000.0)]

    def test_arrival_drops_previous(self):
        policy = baseline()
        policy.on_session_start(A, 0.0)
        actions = policy.on_arrival(B, 50.0)
        assert actions == [Replicate(B, 50.0)]
        # the engine drops the copy at A, which the handler no longer names
        result = engine_run(BASELINE, [(A, 0, 500), (B, 500, 1000)])
        assert result.ledger[("c", A)] == [(300.0, 500.0)]

    def test_session_end_deletes(self):
        policy = baseline()
        policy.on_session_start(A, 0.0)
        actions = policy.on_session_end(A, 500.0)
        assert actions == []
        result = engine_run(BASELINE, [(A, 0, 500)], [(B, 1000, 2000)])
        assert result.ledger[("c", A)] == [(300.0, 500.0)]

    def test_no_memory(self):
        assert baseline().memory_bytes() == 0


class TestPredictive:
    def test_untrained_behaves_as_baseline(self):
        policy = predictive()
        assert policy.on_session_start(A, 0.0) == [Replicate(A, 0.0)]
        assert policy.on_arrival(B, 60.0) == [Replicate(B, 60.0)]

    def test_preload_timing_rule(self):
        # expected stay 600, transfer 300, buffer 10 -> replicate at t + 290
        policy = predictive(transfer=300.0, preload_buffer=10.0)
        train_commute(policy, days=1)
        t0 = 1_000_000.0
        actions = policy.on_session_start(A, t0)
        assert Replicate(A, t0) in actions
        assert Replicate(B, t0 + 600.0 - 300.0 - 10.0) in actions

    def test_large_buffer_preloads_immediately(self):
        policy = predictive(transfer=300.0, preload_buffer=86400.0)
        train_commute(policy, days=1)
        t0 = 1_000_000.0
        actions = policy.on_session_start(A, t0)
        assert Replicate(B, t0) in actions

    def test_buffer_larger_than_lead_clamps_to_now(self):
        policy = predictive(transfer=300.0, preload_buffer=500.0)
        train_commute(policy, days=1)
        t0 = 2_000.0
        actions = policy.on_session_start(A, t0)
        assert Replicate(B, t0) in actions

    def test_eot_top1_schedules_nothing(self):
        policy = predictive(eot=True, topn_mode="dynamic", topn_threshold=0.9)
        train_commute(policy, days=3)
        # at the end of the commute path, C's only successor in training is EOT
        policy.on_session_start(A, 10_000_000.0)
        policy.on_arrival(B, 10_000_600.0)
        actions = policy.on_arrival(C, 10_001_200.0)
        assert actions == [Replicate(C, 10_001_200.0)]

    def test_unjustified_predicted_replicas_deleted_on_next_arrival(self):
        policy = predictive()
        t0 = train_commute(policy, days=2)
        assert Replicate(B, t0) in policy.on_session_start(A, t0)
        # the preload for B is in flight when the client unexpectedly moves to D
        assert policy.on_arrival(D, t0 + 60.0) == [Replicate(D, t0 + 60.0)]
        sessions, t0 = commute_sessions(days=2)
        result = engine_run(policy.config, *sessions, [(A, t0, t0 + 60), (D, t0 + 60, t0 + 660)])
        day3 = [(e.t, e.kind) for e in result.event_log if e.t >= t0 and e.node in (A, B)]
        assert day3 == [(t0, "SessionStart"), (t0, "TransferStart"), (t0, "TransferStart")]
        assert all(b <= t0 for node in (A, B) for _, b in result.ledger[("c", node)])

    def test_fixed_top1_single_replication(self):
        policy = predictive(topn_mode="fixed", topn_n=1, eot=False,
                            preload_buffer=86400.0)
        train_commute(policy, days=2)
        t0 = 30_000_000.0
        actions = policy.on_session_start(A, t0)
        replicates = [a for a in actions if isinstance(a, Replicate) and a.node != A]
        assert len(replicates) == 1

    def test_fixed_n_replicates_the_highest_ranked_targets(self):
        # from A the client went on to D three times, B twice and C once
        for n, want in ((2, [D, B]), (5, [D, B, C])):
            policy = ReplicaPolicy(parse_policy({"predictor": {"type": "vomm", "k": 1},
                                                 "topn": {"type": "fixed", "n": n}}), lambda node: 300.0)
            for after in (D, D, D, B, B, C):
                train_commute(policy, days=1, path=((A, 600.0), (after, 600.0)))
            t0 = 1_000_000.0
            assert policy.on_session_start(A, t0) == [Replicate(node, t0) for node in [A, *want]]

    def test_memory_grows_with_training(self):
        policy = predictive()
        assert policy.memory_bytes() == 0
        train_commute(policy, days=1)
        assert policy.memory_bytes() > 0


class TestSessionEnd:
    def test_short_pause_fixed_retains(self):
        policy = ReplicaPolicy(PolicyConfig(
            startup_mode="short_pause", short_pause_mode="fixed", short_pause_duration=600.0), lambda node: 0.0)
        policy.on_session_start(A, 0.0)
        actions = policy.on_session_end(A, 1000.0)
        assert actions == [Retain(A, 1600.0)]

    def test_plmm_mismatch_deletes(self):
        config = PolicyConfig(startup_mode="plmm")
        policy = ReplicaPolicy(config, lambda node: 0.0)
        # teach the pause model that shutting down at A restarts at B
        sessions = [[(A, 0, 1000)], [(B, 1400, 2400)], [(A, 2800, 3800)], [(B, 4200, 5200)]]
        for (session,) in sessions[:3]:
            policy.on_session_start(session[0], float(session[1]))
            actions = policy.on_session_end(session[0], float(session[2]))
        assert actions == []
        # the engine drops A's copy at the session end
        result = engine_run(config, *sessions)
        assert result.ledger[("c", A)] == [(300.0, 1000.0), (3100.0, 3800.0)]

    def test_plmm_match_retains_padded(self):
        policy = ReplicaPolicy(PolicyConfig(startup_mode="plmm", plmm_threshold=1500.0), lambda node: 0.0)
        policy.on_session_start(A, 0.0)
        policy.on_session_end(A, 100.0)
        policy.on_session_start(A, 700.0)  # pause 600 at same node
        actions = policy.on_session_end(A, 800.0)
        assert actions == [Retain(A, 800.0 + 600.0 * 1.5)]

    def test_outstanding_predictions_deleted_at_end(self):
        policy = predictive(startup_mode="none")
        t0 = train_commute(policy, days=1)
        assert Replicate(B, t0) in policy.on_session_start(A, t0)
        assert policy.on_session_end(A, t0 + 50.0) == []
        # B's preload is in flight at the session end: the engine drops it
        sessions, t0 = commute_sessions(days=1)
        result = engine_run(policy.config, *sessions, [(A, t0, t0 + 50)], [(C, t0 + 1000, t0 + 2000)])
        assert [(e.t, e.kind, e.node) for e in result.event_log if t0 <= e.t < t0 + 1000] == [
            (t0, "SessionStart", A), (t0, "TransferStart", A), (t0, "TransferStart", B),
            (t0 + 50.0, "SessionEnd", A)]
        assert all(b <= t0 for node in (A, B) for _, b in result.ledger[("c", node)])


class TestCombinationComposes:
    def test_arrival_matches_pure_predictor_and_end_matches_pure_retention(self):
        kwargs = dict(predictor="fomm", k=2, day_splits=(1,), time_splits=(1,),
                      eot=True, topn_mode="dynamic", topn_threshold=0.9)
        combo = ReplicaPolicy(PolicyConfig(name="combo", startup_mode="short_pause",
                                           short_pause_duration=600.0, **kwargs),
                              transfer_estimate=lambda n: 300.0)
        pure_pred = ReplicaPolicy(PolicyConfig(name="fomm", startup_mode="none", **kwargs),
                                  transfer_estimate=lambda n: 300.0)
        pure_pause = ReplicaPolicy(PolicyConfig(name="pause", startup_mode="short_pause",
                                                short_pause_duration=600.0), lambda n: 0.0)
        for policy in (combo, pure_pred):
            train_commute(policy, days=2)
        t0 = 50_000_000.0
        for policy in (combo, pure_pred, pure_pause):
            policy.on_session_start(A, t0)
        assert combo.on_arrival(B, t0 + 600.0) == pure_pred.on_arrival(B, t0 + 600.0)
        combo_end = combo.on_session_end(B, t0 + 1200.0)
        pause_end = pure_pause.on_session_end(B, t0 + 1200.0)
        assert combo_end == pause_end == [Retain(B, t0 + 1800.0)]


class TestPolicyConfig:
    def test_from_dict_full(self):
        cfg = parse_policy({
            "name": "vomm-k2-dyn90",
            "predictor": {"type": "vomm", "k": 2},
            "eot": True,
            "topn": {"type": "dynamic", "threshold": 0.9},
            "preload_buffer": 600,
            "startup": {"type": "short_pause", "mode": "fixed", "duration": 600},
        })
        assert cfg.predictor == "vomm" and cfg.k == 2 and cfg.eot
        assert cfg.topn_mode == "dynamic" and cfg.topn_threshold == 0.9
        assert cfg.startup_mode == "short_pause"

    @pytest.mark.parametrize("fields, key", [
        (dict(plmm_threshold=0.0), "startup.threshold"),
        (dict(plmm_threshold=float("nan")), "startup.threshold"),
        (dict(retention_factor=-1.0), "startup.factor"),
        (dict(min_samples=0), "startup.min_samples"),
        (dict(short_pause_duration=-1.0), "startup.duration"),
        (dict(short_pause_max=-1.0), "startup.max"),
    ], ids=["threshold-zero", "threshold-nan", "factor-negative", "min-samples-zero",
            "duration-negative", "max-negative"])
    def test_restart_settings_fail_validate(self, fields, key):
        # checked once, when the config is built, for every startup mode
        with pytest.raises(ConfigError, match=f"^{key}: "):
            PolicyConfig(**fields)

    def test_unknown_predictor_named(self):
        with pytest.raises(ConfigError, match="predictor"):
            parse_policy({"predictor": "oracle"})

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="topn"):
            parse_policy({"topn": {"type": "fixed", "frobnicate": 1}})

    def test_bad_threshold(self):
        with pytest.raises(ConfigError, match="threshold"):
            parse_policy({"predictor": "momm", "topn": {"type": "dynamic", "threshold": 2.0}})

    def test_fomm_splits(self):
        cfg = parse_policy({
            "predictor": {"type": "fomm", "k": 3, "day_splits": [1, 2, 7],
                          "time_splits": [1, 4, 24]}})
        policy = ReplicaPolicy(cfg, lambda node: 0.0)
        assert len(policy.predictor.submodels) == 3 * 3 * 3


class TestCausality:
    def test_actions_never_depend_on_future(self):
        # replay the same event stream truncated at several points: the
        # prefix of emitted actions must be identical
        def drive(policy, steps):
            log = []
            events = [
                ("start", A, 0.0),
                ("arrive", B, 600.0),
                ("end", B, 1200.0),
                ("start", B, 2000.0),
                ("arrive", C, 2600.0),
                ("end", C, 3200.0),
            ]
            for kind, node, t in events[:steps]:
                fn = {"start": policy.on_session_start, "arrive": policy.on_arrival,
                      "end": policy.on_session_end}[kind]
                log.append(fn(node, t))
            return log

        full = drive(predictive(), 6)
        for steps in range(1, 6):
            assert drive(predictive(), steps) == full[:steps]


class TestActions:
    def test_replicate_never_equals_retain(self):
        assert Replicate(1, 5.0) != Retain(1, 5.0) and Retain(1, 5.0) != Replicate(1, 5.0)
        assert not Replicate(1, 5.0) == Retain(1, 5.0) and not Retain(1, 5.0) == Replicate(1, 5.0)


class TestTrainingThroughTheEngine:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           make=st.sampled_from([make_micro_scenario, make_rescheduling_scenario]),
           fomm=st.booleans(), tz_offset=st.sampled_from([0.0, 8 * 3600.0, -5.5 * 3600.0]))
    def test_each_client_model_equals_the_oracle_trained_on_its_visits(self, seed, make, fomm, tz_offset):
        """A policy trains its model from the trips it tracks: the model a run
        leaves holds the tables, target order and size of the oracle trained
        on the client's visits."""
        timelines, topo, network, config = make(random.Random(seed))
        if fomm:
            predictor = dict(predictor="fomm", k=2, day_splits=(1, 2, 7), time_splits=(1, 4, 24))
        else:
            predictor = dict(predictor="vomm", k=config.k if config.predictor != "baseline" else 2)
        config = dataclasses.replace(config, **predictor, tz_offset=tz_offset)
        result = run(timelines, topo, network, config)
        for tl in timelines:
            model = result.policies[tl.client_id].predictor
            oracle = table_model(config.predictor, config.k, config.day_splits, config.time_splits,
                                 eot=config.eot, tz_offset=tz_offset)
            for visits in tl.sessions:
                oracle.train_session(visits, visits[0].arrival)
            got = tables_of(model)
            assert [sm.spec for sm in got.submodels] == [sm.spec for sm in oracle.submodels]
            for sm, want in zip(got.submodels, oracle.submodels):
                assert {c: list(t.items()) for c, t in sm.table.entries.items()} == \
                       {c: target_order(t) for c, t in want.table.entries.items()}
            assert model.memory_bytes() == oracle.memory_bytes()
