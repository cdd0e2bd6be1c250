import pytest

from fogrep.errors import ConfigError
from fogrep.experiment import parse_policy
from fogrep.markov import EOT
from fogrep.policies import Delete, PolicyConfig, Replicate, ReplicaPolicy, Retain
from fogrep.traces import NodeVisit

A, B, C, D = 0, 1, 2, 3


class FakeView:
    def __init__(self, present=(), tracked_only=()):
        self._present = set(present)
        self._tracked = set(present) | set(tracked_only)

    def present(self, node):
        return node in self._present

    def tracked(self):
        return sorted(self._tracked)


def baseline():
    return ReplicaPolicy(PolicyConfig(), lambda node: 0.0)


def predictive(transfer=300.0, **kwargs):
    defaults = dict(predictor="vomm", k=2)
    defaults.update(kwargs)
    cfg = PolicyConfig(name="pred", **defaults)
    return ReplicaPolicy(cfg, transfer_estimate=lambda node: transfer)


def train_commute(policy, days=2, path=((A, 600.0), (B, 600.0), (C, 600.0)), pause=80000.0):
    """Drive full sessions through the policy so its model learns the route."""
    t = 0.0
    for _ in range(days):
        nodes = [n for n, _ in path]
        policy.on_session_start(nodes[0], t, FakeView())
        tt = t
        for (n0, stay), n1 in zip(path, nodes[1:]):
            tt += stay
            policy.on_arrival(n1, tt, FakeView(present={n0}))
        policy.on_session_end(nodes[-1], tt + path[-1][1], FakeView(present={nodes[-1]}))
        t = tt + path[-1][1] + pause
    return t


class TestBaseline:
    def test_cold_start_replicates(self):
        actions = baseline().on_session_start(A, 100.0, FakeView())
        assert actions == [Replicate(A, 100.0)]

    def test_retained_hit_needs_no_replicate(self):
        actions = baseline().on_session_start(A, 100.0, FakeView(present={A}))
        assert actions == []

    def test_arrival_drops_previous(self):
        policy = baseline()
        policy.on_session_start(A, 0.0, FakeView())
        actions = policy.on_arrival(B, 50.0, FakeView(present={A}))
        assert actions == [Delete(A), Replicate(B, 50.0)]

    def test_session_end_deletes(self):
        policy = baseline()
        policy.on_session_start(A, 0.0, FakeView())
        actions = policy.on_session_end(A, 500.0, FakeView(present={A}))
        assert actions == [Delete(A)]

    def test_no_memory(self):
        assert baseline().memory_bytes() == 0


class TestPredictive:
    def test_untrained_behaves_as_baseline(self):
        policy = predictive()
        assert policy.on_session_start(A, 0.0, FakeView()) == [Replicate(A, 0.0)]
        actions = policy.on_arrival(B, 60.0, FakeView(present={A}))
        assert actions == [Delete(A), Replicate(B, 60.0)]

    def test_preload_timing_rule(self):
        # expected stay 600, transfer 300, buffer 10 -> replicate at t + 290
        policy = predictive(transfer=300.0, preload_buffer=10.0)
        train_commute(policy, days=1)
        t0 = 1_000_000.0
        actions = policy.on_session_start(A, t0, FakeView())
        assert Replicate(A, t0) in actions
        assert Replicate(B, t0 + 600.0 - 300.0 - 10.0) in actions

    def test_large_buffer_preloads_immediately(self):
        policy = predictive(transfer=300.0, preload_buffer=86400.0)
        train_commute(policy, days=1)
        t0 = 1_000_000.0
        actions = policy.on_session_start(A, t0, FakeView())
        assert Replicate(B, t0) in actions

    def test_buffer_larger_than_lead_clamps_to_now(self):
        policy = predictive(transfer=300.0, preload_buffer=500.0)
        train_commute(policy, days=1)
        t0 = 2_000.0
        actions = policy.on_session_start(A, t0, FakeView())
        assert Replicate(B, t0) in actions

    def test_eot_top1_schedules_nothing(self):
        policy = predictive(eot=True, topn_mode="dynamic", topn_threshold=0.9)
        train_commute(policy, days=3)
        # at the end of the commute path, C's only successor in training is EOT
        policy.on_session_start(A, 10_000_000.0, FakeView())
        policy.on_arrival(B, 10_000_600.0, FakeView(present={A}))
        actions = policy.on_arrival(C, 10_001_200.0, FakeView(present={B}))
        replicates = [a for a in actions if isinstance(a, Replicate)]
        assert replicates == [Replicate(C, 10_001_200.0)]

    def test_unjustified_predicted_replicas_deleted_on_next_arrival(self):
        policy = predictive()
        train_commute(policy, days=2)
        t0 = 20_000_000.0
        policy.on_session_start(A, t0, FakeView())
        # the preload for B is pending/in-flight; client unexpectedly moves to D
        actions = policy.on_arrival(D, t0 + 60.0, FakeView(present={A}, tracked_only={B}))
        deletes = {a.node for a in actions if isinstance(a, Delete)}
        assert {A, B} <= deletes

    def test_fixed_top1_single_replication(self):
        policy = predictive(topn_mode="fixed", topn_n=1, eot=False,
                            preload_buffer=86400.0)
        train_commute(policy, days=2)
        t0 = 30_000_000.0
        actions = policy.on_session_start(A, t0, FakeView())
        replicates = [a for a in actions if isinstance(a, Replicate) and a.node != A]
        assert len(replicates) == 1

    def test_memory_grows_with_training(self):
        policy = predictive()
        assert policy.memory_bytes() == 0
        train_commute(policy, days=1)
        assert policy.memory_bytes() > 0


class TestSessionEnd:
    def test_short_pause_fixed_retains(self):
        policy = ReplicaPolicy(PolicyConfig(
            startup_mode="short_pause", short_pause_mode="fixed", short_pause_duration=600.0), lambda node: 0.0)
        policy.on_session_start(A, 0.0, FakeView())
        actions = policy.on_session_end(A, 1000.0, FakeView(present={A}))
        assert actions == [Retain(A, 1600.0)]

    def test_plmm_mismatch_deletes(self):
        policy = ReplicaPolicy(PolicyConfig(startup_mode="plmm"), lambda node: 0.0)
        # teach the pause model that shutting down at A restarts at B
        policy.on_session_start(A, 0.0, FakeView())
        policy.on_session_end(A, 100.0, FakeView(present={A}))
        policy.on_session_start(B, 400.0, FakeView())
        policy.on_session_end(B, 500.0, FakeView(present={B}))
        policy.on_session_start(A, 900.0, FakeView())
        actions = policy.on_session_end(A, 1000.0, FakeView(present={A}))
        assert actions == [Delete(A)]

    def test_plmm_match_retains_padded(self):
        policy = ReplicaPolicy(PolicyConfig(startup_mode="plmm", plmm_threshold=1500.0), lambda node: 0.0)
        policy.on_session_start(A, 0.0, FakeView())
        policy.on_session_end(A, 100.0, FakeView(present={A}))
        policy.on_session_start(A, 700.0, FakeView())  # pause 600 at same node
        actions = policy.on_session_end(A, 800.0, FakeView(present={A}))
        assert actions == [Retain(A, 800.0 + 600.0 * 1.5)]

    def test_outstanding_predictions_deleted_at_end(self):
        policy = predictive(startup_mode="none")
        train_commute(policy, days=1)
        t0 = 40_000_000.0
        policy.on_session_start(A, t0, FakeView())
        actions = policy.on_session_end(A, t0 + 50.0, FakeView(present={A}, tracked_only={B}))
        assert Delete(B) in actions
        assert Delete(A) in actions


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
            policy.on_session_start(A, t0, FakeView())
        view = FakeView(present={A})
        assert combo.on_arrival(B, t0 + 600.0, view) == pure_pred.on_arrival(B, t0 + 600.0, view)
        end_view = FakeView(present={B})
        combo_end = combo.on_session_end(B, t0 + 1200.0, end_view)
        pause_end = pure_pause.on_session_end(B, t0 + 1200.0, end_view)
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
                ("start", A, 0.0, FakeView()),
                ("arrive", B, 600.0, FakeView(present={A})),
                ("end", B, 1200.0, FakeView(present={B})),
                ("start", B, 2000.0, FakeView()),
                ("arrive", C, 2600.0, FakeView(present={B})),
                ("end", C, 3200.0, FakeView(present={C})),
            ]
            for kind, node, t, view in events[:steps]:
                fn = {"start": policy.on_session_start, "arrive": policy.on_arrival,
                      "end": policy.on_session_end}[kind]
                log.append(fn(node, t, view))
            return log

        full = drive(predictive(), 6)
        for steps in range(1, 6):
            assert drive(predictive(), steps) == full[:steps]
