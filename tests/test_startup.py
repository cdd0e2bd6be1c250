import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fogrep.errors import ConfigError
from fogrep.policies import PolicyConfig, ReplicaPolicy
from fogrep.startup import FIXED, LEARNED, NODE_SPECIFIC, Plmm, ShortPause
from oracles import restart_memory_bytes, restart_until

A, B, C = 0, 1, 2


class TestRecordPause:
    def test_first_pause(self):
        plmm = Plmm()
        plmm.record(A, A, 600.0)
        assert plmm.entries[A][A] == [1, 600.0]
        learned = ShortPause(LEARNED, 600.0)
        learned.record(A, A, 600.0)
        assert learned.pauses == [600.0]
        assert learned.by_node[A] == [600.0]

    def test_second_pause_different_startup(self):
        plmm = Plmm()
        plmm.record(A, A, 600.0)
        plmm.record(A, B, 300.0)
        assert plmm.entries[A][A] == [1, 600.0]
        assert plmm.entries[A][B] == [1, 300.0]

    def test_fixed_window_records_nothing(self):
        fixed = ShortPause(FIXED, 600.0)
        fixed.record(A, B, 10.0)
        assert fixed.pauses == [] and fixed.by_node == {}
        assert fixed.memory_bytes() == 0

    def test_a_pause_that_is_not_positive_is_not_recorded(self):
        policy = ReplicaPolicy(PolicyConfig(startup_mode="short_pause", short_pause_mode=LEARNED), 0.0)
        policy.on_session_start(A, 0.0)
        policy.on_session_end(A, 100.0)
        policy.on_session_start(A, 100.0)  # starts when the last session ended
        assert policy.restart.pauses == []
        policy.on_session_end(A, 200.0)
        policy.on_session_start(B, 250.0)
        assert policy.restart.pauses == [50.0]


def learned(*durations, node=A, mode=LEARNED, **kwargs):
    model = ShortPause(mode, 600.0, **kwargs)
    for d in durations:
        model.record(node, A, d)
    return model


class TestMedianPause:
    def test_odd_median(self):
        assert learned(100.0, 600.0, 900.0).until(A, 0.0) == 600.0

    def test_even_median_takes_lower_middle(self):
        assert learned(100.0, 200.0, 300.0, 400.0).until(A, 0.0) == 200.0

    def test_node_fallback_below_min_samples(self):
        for min_samples, window in ((3, 200.0), (1, 50.0)):
            model = ShortPause(NODE_SPECIFIC, 600.0, min_samples=min_samples)
            model.by_node[B] = [50.0]
            model.pauses = [100.0, 200.0, 300.0]
            # node B has a single sample; with min_samples=3 the client median wins
            assert model.until(B, 0.0) == window

    def test_no_data_is_none(self):
        # without any pause both learned windows use the fixed duration
        for mode in (LEARNED, NODE_SPECIFIC):
            assert ShortPause(mode, 600.0).until(A, 1000.0) == 1600.0
            assert ShortPause(mode, 0.0).until(A, 1000.0) is None

    def test_fallback_equality_property(self):
        by_node = ShortPause(NODE_SPECIFIC, 600.0, min_samples=4)
        client = ShortPause(LEARNED, 600.0, min_samples=4)
        for i, d in enumerate([120.0, 240.0, 480.0, 960.0, 1920.0]):
            for model in (by_node, client):
                model.record(A if i % 2 == 0 else B, A, d)
        for node in (A, B, C):
            assert len(by_node.by_node.get(node, ())) < 4
            assert by_node.until(node, 0.0) == client.until(node, 0.0)

    def test_invalid_min_samples(self):
        # checked once, by the config, before any model is built
        with pytest.raises(ConfigError, match="^startup.min_samples: "):
            PolicyConfig(startup_mode="short_pause", short_pause_mode=LEARNED, min_samples=0)


class TestShortPauseRetention:
    def test_fixed(self):
        assert ShortPause(FIXED, 600.0).until(A, 1000.0) == 1600.0

    def test_learned_uses_client_median(self):
        assert learned(100.0, 595.0, 2000.0).until(A, 1000.0) == 1000.0 + 595.0

    def test_learned_without_history_falls_back(self):
        assert ShortPause(LEARNED, 600.0).until(A, 1000.0) == 1600.0

    def test_node_specific(self):
        model = learned(100.0, 100.0, 100.0, mode=NODE_SPECIFIC)
        for d in (900.0, 900.0, 900.0):
            model.record(B, A, d)
        assert model.until(B, 0.0) == 900.0

    def test_max_duration_caps(self):
        assert learned(4000.0, 5000.0, 6000.0, max=1800.0).until(A, 0.0) == 1800.0

    def test_empty_window_keeps_nothing(self):
        assert ShortPause(FIXED, 0.0).until(A, 1000.0) is None
        assert ShortPause(FIXED, 600.0, max=0.0).until(A, 1000.0) is None

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="^startup.mode: "):
            PolicyConfig(startup_mode="short_pause", short_pause_mode="sometimes")
        with pytest.raises(ConfigError, match="^startup.type: "):
            PolicyConfig(startup_mode="sometimes")


class TestPlmm:
    # with factor 1 the window is the mean pause of the predicted startup node
    def test_argmax_and_mean(self):
        plmm = Plmm(factor=1.0)
        for _ in range(3):
            plmm.record(A, A, 600.0)
        plmm.record(A, B, 600.0)
        assert plmm.until(A, 0.0) == 600.0

    def test_unseen_node_is_none(self):
        assert Plmm().until(A, 0.0) is None

    def test_single_entry(self):
        plmm = Plmm(factor=1.0)
        plmm.record(A, B, 300.0)
        assert plmm.entries[A] == {B: [1, 300.0]}
        assert plmm.until(A, 0.0) is None  # predicts B
        plmm.record(B, B, 300.0)
        assert plmm.until(B, 0.0) == 300.0

    def test_count_tie_breaks_to_smaller_id(self):
        plmm = Plmm(factor=1.0)
        plmm.record(B, C, 100.0)
        plmm.record(B, B, 900.0)
        assert plmm.until(B, 0.0) == 900.0  # B beats C
        plmm.record(C, C, 100.0)
        plmm.record(C, B, 900.0)
        assert plmm.until(C, 0.0) is None   # B beats C again

    def test_distribution_sums_to_one(self):
        plmm = Plmm()
        rng = random.Random(2)
        for _ in range(200):
            plmm.record(rng.randrange(3), rng.randrange(3), rng.uniform(1, 1000))
        for node, successors in plmm.entries.items():
            total = sum(count for count, _ in successors.values())
            assert sum(count / total for count, _ in successors.values()) == pytest.approx(1.0)


class TestPlmmRetention:
    def make(self, startup_node, pause):
        plmm = Plmm(threshold=1500.0)
        plmm.record(A, startup_node, pause)
        return plmm

    def test_keep_with_padding(self):
        assert self.make(A, 600.0).until(A, 1000.0) == 1000.0 + 900.0

    def test_node_mismatch(self):
        assert self.make(B, 600.0).until(A, 0.0) is None

    def test_over_threshold(self):
        assert self.make(A, 3000.0).until(A, 0.0) is None

    def test_unseen_node(self):
        assert Plmm().until(A, 0.0) is None


class TestMemory:
    def test_sizes(self):
        model, plmm = ShortPause(LEARNED, 600.0), Plmm()
        assert model.memory_bytes() == 0 and plmm.memory_bytes() == 0
        model.record(A, B, 100.0)
        plmm.record(A, B, 100.0)
        assert model.memory_bytes() == 8 + (2 + 8)
        assert plmm.memory_bytes() == 2 + 16


restart_configs = st.one_of(
    st.builds(lambda mode, duration, cap, min_samples: PolicyConfig(
                  startup_mode="short_pause", short_pause_mode=mode, short_pause_duration=duration,
                  short_pause_max=cap, min_samples=min_samples),
              st.sampled_from([FIXED, LEARNED, NODE_SPECIFIC]), st.sampled_from([0.0, 60.0, 600.0]),
              st.sampled_from([None, 0.0, 300.0, 1800.0]), st.integers(1, 3)),
    st.builds(lambda threshold, factor: PolicyConfig(
                  startup_mode="plmm", plmm_threshold=threshold, retention_factor=factor),
              st.sampled_from([300.0, 1500.0]), st.sampled_from([0.5, 1.0, 1.5])),
    st.just(PolicyConfig()))
pause_lists = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                 st.one_of(st.sampled_from([30.0, 300.0, 600.0, 1500.0, 3000.0]),
                                           st.floats(0.001, 5000.0))),
                       max_size=12)


@settings(max_examples=60, deadline=None)
@given(restart_configs, pause_lists, st.floats(0.0, 1e9))
@example(PolicyConfig(startup_mode="plmm"),  # count ties, won by the smaller id
         [(B, A, 100.0), (B, B, 100.0), (A, B, 100.0), (A, A, 100.0)], 0.0)
def test_restart_models_match_the_reference(config, pauses, t):
    model = ReplicaPolicy(config, 0.0).restart
    for i in range(len(pauses) + 1):
        seen = pauses[:i]
        for node in (A, B, C):
            got = None if model is None else model.until(node, t)
            assert got == restart_until(config, seen, node, t)
        assert (0 if model is None else model.memory_bytes()) == restart_memory_bytes(config, seen)
        if i < len(pauses) and model is not None:
            model.record(*pauses[i])
