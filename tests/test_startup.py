import pytest

from fogrep.errors import ConfigError, DataError
from fogrep.startup import (PauseStats, PlmmModel, median_pause, plmm_predict,
                            plmm_retention, record_pause,
                            short_pause_retention)

A, B, C = 0, 1, 2


class TestRecordPause:
    def test_first_pause(self):
        stats, plmm = PauseStats(), PlmmModel()
        record_pause(stats, plmm, A, A, 600.0)
        assert plmm.entries[A][A].count == 1
        assert plmm.entries[A][A].pause_sum == 600.0
        assert stats.durations == [600.0]
        assert stats.by_node[A] == [600.0]

    def test_second_pause_different_startup(self):
        stats, plmm = PauseStats(), PlmmModel()
        record_pause(stats, plmm, A, A, 600.0)
        record_pause(stats, plmm, A, B, 300.0)
        assert plmm.entries[A][A].count == 1 and plmm.entries[A][A].pause_sum == 600.0
        assert plmm.entries[A][B].count == 1 and plmm.entries[A][B].pause_sum == 300.0

    def test_zero_duration_rejected(self):
        with pytest.raises(DataError):
            record_pause(PauseStats(), PlmmModel(), A, A, 0.0)

    def test_partial_models(self):
        record_pause(None, None, A, B, 10.0)  # nothing to update is fine
        stats = PauseStats()
        record_pause(stats, None, A, B, 10.0)
        assert stats.durations == [10.0]


class TestMedianPause:
    def test_odd_median(self):
        stats = PauseStats()
        for d in (100.0, 600.0, 900.0):
            stats.add(A, d)
        assert median_pause(stats) == 600.0

    def test_even_median_takes_lower_middle(self):
        stats = PauseStats()
        for d in (100.0, 200.0, 300.0, 400.0):
            stats.add(A, d)
        assert median_pause(stats) == 200.0

    def test_node_fallback_below_min_samples(self):
        stats = PauseStats()
        stats.by_node[B] = [50.0]
        stats.durations = [100.0, 200.0, 300.0]
        # node B has a single sample; with min_samples=3 the client median wins
        assert median_pause(stats, node=B, min_samples=3) == 200.0
        assert median_pause(stats, node=B, min_samples=1) == 50.0

    def test_no_data_is_none(self):
        assert median_pause(PauseStats()) is None

    def test_fallback_equality_property(self):
        stats = PauseStats()
        for i, d in enumerate([120.0, 240.0, 480.0, 960.0, 1920.0]):
            stats.add(A if i % 2 == 0 else B, d)
        for node in (A, B, C):
            if len(stats.by_node.get(node, ())) < 4:
                assert median_pause(stats, node=node, min_samples=4) == median_pause(stats)

    def test_invalid_min_samples(self):
        with pytest.raises(ConfigError):
            median_pause(PauseStats(), min_samples=0)


class TestShortPauseRetention:
    def test_fixed(self):
        d = short_pause_retention("fixed", 1000.0, fixed_duration=600.0)
        assert d == 1600.0

    def test_learned_uses_client_median(self):
        stats = PauseStats()
        for dur in (100.0, 595.0, 2000.0):
            stats.add(A, dur)
        d = short_pause_retention("learned", 1000.0, stats=stats)
        assert d == 1000.0 + 595.0

    def test_learned_without_history_falls_back(self):
        d = short_pause_retention("learned", 1000.0, stats=PauseStats(), fixed_duration=600.0)
        assert d == 1600.0

    def test_node_specific(self):
        stats = PauseStats()
        for dur in (100.0, 100.0, 100.0):
            stats.add(A, dur)
        for dur in (900.0, 900.0, 900.0):
            stats.add(B, dur)
        d = short_pause_retention("node_specific", 0.0, shutdown_node=B, stats=stats)
        assert d == 900.0

    def test_max_duration_caps(self):
        stats = PauseStats()
        for dur in (4000.0, 5000.0, 6000.0):
            stats.add(A, dur)
        d = short_pause_retention("learned", 0.0, stats=stats, max_duration=1800.0)
        assert d == 1800.0

    def test_empty_window_keeps_nothing(self):
        assert short_pause_retention("fixed", 1000.0, fixed_duration=0.0) is None
        assert short_pause_retention("fixed", 1000.0, max_duration=0.0) is None

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            short_pause_retention("sometimes", 0.0)


class TestPlmm:
    def test_argmax_and_mean(self):
        plmm = PlmmModel()
        for _ in range(3):
            plmm.record(A, A, 600.0)
        plmm.record(A, B, 600.0)
        assert plmm_predict(plmm, A) == (A, 600.0)

    def test_unseen_node_is_none(self):
        assert plmm_predict(PlmmModel(), A) is None

    def test_single_entry(self):
        plmm = PlmmModel()
        plmm.record(A, B, 300.0)
        assert plmm_predict(plmm, A) == (B, 300.0)

    def test_count_tie_breaks_to_smaller_id(self):
        plmm = PlmmModel()
        plmm.record(A, C, 100.0)
        plmm.record(A, B, 900.0)
        assert plmm_predict(plmm, A)[0] == B

    def test_distribution_sums_to_one(self):
        plmm = PlmmModel()
        import random
        rng = random.Random(2)
        for _ in range(200):
            plmm.record(rng.randrange(3), rng.randrange(3), rng.uniform(1, 1000))
        for node, successors in plmm.entries.items():
            total = sum(rec.count for rec in successors.values())
            assert sum(rec.count / total for rec in successors.values()) == pytest.approx(1.0)


class TestPlmmRetention:
    def make(self, startup_node, pause):
        plmm = PlmmModel()
        plmm.record(A, startup_node, pause)
        return plmm

    def test_keep_with_padding(self):
        d = plmm_retention(self.make(A, 600.0), A, shutdown_t=1000.0, threshold=1500.0)
        assert d == 1000.0 + 900.0

    def test_node_mismatch(self):
        d = plmm_retention(self.make(B, 600.0), A, shutdown_t=0.0, threshold=1500.0)
        assert d is None

    def test_over_threshold(self):
        d = plmm_retention(self.make(A, 3000.0), A, shutdown_t=0.0, threshold=1500.0)
        assert d is None

    def test_unseen_node(self):
        d = plmm_retention(PlmmModel(), A, shutdown_t=0.0)
        assert d is None


class TestMemory:
    def test_sizes(self):
        stats, plmm = PauseStats(), PlmmModel()
        assert stats.memory_bytes() == 0 and plmm.memory_bytes() == 0
        record_pause(stats, plmm, A, B, 100.0)
        assert stats.memory_bytes() == 8 + (2 + 8)
        assert plmm.memory_bytes() == 2 + 16
