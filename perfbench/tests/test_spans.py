import pytest

import spans


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    rec = spans.Recorder(clock)
    rec.enter("outer")          # 0
    clock.now = 1.0
    rec.enter("mid")            # 1
    clock.now = 2.0
    rec.enter("leaf")           # 2
    clock.now = 4.0
    rec.exit()                  # leaf: 2 s
    clock.now = 5.0
    rec.exit()                  # mid: 4 s, 2 s own
    rec.enter("leaf")           # 5
    clock.now = 5.5
    rec.exit()                  # leaf: 0.5 s
    clock.now = 7.0
    rec.exit()                  # outer: 7 s
    assert rec.self_time == {"leaf": 2.5, "mid": 2.0, "outer": 2.5}
    assert rec.total["outer"] == 7.0 and rec.calls["leaf"] == 2
    assert sum(rec.self_time.values()) == rec.total["outer"]


def test_proxy_counts_and_closes_span_on_error():
    rec = spans.Recorder()
    double = spans.proxy(rec, "f", lambda x: 2 * x,
                         after=lambda r, args, result: r.counts.update(out=result))

    def boom():
        raise ValueError("x")

    assert double(3) == 6 and rec.counts["out"] == 6
    with pytest.raises(ValueError):
        spans.proxy(rec, "g", boom)()
    assert rec.calls == {"f": 1, "g": 1}
    assert rec._stack == []


def test_missing_target_fails_loudly():
    with pytest.raises(spans.TargetMissing, match="no_such_function"):
        spans.resolve("fogrep.traces:no_such_function")
    with pytest.raises(spans.TargetMissing):
        spans.resolve("fogrep.policies:ReplicaPolicy.on_teleport")


def test_install_all_resolves_every_target(monkeypatch):
    import fogrep.cli, fogrep.experiment, fogrep.markov, fogrep.metrics, fogrep.policies
    import fogrep.simengine, fogrep.traces
    for module in (fogrep.cli, fogrep.experiment, fogrep.metrics, fogrep.simengine, fogrep.traces):
        for name, value in list(vars(module).items()):
            if callable(value):
                monkeypatch.setattr(module, name, value)
    for cls in (fogrep.experiment.TopologySpec, fogrep.policies.ReplicaPolicy,
                *[c for c in vars(fogrep.markov).values()
                  if isinstance(c, type) and c.__module__ == "fogrep.markov"]):
        for name, value in list(vars(cls).items()):
            if callable(value):
                monkeypatch.setattr(cls, name, value)
    rec = spans.Recorder()
    spans.install_all(rec)
    assert fogrep.traces.parse_plt.__wrapped__ is not None
