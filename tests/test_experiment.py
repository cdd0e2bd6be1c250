"""A sweep point runs one client at a time and folds their report rows; the
whole-point engine run, with each client's row read from its one ledger, is
the reference it must reproduce."""
import random
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fogrep import experiment
from fogrep.errors import UndefinedMetricError
from fogrep.policies import PolicyConfig
from fogrep.simengine import run, snapshot_memory

from oracles import fold_report, make_micro_scenario, make_rescheduling_scenario


@settings(max_examples=25, deadline=None)
@example(seed=1552, make=make_micro_scenario, dump_events=False)  # a window after all activity
@given(seed=st.integers(0, 2**32 - 1),
       make=st.sampled_from([make_micro_scenario, make_rescheduling_scenario]),
       dump_events=st.booleans())
def test_point_matches_the_whole_point_run(seed, make, dump_events):
    rng = random.Random(seed)
    timelines, topo, network, config = make(rng, clients=(2, 4))
    rng.shuffle(timelines)
    t0 = min(tl.first_t for tl in timelines)
    window = rng.choice([None, (t0, t0 + 600.0), (t0 + 300.0, t0 + 3600.0)])
    series_clients = tuple(tl.client_id for tl in timelines[:2])
    bucket = float(rng.choice([60, 300, 1800]))
    whole = run(timelines, topo, network, config)
    try:
        expected = fold_report(whole.ledger, timelines, memory_by_client=snapshot_memory(whole.policies),
                               window=window, series_clients=series_clients, series_bucket=bucket)
    except UndefinedMetricError:
        # the window covers no active second: the point must fail the same way
        with pytest.raises(UndefinedMetricError):
            experiment._run_point(topo, network, config, timelines, window,
                                  series_clients, bucket, dump_events)
        return
    report, log = experiment._run_point(topo, network, config, timelines, window,
                                        series_clients, bucket, dump_events)
    assert repr(report) == repr(expected)  # every field and series point, NaNs included
    assert log == (whole.event_log if dump_events else None)


class _Ledger(dict):
    """A ledger that can be weakly referenced, which a plain dict cannot."""


def test_each_clients_model_is_freed_before_the_next_client_runs(monkeypatch):
    timelines, topo, network, _ = make_micro_scenario(random.Random(5), clients=(3, 3))
    config = PolicyConfig(name="vomm", predictor="vomm", k=2)
    simulate = experiment.run_simulation
    calls, earlier, ledgers = [], [], []

    def tracked(tls, *args, **kwargs):
        alive = [ref() for ref in earlier if ref() is not None]
        assert not alive, f"{len(alive)} earlier policies alive when {tls[0].client_id} starts"
        alive = [ref() for ref in ledgers if ref() is not None]
        assert not alive, f"{len(alive)} earlier ledgers alive when {tls[0].client_id} starts"
        calls.append([tl.client_id for tl in tls])
        result = simulate(tls, *args, **kwargs)
        earlier.extend(weakref.ref(policy) for policy in result.policies.values())
        result.ledger = _Ledger(result.ledger)
        ledgers.append(weakref.ref(result.ledger))
        return result

    monkeypatch.setattr(experiment, "run_simulation", tracked)
    report, _ = experiment._run_point(topo, network, config, timelines[::-1], None, ("c1",), 86400.0, False)
    assert calls == [["c0"], ["c1"], ["c2"]]
    assert len(earlier) == 3 and len(ledgers) == 3
    assert [ref() for ref in earlier + ledgers] == [None] * 6  # and the last client's, once the point is done
    assert [m.series is not None for m in report.per_client] == [False, True, False]
