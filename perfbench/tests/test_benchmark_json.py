import json
from pathlib import Path

import run

DOC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def test_workloads_and_metrics_match_the_runner():
    assert [(w["name"], w["why"]) for w in DOC["workloads"]] == \
           [(w.name, w.why) for w in run.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in DOC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in DOC["per_layer"]] == run.PER_LAYER


def test_layer_metrics_cover_every_per_layer_name():
    stats = {"spans": {"calls": {}, "total_s": {}, "self_s": {}, "counts": {}},
             "gc_s": 0.0, "gc_collections": 0}
    computed = set(run.layer_metrics(stats, 1.0)) | {"trace.overhead_s"}
    assert computed == {name for name, _, _ in run.PER_LAYER}
