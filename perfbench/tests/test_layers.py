"""Tests of the traced run's wrappers and its per-layer metric names.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from hermvar import cubics, field, hermitian, projgeom  # noqa: E402
from spans import Recorder, summarize  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_wrappers_record_every_namespace_and_restore():
    original = hermitian.eval_form_at
    rec = Recorder()
    with layers.wrappers(rec):
        assert hermitian.eval_form_at is not original
        assert cubics.eval_form_at is hermitian.eval_form_at
        rec.job = "job"
        f = hermitian.standard_form(2, field.make_field(2))
        assert hermitian.count_points_enum(f) == hermitian.nondegenerate_count(2, 2)
    assert hermitian.eval_form_at is original and cubics.eval_form_at is original
    rows = summarize(rec.for_job("job"))
    assert rows["hermitian.count_points_enum"]["calls"] == 1
    assert rows["hermitian.eval_form_at"]["points"] == projgeom.num_points(2, 2)


def test_every_per_layer_metric_has_a_source():
    names = [m["name"] for m in SPEC["per_layer"]]
    rec = Recorder()
    values = layers.layer_metrics(rec, workloads.WORKLOADS["enum_scan"], names, 1.0, 1.5)
    assert list(values) == names
    assert values["trace.job.overhead_ratio"] == 0.5
    wrapped = {f"{m}.{f}" for m, funcs in layers.WRAPPED.items() for f in funcs}
    for name in names:
        func = name.rsplit(".", 1)[0]
        assert func in wrapped or func == "trace.job", name


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
