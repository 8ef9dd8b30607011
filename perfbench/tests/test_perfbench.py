"""The benchmark's own tests.

Run: ``PYTHONPATH=src:. python -m pytest perfbench/tests -q``
"""

import hashlib
import json
import os

import pytest

from perfbench import inputs, spec
from perfbench.client import poisson_schedule
from perfbench.spans import SpanRecorder, layer_totals, outer_spans
from perfbench.stats import (
    UnsupportedPercentile,
    covered,
    metric_total,
    parse_prometheus,
    percentile,
    samples_needed,
    scrape_diff,
    self_times,
)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _workload_bytes(seed, tmp_path):
    path = tmp_path / f"snapshot-{seed}.json"
    dataset = inputs.generate_snapshot(str(path))
    chunks = [path.read_bytes()]
    chunks += [inputs.encode(payload) for payload in inputs.launch_mix(dataset, seed)]
    chunks += [
        inputs.encode(batch) for batch in inputs.bulk_batches(dataset, seed)
    ]
    chunks.append(inputs.encode(poisson_schedule(200.0, 5.0, seed)))
    chunks.append(
        inputs.encode(
            inputs.invalidation_order(inputs.singular_range_parameters(dataset), seed)
        )
    )
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(len(chunk).to_bytes(8, "little") + chunk)
    return digest.hexdigest()


def test_same_seed_same_workload_other_seed_different(tmp_path):
    first = _workload_bytes(3, tmp_path)
    assert _workload_bytes(3, tmp_path) == first
    assert _workload_bytes(4, tmp_path) != first


def test_percentile_needs_ten_samples_beyond():
    assert samples_needed(99) == 1000
    assert samples_needed(75) == 40
    values = list(range(1, 1001))
    assert percentile(values, 99) == 990
    with pytest.raises(UnsupportedPercentile):
        percentile(values[:999], 99)
    assert percentile(list(range(40)), 75) == 29
    with pytest.raises(UnsupportedPercentile):
        percentile(list(range(39)), 75)


def test_metrics_scrape_diff():
    before = parse_prometheus(
        "# HELP repro_x_total x\n# TYPE repro_x_total counter\n"
        'repro_x_total{result="hit"} 3\nrepro_x_total{result="miss"} 1\n'
        'repro_h_bucket{le="+Inf"} 2 # {trace_id="ab"} 0.1 1.0\n'
    )
    after = parse_prometheus(
        'repro_x_total{result="hit"} 10\nrepro_x_total{result="miss"} 2\n'
        'repro_x_total{result="stale"} 4\nrepro_h_bucket{le="+Inf"} 5\n'
    )
    grown = scrape_diff(before, after)
    assert metric_total(grown, "repro_x_total") == 7 + 1 + 4
    assert metric_total(grown, "repro_x_total", 'result="hit"') == 7
    assert metric_total(grown, "repro_h_bucket") == 3


def test_span_self_time():
    spans = [
        {"id": 1, "parent": None, "name": "a", "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "name": "b", "start": 1.0, "end": 3.0},
        {"id": 3, "parent": 1, "name": "b", "start": 2.0, "end": 5.0},
        {"id": 4, "parent": 1, "name": "c", "start": 7.0, "end": 8.0},
        {"id": 5, "parent": 3, "name": "b", "start": 2.5, "end": 4.0},
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0 - 1.5)
    assert covered([(1, 3), (2, 5), (9, 12)], 0, 10) == pytest.approx(5.0)
    assert [s["id"] for s in outer_spans(spans, "b")] == [2, 3]
    totals = layer_totals(spans)
    assert totals["b"]["calls"] == 3
    assert totals["b"]["total_s"] == pytest.approx(2.0 + 3.0)


def test_recorder_wraps_and_nests():
    recorder = SpanRecorder()

    def inner(x):
        return x + 1

    wrapped_inner = recorder.wrap("inner", inner)
    outer = recorder.wrap("outer", lambda x: wrapped_inner(x) * 2)
    assert outer(1) == 4
    by_name = {s["name"]: s for s in recorder.spans}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["outer"]["parent"] is None
    recorder.ingest([{"id": 1, "parent": None, "name": "w", "start": 0, "end": 1}])
    assert len({s["id"] for s in recorder.spans}) == 3


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        assert json.load(handle) == spec.benchmark_json()
    document = spec.benchmark_json()
    names = [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names
    for workload in document["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in document["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert set(spec.MEANING) == {m["name"] for m in document["end_to_end"]}
    assert [w["name"] for w in document["workloads"]] == list(spec.GATED)
