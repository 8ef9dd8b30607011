"""The four workload runners.

Each takes a :class:`Run` (seed, measured seconds, traced or not, a
private work directory) and returns an :class:`Outcome`: the end-to-end
metrics, the per-layer metrics (traced runs), the request counts and
the named numbers of the human report.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench import inputs
from perfbench.client import Connection, closed_loop, encode_request, open_loop
from perfbench.spans import layer_totals
from perfbench.stats import (
    median,
    metric_total,
    parse_prometheus,
    percentile,
    scrape_diff,
)
from perfbench.system import (
    ROOT,
    Oracle,
    ServerProcess,
    child_env,
    first_correct_answer,
    recommend_request,
)

#: launch-open: the offered rate.
OPEN_RATE = 200.0
#: A launch-open run whose generator sent its p99 request later than
#: this is void: the latencies would measure the client, not the server
#: (a healthy generator on a busy 2-vCPU host measures 2-5 ms).
LATE_LIMIT_MS = 10.0
#: bulk-launch: one /admin/invalidate after every this many batches.
INVALIDATE_EVERY = 4
#: The gated tail percentile.  bulk-launch answers too few batches per
#: run for a higher one with ten samples beyond; on the launch workloads
#: it is the highest whose run-to-run spread on a shared 2-vCPU host
#: stays inside the 0.25 bound (ten runs of launch-seq: p75 11%, p90
#: 24%, p95 39%).  p90-p99 are in the report.
TAIL_Q = 75
#: The refit child must finish within this (a run has 180 s in all).
REFIT_TIMEOUT_S = 150
#: launch-seq traced: ``phase_sum_ok`` reports whether the per-phase
#: medians plus the unattributed rest add up to the client p50 within
#: this share.
PHASE_SUM_TOLERANCE = 0.1


@dataclass
class Run:
    seed: int
    seconds: float
    trace: bool
    work_dir: str
    nproc: int


@dataclass
class Outcome:
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    incorrect: int = 0
    report: Dict[str, float] = field(default_factory=dict)


class VoidRun(RuntimeError):
    """The run measured the benchmark, not the program."""


# -- shared serving plumbing ---------------------------------------------------


def _generate(run: Run):
    snapshot = os.path.join(run.work_dir, "snapshot.json")
    started = time.perf_counter()
    dataset = inputs.generate_snapshot(snapshot)
    return dataset, snapshot, time.perf_counter() - started


def _boot(
    run: Run,
    snapshot: str,
    parameters: Sequence[str],
    probe: Tuple[bytes, Dict],
) -> Tuple[ServerProcess, float, Optional[str]]:
    """Boot the server (traced when the run is); returns it, the time
    from spawn to its first correct answer, and its spans path."""
    spans_path = os.path.join(run.work_dir, "spans.json") if run.trace else None
    server = ServerProcess(snapshot, parameters, run.work_dir, spans_path=spans_path)
    started = time.perf_counter()
    try:
        server.start()
        first_correct_answer(server.port, *probe)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started, spans_path


def _scrape(port: int) -> Dict:
    connection = Connection("127.0.0.1", port)
    try:
        response = connection.request(encode_request("GET", "/metrics"))
    finally:
        connection.close()
    return parse_prometheus(response.body.decode())


def _audit(outcome: Outcome, samples, expected) -> None:
    """Count every answer: non-200 as failed, other values as incorrect."""
    outcome.attempted += len(samples)
    for sample in samples:
        want = expected[sample.index % len(expected)]
        if sample.response.status != 200:
            outcome.failed += 1
        elif json.loads(sample.response.body)["values"] != want:
            outcome.incorrect += 1


def _match_rate(pairs: Sequence[Tuple[str, Dict]], truth: Dict[str, Dict]) -> float:
    """Share of (answer, parameter) pairs equal to the configured value;
    ``pairs`` is ``(source carrier key, answered values)``."""
    hits = total = 0
    for key, values in pairs:
        for name, configured in truth.get(key, {}).items():
            if name in values:
                total += 1
                hits += values[name] == configured
    return hits / total if total else 0.0


def _server_layers(
    outcome: Outcome,
    spans_path: str,
    window: Tuple[float, float],
    requests: int,
    grown: Dict,
) -> None:
    """Traced serving run: span totals inside the measured window (per
    recommendation served) and the /metrics growth over it."""
    with open(spans_path) as handle:
        recorded = json.load(handle)
    _process_layers(outcome, recorded)
    lo, hi = window
    totals = layer_totals(
        [s for s in recorded["spans"] if s["start"] >= lo and s["end"] <= hi]
    )
    for name in (
        "front.parse", "front.route", "front.admission", "service.handle",
        "batchplan.execute", "auric.resolve", "auric.vote",
    ):
        total = totals.get(name, {}).get("total_s", 0.0)
        outcome.layers[f"{name}_ms"] = total * 1000.0 / max(requests, 1)
    invalidate = totals.get("service.invalidate", {"calls": 0.0, "total_s": 0.0})
    outcome.layers["service.invalidate_ms"] = (
        invalidate["total_s"] * 1000.0 / invalidate["calls"] if invalidate["calls"] else 0.0
    )

    def share(part: str, whole: str) -> float:
        denominator = metric_total(grown, whole)
        return metric_total(grown, part) / denominator if denominator else 0.0

    cache = recorded["cache"]
    lookups = cache["hits"] + cache["misses"]
    outcome.layers["service.cache_hit_share"] = (
        cache["hits"] / lookups if lookups else 0.0
    )
    outcome.layers["front.batch_size"] = share(
        "repro_front_batch_size_sum", "repro_front_batch_size_count"
    )
    outcome.layers["front.shed"] = metric_total(grown, "repro_front_shed_total")
    outcome.layers["batchplan.distinct_share"] = share(
        "repro_batch_distinct_votes_total", "repro_batch_parameter_votes_total"
    )
    outcome.layers["batchplan.computed_share"] = share(
        "repro_batch_computed_votes_total", "repro_batch_parameter_votes_total"
    )


def _process_layers(outcome: Outcome, recorded: Dict) -> None:
    """Whole-process layer totals: fit, store, artifacts, eval, load."""
    totals = layer_totals(recorded["spans"])

    def total_s(name: str) -> float:
        return totals.get(name, {}).get("total_s", 0.0)

    for name in (
        "columnar.encode", "chi_square.marginal", "chi_square.conditional",
        "collaborative_filtering.fit_encoded", "store.persist", "store.open",
        "artifacts.save", "artifacts.load", "artifacts.fingerprint",
        "runner.loo_chunk", "dataio.load",
    ):
        outcome.layers[f"{name}_s"] = total_s(name)
    outcome.layers["chi_square.calls"] = sum(
        totals.get(n, {}).get("calls", 0.0)
        for n in ("chi_square.marginal", "chi_square.conditional")
    )
    _pool_layers(outcome, recorded["pool_tasks"])


def _pool_layers(outcome: Outcome, tasks: Sequence[Dict]) -> None:
    """Process-pool use from the worker task records: per pool run, its
    wall (first submit to last task end), its workers and their busy
    time; efficiency is busy / (wall x workers) over all runs."""
    runs: Dict[int, List[Dict]] = {}
    for task in tasks:
        runs.setdefault(task["pool"], []).append(task)
    wall = capacity = busy = waited = 0.0
    for run_tasks in runs.values():
        run_wall = max(t["started"] + t["busy_s"] for t in run_tasks) - min(
            t["submitted"] for t in run_tasks
        )
        wall += run_wall
        capacity += run_wall * len({t["pid"] for t in run_tasks})
        busy += sum(t["busy_s"] for t in run_tasks)
        waited += sum(max(t["started"] - t["submitted"], 0.0) for t in run_tasks)
    outcome.layers["pool.wall_s"] = wall
    outcome.layers["pool.busy_s"] = busy
    outcome.layers["pool.queue_wait_s"] = waited / len(tasks) if tasks else 0.0
    outcome.layers["pool.efficiency"] = busy / capacity if capacity else 0.0


def _tails(latencies_s: Sequence[float]) -> Dict[str, float]:
    """The report's tail percentiles, ms."""
    return {
        f"p{q}_ms": percentile(latencies_s, q) * 1000.0 for q in (75, 90, 95, 99)
    }


def _front_phases(outcome: Outcome, samples, batched: bool = False) -> None:
    """Per-request phase medians from each 200 body's ``timings`` (the
    numbers ``Server-Timing`` carries), the server time outside the
    named phases and the remainder the client saw beyond the server's
    total.  A ``/batch`` body sums its phases over requests served in
    parallel shards, so it has no "other" remainder."""
    named = ("coalesce", "queue", "engine", "serialize")
    phases: Dict[str, List[float]] = {
        k: [] for k in named + ("other", "unattributed")
    }
    for sample in samples:
        if sample.response.status != 200:
            continue
        timings = json.loads(sample.response.body)["timings"]
        for key in named:
            phases[key].append(timings[f"{key}_ms"])
        if not batched:
            phases["other"].append(
                timings["total_ms"] - sum(timings[f"{key}_ms"] for key in named)
            )
        phases["unattributed"].append(sample.latency_s * 1000.0 - timings["total_ms"])
    for key, values in phases.items():
        outcome.layers[f"front.{key}_ms"] = median(values) if values else 0.0


@dataclass
class Served:
    """A booted server with its inputs and expected answers."""

    server: ServerProcess
    spans_path: Optional[str]
    raws: List[bytes]
    expected: List[Dict]
    setup_s: float
    generate_s: float
    match_rate: float


def _launch_setup(run: Run) -> Served:
    dataset, snapshot, generate_s = _generate(run)
    parameters = inputs.LAUNCH_PARAMETERS
    oracle = Oracle(dataset, parameters)
    mix = inputs.launch_mix(dataset, run.seed)
    expected = [oracle.values(payload) for _, payload in mix]
    raws = [recommend_request(payload) for _, payload in mix]
    truth = inputs.configured_values(dataset, parameters)
    loo = [
        (key, values)
        for (key, payload), values in zip(mix, expected)
        if "carrier" in payload
    ]
    server, boot_s, spans_path = _boot(
        run, snapshot, parameters, (raws[0], expected[0])
    )
    return Served(
        server, spans_path, raws, expected, generate_s + boot_s, generate_s,
        _match_rate(loo, truth),
    )


def _close_serving(
    outcome: Outcome,
    served: Served,
    window: Tuple[float, float],
    requests: int,
    before: Optional[Dict],
) -> None:
    """Peak RSS, stop, and (traced) fold spans + /metrics into layers."""
    try:
        rss = served.server.peak_rss_mb()
        after = _scrape(served.server.port) if before is not None else None
    finally:
        served.server.stop()
    outcome.metrics.update(
        setup_s=served.setup_s, peak_rss_mb=rss, match_rate=served.match_rate
    )
    outcome.report.update(
        setup_s=served.setup_s, peak_rss_mb=rss, match_rate=served.match_rate
    )
    if served.spans_path is not None:
        _server_layers(
            outcome, served.spans_path, window, requests, scrape_diff(before, after)
        )
        outcome.layers["datagen.generate_s"] = served.generate_s


# -- launch-seq ---------------------------------------------------------------


def launch_seq(run: Run) -> Outcome:
    outcome = Outcome()
    served = _launch_setup(run)
    window = (0.0, 0.0)
    samples: List = []
    before = None
    try:
        before = _scrape(served.server.port) if run.trace else None
        connection = Connection("127.0.0.1", served.server.port)
        try:
            started = time.perf_counter()
            samples, elapsed = closed_loop(connection, served.raws, run.seconds)
            window = (started, time.perf_counter())
        finally:
            connection.close()
    finally:
        _close_serving(outcome, served, window, len(samples), before)
    _audit(outcome, samples, served.expected)
    latencies = [s.latency_s for s in samples]
    p50 = median(latencies) * 1000.0
    tail = percentile(latencies, TAIL_Q) * 1000.0
    outcome.metrics.update(
        p50_ms=p50, tail_ms=tail, throughput_rps=len(samples) / elapsed
    )
    outcome.report.update(
        p50_ms=p50, **_tails(latencies), throughput_rps=len(samples) / elapsed,
        requests=len(samples),
    )
    if run.trace:
        _front_phases(outcome, samples)
        outcome.layers["trace.p50_ms"] = p50
        outcome.layers["loadgen.late_p99_ms"] = 0.0
        phase_sum = sum(
            outcome.layers[f"front.{k}_ms"]
            for k in ("coalesce", "queue", "engine", "serialize", "other", "unattributed")
        )
        outcome.report["phase_sum_ms"] = phase_sum
        outcome.layers["front.phase_sum_gap"] = abs(phase_sum - p50) / p50
        outcome.report["phase_sum_ok"] = float(
            outcome.layers["front.phase_sum_gap"] <= PHASE_SUM_TOLERANCE
        )
    return outcome


# -- launch-open --------------------------------------------------------------


def launch_open(run: Run) -> Outcome:
    """``OPEN_RATE`` requests/s on a seeded Poisson schedule for the
    whole run, over at most two pipelined connections."""
    outcome = Outcome()
    served = _launch_setup(run)
    window = (0.0, 0.0)
    before = None
    result = None
    try:
        before = _scrape(served.server.port) if run.trace else None
        started = time.perf_counter()
        result = open_loop(
            "127.0.0.1", served.server.port, served.raws, OPEN_RATE, run.seconds,
            seed=run.seed, connections=min(2, run.nproc),
        )
        window = (started, time.perf_counter())
    finally:
        _close_serving(
            outcome, served, window, len(result.samples) if result else 0, before
        )
    late_p99 = percentile(result.late_s, 99) * 1000.0
    if late_p99 > LATE_LIMIT_MS:
        raise VoidRun(
            f"open-loop generator fell behind: p99 send lateness "
            f"{late_p99:.2f} ms > {LATE_LIMIT_MS} ms"
        )
    _audit(outcome, result.samples, served.expected)
    outcome.attempted += result.failed
    outcome.failed += result.failed
    latencies = [s.latency_s for s in result.samples]
    p50 = median(latencies) * 1000.0
    tail = percentile(latencies, TAIL_Q) * 1000.0
    goodput = len(result.samples) / (run.seconds + result.drain_s)
    outcome.metrics.update(p50_ms=p50, tail_ms=tail, throughput_rps=goodput)
    outcome.report.update(
        p50_ms=p50, **_tails(latencies), goodput_rps=goodput, late_p99_ms=late_p99,
        backlog_at_end=result.backlog_at_end, drain_ms=result.drain_s * 1000.0,
        requests=len(result.samples),
    )
    if run.trace:
        _front_phases(outcome, result.samples)
        outcome.layers["trace.p50_ms"] = p50
        outcome.layers["loadgen.late_p99_ms"] = late_p99
    return outcome


# -- bulk-launch --------------------------------------------------------------


def bulk_launch(run: Run) -> Outcome:
    outcome = Outcome()
    dataset, snapshot, generate_s = _generate(run)
    parameters = inputs.singular_range_parameters(dataset)
    oracle = Oracle(dataset, parameters)
    batches = inputs.bulk_batches(dataset, run.seed)
    expected = [[oracle.values(p) for _, p in batch] for batch in batches]
    raws = [
        encode_request(
            "POST", "/batch", inputs.encode({"requests": [p for _, p in batch]})
        )
        for batch in batches
    ]
    truth = inputs.configured_values(dataset, parameters)
    match = _match_rate(
        [
            (key, values)
            for batch, answers in zip(batches, expected)
            for (key, _), values in zip(batch, answers)
        ],
        truth,
    )
    server, boot_s, spans_path = _boot(
        run, snapshot, parameters, (recommend_request(batches[0][0][1]), expected[0][0])
    )
    served = Served(
        server, spans_path, raws, expected, generate_s + boot_s, generate_s, match
    )
    invalidations = inputs.invalidation_order(parameters, run.seed)
    samples: List = []
    window = (0.0, 0.0)
    before = None
    try:
        before = _scrape(served.server.port) if run.trace else None
        connection = Connection("127.0.0.1", served.server.port)

        def invalidate(index: int) -> None:
            if (index + 1) % INVALIDATE_EVERY:
                return
            name = invalidations[(index // INVALIDATE_EVERY) % len(invalidations)]
            response = connection.request(
                encode_request(
                    "POST", "/admin/invalidate", inputs.encode({"parameter": name})
                )
            )
            if response.status != 200:
                raise VoidRun(f"/admin/invalidate answered {response.status}")

        try:
            started = time.perf_counter()
            samples, elapsed = closed_loop(connection, raws, run.seconds, invalidate)
            window = (started, time.perf_counter())
        finally:
            connection.close()
    finally:
        requests = len(samples) * len(batches[0])
        _close_serving(outcome, served, window, requests, before)
    for sample in samples:
        want = expected[sample.index % len(expected)]
        outcome.attempted += len(want)
        if sample.response.status != 200:
            outcome.failed += len(want)
            continue
        got = [r["values"] for r in json.loads(sample.response.body)["results"]]
        outcome.incorrect += abs(len(got) - len(want)) + sum(
            1 for a, b in zip(got, want) if a != b
        )
    latencies = [s.latency_s for s in samples]
    p50 = median(latencies) * 1000.0
    tail = percentile(latencies, TAIL_Q) * 1000.0
    throughput = requests / elapsed
    outcome.metrics.update(p50_ms=p50, tail_ms=tail, throughput_rps=throughput)
    outcome.report.update(
        p50_ms=p50, **{f"p{TAIL_Q}_ms": tail},
        throughput_rps=throughput, batches=len(samples),
    )
    if run.trace:
        _front_phases(outcome, samples, batched=True)
        outcome.layers["trace.p50_ms"] = p50
        outcome.layers["loadgen.late_p99_ms"] = 0.0
    return outcome


# -- refit --------------------------------------------------------------------


def refit(run: Run) -> Outcome:
    outcome = Outcome()
    started = time.perf_counter()
    dataset, snapshot, generate_s = _generate(run)
    del dataset
    spans_path = os.path.join(run.work_dir, "spans.json") if run.trace else None
    argv = [
        sys.executable, os.path.join(ROOT, "perfbench", "refit_child.py"),
        snapshot, run.work_dir, str(run.seconds), str(run.nproc), str(run.seed),
    ] + ([spans_path] if spans_path else [])
    with open(os.path.join(run.work_dir, "refit.stderr"), "wb") as stderr:
        child = subprocess.Popen(
            argv, cwd=run.work_dir, env=child_env(),
            stdout=subprocess.PIPE, stderr=stderr, text=True,
        )
        try:
            ready = child.stdout.readline()
            setup_s = time.perf_counter() - started
            if ready.strip() != "ready":
                raise RuntimeError("refit child failed before loading the snapshot")
            report_line, _ = child.communicate(timeout=REFIT_TIMEOUT_S)
            code = child.returncode
        except BaseException:
            child.kill()
            child.wait()
            raise
    if code != 0 or not report_line:
        raise RuntimeError(f"refit child exited with {code}")
    report = json.loads(report_line)
    cycles = [c["refit_s"] + c["cold_start_s"] for c in report["cycles"]]
    refit_s = median([c["refit_s"] for c in report["cycles"]])
    outcome.attempted = report["checked"]
    outcome.incorrect = report["incorrect"]
    throughput = report["models"] / refit_s
    outcome.metrics.update(
        setup_s=setup_s,
        p50_ms=median(cycles) * 1000.0,
        tail_ms=max(cycles) * 1000.0,
        throughput_rps=throughput,
        peak_rss_mb=report["peak_rss_mb"],
        match_rate=report["match_rate"],
    )
    outcome.report.update(
        setup_s=setup_s,
        refit_s=refit_s,
        cold_start_s=median([c["cold_start_s"] for c in report["cycles"]]),
        eval_s=report["eval_s"],
        eval_targets_per_s=report["eval_targets"] / report["eval_s"],
        match_rate=report["match_rate"],
        peak_rss_mb=report["peak_rss_mb"],
        cycles=len(cycles),
    )
    if spans_path is not None:
        with open(spans_path) as handle:
            _process_layers(outcome, json.load(handle))
        outcome.layers["trace.p50_ms"] = outcome.metrics["p50_ms"]
        outcome.layers["datagen.generate_s"] = generate_s
        outcome.layers["runner.targets"] = float(report["eval_targets"])
    return outcome


RUNNERS = {
    "launch-seq": launch_seq,
    "launch-open": launch_open,
    "bulk-launch": bulk_launch,
    "refit": refit,
}
