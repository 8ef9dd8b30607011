"""Benchmark: recommendation-service throughput, warm vs cold vs refit.

Three serving strategies for the same request stream:

* **warm** — a long-lived :class:`~repro.serve.RecommendationService`
  with a populated vote cache (the steady state of section 5's
  deployment),
* **cold** — the same service with its cache invalidated every round
  (every request pays a full vote), and
* **per-request refit** — the fit-per-call pattern the experiments use,
  as a baseline: a fresh engine fitted for every single request.

The last test asserts the ordering the serving layer exists to provide:
the warm path must be orders of magnitude faster than refitting.
"""

import os
import time

import pytest

from repro.config.rulebook import RuleBook
from repro.core import AuricEngine, NewCarrierRequest
from repro.core.recommendation import RecommendRequest
from repro.serve import RecommendationService

SERVE_PARAMETERS = ["pMax", "inactivityTimer"]
N_REQUESTS = 200


@pytest.fixture(scope="module")
def serve_engine(four_market_dataset):
    return AuricEngine(
        four_market_dataset.network, four_market_dataset.store
    ).fit(SERVE_PARAMETERS)


@pytest.fixture(scope="module")
def request_stream(four_market_dataset):
    stream = []
    for enodeb in four_market_dataset.network.enodebs():
        for carrier in enodeb.carriers():
            stream.append(
                NewCarrierRequest(
                    attributes=carrier.attributes, enodeb_id=enodeb.enodeb_id
                )
            )
            if len(stream) == N_REQUESTS:
                return stream
    return stream


def make_service(dataset, engine):
    return RecommendationService(engine, RuleBook(dataset.catalog))


def serve(service, request, parameters):
    return service.handle(
        RecommendRequest.from_new_carrier(request, parameters=tuple(parameters))
    ).recommendation


def serve_batch(service, requests, parameters):
    unified = [
        RecommendRequest.from_new_carrier(r, parameters=tuple(parameters))
        for r in requests
    ]
    return [res.recommendation for res in service.handle_batch(unified)]


def test_warm_service_throughput(
    benchmark, four_market_dataset, serve_engine, request_stream
):
    service = make_service(four_market_dataset, serve_engine)
    serve_batch(service, request_stream, SERVE_PARAMETERS)

    results = benchmark.pedantic(
        lambda: serve_batch(
            service, request_stream, SERVE_PARAMETERS
        ),
        rounds=3,
        iterations=1,
    )
    assert len(results) == len(request_stream)
    assert service.metrics.cache_hit_rate > 0.5


def test_cold_service_throughput(
    benchmark, four_market_dataset, serve_engine, request_stream
):
    service = make_service(four_market_dataset, serve_engine)

    def cold_batch():
        service.invalidate()
        return serve_batch(
            service, request_stream, SERVE_PARAMETERS
        )

    results = benchmark.pedantic(cold_batch, rounds=3, iterations=1)
    assert len(results) == len(request_stream)


def test_per_request_refit_baseline(
    benchmark, four_market_dataset, request_stream
):
    """The pattern the service replaces: fit an engine per request."""
    request = request_stream[0]

    def refit_and_recommend():
        engine = AuricEngine(
            four_market_dataset.network, four_market_dataset.store
        ).fit(SERVE_PARAMETERS)
        return serve(
            make_service(four_market_dataset, engine),
            request,
            SERVE_PARAMETERS,
        )

    result = benchmark.pedantic(refit_and_recommend, rounds=3, iterations=1)
    assert result.recommendations["pMax"].value is not None


def test_warm_path_beats_per_request_refit(
    four_market_dataset, serve_engine, request_stream
):
    """Acceptance: warm-path latency measurably below per-request refit."""
    sample = request_stream[:50]
    service = make_service(four_market_dataset, serve_engine)
    serve_batch(service, sample, SERVE_PARAMETERS)

    started = time.perf_counter()
    serve_batch(service, sample, SERVE_PARAMETERS)
    warm_per_request = (time.perf_counter() - started) / len(sample)

    started = time.perf_counter()
    engine = AuricEngine(
        four_market_dataset.network, four_market_dataset.store
    ).fit(SERVE_PARAMETERS)
    serve(
        make_service(four_market_dataset, engine), sample[0], SERVE_PARAMETERS
    )
    refit_per_request = time.perf_counter() - started

    assert warm_per_request * 10 < refit_per_request


def test_metrics_exposition(
    four_market_dataset, serve_engine, request_stream
):
    """Serving the stream yields a well-formed Prometheus exposition.

    Set ``REPRO_METRICS_DUMP=<path>`` to also write the text — the CI
    serve smoke uploads it as a build artifact.
    """
    service = make_service(four_market_dataset, serve_engine)
    serve_batch(service, request_stream, SERVE_PARAMETERS)

    text = service.metrics.to_prometheus_text()
    assert "# TYPE repro_service_requests_total counter" in text
    assert "repro_service_request_latency_seconds_bucket" in text
    assert 'le="+Inf"' in text

    dump = os.environ.get("REPRO_METRICS_DUMP")
    if dump:
        with open(dump, "w") as handle:
            handle.write(text)


def test_health_instrumentation_overhead(
    four_market_dataset, serve_engine, request_stream, results_dir
):
    """Acceptance: drift tracking + the sampling profiler cost < 5% on
    the warm serve path (tunable via ``REPRO_HEALTH_MAX_OVERHEAD``).

    Two identical warm services serve the same stream; one carries the
    full health instrumentation (sampled drift window + wall-clock
    profiler).  Timings interleave round-by-round and the best round
    wins, so scheduler noise hits both sides equally.  The measured
    overhead lands in ``benchmarks/results/BENCH_health.json``.
    """
    import json

    from repro.obs.profiler import SamplingProfiler

    max_overhead = float(os.environ.get("REPRO_HEALTH_MAX_OVERHEAD", "0.05"))
    rounds, batches_per_round = 7, 3

    plain = make_service(four_market_dataset, serve_engine)
    instrumented = make_service(four_market_dataset, serve_engine)
    instrumented.enable_drift_tracking(sample_every=8)
    profiler = SamplingProfiler(interval=0.002)

    def timed_batches(service):
        started = time.perf_counter()
        for _ in range(batches_per_round):
            serve_batch(
                service, request_stream, SERVE_PARAMETERS
            )
        return time.perf_counter() - started

    # Warm both vote caches before any timing.
    timed_batches(plain)
    timed_batches(instrumented)

    plain_s, instrumented_s = [], []
    for _ in range(rounds):
        plain_s.append(timed_batches(plain))
        with profiler:
            instrumented_s.append(timed_batches(instrumented))

    # The instrumentation was genuinely on while measured.
    requests_served = (rounds + 1) * batches_per_round * len(request_stream)
    assert instrumented.drift_window.seen == requests_served
    assert instrumented.drift_window.sampled > 0
    assert profiler.samples > 0

    best_plain, best_instrumented = min(plain_s), min(instrumented_s)
    overhead = (best_instrumented - best_plain) / best_plain

    report = instrumented.drift_report()
    document = {
        "requests_per_batch": len(request_stream),
        "rounds": rounds,
        "batches_per_round": batches_per_round,
        "plain_best_s": best_plain,
        "instrumented_best_s": best_instrumented,
        "overhead": overhead,
        "max_overhead": max_overhead,
        "profiler_samples": profiler.samples,
        "drift_sampled": instrumented.drift_window.sampled,
        "drift_psi_max": None if report is None else report.psi_max,
    }
    path = results_dir / "BENCH_health.json"
    path.write_text(json.dumps(document, indent=2) + "\n")
    print(f"\nhealth overhead benchmark: {json.dumps(document, indent=2)}")

    assert overhead < max_overhead, (
        f"health instrumentation overhead {overhead:.2%} exceeds "
        f"{max_overhead:.0%} (plain {best_plain:.4f}s vs "
        f"instrumented {best_instrumented:.4f}s)"
    )
