"""Refit child: publish a generation from a fresh snapshot, in process.

Usage: ``python perfbench/refit_child.py SNAPSHOT WORK_DIR SECONDS
JOBS SEED [SPANS_PATH]``.

Prints ``ready`` once the snapshot is loaded, then repeats refit cycles
until ``SECONDS`` have passed (at least one):

1. ``AuricEngine.fit`` of every range parameter with ``jobs`` workers
   and the mmap snapshot store, then ``save_engine`` — *refit*;
2. ``load_engine`` of that artifact until its first answer equals the
   freshly fitted engine's — *cold start*; then every singular
   parameter of a fixed request sample is checked the same way.

Finally it runs the leave-one-out evaluation on a fixed 20-parameter
plan against the cold-loaded engine and prints one JSON line with the
timings, the answer counts, the local-scope match rate and its own
VmHWM.  With ``SPANS_PATH`` the layers are recorded
(:mod:`perfbench.spans`) and written there.
"""

import json
import os
import random
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Carriers (a seeded sample) whose answers the cold-loaded engine must
#: reproduce.
CHECK_CARRIERS = 60
#: Parameters of the leave-one-out plan (the first 20 range parameters
#: by name: fixed, and a mix of singular and pair-wise ones).
EVAL_PARAMETERS = 20


def _answers(service, requests):
    return [
        {
            name: rec.value
            for name, rec in result.recommendation.recommendations.items()
        }
        for result in (service.handle(request) for request in requests)
    ]


def main(argv) -> int:
    snapshot, work_dir = argv[0], argv[1]
    seconds, jobs, seed = float(argv[2]), int(argv[3]), int(argv[4])
    spans_path = argv[5] if len(argv) > 5 else None
    recorder = None
    if spans_path is not None:
        import repro.cli  # noqa: F401 - load every wrapped module first
        from perfbench.spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()

    from repro.config.rulebook import RuleBook
    from repro.core.auric import AuricConfig, AuricEngine
    from repro.core.recommendation import RecommendRequest
    from repro.dataio import load_dataset_json
    from repro.eval.runner import EvaluationRunner
    from repro.serve import RecommendationService
    from repro.serve.artifacts import load_engine, save_engine
    from perfbench.system import vm_hwm_mb

    snap = load_dataset_json(snapshot)
    catalog = snap.store.catalog
    parameters = sorted(spec.name for spec in catalog.range_parameters())
    singular = tuple(
        sorted(s.name for s in catalog.range_parameters() if not s.is_pairwise)
    )
    carriers = random.Random(seed).sample(
        sorted(snap.store.carriers()), CHECK_CARRIERS
    )
    requests = [
        RecommendRequest(carrier_id=c, parameters=singular, leave_one_out=True)
        for c in carriers
    ]
    print("ready", flush=True)

    artifact = os.path.join(work_dir, "engine.json")
    cycles = []
    checked = incorrect = 0
    started = time.perf_counter()
    loaded = None
    while not cycles or time.perf_counter() - started < seconds:
        t0 = time.perf_counter()
        engine = AuricEngine(snap.network, snap.store, AuricConfig(store="mmap"))
        engine.fit(parameters, jobs=jobs)
        save_engine(engine, artifact)
        t1 = time.perf_counter()
        loaded = load_engine(artifact, snap.network, snap.store)
        cold = RecommendationService(loaded, RuleBook(catalog))
        oracle = RecommendationService(engine, RuleBook(catalog))
        first = _answers(cold, requests[:1])
        t2 = time.perf_counter()
        expected = _answers(oracle, requests)
        got = first + _answers(cold, requests[1:])
        checked += len(requests)
        incorrect += sum(1 for a, b in zip(got, expected) if a != b)
        cycles.append({"refit_s": t1 - t0, "cold_start_s": t2 - t1})
        del engine, oracle, cold

    t3 = time.perf_counter()
    result = EvaluationRunner(snap).loo_accuracy(
        loaded, parameters[:EVAL_PARAMETERS], scopes=("local",), jobs=jobs
    )
    eval_s = time.perf_counter() - t3

    if recorder is not None:
        recorder.dump(spans_path)
    print(
        json.dumps(
            {
                "cycles": cycles,
                "models": len(parameters),
                "checked": checked,
                "incorrect": incorrect,
                "eval_s": eval_s,
                "eval_targets": result.evaluated,
                "match_rate": result.mean_local(),
                "peak_rss_mb": vm_hwm_mb(os.getpid()),
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
