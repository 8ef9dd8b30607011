"""Benchmark: the section 3.2 reference oracle vs the columnar engine.

Times the same work twice — the test-suite reference oracle
(``tests/reference_auric.py``: raw attribute tuples, per-sample
``Counter`` votes) and the engine (one-time integer encoding plus the
vectorized voting kernels) — asserts the results are
**byte-identical**, and records the wall-clock numbers in
``benchmarks/results/BENCH_columnar.json``.

Three workloads are measured, the engine serial and with a process
pool (the oracle is serial only):

* full-snapshot fit (all measured parameters),
* the LOO evaluation sweep, and
* a serve-style batch of leave-one-out recommendations.

Environment knobs:

* ``REPRO_COLUMNAR_SCALE``        — four-market workload scale (default 0.05)
* ``REPRO_COLUMNAR_PARAMS``       — measured parameter count (default 12)
* ``REPRO_COLUMNAR_TARGETS``      — LOO targets per parameter (default 2000)
* ``REPRO_COLUMNAR_JOBS``         — pool worker count (default 4)
* ``REPRO_COLUMNAR_MIN_SPEEDUP``  — asserted fit+LOO speedup (default 3.0)

The speedup assertion compares combined serial fit + LOO wall-clock;
both sides run on the same machine in the same process, so the ratio is
load-tolerant in a way absolute timings are not.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import pytest

from repro.core import AuricEngine
from repro.datagen import four_markets_workload
from repro.eval.runner import EvaluationRunner
from repro.experiments.parameter_selection import evaluation_parameters
from tests.reference_auric import ReferenceAuric

SCALE = float(os.environ.get("REPRO_COLUMNAR_SCALE", "0.05"))
PARAMS = os.environ.get("REPRO_COLUMNAR_PARAMS", "12")
JOBS = int(os.environ.get("REPRO_COLUMNAR_JOBS", "4"))
MIN_SPEEDUP = float(os.environ.get("REPRO_COLUMNAR_MIN_SPEEDUP", "3.0"))
MAX_TARGETS = int(os.environ.get("REPRO_COLUMNAR_TARGETS", "2000"))
SERVE_BATCH = 400


@pytest.fixture(scope="module")
def columnar_dataset():
    return four_markets_workload(scale=SCALE)


@pytest.fixture(scope="module")
def columnar_parameters(columnar_dataset):
    return evaluation_parameters(columnar_dataset, requested=PARAMS)


def _assert_models_identical(a, b) -> None:
    """``a``: the oracle's models, ``b``: an engine's fitted models."""
    assert set(a) == set(b)
    for name in a:
        ma, mb = a[name], b[name]
        assert ma.dependent_columns == mb.dependent_columns
        assert ma.dependent_stats == mb.dependent_stats
        assert ma.cell_index == mb.cell_index
        assert list(ma.cell_index) == list(mb.cell_index)
        for cell in ma.cell_index:
            assert list(ma.cell_index[cell].items()) == list(
                mb.cell_index[cell].items()
            )
        assert ma.global_counts == mb.global_counts
        assert ma.samples == mb.samples
        assert ma.by_carrier == mb.by_carrier


def _assert_loo_identical(a, b) -> None:
    assert a.parameter_accuracy_local == b.parameter_accuracy_local
    assert a.parameter_accuracy_global == b.parameter_accuracy_global
    assert a.mismatches_local == b.mismatches_local
    assert a.mismatches_global == b.mismatches_global
    assert a.evaluated == b.evaluated


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def _serve_targets(reference, parameters, count):
    """(parameter, key) leave-one-out serve targets, round-robin."""
    targets = []
    per_parameter = max(count // max(len(parameters), 1), 1)
    for name in parameters:
        keys = list(reference.models[name].samples)[:per_parameter]
        targets.extend((name, key) for key in keys)
    return targets


def _serve_batch(engine, targets):
    out = []
    grouped: dict = {}
    for name, key in targets:
        grouped.setdefault(name, []).append(key)
    for name, keys in grouped.items():
        out.extend(
            (rec.value, rec.support, rec.scope)
            for rec in engine.recommend_for_targets(
                name, keys, leave_one_out=True
            )
        )
    return out


def test_columnar_speedup_with_identical_results(
    columnar_dataset, columnar_parameters, results_dir
):
    dataset = columnar_dataset
    parameters = columnar_parameters
    network, store = dataset.network, dataset.store

    # -- full-snapshot fit: oracle serial, engine serial and pooled -------
    reference, fit_reference_s = _timed(
        lambda: ReferenceAuric(network, store).fit(parameters)
    )
    columnar_engine, fit_columnar_s = _timed(
        lambda: AuricEngine(network, store).fit(parameters)
    )
    columnar_jobs_engine, fit_columnar_jobs_s = _timed(
        lambda: AuricEngine(network, store).fit(parameters, jobs=JOBS)
    )
    _assert_models_identical(reference.models, columnar_engine.fitted_models())
    _assert_models_identical(
        reference.models, columnar_jobs_engine.fitted_models()
    )

    # -- LOO sweep, serial and pooled -------------------------------------
    # The runners' sample plans are engine-independent dataset views;
    # build them outside the timed region so the timings compare the
    # voting sweeps, not identical plan construction on both sides.
    reference_runner = EvaluationRunner(dataset)
    columnar_runner = EvaluationRunner(dataset)
    columnar_jobs_runner = EvaluationRunner(dataset)
    for runner in (reference_runner, columnar_runner, columnar_jobs_runner):
        runner.loo_plan(parameters, max_targets_per_parameter=MAX_TARGETS)
    reference_loo, loo_reference_s = _timed(
        lambda: reference_runner.loo_accuracy(
            reference, parameters, max_targets_per_parameter=MAX_TARGETS
        )
    )
    columnar_loo, loo_columnar_s = _timed(
        lambda: columnar_runner.loo_accuracy(
            columnar_engine, parameters, max_targets_per_parameter=MAX_TARGETS
        )
    )
    columnar_loo_jobs, loo_columnar_jobs_s = _timed(
        lambda: columnar_jobs_runner.loo_accuracy(
            columnar_engine, parameters,
            max_targets_per_parameter=MAX_TARGETS, jobs=JOBS,
        )
    )
    _assert_loo_identical(reference_loo, columnar_loo)
    _assert_loo_identical(reference_loo, columnar_loo_jobs)

    # -- serve-style batch -------------------------------------------------
    targets = _serve_targets(reference, parameters, SERVE_BATCH)
    reference_served, serve_reference_s = _timed(
        lambda: _serve_batch(reference, targets)
    )
    columnar_served, serve_columnar_s = _timed(
        lambda: _serve_batch(columnar_engine, targets)
    )
    assert reference_served == columnar_served

    combined_reference_s = fit_reference_s + loo_reference_s
    combined_columnar_s = fit_columnar_s + loo_columnar_s
    speedup = combined_reference_s / combined_columnar_s

    document = {
        "cpu_count": multiprocessing.cpu_count(),
        "scale": SCALE,
        "jobs": JOBS,
        "parameters": len(parameters),
        "loo_targets_evaluated": reference_loo.evaluated,
        "serve_batch": len(targets),
        "fit": {
            "reference_serial_s": fit_reference_s,
            "columnar_serial_s": fit_columnar_s,
            "columnar_jobs_s": fit_columnar_jobs_s,
            "speedup_serial": fit_reference_s / fit_columnar_s,
        },
        "loo": {
            "reference_serial_s": loo_reference_s,
            "columnar_serial_s": loo_columnar_s,
            "columnar_jobs_s": loo_columnar_jobs_s,
            "speedup_serial": loo_reference_s / loo_columnar_s,
        },
        "serve": {
            "reference_s": serve_reference_s,
            "columnar_s": serve_columnar_s,
            "speedup": serve_reference_s / serve_columnar_s,
        },
        "combined_fit_loo_speedup": speedup,
        "min_speedup_required": MIN_SPEEDUP,
        "identical_results": True,
    }
    path = results_dir / "BENCH_columnar.json"
    path.write_text(json.dumps(document, indent=2) + "\n")
    print(f"\ncolumnar benchmark: {json.dumps(document, indent=2)}")

    assert speedup >= MIN_SPEEDUP, (
        f"combined fit+LOO speedup {speedup:.2f}x is below the required "
        f"{MIN_SPEEDUP:.1f}x (fit {fit_reference_s:.2f}s -> "
        f"{fit_columnar_s:.2f}s, LOO {loo_reference_s:.2f}s -> "
        f"{loo_columnar_s:.2f}s)"
    )
