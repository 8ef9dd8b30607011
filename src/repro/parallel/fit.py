"""Parallel per-parameter engine fitting.

Each worker rebuilds one :class:`~repro.core.auric.AuricEngine` over the
shared snapshot payload (once per pool lifetime) and runs the
chi-square attribute selection for parameters from it.  Determinism
holds by construction: attribute-selection subsampling draws from a
per-parameter derived RNG stream (``derive(seed, "fit-sample:<name>")``),
so a parameter's selection never depends on which worker ran it or what
else that worker ran before.

A task result is the selection — a few column indexes and their
chi-square statistics — not the fitted model.  The vote structures
(one entry per configured target) are a deterministic function of the
selection and the encoded snapshot, which the master already holds, so
the master rebuilds them there instead of unpickling them from every
worker.

The master encodes the snapshot into a
:class:`~repro.core.columnar.ColumnarSnapshot` before the fan-out, and
it rides along in the payload — inherited for free under *fork*, and
shipped through one shared-memory segment (zero-copy attach, see
:mod:`repro.parallel.shm`) instead of the payload pickle under *spawn*
— so no worker re-encodes.
A snapshot opened from an mmap :class:`repro.store.SnapshotStore` goes
one better: its pickle is just the store *path* plus blob layouts, and
every worker re-maps the same file read-only (page cache shared across
the pool) without any segment copy at all.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Sequence

from repro.obs import metrics as obs_metrics
from repro.obs import tracing
from repro.parallel.pool import get_payload, run_tasks

# Per-process worker state, keyed on payload identity so it is rebuilt
# exactly once per pool lifetime (and never leaks across payloads when
# the serial fallback runs several calls in one process).
_STATE: Dict[str, object] = {"payload": None, "engine": None}


def _worker_engine():
    from repro.core.auric import AuricEngine

    payload = get_payload()
    if _STATE["payload"] is not payload:
        network, store, config, columnar = payload
        _STATE["payload"] = payload
        engine = AuricEngine(network, store, config)
        engine.attach_columnar(columnar)
        _STATE["engine"] = engine
    return _STATE["engine"]


def _fit_task(parameter: str):
    engine = _worker_engine()
    spec = engine.catalog.spec(parameter)
    # Only the selection crosses back: the master rebuilds the vote
    # structures from its own copy of the snapshot.
    with tracing.span("engine.fit_parameter", parameter=parameter) as sp:
        selection = engine._select_columnar(spec)
        names = engine.attribute_names(spec)
        sp.set("dependent", [names[col] for col in selection[0]])
    # Worker registries are disabled, so phase timings ride back on the
    # task result for the master to observe (see fit-pipeline metrics).
    return parameter, selection, engine._take_fit_phases()


def fit_parameter_models(
    engine,
    parameters: Sequence[str],
    vote_weights: Optional[Dict[Hashable, float]] = None,
    jobs: int = 1,
) -> Dict[str, object]:
    """Fit dependency models for many parameters across a process pool.

    Returns ``{parameter: _ParameterModel}`` in input order, identical
    to fitting the same parameters serially on ``engine``.  Workers run
    the chi-square selection against the master's encoded snapshot and
    return ``(dependent_columns, dependent_stats)``; the master builds
    each model (vote weights included) from its own snapshot.  Worker
    phase timings merge into ``engine``'s fit-phase breakdown — worker
    processes run with metrics disabled and cannot observe it
    themselves.
    """
    columnar = engine.columnar_snapshot()
    if getattr(columnar, "_backing", None) is not None:
        obs_metrics.counter(
            "repro_store_pool_reference_total",
            "Pool fits whose snapshot shipped as an mmap store reference",
        ).inc(1.0)
    payload = (engine.network, engine.store, engine.config, columnar)
    results = run_tasks(payload, _fit_task, list(parameters), jobs=jobs)
    fitted = {}
    for parameter, selection, phases in results:
        for (phase, name), seconds in phases.items():
            engine._phase(phase, name, seconds)
        with tracing.span("engine.build_parameter", parameter=parameter) as sp:
            model = engine._build_columnar_model(
                engine.catalog.spec(parameter), *selection, vote_weights
            )
            sp.set("samples", len(model.samples))
            sp.set("dependent", list(model.dependent_names))
        fitted[parameter] = model
    return fitted
