"""Pool fits ship chi-square selections, not models.

Workers return ``(dependent_columns, dependent_stats)`` and the master
rebuilds every model from its own columnar snapshot.  The rebuilt
models must equal the serial fit field for field — dict order and the
encoded-vote stash included — under both pool start methods, with vote
weights, and when a parameter's cell key space is past the int64
packing limit in the workers' selection or only in the master's build.
"""

import pytest

from repro.core import AuricEngine
from repro.core import columnar as columnar_module
from repro.obs import metrics as obs_metrics
from repro.parallel.pool import START_METHOD_ENV

from ..fitted_models import assert_same_models, model_fields

PARAMETERS = ("pMax", "inactivityTimer", "hysA3Offset")


@pytest.fixture(params=["fork", "spawn"])
def start_method(request, monkeypatch):
    monkeypatch.setenv(START_METHOD_ENV, request.param)
    return request.param


def fit(dataset, jobs, **kwargs):
    return AuricEngine(dataset.network, dataset.store).fit(
        PARAMETERS, jobs=jobs, **kwargs
    )


class TestSelectionTransport:
    def test_pool_fit_equals_serial(self, dataset, start_method):
        serial = fit(dataset, 1)
        pooled = fit(dataset, 2)
        assert_same_models(serial, pooled)
        assert list(pooled.fitted_models()) == list(serial.fitted_models())
        for model in pooled.fitted_models().values():
            assert model._encoded is not None

    def test_vote_weights_apply_in_the_master(self, dataset, start_method):
        pair = sorted(dataset.store.pairwise_values("hysA3Offset"))[0]
        carrier = sorted(dataset.store.singular_values("pMax"))[0]
        weights = {carrier: 3.0, pair: 0.5}
        serial = fit(dataset, 1, vote_weights=weights)
        pooled = fit(dataset, 2, vote_weights=weights)
        assert_same_models(serial, pooled)
        models = pooled.fitted_models()
        assert models["pMax"].weights == {carrier: 3.0}
        assert models["hysA3Offset"].weights == {pair: 0.5}
        # Weighted models keep no encoded stash, as in a serial fit.
        assert models["pMax"]._encoded is None

    def test_fit_past_the_packing_limit_matches_serial(
        self, dataset, monkeypatch
    ):
        """A packing limit of 200 cells sits above the largest strata
        pMax and inactivityTimer pack on the tiny workload (63 and 168)
        but below hysA3Offset's (294), so hysA3Offset's cell keys are
        re-densified — inside the worker's selection and the master's
        build alike.  Fork only: spawned workers re-import the module
        and would not see the lowered limit."""
        monkeypatch.setenv(START_METHOD_ENV, "fork")
        unlimited = fit(dataset, 1).fitted_models()
        monkeypatch.setattr(columnar_module, "PACK_CAPACITY_LIMIT", 200)
        serial = fit(dataset, 1)
        pooled = fit(dataset, 2)
        assert_same_models(serial, pooled)
        models = pooled.fitted_models()
        for name in PARAMETERS:
            assert models[name]._encoded is not None
            # Same model; only the packed key values may differ.
            assert model_fields(models[name])[:-1] == model_fields(
                unlimited[name]
            )[:-1], name
        assert model_fields(models["pMax"]) == model_fields(unlimited["pMax"])

    def test_build_past_the_packing_limit_matches_serial(
        self, dataset, monkeypatch
    ):
        """Spawned workers re-import the module and select under the
        default int64 limit, while the master builds under the lowered
        one: hysA3Offset's cell keys are re-densified in the master's
        build only, and the rebuilt models still equal the serial fit
        under the lowered limit."""
        monkeypatch.setenv(START_METHOD_ENV, "spawn")
        unlimited = fit(dataset, 1).fitted_models()
        monkeypatch.setattr(columnar_module, "PACK_CAPACITY_LIMIT", 200)
        serial = fit(dataset, 1)
        pooled = fit(dataset, 2)
        assert_same_models(serial, pooled)
        models = pooled.fitted_models()
        for name in PARAMETERS:
            assert models[name]._encoded is not None
            assert model_fields(models[name])[:-1] == model_fields(
                unlimited[name]
            )[:-1], name
        # The master really did re-densify: the packed keys moved.
        assert (
            models["hysA3Offset"]._encoded.cell_codes.tolist()
            != unlimited["hysA3Offset"]._encoded.cell_codes.tolist()
        )


class TestPhaseMetrics:
    def _phases(self, dataset, jobs, monkeypatch):
        """``repro_fit_phase_seconds`` observation counts, plus how often
        the master's engine accumulated each (phase, parameter) — worker
        timings merge in through the same call, so a phase recorded on
        both sides of the pool would show up twice."""
        calls = {}
        real_phase = AuricEngine._phase

        def phase(self, name, parameter, seconds):
            calls[(name, parameter)] = calls.get((name, parameter), 0) + 1
            real_phase(self, name, parameter, seconds)

        registry = obs_metrics.MetricsRegistry()
        with monkeypatch.context() as patch:
            patch.setattr(AuricEngine, "_phase", phase)
            patch.setattr(obs_metrics, "_REGISTRY", registry)
            fit(dataset, jobs)
        family = registry.get("repro_fit_phase_seconds")
        counts = {child.labelvalues: child.count for child in family.children()}
        return counts, calls

    def test_pool_observes_each_phase_once(self, dataset, monkeypatch):
        serial_counts, serial_calls = self._phases(dataset, 1, monkeypatch)
        pooled_counts, pooled_calls = self._phases(dataset, 2, monkeypatch)
        assert pooled_counts == serial_counts
        assert pooled_calls == serial_calls
        for name in PARAMETERS:
            assert pooled_calls[("select", name)] == 1
            assert pooled_calls[("vote", name)] == 1
        assert {phase for phase, _ in pooled_counts} == {
            "encode",
            "select",
            "vote",
        }
