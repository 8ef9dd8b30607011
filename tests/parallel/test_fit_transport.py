"""Pool fits ship chi-square selections, not models.

Workers return ``(dependent_columns, dependent_stats)`` and the master
rebuilds every model from its own columnar snapshot.  The rebuilt
models must equal the serial fit field for field — dict order and the
encoded-vote stash included — under both pool start methods, with vote
weights, and when one parameter overflows int64 cell packing and has to
refit on the tuple path — whether the overflow hits the worker's
selection or the master's build.
"""

import pytest

from repro.core import AuricEngine
from repro.core.auric import AuricConfig
from repro.core import columnar as columnar_module
from repro.core.columnar import ColumnarCapacityError
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

    def test_capacity_overflow_refits_on_the_tuple_path(
        self, dataset, start_method, monkeypatch
    ):
        real_build = AuricEngine._build_columnar_model

        def build(self, spec, *args, **kwargs):
            if spec.name == "inactivityTimer":
                raise ColumnarCapacityError("forced overflow")
            return real_build(self, spec, *args, **kwargs)

        monkeypatch.setattr(AuricEngine, "_build_columnar_model", build)
        serial = fit(dataset, 1)
        pooled = fit(dataset, 2)
        assert_same_models(serial, pooled)
        models = pooled.fitted_models()
        assert models["inactivityTimer"]._encoded is None
        assert models["pMax"]._encoded is not None

    def test_selection_overflow_refits_on_the_tuple_path(
        self, dataset, monkeypatch
    ):
        """A packing limit of 200 cells sits above the largest strata
        pMax and inactivityTimer pack on the tiny workload (63 and 168)
        but below hysA3Offset's (294), so hysA3Offset's chi-square
        selection itself overflows — inside the worker on the pool path.
        Fork only: spawned workers re-import the module and would not
        see the lowered limit."""
        monkeypatch.setenv(START_METHOD_ENV, "fork")
        unlimited = fit(dataset, 1).fitted_models()
        monkeypatch.setattr(columnar_module, "PACK_CAPACITY_LIMIT", 200)
        engine = AuricEngine(dataset.network, dataset.store)
        with pytest.raises(ColumnarCapacityError):
            engine._select_columnar(engine.catalog.spec("hysA3Offset"))

        serial = fit(dataset, 1)
        pooled = fit(dataset, 2)
        assert_same_models(serial, pooled)
        models = pooled.fitted_models()
        assert models["hysA3Offset"]._encoded is None
        assert models["pMax"]._encoded is not None
        assert models["inactivityTimer"]._encoded is not None
        # The tuple path learns the same model, minus the encoded stash.
        for name in PARAMETERS:
            assert model_fields(models[name])[:-1] == model_fields(
                unlimited[name]
            )[:-1], name

    def test_tuple_config_ships_whole_models(self, dataset):
        config = AuricConfig(columnar=False)
        serial = AuricEngine(dataset.network, dataset.store, config).fit(
            PARAMETERS
        )
        pooled = AuricEngine(dataset.network, dataset.store, config).fit(
            PARAMETERS, jobs=2
        )
        assert_same_models(serial, pooled)


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
