"""Artifact round-trips: fit once → save → load → identical answers."""

import json
import os
import stat

import pytest

from repro.core import AuricEngine
from repro.core.auric import AuricConfig
from repro.datagen import tiny_workload
from repro.serve import (
    ARTIFACT_SCHEMA_VERSION,
    ArtifactError,
    artifact_summary,
    engine_from_dict,
    engine_to_dict,
    load_engine,
    save_engine,
)
from repro.serve.artifacts import _model_to_dict
from repro.store import MmapSnapshotStore

from ..fitted_models import assert_same_models, model_fields
from .conftest import SERVE_PARAMETERS


@pytest.fixture(scope="module")
def reloaded(fitted_engine, dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("artifacts") / "engine.json"
    save_engine(fitted_engine, str(path))
    return load_engine(str(path), dataset.network, dataset.store)


class TestRoundTripIdentity:
    def test_fitted_parameters_survive(self, fitted_engine, reloaded):
        assert reloaded.fitted_parameters() == fitted_engine.fitted_parameters()

    def test_dependent_attributes_survive(self, fitted_engine, reloaded):
        for name in SERVE_PARAMETERS:
            assert reloaded.dependent_attribute_names(
                name
            ) == fitted_engine.dependent_attribute_names(name)

    @pytest.mark.parametrize("parameter", ["pMax", "inactivityTimer"])
    @pytest.mark.parametrize("local", [True, False], ids=["local", "global"])
    def test_singular_recommendations_identical(
        self, fitted_engine, reloaded, dataset, parameter, local
    ):
        """Leave-one-out recommendations — the paper's evaluation path —
        must be *exactly* equal (value, support, matched, scope)."""
        carriers = sorted(dataset.store.singular_values(parameter))[:80]
        assert carriers
        for carrier_id in carriers:
            live = fitted_engine.recommend_for_carrier(
                parameter, carrier_id, local=local, leave_one_out=True
            )
            persisted = reloaded.recommend_for_carrier(
                parameter, carrier_id, local=local, leave_one_out=True
            )
            assert live == persisted

    @pytest.mark.parametrize("local", [True, False], ids=["local", "global"])
    def test_pairwise_recommendations_identical(
        self, fitted_engine, reloaded, dataset, local
    ):
        pairs = sorted(dataset.store.pairwise_values("hysA3Offset"))[:80]
        assert pairs
        for pair in pairs:
            live = fitted_engine.recommend_for_pair(
                "hysA3Offset", pair, local=local, leave_one_out=True
            )
            persisted = reloaded.recommend_for_pair(
                "hysA3Offset", pair, local=local, leave_one_out=True
            )
            assert live == persisted

    def test_resave_is_byte_identical(self, fitted_engine, reloaded):
        """Serializing the reloaded engine reproduces the artifact
        byte-for-byte — the round trip loses nothing."""
        original = json.dumps(engine_to_dict(fitted_engine), sort_keys=True)
        resaved = json.dumps(engine_to_dict(reloaded), sort_keys=True)
        assert original == resaved

    def test_config_survives(self, dataset, tmp_path):
        config = AuricConfig(support_threshold=0.6, min_local_votes=5, seed=99)
        engine = AuricEngine(dataset.network, dataset.store, config).fit(["pMax"])
        path = tmp_path / "engine.json"
        save_engine(engine, str(path))
        loaded = load_engine(str(path), dataset.network, dataset.store)
        assert loaded.config == config


class TestArtifactValidation:
    def test_rejects_unknown_schema_version(self, fitted_engine, dataset):
        payload = engine_to_dict(fitted_engine)
        payload["schema_version"] = ARTIFACT_SCHEMA_VERSION + 1
        with pytest.raises(ArtifactError, match="schema version"):
            engine_from_dict(payload, dataset.network, dataset.store)

    def test_rejects_wrong_kind(self, fitted_engine, dataset):
        payload = engine_to_dict(fitted_engine)
        payload["kind"] = "something-else"
        with pytest.raises(ArtifactError, match="not an engine artifact"):
            engine_from_dict(payload, dataset.network, dataset.store)

    def test_rejects_snapshot_mismatch(self, fitted_engine, dataset):
        payload = engine_to_dict(fitted_engine)
        payload["snapshot_fingerprint"] = "0" * 64
        with pytest.raises(ArtifactError, match="different snapshot"):
            engine_from_dict(payload, dataset.network, dataset.store)

    def test_mismatch_override(self, fitted_engine, dataset):
        payload = engine_to_dict(fitted_engine)
        payload["snapshot_fingerprint"] = "0" * 64
        engine = engine_from_dict(
            payload, dataset.network, dataset.store, verify_fingerprint=False
        )
        assert engine.fitted_parameters() == fitted_engine.fitted_parameters()

    def test_summary_renders(self, fitted_engine):
        text = artifact_summary(engine_to_dict(fitted_engine))
        assert "3 parameter models" in text
        assert "(0 derived from the columnar store, 3 inline)" in text
        samples = sum(
            len(m.samples) for m in fitted_engine.fitted_models().values()
        )
        assert f"{samples} inline samples" in text

    def test_summary_counts_derived_models(self, dataset, tmp_path):
        engine = AuricEngine(
            dataset.network, dataset.store, AuricConfig(store="mmap")
        ).fit(list(SERVE_PARAMETERS))
        payload = save_engine(engine, str(tmp_path / "engine.json"))
        text = artifact_summary(payload)
        assert text.startswith(f"engine artifact v{ARTIFACT_SCHEMA_VERSION}:")
        assert "3 parameter models" in text
        assert "(3 derived from the columnar store, 0 inline)" in text
        assert "0 inline samples" in text
        assert "columnar in mmap store engine.json.columnar" in text


class TestColumnarPersistence:
    """Schema v2: the encoded snapshot travels with the artifact."""

    def test_v2_artifact_carries_columnar_section(self, fitted_engine):
        payload = engine_to_dict(fitted_engine)
        assert payload["schema_version"] == ARTIFACT_SCHEMA_VERSION
        assert "columnar" in payload
        assert "columnar" not in payload["config"]
        encoded = payload["columnar"]
        assert encoded["carrier_ids"]
        assert {p["parameter"] for p in encoded["parameters"]} >= set(
            SERVE_PARAMETERS
        )

    def test_loaded_engine_adopts_encoded_snapshot(self, reloaded):
        snapshot = reloaded.columnar_snapshot()
        assert snapshot is not None
        for name in SERVE_PARAMETERS:
            assert snapshot.has_parameter(name)

    def test_v1_artifact_still_loads(self, fitted_engine, dataset):
        """Pre-columnar documents lack the section; they load with
        defaults and re-encode on first use."""
        payload = json.loads(json.dumps(engine_to_dict(fitted_engine)))
        payload["schema_version"] = 1
        payload.pop("columnar")
        engine = engine_from_dict(payload, dataset.network, dataset.store)
        assert engine.columnar_snapshot() is None
        assert engine.config == fitted_engine.config
        assert engine.fitted_parameters() == fitted_engine.fitted_parameters()

    @pytest.mark.parametrize("flag", [True, False])
    def test_retired_columnar_flag_is_ignored_on_load(
        self, fitted_engine, dataset, tmp_path, flag
    ):
        """Documents written through v5 by the two-path engine carry a
        ``"columnar"`` config flag; either value loads, and answers
        exactly like the current document."""
        current = engine_to_dict(fitted_engine)
        older = json.loads(json.dumps(current))
        older["schema_version"] = 4
        older["config"]["columnar"] = flag
        loaded = []
        for name, payload in (("v5", current), ("v4", older)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(payload))
            loaded.append(load_engine(str(path), dataset.network, dataset.store))
        assert loaded[0].config == loaded[1].config == fitted_engine.config
        for name in SERVE_PARAMETERS:
            keys = list(fitted_engine.fitted_models()[name].samples)[:60]
            for local in (True, False):
                answers = [
                    engine.recommend_for_targets(name, keys, local=local)
                    for engine in (fitted_engine, *loaded)
                ]
                assert answers[0] == answers[1] == answers[2], (name, local)


class TestDriftBaselinePersistence:
    """Schema v3: the fit-time drift baseline travels with the artifact."""

    def test_v3_artifact_carries_drift_baseline(self, fitted_engine):
        payload = engine_to_dict(fitted_engine)
        assert payload["schema_version"] == ARTIFACT_SCHEMA_VERSION
        baseline = payload["drift_baseline"]
        assert baseline["carrier_count"] > 0
        assert "carrier_frequency" in baseline["attributes"]
        assert set(baseline["parameters"]) >= set(SERVE_PARAMETERS)

    def test_loaded_engine_keeps_baseline(self, fitted_engine, reloaded):
        assert reloaded.drift_baseline is not None
        assert (
            reloaded.drift_baseline.to_dict()
            == fitted_engine.drift_baseline.to_dict()
        )

    def test_v2_artifact_still_loads(self, fitted_engine, dataset):
        """Pre-drift documents lack the baseline section; they load and
        serve (the baseline stays None until the next fit)."""
        payload = json.loads(json.dumps(engine_to_dict(fitted_engine)))
        payload["schema_version"] = 2
        payload.pop("drift_baseline")
        engine = engine_from_dict(payload, dataset.network, dataset.store)
        assert engine.drift_baseline is None
        assert engine.fitted_parameters() == fitted_engine.fitted_parameters()

    def test_baseline_json_round_trips(self, fitted_engine, dataset, tmp_path):
        path = tmp_path / "engine.json"
        save_engine(fitted_engine, str(path))
        loaded = load_engine(str(path), dataset.network, dataset.store)
        assert (
            loaded.drift_baseline.to_dict()
            == fitted_engine.drift_baseline.to_dict()
        )


class TestExternalStorePersistence:
    """Schema v4: the encoded snapshot can live in an external
    :mod:`repro.store` backend referenced by the artifact."""

    def _fit(self, dataset, store_kind):
        config = AuricConfig(store=store_kind)
        return AuricEngine(dataset.network, dataset.store, config).fit(
            list(SERVE_PARAMETERS)
        )

    @pytest.mark.parametrize("kind", ["file", "mmap"])
    def test_store_ref_replaces_inline_columnar(self, dataset, tmp_path, kind):
        engine = self._fit(dataset, kind)
        path = tmp_path / "engine.json"
        save_engine(engine, str(path))
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == ARTIFACT_SCHEMA_VERSION
        assert payload["config"]["store"] == kind
        assert "columnar" not in payload
        ref = payload["columnar_store"]
        assert ref["kind"] == kind
        # The ref is relative: the store sits next to the artifact.
        assert "/" not in ref["path"]
        assert (tmp_path / ref["path"]).exists()

    @pytest.mark.parametrize("kind", ["file", "mmap"])
    def test_load_adopts_external_snapshot(self, dataset, tmp_path, kind):
        engine = self._fit(dataset, kind)
        path = tmp_path / "engine.json"
        save_engine(engine, str(path))
        loaded = load_engine(str(path), dataset.network, dataset.store)
        snapshot = loaded.columnar_snapshot()
        assert snapshot is not None
        for name in SERVE_PARAMETERS:
            assert snapshot.has_parameter(name)
        live = engine.recommend_for_carrier(
            "pMax",
            sorted(dataset.store.singular_values("pMax"))[0],
            local=False,
            leave_one_out=True,
        )
        persisted = loaded.recommend_for_carrier(
            "pMax",
            sorted(dataset.store.singular_values("pMax"))[0],
            local=False,
            leave_one_out=True,
        )
        assert live == persisted

    @pytest.mark.parametrize("kind", ["file", "mmap"])
    def test_save_open_resave_is_byte_identical(self, dataset, tmp_path, kind):
        """save → load → save to the *same basename* reproduces both the
        artifact JSON and the store file byte-for-byte."""
        engine = self._fit(dataset, kind)
        first = tmp_path / "a" / "engine.json"
        second = tmp_path / "b" / "engine.json"
        first.parent.mkdir()
        second.parent.mkdir()
        save_engine(engine, str(first))
        loaded = load_engine(str(first), dataset.network, dataset.store)
        save_engine(loaded, str(second))
        assert first.read_bytes() == second.read_bytes()
        suffix = ".columnar.json" if kind == "file" else ".columnar"
        store_a = first.parent / f"engine.json{suffix}"
        store_b = second.parent / f"engine.json{suffix}"
        assert store_a.read_bytes() == store_b.read_bytes()

    def test_missing_store_file_raises(self, dataset, tmp_path):
        engine = self._fit(dataset, "mmap")
        path = tmp_path / "engine.json"
        save_engine(engine, str(path))
        (tmp_path / "engine.json.columnar").unlink()
        with pytest.raises(ArtifactError, match="columnar store"):
            load_engine(str(path), dataset.network, dataset.store)

    def test_memory_store_keeps_inline_columnar(self, dataset, tmp_path):
        engine = self._fit(dataset, "memory")
        path = tmp_path / "engine.json"
        save_engine(engine, str(path))
        payload = json.loads(path.read_text())
        assert "columnar" in payload
        assert "columnar_store" not in payload
        assert payload["config"]["store"] == "memory"

    def test_v3_artifact_without_store_field_loads(self, fitted_engine, dataset):
        """Pre-store documents lack config.store and the ref section;
        they load with the memory default."""
        payload = json.loads(json.dumps(engine_to_dict(fitted_engine)))
        payload["schema_version"] = 3
        payload["config"].pop("store")
        engine = engine_from_dict(payload, dataset.network, dataset.store)
        assert engine.config.store == "memory"
        assert engine.fitted_parameters() == fitted_engine.fitted_parameters()


class TestAtomicSave:
    def test_crash_mid_save_keeps_previous_artifact(
        self, fitted_engine, dataset, tmp_path, monkeypatch
    ):
        path = tmp_path / "engine.json"
        save_engine(fitted_engine, str(path))
        before = path.read_bytes()
        real_dump = json.dump

        def torn_dump(payload, handle, *args, **kwargs):
            handle.write(json.dumps(payload)[:100])
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", torn_dump)
        with pytest.raises(OSError, match="disk full"):
            save_engine(fitted_engine, str(path))
        monkeypatch.setattr(json, "dump", real_dump)

        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["engine.json"]
        engine = load_engine(str(path), dataset.network, dataset.store)
        assert engine.fitted_parameters() == fitted_engine.fitted_parameters()


def _fit_mmap(dataset, **kwargs):
    return AuricEngine(
        dataset.network, dataset.store, AuricConfig(store="mmap")
    ).fit(list(SERVE_PARAMETERS), **kwargs)


def _save_and_load(engine, dataset, path):
    payload = save_engine(engine, str(path))
    loaded = load_engine(str(path), engine.network, engine.store)
    return payload, loaded


def _layout(payload):
    """``{parameter: "derived" | "inline"}`` for an artifact payload."""
    return {
        m["parameter"]: "derived" if "samples_from" in m else "inline"
        for m in payload["models"]
    }


class TestDerivedModels:
    """Schema v5: models the external columnar store reproduces carry
    only their selection and rebuild on load."""

    def test_store_backed_models_are_derived(self, dataset, tmp_path):
        engine = _fit_mmap(dataset)
        payload, loaded = _save_and_load(engine, dataset, tmp_path / "e.json")
        assert payload["schema_version"] == 5
        assert set(_layout(payload).values()) == {"derived"}
        for model in payload["models"]:
            assert model["samples_from"] == "columnar"
            assert "samples" not in model
        ref = payload["columnar_store"]
        assert ref["fingerprint"] == engine.columnar_snapshot().fingerprint()
        assert_same_models(engine, loaded)

    def test_weighted_models_stay_inline(self, dataset, tmp_path):
        carrier = sorted(dataset.store.singular_values("pMax"))[0]
        engine = _fit_mmap(dataset, vote_weights={carrier: 2.5})
        payload, loaded = _save_and_load(engine, dataset, tmp_path / "e.json")
        weighted = {
            name
            for name, model in engine.fitted_models().items()
            if model.weights
        }
        assert "pMax" in weighted and "hysA3Offset" not in weighted
        assert _layout(payload) == {
            name: "inline" if name in weighted else "derived"
            for name in SERVE_PARAMETERS
        }
        assert loaded.fitted_models()["pMax"].weights == {carrier: 2.5}
        assert_same_models(engine, loaded)

    def test_refreshed_model_stays_inline(self, dataset, tmp_path):
        engine = _fit_mmap(dataset)
        model = engine.fitted_models()["pMax"]
        carrier = sorted(model.samples)[0]
        _, label = model.samples[carrier]
        # Re-adding moves the sample to the end of the electorate.
        model.add_sample(carrier, engine.carrier_row(carrier), label)
        path = tmp_path / "e.json"
        payload, loaded = _save_and_load(engine, dataset, path)
        assert _layout(payload) == {
            "hysA3Offset": "derived",
            "inactivityTimer": "derived",
            "pMax": "inline",
        }
        rebuilt = loaded.fitted_models()["pMax"]
        assert list(rebuilt.samples.items()) == list(model.samples.items())
        assert list(rebuilt.by_carrier.items()) == list(
            model.by_carrier.items()
        )
        assert list(rebuilt.global_counts.items()) == list(
            model.global_counts.items()
        )
        # Inline samples replay in electorate order, so the cell index
        # holds the same votes; its key order is the replay's.
        assert rebuilt.cell_index == model.cell_index
        for key in sorted(model.samples)[:40]:
            assert loaded.recommend_for_carrier(
                "pMax", key, local=False, leave_one_out=True
            ) == engine.recommend_for_carrier(
                "pMax", key, local=False, leave_one_out=True
            )
        for name in ("hysA3Offset", "inactivityTimer"):
            assert model_fields(loaded.fitted_models()[name]) == (
                model_fields(engine.fitted_models()[name])
            )
        # The replayed model serializes back to the same document.
        resaved = save_engine(loaded, str(tmp_path / "again.json"))
        assert resaved["models"] == payload["models"]

    def test_invalidated_parameter_stays_inline(self, dataset, tmp_path):
        engine = _fit_mmap(dataset)
        engine.invalidate_columnar("inactivityTimer")
        payload, loaded = _save_and_load(engine, dataset, tmp_path / "e.json")
        assert _layout(payload) == {
            "hysA3Offset": "derived",
            "inactivityTimer": "inline",
            "pMax": "derived",
        }
        assert not loaded.columnar_snapshot().has_parameter("inactivityTimer")
        for name, model in engine.fitted_models().items():
            rebuilt = loaded.fitted_models()[name]
            if name == "inactivityTimer":
                # Inline loads replay the samples without an encoded stash.
                assert rebuilt._encoded is None
                assert model_fields(rebuilt)[:-1] == model_fields(model)[:-1]
            else:
                assert model_fields(rebuilt) == model_fields(model)

    def test_memory_store_models_stay_inline(self, fitted_engine, reloaded):
        payload = engine_to_dict(fitted_engine)
        assert set(_layout(payload).values()) == {"inline"}
        for name, model in fitted_engine.fitted_models().items():
            assert model_fields(reloaded.fitted_models()[name])[:-1] == (
                model_fields(model)[:-1]
            )

    def test_genuine_v4_document_loads_identically(self, dataset, tmp_path):
        """A v4 document — inline samples from the per-sample serializer
        and a store reference without a fingerprint — loads as before."""
        engine = _fit_mmap(dataset)
        path = tmp_path / "engine.json"
        save_engine(engine, str(path))
        payload = json.loads(path.read_text())
        payload["schema_version"] = 4
        payload["models"] = [
            _model_to_dict(model)
            for _, model in sorted(engine.fitted_models().items())
        ]
        del payload["columnar_store"]["fingerprint"]
        path.write_text(json.dumps(payload))
        loaded = load_engine(str(path), dataset.network, dataset.store)
        assert loaded.columnar_snapshot() is not None
        for name, model in engine.fitted_models().items():
            rebuilt = loaded.fitted_models()[name]
            # Inline loads replay the samples; they carry no encoded stash.
            assert rebuilt._encoded is None
            assert model_fields(rebuilt)[:-1] == model_fields(model)[:-1]

    def test_samples_from_needs_schema_v5(self, dataset, tmp_path):
        payload = save_engine(_fit_mmap(dataset), str(tmp_path / "e.json"))
        payload = json.loads(json.dumps(payload))
        payload["schema_version"] = 4
        with pytest.raises(ArtifactError, match="schema v5"):
            engine_from_dict(
                payload, dataset.network, dataset.store, base_dir=str(tmp_path)
            )

    def test_samples_from_needs_a_snapshot(self, dataset, tmp_path):
        payload = save_engine(_fit_mmap(dataset), str(tmp_path / "e.json"))
        payload = json.loads(json.dumps(payload))
        del payload["columnar_store"]
        with pytest.raises(ArtifactError, match="no snapshot"):
            engine_from_dict(payload, dataset.network, dataset.store)

    def test_unknown_samples_from_rejected(self, dataset, tmp_path):
        payload = save_engine(_fit_mmap(dataset), str(tmp_path / "e.json"))
        payload = json.loads(json.dumps(payload))
        payload["models"][0]["samples_from"] = "elsewhere"
        with pytest.raises(ArtifactError, match="samples_from"):
            engine_from_dict(
                payload, dataset.network, dataset.store, base_dir=str(tmp_path)
            )


class TestAllRangeParameters:
    """Every range parameter of a whole snapshot round-trips derived."""

    @pytest.fixture(scope="class")
    def tiny(self):
        return tiny_workload()

    @pytest.fixture(scope="class")
    def engine(self, tiny):
        return AuricEngine(
            tiny.network, tiny.store, AuricConfig(store="mmap")
        ).fit()

    def test_round_trip_reproduces_every_model(self, tiny, engine, tmp_path):
        path = tmp_path / "engine.json"
        payload, loaded = _save_and_load(engine, tiny, path)
        assert len(payload["models"]) == len(
            tiny.store.catalog.range_parameters()
        )
        assert set(_layout(payload).values()) == {"derived"}
        assert_same_models(engine, loaded)
        # Selections, provenance and the drift baseline only.
        assert os.path.getsize(path) < 100_000


class TestDurablePersistence:
    def test_artifact_and_store_are_fsynced_before_and_after_rename(
        self, dataset, tmp_path, monkeypatch
    ):
        engine = _fit_mmap(dataset)
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            events.append(("fsync", kind))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.path.basename(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        save_engine(engine, str(tmp_path / "engine.json"))
        assert events == [
            ("fsync", "file"),
            ("replace", "engine.json.columnar"),
            ("fsync", "dir"),
            ("fsync", "file"),
            ("replace", "engine.json"),
            ("fsync", "dir"),
        ]

    def test_overwritten_store_fails_the_fingerprint_check(
        self, dataset, tmp_path
    ):
        """Artifact B persisting its snapshot over artifact A's store file
        must make A unloadable, not silently rebuild wrong models."""
        shared = MmapSnapshotStore(str(tmp_path / "shared.columnar"))
        config = AuricConfig(store="mmap")
        engine_a = AuricEngine(dataset.network, dataset.store, config).fit(
            ["pMax", "inactivityTimer"]
        )
        engine_b = AuricEngine(dataset.network, dataset.store, config).fit(
            ["hysA3Offset"]
        )
        save_engine(engine_a, str(tmp_path / "a.json"), snapshot_store=shared)
        load_engine(str(tmp_path / "a.json"), dataset.network, dataset.store)
        save_engine(engine_b, str(tmp_path / "b.json"), snapshot_store=shared)
        with pytest.raises(ArtifactError, match="columnar fingerprint mismatch"):
            load_engine(str(tmp_path / "a.json"), dataset.network, dataset.store)
        loaded_b = load_engine(
            str(tmp_path / "b.json"), dataset.network, dataset.store
        )
        assert_same_models(engine_b, loaded_b)
