"""Tests for dataset serialization (export/load round-trips)."""

import csv
import hashlib
import json

import pytest

from repro.config.store import PairKey
from repro.core import AuricEngine
from repro.datagen import tiny_workload
from repro.dataio import (
    dataset_to_dict,
    export_attributes_csv,
    export_dataset_json,
    export_parameter_csv,
    load_dataset_json,
    snapshot_from_dict,
)
from repro.dataio.export import snapshot_fingerprint
from repro.dataio.keys import (
    carrier_key_from_str,
    carrier_key_to_str,
    pair_key_from_str,
    pair_key_to_str,
)
from repro.exceptions import GenerationError
from repro.netmodel.identifiers import CarrierId, ENodeBId, MarketId


class TestKeys:
    def test_carrier_roundtrip(self):
        cid = CarrierId(ENodeBId(MarketId(3), 42), 2, 1)
        assert carrier_key_from_str(carrier_key_to_str(cid)) == cid

    def test_pair_roundtrip(self):
        a = CarrierId(ENodeBId(MarketId(0), 1), 0, 0)
        b = CarrierId(ENodeBId(MarketId(0), 2), 0, 0)
        pair = PairKey(a, b)
        assert pair_key_from_str(pair_key_to_str(pair)) == pair

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            carrier_key_from_str("not-a-key")
        with pytest.raises(ValueError):
            pair_key_from_str("0.0.0.0")  # missing separator


class TestJsonRoundtrip:
    @pytest.fixture(scope="class")
    def snapshot(self, dataset):
        return snapshot_from_dict(dataset_to_dict(dataset.network, dataset.store))

    def test_counts_preserved(self, dataset, snapshot):
        assert snapshot.network.carrier_count() == dataset.network.carrier_count()
        assert snapshot.network.enodeb_count() == dataset.network.enodeb_count()
        assert snapshot.network.market_count() == dataset.network.market_count()

    def test_attributes_preserved(self, dataset, snapshot):
        for carrier in list(dataset.network.carriers())[:25]:
            loaded = snapshot.network.carrier(carrier.carrier_id)
            assert loaded.attributes.values == carrier.attributes.values

    def test_x2_preserved(self, dataset, snapshot):
        assert (
            snapshot.network.x2.carrier_relation_count()
            == dataset.network.x2.carrier_relation_count()
        )

    def test_singular_values_preserved(self, dataset, snapshot):
        assert snapshot.store.singular_values("pMax") == (
            dataset.store.singular_values("pMax")
        )

    def test_pairwise_values_preserved(self, dataset, snapshot):
        assert snapshot.store.pairwise_values("hysA3Offset") == (
            dataset.store.pairwise_values("hysA3Offset")
        )

    def test_engine_runs_on_loaded_snapshot(self, snapshot):
        engine = AuricEngine(snapshot.network, snapshot.store).fit(["pMax"])
        carrier = next(snapshot.network.carriers()).carrier_id
        rec = engine.recommend_for_carrier("pMax", carrier)
        assert rec.parameter == "pMax"

    def test_file_roundtrip(self, dataset, tmp_path):
        path = tmp_path / "snapshot.json"
        export_dataset_json(dataset, str(path))
        loaded = load_dataset_json(str(path))
        assert loaded.network.carrier_count() == dataset.network.carrier_count()

    def test_bare_network_requires_store(self, dataset, tmp_path):
        with pytest.raises(ValueError):
            export_dataset_json(dataset.network, str(tmp_path / "x.json"))

    def test_unsupported_schema_version(self):
        with pytest.raises(GenerationError):
            snapshot_from_dict({"schema_version": 99})


class TestCsvExports:
    def test_attributes_csv(self, dataset, tmp_path):
        path = tmp_path / "attributes.csv"
        rows = export_attributes_csv(dataset.network, str(path))
        assert rows == dataset.network.carrier_count()
        with open(path) as handle:
            reader = csv.reader(handle)
            header = next(reader)
            assert header[0] == "carrier_id"
            assert "carrier_frequency" in header
            first = next(reader)
            assert len(first) == len(header)

    def test_singular_parameter_csv(self, dataset, tmp_path):
        path = tmp_path / "pmax.csv"
        rows = export_parameter_csv(dataset.store, "pMax", str(path))
        assert rows == len(dataset.store.singular_values("pMax"))

    def test_pairwise_parameter_csv(self, dataset, tmp_path):
        path = tmp_path / "hys.csv"
        rows = export_parameter_csv(dataset.store, "hysA3Offset", str(path))
        assert rows == len(dataset.store.pairwise_values("hysA3Offset"))
        with open(path) as handle:
            header = next(csv.reader(handle))
            assert header == ["carrier_id", "neighbor_id", "hysA3Offset"]


class TestSnapshotFingerprint:
    """The fingerprint and the export are pinned to digests of a fixed
    seeded snapshot, so faster implementations cannot drift from them:
    a changed fingerprint would orphan every saved engine artifact."""

    #: ``snapshot_fingerprint`` of a fresh ``tiny_workload()``.
    FINGERPRINT = (
        "5b1a5c2886e4c93f315aba63476e65a22e99c41ad14754c7e78b674e4443d702"
    )
    #: sha256 of ``export_dataset_json`` of the same snapshot.
    EXPORT_SHA256 = (
        "bd4fde79917db127299b5b7caf68a94f66e8cfe61c342ae8ed2652c9abb460f1"
    )

    @pytest.fixture(scope="class")
    def fresh(self):
        return tiny_workload()

    def test_fingerprint_digest_is_pinned(self, fresh):
        assert snapshot_fingerprint(fresh.network, fresh.store) == (
            self.FINGERPRINT
        )

    def test_export_bytes_are_pinned(self, fresh, tmp_path):
        path = tmp_path / "snapshot.json"
        export_dataset_json(fresh, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            self.EXPORT_SHA256
        )

    def test_fingerprint_hashes_the_export_document(self, fresh):
        canonical = json.dumps(
            dataset_to_dict(fresh.network, fresh.store),
            sort_keys=True,
            separators=(",", ":"),
        )
        assert snapshot_fingerprint(fresh.network, fresh.store) == (
            hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        )
