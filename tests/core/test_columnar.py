"""Unit and property tests for the columnar kernels.

The kernels in :mod:`repro.core.columnar` promise *byte-identity* with
the tuple/Counter reference implementations: every property test here
pits a kernel against a small hand-rolled Counter model of the same
behaviour, including the insertion-order and tie-break contracts that
the engine's reproducibility rests on.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import columnar as columnar_module
from repro.core.columnar import (
    NO_EXCLUDE,
    CellVoteTable,
    ColumnarSnapshot,
    LocalVoteIndex,
    decode_keys,
    grouped_votes,
    pack_columns,
    plurality,
)
from repro.datagen.generator import generate_dataset
from repro.datagen.profiles import GenerationProfile, four_market_profile


# -- packing ---------------------------------------------------------------

pack_cases = st.integers(min_value=1, max_value=6).flatmap(
    lambda n_cols: st.tuples(
        st.lists(
            st.integers(min_value=1, max_value=9),
            min_size=n_cols,
            max_size=n_cols,
        ),
        st.integers(min_value=1, max_value=n_cols),
        st.integers(min_value=1, max_value=40),
    )
)


def _mixed_radix(matrix, columns, sizes):
    """The plain mixed-radix key (first column least significant)."""
    keys = np.zeros(len(matrix), dtype=np.int64)
    stride = 1
    for col in columns:
        keys += matrix[:, col].astype(np.int64) * stride
        stride *= sizes[col]
    return keys


def _random_matrix(case, rng):
    sizes, n_packed, n_rows = case
    columns = list(range(len(sizes)))
    rng.shuffle(columns)
    matrix = np.array(
        [
            [rng.randrange(sizes[c]) for c in range(len(sizes))]
            for _ in range(n_rows)
        ],
        dtype=np.int32,
    )
    return matrix, columns[:n_packed], sizes


class TestPacking:
    @given(pack_cases, st.randoms(use_true_random=False))
    @settings(max_examples=100)
    def test_pack_unpack_round_trip(self, case, rng):
        """Below the limit keys are mixed-radix, and every key decodes
        (from its first-occurrence row) back to its row's codes."""
        matrix, columns, sizes = _random_matrix(case, rng)
        packed = pack_columns(matrix, columns, sizes)
        assert packed.tolist() == _mixed_radix(matrix, columns, sizes).tolist()
        rows = matrix[:, columns]
        vocabs = [list(range(sizes[c])) for c in columns]
        cells = decode_keys(packed, rows, vocabs)
        for row, key in zip(rows.tolist(), packed.tolist()):
            assert cells[key] == tuple(row)

    @pytest.mark.parametrize(
        "limit",
        [columnar_module.PACK_CAPACITY_LIMIT, 3],
        ids=["int64-limit", "lowered-limit"],
    )
    @given(case=pack_cases, rng=st.randoms(use_true_random=False))
    @settings(max_examples=100)
    def test_equal_keys_mean_equal_rows(self, limit, case, rng):
        """Below the int64 limit and past it (the limit lowered so small
        keys already exceed it): two rows share a key iff they agree on
        every packed column, and below the limit the key is mixed-radix."""
        matrix, columns, sizes = _random_matrix(case, rng)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(columnar_module, "PACK_CAPACITY_LIMIT", limit)
            packed = pack_columns(matrix, columns, sizes).tolist()
        cells = [tuple(row) for row in matrix[:, columns].tolist()]
        for i in range(len(cells)):
            for j in range(len(cells)):
                assert (packed[i] == packed[j]) == (cells[i] == cells[j])
        if np.prod([sizes[c] for c in columns]) <= limit:
            assert packed == _mixed_radix(matrix, columns, sizes).tolist()

    def test_equal_keys_iff_equal_cells(self):
        sizes = [3, 4, 5]
        matrix = np.array(
            [[0, 1, 2], [0, 1, 2], [1, 1, 2], [0, 2, 2]], dtype=np.int32
        )
        packed = pack_columns(matrix, [0, 1, 2], sizes)
        assert packed[0] == packed[1]
        assert len({packed[0], packed[2], packed[3]}) == 3

    def test_past_the_limit_packs_without_overflow(self):
        """A key space of 2**84 cannot be mixed-radix packed in int64;
        the running key is re-densified instead of raising."""
        sizes = [2**21, 2**21, 2**21, 2**21]
        top = 2**21 - 1
        matrix = np.array(
            [[top, top, top, top], [0, 0, 0, 0], [top, top, top, top],
             [top, 0, top, 0]],
            dtype=np.int32,
        )
        packed = pack_columns(matrix, [0, 1, 2, 3], sizes)
        assert packed.dtype == np.int64
        assert (packed >= 0).all()
        assert packed[0] == packed[2]
        assert len({packed[0], packed[1], packed[3]}) == 3

    def test_capacity_within_limit(self):
        matrix = np.array([[9, 0, 29], [3, 5, 0]], dtype=np.int32)
        assert pack_columns(matrix, [0, 2], [10, 20, 30]).tolist() == [
            9 + 29 * 10,
            3,
        ]


# -- grouped_votes ----------------------------------------------------------

vote_streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),  # cell code
        st.integers(min_value=0, max_value=3),  # label code
    ),
    min_size=1,
    max_size=60,
)


class TestGroupedVotes:
    @given(vote_streams)
    @settings(max_examples=100)
    def test_matches_counter_reference_in_insertion_order(self, stream):
        cells = np.array([c for c, _ in stream], dtype=np.int64)
        labels = np.array([l for _, l in stream], dtype=np.int64)
        got_cells, got_labels, got_totals = grouped_votes(cells, labels, 4)

        reference: dict = {}
        for cell, label in stream:
            reference.setdefault(cell, Counter())[label] += 1.0
        expected = [
            (cell, label, total)
            for cell, counter in reference.items()
            for label, total in counter.items()
        ]
        # The kernel emits (cell, label) pairs in first-appearance order
        # over the sample stream — NOT sorted — so replaying them
        # rebuilds the legacy dict/Counter insertion order exactly.
        expected_pairs_in_order = []
        seen = set()
        for cell, label in stream:
            if (cell, label) not in seen:
                seen.add((cell, label))
                expected_pairs_in_order.append((cell, label))
        got = list(zip(got_cells.tolist(), got_labels.tolist()))
        assert got == expected_pairs_in_order
        totals = {
            (cell, label): total
            for cell, label, total in expected
        }
        for cell, label, total in zip(
            got_cells.tolist(), got_labels.tolist(), got_totals.tolist()
        ):
            assert total == totals[(cell, label)]

    @given(vote_streams)
    @settings(max_examples=50)
    def test_weighted_totals_sum_in_array_order(self, stream):
        cells = np.array([c for c, _ in stream], dtype=np.int64)
        labels = np.array([l for _, l in stream], dtype=np.int64)
        weights = np.array(
            [0.25 + (i % 7) * 0.5 for i in range(len(stream))],
            dtype=np.float64,
        )
        _, _, got_totals = grouped_votes(cells, labels, 4, weights)
        reference: dict = {}
        order: list = []
        for (cell, label), weight in zip(stream, weights.tolist()):
            if (cell, label) not in reference:
                reference[(cell, label)] = 0.0
                order.append((cell, label))
            reference[(cell, label)] += weight
        assert got_totals.tolist() == [reference[pair] for pair in order]

    def test_wide_cell_keys_group_on_dense_ranks(self):
        """Cell keys too wide to pair with a label in int64 still group
        correctly, and come back as the original keys."""
        wide = 2**62 - 1
        cells = np.array([wide, 5, wide, 5, wide], dtype=np.int64)
        labels = np.array([1, 0, 1, 2, 0], dtype=np.int64)
        got = grouped_votes(cells, labels, 3)
        assert [array.tolist() for array in got] == [
            [wide, 5, 5, wide],
            [1, 0, 2, 0],
            [2.0, 1.0, 1.0, 1.0],
        ]


# -- CellVoteTable ----------------------------------------------------------

def _reference_vote(counter: Counter, exclude_label):
    """The legacy Counter answer (None = table must also decline)."""
    if exclude_label is not NO_EXCLUDE:
        counter = Counter(counter)
        counter[exclude_label] -= 1.0
        if counter[exclude_label] <= 1e-12:
            del counter[exclude_label]
    if not counter:
        return None
    total = sum(counter.values())
    value, top = counter.most_common(1)[0]
    return value, top, total


class TestCellVoteTable:
    @given(vote_streams)
    @settings(max_examples=100)
    def test_vote_matches_counter_including_tie_breaks(self, stream):
        cell_index: dict = {}
        for cell, label in stream:
            cell_index.setdefault((cell,), Counter())[label] += 1.0
        table = CellVoteTable(cell_index)
        for cell, counter in cell_index.items():
            assert table.vote(cell) == _reference_vote(counter, NO_EXCLUDE)
            for label in counter:
                got = table.vote(cell, label)
                expected = _reference_vote(counter, label)
                if expected is None:
                    assert got is None
                else:
                    assert got == expected

    def test_unknown_cell_is_none(self):
        table = CellVoteTable({("a",): Counter({1: 2.0})})
        assert table.vote(("b",)) is None

    def test_exclusion_emptying_cell_is_none(self):
        table = CellVoteTable({("a",): Counter({1: 1.0})})
        assert table.vote(("a",), 1) is None

    def test_tie_after_exclusion_keeps_first_inserted(self):
        # x: 2 votes (inserted first), y: 1 vote.  Excluding one x vote
        # ties 1-1; Counter.most_common keeps x (first-inserted).
        counter = Counter()
        counter["x"] += 1.0
        counter["y"] += 1.0
        counter["x"] += 1.0
        table = CellVoteTable({("c",): counter})
        value, top, total = table.vote(("c",), "x")
        assert (value, top, total) == ("x", 1.0, 2.0)


class TestPlurality:
    @given(st.lists(st.integers(min_value=0, max_value=4), min_size=1))
    @settings(max_examples=50)
    def test_matches_counter_most_common(self, codes):
        assert plurality(codes) == Counter(codes).most_common(1)[0]


# -- LocalVoteIndex ---------------------------------------------------------

class TestLocalVoteIndex:
    def test_electorate_order_and_exclusion(self):
        samples = {
            "k1": (("a",), 1),
            "k2": (("a",), 2),
            "k3": (("b",), 1),
            "k4": (("b",), 2),
        }
        by_carrier = {"c1": ["k1", "k3"], "c2": ["k2"], "c3": ["k4"]}
        index = LocalVoteIndex(samples, by_carrier)
        # Neighborhood iteration order x per-carrier insertion order.
        pos = index.electorate(["c2", "c1"], None)
        keys = [list(samples)[p] for p in pos.tolist()]
        assert keys == ["k2", "k1", "k3"]
        # The excluded target leaves the electorate.
        pos = index.electorate(["c2", "c1"], "k1")
        keys = [list(samples)[p] for p in pos.tolist()]
        assert keys == ["k2", "k3"]
        # No voters at all -> None.
        assert index.electorate(["c9"], None) is None
        assert index.electorate(["c2"], "k2") is None

    def test_codes_decode_back_to_cells_and_labels(self):
        samples = {
            "k1": (("a", 1), "x"),
            "k2": (("b", 2), "y"),
            "k3": (("a", 1), "x"),
        }
        index = LocalVoteIndex(samples, {"c": ["k1", "k2", "k3"]})
        for i, (cell, label) in enumerate(samples.values()):
            assert index.cells[index.cell_codes[i]] == cell
            assert index.labels[index.label_codes[i]] == label
        assert index.cell_codes[0] == index.cell_codes[2]


# -- ColumnarSnapshot encode/decode round trip ------------------------------

@pytest.fixture(scope="module")
def small_dataset():
    base = four_market_profile()
    return generate_dataset(
        GenerationProfile(markets=base.markets[:1], seed=base.seed)
    )


def _fitted_specs(dataset, count=4):
    specs = []
    for name in sorted(dataset.store.catalog.names):
        spec = dataset.store.catalog.spec(name)
        values = (
            dataset.store.pairwise_values(name)
            if spec.is_pairwise
            else dataset.store.singular_values(name)
        )
        if values:
            specs.append(spec)
        if len(specs) >= count:
            break
    return specs


class TestColumnarSnapshot:
    def test_encode_decode_round_trip(self, small_dataset):
        """Decoding every code column reproduces the raw attribute rows
        and configured values exactly."""
        dataset = small_dataset
        specs = _fitted_specs(dataset)
        snapshot = ColumnarSnapshot.encode(dataset.network, dataset.store, specs)

        # Attribute matrix: vocab[code] == the carrier's raw attribute.
        for i, carrier_id in enumerate(snapshot.carrier_ids):
            raw = dataset.network.carrier(carrier_id).attributes.as_tuple()
            decoded = tuple(
                snapshot.vocabs[j][snapshot.codes[i, j]]
                for j in range(snapshot.codes.shape[1])
            )
            assert decoded == raw

        for spec in specs:
            columns = snapshot.parameter(spec.name)
            values = (
                dataset.store.pairwise_values(spec.name)
                if spec.is_pairwise
                else dataset.store.singular_values(spec.name)
            )
            keys = columns.keys(snapshot.carrier_ids)
            assert keys == sorted(values)
            assert columns.labels() == [values[k] for k in keys]

    def test_dict_round_trip(self, small_dataset):
        dataset = small_dataset
        specs = _fitted_specs(dataset)
        snapshot = ColumnarSnapshot.encode(dataset.network, dataset.store, specs)
        rebuilt = ColumnarSnapshot.from_dict(snapshot.to_dict())
        assert rebuilt.carrier_ids == snapshot.carrier_ids
        assert np.array_equal(rebuilt.codes, snapshot.codes)
        assert rebuilt.vocabs == snapshot.vocabs
        assert set(rebuilt.parameters) == set(snapshot.parameters)
        for name, columns in snapshot.parameters.items():
            other = rebuilt.parameters[name]
            assert np.array_equal(other.sources, columns.sources)
            assert np.array_equal(other.label_codes, columns.label_codes)
            assert other.label_vocab == columns.label_vocab
            if columns.neighbors is None:
                assert other.neighbors is None
            else:
                assert np.array_equal(other.neighbors, columns.neighbors)

    def test_pickle_round_trip_preserves_arrays(self, small_dataset):
        import pickle

        dataset = small_dataset
        specs = _fitted_specs(dataset, count=2)
        snapshot = ColumnarSnapshot.encode(dataset.network, dataset.store, specs)
        rebuilt = pickle.loads(pickle.dumps(snapshot))
        assert rebuilt.carrier_ids == snapshot.carrier_ids
        assert np.array_equal(rebuilt.codes, snapshot.codes)
        for name, columns in snapshot.parameters.items():
            assert np.array_equal(
                rebuilt.parameters[name].label_codes, columns.label_codes
            )


class TestEncodedVotesDescribes:
    """``EncodedVotes.describes`` decides whether an artifact may store a
    model as derived (rebuilt from the snapshot on load), so it must
    reject every snapshot the model's electorate did not come from."""

    @pytest.fixture(scope="class")
    def fitted(self, small_dataset):
        from repro.core import AuricEngine

        engine = AuricEngine(small_dataset.network, small_dataset.store)
        engine.fit(["pMax", "hysA3Offset"])
        return engine

    @staticmethod
    def _with_columns(snapshot, name, codes=None, **changes):
        from repro.core.columnar import ParameterColumns

        parameters = dict(snapshot.parameters)
        columns = parameters[name]
        fields = {
            "sources": columns.sources,
            "neighbors": columns.neighbors,
            "label_codes": columns.label_codes,
        }
        fields.update(changes)
        parameters[name] = ParameterColumns(
            parameter=name,
            pairwise=columns.pairwise,
            label_vocab=list(columns.label_vocab),
            **fields,
        )
        return ColumnarSnapshot(
            carrier_ids=list(snapshot.carrier_ids),
            codes=snapshot.codes if codes is None else codes,
            vocabs=snapshot.vocabs,
            parameters=parameters,
        )

    def _describes(self, engine, name, snapshot):
        model = engine.fitted_models()[name]
        return model._encoded.describes(
            snapshot, name, model.dependent_columns
        )

    @pytest.mark.parametrize("name", ["pMax", "hysA3Offset"])
    def test_accepts_its_own_snapshot_and_equal_copies(self, fitted, name):
        snapshot = fitted.columnar_snapshot()
        assert self._describes(fitted, name, snapshot)
        copy = ColumnarSnapshot.from_dict(snapshot.to_dict())
        assert self._describes(fitted, name, copy)

    def test_rejects_a_missing_parameter(self, fitted):
        snapshot = fitted.columnar_snapshot()
        parameters = {
            k: v for k, v in snapshot.parameters.items() if k != "pMax"
        }
        without = ColumnarSnapshot(
            snapshot.carrier_ids, snapshot.codes, snapshot.vocabs, parameters
        )
        assert not self._describes(fitted, "pMax", without)

    def test_rejects_changed_labels(self, fitted):
        snapshot = fitted.columnar_snapshot()
        labels = snapshot.parameters["pMax"].label_codes.copy()
        labels[0] = (labels[0] + 1) % len(snapshot.parameters["pMax"].label_vocab)
        changed = self._with_columns(snapshot, "pMax", label_codes=labels)
        assert not self._describes(fitted, "pMax", changed)

    def test_rejects_changed_pair_topology(self, fitted):
        snapshot = fitted.columnar_snapshot()
        columns = snapshot.parameters["hysA3Offset"]
        model = fitted.fitted_models()["hysA3Offset"]
        # Swap two targets' neighbors that agree on every dependent
        # attribute: the packed cells stay equal, only the keys move.
        width = snapshot.n_attributes()
        own = [c for c in model.dependent_columns if c < width]
        neighbor_cols = [c - width for c in model.dependent_columns if c >= width]
        neighbors = columns.neighbors.copy()
        signature = [
            tuple(snapshot.codes[n, neighbor_cols])
            for n in neighbors.tolist()
        ]
        swap = next(
            (i, j)
            for i in range(len(neighbors))
            for j in range(i + 1, len(neighbors))
            if neighbors[i] != neighbors[j]
            and signature[i] == signature[j]
            and columns.label_codes[i] == columns.label_codes[j]
            and all(
                snapshot.codes[columns.sources[i], c]
                == snapshot.codes[columns.sources[j], c]
                for c in own
            )
        )
        neighbors[list(swap)] = neighbors[list(swap[::-1])]
        changed = self._with_columns(
            snapshot, "hysA3Offset", neighbors=neighbors
        )
        assert not self._describes(fitted, "hysA3Offset", changed)

    def test_rejects_changed_attribute_codes(self, fitted):
        snapshot = fitted.columnar_snapshot()
        model = fitted.fitted_models()["pMax"]
        assert model.dependent_columns
        column = model.dependent_columns[0]
        codes = snapshot.codes.copy()
        row = snapshot.parameters["pMax"].sources[0]
        codes[row, column] = (codes[row, column] + 1) % len(
            snapshot.vocabs[column]
        )
        changed = self._with_columns(snapshot, "pMax", codes=codes)
        assert not self._describes(fitted, "pMax", changed)
