"""Engine-vs-reference equivalence: the byte-identity contract.

The engine fits through one columnar path (integer-encoded snapshot,
vectorized vote kernels, plurality tables).  These tests fit it and the
section 3.2 reference oracle (``tests/reference_auric.py``: raw tuples,
``Counter`` votes) over several generation seeds and assert the fitted
state and the leave-one-out answers are *identical* — not approximately
equal — down to Counter insertion order, float vote sums and mismatch
lists.  That includes a vote-weighted fit and fits whose cell key space
is forced past the int64 packing limit, serially and through the pool.
"""

import random

import numpy as np
import pytest

from repro.core import columnar as columnar_module
from repro.core.auric import AuricEngine
from repro.datagen.generator import generate_dataset
from repro.datagen.profiles import GenerationProfile, four_market_profile
from repro.eval.runner import EvaluationRunner
from repro.parallel.pool import ADAPTIVE_ENV, START_METHOD_ENV

from ..reference_auric import ReferenceAuric

SEEDS = (7, 11, 23)
PARAMETERS_PER_SEED = 4
MAX_TARGETS = 120


def _dataset(seed: int):
    base = four_market_profile()
    return generate_dataset(
        GenerationProfile(markets=base.markets[:1], seed=seed)
    )


def _fittable_parameters(dataset, count):
    """The first ``count // 2`` configured pair-wise and singular
    parameters, in name order."""
    picked = {True: [], False: []}
    for name in sorted(dataset.store.catalog.names):
        spec = dataset.store.catalog.spec(name)
        values = (
            dataset.store.pairwise_values(name)
            if spec.is_pairwise
            else dataset.store.singular_values(name)
        )
        if values and len(picked[spec.is_pairwise]) < count // 2:
            picked[spec.is_pairwise].append(name)
    return picked[True] + picked[False]


@pytest.fixture(scope="module")
def references():
    """``seed -> (dataset, parameters, reference oracle)``, built on
    first use and shared by this module's fixtures."""
    cache = {}

    def get(seed):
        if seed not in cache:
            dataset = _dataset(seed)
            parameters = _fittable_parameters(dataset, PARAMETERS_PER_SEED)
            reference = ReferenceAuric(dataset.network, dataset.store)
            cache[seed] = dataset, parameters, reference.fit(parameters)
        return cache[seed]

    return get


@pytest.fixture(scope="module")
def oracle_answers():
    """The oracle's leave-one-out answers (see :func:`reference_answers`)
    per fitted oracle, computed on first use: the engine fits compared
    with one oracle share its pure-Python votes."""
    cache = {}

    def get(reference, parameters):
        if reference not in cache:
            cache[reference] = reference_answers(reference, parameters)
        return cache[reference]

    return get


@pytest.fixture(scope="module", params=SEEDS)
def engine_pair(request, references):
    dataset, parameters, reference = references(request.param)
    engine = AuricEngine(dataset.network, dataset.store).fit(parameters)
    return dataset, parameters, reference, engine


def assert_same_state(reference, engine, parameters):
    """Every fitted field, insertion order included."""
    for name in parameters:
        a, b = reference.models[name], engine.fitted_models()[name]
        assert a.dependent_columns == b.dependent_columns, name
        assert a.dependent_names == b.dependent_names, name
        assert a.dependent_stats == b.dependent_stats, name
        assert [(c, list(v.items())) for c, v in a.cell_index.items()] == [
            (c, list(v.items())) for c, v in b.cell_index.items()
        ], name
        assert list(a.global_counts.items()) == list(b.global_counts.items())
        assert list(a.samples.items()) == list(b.samples.items()), name
        assert list(a.by_carrier.items()) == list(b.by_carrier.items())
        assert a.weights == b.weights, name


def answers(recommendations):
    return [
        (r.value, r.support, r.matched, r.confident, r.scope)
        for r in recommendations
    ]


def reference_answers(reference, parameters):
    """``(parameter, local) -> (target keys, answers)``: every target's
    local and global leave-one-out recommendation by the oracle."""
    expected = {}
    for name in parameters:
        keys = list(reference.models[name].samples)
        for local in (False, True):
            expected[name, local] = keys, answers(
                reference.recommend_for_targets(name, keys, local)
            )
    return expected


def assert_same_answers(expected, engine):
    """The engine answers every target as the oracle did."""
    for (name, local), (keys, want) in expected.items():
        got = engine.recommend_for_targets(name, keys, local)
        assert answers(got) == want, (name, local)


class TestFittedStateIdentical:
    def test_dependent_attributes(self, engine_pair):
        _, parameters, reference, engine = engine_pair
        for name in parameters:
            a, b = reference.models[name], engine.fitted_models()[name]
            assert a.dependent_columns == b.dependent_columns
            assert a.dependent_names == b.dependent_names
            assert a.dependent_stats == b.dependent_stats

    def test_vote_indexes_including_insertion_order(self, engine_pair):
        _, parameters, reference, engine = engine_pair
        for name in parameters:
            a, b = reference.models[name], engine.fitted_models()[name]
            assert a.cell_index == b.cell_index
            assert list(a.cell_index) == list(b.cell_index)
            for cell in a.cell_index:
                assert list(a.cell_index[cell].items()) == list(
                    b.cell_index[cell].items()
                )
            assert a.global_counts == b.global_counts
            assert list(a.global_counts.items()) == list(
                b.global_counts.items()
            )

    def test_samples_and_topology(self, engine_pair):
        _, parameters, reference, engine = engine_pair
        assert_same_state(reference, engine, parameters)


class TestEvaluationIdentical:
    def test_loo_accuracy_and_mismatches(self, engine_pair):
        dataset, parameters, reference, engine = engine_pair
        expected = EvaluationRunner(dataset, seed=11).loo_accuracy(
            reference, parameters, max_targets_per_parameter=MAX_TARGETS
        )
        got = EvaluationRunner(dataset, seed=11).loo_accuracy(
            engine, parameters, max_targets_per_parameter=MAX_TARGETS
        )
        assert got.parameter_accuracy_local == expected.parameter_accuracy_local
        assert (
            got.parameter_accuracy_global == expected.parameter_accuracy_global
        )
        assert got.mismatches_local == expected.mismatches_local
        assert got.mismatches_global == expected.mismatches_global
        assert got.evaluated == expected.evaluated

    def test_single_recommendations_identical(self, engine_pair, oracle_answers):
        _, parameters, reference, engine = engine_pair
        assert_same_answers(oracle_answers(reference, parameters), engine)


class TestWeightedFit:
    """Vote weights (section 6) take the engine's Counter vote path."""

    def test_weighted_fit_identical(self, references):
        dataset, parameters, _ = references(SEEDS[0])
        rng = random.Random(5)
        weights = {}
        for name in parameters:
            spec = dataset.store.catalog.spec(name)
            values = (
                dataset.store.pairwise_values(name)
                if spec.is_pairwise
                else dataset.store.singular_values(name)
            )
            for key in values:
                weights[key] = rng.choice((0.5, 1.0, 1.0, 2.0, 3.0))
        reference = ReferenceAuric(dataset.network, dataset.store).fit(
            parameters, vote_weights=weights
        )
        engine = AuricEngine(dataset.network, dataset.store).fit(
            parameters, vote_weights=weights
        )
        assert all(engine.fitted_models()[name].weights for name in parameters)
        assert_same_state(reference, engine, parameters)
        assert_same_answers(reference_answers(reference, parameters), engine)


class TestPastThePackingLimit:
    """A packing limit of 4 forces every multi-attribute cell key — in
    the chi-square strata, the vote build and the relaxed tables — to be
    re-densified instead of mixed-radix packed; the one columnar path
    must still learn and answer exactly what the reference does."""

    @pytest.fixture(scope="class")
    def limited(self, references):
        dataset, parameters, reference = references(SEEDS[0])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(columnar_module, "PACK_CAPACITY_LIMIT", 4)
            # Fork only: spawned workers re-import the module and would
            # not see the lowered limit.
            patch.setenv(START_METHOD_ENV, "fork")
            patch.setenv(ADAPTIVE_ENV, "0")
            engines = {
                jobs: AuricEngine(dataset.network, dataset.store).fit(
                    parameters, jobs=jobs
                )
                for jobs in (1, 2)
            }
            # Lazy vote tables build under the lowered limit too.
            yield parameters, reference, engines

    def test_keys_are_not_mixed_radix(self, limited):
        parameters, _, engines = limited
        redensified = 0
        for name in parameters:
            encoded = engines[1].fitted_models()[name]._encoded
            sizes = [len(vocab) for vocab in encoded.dep_vocabs]
            strides = np.cumprod([1] + sizes[:-1], dtype=np.int64)
            mixed = encoded.dependent_rows().astype(np.int64) @ strides
            redensified += not np.array_equal(mixed, encoded.cell_codes)
        assert redensified > 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fitted_state_identical(self, limited, jobs):
        parameters, reference, engines = limited
        assert_same_state(reference, engines[jobs], parameters)
        for name in parameters:
            assert engines[jobs].fitted_models()[name]._encoded is not None

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_answers_identical(self, limited, oracle_answers, jobs):
        parameters, reference, engines = limited
        assert_same_answers(oracle_answers(reference, parameters), engines[jobs])
