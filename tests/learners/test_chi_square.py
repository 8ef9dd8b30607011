import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import AuricEngine
from repro.learners import collaborative_filtering
from repro.learners.chi_square import (
    chi_square_statistic,
    conditional_step_tests,
    contingency_from_codes,
    contingency_table,
    factorize,
    marginal_tests,
    test_conditional_independence,
    test_independence,
)

from ..reference_auric import ReferenceAuric


class TestContingencyTable:
    def test_counts(self):
        xs = ["a", "a", "b", "b", "b"]
        ys = [1, 2, 1, 1, 2]
        table, rows, cols = contingency_table(xs, ys)
        assert rows == ["a", "b"]
        assert cols == [1, 2]
        assert table.tolist() == [[1.0, 1.0], [2.0, 1.0]]

    def test_total_preserved(self):
        xs = list("aabbccdd")
        ys = [1, 2] * 4
        table, _, _ = contingency_table(xs, ys)
        assert table.sum() == len(xs)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            contingency_table([1], [1, 2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            contingency_table([], [])

    def test_numpy_arrays_match_lists(self):
        xs = ["a", "a", "b", "b", "b"]
        ys = [1, 2, 1, 1, 2]
        from_lists = contingency_table(xs, ys)
        from_arrays = contingency_table(np.array(xs), np.array(ys))
        assert np.array_equal(from_lists[0], from_arrays[0])
        assert from_lists[1] == from_arrays[1]
        assert from_lists[2] == from_arrays[2]

    def test_empty_numpy_rejected(self):
        # np.array truthiness is not len-based; must still be a clean error.
        with pytest.raises(ValueError):
            contingency_table(np.array([]), np.array([]))

    def test_mixed_type_column_falls_back_safely(self):
        xs = ["a", 1, "a", None, 1]
        ys = [0, 1, 0, 1, 1]
        table, row_values, _ = contingency_table(xs, ys)
        assert row_values == ["a", 1, None]
        assert table.sum() == len(xs)


class TestFactorizeAndCodes:
    def test_first_appearance_order(self):
        codes, uniques = factorize(["b", "a", "b", "c"])
        assert uniques == ["b", "a", "c"]
        assert codes.tolist() == [0, 1, 0, 2]

    def test_numpy_input_matches_list_input(self):
        values = [3, 1, 3, 2, 1]
        list_codes, list_uniques = factorize(values)
        array_codes, array_uniques = factorize(np.array(values))
        assert list_codes.tolist() == array_codes.tolist()
        assert list_uniques == array_uniques

    def test_pre_encoded_codes_match_contingency_table(self):
        xs = ["a", "a", "b", "b", "b"]
        ys = [1, 2, 1, 1, 2]
        x_codes, x_uniques = factorize(xs)
        y_codes, y_uniques = factorize(ys)
        table = contingency_from_codes(
            x_codes, y_codes, len(x_uniques), len(y_uniques)
        )
        reference, _, _ = contingency_table(xs, ys)
        assert np.array_equal(table, reference)

    def test_code_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            contingency_from_codes(np.array([0]), np.array([0, 1]))


class TestMarginalTests:
    def test_matches_per_column_test_independence(self):
        rng = np.random.default_rng(0)
        labels = rng.choice(["p", "q", "r"], size=200).tolist()
        columns = [
            [f"{label}!" for label in labels],  # dependent copy
            rng.choice(["x", "y"], size=200).tolist(),  # independent
        ]
        batched = marginal_tests(columns, labels, p_value=0.01)
        for column, result in zip(columns, batched):
            single = test_independence(column, labels, p_value=0.01)
            assert result.statistic == pytest.approx(single.statistic)
            assert result.dof == single.dof
            assert result.dependent == single.dependent
        assert batched[0].dependent
        assert not batched[1].dependent


class TestChiSquareStatistic:
    def test_independent_table_zero(self):
        # Perfectly proportional counts: expected == observed.
        table = np.array([[10.0, 20.0], [20.0, 40.0]])
        assert chi_square_statistic(table) == pytest.approx(0.0, abs=1e-9)

    def test_known_2x2(self):
        # Classic textbook 2x2: chi2 = N(ad-bc)^2 / (row/col marginals).
        table = np.array([[20.0, 30.0], [30.0, 20.0]])
        n = table.sum()
        a, b, c, d = 20.0, 30.0, 30.0, 20.0
        expected = n * (a * d - b * c) ** 2 / (50 * 50 * 50 * 50)
        assert chi_square_statistic(table) == pytest.approx(expected)

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            chi_square_statistic(np.zeros(3))
        with pytest.raises(ValueError):
            chi_square_statistic(np.zeros((2, 2)))


class TestIndependenceTest:
    def test_strong_dependence_detected(self):
        xs = ["a"] * 50 + ["b"] * 50
        ys = [1] * 50 + [2] * 50
        result = test_independence(xs, ys)
        assert result.dependent
        assert result.statistic > result.critical_value
        assert result.cramers_v == pytest.approx(1.0)

    def test_independent_variables_not_flagged(self):
        rng = np.random.default_rng(3)
        xs = rng.choice(["a", "b", "c"], size=500).tolist()
        ys = rng.choice([1, 2, 3, 4], size=500).tolist()
        result = test_independence(xs, ys)
        assert not result.dependent

    def test_degenerate_single_category(self):
        result = test_independence(["a"] * 10, [1, 2] * 5)
        assert not result.dependent
        assert result.dof == 0

    def test_dof_formula(self):
        xs = ["a", "b", "c"] * 10
        ys = [1, 2] * 15
        result = test_independence(xs, ys)
        assert result.dof == (3 - 1) * (2 - 1)

    def test_p_value_validated(self):
        with pytest.raises(ValueError):
            test_independence(["a"], [1], p_value=0.0)
        with pytest.raises(ValueError):
            test_independence(["a"], [1], p_value=1.5)

    def test_stricter_p_value_raises_critical(self):
        xs = ["a", "b"] * 30
        ys = [1, 2, 1, 1, 2, 2] * 10
        loose = test_independence(xs, ys, p_value=0.05)
        strict = test_independence(xs, ys, p_value=0.001)
        assert strict.critical_value > loose.critical_value


class TestConditionalIndependence:
    def test_redundant_attribute_screened_out(self):
        # z mirrors x exactly; conditioned on x, z is independent of y.
        rng = np.random.default_rng(0)
        xs = rng.choice(["a", "b"], size=400).tolist()
        zs = list(xs)  # perfect copy
        ys = [("hi" if x == "a" else "lo") for x in xs]
        marginal = test_independence(zs, ys)
        assert marginal.dependent  # z looks associated marginally
        conditional = test_conditional_independence(zs, ys, strata=xs)
        assert not conditional.dependent  # but adds nothing beyond x

    def test_true_joint_dependence_survives(self):
        # y depends on both x and z jointly.
        rng = np.random.default_rng(1)
        xs = rng.choice(["a", "b"], size=600)
        zs = rng.choice(["p", "q"], size=600)
        ys = [f"{x}{z}" for x, z in zip(xs, zs)]
        conditional = test_conditional_independence(
            zs.tolist(), ys, strata=xs.tolist()
        )
        assert conditional.dependent

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            test_conditional_independence([1], [1, 2], [1, 2])

    def test_all_degenerate_strata(self):
        # Each stratum has a single x value: no testable association.
        xs = ["a", "a", "b", "b"]
        ys = [1, 2, 1, 2]
        strata = ["s1", "s1", "s2", "s2"]
        result = test_conditional_independence(xs, ys, strata)
        # x is constant within each stratum -> dof 0 -> independent.
        assert not result.dependent

    def test_statistic_sums_over_strata(self):
        xs = ["a", "b"] * 50
        ys = ["u", "v"] * 50
        single = test_independence(xs, ys)
        doubled = test_conditional_independence(
            xs + xs, ys + ys, strata=["s1"] * 100 + ["s2"] * 100
        )
        assert doubled.statistic == pytest.approx(2 * single.statistic)
        assert doubled.dof == 2 * single.dof


def _per_candidate(candidates, ys, strata, min_stratum_size):
    """The per-stratum object path: value lists, one test per candidate."""
    return [
        test_conditional_independence(
            np.asarray(xs).tolist(),
            np.asarray(ys).tolist(),
            np.asarray(strata).tolist(),
            0.01,
            min_stratum_size,
        )
        for xs in candidates
    ]


def assert_step_identical(candidates, ys, strata, min_stratum_size=8):
    """The step scorer equals the object path exactly, repr included
    (a numpy scalar would compare equal but print differently)."""
    candidates = [np.asarray(xs) for xs in candidates]
    batched = conditional_step_tests(
        candidates, np.asarray(ys), np.asarray(strata), 0.01, min_stratum_size
    )
    expected = _per_candidate(candidates, ys, strata, min_stratum_size)
    assert batched == expected
    assert [repr(r) for r in batched] == [repr(r) for r in expected]
    return batched


class TestConditionalStepTests:
    """The batched step scorer is the per-candidate stratified test,
    bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_per_candidate_object_path(self, data):
        n = data.draw(st.integers(1, 150), label="n")

        def ints(hi):
            return st.lists(st.integers(0, hi), min_size=n, max_size=n)

        k = data.draw(st.integers(1, 4), label="candidates")
        candidates = [
            data.draw(ints(data.draw(st.integers(0, 9))), label=f"x{c}")
            for c in range(k)
        ]
        ys = data.draw(ints(data.draw(st.integers(0, 9))), label="y")
        strata = data.draw(ints(data.draw(st.integers(0, 12))), label="strata")
        min_size = data.draw(st.integers(0, 12), label="min_stratum_size")
        assert_step_identical(candidates, ys, strata, min_size)

    @staticmethod
    def _columns(seed, n, x_values, y_values, n_strata, k=3):
        rng = np.random.default_rng(seed)
        candidates = [rng.integers(0, x_values, n) for _ in range(k)]
        return candidates, rng.integers(0, y_values, n), rng.integers(
            0, n_strata, n
        )

    def test_strata_below_min_size_are_skipped(self):
        candidates, ys, _ = self._columns(0, 60, 3, 3, 1)
        # Strata of 40, 12, 5 and 3 samples: the last two fall below 8.
        strata = np.repeat([4, 9, 2, 7], [40, 12, 5, 3])
        results = assert_step_identical(candidates, ys, strata)
        assert all(r.dof > 0 for r in results)
        dropped = assert_step_identical(candidates, ys, strata, 41)
        assert all(r.dof == 0 and not r.dependent for r in dropped)

    def test_dof_zero_strata_contribute_nothing(self):
        candidates, ys, strata = self._columns(1, 200, 4, 3, 4)
        ys = np.where(strata == 0, 5, ys)  # one label only in stratum 0
        candidates[0] = np.where(strata == 1, 0, candidates[0])
        results = assert_step_identical(candidates, ys, strata)
        live = [
            test_conditional_independence(
                candidates[0][strata == t].tolist(), ys[strata == t].tolist(),
                [0] * int((strata == t).sum()),
            )
            for t in (2, 3)
        ]
        assert results[0].statistic == live[0].statistic + live[1].statistic
        assert results[0].dof == live[0].dof + live[1].dof

    def test_all_strata_degenerate(self):
        candidates, ys, strata = self._columns(2, 80, 4, 3, 5)
        ys = strata.copy()  # the label is constant within every stratum
        results = assert_step_identical(candidates, ys, strata)
        for result in results:
            assert (result.statistic, result.dof, result.dependent) == (
                0.0, 0, False,
            )
            assert result.critical_value == float("inf")

    def test_one_stratum_is_the_marginal_test(self):
        candidates, ys, _ = self._columns(3, 300, 5, 4, 1)
        results = assert_step_identical(candidates, ys, np.zeros(300, int))
        for xs, result in zip(candidates, results):
            assert result == test_independence(xs.tolist(), ys.tolist())

    def test_large_tables_keep_pairwise_summation(self):
        # 5 x 6 tables: 30 cells, so numpy's pairwise sum differs from
        # a left-to-right or exactly rounded one on these counts.
        candidates, ys, strata = self._columns(4, 900, 5, 6, 3)
        results = assert_step_identical(candidates, ys, strata)
        orders_differ = 0
        for xs, result in zip(candidates, results):
            tables = [
                contingency_table(xs[strata == t].tolist(),
                                  ys[strata == t].tolist())[0]
                for t in (0, 1, 2)
            ]
            assert all(t.size >= 9 for t in tables)
            deviations = []
            for table in tables:
                expected = table.sum(1, keepdims=True) @ table.sum(
                    0, keepdims=True
                ) / table.sum()
                deviations.append(((table - expected) ** 2 / expected).ravel())
            sequential = 0.0
            for dev in deviations:
                sequential += sum(dev.tolist())
            orders_differ += sequential != result.statistic
            orders_differ += (
                math.fsum(chi_square_statistic(t) for t in tables)
                != result.statistic
            )
        assert orders_differ > 0

    def test_many_strata_accumulate_left_to_right(self):
        candidates, ys, strata = self._columns(5, 3000, 4, 5, 60)
        results = assert_step_identical(candidates, ys, strata)
        exact = 0
        for xs, result in zip(candidates, results):
            stats = [
                chi_square_statistic(contingency_table(
                    xs[strata == t].tolist(), ys[strata == t].tolist()
                )[0])
                for t in dict.fromkeys(strata.tolist())
            ]
            exact += math.fsum(stats) != result.statistic
        assert exact > 0

    def test_no_candidates_and_validation(self):
        assert conditional_step_tests([], np.zeros(3, int), np.zeros(3, int)) == []
        with pytest.raises(ValueError):
            conditional_step_tests([np.zeros(2, int)], np.zeros(3, int),
                                   np.zeros(3, int))
        with pytest.raises(ValueError):
            conditional_step_tests([np.zeros(3, int)], np.zeros(3, int),
                                   np.zeros(3, int), p_value=1.0)


class TestSelectionResultsOnTinyDataset:
    def test_every_conditional_result_matches_object_path(
        self, dataset, monkeypatch
    ):
        """Every range parameter's stepwise selection on the tiny
        dataset produces, step for step, the exact conditional results
        of the per-candidate object path the reference oracle runs."""
        encoded, raw = [], []

        def recording(fn, sink):
            def wrapped(*args, **kwargs):
                result = fn(*args, **kwargs)
                sink.extend(result if isinstance(result, list) else [result])
                return result

            return wrapped

        module = collaborative_filtering
        monkeypatch.setattr(
            module, "conditional_step_tests",
            recording(module.conditional_step_tests, encoded),
        )
        monkeypatch.setattr(
            module, "test_conditional_independence",
            recording(module.test_conditional_independence, raw),
        )
        names = sorted(
            spec.name for spec in dataset.store.catalog.range_parameters()
        )
        AuricEngine(dataset.network, dataset.store).fit(names)
        assert not raw
        ReferenceAuric(dataset.network, dataset.store).fit(names)
        assert len(encoded) == len(raw) > len(names)
        assert encoded == raw
        assert [repr(r) for r in encoded] == [repr(r) for r in raw]
