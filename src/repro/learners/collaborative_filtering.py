"""Collaborative filtering with chi-square independence tests and voting.

Auric's primary learner (section 3.2).  Fitting:

1. For each attribute column, run a chi-square test of independence
   against the parameter values; keep the *dependent* attributes.  This
   "eliminates the irrelevant attributes with respect to the parameter
   values" — the failure mode that hurts kNN.
2. Index the training carriers by their values on the dependent
   attributes.

Recommending for a new carrier: find the carriers that exactly match on
the dependent attributes and vote; the recommendation is the value with
maximum support, accepted when its support reaches the threshold (75% in
the paper's implementation).

Two extensions from section 6 are built in as options:

* per-sample voting weights (performance-feedback weighting), and
* a fallback policy for carriers whose dependent-attribute combination
  was never observed (the cold-start / "bootstrapping the unobserved"
  limitation): ``"plurality"`` falls back progressively — first dropping
  the least-dependent attributes, finally the global mode — while
  ``"error"`` raises :class:`~repro.exceptions.ColdStartError`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ColdStartError, NotFittedError
from repro.learners.base import Label, Learner, Row
from repro.learners.chi_square import (
    ChiSquareResult,
    conditional_step_tests,
    marginal_tests,
    test_conditional_independence,
)
from repro.types import AttributeValue

DEFAULT_SUPPORT_THRESHOLD = 0.75
DEFAULT_P_VALUE = 0.01


@dataclass(frozen=True)
class VoteOutcome:
    """Detailed result of one recommendation vote."""

    value: Label
    support: float
    matched_weight: float
    confident: bool
    dependent_attributes: Tuple[int, ...]
    fallback_used: bool

    def __str__(self) -> str:
        marker = "" if self.confident else " (below support threshold)"
        return (
            f"recommend {self.value!r} with {self.support:.0%} support over "
            f"{self.matched_weight:g} matching carriers{marker}"
        )


class CollaborativeFilteringRecommender(Learner):
    """Chi-square-filtered exact-match voting recommender."""

    name = "collaborative-filtering"

    def __init__(
        self,
        support_threshold: float = DEFAULT_SUPPORT_THRESHOLD,
        p_value: float = DEFAULT_P_VALUE,
        fallback: str = "plurality",
        min_matched: float = 1.0,
        min_effect_size: float = 0.12,
        selection: str = "conditional",
    ) -> None:
        super().__init__()
        if not 0.0 < support_threshold <= 1.0:
            raise ValueError("support_threshold must be in (0, 1]")
        if fallback not in ("plurality", "error"):
            raise ValueError("fallback must be 'plurality' or 'error'")
        if min_matched < 1.0:
            raise ValueError("min_matched must be >= 1")
        if not 0.0 <= min_effect_size <= 1.0:
            raise ValueError("min_effect_size must be in [0, 1]")
        if selection not in ("conditional", "marginal"):
            raise ValueError("selection must be 'conditional' or 'marginal'")
        #: Attribute-selection strategy: "conditional" (stepwise forward
        #: selection with stratified chi-square tests — the default) or
        #: "marginal" (the paper's verbatim formulation: every attribute
        #: whose marginal test rejects independence is dependent).  The
        #: marginal mode exists for the ablation that quantifies why the
        #: conditional refinement is needed at realistic sample sizes.
        self.selection = selection
        self.support_threshold = support_threshold
        self.p_value = p_value
        self.fallback = fallback
        #: Minimum Cramér's V for an attribute to count as dependent.  At
        #: production sample sizes the chi-square test alone flags even
        #: negligible associations as significant; the effect-size floor
        #: keeps the "eliminate irrelevant attributes" property the paper
        #: relies on.
        self.min_effect_size = min_effect_size
        #: Minimum total vote weight a matching cell must carry; thinner
        #: cells are noise-dominated, so the vote relaxes to a coarser
        #: attribute match instead (dropping the weakest dependency
        #: first).  The final, unconditioned level always qualifies.
        self.min_matched = min_matched
        self._dependent: Tuple[int, ...] = ()
        self._test_results: List[ChiSquareResult] = []
        # One vote index per progressively-relaxed dependent-attribute
        # prefix; index 0 is the full dependent set, the last is () — the
        # global vote.  Prefixes are ordered by decreasing chi-square
        # statistic, so relaxation drops the *least* dependent attribute
        # first.
        self._indexes: List[Dict[Tuple[AttributeValue, ...], Counter]] = []
        self._prefixes: List[Tuple[int, ...]] = []
        # Lazily-derived per-dependent-column vocabularies (value ->
        # positive code) backing the vectorized recommend_many grouping.
        self._vote_vocabs: Optional[List[Dict[AttributeValue, int]]] = None

    # -- fitting ----------------------------------------------------------

    def _fit(self, rows: Sequence[Row], labels: Sequence[Label]) -> None:
        self.fit_weighted(rows, labels, weights=None)

    def fit_weighted(
        self,
        rows: Sequence[Row],
        labels: Sequence[Label],
        weights: Optional[Sequence[float]] = None,
    ) -> "CollaborativeFilteringRecommender":
        """Fit with optional per-carrier voting weights (section 6).

        A carrier whose configuration historically improved service
        performance can be given weight > 1 so its values carry more
        support in the vote.
        """
        if weights is not None and len(weights) != len(rows):
            raise ValueError("weights length must match rows")
        n_columns = len(rows[0])
        labels = list(labels)
        # One pass over the sample matrix: every attribute column is
        # materialized once and the label vector is encoded once, so the
        # marginal stage no longer re-hashes raw values per sample.
        matrix = np.empty((len(rows), n_columns), dtype=object)
        for i, row in enumerate(rows):
            matrix[i, :] = row
        columns = [matrix[:, col] for col in range(n_columns)]

        def score_step(selected, remaining):
            strata = list(map(tuple, matrix[:, selected]))
            return [
                test_conditional_independence(
                    columns[col], labels, strata, self.p_value
                )
                for col in remaining
            ]

        self._select(columns, labels, score_step)
        self._build_indexes(rows, labels, weights)
        self._fitted = True
        return self

    def fit_encoded(
        self,
        code_matrix: np.ndarray,
        label_codes: np.ndarray,
        column_sizes: Optional[Sequence[int]] = None,
    ) -> "CollaborativeFilteringRecommender":
        """Attribute selection over pre-encoded integer code columns.

        The columnar fit path (:mod:`repro.core.columnar`) encodes the
        attribute matrix once per snapshot; this entry point runs the
        same marginal + stepwise-conditional selection directly on the
        code columns.  Per column, codes are bijective with the raw
        values and assigned in the same first-appearance order, so every
        contingency table — and therefore every statistic, ranking and
        selected attribute — is bit-identical to :meth:`fit` on the
        decoded rows.  Strata for the conditional stage are one int64
        key per sample (:func:`~repro.core.columnar.pack_columns` of
        the selected columns), and each forward step scores every
        remaining candidate in one
        :func:`~repro.learners.chi_square.conditional_step_tests` call.

        Selection only: the tuple-keyed vote indexes need raw rows, so
        :meth:`vote` raises until a voting fit runs (the engine builds
        its own vectorized vote tables instead).
        """
        code_matrix = np.ascontiguousarray(code_matrix)
        if code_matrix.ndim != 2:
            raise ValueError("code_matrix must be 2-dimensional")
        n_samples, n_columns = code_matrix.shape
        if n_samples == 0:
            raise ValueError("cannot fit a learner on an empty dataset")
        label_codes = np.asarray(label_codes)
        if len(label_codes) != n_samples:
            raise ValueError("label_codes length must match code_matrix rows")
        if column_sizes is None:
            column_sizes = [
                int(code_matrix[:, col].max()) + 1 for col in range(n_columns)
            ]
        columns = [code_matrix[:, col] for col in range(n_columns)]

        def score_step(selected, remaining):
            from repro.core.columnar import pack_columns

            strata = pack_columns(code_matrix, selected, column_sizes)
            return conditional_step_tests(
                [columns[col] for col in remaining],
                label_codes,
                strata,
                self.p_value,
            )

        self._select(columns, label_codes, score_step)
        self._prefixes = [
            self._dependent[:length]
            for length in range(len(self._dependent), -1, -1)
        ]
        self._indexes = []
        self._vote_vocabs = None
        self._fitted = True
        return self

    def _select(self, columns, labels, score_step) -> None:
        """Marginal ranking plus (for ``selection="conditional"``)
        stepwise forward selection; sets ``_test_results``/``_dependent``.

        ``score_step(selected, remaining)`` must return, in ``remaining``
        order, each remaining column's conditional test within the
        strata of the currently-selected columns — value-tuple strata
        on the raw path, packed integer keys on the encoded path; both
        group the samples identically.
        """
        # Marginal tests: candidate ranking plus per-column diagnostics.
        self._test_results = marginal_tests(columns, labels, self.p_value)
        # Candidacy needs only statistical dependence; the effect-size
        # floor is applied at the conditional stage, where a weak
        # marginal association can still prove strong once dominant
        # attributes are absorbed (e.g. a carrier type that only
        # matters on low-band carriers).
        ranked = [
            (result.statistic, col)
            for col, result in enumerate(self._test_results)
            if result.dependent
        ]
        ranked.sort(key=lambda item: (-item[0], item[1]))

        if self.selection == "marginal":
            self._dependent = tuple(
                col
                for _, col in ranked
                if self._test_results[col].cramers_v >= self.min_effect_size
            )
            return

        # Stepwise forward selection with conditional chi-square tests:
        # each round, every remaining candidate is tested for association
        # with the parameter *within* the cells formed by the attributes
        # selected so far, and the strongest still-dependent candidate
        # joins the set.  This removes attributes whose marginal
        # association merely mirrors an already-selected one (e.g. a MIMO
        # mode that tracks the carrier frequency) — matching on them
        # would fragment the vote cells without adding signal — while
        # still finding weak-marginal but real dependencies once the
        # dominant ones are absorbed.
        selected: List[int] = []
        remaining = [col for _, col in ranked]
        while remaining:
            best_col = None
            best_statistic = 0.0
            for col, result in zip(remaining, score_step(selected, remaining)):
                if not result.dependent or result.cramers_v < self.min_effect_size:
                    continue
                if result.statistic > best_statistic:
                    best_col, best_statistic = col, result.statistic
            if best_col is None:
                break
            selected.append(best_col)
            remaining.remove(best_col)
        self._dependent = tuple(selected)

    def _build_indexes(
        self,
        rows: Sequence[Row],
        labels: Sequence[Label],
        weights: Optional[Sequence[float]],
    ) -> None:
        self._prefixes = [
            self._dependent[:length]
            for length in range(len(self._dependent), -1, -1)
        ]
        self._indexes = []
        self._vote_vocabs = None
        for prefix in self._prefixes:
            index: Dict[Tuple[AttributeValue, ...], Counter] = {}
            for i, row in enumerate(rows):
                key = tuple(row[col] for col in prefix)
                counter = index.setdefault(key, Counter())
                counter[labels[i]] += 1.0 if weights is None else float(weights[i])
            self._indexes.append(index)

    # -- introspection ----------------------------------------------------

    @property
    def dependent_attributes(self) -> Tuple[int, ...]:
        """Indices of attribute columns the parameter depends on,
        strongest dependency first."""
        self._require_fitted()
        return self._dependent

    def test_result(self, column: int) -> ChiSquareResult:
        """The chi-square outcome for one attribute column."""
        self._require_fitted()
        return self._test_results[column]

    def explain_one(self, row: Row, column_names: Sequence[str]) -> List[str]:
        """Human-readable explanation of one recommendation."""
        outcome = self.vote(row)
        conditions = [
            f"{column_names[col]}={row[col]}" for col in outcome.dependent_attributes
        ]
        lines = [
            "dependent attributes (chi-square, p<"
            f"{self.p_value}): {', '.join(conditions) if conditions else '(none)'}",
            str(outcome),
        ]
        if outcome.fallback_used:
            lines.append("note: exact match not found; relaxed match used")
        return lines

    # -- prediction -------------------------------------------------------

    def _require_vote_indexes(self) -> None:
        self._require_fitted()
        if not self._indexes:
            raise NotFittedError(
                f"{self.name} was fitted from encoded columns (attribute "
                "selection only); refit with fit()/fit_weighted() to vote"
            )

    def vote(self, row: Row) -> VoteOutcome:
        """Run the voting procedure for one new carrier.

        The loop probes level 0 (the full dependent-attribute match)
        first, so ``exact_match_exists`` falls out of that probe; each
        probed level's total weight is computed exactly once.
        """
        self._require_vote_indexes()
        last_level = len(self._prefixes) - 1
        exact_match_exists = False
        for level, (prefix, index) in enumerate(zip(self._prefixes, self._indexes)):
            key = tuple(row[col] for col in prefix)
            counter = index.get(key)
            if level == 0:
                exact_match_exists = bool(counter)
            if not counter:
                continue
            total = sum(counter.values())
            if level < last_level and total < self.min_matched:
                continue
            if level > 0 and not exact_match_exists and self.fallback == "error":
                raise ColdStartError(
                    "no existing carrier matches the dependent attributes "
                    f"{self._prefixes[0]} of the new carrier"
                )
            value, top = counter.most_common(1)[0]
            support = top / total if total > 0 else 0.0
            return VoteOutcome(
                value=value,
                support=support,
                matched_weight=total,
                confident=support >= self.support_threshold,
                dependent_attributes=prefix,
                fallback_used=level > 0,
            )
        raise ColdStartError("the recommender has no training data to vote with")

    def _cell_vocabs(self) -> List[Dict[AttributeValue, int]]:
        """Per-dependent-column value vocabularies, derived lazily from
        the exact-match index keys (code 0 is reserved for unseen)."""
        if self._vote_vocabs is None:
            vocabs: List[Dict[AttributeValue, int]] = [
                {} for _ in self._dependent
            ]
            for key in self._indexes[0]:
                for j, value in enumerate(key):
                    vocab = vocabs[j]
                    if value not in vocab:
                        vocab[value] = len(vocab) + 1
            self._vote_vocabs = vocabs
        return self._vote_vocabs

    #: Below this batch size the dict-cache path wins (no array setup).
    _VECTORIZE_MIN_ROWS = 32

    def recommend_many(self, rows: Sequence[Row]) -> List[VoteOutcome]:
        """Vote for a batch of rows, computing each distinct cell once.

        A vote depends only on the row's values at the dependent
        attributes (every relaxation prefix is a prefix of that key), so
        rows that agree there share one :class:`VoteOutcome`.  Large
        batches group rows by an int64-packed cell code (``np.unique``)
        instead of hashing one value tuple per row; unseen values share
        code 0, which is sound because a value absent from the training
        index can never match at any relaxation level that includes its
        column.  On the bulk paths — LOO evaluation sweeps and full
        service refits — this collapses thousands of per-row votes into
        one vote per distinct dependent-attribute cell.
        """
        self._require_vote_indexes()
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)
        if len(rows) >= self._VECTORIZE_MIN_ROWS and self._dependent:
            return self._recommend_many_vectorized(rows)
        cache: Dict[Tuple[AttributeValue, ...], VoteOutcome] = {}
        out: List[VoteOutcome] = []
        for row in rows:
            key = tuple(row[col] for col in self._dependent)
            outcome = cache.get(key)
            if outcome is None:
                outcome = self.vote(row)
                cache[key] = outcome
            out.append(outcome)
        return out

    def _recommend_many_vectorized(
        self, rows: Sequence[Row]
    ) -> List[VoteOutcome]:
        """Group rows by packed cell code, voting once per group."""
        from repro.core.columnar import pack_columns
        from repro.obs import metrics as obs_metrics

        vocabs = self._cell_vocabs()
        sizes = [len(vocab) + 1 for vocab in vocabs]
        columns = list(range(len(sizes)))
        codes = np.empty((len(rows), len(columns)), dtype=np.int64)
        for j, col in enumerate(self._dependent):
            vocab = vocabs[j]
            codes[:, j] = [vocab.get(row[col], 0) for row in rows]
        packed = pack_columns(codes, columns, sizes)
        _, first, inverse = np.unique(
            packed, return_index=True, return_inverse=True
        )
        outcomes = [self.vote(rows[i]) for i in first.tolist()]
        obs_metrics.counter(
            "repro_vote_vectorized_cells_total",
            "Distinct vote cells computed by vectorized kernels",
        ).inc(float(len(outcomes)))
        return [outcomes[group] for group in inverse.reshape(-1).tolist()]

    def _predict(self, rows: Sequence[Row]) -> List[Label]:
        return [outcome.value for outcome in self.recommend_many(rows)]

    def predict_confident(self, rows: Sequence[Row]) -> List[Optional[Label]]:
        """Like predict, but None where support misses the threshold.

        The operational layer (section 5) only pushes confident
        recommendations; an unconfident vote leaves the vendor value.
        """
        return [
            outcome.value if outcome.confident else None
            for outcome in self.recommend_many(rows)
        ]
