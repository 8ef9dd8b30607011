"""The Auric recommendation engine.

Fits, per range parameter, a collaborative-filtering dependency model
(chi-square attribute selection, section 3.2) over the existing carriers
in a network, then recommends values for target carriers by voting —
globally or within the 1-hop X2 neighborhood (section 3.3).

The engine supports *leave-one-out* voting (``exclude`` in the recommend
calls): the paper's evaluation treats each existing carrier as if it
were new, with the rest of the network as the training set, so a
carrier's own configured value must not vote for itself.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy import stats as _scipy_stats

from repro.config.parameters import ParameterCatalog, ParameterSpec
from repro.config.store import ConfigurationStore, PairKey
from repro.core.columnar import (
    NO_EXCLUDE,
    CellVoteTable,
    ColumnarSnapshot,
    EncodedVotes,
    LocalVoteIndex,
    decode_keys,
    dependent_codes,
    grouped_votes,
    pack_columns,
    plurality,
)
from repro.exceptions import RecommendationError, UnknownParameterError
from repro.core.recommendation import (
    CarrierRecommendation,
    ParameterRecommendation,
    RecommendRequest,
    RecommendResult,
)
from repro.learners.collaborative_filtering import CollaborativeFilteringRecommender
from repro.obs import journal as obs_journal
from repro.obs import metrics as obs_metrics
from repro.obs import tracing
from repro.obs.health import DriftBaseline
from repro.obs.provenance import (
    AttributeDependence,
    ParameterExplanation,
    ResultExplanation,
    VoteShare,
)
from repro.netmodel.attributes import ATTRIBUTE_SCHEMA
from repro.netmodel.identifiers import CarrierId
from repro.netmodel.network import Network
from repro.rng import derive
from repro.types import AttributeValue, ParameterValue

Row = Tuple[AttributeValue, ...]


def _attribute_dependence(
    name: str, column: int, result
) -> AttributeDependence:
    """Provenance record for one chi-square-selected attribute.

    ``result.p_value`` is the selection threshold; the achieved p-value
    is recovered from the statistic and degrees of freedom.
    """
    achieved = (
        float(_scipy_stats.chi2.sf(result.statistic, result.dof))
        if result.dof > 0
        else 1.0
    )
    return AttributeDependence(
        name=name,
        column=column,
        statistic=float(result.statistic),
        dof=int(result.dof),
        p_value=achieved,
        significance=float(result.p_value),
        cramers_v=float(result.cramers_v),
    )


@dataclass(frozen=True)
class AuricConfig:
    """Engine settings (defaults follow section 4.2 of the paper)."""

    support_threshold: float = 0.75
    p_value: float = 0.01
    min_effect_size: float = 0.12
    #: Attribute-selection strategy: "conditional" (default) or
    #: "marginal" (the paper's verbatim marginal chi-square selection,
    #: kept for the ablation).
    selection: str = "conditional"
    hops: int = 1
    #: Minimum number of local voters for a local vote to stand; below
    #: this the engine falls back to the global vote.
    min_local_votes: int = 3
    #: Cap on samples used for chi-square attribute selection (the vote
    #: index always uses every sample).  None = no cap.
    max_fit_samples: Optional[int] = 30000
    seed: int = 7
    #: Columnar snapshot persistence backend: "memory" (default, nothing
    #: leaves the process), "file" (JSON sidecar) or "mmap" (binary
    #: store opened zero-copy at cold start).  See :mod:`repro.store`;
    #: serve artifacts reference external stores from schema v4 on.
    store: str = "memory"

    def __post_init__(self) -> None:
        if self.min_local_votes < 1:
            raise ValueError("min_local_votes must be >= 1")


@dataclass
class _ParameterModel:
    """Fitted state for one parameter."""

    spec: ParameterSpec
    dependent_columns: Tuple[int, ...]
    dependent_names: Tuple[str, ...]
    cell_index: Dict[Tuple[AttributeValue, ...], Counter]
    global_counts: Counter
    # target key (CarrierId or PairKey) -> (cell key, label)
    samples: Dict[Hashable, Tuple[Tuple[AttributeValue, ...], ParameterValue]]
    # carrier -> target keys whose source side is that carrier
    by_carrier: Dict[CarrierId, List[Hashable]]
    # sparse vote weights (targets not listed weigh 1.0)
    weights: Dict[Hashable, float] = field(default_factory=dict)
    #: Chi-square provenance of the dependent attributes, strongest
    #: dependency first (empty on models fitted before this field or
    #: loaded from pre-provenance artifacts).
    dependent_stats: Tuple[AttributeDependence, ...] = ()
    # lazily-built vote indexes for relaxed (prefix) matches; level k
    # matches on the first k dependent attributes (strongest first)
    _relaxed: Dict[int, Dict[Tuple[AttributeValue, ...], Counter]] = field(
        default_factory=dict, repr=False
    )
    # lazily-built per-cell plurality table (exact-cell global votes);
    # invalidated whenever the vote indexes change
    _vote_table: Optional[CellVoteTable] = field(
        default=None, repr=False, compare=False
    )
    # lazily-built vectorized neighborhood index (local votes);
    # invalidated alongside the vote table
    _local_index: Optional[LocalVoteIndex] = field(
        default=None, repr=False, compare=False
    )
    # lazily-built per-relaxation-level plurality tables; invalidated
    # alongside the vote table
    _relaxed_tables: Dict[int, CellVoteTable] = field(
        default_factory=dict, repr=False, compare=False
    )
    # fit-time encoded vote columns (columnar fits only); lets the
    # lazy structures above build vectorized. Dropped the moment the
    # electorate diverges from the fit-time arrays.
    _encoded: Optional[EncodedVotes] = field(
        default=None, repr=False, compare=False
    )

    def weight_of(self, key: Hashable) -> float:
        return self.weights.get(key, 1.0)

    def add_sample(
        self,
        key: Hashable,
        row: Row,
        label: ParameterValue,
        weight: float = 1.0,
    ) -> None:
        """Add one configured value to the fitted vote indexes.

        The incremental-refresh path (``repro.serve.refresh``): a newly
        activated carrier's values join the electorate without re-running
        attribute selection — the dependency structure is kept until the
        next full refit.  Replaces any existing sample under ``key``.
        """
        if weight < 0.0:
            raise ValueError(f"vote weight for {key} must be >= 0")
        if key in self.samples:
            self.remove_sample(key)
        self._vote_table = None
        self._local_index = None
        self._relaxed_tables = {}
        self._encoded = None
        cell = self.cell_key(row)
        self.cell_index.setdefault(cell, Counter())[label] += weight
        self.global_counts[label] += weight
        self.samples[key] = (cell, label)
        source = key.carrier if isinstance(key, PairKey) else key
        self.by_carrier.setdefault(source, []).append(key)
        if weight != 1.0:
            self.weights[key] = weight
        for level, index in self._relaxed.items():
            index.setdefault(cell[:level], Counter())[label] += weight

    def remove_sample(self, key: Hashable) -> None:
        """Remove one configured value from the fitted vote indexes."""
        if key not in self.samples:
            return
        self._vote_table = None
        self._local_index = None
        self._relaxed_tables = {}
        self._encoded = None
        cell, label = self.samples.pop(key)
        weight = self.weights.pop(key, 1.0)
        self._drop_votes(self.cell_index, cell, label, weight)
        self.global_counts[label] -= weight
        if self.global_counts[label] <= 1e-12:
            del self.global_counts[label]
        source = key.carrier if isinstance(key, PairKey) else key
        keys = self.by_carrier.get(source)
        if keys is not None:
            keys.remove(key)
            if not keys:
                del self.by_carrier[source]
        for level, index in self._relaxed.items():
            self._drop_votes(index, cell[:level], label, weight)

    @staticmethod
    def _drop_votes(
        index: Dict[Tuple[AttributeValue, ...], Counter],
        cell: Tuple[AttributeValue, ...],
        label: ParameterValue,
        weight: float,
    ) -> None:
        counter = index.get(cell)
        if counter is None:
            return
        counter[label] -= weight
        if counter[label] <= 1e-12:
            del counter[label]
        if not counter:
            del index[cell]

    def relaxed_index(
        self, level: int
    ) -> Dict[Tuple[AttributeValue, ...], Counter]:
        """The vote index matching on the first ``level`` dependent
        attributes (built on first use)."""
        index = self._relaxed.get(level)
        if index is None:
            index = {}
            weights = self.weights
            if weights:
                for key, (cell, label) in self.samples.items():
                    prefix = cell[:level]
                    index.setdefault(prefix, Counter())[label] += weights.get(
                        key, 1.0
                    )
            else:
                for cell, label in self.samples.values():
                    prefix = cell[:level]
                    index.setdefault(prefix, Counter())[label] += 1.0
            self._relaxed[level] = index
        return index

    def cell_key(self, row: Row) -> Tuple[AttributeValue, ...]:
        return tuple(row[c] for c in self.dependent_columns)


class AuricEngine:
    """Learns dependency models and recommends configuration values."""

    def __init__(
        self,
        network: Network,
        store: ConfigurationStore,
        config: Optional[AuricConfig] = None,
    ) -> None:
        self.network = network
        self.store = store
        self.config = config or AuricConfig()
        self.catalog: ParameterCatalog = store.catalog
        self._models: Dict[str, _ParameterModel] = {}
        self._row_cache: Dict[CarrierId, Row] = {}
        self._columnar: Optional[ColumnarSnapshot] = None
        #: Lifecycle-journal stream id for this engine's fit lineage —
        #: minted on the first journaled :meth:`fit` so refits of the
        #: same engine chain into one timeline stream.
        self.lineage: Optional[str] = None
        #: Accumulated fit-phase wall clock, keyed ``(phase,
        #: parameter)`` with phases ``encode`` / ``select`` / ``vote``.
        #: Reset by :meth:`fit`; pool workers drain it per task via
        #: :meth:`_take_fit_phases` so the master can aggregate.
        self._fit_phases: Dict[Tuple[str, str], float] = {}
        #: Fit-time attribute/parameter distributions — the population
        #: the models saw.  Captured by :meth:`fit`, persisted in serve
        #: artifacts and scored against live snapshots by
        #: :class:`repro.obs.health.DriftDetector`.
        self.drift_baseline: Optional[DriftBaseline] = None
        # When True, _finish captures the full vote distribution on each
        # ParameterRecommendation (set around explain-flagged requests;
        # the hot path leaves it off).  Thread-local so a concurrent
        # explain request never flips a plain request on another thread
        # onto the capture path (the lock-free service serves many
        # threads from one engine).
        self._capture_state = threading.local()

    @property
    def _capture_votes(self) -> bool:
        return getattr(self._capture_state, "value", False)

    @_capture_votes.setter
    def _capture_votes(self, value: bool) -> None:
        self._capture_state.value = value

    # -- data access --------------------------------------------------------

    def carrier_row(self, carrier_id: CarrierId) -> Row:
        row = self._row_cache.get(carrier_id)
        if row is None:
            row = self.network.carrier(carrier_id).attributes.as_tuple()
            self._row_cache[carrier_id] = row
        return row

    def pair_row(self, pair: PairKey) -> Row:
        return self.carrier_row(pair.carrier) + self.carrier_row(pair.neighbor)

    def attribute_names(self, spec: ParameterSpec) -> Tuple[str, ...]:
        if spec.is_pairwise:
            own = tuple(f"own.{n}" for n in ATTRIBUTE_SCHEMA.names)
            nbr = tuple(f"nbr.{n}" for n in ATTRIBUTE_SCHEMA.names)
            return own + nbr
        return ATTRIBUTE_SCHEMA.names

    # -- fitting --------------------------------------------------------------

    def _phase(self, phase: str, parameter: str, seconds: float) -> None:
        key = (phase, parameter)
        self._fit_phases[key] = self._fit_phases.get(key, 0.0) + seconds

    def _take_fit_phases(self) -> Dict[Tuple[str, str], float]:
        """Drain the accumulated phase timings (pool workers call this
        after each task so timings ride back on the task result — the
        worker's metrics registry is disabled, so observing there would
        be lost)."""
        phases = self._fit_phases
        self._fit_phases = {}
        return phases

    def _observe_fit_phases(self) -> None:
        """Feed the accumulated breakdown into
        ``repro_fit_phase_seconds{phase,parameter}`` (master side)."""
        if not self._fit_phases:
            return
        histogram = obs_metrics.histogram(
            "repro_fit_phase_seconds",
            "Fit wall-clock by phase (encode / select / vote) and parameter",
            labelnames=("phase", "parameter"),
        )
        for (phase, parameter), seconds in self._fit_phases.items():
            histogram.labels(phase=phase, parameter=parameter).observe(seconds)

    def fit(
        self,
        parameters: Optional[Sequence[str]] = None,
        vote_weights: Optional[Dict[Hashable, float]] = None,
        jobs: int = 1,
    ) -> "AuricEngine":
        """Learn dependency models for the given (or all range) parameters.

        ``vote_weights`` optionally maps target keys (carrier ids / pair
        keys) to vote weights — the section 6 performance-feedback
        extension: carriers whose configuration historically improved
        service performance can carry more support than carriers whose
        KPIs degraded after tuning.  Unlisted targets weigh 1.

        ``jobs`` fans per-parameter fitting out across a process pool
        (:mod:`repro.parallel`); every parameter's attribute selection
        draws from its own derived RNG stream, so the fitted models are
        identical to the serial path regardless of worker count.
        ``jobs=1`` (the default) stays in-process.
        """
        if parameters is None:
            specs = self.catalog.range_parameters()
        else:
            specs = [self.catalog.spec(name) for name in parameters]
        fit_started = time.perf_counter()
        self._fit_phases = {}
        with tracing.span(
            "engine.fit", parameters=len(specs), jobs=jobs
        ):
            # One encoding pass shared by every parameter fit (and
            # shipped to pool workers via shared memory).
            self.ensure_columnar(specs)
            if jobs != 1 and len(specs) > 1:
                from repro.parallel.fit import fit_parameter_models

                self._models.update(
                    fit_parameter_models(
                        self,
                        [spec.name for spec in specs],
                        vote_weights=vote_weights,
                        jobs=jobs,
                    )
                )
            else:
                for spec in specs:
                    self._models[spec.name] = self._fit_parameter(
                        spec, vote_weights
                    )
            # Baseline must be captured here, at fit time — a snapshot
            # mutated after fit has, by definition, drifted from what
            # the models learned.
            self.drift_baseline = DriftBaseline.capture(
                self.network, self.store, parameters=sorted(self._models)
            )
            self._observe_fit_phases()
            self._journal_fit(len(specs), jobs, time.perf_counter() - fit_started)
            return self

    def _journal_fit(self, parameters: int, jobs: int, duration_s: float) -> None:
        """Record this fit in the lifecycle journal (no-op when the
        journal is disabled — the snapshot fingerprint is only computed
        when someone will read it)."""
        if not obs_journal.active():
            return
        if self.lineage is None:
            self.lineage = obs_journal.mint_stream("engine")
        phase_totals: Dict[str, float] = {}
        for (phase, _parameter), seconds in self._fit_phases.items():
            phase_totals[phase] = phase_totals.get(phase, 0.0) + seconds
        # The columnar content hash is cheap (raw buffer hashing); the
        # full dataset fingerprint would cost more than the fit itself.
        obs_journal.record(
            "fit",
            scope="engine",
            stream=self.lineage,
            generation=0,
            duration_s=duration_s,
            fingerprints={"snapshot": self._columnar.fingerprint()},
            parameters=parameters,
            jobs=jobs,
            phases={k: round(v, 6) for k, v in sorted(phase_totals.items())},
        )

    def ensure_columnar(
        self, specs: Sequence[ParameterSpec] = ()
    ) -> ColumnarSnapshot:
        """The engine's columnar snapshot, encoded on first use and
        extended in place with any not-yet-encoded parameters."""
        if self._columnar is None:
            started = time.perf_counter()
            self._columnar = ColumnarSnapshot.encode(
                self.network, self.store, specs
            )
            self._phase("encode", "snapshot", time.perf_counter() - started)
        else:
            for spec in specs:
                if spec.name in self._columnar.parameters:
                    continue
                started = time.perf_counter()
                self._columnar.add_parameter(self.store, spec)
                self._phase("encode", spec.name, time.perf_counter() - started)
        return self._columnar

    def attach_columnar(self, snapshot: ColumnarSnapshot) -> None:
        """Adopt an already-encoded snapshot (artifact load / pool
        worker) so fitting skips the encoding pass.  The snapshot must
        describe this engine's network and store."""
        self._columnar = snapshot

    def columnar_snapshot(self) -> Optional[ColumnarSnapshot]:
        """The engine's encoded snapshot, or ``None`` before the first
        columnar fit (the persistence layer saves it when present)."""
        return self._columnar

    def invalidate_columnar(self, parameter: Optional[str] = None) -> None:
        """Drop stale encoded columns after the store mutates.

        The columnar snapshot is a one-time encoding of the store; the
        incremental-refresh path writes new configured values into the
        store, so the affected parameter's label columns (or, with
        ``parameter=None``, the whole snapshot) must be re-encoded on
        next use.
        """
        if self._columnar is None:
            return
        if parameter is None:
            self._columnar = None
        else:
            self._columnar.parameters.pop(parameter, None)

    def fitted_parameters(self) -> List[str]:
        return sorted(self._models)

    def fitted_models(self) -> Dict[str, _ParameterModel]:
        """The fitted per-parameter models (live references, not copies).

        The persistence layer (``repro.serve.artifacts``) serializes
        these; everything else should go through the recommend calls.
        """
        return dict(self._models)

    def warm_votes(self, parameters: Optional[Sequence[str]] = None) -> int:
        """Pre-build the lazy per-parameter vote structures.

        The plurality tables and local vote index are normally built on
        first use; a serving tier that shares one engine across shard
        worker threads warms them up front so the lazy builds happen
        once, before concurrent traffic arrives (the builds are
        deterministic and idempotent, so a race is only wasted work —
        warming removes even that).  Returns the number of models
        warmed.
        """
        names = parameters if parameters is not None else self.fitted_parameters()
        warmed = 0
        for name in names:
            model = self._models.get(name)
            if model is None:
                continue
            if self._cell_vote_table(model) is not None:
                self._relaxed_table(model, max(len(model.dependent_columns) - 1, 0))
            self._local_vote_index(model)
            warmed += 1
        return warmed

    def install_model(self, name: str, model: _ParameterModel) -> None:
        """Install a fitted model directly (artifact load / refresher swap)."""
        if model.spec.name != name:
            raise ValueError(
                f"model is for {model.spec.name!r}, cannot install as {name!r}"
            )
        self._models[name] = model

    def _fit_parameter(
        self,
        spec: ParameterSpec,
        vote_weights: Optional[Dict[Hashable, float]] = None,
    ) -> _ParameterModel:
        """Fit one parameter from the encoded snapshot.

        Split into :meth:`_select_columnar` (chi-square attribute
        selection) and :meth:`_build_columnar_model` (vote structures)
        so the incremental-refit path can reuse a previous selection
        when the changelog provably cannot have altered it, and pool
        workers ship only the selection back to the master.
        """
        with tracing.span("engine.fit_parameter", parameter=spec.name) as sp:
            model = self._build_columnar_model(
                spec, *self._select_columnar(spec), vote_weights
            )
            sp.set("samples", len(model.samples))
            sp.set("dependent", list(model.dependent_names))
            return model

    def _fit_sample_positions(
        self, name: str, n_samples: int
    ) -> Optional[np.ndarray]:
        """Deterministic (sorted) positions of the chi-square fit
        subsample, or ``None`` when the cap is off or the population
        fits under it.  Depends only on config seed + parameter name +
        population size, so the incremental-refit path can reproduce
        exactly which samples selection saw."""
        cap = self.config.max_fit_samples
        if cap is None or n_samples <= cap:
            return None
        rng = derive(self.config.seed, f"fit-sample:{name}")
        picked = rng.choice(n_samples, size=cap, replace=False)
        picked.sort()
        return picked

    def _select_columnar(
        self, spec: ParameterSpec
    ) -> Tuple[Tuple[int, ...], Tuple[AttributeDependence, ...]]:
        """Chi-square attribute selection over the encoded snapshot."""
        columnar = self.ensure_columnar([spec])
        select_started = time.perf_counter()
        columns = columnar.parameter(spec.name)
        n_samples = len(columns)
        if n_samples == 0:
            raise RecommendationError(
                f"no configured values for parameter {spec.name}; cannot fit"
            )
        row_codes = columnar.row_codes(spec.name)
        label_codes = columns.label_codes
        sizes = columnar.column_sizes(spec.name)

        fit_codes, fit_label_codes = row_codes, label_codes
        picked = self._fit_sample_positions(spec.name, n_samples)
        if picked is not None:
            fit_codes = row_codes[picked]
            fit_label_codes = label_codes[picked]

        recommender = CollaborativeFilteringRecommender(
            support_threshold=self.config.support_threshold,
            p_value=self.config.p_value,
            min_effect_size=self.config.min_effect_size,
            selection=self.config.selection,
        ).fit_encoded(fit_codes, fit_label_codes, column_sizes=sizes)
        dependent = recommender.dependent_attributes
        names = self.attribute_names(spec)
        dependent_stats = tuple(
            _attribute_dependence(
                names[col], col, recommender.test_result(col)
            )
            for col in dependent
        )
        self._phase("select", spec.name, time.perf_counter() - select_started)
        return dependent, dependent_stats

    def _build_columnar_model(
        self,
        spec: ParameterSpec,
        dependent: Tuple[int, ...],
        dependent_stats: Tuple[AttributeDependence, ...],
        vote_weights: Optional[Dict[Hashable, float]] = None,
    ) -> _ParameterModel:
        """Build the vote structures for an already-selected dependency
        set — exactly what a full fit does after selection, so a model
        built here is byte-identical to one from a fresh fit with the
        same selection outcome."""
        columnar = self.ensure_columnar([spec])
        vote_started = time.perf_counter()
        columns = columnar.parameter(spec.name)
        if len(columns) == 0:
            raise RecommendationError(
                f"no configured values for parameter {spec.name}; cannot fit"
            )
        label_codes = columns.label_codes
        names = self.attribute_names(spec)
        dep_vocabs = [columnar.column_vocab(spec.name, col) for col in dependent]

        keys = columns.keys(columnar.carrier_ids)
        label_vocab = columns.label_vocab
        weights: Dict[Hashable, float] = {}
        weight_array: Optional[np.ndarray] = None
        if vote_weights is not None:
            weight_list = []
            for key in keys:
                weight = float(vote_weights.get(key, 1.0))
                if weight < 0.0:
                    raise ValueError(f"vote weight for {key} must be >= 0")
                if weight != 1.0:
                    weights[key] = weight
                weight_list.append(weight)
            weight_array = np.asarray(weight_list, dtype=np.float64)

        dep_rows = dependent_codes(
            columnar.codes, columns.sources, columns.neighbors, dependent
        )
        cell_codes = pack_columns(
            dep_rows, range(len(dependent)), [len(v) for v in dep_vocabs]
        )
        group_cells, group_labels, group_totals = grouped_votes(
            cell_codes, label_codes, len(label_vocab), weight_array
        )
        cell_tuples = decode_keys(cell_codes, dep_rows, dep_vocabs)

        cell_index: Dict[Tuple[AttributeValue, ...], Counter] = {}
        for code, label_code, total in zip(
            group_cells.tolist(), group_labels.tolist(), group_totals.tolist()
        ):
            cell_index.setdefault(cell_tuples[code], Counter())[
                label_vocab[label_code]
            ] = total

        label_uniques, label_firsts = np.unique(label_codes, return_index=True)
        if weight_array is None:
            label_totals = np.bincount(
                label_codes, minlength=len(label_vocab)
            ).astype(np.float64)
        else:
            label_totals = np.bincount(
                label_codes, weights=weight_array, minlength=len(label_vocab)
            )
        global_counts: Counter = Counter()
        for code in label_uniques[np.argsort(label_firsts, kind="stable")].tolist():
            global_counts[label_vocab[code]] = float(label_totals[code])

        samples: Dict[Hashable, Tuple[Tuple[AttributeValue, ...], ParameterValue]] = {}
        by_carrier: Dict[CarrierId, List[Hashable]] = {}
        cell_code_list = cell_codes.tolist()
        label_code_list = label_codes.tolist()
        pairwise = spec.is_pairwise
        for i, key in enumerate(keys):
            samples[key] = (
                cell_tuples[cell_code_list[i]],
                label_vocab[label_code_list[i]],
            )
            source = key.carrier if pairwise else key
            by_carrier.setdefault(source, []).append(key)

        model = _ParameterModel(
            spec=spec,
            dependent_columns=dependent,
            dependent_names=tuple(names[c] for c in dependent),
            cell_index=cell_index,
            global_counts=global_counts,
            samples=samples,
            by_carrier=by_carrier,
            weights=weights,
            dependent_stats=dependent_stats,
        )
        if not weights:
            # Keep the encoded columns: the lazy plurality/relaxed/local
            # structures then build vectorized from them instead of
            # replaying per-sample dict loops.  Weighted models skip the
            # stash — their fast paths are gated off anyway.
            model._encoded = EncodedVotes(
                cell_codes=cell_codes,
                label_codes=label_codes,
                label_vocab=label_vocab,
                cell_tuples=cell_tuples,
                dependent=dependent,
                dep_vocabs=dep_vocabs,
                attribute_codes=columnar.codes,
                sources=columns.sources,
                neighbors=columns.neighbors,
                carrier_ids=columnar.carrier_ids,
            )
        self._phase("vote", spec.name, time.perf_counter() - vote_started)
        return model

    def _model(self, parameter: str) -> _ParameterModel:
        try:
            return self._models[parameter]
        except KeyError:
            raise UnknownParameterError(
                f"{parameter} has not been fitted (call fit first)"
            ) from None

    # -- voting ---------------------------------------------------------------

    def _vote_counter(
        self,
        model: _ParameterModel,
        cell: Tuple[AttributeValue, ...],
        exclude: Optional[Hashable],
    ) -> Counter:
        """The cell's vote counter after leave-one-out exclusion.

        With no exclusion applicable this returns the *stored* counter
        uncopied — callers read (``most_common``, ``sum``) but must not
        mutate; the copy happens only when an exclusion actually
        modifies the counts.
        """
        counter = model.cell_index.get(cell)
        if counter is None:
            return Counter()
        if exclude is not None and exclude in model.samples:
            ex_cell, ex_label = model.samples[exclude]
            if ex_cell == cell and counter.get(ex_label, 0) > 0:
                counter = Counter(counter)
                counter[ex_label] -= model.weight_of(exclude)
                if counter[ex_label] <= 1e-12:
                    del counter[ex_label]
        return counter

    def _cell_vote_table(
        self, model: _ParameterModel
    ) -> Optional[CellVoteTable]:
        """The model's precomputed plurality table, or ``None`` when the
        exact fast path cannot be used (weighted votes make the LOO
        ``top - 1`` arithmetic inexact; vote capture needs the full
        distribution)."""
        if self._capture_votes or model.weights:
            return None
        table = model._vote_table
        if table is None:
            encoded = model._encoded
            if encoded is not None:
                table = encoded.vote_table()
            else:
                table = CellVoteTable(model.cell_index)
            model._vote_table = table
        return table

    def _table_outcome(
        self,
        model: _ParameterModel,
        table: CellVoteTable,
        cell: Tuple[AttributeValue, ...],
        exclude: Optional[Hashable],
    ) -> Optional[ParameterRecommendation]:
        """Answer an exact-cell global vote from the plurality table.

        ``None`` means the table cannot answer exactly (unknown cell or
        the exclusion empties it) and the caller must take the Counter
        path — whose outcome is identical whenever the table *does*
        answer.
        """
        exclude_label: object = NO_EXCLUDE
        if exclude is not None:
            sample = model.samples.get(exclude)
            if sample is not None and sample[0] == cell:
                exclude_label = sample[1]
        outcome = table.vote(cell, exclude_label)
        if outcome is None:
            return None
        value, top, total = outcome
        support = top / total if total else 0.0
        return ParameterRecommendation(
            parameter=model.spec.name,
            value=value,
            support=support,
            matched=float(total),
            confident=support >= self.config.support_threshold,
            scope="global",
            dependent_attributes=model.dependent_names,
            votes=(),
        )

    def _relaxed_table(
        self, model: _ParameterModel, level: int
    ) -> CellVoteTable:
        """The plurality table over the level-``level`` relaxed index
        (built on first use, invalidated with the vote table)."""
        table = model._relaxed_tables.get(level)
        if table is None:
            encoded = model._encoded
            if encoded is not None:
                table = encoded.relaxed_table(level)
            else:
                table = CellVoteTable(model.relaxed_index(level))
            model._relaxed_tables[level] = table
        return table

    def _recommend_global_fast(
        self,
        model: _ParameterModel,
        parameter: str,
        cell: Tuple[AttributeValue, ...],
        exclude: Optional[Hashable],
    ) -> ParameterRecommendation:
        """Relaxed-level global vote from per-level plurality tables.

        Reached only when the exact-cell table vote returned ``None`` —
        which implies the Counter path's exact-cell counter is empty
        (unknown cell, or a singleton cell emptied by the exclusion) —
        so the walk down the relaxation levels picks up exactly where
        the Counter path would.  The global-distribution tail stays on the
        Counter copy; it is both rare and cheap.
        """
        ex_cell = None
        ex_label = None
        if exclude is not None:
            sample = model.samples.get(exclude)
            if sample is not None:
                ex_cell, ex_label = sample
        for level in range(len(cell) - 1, 0, -1):
            table = self._relaxed_table(model, level)
            exclude_label: object = NO_EXCLUDE
            if ex_cell is not None and ex_cell[:level] == cell[:level]:
                exclude_label = ex_label
            outcome = table.vote(cell[:level], exclude_label)
            if outcome is not None:
                value, top, total = outcome
                support = top / total if total else 0.0
                return ParameterRecommendation(
                    parameter=parameter,
                    value=value,
                    support=support,
                    matched=float(total),
                    confident=support >= self.config.support_threshold,
                    scope="global-relaxed",
                    dependent_attributes=model.dependent_names,
                    votes=(),
                )
        fallback = Counter(model.global_counts)
        if ex_label is not None:
            fallback[ex_label] -= 1.0  # weight 1.0 under the table gate
            if fallback[ex_label] <= 1e-12:
                del fallback[ex_label]
        if not fallback:
            raise RecommendationError(f"no votes available for {parameter}")
        return self._finish(model, fallback, "global-fallback")

    def _finish(
        self,
        model: _ParameterModel,
        counter: Counter,
        scope: str,
    ) -> ParameterRecommendation:
        total = sum(counter.values())
        value, top = counter.most_common(1)[0]
        support = top / total if total else 0.0
        votes: Tuple[Tuple[ParameterValue, float], ...] = ()
        if self._capture_votes:
            votes = tuple(
                (vote_value, float(weight))
                for vote_value, weight in counter.most_common()
            )
        return ParameterRecommendation(
            parameter=model.spec.name,
            value=value,
            support=support,
            matched=float(total),
            confident=support >= self.config.support_threshold,
            scope=scope,
            dependent_attributes=model.dependent_names,
            votes=votes,
        )

    def recommend_global(
        self, parameter: str, row: Row, exclude: Optional[Hashable] = None
    ) -> ParameterRecommendation:
        """Network-wide vote for one target row.

        If no existing carrier matches the full dependent-attribute
        combination (after leave-one-out exclusion), the match is
        progressively relaxed by dropping the weakest dependency first —
        the same fallback the CF learner applies — ending at the global
        value distribution.
        """
        model = self._model(parameter)
        cell = model.cell_key(row)
        table = self._cell_vote_table(model)
        if table is not None:
            outcome = self._table_outcome(model, table, cell, exclude)
            if outcome is not None:
                return outcome
            return self._recommend_global_fast(model, parameter, cell, exclude)
        return self._recommend_global_slow(model, parameter, cell, exclude)

    def table_global_votes(
        self,
        parameter: str,
        cells: Sequence[Tuple[AttributeValue, ...]],
        excludes: Optional[Sequence[Optional[Hashable]]] = None,
    ) -> List[Optional[ParameterRecommendation]]:
        """Exact-cell global votes answered straight from the plurality
        table, vectorized over the batch.

        The batch-serving planner's kernel: all no-exclusion cells are
        resolved with one :meth:`CellVoteTable.vote_many` gather;
        leave-one-out entries take the scalar :meth:`_table_outcome`
        path (rare in serving batches, branchy tie-break).  Entries the
        table cannot answer — unknown cells, emptied cells, or a model
        on the weighted/capture Counter path where there is no table at
        all — come back as ``None`` and the caller falls through to the
        per-target vote, exactly like a ``None`` from
        :meth:`_table_outcome`.  Never raises: a cell with no voters
        anywhere is still just ``None`` here.
        """
        n = len(cells)
        if excludes is None:
            excludes = [None] * n
        model = self._models.get(parameter)
        if model is None:
            return [None] * n
        table = self._cell_vote_table(model)
        if table is None:
            return [None] * n
        out: List[Optional[ParameterRecommendation]] = [None] * n
        threshold = self.config.support_threshold
        name = model.spec.name
        dependent = model.dependent_names
        plain = [i for i in range(n) if excludes[i] is None]
        if plain:
            known, values, tops, totals = table.vote_many(
                [cells[i] for i in plain]
            )
            for j, i in enumerate(plain):
                if not known[j]:
                    continue
                top = tops[j]
                total = totals[j]
                support = top / total if total else 0.0
                out[i] = ParameterRecommendation(
                    parameter=name,
                    value=values[j],
                    support=support,
                    matched=float(total),
                    confident=support >= threshold,
                    scope="global",
                    dependent_attributes=dependent,
                    votes=(),
                )
        for i in range(n):
            if excludes[i] is not None:
                out[i] = self._table_outcome(model, table, cells[i], excludes[i])
        return out

    def recommend_global_cells(
        self,
        parameter: str,
        cells: Sequence[Tuple[AttributeValue, ...]],
        excludes: Optional[Sequence[Optional[Hashable]]] = None,
    ) -> List[ParameterRecommendation]:
        """Batched :meth:`recommend_global` over precomputed cells.

        Element-wise byte-identical to calling :meth:`recommend_global`
        on each cell's source row: the vectorized table pass answers
        the common exact-cell case, and every ``None`` falls through
        the same relaxed/Counter chain the scalar call uses (including
        raising :class:`RecommendationError` for a cell with no votes
        anywhere).
        """
        model = self._model(parameter)
        n = len(cells)
        if excludes is None:
            excludes = [None] * n
        out = self.table_global_votes(parameter, cells, excludes)
        table = self._cell_vote_table(model)
        for i in range(n):
            if out[i] is not None:
                continue
            if table is not None:
                out[i] = self._recommend_global_fast(
                    model, parameter, cells[i], excludes[i]
                )
            else:
                out[i] = self._recommend_global_slow(
                    model, parameter, cells[i], excludes[i]
                )
        return out

    def _recommend_global_slow(
        self,
        model: _ParameterModel,
        parameter: str,
        cell: Tuple[AttributeValue, ...],
        exclude: Optional[Hashable],
    ) -> ParameterRecommendation:
        """The Counter-based global vote: exact cell, relaxed prefixes,
        global fallback.  The plurality-table fast path answers the
        common exact-cell case; everything else (unknown cells, emptied
        cells, weighted models, vote capture) lands here."""
        counter = self._vote_counter(model, cell, exclude)
        if counter:
            return self._finish(model, counter, "global")
        for level in range(len(cell) - 1, 0, -1):
            index = model.relaxed_index(level)
            counter = Counter(index.get(cell[:level], Counter()))
            if exclude is not None and exclude in model.samples:
                ex_cell, ex_label = model.samples[exclude]
                if ex_cell[:level] == cell[:level] and counter.get(ex_label, 0) > 0:
                    counter[ex_label] -= model.weight_of(exclude)
                    if counter[ex_label] <= 1e-12:
                        del counter[ex_label]
            if counter:
                return self._finish(model, counter, "global-relaxed")
        fallback = Counter(model.global_counts)
        if exclude is not None and exclude in model.samples:
            _, ex_label = model.samples[exclude]
            fallback[ex_label] -= model.weight_of(exclude)
            if fallback[ex_label] <= 1e-12:
                del fallback[ex_label]
        if not fallback:
            raise RecommendationError(f"no votes available for {parameter}")
        return self._finish(model, fallback, "global-fallback")

    def recommend_local(
        self,
        parameter: str,
        row: Row,
        neighborhood: Set[CarrierId],
        exclude: Optional[Hashable] = None,
    ) -> ParameterRecommendation:
        """1-hop-neighborhood vote, falling back to the global vote.

        ``neighborhood`` is the set of *carriers* allowed to vote; for
        pair-wise parameters the votes come from pairs sourced at those
        carriers.

        Two local signals are tried before deferring to the global vote:

        1. an exact match on the dependent attributes among the
           neighborhood's carriers (enough voters → their plurality), and
        2. *cluster-tuning detection*: engineers tune a geographic
           cluster to one value regardless of attribute combination.  A
           neighborhood whose carriers agree on one value (support above
           the confidence threshold) across two or more *different*
           dependent-attribute cells, where that value moreover deviates
           from the voters' own cells' network-wide majorities, is a
           tuned cluster — its value applies to the new carrier even
           without an exact attribute match.  The deviation requirement
           is what separates deliberate local tuning from areas that are
           merely uniform because the network-wide default dominates.
        """
        model = self._model(parameter)
        cell = model.cell_key(row)
        outcome = self._local_vote(model, cell, neighborhood, exclude)
        if outcome is not None:
            return outcome
        return self.recommend_global(parameter, row, exclude)

    def _local_vote(
        self,
        model: _ParameterModel,
        cell: Tuple[AttributeValue, ...],
        neighborhood: Set[CarrierId],
        exclude: Optional[Hashable],
    ) -> Optional[ParameterRecommendation]:
        """The two local signals of :meth:`recommend_local`; ``None``
        when neither stands and the global vote must decide."""
        table = self._cell_vote_table(model)
        if table is not None:
            return self._local_vote_fast(model, table, cell, neighborhood, exclude)
        exact_counter: Counter = Counter()
        all_counter: Counter = Counter()
        voters_by_label: Dict[ParameterValue, List[Hashable]] = {}
        for carrier in neighborhood:
            for key in model.by_carrier.get(carrier, ()):
                if key == exclude:
                    continue
                sample_cell, label = model.samples[key]
                weight = model.weight_of(key)
                all_counter[label] += weight
                voters_by_label.setdefault(label, []).append(key)
                if sample_cell == cell:
                    exact_counter[label] += weight

        if sum(exact_counter.values()) >= self.config.min_local_votes:
            outcome = self._finish(model, exact_counter, "local")
            # A handful of local voters is a weaker sample than the
            # network-wide cell; only a confident local consensus is
            # allowed to override the global vote.
            if outcome.confident:
                return outcome

        if sum(all_counter.values()) >= self.config.min_local_votes:
            outcome = self._finish(model, all_counter, "local-cluster")
            if outcome.confident and self._is_tuned_cluster(
                model, voters_by_label.get(outcome.value, []), outcome.value
            ):
                return outcome

        return None

    def _local_vote_index(self, model: _ParameterModel) -> LocalVoteIndex:
        index = model._local_index
        if index is None:
            encoded = model._encoded
            if encoded is not None:
                index = LocalVoteIndex.from_encoded(encoded, model.samples)
            else:
                index = LocalVoteIndex(model.samples, model.by_carrier)
            model._local_index = index
        return index

    def _local_vote_fast(
        self,
        model: _ParameterModel,
        table: CellVoteTable,
        cell: Tuple[AttributeValue, ...],
        neighborhood: Set[CarrierId],
        exclude: Optional[Hashable],
    ) -> Optional[ParameterRecommendation]:
        """:meth:`_local_vote` over the vectorized neighborhood index.

        Bit-identical to the Counter loop: the electorate is visited in
        the same order (so plurality tie-breaks agree), every vote
        counts exactly 1 (the :meth:`_cell_vote_table` gate excludes
        weighted models), and the cluster-tuning probe answers each
        voter's cell-majority question from the plurality table.
        """
        index = self._local_vote_index(model)
        pos = index.electorate(neighborhood, exclude)
        if pos is None:
            return None
        labels = index.label_codes[pos]
        total_all = len(labels)
        threshold = self.config.support_threshold
        min_votes = self.config.min_local_votes
        target_slot = index.cell_slot.get(cell)
        if target_slot is not None:
            exact_labels = labels[index.cell_codes[pos] == target_slot]
            total_exact = len(exact_labels)
            if total_exact >= min_votes:
                code, top = plurality(exact_labels.tolist())
                support = top / total_exact
                # A handful of local voters is a weaker sample than the
                # network-wide cell; only a confident local consensus is
                # allowed to override the global vote.
                if support >= threshold:
                    return self._local_outcome(
                        model, index.labels[code], top, total_exact, "local"
                    )
        if total_all >= min_votes:
            labels_list = labels.tolist()
            code, top = plurality(labels_list)
            support = top / total_all
            if support >= threshold:
                value = index.labels[code]
                voter_pos = pos[labels == code]
                if self._is_tuned_cluster_fast(index, table, voter_pos, value):
                    return self._local_outcome(
                        model, value, top, total_all, "local-cluster"
                    )
        return None

    def _local_outcome(
        self,
        model: _ParameterModel,
        value: ParameterValue,
        top: int,
        total: int,
        scope: str,
    ) -> ParameterRecommendation:
        support = top / total
        return ParameterRecommendation(
            parameter=model.spec.name,
            value=value,
            support=support,
            matched=float(total),
            confident=support >= self.config.support_threshold,
            scope=scope,
            dependent_attributes=model.dependent_names,
            votes=(),
        )

    def _is_tuned_cluster_fast(
        self,
        index: LocalVoteIndex,
        table: CellVoteTable,
        voter_pos: np.ndarray,
        value: ParameterValue,
    ) -> bool:
        """:meth:`_is_tuned_cluster` answered from the plurality table:
        removing a voter's own vote and asking for its cell's remaining
        majority is exactly the table's leave-one-out query."""
        codes = index.cell_codes[voter_pos].tolist()
        if len(set(codes)) < 2:
            return False
        cells = index.cells
        anomalous = 0
        evidence = 0
        for code in codes:
            outcome = table.vote(cells[code], value)
            if outcome is None:
                # A singleton cell says nothing about the network norm;
                # it is neither evidence for nor against tuning.
                continue
            evidence += 1
            if outcome[0] != value:
                anomalous += 1
        if evidence < 2:
            return False
        return anomalous >= 0.5 * evidence

    def _is_tuned_cluster(
        self,
        model: _ParameterModel,
        voters: List[Hashable],
        value: ParameterValue,
    ) -> bool:
        """Whether neighborhood agreement on ``value`` looks deliberate.

        Requires the agreeing voters to span at least two distinct
        dependent-attribute cells, and a majority of them to deviate
        from their own cell's network-wide majority — uniform areas
        where everyone simply has the global default fail this.
        """
        cells = {model.samples[key][0] for key in voters}
        if len(cells) < 2:
            return False
        anomalous = 0
        evidence = 0
        for key in voters:
            voter_cell, _ = model.samples[key]
            counter = Counter(model.cell_index[voter_cell])
            counter[value] -= model.weight_of(key)  # the voter's own vote
            if counter[value] <= 1e-12:
                del counter[value]
            if not counter:
                # A singleton cell says nothing about the network norm;
                # it is neither evidence for nor against tuning.
                continue
            evidence += 1
            if counter.most_common(1)[0][0] != value:
                anomalous += 1
        if evidence < 2:
            return False
        return anomalous >= 0.5 * evidence

    # -- carrier-level API ------------------------------------------------------

    def neighborhood_of(self, carrier_id: CarrierId) -> Set[CarrierId]:
        return self.network.x2.carrier_neighborhood(
            carrier_id, hops=self.config.hops
        )

    def recommend_for_carrier(
        self,
        parameter: str,
        carrier_id: CarrierId,
        local: bool = True,
        leave_one_out: bool = True,
    ) -> ParameterRecommendation:
        """Recommend a singular parameter for an existing carrier.

        With ``leave_one_out`` the carrier's own configured value does
        not vote — the paper's evaluation methodology.
        """
        model = self._model(parameter)
        if model.spec.is_pairwise:
            raise RecommendationError(
                f"{parameter} is pair-wise; use recommend_for_pair"
            )
        row = self.carrier_row(carrier_id)
        exclude = carrier_id if leave_one_out else None
        if local:
            return self.recommend_local(
                parameter, row, self.neighborhood_of(carrier_id), exclude
            )
        return self.recommend_global(parameter, row, exclude)

    def recommend_for_pair(
        self,
        parameter: str,
        pair: PairKey,
        local: bool = True,
        leave_one_out: bool = True,
    ) -> ParameterRecommendation:
        """Recommend a pair-wise parameter for a (carrier, neighbor) pair."""
        model = self._model(parameter)
        if not model.spec.is_pairwise:
            raise RecommendationError(
                f"{parameter} is singular; use recommend_for_carrier"
            )
        row = self.pair_row(pair)
        exclude = pair if leave_one_out else None
        if local:
            # The source carrier's other pairs are legitimate voters too.
            neighborhood = self.neighborhood_of(pair.carrier)
            neighborhood.add(pair.carrier)
            return self.recommend_local(parameter, row, neighborhood, exclude)
        return self.recommend_global(parameter, row, exclude)

    def recommend_for_targets(
        self,
        parameter: str,
        keys: Sequence[Hashable],
        local: bool = True,
        leave_one_out: bool = True,
    ) -> List[ParameterRecommendation]:
        """Recommend one parameter for many existing targets at once.

        ``keys`` are carrier ids (singular parameters) or pair keys
        (pair-wise); the model and spec checks are hoisted out of the
        loop.  This is the bulk path the LOO evaluation sweeps — serial
        and parallel alike — drive, so both scopes of an evaluation
        fold make exactly the same per-target calls.

        Targets that are fitted samples skip the row re-materialization
        (their dependent-attribute cell is stored on the model) and
        answer exact-cell global votes from the plurality table; both
        shortcuts reproduce the per-target calls bit for bit, and any
        case the table cannot answer takes the per-target path.
        """
        model = self._model(parameter)
        pairwise = model.spec.is_pairwise
        table = self._cell_vote_table(model)
        if table is None:
            if pairwise:
                return [
                    self.recommend_for_pair(parameter, key, local, leave_one_out)
                    for key in keys
                ]
            return [
                self.recommend_for_carrier(parameter, key, local, leave_one_out)
                for key in keys
            ]
        out: List[ParameterRecommendation] = []
        for key in keys:
            sample = model.samples.get(key)
            if sample is None:
                out.append(
                    self.recommend_for_pair(parameter, key, local, leave_one_out)
                    if pairwise
                    else self.recommend_for_carrier(
                        parameter, key, local, leave_one_out
                    )
                )
                continue
            cell = sample[0]
            exclude = key if leave_one_out else None
            if local:
                if pairwise:
                    # The source carrier's other pairs are legitimate
                    # voters too.
                    neighborhood = self.neighborhood_of(key.carrier)
                    neighborhood.add(key.carrier)
                else:
                    neighborhood = self.neighborhood_of(key)
                outcome = self._local_vote(model, cell, neighborhood, exclude)
                if outcome is not None:
                    out.append(outcome)
                    continue
            outcome = self._table_outcome(model, table, cell, exclude)
            if outcome is None:
                outcome = self._recommend_global_fast(
                    model, parameter, cell, exclude
                )
            out.append(outcome)
        return out

    # -- unified request API -----------------------------------------------------

    def request_neighborhood(self, request) -> Set[CarrierId]:
        """Local voters for a new-carrier-shaped request: its explicit
        ANR neighbors plus, when the launch eNodeB is known, the
        co-sited carriers and their X2 neighborhoods."""
        voters: Set[CarrierId] = set(request.neighbor_carriers)
        if request.enodeb_id is not None:
            enodeb = self.network.enodeb(request.enodeb_id)
            for carrier in enodeb.carriers():
                voters.add(carrier.carrier_id)
                voters |= self.neighborhood_of(carrier.carrier_id)
        return voters

    def resolve_request(
        self, request: RecommendRequest
    ) -> Tuple["CarrierAttributes", Row, Set[CarrierId], Optional[Hashable]]:
        """Resolve a unified request against the snapshot.

        Returns ``(attributes, row, neighborhood, exclude)``: existing
        carriers get their stored attributes, X2 neighborhood and (under
        leave-one-out) their own key as the excluded voter; new carriers
        get the declared attributes and the launch neighborhood.  A
        non-local request resolves to an empty neighborhood, which every
        layer treats as "vote globally".
        """
        if request.carrier_id is not None:
            attributes = self.network.carrier(request.carrier_id).attributes
            row = self.carrier_row(request.carrier_id)
            neighborhood = (
                self.neighborhood_of(request.carrier_id)
                if request.local
                else set()
            )
            exclude = request.carrier_id if request.leave_one_out else None
            return attributes, row, neighborhood, exclude
        attributes = request.attributes
        row = attributes.as_tuple()
        neighborhood = (
            self.request_neighborhood(request) if request.local else set()
        )
        return attributes, row, neighborhood, None

    def resolve_many(
        self, requests: Sequence[RecommendRequest]
    ) -> List[Tuple["CarrierAttributes", Row, Set[CarrierId], Optional[Hashable]]]:
        """Resolve a micro-batch of requests in one pass (in order).

        Same contract as :meth:`resolve_request` per element.  Burst
        traffic repeats carriers and eNodeBs, so the row cache and
        neighborhood lookups are hot here; hoisting the method lookups
        keeps the per-request cost to the dict probes themselves.
        """
        resolve = self.resolve_request
        return [resolve(request) for request in requests]

    def handle(self, request: RecommendRequest) -> RecommendResult:
        """Serve one unified request straight from the engine.

        The engine layer knows only fitted range parameters — no
        rule-book fallback: ``parameters`` defaults to every fitted
        singular parameter and ``include_enumerations`` has no effect
        here (the pipeline and service layers honour it).
        """
        started = time.perf_counter()
        with tracing.span("engine.handle", target=request.label()) as sp:
            _, row, neighborhood, exclude = self.resolve_request(request)
            if request.parameters is not None:
                names = list(request.parameters)
                for name in names:
                    if self._model(name).spec.is_pairwise:
                        raise RecommendationError(
                            f"{name} is pair-wise; use recommend_for_pair"
                        )
            else:
                names = [
                    name
                    for name in self.fitted_parameters()
                    if not self._models[name].spec.is_pairwise
                ]
            sp.set("parameters", len(names))
            result = CarrierRecommendation(target=request.label())
            previous_capture = self._capture_votes
            self._capture_votes = request.explain or previous_capture
            try:
                for name in names:
                    if neighborhood:
                        result.add(
                            self.recommend_local(name, row, neighborhood, exclude)
                        )
                    else:
                        result.add(self.recommend_global(name, row, exclude))
            finally:
                self._capture_votes = previous_capture
            explanation = None
            if request.explain:
                explanation = ResultExplanation(
                    target=request.label(), source="engine",
                    lineage=self.lineage,
                )
                context = tracing.current_context()
                if context is not None:
                    explanation.trace_id = context[0]
                for name, rec in result.recommendations.items():
                    explanation.parameters[name] = self.explain_parameter(
                        rec,
                        row,
                        neighborhood=neighborhood if request.local else None,
                    )
            return RecommendResult(
                request=request,
                recommendation=result,
                source="engine",
                duration_s=time.perf_counter() - started,
                exclude=exclude,
                explain=explanation,
            )

    # -- introspection ----------------------------------------------------------

    def explain_parameter(
        self,
        recommendation: ParameterRecommendation,
        row: Row,
        neighborhood: Optional[Set[CarrierId]] = None,
        cache: Optional[str] = None,
        fallback_reason: Optional[str] = None,
    ) -> ParameterExplanation:
        """Build the provenance record behind one recommendation.

        Pairs the fitted model's chi-square dependency statistics with
        the target row's values on those attributes and the vote
        distribution captured on the recommendation (when the request
        asked for it).  The serving layer adds its own cache/fallback
        disposition via ``cache`` / ``fallback_reason``.
        """
        model = self._models.get(recommendation.parameter)
        dependencies: Tuple[AttributeDependence, ...] = ()
        attribute_values: Tuple[Tuple[str, AttributeValue], ...] = ()
        if model is not None:
            dependencies = model.dependent_stats
            attribute_values = tuple(
                zip(model.dependent_names, model.cell_key(row))
            )
        total = sum(weight for _, weight in recommendation.votes)
        votes = tuple(
            VoteShare(
                value=value,
                weight=weight,
                share=weight / total if total else 0.0,
            )
            for value, weight in recommendation.votes
        )
        return ParameterExplanation(
            parameter=recommendation.parameter,
            value=recommendation.value,
            support=recommendation.support,
            matched=recommendation.matched,
            confident=recommendation.confident,
            scope=recommendation.scope,
            dependencies=dependencies,
            attribute_values=attribute_values,
            votes=votes,
            neighborhood_size=(
                len(neighborhood) if neighborhood is not None else None
            ),
            cache=cache,
            fallback_reason=fallback_reason,
        )

    def dependent_attribute_names(self, parameter: str) -> Tuple[str, ...]:
        return self._model(parameter).dependent_names

    def cell_count(self, parameter: str) -> int:
        return len(self._model(parameter).cell_index)
