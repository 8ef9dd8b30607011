"""Reference Auric: the paper's section 3.2 recommender, written plainly.

A test-only oracle for :mod:`repro.core.auric`.  Every sample stays a
raw attribute tuple and every vote a ``Counter``:

* selection — :meth:`CollaborativeFilteringRecommender.fit` on the raw
  rows, capped at ``max_fit_samples`` by the engine's derived-RNG
  subsample;
* global vote — exact match on the dependent attributes, relaxed to
  shorter prefixes (weakest dependency dropped first), then the global
  value distribution; 75% support makes it confident;
* local vote — the 1-hop X2 neighborhood's exact-match plurality, else a
  tuned-cluster plurality, else the global vote;
* leave-one-out (a target never votes for itself) and optional vote
  weights (section 6 performance feedback).

It imports neither :mod:`repro.core.auric` nor :mod:`repro.core.columnar`.
"""

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from scipy import stats as scipy_stats

from repro.config.store import PairKey
from repro.core.recommendation import ParameterRecommendation
from repro.exceptions import RecommendationError
from repro.learners.collaborative_filtering import CollaborativeFilteringRecommender
from repro.netmodel.attributes import ATTRIBUTE_SCHEMA
from repro.obs.provenance import AttributeDependence
from repro.rng import derive


@dataclass(frozen=True)
class ReferenceSettings:
    """The paper's defaults (section 4.2); any object with these
    attributes (an ``AuricConfig``, say) works in its place."""

    support_threshold: float = 0.75
    p_value: float = 0.01
    min_effect_size: float = 0.12
    selection: str = "conditional"
    hops: int = 1
    min_local_votes: int = 3
    max_fit_samples: Optional[int] = 30000
    seed: int = 7


def _drop(votes: Counter, label, weight: float) -> Counter:
    """A copy of ``votes`` with ``weight`` taken off ``label``."""
    votes = Counter(votes)
    votes[label] -= weight
    if votes[label] <= 1e-12:
        del votes[label]
    return votes


@dataclass
class ReferenceModel:
    """One parameter's dependency model and Counter vote indexes."""

    name: str
    dependent_columns: Tuple[int, ...]
    dependent_names: Tuple[str, ...]
    dependent_stats: Tuple[AttributeDependence, ...]
    cell_index: Dict[Tuple, Counter] = field(default_factory=dict)
    global_counts: Counter = field(default_factory=Counter)
    samples: Dict[Hashable, Tuple[Tuple, object]] = field(default_factory=dict)
    by_carrier: Dict[Hashable, List[Hashable]] = field(default_factory=dict)
    weights: Dict[Hashable, float] = field(default_factory=dict)
    # Lookup caches: prefix length -> prefix -> votes; carrier -> voters.
    relaxed: Dict[int, Dict[Tuple, Counter]] = field(default_factory=dict)
    by_source: Optional[Dict[Hashable, List[Tuple]]] = None

    def weight(self, key) -> float:
        return self.weights.get(key, 1.0) if self.weights else 1.0

    def prefix_votes(self, prefix: Tuple) -> Counter:
        """Votes of the samples whose cell starts with ``prefix``."""
        index = self.relaxed.get(len(prefix))
        if index is None:
            index = self.relaxed[len(prefix)] = {}
            for key, (cell, label) in self.samples.items():
                votes = index.setdefault(cell[: len(prefix)], Counter())
                votes[label] += self.weight(key)
        return index.get(prefix, Counter())

    def voters(self, carrier) -> List[Tuple]:
        """``(key, cell, label, weight)`` of the samples sourced at
        ``carrier``, in fit order."""
        if self.by_source is None:
            self.by_source = {
                source: [(k, *self.samples[k], self.weight(k)) for k in keys]
                for source, keys in self.by_carrier.items()
            }
        return self.by_source.get(carrier, [])

    def without(self, votes: Counter, exclude, prefix: Tuple) -> Counter:
        """``votes`` of the cells starting with ``prefix``, minus the
        excluded target's own vote when it is one of them."""
        if exclude not in self.samples:
            return votes
        cell, label = self.samples[exclude]
        if cell[: len(prefix)] != prefix or votes.get(label, 0) <= 0:
            return votes
        return _drop(votes, label, self.weight(exclude))


class ReferenceAuric:
    """Fit and vote as section 3.2 describes, one sample at a time."""

    def __init__(self, network, store, config=None) -> None:
        self.network = network
        self.store = store
        self.config = config or ReferenceSettings()
        self.models: Dict[str, ReferenceModel] = {}
        #: When True, answers carry their full vote distribution.
        self.capture = False

    def row(self, key) -> Tuple:
        if isinstance(key, PairKey):
            return self.row(key.carrier) + self.row(key.neighbor)
        return self.network.carrier(key).attributes.as_tuple()

    def samples(self, spec):
        """``(keys, rows, labels)`` of ``spec``'s targets, sorted by key."""
        if spec.is_pairwise:
            values = self.store.pairwise_values(spec.name)
        else:
            values = self.store.singular_values(spec.name)
        keys = sorted(values)
        return keys, [self.row(k) for k in keys], [values[k] for k in keys]

    def fit(self, parameters=None, vote_weights=None) -> "ReferenceAuric":
        catalog = self.store.catalog
        if parameters is None:
            parameters = [spec.name for spec in catalog.range_parameters()]
        for name in parameters:
            self.models[name] = self._fit(catalog.spec(name), vote_weights or {})
        return self

    def _fit(self, spec, vote_weights) -> ReferenceModel:
        keys, rows, labels = self.samples(spec)
        if not keys:
            raise RecommendationError(f"no configured values for {spec.name}")
        config = self.config
        fit_rows, fit_labels = rows, labels
        cap = config.max_fit_samples
        if cap is not None and len(rows) > cap:
            rng = derive(config.seed, f"fit-sample:{spec.name}")
            picked = sorted(rng.choice(len(rows), size=cap, replace=False))
            fit_rows = [rows[i] for i in picked]
            fit_labels = [labels[i] for i in picked]
        learner = CollaborativeFilteringRecommender(
            support_threshold=config.support_threshold,
            p_value=config.p_value,
            min_effect_size=config.min_effect_size,
            selection=config.selection,
        ).fit(fit_rows, fit_labels)
        names = ATTRIBUTE_SCHEMA.names
        if spec.is_pairwise:
            names = tuple(f"own.{n}" for n in names) + tuple(f"nbr.{n}" for n in names)
        dependent = learner.dependent_attributes
        model = ReferenceModel(
            name=spec.name,
            dependent_columns=dependent,
            dependent_names=tuple(names[c] for c in dependent),
            dependent_stats=tuple(
                _dependence(names[c], c, learner.test_result(c)) for c in dependent
            ),
        )
        for key, row, label in zip(keys, rows, labels):
            weight = float(vote_weights.get(key, 1.0))
            if weight < 0.0:
                raise ValueError(f"vote weight for {key} must be >= 0")
            if weight != 1.0:
                model.weights[key] = weight
            cell = tuple(row[c] for c in dependent)
            model.cell_index.setdefault(cell, Counter())[label] += weight
            model.global_counts[label] += weight
            model.samples[key] = (cell, label)
            source = key.carrier if isinstance(key, PairKey) else key
            model.by_carrier.setdefault(source, []).append(key)
        return model

    # -- voting --------------------------------------------------------------

    def recommend(self, parameter, row, neighborhood=None, exclude=None):
        """The local vote over ``neighborhood`` if it stands, else the
        global vote."""
        model = self.models[parameter]
        cell = tuple(row[c] for c in model.dependent_columns)
        if neighborhood:
            outcome = self._local_vote(model, cell, neighborhood, exclude)
            if outcome is not None:
                return outcome
        return self._global_vote(model, cell, exclude)

    def recommend_for_targets(self, parameter, keys, local=True, leave_one_out=True):
        """Answers for existing targets; a pair's own source carrier
        votes with its X2 neighbors."""
        out = []
        for key in keys:
            voters = set()
            if local:
                source = key.carrier if isinstance(key, PairKey) else key
                voters = self.network.x2.carrier_neighborhood(source, hops=self.config.hops)
                if isinstance(key, PairKey):
                    voters.add(source)
            exclude = key if leave_one_out else None
            out.append(self.recommend(parameter, self.row(key), voters, exclude))
        return out

    def launch_neighborhood(self, enodeb_id=None, neighbors=()):
        """A new carrier's voters: its ANR neighbors, plus the launch
        eNodeB's carriers and their X2 neighborhoods."""
        voters = set(neighbors)
        if enodeb_id is not None:
            for carrier in self.network.enodeb(enodeb_id).carriers():
                voters.add(carrier.carrier_id)
                voters |= self.network.x2.carrier_neighborhood(
                    carrier.carrier_id, hops=self.config.hops
                )
        return voters

    def _global_vote(self, model, cell, exclude) -> ParameterRecommendation:
        votes = model.without(model.cell_index.get(cell, Counter()), exclude, cell)
        if votes:
            return self._outcome(model, votes, "global")
        for level in range(len(cell) - 1, 0, -1):
            prefix = cell[:level]
            votes = model.without(model.prefix_votes(prefix), exclude, prefix)
            if votes:
                return self._outcome(model, votes, "global-relaxed")
        votes = model.global_counts
        if exclude in model.samples:
            votes = _drop(votes, model.samples[exclude][1], model.weight(exclude))
        if not votes:
            raise RecommendationError(f"no votes available for {model.name}")
        return self._outcome(model, votes, "global-fallback")

    def _local_vote(self, model, cell, neighborhood, exclude):
        exact: Counter = Counter()
        everyone: Counter = Counter()
        by_label: Dict[object, List[Tuple]] = {}
        for carrier in neighborhood:
            for key, voter_cell, label, weight in model.voters(carrier):
                if key == exclude:
                    continue
                everyone[label] += weight
                by_label.setdefault(label, []).append((voter_cell, weight))
                if voter_cell == cell:
                    exact[label] += weight
        minimum = self.config.min_local_votes
        if sum(exact.values()) >= minimum:
            outcome = self._outcome(model, exact, "local")
            # Only a confident local consensus overrides the global vote.
            if outcome.confident:
                return outcome
        if sum(everyone.values()) >= minimum:
            outcome = self._outcome(model, everyone, "local-cluster")
            voters = by_label.get(outcome.value, [])
            if outcome.confident and _tuned(model, voters, outcome.value):
                return outcome
        return None

    def _outcome(self, model, votes: Counter, scope: str) -> ParameterRecommendation:
        total = sum(votes.values())
        value, top = votes.most_common(1)[0]
        support = top / total if total else 0.0
        captured = ()
        if self.capture:
            captured = tuple((v, float(w)) for v, w in votes.most_common())
        return ParameterRecommendation(
            parameter=model.name,
            value=value,
            support=support,
            matched=float(total),
            confident=support >= self.config.support_threshold,
            scope=scope,
            dependent_attributes=model.dependent_names,
            votes=captured,
        )


def _tuned(model, voters, value) -> bool:
    """Deliberate cluster tuning: the ``(cell, weight)`` voters agreeing
    on ``value`` span two or more cells, and at least half of those with
    other votes in their cell deviate from that cell's majority."""
    if len({cell for cell, _ in voters}) < 2:
        return False
    anomalous = evidence = 0
    for cell, weight in voters:
        votes = _drop(model.cell_index[cell], value, weight)  # its own vote
        if votes:  # a singleton cell says nothing about the norm
            evidence += 1
            anomalous += votes.most_common(1)[0][0] != value
    return evidence >= 2 and anomalous >= 0.5 * evidence


def _dependence(name: str, column: int, result) -> AttributeDependence:
    """Provenance of a selected attribute: the achieved p-value from the
    statistic, the configured alpha as ``significance``."""
    achieved = 1.0
    if result.dof > 0:
        achieved = float(scipy_stats.chi2.sf(result.statistic, result.dof))
    return AttributeDependence(
        name=name,
        column=column,
        statistic=float(result.statistic),
        dof=int(result.dof),
        p_value=achieved,
        significance=float(result.p_value),
        cramers_v=float(result.cramers_v),
    )
