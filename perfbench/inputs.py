"""Seeded benchmark inputs: the snapshot and the request streams.

A workload's inputs are a pure function of its spec ``(generator,
params, seed)``.  The four-markets snapshot comes from
:mod:`repro.datagen` and is exported with
:func:`repro.dataio.export_dataset_json` for the server; the request
streams are drawn from it with ``random.Random(seed)``.  The program
only ever sees the generated snapshot and requests.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Sequence, Tuple

from repro.datagen import four_market_profile, generate_dataset
from repro.datagen.generator import SyntheticDataset
from repro.dataio import export_dataset_json
from repro.dataio.keys import carrier_key_to_str
from repro.rng import DEFAULT_SEED

#: The four-markets snapshot every workload runs on (~1.15k carriers).
#: Its generator seed is fixed: the run seed draws the request streams,
#: so the paper's match rate is one number, not a per-seed sample.
SCALE = 0.01
SNAPSHOT_SEED = DEFAULT_SEED
#: The parameters the launch workloads ask for.
LAUNCH_PARAMETERS = ("pMax", "inactivityTimer")


def generate_snapshot(path: str) -> SyntheticDataset:
    """Generate the four-markets dataset and export it to ``path``."""
    dataset = generate_dataset(four_market_profile(scale=SCALE, seed=SNAPSHOT_SEED))
    export_dataset_json(dataset, path)
    return dataset


def singular_range_parameters(dataset) -> Tuple[str, ...]:
    return tuple(
        sorted(
            spec.name
            for spec in dataset.store.catalog.range_parameters()
            if not spec.is_pairwise
        )
    )


def _new_carrier(carrier) -> Dict:
    """A new-carrier query cloned from an existing carrier: its
    attributes, launched at its eNodeB."""
    enodeb = carrier.carrier_id.enodeb
    return {
        "attributes": dict(carrier.attributes.values),
        "enodeb": f"{enodeb.market.index}.{enodeb.index}",
    }


def launch_mix(dataset, seed: int) -> List[Tuple[str, Dict]]:
    """The launch mix as ``(source carrier key, payload)``: for every
    carrier one leave-one-out query and one new-carrier query cloned
    from it, in a seeded order (working set ≈ the whole network, about
    the size of the default vote cache)."""
    mix: List[Tuple[str, Dict]] = []
    for carrier in dataset.network.carriers():
        key = carrier_key_to_str(carrier.carrier_id)
        mix.append((key, {"carrier": key, "leave_one_out": True}))
        mix.append((key, _new_carrier(carrier)))
    random.Random(seed).shuffle(mix)
    return mix


def bulk_batches(
    dataset, seed: int, batch_size: int = 64
) -> List[List[Tuple[str, Dict]]]:
    """Bulk launches: every carrier cloned once as a new-carrier query,
    in a seeded order, cut into ``batch_size`` batches (the short tail
    is dropped so every call carries the same work)."""
    mix = [
        (carrier_key_to_str(carrier.carrier_id), _new_carrier(carrier))
        for carrier in dataset.network.carriers()
    ]
    random.Random(seed).shuffle(mix)
    return [
        mix[i : i + batch_size]
        for i in range(0, len(mix) - batch_size + 1, batch_size)
    ]


def configured_values(dataset, parameters: Sequence[str]) -> Dict[str, Dict]:
    """carrier key → {parameter: configured value} (ground truth)."""
    truth: Dict[str, Dict] = {}
    for name in parameters:
        for carrier_id, value in dataset.store.singular_values(name).items():
            truth.setdefault(carrier_key_to_str(carrier_id), {})[name] = value
    return truth


def invalidation_order(parameters: Sequence[str], seed: int) -> List[str]:
    """The cycle of parameters ``/admin/invalidate`` drops, seeded."""
    order = list(parameters)
    random.Random(seed).shuffle(order)
    return order


def encode(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
