"""Field-by-field comparison of fitted engines for equivalence tests."""


def model_fields(model):
    """Every observable field of a fitted model, insertion order kept."""
    encoded = model._encoded
    stash = None
    if encoded is not None:
        stash = (
            encoded.cell_codes.tolist(),
            encoded.label_codes.tolist(),
            encoded.label_vocab,
            list(encoded.cell_tuples.items()),
            encoded.dependent,
            encoded.dep_vocabs,
            encoded.attribute_codes.tolist(),
            encoded.sources.tolist(),
            None if encoded.neighbors is None else encoded.neighbors.tolist(),
            encoded.carrier_ids,
        )
    return (
        model.spec.name,
        model.dependent_columns,
        model.dependent_names,
        [(cell, list(votes.items())) for cell, votes in model.cell_index.items()],
        list(model.global_counts.items()),
        list(model.samples.items()),
        [(source, list(keys)) for source, keys in model.by_carrier.items()],
        list(model.weights.items()),
        model.dependent_stats,
        stash,
    )


def assert_same_models(expected, actual):
    a, b = expected.fitted_models(), actual.fitted_models()
    assert sorted(a) == sorted(b)
    for name in a:
        assert model_fields(a[name]) == model_fields(b[name]), name
