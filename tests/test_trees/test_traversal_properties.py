"""The shared vectorised traversal against an independent per-row walk.

Every tree model scores through :func:`repro.trees.traverse`.  The reference
below walks the same node arrays one row and one node at a time: ``<=`` for
CART, ``<`` plus the c(size) leaf correction for the isolation forest, leaf
values summed in tree order.  Equality is exact, on random shapes,
single-leaf trees, query rows holding NaN and +-inf, and rows sitting exactly
on a split threshold.  Scoring row by row must equal scoring the batch.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.trees import (DecisionTreeRegressor, GradientBoostingRegressor, IsolationForest,
                         MultiOutputGradientBoosting, average_path_length)


def walk(arrays, row, strict):
    """Yield (leaf, depth) per tree, walking ``row`` down each tree's slice."""
    offsets = arrays.get("tree_offsets", [0, arrays["feature"].size])
    for root in offsets[:-1]:
        node, depth = int(root), 0
        while arrays["feature"][node] >= 0:
            value, threshold = row[arrays["feature"][node]], arrays["threshold"][node]
            go_left = value < threshold if strict else value <= threshold
            node = int(root) + int(arrays["left" if go_left else "right"][node])
            depth += 1
        yield node, depth


def boosted_reference(arrays, row, learning_rate):
    output = float(arrays["initial_prediction"][0])
    for leaf, _ in walk(arrays, row, strict=False):
        output = output + learning_rate * arrays["value"][leaf]
    return output


def mean_path_reference(arrays, row):
    total = 0.0
    for leaf, depth in walk(arrays, row, strict=True):
        size = int(arrays["size"][leaf])
        total += depth + (float(average_path_length(size)) if size > 1 else 0.0)
    return total / (arrays["tree_offsets"].size - 1)


@st.composite
def problems(draw):
    """Training data, query rows salted with NaN/+-inf, and a seed."""
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    n_rows, n_features = draw(st.integers(2, 40)), draw(st.integers(1, 4))
    data = rng.normal(size=(n_rows, n_features))
    if draw(st.booleans()):
        data = np.round(data)  # ties and constant columns
    queries = np.concatenate([data, rng.normal(size=(draw(st.integers(1, 12)), n_features))])
    salt = rng.random(queries.shape) < 0.15
    queries[salt] = rng.choice([np.nan, np.inf, -np.inf], size=int(salt.sum()))
    return data, queries, rng


def at_thresholds(queries, arrays):
    """``queries`` plus one row per split sitting exactly on its threshold."""
    internal = arrays["feature"] >= 0
    on_split = np.repeat(arrays["threshold"][internal][:, None], queries.shape[1], axis=1)
    return np.concatenate([queries, on_split])


def assert_batch_equals_rows(score, queries):
    batch = score(queries)
    one_by_one = np.concatenate([score(queries[i:i + 1]) for i in range(len(queries))])
    np.testing.assert_array_equal(batch, one_by_one)
    return batch


@given(problems(), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_cart_matches_reference(problem, max_depth):
    data, queries, rng = problem
    tree = DecisionTreeRegressor(max_depth=max_depth).fit(data, rng.normal(size=len(data)))
    arrays = tree.to_arrays()
    queries = at_thresholds(queries, arrays)
    expected = [arrays["value"][leaf] for row in queries
                for leaf, _ in walk(arrays, row, strict=False)]
    np.testing.assert_array_equal(assert_batch_equals_rows(tree.predict, queries), expected)


@given(problems(), st.integers(0, 3), st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_boosting_matches_reference(problem, max_depth, n_estimators):
    data, queries, rng = problem
    model = GradientBoostingRegressor(n_estimators=n_estimators, learning_rate=0.3,
                                      max_depth=max_depth, rng=rng)
    model.fit(data, rng.normal(size=len(data)))
    arrays = model.to_arrays()
    queries = at_thresholds(queries, arrays)
    expected = [boosted_reference(arrays, row, 0.3) for row in queries]
    np.testing.assert_array_equal(assert_batch_equals_rows(model.predict, queries), expected)


@given(problems(), st.integers(0, 3), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_multi_output_boosting_matches_reference(problem, max_depth, n_outputs):
    data, queries, rng = problem
    model = MultiOutputGradientBoosting(n_outputs=n_outputs, n_estimators=3,
                                        learning_rate=0.2, max_depth=max_depth, rng=rng)
    model.fit(data, rng.normal(size=(len(data), n_outputs)))
    arrays = model.to_arrays()
    per_output = [{key.split(".", 1)[1]: value for key, value in arrays.items()
                   if key.startswith(f"out{output}.")} for output in range(n_outputs)]
    queries = at_thresholds(queries, per_output[-1])
    expected = [[boosted_reference(table, row, 0.2) for table in per_output]
                for row in queries]
    np.testing.assert_array_equal(assert_batch_equals_rows(model.predict, queries), expected)


@given(problems(), st.integers(1, 6), st.integers(2, 32))
@settings(max_examples=30, deadline=None)
def test_isolation_forest_matches_reference(problem, n_estimators, max_samples):
    data, queries, rng = problem
    forest = IsolationForest(n_estimators=n_estimators, max_samples=max_samples, rng=rng)
    arrays = forest.fit(data).to_arrays()
    queries = at_thresholds(queries, arrays)
    mean_path = np.asarray([mean_path_reference(arrays, row) for row in queries])
    normaliser = float(average_path_length(int(arrays["sample_size"][0])))
    expected = np.power(2.0, -mean_path / max(normaliser, 1e-12))
    np.testing.assert_array_equal(assert_batch_equals_rows(forest.score_samples, queries),
                                  expected)
