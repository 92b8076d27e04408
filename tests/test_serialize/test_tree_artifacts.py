"""Tree artifacts: the node-table format is pinned and a malformed table is refused.

A GBRF or Isolation Forest artifact stores each ensemble as concatenated
preorder node arrays with tree-local child indices.  These tests pin that
layout (keys, dtypes, preorder, local indices), check that save -> load ->
score is bit-identical, and check that ``load_detector`` raises
``SerializationError`` on a table whose traversal would not end or would
read outside the row -- a self-loop, a child outside its tree, a feature
index past the row.
"""

import numpy as np
import pytest

from repro.baselines.gbrf import GBRFConfig, GBRFDetector
from repro.baselines.isolation_forest import IsolationForestConfig, IsolationForestDetector
from repro.serialize import ARRAYS_NAME, SerializationError, load_detector, save_detector
from repro.trees import DecisionTreeRegressor

N_CHANNELS = 3
INT, FLOAT = np.dtype(np.int64), np.dtype(np.float64)
CART_DTYPES = {"feature": INT, "threshold": FLOAT, "value": FLOAT, "left": INT, "right": INT}
BOOSTED_DTYPES = {**CART_DTYPES, "tree_offsets": INT, "initial_prediction": FLOAT,
                  "train_scores": FLOAT}
FOREST_DTYPES = {"feature": INT, "threshold": FLOAT, "size": INT, "left": INT, "right": INT,
                 "tree_offsets": INT, "sample_size": INT, "score_threshold": FLOAT}


def _stream(n=240, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / 20.0
    return np.stack([np.sin(t + c) for c in range(N_CHANNELS)], axis=1) \
        + 0.05 * rng.normal(size=(n, N_CHANNELS))


def _gbrf():
    return GBRFDetector(GBRFConfig(n_channels=N_CHANNELS, window=8, n_estimators=4,
                                   max_depth=2, context_samples=2,
                                   max_train_windows=120)).fit(_stream())


def _iforest():
    return IsolationForestDetector(IsolationForestConfig(
        n_channels=N_CHANNELS, n_estimators=6, max_samples=32)).fit(_stream())


def assert_preorder(arrays):
    """Each tree's slice is one preorder tree with child indices local to it."""
    offsets = arrays.get("tree_offsets", np.array([0, arrays["feature"].size]))
    assert offsets[0] == 0 and offsets[-1] == arrays["feature"].size
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        feature, left, right = (arrays[key][lo:hi] for key in ("feature", "left", "right"))
        internal = np.flatnonzero(feature >= 0)
        assert np.all(left[feature < 0] == -1) and np.all(right[feature < 0] == -1)
        # Preorder: the left child follows its parent; the right child follows
        # the left subtree; every node but the root has exactly one parent.
        np.testing.assert_array_equal(left[internal], internal + 1)
        assert np.all(right[internal] > left[internal])
        children = np.sort(np.concatenate([left[internal], right[internal]]))
        np.testing.assert_array_equal(children, np.arange(1, hi - lo))


class TestFormatIsPinned:
    def test_cart_arrays(self):
        x = _stream()[:, :2]
        arrays = DecisionTreeRegressor(max_depth=3).fit(x, x[:, 0] ** 2).to_arrays()
        assert {key: value.dtype for key, value in arrays.items()} == CART_DTYPES
        assert_preorder(arrays)

    def test_boosted_arrays(self):
        arrays = _gbrf().model.to_arrays()
        for output in range(N_CHANNELS):
            model = {key[len(f"out{output}."):]: value for key, value in arrays.items()
                     if key.startswith(f"out{output}.")}
            assert {key: value.dtype for key, value in model.items()} == BOOSTED_DTYPES
            assert model["tree_offsets"].size == 4 + 1
            assert_preorder(model)
        assert len(arrays) == N_CHANNELS * len(BOOSTED_DTYPES)

    def test_forest_arrays(self):
        arrays = _iforest().forest.to_arrays()
        assert {key: value.dtype for key, value in arrays.items()} == FOREST_DTYPES
        assert arrays["tree_offsets"].size == 6 + 1
        assert_preorder(arrays)

    @pytest.mark.parametrize("build", [_gbrf, _iforest], ids=["GBRF", "iForest"])
    def test_save_load_score_is_bit_identical(self, build, tmp_path):
        detector = build()
        restored = load_detector(save_detector(detector, tmp_path / "artifact"))
        test = _stream(seed=1)
        np.testing.assert_array_equal(detector.score_stream(test).scores,
                                      restored.score_stream(test).scores)


def _corrupt(path, prefix, n_features, node_kind, field, make_value):
    """Overwrite ``field`` of the first internal (or leaf) node of the stored table."""
    with np.load(path / ARRAYS_NAME) as payload:
        arrays = {name: payload[name].copy() for name in payload.files}
    feature, offsets = arrays[prefix + "feature"], arrays[prefix + "tree_offsets"]
    index = int(np.flatnonzero(feature >= 0 if node_kind == "internal" else feature < 0)[0])
    tree = int(np.searchsorted(offsets, index, side="right")) - 1
    local, size = index - int(offsets[tree]), int(offsets[tree + 1] - offsets[tree])
    arrays[prefix + field][index] = make_value(local, size, n_features)
    np.savez(path / ARRAYS_NAME, **arrays)


CORRUPTIONS = {
    "self-loop": ("internal", "left", lambda local, size, n_features: local),
    "child out of its tree": ("internal", "right", lambda local, size, n_features: size),
    "feature out of range": ("internal", "feature",
                             lambda local, size, n_features: n_features),
    "leaf with a child": ("leaf", "right", lambda local, size, n_features: local + 1),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
@pytest.mark.parametrize("build, prefix, n_features",
                         [(_gbrf, "model.out0.", 2 * N_CHANNELS),
                          (_iforest, "forest.", N_CHANNELS)], ids=["GBRF", "iForest"])
def test_malformed_node_table_is_refused(build, prefix, n_features, corruption, tmp_path):
    path = save_detector(build(), tmp_path / "artifact")
    _corrupt(path, prefix, n_features, *CORRUPTIONS[corruption])
    with pytest.raises(SerializationError, match="malformed node table"):
        load_detector(path)


def test_unequal_node_arrays_are_refused(tmp_path):
    path = save_detector(_iforest(), tmp_path / "artifact")
    with np.load(path / ARRAYS_NAME) as payload:
        arrays = {name: payload[name] for name in payload.files}
    arrays["forest.threshold"] = arrays["forest.threshold"][:-1]
    np.savez(path / ARRAYS_NAME, **arrays)
    with pytest.raises(SerializationError, match="equal length"):
        load_detector(path)
