"""Fitted trees as preorder node arrays, and the one traversal they share.

A node table is a dict of parallel per-node arrays in preorder: ``feature``
(-1 at leaves), ``threshold``, ``left``/``right`` (tree-local child indices,
-1 at leaves) and a payload (``value`` or ``size``).  An ensemble
concatenates its trees; ``tree_offsets`` (``n_trees + 1``) delimits them.
It is both the in-memory and the on-disk form of every fitted tree.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

__all__ = ["traverse", "node_table", "concatenate", "load_nodes", "as_rows", "row_blocks"]

Nodes = Dict[str, np.ndarray]

_MAX_PAIRS = 1 << 18  # ~2 MB per int64 array that traverse() allocates


def traverse(nodes: Nodes, roots: np.ndarray, rows: np.ndarray, *,
             strict: bool = False) -> Tuple[np.ndarray, np.ndarray]:
    """Descend every (tree, row) pair to its leaf, one tree level per step.

    ``roots`` holds each tree's first node; ``rows`` is a C-contiguous
    (n_rows, n_features) float64 matrix.  A row goes left when
    ``row[feature] <= threshold`` (``<`` when ``strict``), so NaN goes
    right.  Returns ``(leaf, depth)``, both (n_trees, n_rows): the leaf's
    index into ``nodes`` and the number of edges walked to reach it.
    """
    feature, threshold = nodes["feature"], nodes["threshold"]
    left, right = nodes["left"], nodes["right"]
    n_rows, n_features = rows.shape
    base = np.repeat(np.asarray(roots, dtype=np.int64), n_rows)
    row_start = np.tile(np.arange(n_rows, dtype=np.int64) * n_features, len(roots))
    flat = rows.ravel()
    node = base.copy()
    depth = np.zeros_like(node)
    active = np.flatnonzero(feature[node] >= 0)
    while active.size:
        current = node[active]
        values = flat[row_start[active] + feature[current]]
        go_left = values < threshold[current] if strict else values <= threshold[current]
        node[active] = base[active] + np.where(go_left, left[current], right[current])
        depth[active] += 1
        active = active[feature[node[active]] >= 0]
    shape = (len(roots), n_rows)
    return node.reshape(shape), depth.reshape(shape)


def _dtype(key: str) -> type:
    return np.float64 if key in ("threshold", "value") else np.int64


def node_table(nodes: List[list], keys: Sequence[str]) -> Nodes:
    """Preorder node rows (one list of ``keys`` values per node) as a node table."""
    return {key: np.asarray(column, dtype=_dtype(key))
            for key, column in zip(keys, zip(*nodes))}


def concatenate(tables: Sequence[Nodes], keys: Sequence[str]) -> Nodes:
    """Stack node tables end to end, keeping child indices tree-local.

    A table without ``tree_offsets`` is one tree.  The result's
    ``tree_offsets`` delimits every tree of every input, in input order.
    """
    offsets = [np.zeros(1, dtype=np.int64)]
    for table in tables:
        local = table.get("tree_offsets")
        if local is None:
            local = np.asarray([0, table["feature"].shape[0]], dtype=np.int64)
        offsets.append(local[1:] + offsets[-1][-1])
    stacked = {key: np.concatenate([table[key] for table in tables]) for key in keys}
    stacked["tree_offsets"] = np.concatenate(offsets)
    return stacked


def load_nodes(arrays: Mapping[str, np.ndarray], keys: Sequence[str],
               n_features: int) -> Nodes:
    """Read a concatenated node table from an artifact, refusing a malformed one.

    Raises ``ValueError`` unless the arrays are equally long, leaves have no
    children, internal nodes split on a feature in ``[0, n_features)`` and
    every child lies strictly after its parent, inside its tree's slice.
    The last check bounds :func:`traverse` by each tree's height.
    """
    nodes = {key: np.asarray(arrays[key], dtype=_dtype(key))
             for key in (*keys, "tree_offsets")}
    feature = nodes["feature"]
    n_nodes = feature.shape[0]
    if any(nodes[key].shape != (n_nodes,) for key in nodes if key != "tree_offsets"):
        raise ValueError("node arrays must be 1-D and of equal length")
    offsets = nodes["tree_offsets"]
    if offsets.ndim != 1 or offsets.size < 2 or offsets[0] != 0 or offsets[-1] != n_nodes \
            or np.any(np.diff(offsets) < 1):
        raise ValueError("tree_offsets must split the node arrays into non-empty trees")
    sizes = np.diff(offsets)
    local = np.arange(n_nodes) - np.repeat(offsets[:-1], sizes)
    tree_size = np.repeat(sizes, sizes)
    left, right = nodes["left"], nodes["right"]
    leaf = feature == -1
    if np.any(leaf & ((left != -1) | (right != -1))):
        raise ValueError("leaf nodes must have left == right == -1")
    internal = ~leaf
    if np.any(internal & ((feature < 0) | (feature >= n_features))):
        raise ValueError(f"internal nodes must split on a feature in [0, {n_features})")
    for child in (left, right):
        if np.any(internal & ((child <= local) | (child >= tree_size))):
            raise ValueError("child indices must lie after their parent, inside its tree")
    return nodes


def as_rows(data: np.ndarray, n_features: int) -> np.ndarray:
    """``data`` as a C-contiguous (n_rows, n_features) float64 matrix."""
    rows = np.asarray(data, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows.reshape(1, -1)
    if rows.shape[1] != n_features:
        raise ValueError(f"expected {n_features} features, got {rows.shape[1]}")
    return np.ascontiguousarray(rows)


def row_blocks(n_rows: int, n_trees: int) -> Iterator[slice]:
    """Row slices that bound one traversal's (tree, row) pairs, and so its memory."""
    step = max(1, _MAX_PAIRS // n_trees)
    return (slice(start, start + step) for start in range(0, max(n_rows, 1), step))
