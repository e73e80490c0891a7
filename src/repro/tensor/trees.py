"""Tensorized tree-ensemble evaluation: the two Hummingbird strategies.

* :class:`TreeGemm` — the GEMM strategy: each tree becomes three dense
  matrix pipelines (feature-selection, path, leaf-value) evaluated with
  matrix algebra. Exact for any tree; costs grow with node x leaf counts,
  so it shines on small trees.
* :class:`TreeTraversal` — the (perfect) tree-traversal strategy: the
  engine's one tree kernel (:class:`~repro.learn.tree.FlatForest`, the
  trees' node arrays walked level-by-level with vectorized gathers); cost
  is ``O(N * trees * depth)`` and is the right choice for large ensembles.

Both produce aggregated ensemble scores identical (up to fp rounding) to
``repro.onnxlite``'s TreeEnsemble kernels; the traversal shares their
kernel, so its leaf sums are bit-identical to theirs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.learn.base import sigmoid, softmax
from repro.learn.tree import FlatForest, Tree
from repro.tensor.program import OpCost, TensorOp


def _apply_post(total: np.ndarray, post: str) -> np.ndarray:
    if post == "NONE":
        return total
    if post == "LOGISTIC":
        positive = sigmoid(total[:, 0])
        return np.column_stack([1.0 - positive, positive])
    if post == "SOFTMAX":
        return softmax(total)
    raise ValueError(f"bad post_transform: {post!r}")


# ---------------------------------------------------------------------------
# GEMM strategy
# ---------------------------------------------------------------------------

@dataclass
class _GemmTree:
    """Per-tree matrices of the GEMM formulation, derived from a Tree.

    ``feature_ids``/``thresholds`` index the internal nodes; ``paths`` is the
    {+1,-1,0} internal-node x leaf matrix; ``left_counts`` the per-leaf
    count of left-edges; ``leaf_values`` the leaf payload matrix.
    """

    feature_ids: np.ndarray     # [I] int
    thresholds: np.ndarray      # [I]
    paths: np.ndarray           # [I, L]
    left_counts: np.ndarray     # [L]
    leaf_values: np.ndarray     # [L, d]


def _build_gemm_tree(tree: Tree, value_dim: int) -> _GemmTree:
    is_internal = tree.left >= 0
    internal = np.flatnonzero(is_internal)
    leaves = np.flatnonzero(~is_internal)
    row = np.cumsum(is_internal) - 1  # internal node -> its row of ``paths``
    parent = np.full(len(tree), -1)
    parent[tree.left[internal]] = parent[tree.right[internal]] = internal
    sign = np.zeros(len(tree))
    sign[tree.left[internal]], sign[tree.right[internal]] = 1.0, -1.0

    # Walk every leaf up to the root at once, one edge per step.
    paths = np.zeros((len(internal), len(leaves)))
    node, column = leaves, np.arange(len(leaves))
    while node.size:
        up = parent[node]
        climbs = up >= 0
        node, column, up = node[climbs], column[climbs], up[climbs]
        paths[row[up], column] = sign[node]
        node = up
    return _GemmTree(
        feature_ids=tree.feature[internal].astype(np.int64),
        thresholds=tree.threshold[internal],
        paths=paths,
        left_counts=(paths > 0).sum(axis=0).astype(np.float64),
        leaf_values=tree.value[leaves].reshape(len(leaves), value_dim),
    )


class TreeGemm(TensorOp):
    """GEMM-strategy ensemble scoring (aggregate + post transform fused)."""

    def __init__(self, inputs, output, trees: Sequence[Tree],
                 aggregate: str, post_transform: str,
                 base_values: np.ndarray, value_dim: int):
        super().__init__(inputs, output)
        self.aggregate = aggregate
        self.post_transform = post_transform
        self.base_values = np.asarray(base_values, dtype=np.float64)
        self.value_dim = value_dim
        self.trees = [_build_gemm_tree(tree, value_dim) for tree in trees]

    def execute(self, buffers):
        x = buffers[self.inputs[0]]
        total = np.zeros((len(x), self.value_dim))
        for tree in self.trees:
            if len(tree.feature_ids) == 0:
                total += tree.leaf_values[0]
                continue
            # Stage 1: split decisions. x @ A is a one-hot gather, computed
            # as a column gather with identical semantics and cost model.
            decisions = (x[:, tree.feature_ids] <= tree.thresholds).astype(np.float64)
            # Stage 2: path aggregation, Stage 3: leaf match + values.
            reached = decisions @ tree.paths
            leaf_onehot = (reached == tree.left_counts).astype(np.float64)
            total += leaf_onehot @ tree.leaf_values
        if self.aggregate == "AVERAGE":
            total /= len(self.trees)
        total = total + self.base_values
        return _apply_post(total, self.post_transform)

    def cost(self, batch_size):
        flops = 0.0
        bytes_moved = 0.0
        for tree in self.trees:
            internal = max(len(tree.feature_ids), 1)
            leaves = tree.paths.shape[1]
            flops += batch_size * (internal            # comparisons
                                   + 2.0 * internal * leaves  # path GEMM
                                   + leaves             # leaf match
                                   + 2.0 * leaves * self.value_dim)
            bytes_moved += 8.0 * batch_size * (internal + leaves)
        return OpCost(flops=flops, bytes_moved=bytes_moved)


# ---------------------------------------------------------------------------
# Tree-traversal strategy
# ---------------------------------------------------------------------------

class TreeTraversal(TensorOp):
    """Traversal-strategy ensemble scoring on the engine's one tree kernel.

    The walk is :class:`~repro.learn.tree.FlatForest` — the very kernel
    the onnxlite runtime scores tree ensembles with — flattened once here;
    this op adds only the aggregate, base values, post transform and the
    cost model.
    """

    def __init__(self, inputs, output, trees: Sequence[Tree],
                 aggregate: str, post_transform: str,
                 base_values: np.ndarray, value_dim: int):
        super().__init__(inputs, output)
        self.aggregate = aggregate
        self.post_transform = post_transform
        self.base_values = np.asarray(base_values, dtype=np.float64)
        # ``value_dim`` (shared signature with TreeGemm) is the leaves'
        # width, which the flat form reads off the leaves themselves.
        self.flat = FlatForest(trees)
        self.n_trees = len(trees)
        self.depth = max([1] + [walk.depth for walk in self.flat.walks])

    def execute(self, buffers):
        total = self.flat.sum_values(buffers[self.inputs[0]])
        if self.aggregate == "AVERAGE":
            total = total / self.n_trees
        total = total + self.base_values
        return _apply_post(total, self.post_transform)

    def cost(self, batch_size):
        work = batch_size * self.n_trees * self.depth
        return OpCost(flops=3.0 * work, bytes_moved=40.0 * work)
