"""CART decision trees (classification and regression).

Exact greedy splitter with sort-and-scan candidate evaluation. Split
semantics follow scikit-learn / ONNX ``BRANCH_LEQ``: rows with
``x[feature] <= threshold`` go left. A :class:`Tree` (read-only parallel
node arrays in pre-order, the ONNX-ML ``TreeEnsemble*`` layout) is the one
tree form in the engine: graphs hold it, files store it, Raven's rules
rewrite it, and :class:`FlatForest`, the one tree kernel, walks it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.learn.base import (
    BaseEstimator,
    ClassifierMixin,
    RegressorMixin,
    as_1d,
    as_2d_float,
    check_fitted,
)


_DTYPES = (("feature", np.intp), ("threshold", np.float64), ("left", np.intp),
           ("right", np.intp), ("value", np.float64), ("n_samples", np.int64))


@dataclass(frozen=True, eq=False)
class Tree:
    """One decision tree as read-only parallel node arrays, in pre-order.

    The layout of ONNX-ML ``TreeEnsemble*`` attributes and scikit-learn's
    ``tree_``: node 0 is the root, and each internal node is followed by
    its left subtree, then its right subtree. An internal node sends
    ``x[feature] <= threshold`` to ``left``, everything else (NaN
    included) to ``right``. A leaf has ``feature`` -1, ``threshold`` 0.0,
    children -1 and its payload in its ``value`` row: a class-probability
    vector for classifiers, one number for regressors (internal rows are
    zero). ``n_samples`` counts the training rows that reached each node.

    Arrays handed in writeable are copied, read-only ones are shared, and
    every array is read-only afterwards: trees share arrays freely, and a
    rewrite builds a new tree.
    """

    feature: np.ndarray     # [M]
    threshold: np.ndarray   # [M]
    left: np.ndarray        # [M]
    right: np.ndarray       # [M]
    value: np.ndarray       # [M, d]
    n_samples: np.ndarray   # [M]

    def __post_init__(self):
        for name, dtype in _DTYPES:
            array = np.asarray(getattr(self, name), dtype=dtype)
            if array.flags.writeable:
                array = array.copy()
                array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __len__(self) -> int:
        return len(self.feature)

    def depth(self) -> int:
        return sum(1 for _ in _levels(self)) - 1

    def leaf_count(self) -> int:
        return int(np.count_nonzero(self.left < 0))

    def features_used(self) -> set:
        """Indices of every feature referenced by any internal node."""
        return set(self.feature[self.left >= 0].tolist())

    def remap_features(self, mapping: dict) -> "Tree":
        """Rewrite feature indices (used when densifying models)."""
        lookup = np.full(max(mapping, default=-1) + 2, -1, dtype=np.intp)  # [-1] -> -1
        lookup[list(mapping)] = list(mapping.values())
        feature = lookup[self.feature]
        if (feature[self.left >= 0] < 0).any():
            raise KeyError("a split feature has no new index")
        return replace(self, feature=feature)

    # ------------------------------------------------------------------
    def predict_value(self, X: np.ndarray) -> np.ndarray:
        """(n, value width) leaf values: a thin wrapper that scores this
        one tree with :class:`FlatForest`."""
        return FlatForest([self]).sum_values(X)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf id (pre-order leaf index) reached by each row: a thin
        wrapper mapping the :class:`FlatForest` slot back to it."""
        forest = FlatForest([self])
        (slots,) = forest.leaf_slots(X)
        leaf_rank = np.cumsum(self.left < 0) - 1
        return leaf_rank[forest.walks[0].nodes[slots]]


def _levels(tree: Tree) -> Iterator[np.ndarray]:
    """The tree's node ids level by level, breadth first: a level lists the
    children of the previous level's internal nodes, left then right, in
    their parents' order."""
    level = np.zeros(1, dtype=np.intp)
    while level.size:
        yield level
        parents = level[tree.left[level] >= 0]
        level = np.stack([tree.left[parents], tree.right[parents]],
                         axis=1).ravel()


class _LevelWalk(NamedTuple):
    """One tree laid out for :class:`FlatForest`: arrays over slots."""

    feature: np.ndarray     # [M] intp (leaves: 0)
    threshold: np.ndarray   # [M] (leaves: NaN)
    left: np.ndarray        # [M] intp; right child = left + 1 (leaves: slot - 1)
    value: np.ndarray       # [M, d] the tree's value rows
    depth: int
    nodes: np.ndarray       # [M] the tree's node id in each slot


def _level_walk(tree: Tree) -> _LevelWalk:
    levels = list(_levels(tree))
    nodes = np.concatenate(levels)
    slot_of = np.empty_like(nodes)
    slot_of[nodes] = np.arange(len(nodes))
    leaf = tree.left[nodes] < 0
    return _LevelWalk(
        feature=np.where(leaf, 0, tree.feature[nodes]),
        threshold=np.where(leaf, np.nan, tree.threshold[nodes]),
        left=np.where(leaf, np.arange(-1, len(nodes) - 1),
                      slot_of[tree.left[nodes]]),
        value=tree.value[nodes],
        depth=len(levels) - 1,
        nodes=nodes,
    )


class FlatForest:
    """The engine's one tree kernel: each tree laid out once for a
    level-synchronous walk.

    A :class:`Tree`'s arrays are gathered into breadth-first slots (see
    :func:`_levels`), so an internal node's two children take adjacent
    slots: ``left`` holds the left child's slot and the right child is
    ``left + 1``. The leaf mask is folded into the same arrays so leaves
    loop to themselves: a leaf's threshold is NaN (``x <= NaN`` never
    holds, so every row takes the right edge) and its ``left`` is its own
    slot minus one.

    All rows of a batch walk one tree level by level — ``depth`` steps of
    a few vectorized gathers each — with BRANCH_LEQ semantics: ``x <=
    threshold`` goes left, NaN goes right. Leaf values are summed per tree
    in tree order, so sums are bit-identical to adding up the trees one by
    one, and nothing depends on the batch size. Every tree ensemble the
    engine scores runs here: the onnxlite TreeEnsemble kernels (one flat
    form per ``InferenceSession``), the tensor runtime's ``TreeTraversal``
    and :meth:`Tree.predict_value` / :meth:`Tree.apply`.
    """

    def __init__(self, trees: Sequence[Tree]):
        self.walks = [_level_walk(tree) for tree in trees]

    def leaf_slots(self, X: np.ndarray) -> Iterator[np.ndarray]:
        """Per tree, in tree order: the leaf slot each row of ``X`` reaches.

        ``X`` is read in its own memory order, C or F (feature-major, where
        the rows at one node read one feature's cells close together); any
        other layout is made C-contiguous first.
        """
        if not (X.flags.c_contiguous or X.flags.f_contiguous):
            X = np.ascontiguousarray(X)
        cells = X.ravel(order="K")  # a view in memory order
        row_step, feature_step = (stride // X.itemsize for stride in X.strides)
        row_start = np.arange(X.shape[0], dtype=np.intp) * row_step
        for walk in self.walks:
            feature_start = walk.feature * feature_step
            node = np.zeros(X.shape[0], dtype=np.intp)
            for _ in range(walk.depth):
                goes_left = (cells.take(row_start + feature_start.take(node))
                             <= walk.threshold.take(node))
                node = walk.left.take(node) + ~goes_left
            yield node

    def sum_values(self, X: np.ndarray) -> np.ndarray:
        """(n, value width) leaf values summed over the trees in tree
        order (the forest must have at least one tree)."""
        total = None
        for walk, node in zip(self.walks, self.leaf_slots(X)):
            reached = walk.value.take(node, axis=0)
            total = reached if total is None else total + reached
        return total


# ---------------------------------------------------------------------------
# Split search
# ---------------------------------------------------------------------------

def _classification_split(X_col: np.ndarray, y_codes: np.ndarray, n_classes: int,
                          criterion: str, min_leaf: int) -> Tuple[float, float]:
    """Best (impurity_decrease, threshold) for one feature, or (-inf, 0)."""
    order = np.argsort(X_col, kind="stable")
    xs = X_col[order]
    ys = y_codes[order]
    n = len(xs)
    # One-hot cumulative class counts at each prefix boundary.
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), ys] = 1.0
    prefix = np.cumsum(onehot, axis=0)
    total = prefix[-1]

    # Candidate split positions: boundaries where the value changes.
    change = np.nonzero(xs[1:] != xs[:-1])[0]  # split between i and i+1
    if change.size == 0:
        return -np.inf, 0.0
    left_sizes = change + 1
    valid = (left_sizes >= min_leaf) & (n - left_sizes >= min_leaf)
    change = change[valid]
    if change.size == 0:
        return -np.inf, 0.0

    left_counts = prefix[change]
    right_counts = total - left_counts
    left_n = (change + 1).astype(np.float64)
    right_n = n - left_n

    if criterion == "gini":
        def impurity(counts, sizes):
            p = counts / sizes[:, None]
            return 1.0 - (p ** 2).sum(axis=1)
    else:  # entropy
        def impurity(counts, sizes):
            p = counts / sizes[:, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                logs = np.where(p > 0, np.log2(p), 0.0)
            return -(p * logs).sum(axis=1)

    parent = impurity(total[None, :], np.asarray([float(n)]))[0]
    children = (left_n / n) * impurity(left_counts, left_n) \
        + (right_n / n) * impurity(right_counts, right_n)
    gains = parent - children
    best = int(np.argmax(gains))
    if gains[best] <= 1e-12:
        return -np.inf, 0.0
    position = change[best]
    threshold = (xs[position] + xs[position + 1]) / 2.0
    return float(gains[best]), float(threshold)


def _regression_split(X_col: np.ndarray, y: np.ndarray,
                      min_leaf: int) -> Tuple[float, float]:
    """Best (variance_reduction, threshold) for one feature."""
    order = np.argsort(X_col, kind="stable")
    xs = X_col[order]
    ys = y[order]
    n = len(xs)
    prefix_sum = np.cumsum(ys)
    prefix_sq = np.cumsum(ys ** 2)
    total_sum, total_sq = prefix_sum[-1], prefix_sq[-1]

    change = np.nonzero(xs[1:] != xs[:-1])[0]
    if change.size == 0:
        return -np.inf, 0.0
    left_sizes = change + 1
    valid = (left_sizes >= min_leaf) & (n - left_sizes >= min_leaf)
    change = change[valid]
    if change.size == 0:
        return -np.inf, 0.0

    left_n = (change + 1).astype(np.float64)
    right_n = n - left_n
    left_sum = prefix_sum[change]
    right_sum = total_sum - left_sum
    left_sq = prefix_sq[change]
    right_sq = total_sq - left_sq

    parent_var = total_sq / n - (total_sum / n) ** 2
    left_var = left_sq / left_n - (left_sum / left_n) ** 2
    right_var = right_sq / right_n - (right_sum / right_n) ** 2
    gains = parent_var - (left_n / n) * left_var - (right_n / n) * right_var
    best = int(np.argmax(gains))
    if gains[best] <= 1e-12:
        return -np.inf, 0.0
    position = change[best]
    threshold = (xs[position] + xs[position + 1]) / 2.0
    return float(gains[best]), float(threshold)


def _best_split_all_features(X: np.ndarray, y: np.ndarray, n_classes: int,
                             criterion: str,
                             min_leaf: int) -> Tuple[float, int, float]:
    """Best (gain, feature, threshold) across *all* columns, vectorized.

    Single argsort over the full matrix plus 2-D prefix sums — the per-node
    work is a handful of numpy calls instead of one pass per feature, which
    is what makes training the paper's 100-500 estimator ensembles
    tractable in pure Python.
    """
    n, n_features = X.shape
    order = np.argsort(X, axis=0, kind="stable")             # [n, F]
    xs = np.take_along_axis(X, order, axis=0)
    boundaries = xs[1:] != xs[:-1]                            # [n-1, F]
    left_n = np.arange(1, n, dtype=np.float64)[:, None]
    right_n = n - left_n
    size_ok = (left_n >= min_leaf) & (right_n >= min_leaf)
    valid = boundaries & size_ok
    if not valid.any():
        return -np.inf, -1, 0.0

    if n_classes:
        ys = y[order]                                         # [n, F]
        if criterion == "gini":
            # gain ∝ parent_gini - weighted child ginis; comparing
            # -(weighted sum of child impurity masses) suffices per node.
            child_mass = np.zeros((n - 1, n_features))
            parent_counts = np.bincount(y, minlength=n_classes).astype(np.float64)
            parent_gini = 1.0 - ((parent_counts / n) ** 2).sum()
            sq_left = np.zeros((n - 1, n_features))
            sq_right = np.zeros((n - 1, n_features))
            for k in range(n_classes):
                prefix = np.cumsum(ys == k, axis=0)[:-1].astype(np.float64)
                sq_left += prefix ** 2
                total_k = parent_counts[k]
                sq_right += (total_k - prefix) ** 2
            left_gini = 1.0 - sq_left / left_n ** 2
            right_gini = 1.0 - sq_right / right_n ** 2
            gains = parent_gini - (left_n / n) * left_gini \
                - (right_n / n) * right_gini
        else:  # entropy
            parent_counts = np.bincount(y, minlength=n_classes).astype(np.float64)
            p_parent = parent_counts / n
            with np.errstate(divide="ignore", invalid="ignore"):
                parent_entropy = -np.nansum(
                    np.where(p_parent > 0, p_parent * np.log2(p_parent), 0.0))
            left_entropy = np.zeros((n - 1, n_features))
            right_entropy = np.zeros((n - 1, n_features))
            for k in range(n_classes):
                prefix = np.cumsum(ys == k, axis=0)[:-1].astype(np.float64)
                p_left = prefix / left_n
                p_right = (parent_counts[k] - prefix) / right_n
                with np.errstate(divide="ignore", invalid="ignore"):
                    left_entropy -= np.where(p_left > 0,
                                             p_left * np.log2(p_left), 0.0)
                    right_entropy -= np.where(p_right > 0,
                                              p_right * np.log2(p_right), 0.0)
            gains = parent_entropy - (left_n / n) * left_entropy \
                - (right_n / n) * right_entropy
    else:
        ys = y[order]
        prefix_sum = np.cumsum(ys, axis=0)[:-1]
        prefix_sq = np.cumsum(ys ** 2, axis=0)[:-1]
        total_sum = float(y.sum())
        total_sq = float((y ** 2).sum())
        parent_var = total_sq / n - (total_sum / n) ** 2
        left_var = prefix_sq / left_n - (prefix_sum / left_n) ** 2
        right_sum = total_sum - prefix_sum
        right_sq = total_sq - prefix_sq
        right_var = right_sq / right_n - (right_sum / right_n) ** 2
        gains = parent_var - (left_n / n) * left_var - (right_n / n) * right_var

    gains = np.where(valid, gains, -np.inf)
    flat_best = int(np.argmax(gains))
    position, feature = np.unravel_index(flat_best, gains.shape)
    best_gain = float(gains[position, feature])
    if best_gain <= 1e-12 or not np.isfinite(best_gain):
        return -np.inf, -1, 0.0
    threshold = float((xs[position, feature] + xs[position + 1, feature]) / 2.0)
    return best_gain, int(feature), threshold


class _TreeBuilder:
    """Recursive CART builder shared by the classifier and regressor: it
    appends each node to the pre-order arrays as it reaches it."""

    def __init__(self, criterion: str, max_depth: Optional[int],
                 min_samples_split: int, min_samples_leaf: int,
                 max_features: Optional[int], rng: np.random.Generator,
                 n_classes: int = 0):
        self.criterion = criterion
        self.max_depth = max_depth if max_depth is not None else 2 ** 30
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng
        self.n_classes = n_classes  # 0 for regression

    def build(self, X: np.ndarray, y: np.ndarray) -> Tree:
        self.nodes = {name: [] for name, _ in _DTYPES}
        self._grow(X, y, 0)
        return Tree(**self.nodes)

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> int:
        """Append the subtree over ``(X, y)`` as a leaf that may become a
        split once its subtrees follow it; returns its node id."""
        nodes = self.nodes
        node = len(nodes["feature"])
        n, n_features = X.shape
        leaf_value = self._leaf_value(y)
        for column, entry in zip(nodes.values(),
                                 (-1, 0.0, -1, -1, leaf_value, n)):
            column.append(entry)
        if (depth >= self.max_depth or n < self.min_samples_split
                or self._is_pure(y)):
            return node

        if self.max_features is not None and self.max_features < n_features:
            candidates = np.sort(self.rng.choice(n_features, self.max_features,
                                                 replace=False))
            gain, local_feature, best_threshold = _best_split_all_features(
                X[:, candidates], y, self.n_classes, self.criterion,
                self.min_samples_leaf)
            best_gain = gain
            best_feature = int(candidates[local_feature]) if local_feature >= 0 else -1
        else:
            best_gain, best_feature, best_threshold = _best_split_all_features(
                X, y, self.n_classes, self.criterion, self.min_samples_leaf)

        if best_gain == -np.inf:
            return node

        nodes["feature"][node], nodes["threshold"][node] = best_feature, best_threshold
        nodes["value"][node] = np.zeros_like(leaf_value)
        goes_left = X[:, best_feature] <= best_threshold
        nodes["left"][node] = self._grow(X[goes_left], y[goes_left], depth + 1)
        nodes["right"][node] = self._grow(X[~goes_left], y[~goes_left],
                                          depth + 1)
        return node

    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        if self.n_classes:
            counts = np.bincount(y, minlength=self.n_classes).astype(np.float64)
            return counts / max(counts.sum(), 1.0)
        return np.asarray([float(y.mean()) if len(y) else 0.0])

    def _is_pure(self, y: np.ndarray) -> bool:
        return bool(np.all(y == y[0])) if len(y) else True


def _resolve_max_features(max_features, n_features: int) -> Optional[int]:
    if max_features is None:
        return None
    if max_features == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if max_features == "log2":
        return max(1, int(np.log2(n_features)))
    if isinstance(max_features, int):
        return max(1, min(max_features, n_features))
    if isinstance(max_features, float):
        return max(1, min(n_features, int(max_features * n_features)))
    raise ValueError(f"bad max_features: {max_features!r}")


class DecisionTreeClassifier(BaseEstimator, ClassifierMixin):
    """CART classifier with gini/entropy criteria."""

    def __init__(self, criterion: str = "gini", max_depth: Optional[int] = None,
                 min_samples_split: int = 2, min_samples_leaf: int = 1,
                 max_features=None, random_state: Optional[int] = None):
        if criterion not in ("gini", "entropy"):
            raise ValueError(f"unknown criterion: {criterion!r}")
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.tree_: Optional[Tree] = None
        self.classes_: Optional[np.ndarray] = None
        self.n_features_in_: Optional[int] = None

    def fit(self, X, y) -> "DecisionTreeClassifier":
        X = as_2d_float(X)
        y = as_1d(y)
        self.classes_, codes = np.unique(y, return_inverse=True)
        self.n_features_in_ = X.shape[1]
        builder = _TreeBuilder(
            self.criterion, self.max_depth, self.min_samples_split,
            self.min_samples_leaf,
            _resolve_max_features(self.max_features, X.shape[1]),
            np.random.default_rng(self.random_state),
            n_classes=len(self.classes_),
        )
        self.tree_ = builder.build(X, codes)
        return self

    def predict_proba(self, X) -> np.ndarray:
        check_fitted(self, "tree_")
        return self.tree_.predict_value(as_2d_float(X))

    def apply(self, X) -> np.ndarray:
        check_fitted(self, "tree_")
        return self.tree_.apply(as_2d_float(X))

    def get_depth(self) -> int:
        check_fitted(self, "tree_")
        return self.tree_.depth()


class DecisionTreeRegressor(BaseEstimator, RegressorMixin):
    """CART regressor with variance-reduction splitting."""

    def __init__(self, max_depth: Optional[int] = None,
                 min_samples_split: int = 2, min_samples_leaf: int = 1,
                 max_features=None, random_state: Optional[int] = None):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.tree_: Optional[Tree] = None
        self.n_features_in_: Optional[int] = None

    def fit(self, X, y) -> "DecisionTreeRegressor":
        X = as_2d_float(X)
        y = as_1d(y).astype(np.float64)
        self.n_features_in_ = X.shape[1]
        builder = _TreeBuilder(
            "mse", self.max_depth, self.min_samples_split,
            self.min_samples_leaf,
            _resolve_max_features(self.max_features, X.shape[1]),
            np.random.default_rng(self.random_state),
            n_classes=0,
        )
        self.tree_ = builder.build(X, y)
        return self

    def predict(self, X) -> np.ndarray:
        check_fitted(self, "tree_")
        return self.tree_.predict_value(as_2d_float(X))[:, 0]

    def apply(self, X) -> np.ndarray:
        check_fitted(self, "tree_")
        return self.tree_.apply(as_2d_float(X))

    def get_depth(self) -> int:
        check_fitted(self, "tree_")
        return self.tree_.depth()
