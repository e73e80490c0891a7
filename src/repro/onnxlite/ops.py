"""Operator semantics: runtime kernels and static width inference.

Each operator registers two functions:

* a **kernel** ``fn(node, inputs, ctx) -> [outputs]`` over numpy arrays —
  feature edges are 2-D ``[N, width]`` float arrays, classifier labels are
  1-D ``[N]``, and a raw input column is an ``[N, 1]`` array of numbers or
  ``<U`` strings, or — for a dictionary-coded string input that only
  :data:`READS_CODES` kernels read — a :class:`Coded` (codes + sorted
  dictionary);
* a **width rule** used by ``infer_edge_info`` so optimizer rules can track
  feature positions through Concat/Scaler/OneHotEncoder without running
  the model.

The operator set mirrors ONNX-ML plus the Raven ``FeatureExtractor`` /
``Constant`` extensions used by the paper's logical optimizations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

from repro.errors import GraphError, UnsupportedOperatorError
from repro.learn.base import sigmoid, softmax
from repro.learn.tree import FlatForest
from repro.onnxlite.graph import FLOAT, INT, STRING, Graph, Node

#: Operators whose kernels take a coded string input as a :class:`Coded`.
READS_CODES = frozenset({"OneHotEncoder", "LabelEncoder"})
#: Operators whose kernels read a feature matrix in either memory order
#: (the tree kernel, :meth:`FlatForest.leaf_slots`). Every other kernel
#: is handed C-ordered matrices: an F-ordered ``X @ w`` can differ from
#: the C-ordered one in the last bit.
READS_ANY_ORDER = frozenset({"TreeEnsembleClassifier", "TreeEnsembleRegressor"})


class Coded(NamedTuple):
    """A dictionary-coded string column: row ``i`` is ``dictionary[codes[i]]``
    (``dictionary`` sorted and distinct, as registration builds it)."""

    codes: np.ndarray
    dictionary: np.ndarray

    @property
    def dtype(self) -> np.dtype:
        return self.dictionary.dtype


@dataclass
class EvalContext:
    """Per-call information available to kernels."""

    batch_size: int
    #: What the operator's ``prepare`` hook built for this node when the
    #: ``InferenceSession`` was constructed (the flat tree form, a
    #: featurizer's lookup table), else None.
    prepared: object = None
    #: Emit the output F-contiguous (Concat only; set by the session when
    #: every reader of the output is in :data:`READS_ANY_ORDER`).
    feature_major: bool = False


@dataclass(frozen=True)
class EdgeInfo:
    """Static dtype/width of one edge (width 0 = 1-D label column)."""

    dtype: str
    width: int


KernelFn = Callable[[Node, List[np.ndarray], EvalContext], List[np.ndarray]]
WidthFn = Callable[[Node, List[EdgeInfo]], List[EdgeInfo]]

_KERNELS: Dict[str, KernelFn] = {}
_WIDTHS: Dict[str, WidthFn] = {}
_PREPARE: Dict[str, Callable[[Node], object]] = {}


def register(op_type: str, width_fn: WidthFn,
             prepare: Optional[Callable[[Node], object]] = None):
    """Decorator registering kernel + width rule (+ optional per-session
    ``prepare`` hook, see :attr:`EvalContext.prepared`) for an operator."""

    def wrap(kernel: KernelFn) -> KernelFn:
        _KERNELS[op_type] = kernel
        _WIDTHS[op_type] = width_fn
        if prepare is not None:
            _PREPARE[op_type] = prepare
        return kernel

    return wrap


def kernel_for(op_type: str) -> KernelFn:
    """The registered kernel for an operator (raises if unsupported)."""
    if op_type not in _KERNELS:
        raise UnsupportedOperatorError(f"no kernel for operator {op_type!r}")
    return _KERNELS[op_type]


def prepare_node(node: Node) -> object:
    """The node's per-session state, built once by its ``prepare`` hook."""
    prepare = _PREPARE.get(node.op_type)
    return None if prepare is None else prepare(node)


def supported_operators() -> List[str]:
    """All operator types the runtime can execute."""
    return sorted(_KERNELS)


def _as_matrix(array: np.ndarray) -> np.ndarray:
    return array.reshape(-1, 1) if array.ndim == 1 else array


class _Lookup(NamedTuple):
    """A featurizer as a table: ``rows[i]`` is the output for the sorted,
    distinct ``keys[i]``; the last row is the output for any other value."""

    keys: np.ndarray
    rows: np.ndarray

    def gather(self, column, dtype=None) -> np.ndarray:
        """The output rows of a 1-D column or a :class:`Coded`, whose values
        are first cast to ``dtype`` when given. A coded column looks up its
        dictionary (a few entries), then gathers its rows by code."""
        if isinstance(column, Coded):
            table = self.rows.take(self._positions(column.dictionary, dtype),
                                   axis=0)
            return table.take(column.codes, axis=0)
        return self.rows.take(self._positions(column, dtype), axis=0)

    def _positions(self, values: np.ndarray, dtype) -> np.ndarray:
        """Each value's index in ``keys``; ``len(keys)`` where it is absent."""
        if dtype is not None:
            values = values.astype(dtype, copy=False)
        if len(self.keys) == 0:
            return np.zeros(len(values), dtype=np.intp)
        at = np.searchsorted(self.keys, values)
        np.minimum(at, len(self.keys) - 1, out=at)
        return np.where(self.keys[at] == values, at, len(self.keys))


# ---------------------------------------------------------------------------
# Featurizers
# ---------------------------------------------------------------------------

def _same_width(node: Node, inputs: List[EdgeInfo]) -> List[EdgeInfo]:
    return [EdgeInfo(FLOAT, inputs[0].width)]


@register("Scaler", _same_width)
def _scaler(node: Node, inputs: List[np.ndarray], ctx: EvalContext):
    x = _as_matrix(inputs[0]).astype(np.float64, copy=False)
    offset = np.asarray(node.attrs["offset"], dtype=np.float64)
    scale = np.asarray(node.attrs["scale"], dtype=np.float64)
    return [(x - offset) * scale]


@register("Normalizer", _same_width)
def _normalizer(node: Node, inputs: List[np.ndarray], ctx: EvalContext):
    x = _as_matrix(inputs[0]).astype(np.float64)
    norm = node.attrs.get("norm", "l2")
    if norm == "l1":
        norms = np.abs(x).sum(axis=1)
    elif norm == "l2":
        norms = np.sqrt((x ** 2).sum(axis=1))
    elif norm == "max":
        norms = np.abs(x).max(axis=1)
    else:
        raise GraphError(f"bad norm: {norm!r}")
    norms = np.where(norms == 0, 1.0, norms)
    return [x / norms[:, None]]


@register("Imputer", _same_width)
def _imputer(node: Node, inputs: List[np.ndarray], ctx: EvalContext):
    x = _as_matrix(inputs[0]).astype(np.float64).copy()
    values = np.broadcast_to(
        np.asarray(node.attrs["imputed_values"], dtype=np.float64),
        (x.shape[1],))
    mask = np.isnan(x)
    if mask.any():
        x[mask] = np.broadcast_to(values, x.shape)[mask]
    return [x]


@register("Binarizer", _same_width)
def _binarizer(node: Node, inputs: List[np.ndarray], ctx: EvalContext):
    x = _as_matrix(inputs[0]).astype(np.float64)
    return [(x > float(node.attrs.get("threshold", 0.0))).astype(np.float64)]


def _ohe_width(node: Node, inputs: List[EdgeInfo]) -> List[EdgeInfo]:
    return [EdgeInfo(FLOAT, len(node.attrs["categories"]))]


def _indicators(categories: np.ndarray) -> _Lookup:
    """One-hot rows: a value's row has 1.0 wherever a category equals it
    (duplicates included); a value equal to none — unseen, or NaN — gets
    all zeros (handle_unknown='ignore')."""
    keys = np.unique(categories)
    return _Lookup(keys, np.vstack([keys[:, None] == categories,
                                    np.zeros((1, len(categories)))]))


def _one_hot_lookups(node: Node):
    """``(native, as_str)``: lookups over the categories as given and cast
    to str; ``native`` is None when the categories are strings already."""
    categories = np.asarray(node.attrs["categories"])
    as_str = _indicators(categories.astype(np.str_))
    if categories.dtype.kind == "U":
        return None, as_str
    return _indicators(categories), as_str


@register("OneHotEncoder", _ohe_width, prepare=_one_hot_lookups)
def _one_hot(node: Node, inputs: List[np.ndarray], ctx: EvalContext):
    column = inputs[0]
    if not isinstance(column, Coded):
        x = _as_matrix(column)
        if x.shape[1] != 1:
            raise GraphError("OneHotEncoder expects a single input column")
        column = x[:, 0]
    native, as_str = ctx.prepared
    # String input or string categories: both sides compare as str.
    if native is None or column.dtype.kind == "U":
        return [as_str.gather(column, np.str_)]
    return [native.gather(column)]


def _label_encoder_width(node: Node, inputs: List[EdgeInfo]) -> List[EdgeInfo]:
    return [EdgeInfo(FLOAT, 1)]


def _label_lookup(node: Node) -> _Lookup:
    """A key's row holds the value of its first occurrence in ``keys``;
    any other value gets ``default``."""
    keys, first = np.unique(np.asarray(node.attrs["keys"]), return_index=True)
    values = np.asarray(node.attrs["values"], dtype=np.float64)
    default = float(node.attrs.get("default", -1.0))
    return _Lookup(keys, np.append(values[first], default).reshape(-1, 1))


@register("LabelEncoder", _label_encoder_width, prepare=_label_lookup)
def _label_encoder(node: Node, inputs: List[np.ndarray], ctx: EvalContext):
    column = inputs[0]
    if not isinstance(column, Coded):
        column = _as_matrix(column)[:, 0]
    lookup: _Lookup = ctx.prepared
    return [lookup.gather(
        column, np.str_ if lookup.keys.dtype.kind == "U" else None)]


def _concat_width(node: Node, inputs: List[EdgeInfo]) -> List[EdgeInfo]:
    return [EdgeInfo(FLOAT, sum(max(i.width, 1) for i in inputs))]


@register("Concat", _concat_width)
def _concat(node: Node, inputs: List[np.ndarray], ctx: EvalContext):
    matrices = [_as_matrix(i).astype(np.float64, copy=False) for i in inputs]
    if ctx.feature_major:
        # The blocks' transposes stacked into a C-ordered (width, n) array,
        # whose transpose is the F-contiguous (n, width) feature matrix.
        stacked = np.empty((sum(m.shape[1] for m in matrices),
                            len(matrices[0])))
        return [np.concatenate([m.T for m in matrices], out=stacked).T]
    return [np.concatenate(matrices, axis=1)]


def _feature_extractor_width(node: Node, inputs: List[EdgeInfo]) -> List[EdgeInfo]:
    return [EdgeInfo(FLOAT, len(node.attrs["indices"]))]


@register("FeatureExtractor", _feature_extractor_width)
def _feature_extractor(node: Node, inputs: List[np.ndarray], ctx: EvalContext):
    x = _as_matrix(inputs[0])
    indices = np.asarray(node.attrs["indices"], dtype=np.int64)
    return [x[:, indices]]


def _constant_width(node: Node, inputs: List[EdgeInfo]) -> List[EdgeInfo]:
    value = np.atleast_1d(np.asarray(node.attrs["value"]))
    dtype = STRING if value.dtype.kind == "U" else FLOAT
    return [EdgeInfo(dtype, value.shape[-1])]


@register("Constant", _constant_width)
def _constant(node: Node, inputs: List[np.ndarray], ctx: EvalContext):
    value = np.atleast_1d(np.asarray(node.attrs["value"]))
    return [np.tile(value.reshape(1, -1), (ctx.batch_size, 1))]


@register("Cast", _same_width)
def _cast(node: Node, inputs: List[np.ndarray], ctx: EvalContext):
    return [_as_matrix(inputs[0]).astype(np.float64)]


def _identity_width(node: Node, inputs: List[EdgeInfo]) -> List[EdgeInfo]:
    return [inputs[0]]


@register("Identity", _identity_width)
def _identity(node: Node, inputs: List[np.ndarray], ctx: EvalContext):
    return [inputs[0]]


# ---------------------------------------------------------------------------
# Elementwise / linear algebra
# ---------------------------------------------------------------------------

def _binary_width(node: Node, inputs: List[EdgeInfo]) -> List[EdgeInfo]:
    return [EdgeInfo(FLOAT, max(inputs[0].width, inputs[1].width))]


for _name, _fn in (("Add", np.add), ("Sub", np.subtract),
                   ("Mul", np.multiply), ("Div", np.divide)):
    def _make(fn):
        def kernel(node, inputs, ctx):
            return [fn(_as_matrix(inputs[0]).astype(np.float64),
                       _as_matrix(inputs[1]).astype(np.float64))]
        return kernel
    register(_name, _binary_width)(_make(_fn))


def _matmul_width(node: Node, inputs: List[EdgeInfo]) -> List[EdgeInfo]:
    weight = np.asarray(node.attrs["weight"])
    return [EdgeInfo(FLOAT, weight.shape[1])]


@register("MatMul", _matmul_width)
def _matmul(node: Node, inputs: List[np.ndarray], ctx: EvalContext):
    weight = np.asarray(node.attrs["weight"], dtype=np.float64)
    return [_as_matrix(inputs[0]).astype(np.float64) @ weight]


@register("Sigmoid", _same_width)
def _sigmoid_op(node: Node, inputs: List[np.ndarray], ctx: EvalContext):
    return [sigmoid(_as_matrix(inputs[0]).astype(np.float64))]


@register("Softmax", _same_width)
def _softmax_op(node: Node, inputs: List[np.ndarray], ctx: EvalContext):
    return [softmax(_as_matrix(inputs[0]).astype(np.float64))]


def _argmax_width(node: Node, inputs: List[EdgeInfo]) -> List[EdgeInfo]:
    return [EdgeInfo(INT, 1)]


@register("ArgMax", _argmax_width)
def _argmax(node: Node, inputs: List[np.ndarray], ctx: EvalContext):
    return [np.argmax(_as_matrix(inputs[0]), axis=1).reshape(-1, 1)]


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

def _classifier_width(node: Node, inputs: List[EdgeInfo]) -> List[EdgeInfo]:
    classes = np.asarray(node.attrs["classes"])
    dtype = STRING if classes.dtype.kind == "U" else FLOAT
    return [EdgeInfo(dtype, 0), EdgeInfo(FLOAT, len(classes))]


@register("LinearClassifier", _classifier_width)
def _linear_classifier(node: Node, inputs: List[np.ndarray], ctx: EvalContext):
    x = _as_matrix(inputs[0]).astype(np.float64)
    coefficients = np.asarray(node.attrs["coefficients"], dtype=np.float64)
    intercepts = np.asarray(node.attrs["intercepts"], dtype=np.float64)
    classes = np.asarray(node.attrs["classes"])
    post = node.attrs.get("post_transform", "LOGISTIC")
    scores = x @ coefficients.T + intercepts
    if len(classes) == 2 and coefficients.shape[0] == 1:
        if post == "LOGISTIC":
            positive = sigmoid(scores[:, 0])
        elif post == "NONE":
            positive = scores[:, 0]
        else:
            raise GraphError(f"bad post_transform: {post!r}")
        probabilities = np.column_stack([1.0 - positive, positive])
    else:
        if post == "SOFTMAX":
            probabilities = softmax(scores)
        elif post == "LOGISTIC":
            raw = sigmoid(scores)
            total = raw.sum(axis=1, keepdims=True)
            total[total == 0] = 1.0
            probabilities = raw / total
        else:
            probabilities = scores
    labels = classes[np.argmax(probabilities, axis=1)]
    return [labels, probabilities]


def _regressor_width(node: Node, inputs: List[EdgeInfo]) -> List[EdgeInfo]:
    return [EdgeInfo(FLOAT, 1)]


@register("LinearRegressor", _regressor_width)
def _linear_regressor(node: Node, inputs: List[np.ndarray], ctx: EvalContext):
    x = _as_matrix(inputs[0]).astype(np.float64)
    coefficients = np.asarray(node.attrs["coefficients"], dtype=np.float64).ravel()
    intercept = float(node.attrs.get("intercept", 0.0))
    return [(x @ coefficients + intercept).reshape(-1, 1)]


def _flat_trees(node: Node) -> FlatForest:
    if not node.attrs["trees"]:
        raise GraphError("tree ensemble has no trees")
    return FlatForest(node.attrs["trees"])


@register("TreeEnsembleClassifier", _classifier_width, prepare=_flat_trees)
def _tree_ensemble_classifier(node: Node, inputs: List[np.ndarray],
                              ctx: EvalContext):
    x = _as_matrix(inputs[0]).astype(np.float64, copy=False)
    probabilities = evaluate_tree_ensemble_scores(node, ctx.prepared, x)
    classes = np.asarray(node.attrs["classes"])
    labels = classes[np.argmax(probabilities, axis=1)]
    return [labels, probabilities]


def evaluate_tree_ensemble_scores(node: Node, flat: FlatForest,
                                  x: np.ndarray) -> np.ndarray:
    """Shared ensemble math: aggregate leaf values, apply post transform.

    ``flat`` is the node's trees in the engine's one tree kernel,
    :class:`~repro.learn.tree.FlatForest`, built once per
    ``InferenceSession`` (the node's ``prepare`` hook) so its lifetime is
    the graph's; it sums the leaf values in tree order. Two layouts exist
    (see ``repro.onnxlite.convert``):

    * probability trees (DT/RF): leaves hold class-probability vectors,
      ``aggregate='AVERAGE'``, ``post_transform='NONE'``;
    * margin trees (GB): leaves hold scalar margins (learning rate baked
      in), ``aggregate='SUM'`` with ``base_values``, ``post='LOGISTIC'``.
    """
    aggregate = node.attrs.get("aggregate", "AVERAGE")
    post = node.attrs.get("post_transform", "NONE")
    base_values = np.asarray(node.attrs.get("base_values", [0.0]), dtype=np.float64)

    total = flat.sum_values(x)
    if aggregate == "AVERAGE":
        total = total / len(flat.trees)
    elif aggregate != "SUM":
        raise GraphError(f"bad aggregate: {aggregate!r}")
    total = total + base_values

    if post == "NONE":
        return total
    if post == "LOGISTIC":
        positive = sigmoid(total[:, 0])
        return np.column_stack([1.0 - positive, positive])
    if post == "SOFTMAX":
        return softmax(total)
    raise GraphError(f"bad post_transform: {post!r}")


@register("TreeEnsembleRegressor", _regressor_width, prepare=_flat_trees)
def _tree_ensemble_regressor(node: Node, inputs: List[np.ndarray],
                             ctx: EvalContext):
    x = _as_matrix(inputs[0]).astype(np.float64, copy=False)
    aggregate = node.attrs.get("aggregate", "SUM")
    base = float(np.asarray(node.attrs.get("base_values", [0.0])).ravel()[0])
    total = ctx.prepared.sum_values(x)[:, :1]
    if aggregate == "AVERAGE":
        total = total / len(ctx.prepared.trees)
    return [total + base]


# ---------------------------------------------------------------------------
# Static shape inference
# ---------------------------------------------------------------------------

def infer_edge_info(graph: Graph) -> Dict[str, EdgeInfo]:
    """Dtype/width for every edge, via the registered width rules."""
    info: Dict[str, EdgeInfo] = {}
    for tensor in graph.inputs:
        info[tensor.name] = EdgeInfo(tensor.dtype, tensor.width)
    for node in graph.topological_nodes():
        input_infos = [info[name] for name in node.inputs]
        if node.op_type not in _WIDTHS:
            raise UnsupportedOperatorError(
                f"no width rule for operator {node.op_type!r}"
            )
        output_infos = _WIDTHS[node.op_type](node, input_infos)
        for name, edge_info in zip(node.outputs, output_infos):
            info[name] = edge_info
    return info
