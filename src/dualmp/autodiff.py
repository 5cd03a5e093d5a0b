"""Reverse-mode automatic differentiation over dense 2-D float64 arrays.

Covers exactly the primitives the fraud model uses, listed with their users:
``matmul`` and ``add_bias`` every linear layer, and ``add_bias`` the hinge's
constant 1; ``add`` and ``sub`` the weight blocks of the edge scorer and the
fusion, the residuals, the contrast filter h - hW, the classifier's sum over
relations and the total loss; ``mul_const`` the residual mix, the edge-loss
weight and the edge-sign hinge; ``mean_all`` the hinge; ``relu`` the
contrast filter and the hinge; ``relu_linear_rows`` every row of the
projection a pass reads; ``leaky_relu`` the channel gates and the fusion;
``tanh`` the edge scorer; ``gather_rows`` each edge's two scalars of the
scorer and, as ``row_blocks``, the weight blocks of the scorer, the fusion
and the classifier; ``sparse_matmul`` the degree-rescaled aggregation, over
scipy CSR; ``layer_norm`` the fusion; ``cross_entropy`` the classification
loss. ``relu`` is max(x, 0) and passes a NaN on, so a NaN pre-activation
reaches the loss instead of turning into 0. ``softmax`` takes a plain array
and records nothing: it gives the class probabilities and
``cross_entropy``'s gradient. Inside ``no_tape()`` no operation records
anything; the model's evaluation pass runs there, since no backward reads
it, and builds no loss. No broadcasting beyond row-vector biases, no tensors
of rank above 2, no GPU.

Each operation links its output to its inputs and stores a backward rule;
:func:`backward` replays that implicit tape once, in reverse topological
order, accumulating gradients additively across fan-out. A rule computes
the gradient of an input only if that input needs one: constants get none
and keep ``grad`` at None.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager

import numpy as np

LEAKY_SLOPE = 0.01  # negative-side slope of leaky_relu
LAYER_NORM_EPS = 1e-5  # added to each row's variance in layer_norm


class TensorValue:
    """A dense matrix plus the bookkeeping for the reverse pass."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_rule")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _rule=None):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ValueError(f"rank-{arr.ndim} tensors are not supported")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = _parents
        self._rule = _rule

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        return f"TensorValue(shape={self.shape}, requires_grad={self.requires_grad})"


def tensor(data, requires_grad: bool = False) -> TensorValue:
    return TensorValue(data, requires_grad=requires_grad)


def _needs(t: TensorValue) -> bool:
    """Whether a gradient for ``t`` is wanted: it requires one or leads to one that does."""
    return t.requires_grad or bool(t._parents)


def _accumulate(t: TensorValue, g: np.ndarray) -> None:
    # No gradient array is written to after it is stored: a later contribution
    # makes a new sum. So an inner node keeps the first contribution as it
    # came, even when other nodes hold the same array; a leaf takes a copy,
    # so that the gradient a caller reads is its own.
    if t.grad is None:
        t.grad = g if t._parents else g.copy()
    else:
        t.grad = t.grad + g


_recording = [True]  # no_tape() pushes False


@contextmanager
def no_tape():
    """Record nothing inside the block, so each array is freed after its last use."""
    _recording.append(False)
    try:
        yield
    finally:
        _recording.pop()


def _result(data, parents, rule) -> TensorValue:
    if not _recording[-1] or not any(_needs(p) for p in parents):
        return TensorValue(data)
    return TensorValue(data, requires_grad=False, _parents=tuple(parents), _rule=rule)


def backward(loss: TensorValue) -> None:
    """Run the reverse pass from a scalar, accumulating into ``.grad`` fields.

    Every tensor reachable from ``loss`` that requires gradients (or leads
    to one that does) receives its total derivative. Leaves that are not
    reachable keep whatever their ``.grad`` already is, so zero them first.
    """
    if loss.shape != (1, 1):
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    order: list[TensorValue] = []
    visited: set[int] = set()
    stack: list[tuple[TensorValue, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    loss.grad = np.ones((1, 1))
    for node in reversed(order):
        if node._rule is not None and node.grad is not None:
            node._rule(node.grad)


# ---------------------------------------------------------------------------
# primitives


def matmul(a: TensorValue, b: TensorValue) -> TensorValue:
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")

    def rule(g):
        if _needs(a):
            _accumulate(a, g @ b.data.T)
        if _needs(b):
            _accumulate(b, a.data.T @ g)

    return _result(a.data @ b.data, (a, b), rule)


def add(a: TensorValue, b: TensorValue) -> TensorValue:
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")

    def rule(g):
        if _needs(a):
            _accumulate(a, g)
        if _needs(b):
            _accumulate(b, g)

    return _result(a.data + b.data, (a, b), rule)


def sub(a: TensorValue, b: TensorValue) -> TensorValue:
    if a.shape != b.shape:
        raise ValueError(f"sub shape mismatch: {a.shape} vs {b.shape}")

    def rule(g):
        if _needs(a):
            _accumulate(a, g)
        if _needs(b):
            _accumulate(b, -g)

    return _result(a.data - b.data, (a, b), rule)


def add_bias(x: TensorValue, bias: TensorValue) -> TensorValue:
    """Add a (1, d) row vector to every row of x."""
    if bias.shape != (1, x.shape[1]):
        raise ValueError(f"bias shape {bias.shape} does not fit matrix {x.shape}")

    def rule(g):
        if _needs(x):
            _accumulate(x, g)
        if _needs(bias):
            _accumulate(bias, g.sum(axis=0, keepdims=True))

    return _result(x.data + bias.data, (x, bias), rule)


def mul_const(x: TensorValue, c) -> TensorValue:
    """Entrywise product with a fixed float or an array of x's shape; no gradient flows into ``c``."""
    c = np.asarray(c, dtype=np.float64)
    if c.shape not in ((), x.shape):
        raise ValueError(f"constant shape {c.shape} does not match {x.shape}")

    def rule(g):
        _accumulate(x, c * g)

    return _result(x.data * c, (x,), rule)


def relu(x: TensorValue) -> TensorValue:
    """max(x, 0); NaN propagates. The slope at exactly 0 is taken from the positive side."""

    def rule(g):
        _accumulate(x, g * (x.data >= 0))

    return _result(np.maximum(x.data, 0.0), (x,), rule)


def relu_linear_rows(x: np.ndarray, w: TensorValue, b: TensorValue, out: np.ndarray, passes, index) -> TensorValue:
    """Rows ``index`` of ``out`` = relu(x @ w + b) times a constant factor, computed once without a tape.

    ``passes`` is d out / d pre for pre = x @ w + b: the factor where
    pre >= 0 and 0 elsewhere, or the bool mask pre >= 0 without a factor.
    The rows are ``out``'s bit for bit on any BLAS; the backward rule is the
    one ``mul_const(relu(add_bias(matmul(x[index], w), b)), factor[index])``
    runs.
    """

    def rule(g):
        dpre = g * passes[index]
        if _needs(b):
            _accumulate(b, dpre.sum(axis=0, keepdims=True))
        if _needs(w):
            _accumulate(w, x[index].T @ dpre)

    return _result(out[index], (w, b), rule)


def leaky_relu(x: TensorValue) -> TensorValue:
    """max(x, LEAKY_SLOPE * x), the same value as x where x >= 0 and LEAKY_SLOPE * x below."""
    out = LEAKY_SLOPE * x.data
    np.maximum(x.data, out, out=out)  # in place: a second N-sized temporary costs more than the max

    def rule(g):
        # the factor is exactly 1.0 where x >= 0 and LEAKY_SLOPE elsewhere
        factor = (x.data >= 0) * (1.0 - LEAKY_SLOPE)
        factor += LEAKY_SLOPE
        factor *= g
        _accumulate(x, factor)

    return _result(out, (x,), rule)


def tanh(x: TensorValue) -> TensorValue:
    out = np.tanh(x.data)

    def rule(g):
        _accumulate(x, g * (1.0 - out * out))

    return _result(out, (x,), rule)


def gather_rows(x: TensorValue, index) -> TensorValue:
    """The rows ``x[index]``; the backward sums a repeated row's gradients in index order (``np.add.at``)."""

    def rule(g):
        grad = np.zeros(x.shape)
        np.add.at(grad, index, g)
        _accumulate(x, grad)

    # np.take copies the rows of a (k, 1) array in about half the time x[index] takes
    return _result(np.take(x.data, index, axis=0), (x,), rule)


def row_blocks(w: TensorValue, k: int) -> list[TensorValue]:
    """The rows of ``w`` cut into ``k`` equal blocks, top to bottom, each taken by :func:`gather_rows`.

    [a_1 || ... || a_k] @ w is the sum of a_i @ block_i: a layer over stacked inputs needs no concatenation.
    """
    rows = w.shape[0]
    if k < 1 or rows % k:
        raise ValueError(f"{rows} weight rows do not split into {k} equal blocks")
    return [gather_rows(w, block) for block in np.arange(rows).reshape(k, -1)]


def sparse_matmul(matrix, x: TensorValue) -> TensorValue:
    """matrix @ x for a fixed scipy CSR matrix; no gradient flows into the matrix.

    Each output row accumulates its stored entries in storage order, and the
    backward pass ``matrix.T @ g`` accumulates each input row in that same
    order, which keeps runs deterministic. Rows without entries stay zero.
    """
    if matrix.shape[1] != x.shape[0]:
        raise ValueError(f"sparse_matmul shape mismatch: {matrix.shape} @ {x.shape}")

    def rule(g):
        _accumulate(x, matrix.T @ g)

    return _result(matrix @ x.data, (x,), rule)


def layer_norm(x: TensorValue, gain: TensorValue, bias: TensorValue) -> TensorValue:
    """Per-row normalization (population variance, plus ``LAYER_NORM_EPS``) with learnable gain and bias."""
    if gain.shape != (1, x.shape[1]) or bias.shape != (1, x.shape[1]):
        raise ValueError("gain/bias must be (1, d) row vectors matching x columns")
    # row means as products with a (d, 1) column of 1/d: an axis=1 reduce over
    # the model's 8 columns pays a fixed cost per row, and so does a fold
    average = np.full((x.shape[1], 1), 1.0 / x.shape[1])
    centered = x.data - x.data @ average
    inv_std = 1.0 / np.sqrt(centered**2 @ average + LAYER_NORM_EPS)
    xhat = centered * inv_std

    def rule(g):
        if _needs(gain):
            _accumulate(gain, (g * xhat).sum(axis=0, keepdims=True))
        if _needs(bias):
            _accumulate(bias, g.sum(axis=0, keepdims=True))
        if _needs(x):
            gh = g * gain.data
            dx = inv_std * (gh - gh @ average - xhat * ((gh * xhat) @ average))
            _accumulate(x, dx)

    return _result(xhat * gain.data + bias.data, (x, gain, bias), rule)


def mean_all(x: TensorValue) -> TensorValue:
    size = x.data.size

    def rule(g):
        _accumulate(x, np.full_like(x.data, g[0, 0] / size))

    return _result(x.data.mean(), (x,), rule)


def _fold_columns(ufunc, x: np.ndarray) -> np.ndarray:
    """Row reduction of x as ufunc applied column after column, left to right.

    With the model's 2 classes this is one elementwise call on two strided
    columns, where an ``axis=1`` reduce pays a fixed cost per row. Maxima are
    exact either way; a sum over 8 or more columns rounds differently from
    numpy's pairwise ``sum``.
    """
    return functools.reduce(ufunc, x.T)


def softmax(x: np.ndarray) -> np.ndarray:
    """Row softmax of a plain array, shifted by each row's maximum; records no tape."""
    e = np.exp(x - _fold_columns(np.maximum, x)[:, None])
    return e / _fold_columns(np.add, e)[:, None]


def cross_entropy(logits: TensorValue, labels) -> TensorValue:
    """Cross-entropy summed over rows, sum_i logsumexp(logits_i) - logits_i[labels_i].

    The gradient is the closed form g * (softmax - onehot), so a row whose
    true class has a vanishing probability still gets a full-size gradient.
    """
    labels = np.asarray(labels, dtype=np.int64)
    rows, classes = logits.shape
    if labels.shape != (rows,) or (rows and not 0 <= labels.min() <= labels.max() < classes):
        raise ValueError(f"cross_entropy needs {rows} class indices in [0, {classes})")
    picked = (np.arange(rows), labels)
    shifted = logits.data - _fold_columns(np.maximum, logits.data)[:, None]
    loss = (np.log(_fold_columns(np.add, np.exp(shifted))) - shifted[picked]).sum()

    def rule(g):
        grad = softmax(logits.data)
        grad[picked] -= 1.0
        _accumulate(logits, g[0, 0] * grad)

    return _result(loss, (logits,), rule)


# ---------------------------------------------------------------------------
# parameters and gradient checking

GRADCHECK_MAX_ENTRIES = 32  # entries probed per parameter


class ParamStore:
    """Named map of learnable tensors plus their weight-decay eligibility."""

    def __init__(self):
        self._params: dict[str, TensorValue] = {}
        self._decay: dict[str, bool] = {}

    def add(self, name: str, data, decay: bool = True) -> TensorValue:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = TensorValue(data, requires_grad=True)
        self._params[name] = t
        self._decay[name] = decay
        return t

    def __getitem__(self, name: str) -> TensorValue:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def decays(self, name: str) -> bool:
        return self._decay[name]

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.grad = np.zeros(p.shape)

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self._params.items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for name, p in self._params.items():
            p.data[...] = snap[name]


def grad_check(
    forward,
    store: ParamStore,
    probe: float = 1e-3,
    rng: np.random.Generator | None = None,
) -> dict[str, float]:
    """Compare tape gradients against central differences.

    ``forward`` must be a deterministic closure rebuilding the scalar loss
    from the current parameter values (dropout off, any random sampling
    frozen). For up to ``GRADCHECK_MAX_ENTRIES`` entries per parameter the relative
    error |a - n| / max(1e-8, |a| + |n|) is computed; the per-parameter
    maximum is returned.

    The loss is piecewise linear through the relu family, so a probe window
    can straddle a slope change and corrupt the difference quotient. Entries
    that disagree on the first probe are re-measured with windows shrunk by
    100x and 10000x (floored where float64 cancellation noise takes over)
    and the best agreement is kept: a kink artifact near a point disappears
    as the window shrinks, a real gradient bug disagrees at every size. A
    point exactly on a kink fails at every size too, so it reads as a bug:
    at hidden width 3 the model's zero-initialised channel biases sit on a
    relu kink where a projection row is all zero.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    store.zero_grads()
    loss = forward()
    backward(loss)
    analytic = {name: p.grad.copy() for name, p in store.items()}

    def central_diff(p: TensorValue, i: int, eps: float) -> float:
        saved = p.data.flat[i]
        p.data.flat[i] = saved + eps
        hi = forward().item()
        p.data.flat[i] = saved - eps
        lo = forward().item()
        p.data.flat[i] = saved
        return (hi - lo) / (2.0 * eps)

    errors: dict[str, float] = {}
    for name, p in store.items():
        size = p.data.size
        if size <= GRADCHECK_MAX_ENTRIES:
            idx = np.arange(size)
        else:
            idx = rng.choice(size, size=GRADCHECK_MAX_ENTRIES, replace=False)
        ladder = [probe] + [max(probe / f, 1e-8) for f in (1e2, 1e4)]
        ladder = sorted(set(ladder), reverse=True)
        worst = 0.0
        for i in idx:
            a = analytic[name].flat[i]
            best = np.inf
            for eps in ladder:
                numeric = central_diff(p, i, eps)
                rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
                best = min(best, rel)
                if best <= 1e-6:
                    break
            worst = max(worst, best)
        errors[name] = worst
    return errors
