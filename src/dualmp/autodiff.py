"""Reverse-mode automatic differentiation over dense 2-D float64 arrays.

Covers exactly the primitives the fraud model's forward pass needs: matrix
products, biases, the three activations, column concatenation, row gather,
coefficient-weighted segment sums, layer normalization, row softmax, dropout
and the scalar reductions. No broadcasting beyond row-vector biases, no
tensors of rank above 2, no GPU.

Each operation links its output to its inputs and stores a backward rule;
:func:`backward` replays that implicit tape once, in reverse topological
order, accumulating gradients additively across fan-out.
"""

from __future__ import annotations

import numpy as np


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


def _accumulate(t: TensorValue, g: np.ndarray) -> None:
    if t.requires_grad or t._parents:
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        t.grad += g


def _result(data, parents, rule) -> TensorValue:
    needs = any(p.requires_grad or p._parents for p in parents)
    if not needs:
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
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _result(a.data @ b.data, (a, b), rule)


def add(a: TensorValue, b: TensorValue) -> TensorValue:
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")

    def rule(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _result(a.data + b.data, (a, b), rule)


def sub(a: TensorValue, b: TensorValue) -> TensorValue:
    if a.shape != b.shape:
        raise ValueError(f"sub shape mismatch: {a.shape} vs {b.shape}")

    def rule(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    return _result(a.data - b.data, (a, b), rule)


def add_bias(x: TensorValue, bias: TensorValue) -> TensorValue:
    """Add a (1, d) row vector to every row of x."""
    if bias.shape != (1, x.shape[1]):
        raise ValueError(f"bias shape {bias.shape} does not fit matrix {x.shape}")

    def rule(g):
        _accumulate(x, g)
        _accumulate(bias, g.sum(axis=0, keepdims=True))

    return _result(x.data + bias.data, (x, bias), rule)


def scale(x: TensorValue, s: float) -> TensorValue:
    s = float(s)

    def rule(g):
        _accumulate(x, s * g)

    return _result(s * x.data, (x,), rule)


def add_const(x: TensorValue, c: float) -> TensorValue:
    def rule(g):
        _accumulate(x, g)

    return _result(x.data + float(c), (x,), rule)


def mul_const(x: TensorValue, c) -> TensorValue:
    """Entrywise product with a fixed array; no gradient flows into ``c``."""
    c = np.asarray(c, dtype=np.float64)
    if c.shape != x.data.shape:
        raise ValueError(f"constant shape {c.shape} does not match {x.shape}")

    def rule(g):
        _accumulate(x, c * g)

    return _result(x.data * c, (x,), rule)


def relu(x: TensorValue) -> TensorValue:
    # slope at exactly 0 taken from the positive side
    mask = x.data >= 0

    def rule(g):
        _accumulate(x, g * mask)

    return _result(np.where(mask, x.data, 0.0), (x,), rule)


def leaky_relu(x: TensorValue, slope: float = 0.01) -> TensorValue:
    mask = x.data >= 0

    def rule(g):
        _accumulate(x, g * np.where(mask, 1.0, slope))

    return _result(np.where(mask, x.data, slope * x.data), (x,), rule)


def tanh(x: TensorValue) -> TensorValue:
    out = np.tanh(x.data)

    def rule(g):
        _accumulate(x, g * (1.0 - out * out))

    return _result(out, (x,), rule)


def concat_cols(parts: list[TensorValue]) -> TensorValue:
    if not parts:
        raise ValueError("concat_cols needs at least one part")
    rows = parts[0].shape[0]
    for p in parts:
        if p.shape[0] != rows:
            raise ValueError(f"concat_cols row mismatch: {rows} vs {p.shape[0]}")
    widths = [p.shape[1] for p in parts]
    edges = np.cumsum([0] + widths)

    def rule(g):
        for p, lo, hi in zip(parts, edges[:-1], edges[1:]):
            _accumulate(p, g[:, lo:hi])

    return _result(np.concatenate([p.data for p in parts], axis=1), tuple(parts), rule)


def gather_rows(x: TensorValue, index) -> TensorValue:
    """Select rows by index; duplicate indices scatter-add in the backward pass."""
    index = np.asarray(index, dtype=np.int64)
    if index.ndim != 1:
        raise ValueError("gather_rows index must be one-dimensional")
    if index.size and (index.min() < 0 or index.max() >= x.shape[0]):
        raise ValueError(f"gather index out of range for {x.shape[0]} rows")

    def rule(g):
        scatter = np.zeros_like(x.data)
        np.add.at(scatter, index, g)
        _accumulate(x, scatter)

    return _result(x.data[index], (x,), rule)


def take_col(x: TensorValue, col: int) -> TensorValue:
    if not 0 <= col < x.shape[1]:
        raise ValueError(f"column {col} out of range for shape {x.shape}")

    def rule(g):
        full = np.zeros_like(x.data)
        full[:, col] = g[:, 0]
        _accumulate(x, full)

    return _result(x.data[:, col : col + 1].copy(), (x,), rule)


def segment_weighted_sum(messages: TensorValue, segment_ids, coefficients, num_segments: int) -> TensorValue:
    """out[s] = sum over entries e with segment_ids[e] == s of coefficients[e] * messages[e].

    Segments with no entries stay zero. Coefficients are fixed weights; no
    gradient is propagated into them. Accumulation uses ``np.add.at`` so the
    reduction order is the entry order, which keeps runs deterministic.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    coefficients = np.asarray(coefficients, dtype=np.float64).reshape(-1)
    if len(segment_ids) != messages.shape[0] or len(coefficients) != messages.shape[0]:
        raise ValueError(
            f"segment ids ({len(segment_ids)}) and coefficients ({len(coefficients)}) "
            f"must match {messages.shape[0]} message rows"
        )
    if segment_ids.size and (segment_ids.min() < 0 or segment_ids.max() >= num_segments):
        raise ValueError(f"segment id out of range for {num_segments} segments")
    if not np.isfinite(coefficients).all():
        raise ValueError("segment coefficients must be finite")

    out = np.zeros((num_segments, messages.shape[1]))
    np.add.at(out, segment_ids, coefficients[:, None] * messages.data)

    def rule(g):
        _accumulate(messages, coefficients[:, None] * g[segment_ids])

    return _result(out, (messages,), rule)


def layer_norm(x: TensorValue, gain: TensorValue, bias: TensorValue, eps: float = 1e-5) -> TensorValue:
    """Per-row normalization (population variance) with learnable gain and bias."""
    if eps <= 0:
        raise ValueError("layer_norm eps must be positive")
    if gain.shape != (1, x.shape[1]) or bias.shape != (1, x.shape[1]):
        raise ValueError("gain/bias must be (1, d) row vectors matching x columns")
    mean = x.data.mean(axis=1, keepdims=True)
    var = ((x.data - mean) ** 2).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * inv_std

    def rule(g):
        _accumulate(gain, (g * xhat).sum(axis=0, keepdims=True))
        _accumulate(bias, g.sum(axis=0, keepdims=True))
        gh = g * gain.data
        dx = inv_std * (
            gh - gh.mean(axis=1, keepdims=True) - xhat * (gh * xhat).mean(axis=1, keepdims=True)
        )
        _accumulate(x, dx)

    return _result(xhat * gain.data + bias.data, (x, gain, bias), rule)


def softmax_rows(x: TensorValue) -> TensorValue:
    if x.shape[1] < 2:
        raise ValueError("softmax_rows needs at least two columns")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def rule(g):
        _accumulate(x, out * (g - (g * out).sum(axis=1, keepdims=True)))

    return _result(out, (x,), rule)


def log_clamped(x: TensorValue, floor: float = 1e-12) -> TensorValue:
    """log(max(x, floor)); entries at or below the floor get zero gradient."""
    clamped = np.maximum(x.data, floor)

    def rule(g):
        _accumulate(x, np.where(x.data > floor, g / clamped, 0.0))

    return _result(np.log(clamped), (x,), rule)


def dropout(x: TensorValue, rate: float, training: bool, rng: np.random.Generator | None = None) -> TensorValue:
    """Zero entries with probability ``rate`` and rescale survivors; identity in eval mode."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    keep = rng.random(x.shape) >= rate
    factor = keep / (1.0 - rate)

    def rule(g):
        _accumulate(x, g * factor)

    return _result(x.data * factor, (x,), rule)


def sum_all(x: TensorValue) -> TensorValue:
    def rule(g):
        _accumulate(x, np.full_like(x.data, g[0, 0]))

    return _result(x.data.sum(), (x,), rule)


def mean_all(x: TensorValue) -> TensorValue:
    size = x.data.size

    def rule(g):
        _accumulate(x, np.full_like(x.data, g[0, 0] / size))

    return _result(x.data.mean(), (x,), rule)


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

    def num_values(self) -> int:
        return sum(p.data.size for p in self._params.values())

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.grad = np.zeros_like(p.data)

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
    and the best agreement is kept: a kink artifact disappears as the window
    shrinks, a real gradient bug disagrees at every size.
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
