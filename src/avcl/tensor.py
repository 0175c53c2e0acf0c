"""Dense float64 tensors with a define-by-run reverse-mode gradient tape.

Every operation eagerly computes a numpy float64 result and, when gradients
are enabled and any input requires them, records its parents plus a backward
rule on the output. ``backward(loss)`` walks that implicit graph once in
reverse topological order and accumulates gradients into leaf tensors.

Design constraints baked in here:

* float64 everywhere — results are validated to be finite after every
  forward op; overflow/NaN raises :class:`NumericError` rather than
  propagating silently.
* Leaves created with ``requires_grad=True`` allocate a zero gradient buffer
  up front, so a leaf that ends up disconnected from the loss still reports
  an all-zero gradient instead of erroring.
* Repeated ``backward`` calls accumulate into ``.grad`` until cleared.
"""

from __future__ import annotations

import threading

import numpy as np
from scipy.special import erf as _erf


class NumericError(ArithmeticError):
    """A forward op produced NaN/Inf, or hit an invalid numeric domain."""


class ShapeError(ValueError):
    """Operands have incompatible shapes or an axis is out of range."""


class _GradMode(threading.local):
    enabled = True  # every thread starts with recording on


_GRAD_MODE = _GradMode()


class no_grad:
    """Context manager that disables graph recording (pure numpy forward) in
    the calling thread only; other threads keep their own setting."""

    def __enter__(self):
        self._prev = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, exc_type, exc, tb):
        _GRAD_MODE.enabled = self._prev
        return False


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad=False, _parents=(), _grad_fn=None):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        # min/max propagate nan and expose inf without allocating a bool
        # array the size of the data (this check runs on every node).
        if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
            raise NumericError("non-finite value in tensor")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._grad_fn = _grad_fn
        # Leaves get an eager zero grad buffer; intermediates stay lazy.
        if self.requires_grad and not _parents:
            self.grad = np.zeros_like(arr)
        else:
            self.grad = None

    # -- introspection -----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise ShapeError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- gradient plumbing ---------------------------------------------------

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0
        elif self.requires_grad and not self._parents:
            self.grad = np.zeros_like(self.data)

    def backward(self):
        backward(self)

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return neg(self)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    """A non-differentiable tensor (alias for readability at call sites)."""
    return Tensor(np.asarray(x, dtype=np.float64))


def parameter(x, rng: np.random.Generator | None = None, scale: float = 0.02) -> Tensor:
    """A trainable leaf. If ``x`` is a shape tuple, init N(0, scale) from rng."""
    if isinstance(x, tuple):
        if rng is None:
            raise ValueError("shape init requires an rng")
        x = rng.normal(0.0, scale, size=x)
    return Tensor(x, requires_grad=True)


def _make(data, parents, grad_fn) -> Tensor:
    if _GRAD_MODE.enabled and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=tuple(parents), _grad_fn=grad_fn)
    return Tensor(data)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum-reduce a gradient back down to a broadcast operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def grad_fn(g):
        return (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape))

    return _make(out, (a, b), grad_fn)


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _make(-a.data, (a,), lambda g: (-g,))


def sub(a, b) -> Tensor:
    return add(a, neg(as_tensor(b)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def grad_fn(g):
        return (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape))

    return _make(out, (a, b), grad_fn)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data  # 0-division -> inf/nan -> NumericError in ctor

    def grad_fn(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return (ga, gb)

    return _make(out, (a, b), grad_fn)


# ---------------------------------------------------------------------------
# linear algebra / structure
# ---------------------------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul operands must have rank >= 2")
    out = np.matmul(a.data, b.data)

    def grad_fn(g):
        ga = _unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.shape)
        gb = _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.shape)
        return (ga, gb)

    return _make(out, (a, b), grad_fn)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)
    return _make(out, (a,), lambda g: (g.reshape(a.shape),))


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = a.data.transpose(axes)
    return _make(out, (a,), lambda g: (g.transpose(inv),))


def swap_last(a) -> Tensor:
    """Transpose the last two axes (keeps leading batch axes)."""
    a = as_tensor(a)
    axes = tuple(range(a.ndim - 2)) + (a.ndim - 1, a.ndim - 2)
    return transpose(a, axes)


def concat(tensors, axis: int) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(out, tuple(ts), grad_fn)


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    a = as_tensor(a)
    if not (0 <= axis < a.ndim):
        raise ShapeError(f"axis {axis} out of range for rank {a.ndim}")
    if start < 0 or start + length > a.shape[axis]:
        raise ShapeError("narrow window out of bounds")
    idx = tuple(
        slice(start, start + length) if i == axis else slice(None) for i in range(a.ndim)
    )
    out = a.data[idx]

    def grad_fn(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return (full,)

    return _make(out, (a,), grad_fn)


def gather_rows(table, index) -> Tensor:
    """out[..., :] = table[index[...], :] — integer gather along axis 0.

    ``index`` may have any shape; the output shape is index.shape +
    table.shape[1:]. Backward scatter-adds, so gathering every row exactly
    once is the identity in both directions.
    """
    table = as_tensor(table)
    idx = np.asarray(index)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError("gather index must be integer")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError("gather index out of range")
    out = table.data[idx]

    def grad_fn(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return (gt,)

    return _make(out, (table,), grad_fn)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def _norm_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    axes = tuple(a % ndim for a in axis)
    for a in axes:
        if not (0 <= a < ndim):
            raise ShapeError(f"axis {a} out of range for rank {ndim}")
    return axes


def sum_(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    axes = _norm_axes(axis, a.ndim)
    out = a.data.sum(axis=axes, keepdims=keepdims)

    def grad_fn(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make(out, (a,), grad_fn)


def mean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    axes = _norm_axes(axis, a.ndim)
    count = 1
    for ax in axes:
        count *= a.shape[ax]
    return mul(sum_(a, axis=axes, keepdims=keepdims), 1.0 / count)


# ---------------------------------------------------------------------------
# nonlinearities and normalizations
# ---------------------------------------------------------------------------


def exp(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(over="ignore"):
        out = np.exp(a.data)  # overflow -> inf -> NumericError in the ctor
    return _make(out, (a,), lambda g: (g * out,))


def log(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(a.data)
    return _make(out, (a,), lambda g: (g / a.data,))


def clip_min(a, lo: float) -> Tensor:
    """max(a, lo); gradient passes only where a > lo."""
    a = as_tensor(a)
    out = np.maximum(a.data, lo)
    mask = (a.data > lo).astype(np.float64)
    return _make(out, (a,), lambda g: (g * mask,))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return _make(out, (a,), lambda g: (g * out * (1.0 - out),))


_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu(a) -> Tensor:
    """Exact Gaussian-error-linear unit: x * Phi(x)."""
    a = as_tensor(a)
    x = a.data
    cdf = 0.5 * (1.0 + _erf(x / _SQRT2))
    out = x * cdf

    def grad_fn(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
        return (g * (cdf + x * pdf),)

    return _make(out, (a,), grad_fn)


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax along one axis (max subtraction)."""
    a = as_tensor(a)
    ax = _norm_axes(axis, a.ndim)
    if len(ax) != 1:
        raise ShapeError("softmax takes a single axis")
    ax = ax[0]
    shifted = a.data - a.data.max(axis=ax, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=ax, keepdims=True)

    def grad_fn(g):
        dot = (g * out).sum(axis=ax, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (a,), grad_fn)


def layernorm(x, gain, bias, eps: float = 1e-6) -> Tensor:
    """Normalize over the last axis, then scale/shift with learnable params."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv

    def grad_fn(g):
        gy = g * gain.data
        m1 = gy.mean(axis=-1, keepdims=True)
        m2 = (gy * xhat).mean(axis=-1, keepdims=True)
        gx = (gy - m1 - xhat * m2) * inv
        ggain = _unbroadcast(g * xhat, gain.shape)
        gbias = _unbroadcast(g, bias.shape)
        return (gx, ggain, gbias)

    return _make(xhat * gain.data + bias.data, (x, gain, bias), grad_fn)


def l2_normalize(a, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """x / ||x||_2 along one axis; an exactly-zero vector is an error."""
    a = as_tensor(a)
    ax = _norm_axes(axis, a.ndim)
    if len(ax) != 1:
        raise ShapeError("l2_normalize takes a single axis")
    ax = ax[0]
    norm = np.sqrt((a.data * a.data).sum(axis=ax, keepdims=True))
    if np.any(norm == 0.0):
        raise NumericError("cannot L2-normalize a zero vector")
    norm = np.maximum(norm, eps)
    out = a.data / norm

    def grad_fn(g):
        dot = (g * out).sum(axis=ax, keepdims=True)
        return ((g - out * dot) / norm,)

    return _make(out, (a,), grad_fn)


# ---------------------------------------------------------------------------
# composites (built from primitives; backward comes off the tape)
# ---------------------------------------------------------------------------


def linear(x, weight, bias=None) -> Tensor:
    """x @ weight (+ bias). weight is (in, out); x is (..., in)."""
    out = matmul(x, weight)
    if bias is not None:
        out = add(out, bias)
    return out


def attention_logits(q, k, beta: float = 1.0) -> Tensor:
    """Scaled dot-product logits: out[..., i, j] = q_i . k_j / (beta*sqrt(d)).

    q: (..., n_q, d), k: (..., n_k, d) -> (..., n_q, n_k). ``beta`` is an
    extra sharpening temperature on top of the usual 1/sqrt(d) scale.
    """
    q, k = as_tensor(q), as_tensor(k)
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError("q/k feature dims differ")
    if beta <= 0:
        raise NumericError("beta must be positive")
    d = q.shape[-1]
    scale = 1.0 / (beta * np.sqrt(d))
    return mul(matmul(q, swap_last(k)), scale)


def weighted_mean_pool(x, axis: int, weights=None) -> Tensor:
    """Mean over one axis; optional non-negative weights broadcast over x.

    With weights, out = sum(x*w, axis) / sum(w, axis); a zero total weight is
    an error (raised via the division's finiteness check).
    """
    x = as_tensor(x)
    ax = _norm_axes(axis, x.ndim)[0]
    if weights is None:
        return mean(x, axis=ax)
    w = as_tensor(weights)
    if np.any(w.data < 0):
        raise NumericError("pooling weights must be non-negative")
    wb = mul(w, Tensor(np.ones_like(x.data)))  # broadcast w against x
    num = sum_(mul(x, w), axis=ax)
    den = sum_(wb, axis=ax)
    if np.any(den.data == 0.0):
        raise NumericError("zero total pooling weight")
    return div(num, den)


def mse(a, b) -> Tensor:
    """Mean squared error over every element."""
    d = sub(a, b)
    return mean(mul(d, d))


def bce(p, y, eps: float = 1e-12) -> Tensor:
    """Binary cross-entropy of probabilities p against 0/1 targets y.

    Probabilities are clamped to [eps, 1-eps] before the logs.
    """
    p, y = as_tensor(p), as_tensor(y)
    p1 = clip_min(p, eps)
    p0 = clip_min(sub(1.0, p), eps)
    ll = add(mul(y, log(p1)), mul(sub(1.0, y), log(p0)))
    return neg(mean(ll))


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss.

    Gradients accumulate into every reachable leaf's ``.grad``; intermediate
    gradients live only for the duration of the sweep. Leaves that require
    grad but are not reachable keep their zero buffers.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.size != 1:
        raise ShapeError("backward requires a scalar loss")
    if not loss.requires_grad:
        raise ValueError("loss does not require grad; nothing to differentiate")

    # Iterative postorder DFS -> topological order (producers first).
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._grad_fn is None:
            # leaf: accumulate persistently
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
            node.grad += g
            continue
        parent_grads = node._grad_fn(g)
        for p, pg in zip(node._parents, parent_grads):
            if pg is None or not p.requires_grad:
                continue
            if pg.size and not (np.isfinite(pg.min()) and np.isfinite(pg.max())):
                raise NumericError("non-finite gradient")
            key = id(p)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
