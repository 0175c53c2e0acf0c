"""Dense float64 tensors with a define-by-run reverse-mode gradient tape.

Every operation eagerly computes a numpy float64 result and, when gradients
are enabled and any input requires them, records its parents plus a backward
rule on the output. ``backward(loss)`` walks that implicit graph once in
reverse topological order and accumulates gradients into leaf tensors.

Design constraints baked in here:

* float64 everywhere — every recorded op's output is validated to be
  finite; overflow/NaN raises :class:`NumericError` rather than
  propagating silently.  In ``backward``, each leaf's gradient is checked
  once, before any is written.
* Three fused nodes do the work of a whole op chain each, with a backward
  rule written out by hand: ``attention`` (softmax(q k^T/sqrt(d) + bias) v),
  ``prenorm_block`` (a whole pre-norm transformer block) and
  ``masked_mse`` (the masked reconstruction error).  Each checks only its
  output; a NaN or inf in any intermediate (logits, probabilities,
  normalized activations, the MLP's hidden units, squared errors) reaches
  that output, so it still raises.  Each reproduces the unfused chain's
  arithmetic; the first two share their numpy bodies with ``attention``,
  ``layernorm`` and ``gelu``.
* The attention math exists once, as numpy kernels (``scaled_logits``,
  ``softmax_inplace``, ``stable_sigmoid``) that the ops here and the no-grad
  scoring pass share; no other module calls ``np.exp``.
* Leaves created with ``requires_grad=True`` allocate a zero gradient buffer
  up front, so a leaf that ends up disconnected from the loss still reports
  an all-zero gradient instead of erroring.  A module's named parameters
  are views of one flat leaf (``flat_parameters``): their values and
  gradient buffers are slices of its two buffers, and ``backward`` adds
  into them in place.
* Repeated ``backward`` calls accumulate into ``.grad`` until cleared.
"""

from __future__ import annotations

import hashlib
import math
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
        # array the size of the data (this check runs on every node); bare
        # ufunc reductions skip ndarray.min's Python-level wrapper.
        if arr.size and not (math.isfinite(np.minimum.reduce(arr, axis=None))
                             and math.isfinite(np.maximum.reduce(arr, axis=None))):
            raise NumericError("non-finite value in tensor")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._grad_fn = _grad_fn
        # Leaves get an eager zero grad buffer; intermediates stay lazy.
        if self.requires_grad and not _parents:
            self.grad = np.zeros(arr.shape)  # cheaper than zeros_like
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

    def backward(self):
        backward(self)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(x) -> Tensor:
    """A trainable leaf over ``x`` (not copied when it is already a
    C-contiguous float64 array)."""
    return Tensor(x, requires_grad=True)


#: constant initial values in a parameter table; any other init rule is the
#: std of an N(0, std) draw
ZEROS, ONES = "zeros", "ones"
#: name -> (shape, init rule), in draw order, which is also the order of the
#: module's flat values
ParamTable = dict[str, tuple[tuple[int, ...], float | str]]


def table_size(table: ParamTable) -> int:
    """Number of values the parameters of ``table`` hold."""
    return sum(math.prod(shape) for shape, _ in table.values())


def layout_digest(shapes) -> str:
    """First 16 hex digits of the SHA-256 of ``(name, shape)`` pairs, one
    line ``name extent extent ...`` each, in order: a short name for a
    parameter layout, which differs between layouts that hold as many
    values in another arrangement."""
    text = "".join(f"{name} {' '.join(map(str, shape))}\n" for name, shape in shapes)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Parameters:
    """A module's trainable values, laid out by a :data:`ParamTable`:
    ``flat`` is one leaf over all of them in table order, and ``params``
    names one leaf per table entry whose ``.data`` and ``.grad`` are views
    of ``flat``'s (:func:`flat_parameters`).  ``backward`` and ``Adam``
    write both in place, so the two never disagree."""

    flat: Tensor
    params: dict[str, Tensor]

    def named_arrays(self) -> dict[str, np.ndarray]:
        return {k: v.data for k, v in self.params.items()}


def flat_parameters(table: ParamTable, values: np.ndarray
                    ) -> tuple[Tensor, dict[str, Tensor]]:
    """The module leaf over ``values``, one float64 value per value of
    ``table`` in table order (adopted, not copied, as :func:`parameter`
    does), and one named leaf per table entry whose data and gradient are
    views of the module leaf's.  The module leaf's construction is the one
    finiteness check and allocates the one zero gradient buffer; the named
    leaves are built without either."""
    flat = parameter(values)
    size = table_size(table)
    if flat.shape != (size,):
        raise ShapeError(f"flat parameters of shape {flat.shape}, not ({size},)")
    data, grad = flat.data, flat.grad
    params = {}
    lo = 0
    for name, (shape, _) in table.items():
        hi = lo + math.prod(shape)
        leaf = params[name] = Tensor.__new__(Tensor)
        leaf.data = data[lo:hi].reshape(shape)
        leaf.grad = grad[lo:hi].reshape(shape)
        leaf.requires_grad = True
        leaf._parents = ()
        leaf._grad_fn = None
        lo = hi
    return flat, params


def init_parameters(table: ParamTable, rng: np.random.Generator
                    ) -> tuple[Tensor, dict[str, Tensor]]:
    """Fresh parameters of ``table`` (:func:`flat_parameters`), each normal
    draw taken from ``rng`` in table order."""
    flat, params = flat_parameters(table, np.zeros(table_size(table)))
    for name, (shape, init) in table.items():
        if init == ONES:
            params[name].data[...] = 1.0
        elif init != ZEROS:
            params[name].data[...] = rng.normal(0.0, init, size=shape)
    return flat, params


def _records(parents) -> bool:
    """Whether an op over ``parents`` is recorded on the tape."""
    return _GRAD_MODE.enabled and any(p.requires_grad for p in parents)


def _make(data, parents, grad_fn) -> Tensor:
    if _records(parents):
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
# numpy kernels, shared by the ops below and the no-grad scoring pass
# ---------------------------------------------------------------------------


def scaled_logits(q: np.ndarray, k: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """(q k^T / (beta sqrt(d)), contiguous k^T) for q: (..., n_q, d) and
    k: (..., n_k, d); an overflow is left as inf, not warned about."""
    kt = np.ascontiguousarray(k.swapaxes(-1, -2))
    with np.errstate(over="ignore", invalid="ignore"):
        logits = np.matmul(q, kt)
        logits *= 1.0 / (beta * np.sqrt(q.shape[-1]))
    return logits, kt


def softmax_inplace(x: np.ndarray, axis: int) -> np.ndarray:
    """Numerically stable softmax along ``axis`` (max subtraction),
    overwriting and returning ``x``."""
    x -= x.max(axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=axis, keepdims=True)
    return x


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x), with no exponential of a positive argument."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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
    out = stable_sigmoid(a.data)
    return _make(out, (a,), lambda g: (g * out * (1.0 - out),))


_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _gelu_fwd(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x * Phi(x), Phi(x)); the cdf is what the backward rule reads."""
    cdf = _erf(x / _SQRT2)
    cdf += 1.0
    cdf *= 0.5
    return x * cdf, cdf


def _gelu_slope(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """d gelu / dx = Phi(x) + x * phi(x), in a fresh buffer."""
    s = -0.5 * x
    s *= x
    np.exp(s, out=s)
    s *= _INV_SQRT_2PI
    s *= x
    s += cdf
    return s


def gelu(a) -> Tensor:
    """Exact Gaussian-error-linear unit: x * Phi(x)."""
    a = as_tensor(a)
    out, cdf = _gelu_fwd(a.data)

    def grad_fn(g):
        s = _gelu_slope(a.data, cdf)
        s *= g
        return (s,)

    return _make(out, (a,), grad_fn)


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax along one axis (max subtraction)."""
    a = as_tensor(a)
    ax = _norm_axes(axis, a.ndim)
    if len(ax) != 1:
        raise ShapeError("softmax takes a single axis")
    out = softmax_inplace(a.data.copy(), ax)

    def grad_fn(g):
        dot = (g * out).sum(axis=ax, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (a,), grad_fn)


def _layernorm_fwd(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(xhat, 1/std) of a normalization over the last axis."""
    xc = x - x.mean(axis=-1, keepdims=True)
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xc *= inv
    return xc, inv


def _affine(xhat: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    out = xhat * gain
    out += bias
    return out


def _layernorm_bwd(g, gain, xhat, inv):
    """(gx, ggain, gbias) of ``_affine(xhat, gain, bias)``; the gain and
    bias gradients are summed down to the gain's shape."""
    gy = g * gain
    t = gy * xhat
    m1 = gy.mean(axis=-1, keepdims=True)
    m2 = t.mean(axis=-1, keepdims=True)
    gy -= m1
    np.multiply(xhat, m2, out=t)
    gy -= t
    gy *= inv
    np.multiply(g, xhat, out=t)
    return gy, _unbroadcast(t, gain.shape), _unbroadcast(g, gain.shape)


def layernorm(x, gain, bias, eps: float = 1e-6) -> Tensor:
    """Normalize over the last axis, then scale/shift with learnable params."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    if gain.shape != bias.shape:
        raise ShapeError("layernorm gain and bias shapes differ")
    xhat, inv = _layernorm_fwd(x.data, eps)

    def grad_fn(g):
        return _layernorm_bwd(g, gain.data, xhat, inv)

    return _make(_affine(xhat, gain.data, bias.data), (x, gain, bias), grad_fn)


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


def _attention_fwd(q, k, v, bias):
    """(softmax(q k^T / sqrt(d) + bias) v, probabilities, k^T) on arrays,
    in the arithmetic order of the unfused chain; the logits buffer becomes
    the probabilities in place.  A NaN or +inf logit turns its row into NaN,
    which reaches the output; a -inf logit is a zero weight, as a masked
    key's is."""
    p, kt = scaled_logits(q, k, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        if bias is not None:
            p += bias
        softmax_inplace(p, -1)
    return np.matmul(p, v), p, kt


def _attention_bwd(g, q, kt, v, p):
    """(gq, gk, gv) of ``_attention_fwd``; ``p`` and ``kt`` are its saved
    probabilities and transposed keys, and are left unchanged."""
    gv = np.matmul(p.swapaxes(-1, -2), g)
    gl = np.matmul(g, v.swapaxes(-1, -2))
    # (gl * p).sum(-1), one leading index at a time: the same row sums
    # without a second probabilities-sized temporary
    dot = np.empty(p.shape[:-1] + (1,))
    row = np.empty(p.shape[1:])
    for i in range(p.shape[0]):
        np.multiply(gl[i], p[i], out=row)
        row.sum(axis=-1, keepdims=True, out=dot[i])
    gl -= dot
    gl *= p
    gl *= 1.0 / np.sqrt(q.shape[-1])
    gq = np.matmul(gl, kt.swapaxes(-1, -2))
    gk = np.matmul(q.swapaxes(-1, -2), gl).swapaxes(-1, -2)
    return gq, gk, gv


def _constant_data(bias) -> np.ndarray | None:
    if bias is None:
        return None
    bias = as_tensor(bias)
    if bias.requires_grad:
        raise ValueError("attention bias must be a constant")
    return bias.data


def attention(q, k, v, bias=None) -> Tensor:
    """softmax(q k^T / sqrt(d) + bias) v as one recorded node.

    q: (..., n_q, d), k and v: (..., n_k, d); ``bias`` is a constant that
    broadcasts against the (..., n_q, n_k) logits.  The probabilities are
    the only (n_q, n_k)-sized array kept for the backward pass, and the
    finiteness check on the output covers them (see ``_attention_fwd``).
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError("q/k feature dims differ")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError("k/v token counts differ")
    out, p, kt = _attention_fwd(q.data, k.data, v.data, _constant_data(bias))

    def grad_fn(g):
        return _attention_bwd(g, q.data, kt, v.data, p)

    return _make(out, (q, k, v), grad_fn)


def prenorm_block(x, weights, bias, heads: int, eps: float) -> Tensor:
    """One pre-norm transformer block as one recorded node:

        x1 = x + Wo . MHA(LN1(x), bias) + bo
        y  = x1 + W2 . gelu(W1 . LN2(x1) + b1) + b2

    x: (B, n, D); ``weights`` are the block's 16 parameters in the order
    ln1 gain, ln1 bias, wq, bq, wk, bk, wv, bv, wo, bo, ln2 gain, ln2 bias,
    w1, b1, w2, b2 (every weight matrix is (in, out));
    ``bias`` is a constant additive attention bias that broadcasts against
    the (B, heads, n, n) logits, or None.  The node's parents are
    ``(x, *weights)`` and its backward rule is written out here from the
    same helpers as ``layernorm``, ``attention`` and ``gelu``; the
    arithmetic matches that primitive chain step for step, so an isolated
    block reproduces its output and gradients bit for bit.  Only the output
    is finite-checked: a NaN or inf in any intermediate reaches it.

    For its backward rule the node keeps the split heads q and v, the
    transposed keys, the attention probabilities, the merged heads, the
    second normalization's xhat, the GELU's cdf and both inverse stds.  The
    rule rebuilds the rest with the forward's own arithmetic on the same
    arrays: the first normalization's xhat from ``x``'s data and its
    inverse std, and the MLP's hidden pre-activation from the second xhat.
    So it reads ``x.data`` at backward time, which no caller changes in
    between.  Unrecorded (under ``no_grad``, or with no parent requiring
    grad), the block drops each intermediate after its last use.
    """
    x = as_tensor(x)
    weights = tuple(as_tensor(w) for w in weights)
    if len(weights) != 16:
        raise ShapeError("a block takes 16 parameters")
    if x.ndim != 3:
        raise ShapeError("block input must be (batch, tokens, dim)")
    b, n, d = x.shape
    if heads < 1 or d % heads:
        raise ShapeError("block width must be a multiple of heads")
    g1, c1, wq, bq, wk, bk, wv, bv, wo, bo, g2, c2, w1, b1, w2, b2 = (w.data for w in weights)
    hd = d // heads
    parents = (x, *weights)
    record = _records(parents)

    def split(t):  # (B, n, D) -> (B, H, n, hd)
        return np.ascontiguousarray(t.reshape(b, n, heads, hd).transpose(0, 2, 1, 3))

    def linear(t, w, wb):
        out = np.matmul(t, w)
        out += wb
        return out

    xhat1, inv1 = _layernorm_fwd(x.data, eps)
    h1 = _affine(xhat1, g1, c1)
    del xhat1
    q, k, v = (split(linear(h1, w, wb)) for w, wb in ((wq, bq), (wk, bk), (wv, bv)))
    del h1
    att, p, kt = _attention_fwd(q, k, v, _constant_data(bias))
    del k
    if not record:
        del q, v, p, kt
    merged = np.ascontiguousarray(att.transpose(0, 2, 1, 3)).reshape(b, n, d)
    del att
    x1 = linear(merged, wo, bo)
    if not record:
        del merged
    x1 += x.data
    xhat2, inv2 = _layernorm_fwd(x1, eps)
    u = linear(_affine(xhat2, g2, c2), w1, b1)
    if not record:
        del xhat2
    act, cdf = _gelu_fwd(u)
    del u
    if not record:
        del cdf
    y = linear(act, w2, b2)
    y += x1

    def weight_grads(a, w, g):
        """(ga, gw, gb) of ``linear(a, w, wb)``, as matmul and add reduce them."""
        return (np.matmul(g, w.swapaxes(-1, -2)),
                np.matmul(a.swapaxes(-1, -2), g).sum(axis=0), g.sum(axis=(0, 1)))

    def grad_fn(gy):
        h2 = _affine(xhat2, g2, c2)
        u = linear(h2, w1, b1)
        gact, gw2, gb2 = weight_grads(u * cdf, w2, gy)
        gact *= _gelu_slope(u, cdf)
        del u
        gh2, gw1, gb1 = weight_grads(h2, w1, gact)
        del h2
        gx1, gg2, gc2 = _layernorm_bwd(gh2, g2, xhat2, inv2)
        gx1 += gy
        gm, gwo, gbo = weight_grads(merged, wo, gx1)
        g_heads = _attention_bwd(gm.reshape(b, n, heads, hd).transpose(0, 2, 1, 3),
                                 q, kt, v, p)
        xhat1 = x.data - x.data.mean(axis=-1, keepdims=True)  # as _layernorm_fwd
        xhat1 *= inv1
        h1 = _affine(xhat1, g1, c1)
        # a plain reshape, as the tape's: the key gradient stays a strided
        # view, and its bias gradient (analytically zero) sums in that order
        (gh1, gwq, gbq), (gh_k, gwk, gbk), (gh_v, gwv, gbv) = (
            weight_grads(h1, w, g.transpose(0, 2, 1, 3).reshape(b, n, d))
            for g, w in zip(g_heads, (wq, wk, wv)))
        gh1 += gh_k  # the tape's order: q, then k, then v
        gh1 += gh_v
        gx, gg1, gc1 = _layernorm_bwd(gh1, g1, xhat1, inv1)
        gx += gx1
        return (gx, gg1, gc1, gwq, gbq, gwk, gbk, gwv, gbv, gwo, gbo,
                gg2, gc2, gw1, gb1, gw2, gb2)

    return _make(y, parents, grad_fn)


def masked_mse(pred, target: np.ndarray, mask: np.ndarray) -> Tensor:
    """Masked-element mean squared error as one recorded node.

    ``pred`` and the constant ``target`` are (B, n, e) and ``mask`` is a
    (B, n) boolean array.  Each row's squared error over the elements of its
    masked positions is divided by max(its masked count, 1) * e, and the
    rows are averaged, so a row with nothing masked adds zero.  The node
    keeps only the residual ``pred - target`` and the float mask for its
    backward rule, which, like the forward pass, repeats the arithmetic of
    the primitive chain sub, mul, mul, sum_, div, mean step for step: value
    and gradient match that chain bit for bit.  Only the output is
    finite-checked; a NaN or inf in ``pred`` or ``target`` reaches it, since
    a zero mask weight times NaN or inf is NaN.
    """
    pred = as_tensor(pred)
    if pred.ndim != 3 or target.shape != pred.shape or mask.shape != pred.shape[:2]:
        raise ShapeError("masked_mse takes (B, n, e) operands and a (B, n) mask")
    b, _, e = pred.shape
    weight = mask.astype(np.float64)
    denom = np.maximum(mask.sum(axis=1).astype(np.float64), 1.0) * e
    with np.errstate(over="ignore", invalid="ignore"):
        diff = pred.data - target
        se = diff * diff
        se *= weight[:, :, None]
        out = (se.sum(axis=(1, 2)) / denom).sum(axis=0) * (1.0 / b)

    def grad_fn(g):
        row = g * (1.0 / b) / denom  # mean, then the division's share
        gd = (row[:, None] * weight)[:, :, None] * diff
        gd += gd  # both operands of diff * diff
        return (gd,)

    return _make(out, (pred,), grad_fn)


def weighted_mean_pool(x, axis: int, weights) -> Tensor:
    """sum(x*w, axis) / sum(w, axis) for non-negative weights that broadcast
    over x; a zero total weight is an error."""
    x = as_tensor(x)
    ax = _norm_axes(axis, x.ndim)[0]
    w = as_tensor(weights)
    if w.ndim != x.ndim:
        raise ShapeError("pooling weights must have the rank of x")
    if np.any(w.data < 0):
        raise NumericError("pooling weights must be non-negative")
    num = sum_(mul(x, w), axis=ax)
    den = sum_(w, axis=ax)  # the division broadcasts it against num
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

    Gradients accumulate into every reachable leaf's ``.grad`` once the
    sweep has ended and every leaf's gradient is finite; otherwise
    :class:`NumericError` is raised and no ``.grad`` changes.  Intermediate
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

    # No edge is checked: a NaN or inf travels on through later rules, with
    # numpy's warnings off, into the gradient of some leaf, and each leaf's
    # gradient is checked once, before any is written.  A value that a rule
    # drops never reaches a leaf, so Adam never sees it either.
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    leaves: list[tuple[Tensor, np.ndarray]] = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for node in reversed(topo):
            g = grads.pop(id(node))
            if node._grad_fn is None:
                leaves.append((node, g))
                continue
            for p, pg in zip(node._parents, node._grad_fn(g)):
                if not p.requires_grad:
                    continue
                key = id(p)
                grads[key] = grads[key] + pg if key in grads else pg
    for _, g in leaves:
        if g.size and not (np.isfinite(g.min()) and np.isfinite(g.max())):
            raise NumericError("non-finite gradient")
    for leaf, g in leaves:
        leaf.grad += g  # accumulate persistently
