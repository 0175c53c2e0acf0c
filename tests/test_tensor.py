"""Tensor engine: forward values, gradient tape, finite-difference oracles."""

import threading
import tracemalloc

import numpy as np
import pytest

import avcl.backbone as bb
import avcl.tensor as tt
from avcl.tensor import Tensor


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------


def numeric_grad(fn, tensors, h=1e-5):
    """Central finite differences of a scalar fn wrt each tensor's elements."""
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            hi = fn().item()
            flat[i] = keep - h
            lo = fn().item()
            flat[i] = keep
            gf[i] = (hi - lo) / (2 * h)
        grads.append(g)
    return grads


def rel_err(a, b):
    denom = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0,
                float(np.max(np.abs(b))) if b.size else 0.0)
    return float(np.max(np.abs(a - b))) / denom if a.size else 0.0


def check_grads(fn, tensors, tol=1e-5):
    for t in tensors:
        t.zero_grad()
    loss = fn()
    loss.backward()
    numeric = numeric_grad(fn, tensors)
    for t, n in zip(tensors, numeric):
        assert t.grad is not None
        err = rel_err(t.grad, n)
        assert err <= tol, f"gradient mismatch: rel err {err}"


def leaf(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------


def test_float64_everywhere():
    t = Tensor(np.arange(4, dtype=np.float32))
    assert t.data.dtype == np.float64
    assert t.data.flags.c_contiguous


def test_nonfinite_input_rejected():
    with pytest.raises(tt.NumericError):
        Tensor([1.0, np.nan])
    with pytest.raises(tt.NumericError):
        Tensor([np.inf])


def test_overflow_is_an_error_not_a_value():
    x = Tensor([1e308])  # x * 10 overflows float64
    with np.errstate(over="ignore"), pytest.raises(tt.NumericError):
        tt.mul(x, 10.0)


def test_log_domain_error():
    with pytest.raises(tt.NumericError):
        tt.log(Tensor([0.0]))
    with pytest.raises(tt.NumericError):
        tt.log(Tensor([-1.0]))


def test_softmax_uniform_rows():
    x = Tensor(np.zeros((3, 5)))
    y = tt.softmax(x, axis=-1)
    assert np.allclose(y.data, 0.2)


def test_softmax_known_values():
    # [0, ln 2] -> [1/3, 2/3]
    y = tt.softmax(Tensor([0.0, np.log(2.0)]), axis=-1)
    assert np.allclose(y.data, [1 / 3, 2 / 3], atol=1e-15)


def test_softmax_rows_sum_to_one_property():
    rng = np.random.default_rng(7)
    for _ in range(25):
        shape = tuple(rng.integers(1, 6, size=rng.integers(1, 4)))
        axis = int(rng.integers(0, len(shape)))
        x = Tensor(rng.normal(scale=50.0, size=shape))  # large logits still stable
        y = tt.softmax(x, axis=axis)
        sums = y.data.sum(axis=axis)
        assert np.all(np.abs(sums - 1.0) <= 1e-9)
        assert np.all(y.data >= 0)


def test_softmax_extreme_logits_stable():
    y = tt.softmax(Tensor([[1000.0, 0.0, -1000.0]]), axis=-1)
    assert np.isfinite(y.data).all()
    assert abs(y.data.sum() - 1.0) <= 1e-9


def test_attention_logits_unit_vectors():
    # identical unit vectors, d=4, beta=1 -> 1/sqrt(4) = 0.5
    q = np.zeros((1, 1, 1, 4))
    q[..., 0] = 1.0
    out, _ = tt.scaled_logits(q, q.copy(), 1.0)
    assert np.allclose(out, 0.5, atol=1e-15)
    # orthogonal -> 0
    k = np.zeros((1, 1, 1, 4))
    k[..., 1] = 1.0
    out, kt = tt.scaled_logits(q, k, 1.0)
    assert np.allclose(out, 0.0, atol=1e-15)
    # the transposed keys come back contiguous, for the backward pass
    assert kt.flags.c_contiguous and np.array_equal(kt, k.swapaxes(-1, -2))


def test_attention_logits_beta_is_pure_rescale():
    rng = np.random.default_rng(3)
    q = rng.normal(size=(2, 2, 5, 8))
    k = rng.normal(size=(2, 2, 7, 8))
    base, _ = tt.scaled_logits(q, k, 1.0)
    for beta in (0.4, 0.1, 2.5):
        scaled, _ = tt.scaled_logits(q, k, beta)
        assert np.allclose(scaled, base / beta, rtol=0, atol=1e-12)


def test_attention_logits_brute_force_oracle():
    rng = np.random.default_rng(11)
    B, H, N, M, d = 2, 2, 3, 4, 8
    q = rng.normal(size=(B, H, N, d))
    k = rng.normal(size=(B, H, M, d))
    beta = 0.4
    out, _ = tt.scaled_logits(q, k, beta)
    for b in range(B):
        for h in range(H):
            for i in range(N):
                for j in range(M):
                    want = sum(q[b, h, i, t] * k[b, h, j, t] for t in range(d))
                    want /= beta * np.sqrt(d)
                    assert abs(out[b, h, i, j] - want) <= 1e-12


def unfused_attention(q, k, v, bias=None):
    """The op chain ``tt.attention`` fuses, as separate tape nodes."""
    logits = tt.mul(tt.matmul(q, tt.swap_last(k)), 1.0 / np.sqrt(q.shape[-1]))
    if bias is not None:
        logits = tt.add(logits, bias)
    return tt.matmul(tt.softmax(logits, axis=-1), v)


def _padding_bias(b, n_k, padded):
    """(B, 1, 1, n_k) key bias hiding the last ``padded[row]`` keys."""
    mask = np.arange(n_k)[None, :] >= (n_k - np.asarray(padded))[:, None]
    assert mask.shape == (b, n_k)
    return Tensor((-1e30 * mask)[:, None, None, :])


@pytest.mark.parametrize("masked", [False, True])
def test_fused_attention_matches_the_unfused_chain_bit_for_bit(masked):
    rng = np.random.default_rng(41)
    arrays = [rng.normal(size=s) for s in ((3, 2, 5, 4), (3, 2, 6, 4), (3, 2, 6, 4))]
    w = rng.normal(size=(3, 2, 5, 4))
    bias = _padding_bias(3, 6, [2, 0, 5]) if masked else None
    got = []
    for op in (tt.attention, unfused_attention):
        q, k, v = (Tensor(a.copy(), requires_grad=True) for a in arrays)
        out = op(q, k, v, bias)
        tt.backward(tt.sum_(tt.mul(out, w)))
        got.append((out.data, q.grad, k.grad, v.grad))
    for fused, chain in zip(*got):
        assert np.array_equal(fused, chain)
    if masked:  # hidden keys get no attention and so no key/value gradient
        assert not got[0][2][0, :, 4:].any() and not got[0][3][2, :, 1:].any()


def test_fused_attention_records_one_node():
    rng = np.random.default_rng(42)
    q, k, v = leaf(rng, 2, 3, 4), leaf(rng, 2, 5, 4), leaf(rng, 2, 5, 4)
    out = tt.attention(q, k, v)
    assert out.shape == (2, 3, 4)
    assert out._parents == (q, k, v)
    with tt.no_grad():
        assert not tt.attention(q, k, v).requires_grad
    with pytest.raises(tt.ShapeError):
        tt.attention(q, leaf(rng, 2, 5, 3), v)
    with pytest.raises(tt.ShapeError):
        tt.attention(q, k, leaf(rng, 2, 4, 4))
    with pytest.raises(ValueError, match="constant"):
        tt.attention(q, k, v, leaf(rng, 2, 1, 5))


def test_fused_attention_nonfinite_forward_raises():
    rng = np.random.default_rng(43)
    q, k, v = leaf(rng, 2, 3, 4), leaf(rng, 2, 5, 4), leaf(rng, 2, 5, 4)
    q.data[1, 2, 0] = np.nan
    with pytest.raises(tt.NumericError):
        tt.attention(q, k, v)
    # finite operands whose logits overflow to inf
    big = Tensor(np.full((1, 2, 4), 1e200))
    with pytest.raises(tt.NumericError):
        tt.attention(big, big, Tensor(np.ones((1, 2, 4))))


def test_fused_attention_nonfinite_gradient_raises():
    rng = np.random.default_rng(44)
    q, k, v = leaf(rng, 2, 3, 4), leaf(rng, 2, 5, 4), leaf(rng, 2, 5, 4)
    out = tt.attention(q, k, v)
    # a NaN arriving as the node's upstream gradient
    poisoned = tt._make(out.data.copy(), (out,), lambda g: (np.full_like(g, np.nan),))
    with pytest.raises(tt.NumericError, match="gradient"):
        tt.backward(tt.sum_(poisoned))
    # a NaN produced by the node's own backward rule
    loss = tt.sum_(out)
    v.data[0, 1, 2] = np.nan
    with pytest.raises(tt.NumericError, match="gradient"):
        tt.backward(loss)
    assert not q.grad.any() and not k.grad.any() and not v.grad.any()


def block_weights(rng, d=4, hidden=6):
    """The 16 leaves of one ``prenorm_block``, in the order it takes them."""
    shapes = [(d,), (d,)] + [(d, d), (d,)] * 4 + [(d,), (d,), (d, hidden), (hidden,),
                                                  (hidden, d), (d,)]
    ws = [leaf(rng, *s) for s in shapes]
    for gain in (ws[0], ws[10]):
        gain.data += 1.0
    return ws


@pytest.mark.parametrize("padded", [False, True], ids=["unpadded", "padded"])
def test_block_records_one_node(padded):
    """Recorded or not, a block gives the same bytes, also where a key bias
    hides the padding of a ragged batch."""
    rng = np.random.default_rng(45)
    x, ws = leaf(rng, 2, 3, 4), block_weights(rng)
    bias = bb.key_bias(np.arange(3)[None, :] >= np.array([2, 3])[:, None]) if padded else None
    assert (bias is None) != padded
    out = tt.prenorm_block(x, ws, bias, 2, 1e-6)
    assert out.shape == (2, 3, 4)
    assert out._parents == (x, *ws)
    with tt.no_grad():
        quiet = tt.prenorm_block(x, ws, bias, 2, 1e-6)
    assert not quiet.requires_grad and quiet._parents == () and quiet._grad_fn is None
    assert np.array_equal(quiet.data, out.data)
    with pytest.raises(tt.ShapeError):
        tt.prenorm_block(x, ws, None, 3, 1e-6)  # 4 is no multiple of 3 heads
    with pytest.raises(tt.ShapeError):
        tt.prenorm_block(x, ws[:-1], None, 2, 1e-6)
    with pytest.raises(ValueError, match="constant"):
        tt.prenorm_block(x, ws, leaf(rng, 2, 1, 1, 3), 2, 1e-6)


def _default_block(rng, b, n):
    """A block input leaf of (b, n) tokens and 16 leaves at the default width."""
    cfg = bb.BackboneConfig()
    ws = block_weights(rng, cfg.embed_dim, cfg.mlp_ratio * cfg.embed_dim)
    return leaf(rng, b, n, cfg.embed_dim), ws, cfg


def test_no_grad_block_drops_intermediates_as_it_goes():
    """Unrecorded, a block of 8 x 128 tokens peaks at one probabilities
    array (4.2 MB) plus a few token-sized ones, not at everything the
    backward rule would read (8.7 MB)."""
    x, ws, cfg = _default_block(np.random.default_rng(49), 8, 128)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        with tt.no_grad():
            out = tt.prenorm_block(x, ws, None, cfg.heads, cfg.layernorm_eps)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.shape == x.shape
    assert peak < 6.5e6, peak


def test_recorded_block_keeps_only_what_its_backward_cannot_cheaply_rebuild():
    """After the forward, a recorded block holds its output and, for its
    backward rule, q, v, k^T, the probabilities, the merged heads, the
    second xhat, the GELU cdf and two inverse stds; not the first xhat or
    the MLP's hidden pre-activation, which the rule rebuilds.  The
    allowance covers the node's Python objects."""
    b, n = 4, 16
    x, ws, cfg = _default_block(np.random.default_rng(50), b, n)
    d, h = cfg.embed_dim, cfg.heads
    tokens = b * n * d  # out, q, v, k^T, merged, xhat2
    kept = 8 * (6 * tokens + b * h * n * n + b * n * cfg.mlp_ratio * d + 2 * b * n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = tt.prenorm_block(x, ws, None, h, cfg.layernorm_eps)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert out._grad_fn is not None
    assert held < kept + 8 * tokens // 2, (held, kept)


def test_fd_prenorm_block():
    rng = np.random.default_rng(46)
    x, ws = leaf(rng, 2, 3, 4), block_weights(rng)
    w = Tensor(rng.normal(size=(2, 3, 4)))
    for bias in (None, _padding_bias(2, 3, [1, 0])):
        check_grads(lambda: tt.sum_(tt.mul(tt.prenorm_block(x, ws, bias, 2, 1e-6), w)),
                    [x, *ws])


def test_block_nonfinite_forward_raises():
    rng = np.random.default_rng(47)
    x, ws = leaf(rng, 2, 3, 4), block_weights(rng)
    x.data[1, 2, 0] = np.nan
    with pytest.raises(tt.NumericError):
        tt.prenorm_block(x, ws, None, 2, 1e-6)
    # a finite input whose attention logits overflow to inf
    x.data[1, 2, 0] = 0.0
    ws[2].data[...] = ws[4].data[...] = 1e200
    with pytest.raises(tt.NumericError):
        tt.prenorm_block(x, ws, None, 2, 1e-6)


def test_block_nonfinite_gradient_raises():
    rng = np.random.default_rng(48)
    x, ws = leaf(rng, 2, 3, 4), block_weights(rng)
    out = tt.prenorm_block(x, ws, None, 2, 1e-6)
    poisoned = tt._make(out.data.copy(), (out,), lambda g: (np.full_like(g, np.nan),))
    with pytest.raises(tt.NumericError, match="gradient"):
        tt.backward(tt.sum_(poisoned))
    assert not x.grad.any() and not any(w.grad.any() for w in ws)


def unfused_masked_mse(pred, target, mask):
    """The op chain ``tt.masked_mse`` fuses, as separate tape nodes."""
    diff = tt.sub(pred, Tensor(target))
    se = tt.mul(diff, diff)
    m = Tensor(mask.astype(np.float64)[:, :, None])
    per_row = tt.sum_(tt.mul(se, m), axis=(1, 2))
    denom = np.maximum(mask.sum(axis=1).astype(np.float64), 1.0) * pred.shape[2]
    return tt.mean(tt.div(per_row, Tensor(denom)))


@pytest.mark.parametrize("b", [2, 3, 5, 6, 7])
def test_masked_mse_matches_the_unfused_chain_bit_for_bit(b):
    """Value and gradient, byte for byte, on ``b`` rows of random length and
    width, the first with nothing masked and the last fully masked, under
    random upstream gradients.  A batch that is no power of two makes the
    mean's 1/b inexact, so a reordered division shows."""
    rng = np.random.default_rng(60 + b)
    shape = b, n, _ = (b, *(int(v) for v in rng.integers(1, 9, size=2)))
    pred, target = rng.normal(size=shape), rng.normal(size=shape)
    mask = rng.random((b, n)) < rng.random()
    mask[0], mask[-1] = False, True
    for upstream in rng.normal(size=8):
        got = []
        for op in (tt.masked_mse, unfused_masked_mse):
            p = Tensor(pred.copy(), requires_grad=True)
            out = op(p, target, mask)
            tt.backward(tt.mul(out, float(upstream)))
            got.append((out.data.tobytes(), p.grad.tobytes()))
        assert got[0] == got[1]
    fused = tt.masked_mse(p, target, mask)
    assert fused._parents == (p,) and fused.shape == ()
    p.zero_grad()
    tt.backward(fused)
    assert not p.grad[0].any() and p.grad[-1].all()


def test_masked_mse_nonfinite_and_shape_errors():
    rng = np.random.default_rng(66)
    p, target = leaf(rng, 2, 3, 4), rng.normal(size=(2, 3, 4))
    mask = np.array([[True, False, True], [False, False, True]])
    # at an unmasked position: a zero mask weight times NaN is NaN
    p.data[1, 0, 2] = np.nan
    with pytest.raises(tt.NumericError):
        tt.masked_mse(p, target, mask)
    p.data[1, 0, 2] = 1e200  # its square overflows to inf, with no numpy warning
    with pytest.raises(tt.NumericError):
        tt.masked_mse(p, target, mask)
    with pytest.raises(tt.ShapeError):
        tt.masked_mse(p, target[:, :2], mask[:, :2])
    with pytest.raises(tt.ShapeError):
        tt.masked_mse(p, target, mask[:, :2])


def _poison(x, value):
    """A node over ``x`` whose backward rule hands ``value`` to ``x``."""
    return tt._make(x.data.copy(), (x,), lambda g: (np.full_like(g, value),))


def test_non_finite_gradient_writes_no_leaf():
    """A NaN reaching two leaves at different sweep positions raises, and
    neither they nor a leaf whose finite gradient the sweep reached first
    has its ``.grad`` changed."""
    rng = np.random.default_rng(49)
    a, b, c = leaf(rng, 3), leaf(rng, 3), leaf(rng, 3)
    deep = tt.add(a, tt.gelu(tt.mul(b, Tensor(np.full(3, 3.0)))))
    loss = tt.add(tt.sum_(tt.mul(c, Tensor(np.full(3, 2.0)))),
                  tt.sum_(_poison(deep, np.nan)))
    with pytest.raises(tt.NumericError, match="gradient"):
        tt.backward(loss)
    assert not a.grad.any() and not b.grad.any() and not c.grad.any()
    # the same graph without the NaN writes all three
    tt.backward(tt.add(tt.sum_(tt.mul(c, Tensor(np.full(3, 2.0)))), tt.sum_(deep)))
    assert np.array_equal(c.grad, np.full(3, 2.0)) and np.array_equal(a.grad, np.ones(3))
    assert b.grad.all()


def test_inf_gradient_times_zero_raises_without_warning():
    """An inf gradient that a later rule multiplies by zero becomes NaN on
    its way to the leaf: a NumericError, not a RuntimeWarning."""
    a = Tensor(np.ones(4), requires_grad=True)
    hidden = tt.mul(a, Tensor(np.zeros(4)))
    with pytest.raises(tt.NumericError, match="gradient"):
        tt.backward(tt.sum_(_poison(hidden, np.inf)))
    assert not a.grad.any()


def test_weighted_mean_pool_values():
    x = Tensor(np.array([[2.0, 4.0, 6.0]]))
    out = tt.weighted_mean_pool(x, axis=1, weights=Tensor(np.ones((1, 3))))
    assert np.allclose(out.data, tt.mean(x, axis=1).data)
    assert np.allclose(out.data, [4.0])
    # weighted: [1,2] with weights [1,3] -> 1.75
    x = Tensor(np.array([[1.0, 2.0]]))
    w = Tensor(np.array([[1.0, 3.0]]))
    out = tt.weighted_mean_pool(x, axis=1, weights=w)
    assert np.allclose(out.data, [1.75])


def test_weighted_mean_pool_equal_weights_match_unweighted():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(3, 6, 4)))
    w = Tensor(np.full((3, 6, 1), 0.7))
    a = tt.weighted_mean_pool(x, axis=1, weights=w)
    b = tt.mean(x, axis=1)
    assert np.allclose(a.data, b.data, atol=1e-12)


def test_weighted_mean_pool_zero_weight_errors():
    x = Tensor(np.ones((2, 3)))
    w = Tensor(np.zeros((2, 3)))
    with pytest.raises(tt.NumericError):
        tt.weighted_mean_pool(x, axis=1, weights=w)


def test_l2_normalize_unit_norm_and_zero_error():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(4, 7)))
    y = tt.l2_normalize(x, axis=-1)
    assert np.allclose(np.linalg.norm(y.data, axis=-1), 1.0, atol=1e-12)
    with pytest.raises(tt.NumericError):
        tt.l2_normalize(Tensor(np.zeros((1, 3))), axis=-1)


def test_mse_and_bce_values():
    a = Tensor([1.0, 2.0])
    b = Tensor([2.0, 4.0])
    assert abs(tt.mse(a, b).item() - 2.5) <= 1e-15
    p = Tensor([0.5, 0.5])
    y = Tensor([1.0, 0.0])
    assert abs(tt.bce(p, y).item() - np.log(2.0)) <= 1e-12


def test_layernorm_forward_matches_manual():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 3, 5))
    g = rng.normal(size=5)
    b = rng.normal(size=5)
    out = tt.layernorm(Tensor(x), Tensor(g), Tensor(b), eps=1e-6).data
    mu = x.mean(-1, keepdims=True)
    var = x.var(-1, keepdims=True)
    want = (x - mu) / np.sqrt(var + 1e-6) * g + b
    assert np.allclose(out, want, atol=1e-12)


def test_gather_rows_and_scatter_identity():
    table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    idx = np.array([[0, 2], [3, 2]])
    out = tt.gather_rows(table, idx)
    assert out.shape == (2, 2, 3)
    assert np.allclose(out.data[1, 0], [9, 10, 11])
    # gathering each row once and summing gives ones gradient (scatter identity)
    loss = tt.sum_(tt.gather_rows(table, np.arange(4)))
    loss.backward()
    assert np.allclose(table.grad, 1.0)


def test_gather_rows_out_of_range():
    table = Tensor(np.zeros((3, 2)))
    with pytest.raises(tt.ShapeError):
        tt.gather_rows(table, np.array([3]))


def test_narrow_and_concat_roundtrip():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(2, 5, 3)))
    a = tt.narrow(x, 1, 0, 2)
    b = tt.narrow(x, 1, 2, 3)
    back = tt.concat([a, b], axis=1)
    assert np.array_equal(back.data, x.data)
    with pytest.raises(tt.ShapeError):
        tt.narrow(x, 1, 4, 3)


def test_determinism_same_inputs_same_bits():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(4, 4))

    def run():
        t = Tensor(x)
        return tt.softmax(tt.matmul(t, Tensor(w)), axis=-1).data

    assert np.array_equal(run(), run())


# ---------------------------------------------------------------------------
# tape behavior
# ---------------------------------------------------------------------------


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = tt.mul(x, x)
    with pytest.raises(tt.ShapeError):
        y.backward()


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    tt.sum_(x).backward()
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_quadratic():
    x = Tensor(np.arange(5.0), requires_grad=True)
    tt.sum_(tt.mul(x, x)).backward()
    assert np.allclose(x.grad, 2 * x.data)


def test_backward_accumulates_until_cleared():
    x = Tensor(np.ones(3), requires_grad=True)
    loss = lambda: tt.sum_(tt.mul(x, x))
    loss().backward()
    loss().backward()
    assert np.allclose(x.grad, 4.0)  # 2x accumulated twice
    x.zero_grad()
    loss().backward()
    assert np.allclose(x.grad, 2.0)


def test_disconnected_leaf_has_zero_grad():
    x = Tensor(np.ones(2), requires_grad=True)
    y = Tensor(np.ones(2), requires_grad=True)
    tt.sum_(tt.mul(x, x)).backward()
    assert np.array_equal(y.grad, np.zeros(2))


_TABLE = {"w": ((3, 2), 0.5), "b": ((2,), tt.ZEROS), "g": ((2,), tt.ONES),
          "v": ((4,), 2.0)}


def test_init_parameters_draw_in_table_order_into_one_flat_leaf():
    flat, params = tt.init_parameters(_TABLE, np.random.default_rng(4))
    rng = np.random.default_rng(4)
    want = {"w": rng.normal(0.0, 0.5, size=(3, 2)), "b": np.zeros(2),
            "g": np.ones(2), "v": rng.normal(0.0, 2.0, size=(4,))}
    assert flat.shape == (tt.table_size(_TABLE),) == (14,) and flat.requires_grad
    assert list(params) == list(_TABLE)
    assert np.array_equal(flat.data, np.concatenate(list(want.values()), axis=None))
    for k, p in params.items():
        assert np.array_equal(p.data, want[k]) and p.requires_grad
        assert np.shares_memory(p.data, flat.data) and np.shares_memory(p.grad, flat.grad)


def test_named_gradients_accumulate_into_the_flat_buffer():
    flat, params = tt.flat_parameters(_TABLE, np.arange(14.0))
    loss = tt.add(tt.sum_(tt.mul(params["w"], 3.0)), tt.sum_(params["v"]))
    loss.backward()
    loss.backward()
    assert np.array_equal(flat.grad, [6.0] * 6 + [0.0] * 4 + [2.0] * 4)
    flat.zero_grad()
    assert not params["w"].grad.any() and not params["v"].grad.any()


def test_flat_parameters_adopt_the_values_and_check_them_once():
    values = np.arange(14.0)
    flat, params = tt.flat_parameters(_TABLE, values)
    assert flat.data is values
    assert np.array_equal(params["g"].data, [8.0, 9.0])
    with pytest.raises(tt.ShapeError):
        tt.flat_parameters(_TABLE, np.zeros(13))
    values[-1] = np.inf
    with pytest.raises(tt.NumericError):
        tt.flat_parameters(_TABLE, values)


def test_layout_digest_names_the_arrangement():
    pairs = [(k, shape) for k, (shape, _) in _TABLE.items()]
    digest = tt.layout_digest(pairs)
    assert len(digest) == 16 and int(digest, 16) >= 0
    assert tt.layout_digest(iter(pairs)) == digest
    # as many values, another arrangement: another name
    assert tt.layout_digest(pairs[::-1]) != digest
    assert tt.layout_digest([("w", (2, 3))] + pairs[1:]) != digest
    assert tt.layout_digest([("w2", (3, 2))] + pairs[1:]) != digest


def test_shared_node_gradient_fans_in():
    x = Tensor([3.0], requires_grad=True)
    y = tt.mul(x, x)
    z = tt.add(y, y)  # z = 2x^2, dz/dx = 4x = 12
    z.backward()
    assert np.allclose(x.grad, [12.0])


def test_no_grad_builds_no_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with tt.no_grad():
        y = tt.mul(x, x)
    assert not y.requires_grad
    assert y._parents == ()


def test_no_grad_is_per_thread():
    """A no_grad block held open in another thread leaves this thread
    recording, and this thread's block does not leak into that one."""
    entered, release = threading.Event(), threading.Event()
    seen = {}

    def worker():
        with tt.no_grad():
            entered.set()
            release.wait(5)
            seen["inside"] = tt.mul(tt.parameter(np.ones(2)), 2.0).requires_grad
        seen["after"] = tt.mul(tt.parameter(np.ones(2)), 2.0).requires_grad

    th = threading.Thread(target=worker)
    th.start()
    assert entered.wait(5)
    assert tt.add(tt.parameter(np.ones(2)), 1.0).requires_grad
    with tt.no_grad():
        release.set()
        th.join(5)
        assert not th.is_alive()
        assert not tt.add(tt.parameter(np.ones(2)), 1.0).requires_grad
    assert tt.add(tt.parameter(np.ones(2)), 1.0).requires_grad
    assert seen == {"inside": False, "after": True}


def test_two_layer_network_fd():
    rng = np.random.default_rng(21)
    x = Tensor(rng.normal(size=(4, 3)))
    w1 = leaf(rng, 3, 5)
    b1 = leaf(rng, 5)
    w2 = leaf(rng, 5, 2)

    def f():
        h = tt.gelu(tt.linear(x, w1, b1))
        return tt.mse(tt.matmul(h, w2), Tensor(np.ones((4, 2))))

    check_grads(f, [w1, b1, w2])


# ---------------------------------------------------------------------------
# finite-difference checks, one per primitive (the wide sweep lives in the
# acceptance suite)
# ---------------------------------------------------------------------------


def test_fd_add_mul_div():
    rng = np.random.default_rng(31)
    a, b = leaf(rng, 3, 4), leaf(rng, 3, 4)
    c = Tensor(rng.normal(size=(3, 4)) + 3.0, requires_grad=True)  # away from 0
    check_grads(lambda: tt.sum_(tt.mul(tt.add(a, b), b)), [a, b])
    check_grads(lambda: tt.sum_(tt.div(a, c)), [a, c])


def test_fd_broadcast_add_mul():
    rng = np.random.default_rng(32)
    a = leaf(rng, 2, 3, 4)
    b = leaf(rng, 1, 3, 1)
    check_grads(lambda: tt.sum_(tt.mul(tt.add(a, b), a)), [a, b])


def test_fd_matmul_batched():
    rng = np.random.default_rng(33)
    a = leaf(rng, 2, 3, 4)
    b = leaf(rng, 2, 4, 5)
    check_grads(lambda: tt.sum_(tt.matmul(a, b)), [a, b])
    # broadcast on the stack dim
    c = leaf(rng, 4, 5)
    check_grads(lambda: tt.sum_(tt.matmul(a, c)), [a, c])


def test_fd_softmax_exp_log_sigmoid_gelu():
    rng = np.random.default_rng(34)
    x = leaf(rng, 2, 5)
    w = Tensor(rng.normal(size=(2, 5)))
    check_grads(lambda: tt.sum_(tt.mul(tt.softmax(x, axis=-1), w)), [x])
    pos = Tensor(np.abs(rng.normal(size=(2, 5))) + 0.5, requires_grad=True)
    check_grads(lambda: tt.sum_(tt.log(pos)), [pos])
    check_grads(lambda: tt.sum_(tt.sigmoid(x)), [x])
    check_grads(lambda: tt.sum_(tt.gelu(x)), [x])


def test_fd_layernorm_l2norm():
    rng = np.random.default_rng(35)
    x = leaf(rng, 2, 3, 6)
    g = leaf(rng, 6)
    b = leaf(rng, 6)
    w = Tensor(rng.normal(size=(2, 3, 6)))
    check_grads(lambda: tt.sum_(tt.mul(tt.layernorm(x, g, b), w)), [x, g, b])
    y = leaf(rng, 3, 4)
    check_grads(lambda: tt.sum_(tt.mul(tt.l2_normalize(y, axis=-1), Tensor(w.data[0, :, :4]))), [y])


def test_fd_structure_ops():
    rng = np.random.default_rng(36)
    x = leaf(rng, 2, 4, 3)
    w = Tensor(rng.normal(size=(2, 4, 3)))
    check_grads(lambda: tt.sum_(tt.mul(tt.reshape(tt.transpose(x, (1, 0, 2)), (2, 4, 3)), w)), [x])
    check_grads(lambda: tt.sum_(tt.mul(tt.concat([tt.narrow(x, 1, 0, 1), tt.narrow(x, 1, 1, 3)], 1), w)), [x])
    table = leaf(rng, 5, 3)
    idx = np.array([[0, 2, 2], [4, 1, 0]])
    check_grads(lambda: tt.sum_(tt.gather_rows(table, idx)), [table])


def test_fd_composite_losses():
    rng = np.random.default_rng(37)
    a, b = leaf(rng, 3, 4), leaf(rng, 3, 4)
    check_grads(lambda: tt.mse(a, b), [a, b])
    logits = leaf(rng, 6)
    y = Tensor((rng.random(6) > 0.5).astype(float))
    check_grads(lambda: tt.bce(tt.sigmoid(logits), y), [logits])
    q = leaf(rng, 2, 2, 3, 4)
    k = leaf(rng, 2, 2, 5, 4)
    w = Tensor(rng.normal(size=(2, 2, 3, 5)))
    scale = 1.0 / (0.4 * np.sqrt(4))
    check_grads(lambda: tt.sum_(tt.mul(tt.mul(tt.matmul(q, tt.swap_last(k)), scale), w)),
                [q, k])
    v = leaf(rng, 2, 2, 5, 3)
    w = Tensor(w.data[..., :3])
    check_grads(lambda: tt.sum_(tt.mul(tt.attention(q, k, v), w)), [q, k, v])
    bias = Tensor(rng.normal(size=(2, 1, 1, 5)))
    check_grads(lambda: tt.sum_(tt.mul(tt.attention(q, k, v, bias), w)),
                [q, k, v])
    hidden = _padding_bias(2, 5, [1, 3])
    check_grads(lambda: tt.sum_(tt.mul(tt.attention(q, k, v, hidden), w)),
                [q, k, v])
    x = leaf(rng, 2, 5, 3)
    wt = Tensor(np.abs(rng.normal(size=(2, 5, 1))) + 0.1, requires_grad=True)
    check_grads(lambda: tt.sum_(tt.weighted_mean_pool(x, axis=1, weights=wt)), [x, wt])
