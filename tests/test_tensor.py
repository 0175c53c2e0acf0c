"""Tensor engine: forward values, gradient tape, finite-difference oracles."""

import threading

import numpy as np
import pytest

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
    x = Tensor([710.0])  # exp -> ~1.8e308, overflows float64
    with pytest.raises(tt.NumericError):
        tt.exp(x)


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
    out = tt.attention_logits(Tensor(q), Tensor(q.copy()), beta=1.0)
    assert np.allclose(out.data, 0.5, atol=1e-15)
    # orthogonal -> 0
    k = np.zeros((1, 1, 1, 4))
    k[..., 1] = 1.0
    out = tt.attention_logits(Tensor(q), Tensor(k), beta=1.0)
    assert np.allclose(out.data, 0.0, atol=1e-15)


def test_attention_logits_beta_is_pure_rescale():
    rng = np.random.default_rng(3)
    q = Tensor(rng.normal(size=(2, 2, 5, 8)))
    k = Tensor(rng.normal(size=(2, 2, 7, 8)))
    base = tt.attention_logits(q, k, beta=1.0)
    for beta in (0.4, 0.1, 2.5):
        scaled = tt.attention_logits(q, k, beta=beta)
        assert np.allclose(scaled.data, base.data / beta, rtol=0, atol=1e-12)


def test_attention_logits_brute_force_oracle():
    rng = np.random.default_rng(11)
    B, H, N, M, d = 2, 2, 3, 4, 8
    q = rng.normal(size=(B, H, N, d))
    k = rng.normal(size=(B, H, M, d))
    beta = 0.4
    out = tt.attention_logits(Tensor(q), Tensor(k), beta=beta).data
    for b in range(B):
        for h in range(H):
            for i in range(N):
                for j in range(M):
                    want = sum(q[b, h, i, t] * k[b, h, j, t] for t in range(d))
                    want /= beta * np.sqrt(d)
                    assert abs(out[b, h, i, j] - want) <= 1e-12


def test_weighted_mean_pool_values():
    x = Tensor(np.array([[2.0, 4.0, 6.0]]))
    out = tt.weighted_mean_pool(x, axis=1)
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
    b = tt.weighted_mean_pool(x, axis=1)
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
    check_grads(lambda: tt.sum_(tt.exp(x)), [x])
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
    check_grads(lambda: tt.sum_(tt.mul(tt.attention_logits(q, k, beta=0.4), w)), [q, k])
    x = leaf(rng, 2, 5, 3)
    wt = Tensor(np.abs(rng.normal(size=(2, 5, 1))) + 0.1, requires_grad=True)
    check_grads(lambda: tt.sum_(tt.weighted_mean_pool(x, axis=1, weights=wt)), [x, wt])
