"""The fused Adam step against the per-parameter loop it replaces."""

import numpy as np
import pytest

import avcl.avm as av
import avcl.backbone as bb
import avcl.data as dd
import avcl.tensor as tt
from avcl.optim import Adam, zero_moments

GEOM = dd.SceneGeometry(
    audio=dd.AudioGeometry(time_bins=16, freq_bins=8, patch=4),
    video=dd.VideoGeometry(frames=2, height=16, width=16, patch=8),
)
CFG = bb.BackboneConfig(embed_dim=16, heads=2, encoder_layers=1,
                        fusion_layers=1, decoder_layers=1)


def _reference_step(data, grads, m, v, t, lr, beta1=0.95, beta2=0.999, eps=1e-8):
    """One Adam step as a loop over named parameters, one moment array per
    parameter and kind, each replaced rather than updated."""
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for k, g in grads.items():
        m[k] = beta1 * m[k] + (1.0 - beta1) * g
        v[k] = beta2 * v[k] + (1.0 - beta2) * g * g
        mhat = m[k] / c1
        vhat = v[k] / c2
        data[k] = data[k] - lr * mhat / (np.sqrt(vhat) + eps)


def _module(name, rng):
    if name == "backbone":
        return bb.init_backbone(CFG, GEOM, rng), bb.param_table(CFG, GEOM)
    return av.init_avm(CFG, rng), av.param_table(CFG)


@pytest.mark.parametrize("module", ["backbone", "avm"])
@pytest.mark.parametrize("warm", [False, True])
def test_fused_step_matches_the_per_parameter_loop(module, warm):
    rng = np.random.default_rng(11)
    part, table = _module(module, rng)
    params = part.params
    assert list(params) == list(table)
    lr = 1e-3
    data = {k: p.data.copy() for k, p in params.items()}
    m, v = zero_moments(part.flat)
    ref_m = {k: np.zeros(p.shape) for k, p in params.items()}
    ref_v = {k: np.zeros(p.shape) for k, p in params.items()}
    if warm:  # a restored run's moments
        for k, p in params.items():
            ref_m[k] = rng.normal(0.0, 1e-2, p.shape)
            ref_v[k] = rng.normal(0.0, 1e-2, p.shape) ** 2
        m = np.concatenate([ref_m[k] for k in table], axis=None)
        v = np.concatenate([ref_v[k] for k in table], axis=None)
    opt = Adam(part.flat, m, v, lr=lr)
    opt.step_count = 7 * warm
    for t in range(opt.step_count + 1, opt.step_count + 7):
        grads = {k: rng.normal(0.0, rng.choice([1e-6, 1.0, 1e3]), p.shape)
                 for k, p in params.items()}
        grads[next(iter(grads))][...] = 0.0  # a leaf the loss did not reach
        for k, p in params.items():
            p.grad[...] = grads[k]
        opt.step()
        _reference_step(data, grads, ref_m, ref_v, t, lr)
        for k, p in params.items():
            assert np.array_equal(p.data, data[k]), (t, k)
            # updated in place: still views of the module's flat buffers
            assert np.shares_memory(p.data, part.flat.data), (t, k)
            assert np.shares_memory(p.grad, part.flat.grad), (t, k)
    arrays = opt.named_arrays(f"opt/{module}")
    assert list(arrays) == [f"opt/{module}/m", f"opt/{module}/v"]
    total = sum(int(np.prod(shape)) for shape, _ in table.values())
    assert arrays[f"opt/{module}/m"] is m and arrays[f"opt/{module}/v"] is v
    assert m.shape == v.shape == (total,)
    assert np.array_equal(m, np.concatenate([ref_m[k] for k in table], axis=None))
    assert np.array_equal(v, np.concatenate([ref_v[k] for k in table], axis=None))


def test_zero_moments_are_two_flat_arrays():
    m, v = zero_moments(tt.parameter(np.ones(10)))
    assert m.shape == v.shape == (10,) and m is not v
    assert not m.any() and not v.any()


def test_zero_grad_clears_every_named_gradient():
    part, _ = _module("backbone", np.random.default_rng(3))
    opt = Adam(part.flat, *zero_moments(part.flat))
    for p in part.params.values():
        p.grad[...] = 1.0
    assert part.flat.grad.all()
    opt.zero_grad()
    assert not part.flat.grad.any()
    assert not any(p.grad.any() for p in part.params.values())
