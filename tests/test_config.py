"""Run-configuration parsing: strict keys, exact types, conditional defaults."""

import pytest

from avcl import config as cf
from avcl import data as dt


def _parse(text: str) -> cf.RunConfig:
    return cf.parse_config(text)


# ---------------------------------------------------------------------------
# defaults and strategy-conditional fills


def test_minimal_config_takes_documented_defaults():
    cfg = _parse("[train]\nstrategy = er\n")
    assert cfg.data == dt.DataConfig()
    assert cfg.model.embed_dim == 32 and cfg.model.mask_prob == 0.8
    assert cfg.train.lr == 1e-4 and cfg.train.batch == 8
    assert cfg.train.epochs == 3 and cfg.train.memory_capacity == 64
    assert cfg.eval.ks == (1, 5, 10)


@pytest.mark.parametrize("strategy,expect", [
    ("finetune", dict(alpha=None, beta=None, rho_audio=None, chunk_size=None,
                      memory_capacity=0)),
    ("er", dict(alpha=None, beta=None, rho_audio=None, chunk_size=None,
                memory_capacity=64)),
    ("derpp", dict(alpha=0.5, beta=None, rho_audio=None, chunk_size=None,
                   memory_capacity=64)),
    ("random_select", dict(alpha=0.5, beta=None, rho_audio=0.5, chunk_size=4,
                           memory_capacity=64)),
    ("stella", dict(alpha=0.5, beta=0.4, rho_audio=0.5, chunk_size=4,
                    memory_capacity=64)),
    ("stella_plus", dict(alpha=None, beta=0.4, rho_audio=0.5, chunk_size=4,
                         memory_capacity=64)),
])
def test_strategy_conditional_defaults(strategy, expect):
    cfg = _parse(f"[train]\nstrategy = {strategy}\n")
    for key, val in expect.items():
        assert getattr(cfg.train, key) == val, key
    assert cfg.train.rho_video == expect["rho_audio"]


def test_explicit_values_override_defaults():
    cfg = _parse("[train]\nstrategy = stella\nalpha = 0.25\nbeta = 1.0\n"
                 "rho_audio = 0.75\nrho_video = 0.3\nchunk_size = 2\n"
                 "memory_capacity = 10\nlr = 0.001\n")
    t = cfg.train
    assert (t.alpha, t.beta, t.rho_audio, t.rho_video) == (0.25, 1.0, 0.75, 0.3)
    assert (t.chunk_size, t.memory_capacity) == (2, 10)
    assert t.lr == 0.001


def test_geometry_keys_build_the_scene_geometry():
    cfg = _parse("[data]\naudio_time_bins = 32\naudio_freq_bins = 8\n"
                 "audio_patch = 4\nvideo_frames = 2\nvideo_height = 16\n"
                 "video_width = 24\nvideo_patch = 8\n"
                 "[train]\nstrategy = er\n")
    g = cfg.data.geometry
    assert (g.audio.time_bins, g.audio.freq_bins, g.audio.patch) == (32, 8, 4)
    assert (g.video.frames, g.video.height, g.video.width, g.video.patch) \
        == (2, 16, 24, 8)


def test_comments_and_blank_lines_are_ignored():
    cfg = _parse("# leading comment\n[train]\n\nstrategy = er  # inline\n"
                 "# another\nbatch = 4\n")
    assert cfg.train.strategy == "er" and cfg.train.batch == 4


# ---------------------------------------------------------------------------
# rejections


@pytest.mark.parametrize("text,fragment", [
    ("[train]\nstrategy = er\n[mystery]\nx = 1\n", "unknown section"),
    ("[train]\nstrategy = er\nwidgets = 3\n", "unknown key"),
    ("[data]\nnum_tasks = 2\n", "strategy is required"),
    ("[train]\nstrategy = warp\n", "unknown strategy"),
    ("[train]\nstrategy = er\nbatch = 2.5\n", "expected an integer"),
    ("[train]\nstrategy = er\nbatch = four\n", "expected an integer"),
    ("[train]\nstrategy = er\nlr = fast\n", "expected a number"),
    ("[train]\nstrategy = er\nlr = nan\n", "finite"),
    ("[train]\nstrategy = er\nlr = inf\n", "finite"),
    ("[DEFAULT]\nbatch = 2\n[train]\nstrategy = er\n", "DEFAULT"),
    ("[train]\nstrategy = er\nbatch = 2\nbatch = 3\n", "malformed"),
    ("[train]\nstrategy = er\nalpha = 0.5\n", "does not use alpha"),
    ("[train]\nstrategy = derpp\nbeta = 0.4\n", "does not use beta"),
    ("[train]\nstrategy = finetune\nmemory_capacity = 4\n", "finetune"),
    ("[data]\naudio_patch = 5\n[train]\nstrategy = er\n", "divide"),
    ("[model]\nembed_dim = 30\n[train]\nstrategy = er\n", "multiple"),
    ("[train]\nstrategy = er\n[eval]\nks = 5,1\n", "ascending"),
    ("[train]\nstrategy = er\n[eval]\nks = 1,1,5\n", "ascending"),
    ("[train]\nstrategy = er\n[eval]\nks = 0,5\n", "positive"),
    ("[train]\nstrategy = er\n[eval]\nks = 1,5,100\n", "exceeds eval_pairs"),
    ("[train]\nstrategy = er\n[eval]\nks = 1;5\n", "comma-separated"),
])
def test_bad_configs_are_rejected(text, fragment):
    with pytest.raises(cf.ConfigError, match=fragment):
        _parse(text)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(cf.ConfigError, match="cannot read"):
        cf.load_config(tmp_path / "nope.ini")


# ---------------------------------------------------------------------------
# rendering round trip


@pytest.mark.parametrize("strategy", ["finetune", "er", "derpp",
                                      "random_select", "stella", "stella_plus"])
def test_render_round_trips_resolved_config(strategy):
    cfg = _parse(f"[train]\nstrategy = {strategy}\nbatch = 4\n"
                 "[model]\nlayernorm_eps = 1e-06\n[eval]\nks = 1,2\n")
    text = cf.render_config(cfg)
    assert cf.parse_config(text) == cfg
    assert cf.render_config(cf.parse_config(text)) == text  # stable


_RENDERED_HEAD = """\
[data]
num_tasks = 4
classes_per_task = 5
train_pairs = 256
eval_pairs = 64
correlation = 1.0
noise_std = 1.0
amplitude = 3.0
seed = 1
audio_time_bins = 64
audio_freq_bins = 16
audio_patch = 4
video_frames = 4
video_height = 32
video_width = 32
video_patch = 8

[model]
embed_dim = 32
heads = 4
encoder_layers = 2
fusion_layers = 1
decoder_layers = 1
mlp_ratio = 2
mask_prob = 0.8
temperature = 0.07
contrastive_weight = 0.1
layernorm_eps = 1e-06

[train]
strategy = {strategy}
lr = 0.0001
batch = 8
epochs = 3
memory_capacity = {capacity}
"""
_RENDERED_TAIL = """\
train_seed = 0

[eval]
ks = 1,5,10
"""
_SELECTING = "rho_audio = 0.5\nrho_video = 0.5\nchunk_size = 4\n"


@pytest.mark.parametrize("strategy,capacity,knobs", [
    ("finetune", 0, ""),
    ("er", 64, ""),
    ("derpp", 64, "alpha = 0.5\n"),
    ("random_select", 64, "alpha = 0.5\n" + _SELECTING),
    ("stella", 64, "alpha = 0.5\nbeta = 0.4\n" + _SELECTING),
    ("stella_plus", 64, "beta = 0.4\n" + _SELECTING),
])
def test_rendered_defaults_are_pinned(strategy, capacity, knobs):
    """The rendered text is the run directory's resume key: a reordered or
    renamed config field would make existing run directories refuse to
    resume, so the exact text is pinned."""
    want = (_RENDERED_HEAD.format(strategy=strategy, capacity=capacity)
            + knobs + _RENDERED_TAIL)
    text = cf.render_config(_parse(f"[train]\nstrategy = {strategy}\n"))
    assert text == want


def test_render_omits_unset_optional_knobs():
    text = cf.render_config(_parse("[train]\nstrategy = er\n"))
    assert "alpha" not in text and "beta" not in text
    assert "rho_audio" not in text and "chunk_size" not in text


def test_save_and_load_config(tmp_path):
    cfg = _parse("[train]\nstrategy = stella\n")
    cf.save_config(tmp_path / "c.ini", cfg)
    assert cf.load_config(tmp_path / "c.ini") == cfg
