"""Sectioned run configuration: strict keys, exact types, documented defaults.

A run file is flat INI-style text with four sections::

    [data]    synthetic generator and geometry knobs   -> DataConfig
    [model]   backbone shape and objective weights     -> BackboneConfig
    [train]   continual strategy and its hyperknobs    -> TrainConfig
    [eval]    retrieval cutoffs                        -> EvalConfig

Every key is optional except ``train.strategy``; a missing key takes the
documented default below.  Unknown sections or keys are rejected, values are
type-checked exactly (an ``int`` key rejects ``3.0``), and there is no value
interpolation or environment lookup.  Strategy-conditional knobs that the
strategy requires but the file omits take the canonical defaults
``alpha = 0.5``, ``beta = 0.4``, ``rho_audio = rho_video = 0.5`` and
``chunk_size = 4``; ``finetune`` defaults ``memory_capacity`` to 0.  The
fully resolved configuration can be rendered back to text (and is written
into every run directory) so a run is reproducible from its artifacts alone.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import MISSING, dataclass, fields

from avcl import backbone as bb
from avcl import checkpoint as ckpt
from avcl import data as dt
from avcl import trainer as tr


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class EvalConfig:
    """Retrieval report cutoffs; recall is measured at each K."""

    ks: tuple[int, ...] = (1, 5, 10)


@dataclass(frozen=True)
class RunConfig:
    data: dt.DataConfig
    model: bb.BackboneConfig
    train: tr.TrainConfig
    eval: EvalConfig


# key -> type tag, per section; order here is the canonical render order
_DATA_KEYS = {
    "num_tasks": "int", "classes_per_task": "int", "train_pairs": "int",
    "eval_pairs": "int", "correlation": "float", "noise_std": "float",
    "amplitude": "float", "seed": "int",
    "audio_time_bins": "int", "audio_freq_bins": "int", "audio_patch": "int",
    "video_frames": "int", "video_height": "int", "video_width": "int",
    "video_patch": "int",
}
_MODEL_KEYS = {
    "embed_dim": "int", "heads": "int", "encoder_layers": "int",
    "fusion_layers": "int", "decoder_layers": "int", "mlp_ratio": "int",
    "mask_prob": "float", "temperature": "float",
    "contrastive_weight": "float", "layernorm_eps": "float",
}
_TRAIN_KEYS = {
    "strategy": "str", "lr": "float", "batch": "int", "epochs": "int",
    "memory_capacity": "int", "alpha": "float", "beta": "float",
    "rho_audio": "float", "rho_video": "float", "chunk_size": "int",
    "train_seed": "int",
}
_EVAL_KEYS = {"ks": "ks"}
_SCHEMA = {"data": _DATA_KEYS, "model": _MODEL_KEYS,
           "train": _TRAIN_KEYS, "eval": _EVAL_KEYS}

_GEOM_AUDIO = {"audio_time_bins": "time_bins", "audio_freq_bins": "freq_bins",
               "audio_patch": "patch"}
_GEOM_VIDEO = {"video_frames": "frames", "video_height": "height",
               "video_width": "width", "video_patch": "patch"}

_INT_RE = re.compile(r"[+-]?\d+")


def _parse_value(section: str, key: str, tag: str, raw: str):
    raw = raw.strip()
    where = f"[{section}] {key}"
    if tag == "int":
        if not _INT_RE.fullmatch(raw):
            raise ConfigError(f"{where}: expected an integer, got {raw!r}")
        return int(raw)
    if tag == "float":
        try:
            val = float(raw)
        except ValueError:
            raise ConfigError(f"{where}: expected a number, got {raw!r}") from None
        if val != val or val in (float("inf"), float("-inf")):
            raise ConfigError(f"{where}: value must be finite, got {raw!r}")
        return val
    if tag == "ks":
        parts = [p.strip() for p in raw.split(",")]
        if not all(_INT_RE.fullmatch(p) for p in parts):
            raise ConfigError(f"{where}: expected comma-separated integers, got {raw!r}")
        ks = tuple(int(p) for p in parts)
        if any(k < 1 for k in ks) or list(ks) != sorted(set(ks)):
            raise ConfigError(f"{where}: cutoffs must be positive and strictly "
                              f"ascending, got {raw!r}")
        return ks
    return raw  # "str"


def _read_sections(text: str) -> dict[str, dict[str, object]]:
    cp = configparser.ConfigParser(interpolation=None, strict=True,
                                   delimiters=("=",),
                                   inline_comment_prefixes=("#",))
    cp.optionxform = str  # keep key case; unknown-key checks stay exact
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    if cp.defaults():
        raise ConfigError("a [DEFAULT] section is not supported")
    out: dict[str, dict[str, object]] = {}
    for section in cp.sections():
        keys = _SCHEMA.get(section)
        if keys is None:
            raise ConfigError(f"unknown section [{section}]")
        vals: dict[str, object] = {}
        for key, raw in cp.items(section):
            tag = keys.get(key)
            if tag is None:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            vals[key] = _parse_value(section, key, tag, raw)
        out[section] = vals
    return out


def _defaults(cls) -> dict[str, object]:
    return {f.name: f.default for f in fields(cls)
            if f.name != "geometry" and f.default is not MISSING}


def _build_data(vals: dict[str, object]) -> dt.DataConfig:
    kw = _defaults(dt.DataConfig)
    audio = {f.name: f.default for f in fields(dt.AudioGeometry)}
    video = {f.name: f.default for f in fields(dt.VideoGeometry)}
    for key, val in vals.items():
        if key in _GEOM_AUDIO:
            audio[_GEOM_AUDIO[key]] = val
        elif key in _GEOM_VIDEO:
            video[_GEOM_VIDEO[key]] = val
        else:
            kw[key] = val
    try:
        geom = dt.SceneGeometry(dt.AudioGeometry(**audio),
                                dt.VideoGeometry(**video))
        return dt.DataConfig(geometry=geom, **kw)
    except ValueError as exc:
        raise ConfigError(f"[data]: {exc}") from None


def _build_model(vals: dict[str, object]) -> bb.BackboneConfig:
    kw = _defaults(bb.BackboneConfig)
    kw.update(vals)
    try:
        return bb.BackboneConfig(**kw)
    except ValueError as exc:
        raise ConfigError(f"[model]: {exc}") from None


def _build_train(vals: dict[str, object]) -> tr.TrainConfig:
    if "strategy" not in vals:
        raise ConfigError("[train] strategy is required")
    strat = vals["strategy"]
    kw = _defaults(tr.TrainConfig)
    kw.update(vals)
    # canonical defaults for knobs the strategy requires but the file omits
    if strat in tr.PENALIZED and "alpha" not in vals:
        kw["alpha"] = 0.5
    if strat in tr.SCORING and "beta" not in vals:
        kw["beta"] = 0.4
    if strat in tr.SELECTING:
        if "rho_audio" not in vals:
            kw["rho_audio"] = 0.5
        if "rho_video" not in vals:
            kw["rho_video"] = 0.5
        if "chunk_size" not in vals:
            kw["chunk_size"] = 4
    if strat == "finetune" and "memory_capacity" not in vals:
        kw["memory_capacity"] = 0
    try:
        return tr.TrainConfig(**kw)
    except ValueError as exc:
        raise ConfigError(f"[train]: {exc}") from None


def _build_eval(vals: dict[str, object], data: dt.DataConfig) -> EvalConfig:
    cfg = EvalConfig(**vals) if vals else EvalConfig()
    if max(cfg.ks) > data.eval_pairs:
        raise ConfigError(f"[eval] ks: largest cutoff {max(cfg.ks)} exceeds "
                          f"eval_pairs {data.eval_pairs}")
    return cfg


def parse_config(text: str) -> RunConfig:
    sections = _read_sections(text)
    data = _build_data(sections.get("data", {}))
    model = _build_model(sections.get("model", {}))
    train = _build_train(sections.get("train", {}))
    evalc = _build_eval(sections.get("eval", {}), data)
    return RunConfig(data, model, train, evalc)


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


def _fmt(val) -> str:
    return repr(val) if isinstance(val, float) else str(val)


def render_config(cfg: RunConfig) -> str:
    """Resolved configuration as parseable text; ``parse_config`` round-trips it."""
    d, g = cfg.data, cfg.data.geometry
    lines = ["[data]"]
    for key in _DATA_KEYS:
        if key in _GEOM_AUDIO:
            val = getattr(g.audio, _GEOM_AUDIO[key])
        elif key in _GEOM_VIDEO:
            val = getattr(g.video, _GEOM_VIDEO[key])
        else:
            val = getattr(d, key)
        lines.append(f"{key} = {_fmt(val)}")
    lines += ["", "[model]"]
    lines += [f"{key} = {_fmt(getattr(cfg.model, key))}" for key in _MODEL_KEYS]
    lines += ["", "[train]"]
    for key in _TRAIN_KEYS:
        val = getattr(cfg.train, key)
        if val is not None:
            lines.append(f"{key} = {_fmt(val)}")
    lines += ["", "[eval]"]
    lines.append("ks = " + ",".join(str(k) for k in cfg.eval.ks))
    return "\n".join(lines) + "\n"


def save_config(path, cfg: RunConfig) -> None:
    with ckpt.atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(render_config(cfg))
