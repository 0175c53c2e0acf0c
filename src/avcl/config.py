"""Sectioned run configuration: strict keys, exact types, documented defaults.

A run file is flat INI-style text with four sections, one per field of
:class:`RunConfig`::

    [data]    synthetic generator and geometry knobs   -> DataConfig
    [model]   backbone shape and objective weights     -> BackboneConfig
    [train]   continual strategy and its hyperknobs    -> TrainConfig
    [eval]    retrieval cutoffs                        -> EvalConfig

The dataclasses are the schema.  Each leaf field is one key, typed by its
annotation (``int``, ``float``, ``str``, an optional one of these, or
``tuple[int, ...]`` written as comma-separated integers), defaulting to the
field's default and rendered in field order.  A leaf of a nested dataclass
is keyed ``<enclosing field>_<field>``: ``DataConfig.geometry.audio.patch``
is ``audio_patch``.  Range checks live in the dataclasses' ``__post_init__``.

Every key is optional except ``train.strategy``.  Unknown sections or keys
are rejected, values are type-checked exactly (an ``int`` key rejects
``3.0``), and there is no value interpolation or environment lookup.
Knobs that the strategy's row of ``trainer.STRATEGIES`` requires but the
file omits take their defaults from ``trainer.STRATEGY_KNOBS``, and a
strategy that keeps no memory defaults ``memory_capacity`` to 0.  The fully
resolved configuration can be rendered back to text (and is written into
every run directory) so a run is reproducible from its artifacts alone.
"""

from __future__ import annotations

import configparser
import re
import typing
from dataclasses import dataclass, fields, is_dataclass

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

    def __post_init__(self):
        if any(k < 1 for k in self.ks) or list(self.ks) != sorted(set(self.ks)):
            raise ValueError(f"cutoffs must be positive and strictly "
                             f"ascending, got {self.ks}")


@dataclass(frozen=True)
class RunConfig:
    data: dt.DataConfig
    model: bb.BackboneConfig
    train: tr.TrainConfig
    eval: EvalConfig


_INT_RE = re.compile(r"[+-]?\d+")


def _fields(cls) -> list[tuple[str, type]]:
    """(name, resolved annotation) of each field of dataclass ``cls``."""
    hints = typing.get_type_hints(cls)
    return [(f.name, hints[f.name]) for f in fields(cls)]


def _keys(cls, prefix: str = "") -> dict[str, type]:
    """Key -> type of every leaf field of ``cls``, in field order."""
    out: dict[str, type] = {}
    for name, tp in _fields(cls):
        if is_dataclass(tp):
            out.update(_keys(tp, name + "_"))
        else:
            out[prefix + name] = tp
    return out


def _parse_value(where: str, tp, raw: str):
    raw = raw.strip()
    args = typing.get_args(tp)
    if type(None) in args:  # an optional knob is written as its set type
        (tp,) = (a for a in args if a is not type(None))
    if tp is int:
        if not _INT_RE.fullmatch(raw):
            raise ConfigError(f"{where}: expected an integer, got {raw!r}")
        return int(raw)
    if tp is float:
        try:
            val = float(raw)
        except ValueError:
            raise ConfigError(f"{where}: expected a number, got {raw!r}") from None
        if val != val or val in (float("inf"), float("-inf")):
            raise ConfigError(f"{where}: value must be finite, got {raw!r}")
        return val
    if typing.get_origin(tp) is tuple:
        parts = [p.strip() for p in raw.split(",")]
        if not all(_INT_RE.fullmatch(p) for p in parts):
            raise ConfigError(f"{where}: expected comma-separated integers, got {raw!r}")
        return tuple(int(p) for p in parts)
    return raw  # str


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
    schema = {name: _keys(cls) for name, cls in _fields(RunConfig)}
    out: dict[str, dict[str, object]] = {}
    for section in cp.sections():
        keys = schema.get(section)
        if keys is None:
            raise ConfigError(f"unknown section [{section}]")
        vals: dict[str, object] = {}
        for key, raw in cp.items(section):
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            vals[key] = _parse_value(f"[{section}] {key}", keys[key], raw)
        out[section] = vals
    return out


def _build(cls, vals: dict[str, object], prefix: str = ""):
    """``cls`` from flat ``vals``; a leaf with no value keeps its default."""
    kw = {}
    for name, tp in _fields(cls):
        if is_dataclass(tp):
            kw[name] = _build(tp, vals, name + "_")
        elif prefix + name in vals:
            kw[name] = vals[prefix + name]
    return cls(**kw)


def _train_values(vals: dict[str, object]) -> dict[str, object]:
    if "strategy" not in vals:
        raise ConfigError("[train] strategy is required")
    row = tr.STRATEGIES.get(vals["strategy"])  # None: TrainConfig rejects it
    kw = dict(vals)
    if row is not None:  # canonical defaults for what the file omits
        for name in row.knobs:
            kw.setdefault(name, tr.STRATEGY_KNOBS[name])
        if row.memory is None:
            kw.setdefault("memory_capacity", 0)
    return kw


def parse_config(text: str) -> RunConfig:
    sections = _read_sections(text)
    built = {}
    for name, cls in _fields(RunConfig):
        vals = sections.get(name, {})
        if name == "train":
            vals = _train_values(vals)
        try:
            built[name] = _build(cls, vals)
        except ValueError as exc:
            raise ConfigError(f"[{name}]: {exc}") from None
    cfg = RunConfig(**built)
    if max(cfg.eval.ks) > cfg.data.eval_pairs:
        raise ConfigError(f"[eval] ks: largest cutoff {max(cfg.eval.ks)} "
                          f"exceeds eval_pairs {cfg.data.eval_pairs}")
    chunk, num_time = cfg.train.chunk_size, cfg.data.geometry.audio.num_time
    if chunk is not None and chunk > num_time:
        raise ConfigError(f"[train] chunk_size {chunk} exceeds the audio "
                          f"grid's {num_time} time patches")
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


def _lines(obj, prefix: str = "") -> list[str]:
    """``key = value`` for every set leaf field of ``obj``, in field order."""
    out = []
    for f in fields(obj):
        val = getattr(obj, f.name)
        if is_dataclass(val):
            out += _lines(val, f.name + "_")
        elif isinstance(val, tuple):
            out.append(f"{prefix}{f.name} = " + ",".join(str(v) for v in val))
        elif val is not None:
            out.append(f"{prefix}{f.name} = "
                       + (repr(val) if isinstance(val, float) else str(val)))
    return out


def render_config(cfg: RunConfig) -> str:
    """Resolved configuration as parseable text; ``parse_config`` round-trips it."""
    return "\n\n".join("\n".join([f"[{f.name}]"] + _lines(getattr(cfg, f.name)))
                       for f in fields(cfg)) + "\n"


def save_config(path, cfg: RunConfig) -> None:
    with ckpt.atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(render_config(cfg))
