"""The config schema, derived from the config dataclasses.

Section `data` holds the fields of SynthConfig plus `preset` (a named
base config) and `dir` (a dataset directory written by `gen`); `train`
the fields of TrainConfig with those of its LossConfig inlined, plus
`grid` (GridConfig); `eval` the fields of EvalOptions. Each value is
coerced by its field's type hint (README, "Config schema") or rejected
with a ConfigError naming `section.key`. Range checks stay with the
dataclasses. config_dict is the serializer for all of them.
"""

from __future__ import annotations

import enum
import functools
import numbers
import re
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError
from .objectives import LossConfig, Strategy
from .synthdata import SynthConfig, preset

# PyYAML resolves scalars by YAML 1.1, which needs a dot and a signed
# exponent; real fields read the YAML 1.2 form, so 5e-2 is a number.
_YAML12_FLOAT = re.compile(r"[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)([eE][-+]?[0-9]+)?")


@dataclass(frozen=True)
class TrainConfig:
    strategy: Strategy = Strategy.UNICAT
    p: int = 8
    k: int = 4
    lr_base: float = 0.05
    momentum: float = 0.9
    epochs: int = 200
    warmup_epochs: int = 10
    loss: LossConfig = field(default_factory=LossConfig)
    hidden_dims: tuple[int, ...] = (64,)
    embed_dim: int = 32
    seed: int = 0

    def validate(self) -> None:
        if self.p < 2 or self.k < 2:
            raise ConfigError(f"P >= 2 and K >= 2 required for triplets, got P={self.p}, K={self.k}")
        if self.lr_base <= 0 or not np.isfinite(self.lr_base):
            raise ConfigError(f"lr_base must be finite and > 0, got {self.lr_base}")
        if not (0 <= self.momentum < 1):
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not (0 <= self.warmup_epochs < self.epochs):
            raise ConfigError(
                f"warmup_epochs must satisfy 0 <= warmup < epochs, got {self.warmup_epochs} vs {self.epochs}"
            )
        if self.embed_dim < 1 or any(d < 1 for d in self.hidden_dims):
            raise ConfigError("layer widths must be >= 1")

    @property
    def batch_size(self) -> int:
        return self.p * self.k


@dataclass
class GridConfig:
    """train.grid; grid_search rejects an empty list."""

    batch_sizes: tuple[int, ...] = ()
    lr_values: tuple[float, ...] = ()


@dataclass
class EvalOptions:
    exclude_same_view: bool = False
    max_rank: int = 50  # cmc_map rejects max_rank < 1
    views_as_query: int = 2
    seed: int = 0
    normalize_first: Optional[bool] = None

    def __post_init__(self):
        if self.views_as_query < 1:
            raise ConfigError(f"eval.views_as_query must be >= 1, got {self.views_as_query}")


def _int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(name: str, value) -> float:
    if isinstance(value, str) and _YAML12_FLOAT.fullmatch(value):
        return float(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or abs(value) > sys.float_info.max:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _exact(kind: type, what: str, name: str, value):
    if not isinstance(value, kind):
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return value


def _member(kind: type, name: str, value):
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"{name} must be one of {[m.value for m in kind]}, got {value!r}") from None


def _list(rule, name: str, value) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return tuple(rule(name, v) for v in value)


def _one_or_list(rule, name: str, value):
    return _list(rule, name, value) if isinstance(value, (list, tuple)) else rule(name, value)


_str = functools.partial(_exact, str, "a string")
_SCALARS = {
    int: _int,
    float: _real,
    bool: functools.partial(_exact, bool, "true or false"),
    Optional[bool]: functools.partial(_exact, (bool, type(None)), "true, false or null"),
    str: _str,
}


def _rule(hint):
    """The coercion for one type hint: (name, value) -> typed value."""
    if hint in _SCALARS:
        return _SCALARS[hint]
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return functools.partial(_member, hint)
    origin, args = get_origin(hint), get_args(hint)
    if origin is tuple and args[1:] == (Ellipsis,):
        return functools.partial(_list, _rule(args[0]))
    if origin is Union and get_origin(args[1]) is Sequence:  # Union[X, Sequence[X]]
        return functools.partial(_one_or_list, _rule(args[0]))
    raise TypeError(f"no config rule for type {hint!r}")


def _rules(cls) -> dict:
    """key -> rule for each field of a config dataclass, inlining dataclass-typed fields."""
    rules = {}
    for name, hint in get_type_hints(cls).items():
        rules.update(_rules(hint) if is_dataclass(hint) else {name: _rule(hint)})
    return rules


# section -> key -> rule; a nested mapping (train.grid) maps to its own dict.
SCHEMA = {
    "data": {**_rules(SynthConfig), "preset": _str, "dir": _str},
    "train": {**_rules(TrainConfig), "grid": _rules(GridConfig)},
    "eval": _rules(EvalOptions),
}


def validate_config(node: dict, rules: dict = SCHEMA, where: str = "config") -> None:
    """Reject unknown keys and non-mappings (null is absent); values are checked when read."""
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = sorted(set(node) - set(rules), key=str)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}; allowed: {sorted(rules)}")
    for key, sub in rules.items():
        if isinstance(sub, dict) and node.get(key) is not None:
            validate_config(node[key], sub, key if where == "config" else f"{where}.{key}")


def _read(node: dict, rules: dict, where: str) -> dict:
    out = {}
    for key, value in node.items():
        rule, name = rules[key], f"{where}.{key}"
        if not isinstance(rule, dict):
            out[key] = rule(name, value)
        elif value is not None:
            out[key] = _read(value, rule, name)
    return out


def read_section(cfg: dict, section: str) -> dict:
    """The typed values one section of a validated config gives."""
    return _read(cfg.get(section) or {}, SCHEMA[section], section)


def synth_config(data: dict) -> SynthConfig:
    """SynthConfig from typed data values: a preset with fields replaced, or fields alone."""
    if not data:
        raise ConfigError("config needs a data section (preset/fields or dir)")
    values = dict(data)
    name = values.pop("preset", None)
    cfg = SynthConfig(**values) if name is None else replace(preset(name, values.pop("seed", 0)), **values)
    cfg.validate()
    return cfg


def train_config(cfg: dict) -> tuple[TrainConfig, Optional[GridConfig]]:
    """The train section of a validated config, and its grid if it has one."""
    values = read_section(cfg, "train")
    grid = values.pop("grid", None)
    loss = LossConfig(**{k: values.pop(k) for k in _rules(LossConfig) if k in values})
    tcfg = TrainConfig(loss=loss, **values)
    tcfg.validate()
    return tcfg, None if grid is None else GridConfig(**grid)


def config_dict(cfg) -> dict:
    """The JSON form of a config dataclass: enums as values, tuples as lists."""
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            out.update(config_dict(value))
        elif isinstance(value, enum.Enum):
            out[f.name] = value.value
        else:
            out[f.name] = list(value) if isinstance(value, tuple) else value
    return out
