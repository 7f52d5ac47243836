from pathlib import Path

import pytest
import yaml

from reidlab.config import (
    EvalOptions,
    TrainConfig,
    config_dict,
    read_section,
    SCHEMA,
    synth_config,
    train_config,
    validate_config,
)
from reidlab.errors import ConfigError
from reidlab.synthdata import SynthConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def _schema_keys(rules, prefix):
    keys = set()
    for key, rule in rules.items():
        keys.add(prefix + key)
        if isinstance(rule, dict):
            keys |= _schema_keys(rule, f"{prefix}{key}.")
    return keys


def _config_keys(node, prefix=""):
    keys = set()
    for key, value in node.items():
        keys.add(prefix + key)
        if isinstance(value, dict):
            keys |= _config_keys(value, f"{prefix}{key}.")
    return keys


def test_readme_config_example_names_every_schema_key():
    text = README.read_text(encoding="utf-8").split("### Config schema", 1)[1]
    block = text.split("```yaml\n", 1)[1].split("```", 1)[0]
    # A top-level comment holding a mapping shows an alternative section.
    documents = [yaml.safe_load(block)] + [
        yaml.safe_load(line.lstrip("# ").split("#", 1)[0])
        for line in block.splitlines() if line.startswith("# ")
    ]
    named = set()
    for doc in documents:
        validate_config(doc)
        data = read_section(doc, "data")
        if "dir" not in data:
            synth_config(data)
        train_config(doc)
        EvalOptions(**read_section(doc, "eval"))
        named |= _config_keys(doc)
    assert named == _schema_keys(SCHEMA, "")


def test_real_fields_take_integers_and_exponents_as_floats():
    tcfg, grid = train_config({"train": {
        "lr_base": 1, "momentum": "9E-1", "margin": "-2e+2", "lambda_ce": "1.0e3",
        "grid": {"batch_sizes": [4], "lr_values": ["5e-2", 2]},
    }})
    assert (tcfg.lr_base, tcfg.momentum, tcfg.loss.margin, tcfg.loss.lambda_ce) == (1.0, 0.9, -200.0, 1000.0)
    assert grid.lr_values == (0.05, 2.0)
    assert all(type(v) is float for v in (tcfg.lr_base, *grid.lr_values))
    data = read_section({"data": {"noise_sigma": ["3e-1", 1], "view_jitter": 0}}, "data")
    assert data == {"noise_sigma": (0.3, 1.0), "view_jitter": 0.0}
    assert type(data["view_jitter"]) is float


@pytest.mark.parametrize("section, key, value", [
    ("train", "lr_base", "5e"), ("train", "lr_base", "0x10"), ("train", "lr_base", "1_0e1"),
    ("train", "lr_base", True), ("train", "lr_base", 10**400), ("train", "epochs", "1e3"),
    ("train", "epochs", 3.0),
    ("train", "seed", False), ("train", "hidden_dims", 8), ("train", "strategy", ["unicat"]),
    ("data", "obs_dim", [6, "6"]), ("data", "preset", 1), ("eval", "normalize_first", "yes"),
])
def test_values_of_the_wrong_type_are_config_errors_named_by_key(section, key, value):
    with pytest.raises(ConfigError, match=rf"^{section}\.{key} must be"):
        read_section({section: {key: value}}, section)


def test_config_dict_names_the_schema_keys():
    assert set(config_dict(TrainConfig())) == set(SCHEMA["train"]) - {"grid"}
    assert set(config_dict(SynthConfig())) == set(SCHEMA["data"]) - {"preset", "dir"}
