import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from reidlab import cli, evalkit, pipeline
from reidlab.cli import apply_overrides, load_config, main, validate_config
from reidlab.errors import ConfigError, NumericError
from reidlab.fileio import read_dataset, write_embedding_file
from reidlab.model import load_checkpoint, param_slots
from reidlab.numerics import Rng
from reidlab.synthdata import SynthConfig, generate

TINY_DATA = {
    "num_modalities": 2, "latent_dim": 3, "obs_dim": 6, "ids_train": 6,
    "ids_test": 4, "views_per_id": 4, "noise_sigma": 0.3, "view_jitter": 0.1,
    "seed": 0,
}
TINY_TRAIN = {
    "strategy": "unicat", "p": 3, "k": 2, "lr_base": 0.05, "momentum": 0.9,
    "epochs": 3, "warmup_epochs": 1, "hidden_dims": [8], "embed_dim": 4,
    "seed": 0,
}


def _config(tmp_path, name="cfg.yaml", data=None, trn=None, ev=None):
    cfg = {}
    if data is not None:
        cfg["data"] = data
    if trn is not None:
        cfg["train"] = trn
    if ev is not None:
        cfg["eval"] = ev
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return path


# ------------------------------------------------------------ config layer

def test_load_config_rejects_unknown_keys(tmp_path):
    path = _config(tmp_path, data=dict(TINY_DATA, bogus=1))
    with pytest.raises(ConfigError):
        load_config(path)
    with pytest.raises(ConfigError):
        validate_config({"nonsense": {}})
    with pytest.raises(ConfigError):
        validate_config({"train": {"grid": {"batch_sizes": [4], "oops": 1}}})
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("a: [unbalanced", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(bad)
    top = tmp_path / "top.yaml"
    top.write_text("- just\n- a list\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(top)


def test_apply_overrides_paths_and_scalars():
    cfg = {"data": dict(TINY_DATA)}
    out = apply_overrides(cfg, ["data.seed=7", "train.lr_base=0.1", "train.strategy=fusion-avg"])
    assert out["data"]["seed"] == 7
    assert out["train"]["lr_base"] == 0.1
    assert out["train"]["strategy"] == "fusion-avg"
    with pytest.raises(ConfigError):
        apply_overrides({}, ["no-equals-sign"])
    with pytest.raises(ConfigError):
        apply_overrides({}, ["data.nope=1"])


@pytest.mark.parametrize("section", ["train", "train.grid"])
def test_set_into_a_null_section_writes_the_bytes_of_no_section(tmp_path, section):
    # A bare "train:" or "grid:" line is YAML null, which counts as absent.
    if section == "train":
        trn, bare_line, with_null = None, "train:\n", None
        sets = [f"train.{key}={json.dumps(value)}" for key, value in TINY_TRAIN.items()]
    else:
        trn, bare_line, with_null = TINY_TRAIN, "  grid:\n", dict(TINY_TRAIN, grid=None)
        sets = ["train.grid.batch_sizes=[4]", "train.grid.lr_values=[0.05]"]
    without = _config(tmp_path, "without.yaml", data=TINY_DATA, trn=trn)
    bare = tmp_path / "bare.yaml"
    bare.write_text(without.read_text(encoding="utf-8") + bare_line, encoding="utf-8")
    assert yaml.safe_load(bare.read_text(encoding="utf-8")) == {"data": TINY_DATA, "train": with_null}
    runs = []
    for cfg in (without, bare):
        out = tmp_path / f"out_{cfg.stem}"
        argv = ["train", "-c", str(cfg), "-o", str(out)]
        for item in sets:
            argv += ["--set", item]
        assert main(argv) == 0
        runs.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
    assert runs[0] == runs[1] and len(runs[0]) >= 3


# ----------------------------------------------------------------- cmd_gen

def test_gen_writes_dataset_and_is_deterministic(tmp_path):
    cfg = _config(tmp_path, data=TINY_DATA)
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    assert main(["gen", "-c", str(cfg), "-o", str(out1)]) == 0
    assert main(["gen", "-c", str(cfg), "-o", str(out2)]) == 0
    files = sorted(p.name for p in out1.iterdir())
    assert files == ["manifest.json", "modality_0.uceb", "modality_1.uceb"]
    for name in files:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    ds, manifest = read_dataset(out1)
    assert ds.num_modalities == 2
    assert manifest["config_hash"]


def test_gen_exit_codes(tmp_path):
    bad = _config(tmp_path, "bad.yaml", data=dict(TINY_DATA, obs_dim=1))
    assert main(["gen", "-c", str(bad), "-o", str(tmp_path / "x")]) == 2
    nodata = _config(tmp_path, "nodata.yaml", trn=TINY_TRAIN)
    assert main(["gen", "-c", str(nodata), "-o", str(tmp_path / "y")]) == 2


def test_gen_preset_with_field_overrides(tmp_path):
    cfg = _config(tmp_path, data={"preset": "clean", "seed": 1, "ids_train": 4,
                                  "ids_test": 3, "views_per_id": 4})
    out = tmp_path / "dclean"
    assert main(["gen", "-c", str(cfg), "-o", str(out)]) == 0
    ds, manifest = read_dataset(out)
    assert ds.num_modalities == 3  # preset field survives
    assert manifest["config"]["ids_train"] == 4  # override applied
    assert manifest["config"]["seed"] == 1


@pytest.mark.parametrize("override", ["data.ids_train=ten", "data.noise_sigma=loud"])
def test_gen_data_value_of_wrong_type_is_config_error(tmp_path, capsys, override):
    cfg = _config(tmp_path, data=TINY_DATA)
    assert main(["gen", "-c", str(cfg), "-o", str(tmp_path / "x"), "--set", override]) == 2
    assert "config error" in capsys.readouterr().err


def _flow_yaml(tmp_path, name, **sections):
    """A config file whose values are written as given, e.g. an unquoted 5e-2."""
    lines = [f"{sec}: {{" + ", ".join(f"{k}: {v}" for k, v in body.items()) + "}"
             for sec, body in sections.items()]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _outputs(tmp_path, name, command, cfg, sets=()):
    out = tmp_path / name
    argv = [command, "-c", str(cfg), "-o", str(out)]
    for item in sets:
        argv += ["--set", item]
    assert main(argv) == 0, argv
    return _dir_bytes(out) if command == "gen" else (out / "config.json").read_bytes()


def test_exponent_spellings_give_the_decimal_bytes(tmp_path):
    exp_data = dict(TINY_DATA, noise_sigma="[3e-1, 1E-1]", view_jitter="1e-1")
    dec_data = dict(TINY_DATA, noise_sigma="[0.3, 0.1]", view_jitter=0.1)
    exp_train = dict(TINY_TRAIN, lr_base="5e-2", momentum="9.0e-1", lambda_ce="1e0", margin="-1E-1")
    dec_train = dict(TINY_TRAIN, lr_base=0.05, momentum=0.9, lambda_ce=1.0, margin=-0.1)
    assert (_outputs(tmp_path, "ge", "gen", _flow_yaml(tmp_path, "ge.yaml", data=exp_data))
            == _outputs(tmp_path, "gd", "gen", _flow_yaml(tmp_path, "gd.yaml", data=dec_data)))
    assert (_outputs(tmp_path, "te", "train", _flow_yaml(tmp_path, "te.yaml", data=TINY_DATA, train=exp_train))
            == _outputs(tmp_path, "td", "train", _flow_yaml(tmp_path, "td.yaml", data=TINY_DATA, train=dec_train)))
    cfg = _config(tmp_path, "base.yaml", data=TINY_DATA, trn=TINY_TRAIN)
    assert (_outputs(tmp_path, "se", "train", cfg, ["train.lr_base=1e-3", "data.view_jitter=2E-1"])
            == _outputs(tmp_path, "sd", "train", cfg, ["train.lr_base=0.001", "data.view_jitter=0.2"]))


def test_integer_in_a_real_field_is_stored_as_a_float(tmp_path):
    int_cfg = _flow_yaml(tmp_path, "i.yaml", data=dict(TINY_DATA, view_jitter=0),
                         train=dict(TINY_TRAIN, momentum=0))
    float_cfg = _flow_yaml(tmp_path, "f.yaml", data=dict(TINY_DATA, view_jitter=0.0),
                           train=dict(TINY_TRAIN, momentum=0.0))
    assert _outputs(tmp_path, "gi", "gen", int_cfg) == _outputs(tmp_path, "gf", "gen", float_cfg)
    assert _outputs(tmp_path, "ti", "train", int_cfg) == _outputs(tmp_path, "tf", "train", float_cfg)


def test_exponents_stay_rejected_in_int_fields_and_literal_in_strings(tmp_path, monkeypatch, capsys):
    bad = _flow_yaml(tmp_path, "bad.yaml", data=TINY_DATA, train=dict(TINY_TRAIN, epochs="1e3"))
    assert main(["train", "-c", str(bad), "-o", str(tmp_path / "x")]) == 2
    good = _config(tmp_path, "good.yaml", data=TINY_DATA, trn=TINY_TRAIN)
    assert main(["train", "-c", str(good), "-o", str(tmp_path / "y"), "--set", "train.epochs=1e3"]) == 2
    assert capsys.readouterr().err.count("train.epochs must be an integer") == 2
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "-c", str(good), "-o", "1e3"]) == 0
    from_dir = _flow_yaml(tmp_path, "dir.yaml", data={"dir": "1e3"}, train=TINY_TRAIN)
    assert main(["train", "-c", str(from_dir), "-o", "run"]) == 0
    assert json.loads((tmp_path / "run" / "config.json").read_text())["data_source"] == "dataset dir 1e3"


# sha256 of config files as written before reidlab.config derived the
# schema from the dataclasses; the schema must write the same bytes.
PINNED_SHA256 = {
    "train": "b6d5bbfb464ec315855c9c2348bcd88917670a1575a2028bda3aaf462b8a10f3",
    "grid": "adf40f31d2f5efb842ba7e86a74b5a1df09461e101bfa164dc45ac924ed2781a",
    "manifest": "c658dd48ac87f3ab85291a052631f87273dd3c11b9c9f978ef4ac155f8816d06",
    "manifest_preset": "2f6c3bc024ad22d55b4c740413622dfd863c361859b7cf662b13b96ab7cec5b7",
    "repro": "4b1096beee057325a307308f13a3bc8b9d47b84aedf61c0e3a849f2062032566",
}
# The grid cells' config.json also hold trained scores; their config hashes are pinned.
PINNED_CELL_CONFIG_HASHES = {
    "cell_bs4_lr0.02": "1d06257dceaba5f7c3eb0aa5661123b9f3297e2f7a8ba91b99d901fafa3a1be5",
    "cell_bs4_lr0.05": "0b2079f2862facd0b504a427a7c66b057024406c556c8983fa94fb1625df2b32",
    "cell_bs6_lr0.02": "bcab807ef29023b4544f3ff5a45fcd6ee30d82f9fe00664c267a2a73ae91f3bd",
    "cell_bs6_lr0.05": "834873cf65608a848a66187e004de8e98ea2af8f989bcfbf002ba03dbfd27f08",
}


def test_config_files_keep_their_pinned_bytes(tmp_path):
    def sha256(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def run(*argv):
        assert main(list(map(str, argv))) == 0, argv

    run("train", "-c", _config(tmp_path, "t.yaml", data=TINY_DATA, trn=TINY_TRAIN), "-o", tmp_path / "run")
    grid = dict(TINY_TRAIN, grid={"batch_sizes": [4, 6], "lr_values": [0.05, 0.02]})
    run("train", "-c", _config(tmp_path, "g.yaml", data=TINY_DATA, trn=grid), "-o", tmp_path / "grid")
    run("gen", "-c", _config(tmp_path, "d.yaml", data=TINY_DATA), "-o", tmp_path / "data")
    preset = {"preset": "clean", "seed": 1, "ids_train": 4, "ids_test": 3, "views_per_id": 4}
    run("gen", "-c", _config(tmp_path, "p.yaml", data=preset), "-o", tmp_path / "pdata")
    run("repro", "ensemble", "-o", tmp_path / "suite", "--seeds", "1", "--epochs", "2")
    assert {
        "train": sha256(tmp_path / "run" / "config.json"),
        "grid": sha256(tmp_path / "grid" / "config.json"),
        "manifest": sha256(tmp_path / "data" / "manifest.json"),
        "manifest_preset": sha256(tmp_path / "pdata" / "manifest.json"),
        "repro": sha256(tmp_path / "suite" / "config.json"),
    } == PINNED_SHA256
    cells = sorted((tmp_path / "grid").glob("cell_*/config.json"))
    assert {p.parent.name: json.loads(p.read_text())["config_hash"] for p in cells} == PINNED_CELL_CONFIG_HASHES


# sha256 of checkpoint.bin and loss_curve.csv after `train` on TINY_DATA and
# TINY_TRAIN: every gradient bit of each strategy's training path goes into
# them, so a refactor of the forward, loss or backward code must keep them.
TRAINED_SHA256 = {
    "fusion-avg": ("e09f54d8eb93241480da102134bf41380bcc58ec9c2b91c6764a29d7a4d02b42",
                   "6d66bf89db005c12b0637314d6799ed7a5cd9f05171e6a17456d9748c95de28a"),
    "fusion-concat": ("e1127419eae83fd2d5c23821550c8e9d12761acc959e040aa2762690fb0747ad",
                      "b379ec860b15782b5d007d2228e6de29bee4dfc90f5f820888ee11dd7663a430"),
    "unicat": ("f3d74cc57c3bb1408ec49c9fe8863057782b2fa173a44db7b3b8421b1c5e7760",
               "dba360536e15244cd15f756b55159d2278dde8b0cf0816ec8f1c88d0f0ce7cc7"),
}


@pytest.mark.parametrize("strategy", list(TRAINED_SHA256))
def test_trained_run_bytes_pinned(tmp_path, strategy):
    cfg = _config(tmp_path, data=TINY_DATA, trn=dict(TINY_TRAIN, strategy=strategy))
    assert main(["train", "-c", str(cfg), "-o", str(tmp_path / "run")]) == 0
    got = tuple(hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
                for name in ("checkpoint.bin", "loss_curve.csv"))
    assert got == TRAINED_SHA256[strategy]


@pytest.mark.parametrize("strategy", list(TRAINED_SHA256))
def test_trained_run_bytes_pinned_under_each_matmul_kernel(tmp_path, strategy, matmul_kernel):
    test_trained_run_bytes_pinned(tmp_path, strategy)


# --------------------------------------------------------------- cmd_train

def test_train_writes_run_record_and_reruns_identically(tmp_path):
    cfg = _config(tmp_path, data=TINY_DATA, trn=TINY_TRAIN)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["train", "-c", str(cfg), "-o", str(out1)]) == 0
    assert main(["train", "-c", str(cfg), "-o", str(out2)]) == 0
    for name in ("config.json", "loss_curve.csv", "checkpoint.bin"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    snapshot = json.loads((out1 / "config.json").read_text())
    assert snapshot["config"]["strategy"] == "unicat"
    assert len(snapshot["config_hash"]) == 64


def test_train_from_dataset_dir_and_grid(tmp_path):
    gen_cfg = _config(tmp_path, "gen.yaml", data=TINY_DATA)
    data_dir = tmp_path / "data"
    assert main(["gen", "-c", str(gen_cfg), "-o", str(data_dir)]) == 0
    cfg = _config(
        tmp_path, "train.yaml",
        data={"dir": str(data_dir)},
        trn=dict(TINY_TRAIN, grid={"batch_sizes": [4, 6], "lr_values": [0.05, 0.02]}),
    )
    out = tmp_path / "grid"
    assert main(["train", "-c", str(cfg), "-o", str(out)]) == 0
    cells = sorted(p.name for p in out.iterdir() if p.name.startswith("cell_"))
    assert len(cells) == 4
    selection = json.loads((out / "selection.json").read_text())
    assert len(selection["cells"]) == 4
    assert {"batch_size", "lr"} <= set(selection["selected"])
    assert (out / "checkpoint.bin").exists()  # winner retrained on full split


@pytest.mark.parametrize("grid", [None, {"batch_sizes": [4], "lr_values": [0.05]}])
def test_train_fails_fast_on_unwritable_out(tmp_path, monkeypatch, capsys, grid):
    blocker = tmp_path / "file"
    blocker.write_text("")
    called = []
    monkeypatch.setattr(cli, "train", lambda *args: called.append("train"))
    monkeypatch.setattr(cli, "grid_search", lambda *args: called.append("grid_search"))
    trn = TINY_TRAIN if grid is None else dict(TINY_TRAIN, grid=grid)
    cfg = _config(tmp_path, data=TINY_DATA, trn=trn)
    assert main(["train", "-c", str(cfg), "-o", str(blocker / "run")]) == 3
    assert "file error" in capsys.readouterr().err
    assert called == []


def test_train_exit_code_on_bad_strategy(tmp_path):
    cfg = _config(tmp_path, data=TINY_DATA, trn=dict(TINY_TRAIN, strategy="nope"))
    assert main(["train", "-c", str(cfg), "-o", str(tmp_path / "x")]) == 2


def test_train_value_of_wrong_type_is_config_error(tmp_path, capsys):
    cfg = _config(tmp_path, data=TINY_DATA, trn=TINY_TRAIN)
    for override in ('train.p="4"', "train.lambda_ce=abc", "train.hidden_dims=[x]",
                     "train.seed=true", "train.lr_base=[0.1]"):
        code = main(["train", "-c", str(cfg), "-o", str(tmp_path / "x"), "--set", override])
        assert code == 2, override
        assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [
    {"batch_sizes": ["x"], "lr_values": [0.05]},
    {"batch_sizes": [4], "lr_values": ["fast"]},
])
def test_train_grid_entry_of_wrong_type_is_config_error(tmp_path, capsys, grid):
    cfg = _config(tmp_path, data=TINY_DATA, trn=dict(TINY_TRAIN, grid=grid))
    assert main(["train", "-c", str(cfg), "-o", str(tmp_path / "x")]) == 2
    assert "config error" in capsys.readouterr().err


def test_manifest_missing_key_is_data_error(tmp_path):
    gen_cfg = _config(tmp_path, "gen.yaml", data=TINY_DATA)
    data_dir = tmp_path / "data"
    assert main(["gen", "-c", str(gen_cfg), "-o", str(data_dir)]) == 0
    good = (data_dir / "manifest.json").read_text(encoding="utf-8")
    cfg = _config(tmp_path, "train.yaml", data={"dir": str(data_dir)}, trn=TINY_TRAIN)
    for key in ("modalities", "split"):
        manifest = json.loads(good)
        del manifest[key]
        (data_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        assert main(["train", "-c", str(cfg), "-o", str(tmp_path / "x")]) == 3, key


def _train_on_edited_manifest(edit):
    """argv training on a fresh dataset directory whose manifest.json went through edit."""
    def argv(tmp_path):
        gen_cfg = _config(tmp_path, "gen.yaml", data=TINY_DATA)
        data_dir = tmp_path / "data"
        assert main(["gen", "-c", str(gen_cfg), "-o", str(data_dir)]) == 0
        edit(data_dir / "manifest.json")
        cfg = _config(tmp_path, "train.yaml", data={"dir": str(data_dir)}, trn=TINY_TRAIN)
        return ["train", "-c", str(cfg), "-o", str(tmp_path / "x")]
    return argv


def _set_modality_entry(key, value):
    def edit(path):
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest["modalities"][0][key] = value
        path.write_text(json.dumps(manifest), encoding="utf-8")
    return edit


def _edit_manifest(edit):
    def rewrite(path):
        manifest = json.loads(path.read_text(encoding="utf-8"))
        edit(manifest)
        path.write_text(json.dumps(manifest), encoding="utf-8")
    return rewrite


def _eval_on_checkpoint_with(value, key="stream0.w0", strategy="unicat"):
    """argv evaluating a trained checkpoint whose first payload float of
    the array key was set to value."""
    def argv(tmp_path):
        cfg, run = _trained_dir(tmp_path, strategy)
        blob = bytearray((run / "checkpoint.bin").read_bytes())
        start = 16 + int.from_bytes(blob[8:16], "little")
        for slot_key, arr, _ in param_slots(load_checkpoint(run / "checkpoint.bin")):
            if slot_key == key:
                break
            start += 8 * arr.size
        blob[start : start + 8] = np.array([value], dtype="<f8").tobytes()
        (run / "checkpoint.bin").write_bytes(bytes(blob))
        return ["eval", "-c", str(cfg), "--checkpoint", str(run / "checkpoint.bin"), "-o", str(tmp_path / "x")]
    return argv


def _gen_under_regular_file(tmp_path):
    (tmp_path / "file").write_text("", encoding="utf-8")
    cfg = _config(tmp_path, data=TINY_DATA)
    return ["gen", "-c", str(cfg), "-o", str(tmp_path / "file" / "sub")]


FILE_FAILURES = {
    "manifest names a missing file": (_train_on_edited_manifest(_set_modality_entry("file", "gone.uceb")), 3),
    "manifest file is a number": (_train_on_edited_manifest(_set_modality_entry("file", 5)), 3),
    "manifest file is a directory": (_train_on_edited_manifest(_set_modality_entry("file", ".")), 3),
    "manifest name is a number": (_train_on_edited_manifest(_set_modality_entry("name", 5)), 3),
    "manifest is not UTF-8": (
        _train_on_edited_manifest(lambda p: p.write_bytes(p.read_bytes() + b"\xff\xfe")), 3),
    "manifest dim is wrong": (_train_on_edited_manifest(_set_modality_entry("dim", 999)), 3),
    "manifest dim is a bool": (_train_on_edited_manifest(_set_modality_entry("dim", True)), 3),
    "manifest num_samples is wrong": (
        _train_on_edited_manifest(_edit_manifest(lambda m: m.update(num_samples=m["num_samples"] + 1))), 3),
    "manifest config_hash is zeros": (
        _train_on_edited_manifest(_edit_manifest(lambda m: m.update(config_hash="0" * 64))), 3),
    "manifest config edited after writing": (
        _train_on_edited_manifest(_edit_manifest(lambda m: m["config"].update(seed=1))), 3),
    "checkpoint weight is NaN": (_eval_on_checkpoint_with(np.nan), 3),
    "checkpoint weight is +inf": (_eval_on_checkpoint_with(np.inf), 3),
    "checkpoint fused running variance is -1": (
        _eval_on_checkpoint_with(-1.0, "fused.running_var", "fusion-concat"), 3),
    "missing checkpoint": (lambda t: ["eval", "-c", str(_config(t, data=TINY_DATA)), "--checkpoint",
                                      str(t / "gone.bin"), "-o", str(t / "x")], 3),
    "missing external file": (lambda t: ["eval", "--external", str(t / "gone.uceb"),
                                         "-o", str(t / "x")], 3),
    "external file is a directory": (lambda t: ["eval", "--external", str(t), "-o", str(t / "x")], 3),
    "data.dir is a number": (lambda t: ["train", "-c", str(_config(t, data={"dir": 5}, trn=TINY_TRAIN)),
                                        "-o", str(t / "x")], 2),
    "output under a regular file": (_gen_under_regular_file, 3),
}


@pytest.mark.parametrize("case", list(FILE_FAILURES))
def test_file_failure_exits_with_one_line_message(tmp_path, capsys, case):
    make_argv, code = FILE_FAILURES[case]
    argv = make_argv(tmp_path)
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    assert err.startswith("config error" if code == 2 else ("data error", "file error")), err


# ---------------------------------------------------------------- cmd_eval

def _trained_dir(tmp_path, strategy="unicat", m=2):
    data = dict(TINY_DATA, num_modalities=m)
    cfg = _config(tmp_path, f"tr_{strategy}_{m}.yaml", data=data,
                  trn=dict(TINY_TRAIN, strategy=strategy))
    out = tmp_path / f"run_{strategy}_{m}"
    assert main(["train", "-c", str(cfg), "-o", str(out)]) == 0
    return cfg, out


def test_eval_checkpoint_writes_report_per_selector(tmp_path):
    cfg, run = _trained_dir(tmp_path, m=3)
    out = tmp_path / "ev"
    code = main(["eval", "-c", str(cfg), "--checkpoint", str(run / "checkpoint.bin"),
                 "-o", str(out)])
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert "summary.md" in names
    # one multimodal + three unimodal pairs
    for tag in ("multimodal", "mod0", "mod1", "mod2"):
        assert f"report_{tag}.csv" in names
        assert f"report_{tag}.md" in names
    summary = (out / "summary.md").read_text()
    assert "mAP" in summary and "eval options hash" in summary
    md = (out / "report_multimodal.md").read_text()
    assert "| mAP |" in md and "| Rank-1 |" in md


def test_eval_trainset_mode_and_rerun_identical(tmp_path):
    cfg, run = _trained_dir(tmp_path)
    out1, out2 = tmp_path / "ev1", tmp_path / "ev2"
    for out in (out1, out2):
        code = main(["eval", "-c", str(cfg), "--checkpoint", str(run / "checkpoint.bin"),
                     "-o", str(out), "--trainset"])
        assert code == 0
    assert (out1 / "summary.md").read_text().startswith("# Evaluation (train split)")
    for p in out1.iterdir():
        assert p.read_bytes() == (out2 / p.name).read_bytes()


def test_eval_dim_mismatch_is_data_error(tmp_path, capsys):
    cfg, run = _trained_dir(tmp_path)
    # embed_dataset and stream_forward reject both, as shape errors.
    mismatches = {
        "num_modalities": (1, "dataset has 1 modalities, model has 2 streams"),
        "obs_dim": (7, "input dim 7 does not match stream input dim 6"),
    }
    for key, (value, message) in mismatches.items():
        other = _config(tmp_path, f"other_{key}.yaml", data=dict(TINY_DATA, **{key: value}))
        code = main(["eval", "-c", str(other), "--checkpoint", str(run / "checkpoint.bin"),
                     "-o", str(tmp_path / "x")])
        assert code == 3, key
        assert message in capsys.readouterr().err, key
    assert main(["eval", "-c", str(cfg), "-o", str(tmp_path / "y")]) == 2  # no checkpoint


def test_eval_option_of_wrong_type_is_config_error(tmp_path, capsys):
    cfg, run = _trained_dir(tmp_path)
    for override in ("eval.max_rank=ten", "eval.views_as_query=1.5", "eval.exclude_same_view=maybe"):
        code = main(["eval", "-c", str(cfg), "--checkpoint", str(run / "checkpoint.bin"),
                     "-o", str(tmp_path / "x"), "--set", override])
        assert code == 2, override
        assert "config error" in capsys.readouterr().err


def _checkpoint_with_header(tmp_path, run, edit):
    """A copy of run's checkpoint.bin whose JSON header went through edit."""
    blob = (run / "checkpoint.bin").read_bytes()
    header_len = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16 : 16 + header_len])
    edit(header)
    new_header = json.dumps(header).encode("utf-8")
    bad = tmp_path / "bad.bin"
    bad.write_bytes(blob[:8] + len(new_header).to_bytes(8, "little") + new_header
                    + blob[16 + header_len :])
    return bad


def test_checkpoint_missing_header_key_is_data_error(tmp_path):
    cfg, run = _trained_dir(tmp_path)
    bad = _checkpoint_with_header(tmp_path, run, lambda h: h.pop("num_classes"))
    code = main(["eval", "-c", str(cfg), "--checkpoint", str(bad), "-o", str(tmp_path / "x")])
    assert code == 3


def test_checkpoint_malformed_header_is_data_error(tmp_path, capsys):
    cfg, run = _trained_dir(tmp_path)
    bad = _checkpoint_with_header(tmp_path, run, lambda h: h.update(layer_dims="abc"))
    code = main(["eval", "-c", str(cfg), "--checkpoint", str(bad), "-o", str(tmp_path / "x")])
    assert code == 3
    assert "malformed checkpoint header" in capsys.readouterr().err


def test_eval_external_files(tmp_path):
    ds = generate(SynthConfig(**TINY_DATA))
    f1, f2 = tmp_path / "a.uceb", tmp_path / "b.uceb"
    write_embedding_file(f1, "mod0", ds.features[0], ds.ids, ds.view_ids)
    write_embedding_file(f2, "mod1", ds.features[1], ds.ids, ds.view_ids)
    out = tmp_path / "ext"
    code = main(["eval", "--external", str(f1), str(f2), "-o", str(out),
                 "--fusion-op", "average"])
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert {"report_mod0.csv", "report_mod1.csv", "report_multimodal.csv"} <= names
    assert "average" in (out / "summary.md").read_text()

    solo = tmp_path / "solo"
    assert main(["eval", "--external", str(f1), "-o", str(solo)]) == 0
    assert not (solo / "report_multimodal.csv").exists()  # unimodal only

    bad = tmp_path / "c.uceb"
    write_embedding_file(bad, "modX", ds.features[0][:8], ds.ids[:8], ds.view_ids[:8])
    assert main(["eval", "--external", str(f1), str(bad), "-o", str(tmp_path / "z")]) == 3


def test_eval_flags_it_cannot_honour_are_config_errors(tmp_path, capsys):
    cfg, run = _trained_dir(tmp_path)
    ds = generate(SynthConfig(**TINY_DATA))
    ext = tmp_path / "a.uceb"
    write_embedding_file(ext, "mod0", ds.features[0], ds.ids, ds.view_ids)
    ckpt = ["-c", str(cfg), "--checkpoint", str(run / "checkpoint.bin")]
    cases = {
        "--trainset": ["--external", str(ext), str(ext), "--trainset"],
        "not both": ["--external", str(ext), *ckpt],
        "--fusion-op": [*ckpt, "--fusion-op", "average"],
    }
    capsys.readouterr()
    for message, argv in cases.items():
        out = tmp_path / "x"
        assert main(["eval", "-o", str(out), *argv]) == 2, argv
        assert message in capsys.readouterr().err, argv
        assert not out.exists(), argv


# sha256 of every file `eval` writes, and of the grid's selection.json, on
# EVAL_DATA. Every query's AP on each split and selector goes into them.
EVAL_DATA = dict(TINY_DATA, ids_train=30, ids_test=10, views_per_id=6, noise_sigma=1.0, view_jitter=0.5)
EVAL_SHA256 = {
    "unicat/test": {
        "report_mod0.csv": "0e64dc3941d4877fd9cf5f88d31e48d0047906cbef8109f3c96ee23cde8ae202",
        "report_mod0.md": "b46f258d5fec7bd14d1576a7110d41749a73cf7013a5f8d60b976e8247a811cd",
        "report_mod1.csv": "6d1a10c135d366cb5c2ddcdee82ec3477c433d7d92cd42ec90b397c737b3d495",
        "report_mod1.md": "55ab6a6ed79cdb9ec222b057cc92db463a70545e421b8d523cec605d665c182c",
        "report_multimodal.csv": "d1e0513e47b8e242fc53b82ff943306cb1f3aa2b328e97dd345f24a5c77153f2",
        "report_multimodal.md": "7d7217853f6f65a7a1dedf181eef9923e78cf878f94e3966e197d6e99be02202",
        "summary.md": "eabc87b77a5f07a438b75c4cc84ecc17bb53ca618fe0e111958baad5b177acd9",
    },
    "unicat/train": {
        "report_mod0.csv": "75f7d0458bdcb80cd57ca0b6efe7504bdc4a2f0b4a6f1c236fcfe2f8227aa4b9",
        "report_mod0.md": "392006d2738c0c0b2e870badecff4fe63579db589ecc1ef16cda448ef8c0335b",
        "report_mod1.csv": "7f97c61e497df4d63ccb354b7c5a0a342a24a5df8e233a6e74cfc690be6b34aa",
        "report_mod1.md": "73bb40a047c4731cf35e4bc5c0f7ac3097e21ff26a44ea44e3c97a9e20528b20",
        "report_multimodal.csv": "9dce87846c51362200b09924075b7d0b5bcf8ea8d166d4c8814a7517fe430cf7",
        "report_multimodal.md": "b0241c6ceb53642efd410f1c7c3057809bfce96caeb870cc3b3967312ec76edf",
        "summary.md": "47023698abf63dabf0645736c6475c425bbb939fb471d2da678b61622122c269",
    },
    "fusion-concat/test": {
        "report_mod0.csv": "262dace08d171fcff2018e0d6dc4a3f70522c4c30585a42a2afe4dc9974dc108",
        "report_mod0.md": "523f0b8528c9f96b68e666b470b6f2b5d0ecc2e958d5b9264f6eabb9209bde1c",
        "report_mod1.csv": "4d1ede6a68684dc52b4f029ae6f506a6413960e31cbfd6a84e55fd789d4f02cb",
        "report_mod1.md": "80439e15e2193d0ec3889a925673e192a73d9c8eea2636a49b8ee333db08723a",
        "report_multimodal.csv": "69508d9780925672eb480460374cc2487acb741b42f79d388289532d35cf2971",
        "report_multimodal.md": "e6f51d259081c6956d7b1ce23a89991022880e29cf9bf93d5c919f7b6787748c",
        "summary.md": "d732ec0d6aee1cd0211c0f25bc2111e75de1defee5e264629240aeca67487810",
    },
    "fusion-concat/train": {
        "report_mod0.csv": "6c98819fa71f5c8347a46090ac15b51daffc69e28da2106ad6ad02c43c15bc8e",
        "report_mod0.md": "1f2cc86b4c27155f0996bc32aeabe3ef998d67b7714a98e76ba1c0beda387bb4",
        "report_mod1.csv": "b2edf94506bcf78c3d2a42a887a6d5b29310a454e0d9398cd67478b39dd6d10a",
        "report_mod1.md": "09a11d8ccc8835d9e702240be939ee40d9cd290d6f5f320ebe4d280fedf3b7c3",
        "report_multimodal.csv": "e0c7ad0944754509240e664f51a59dff5a6f93d159075f752433220ed9094eb6",
        "report_multimodal.md": "76b9eff690989d54a1d88a58689d17cf8d660b5ae9e3b79c45ab6efb8ba6c328",
        "summary.md": "ba4935a3cfd039980bfa322c8b5397049e54665785a0d9b051a8378b7dd86c75",
    },
    "external/concat": {
        "report_mod0.csv": "89fee2077606e5a979942ca06eeaf387c1059a0f4060a5a175338c483aa36bab",
        "report_mod0.md": "b9de1c948d75e9a0a10c5b9ec9eb4913fe20db479dbefb152fafabd72210ac18",
        "report_mod1.csv": "1e500ca61cccba3d352d3d9758964f89094c0596a7c6744f28319f8e88f713b8",
        "report_mod1.md": "34c284ac278e505a676ca84bb93f1f5bc69c3d6d0ce3166db6aeb80f67c37684",
        "report_multimodal.csv": "68d95bd84dc7fdd32f5b1e2f2dbeb21f4ec61f82a5ffc1d029e5cd731d6cfb49",
        "report_multimodal.md": "682cb99c0ee4712f9dba27131e3fed8fdda7d252a170e9999bf9398ff10d1d90",
        "summary.md": "1b4ea0f804bd788eb8afb5d26547df5bc5800ace5bd44ba3a28afe65ce1eeea0",
    },
    "external/average": {
        "report_mod0.csv": "89fee2077606e5a979942ca06eeaf387c1059a0f4060a5a175338c483aa36bab",
        "report_mod0.md": "b9de1c948d75e9a0a10c5b9ec9eb4913fe20db479dbefb152fafabd72210ac18",
        "report_mod1.csv": "1e500ca61cccba3d352d3d9758964f89094c0596a7c6744f28319f8e88f713b8",
        "report_mod1.md": "34c284ac278e505a676ca84bb93f1f5bc69c3d6d0ce3166db6aeb80f67c37684",
        "report_multimodal.csv": "6a5b7db7acb8f498702e36d02504c3ea036825e0ffefe9619d5395cdabda8c4b",
        "report_multimodal.md": "7c48c4a8972a37fd8f3663819498cdcdf9bca83485685ffd24c1a9449d0f3874",
        "summary.md": "fbc3289623389c59f1e6de4ffccdfc79ec331e4199354c6e3238f1953052fd25",
    },
    "grid/selection.json": "0cc3fc578186a4a6d07a9c965b16bbe6cba96972d04288f804e41a15f613f6c7",
}


def test_eval_and_grid_bytes_pinned(tmp_path, monkeypatch, matmul_kernel):
    # Paths are relative to tmp_path, so the summaries that name them repeat.
    monkeypatch.chdir(tmp_path)

    def run(*argv):
        assert main(list(argv)) == 0, argv

    def digests(out):
        return {name: hashlib.sha256(data).hexdigest() for name, data in _dir_bytes(Path(out)).items()}

    got = {}
    for strategy in ("unicat", "fusion-concat"):
        cfg = _config(tmp_path, f"{strategy}.yaml", data=EVAL_DATA, trn=dict(TINY_TRAIN, strategy=strategy))
        run("train", "-c", cfg.name, "-o", strategy)
        ckpt = f"{strategy}/checkpoint.bin"
        run("eval", "-c", cfg.name, "--checkpoint", ckpt, "-o", f"ev-{strategy}")
        run("eval", "-c", cfg.name, "--checkpoint", ckpt, "-o", f"tr-{strategy}", "--trainset")
        got[f"{strategy}/test"] = digests(f"ev-{strategy}")
        got[f"{strategy}/train"] = digests(f"tr-{strategy}")
    ds = generate(SynthConfig(**EVAL_DATA))
    for i in range(2):
        write_embedding_file(f"e{i}.uceb", f"mod{i}", ds.features[i], ds.ids, ds.view_ids)
    for op in ("concat", "average"):
        run("eval", "--external", "e0.uceb", "e1.uceb", "-o", f"ext-{op}", "--fusion-op", op)
        got[f"external/{op}"] = digests(f"ext-{op}")
    grid = dict(TINY_TRAIN, grid={"batch_sizes": [4, 6], "lr_values": [0.05, 0.02]})
    run("train", "-c", _config(tmp_path, "grid.yaml", data=EVAL_DATA, trn=grid).name, "-o", "grid")
    got["grid/selection.json"] = hashlib.sha256(Path("grid/selection.json").read_bytes()).hexdigest()
    assert got == EVAL_SHA256


# ---------------------------------------------------------------- cmd_repro

def test_repro_suite_outputs_and_claims(tmp_path):
    out = tmp_path / "suite"
    code = main(["repro", "ensemble", "-o", str(out), "--seeds", "1", "--epochs", "2"])
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["claims.txt", "config.json", "raw.csv", "table.csv", "table.md"]
    claims = (out / "claims.txt").read_text().strip().split("\n")
    assert all(line.startswith(("PASS", "FAIL")) for line in claims)
    desc = json.loads((out / "config.json").read_text())
    assert desc["suite"] == "ensemble" and desc["seeds"] == [0]
    assert len(desc["config_hash"]) == 64
    assert desc["config_hash"] in (out / "table.md").read_text()
    raw = (out / "raw.csv").read_text().strip().split("\n")
    assert raw[0] == "seed,strategy,target,map,rank1"
    assert len(raw) == 1 + 3 * 3  # 3 strategies x (2 streams + multimodal)


def test_repro_is_bytewise_reproducible(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    for out in (out1, out2):
        assert main(["repro", "ensemble", "-o", str(out), "--seeds", "1", "--epochs", "2"]) == 0
    for p in sorted(out1.iterdir()):
        assert p.read_bytes() == (out2 / p.name).read_bytes()


def _dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_repro_outputs_do_not_depend_on_jobs(tmp_path):
    outputs = []
    for jobs in (["--jobs", "1"], ["--jobs", "2"], ["--jobs", "8"], []):
        out = tmp_path / f"s{len(outputs)}"
        argv = ["repro", "laziness-clean", "-o", str(out), "--seeds", "2", "--epochs", "2"]
        assert main(argv + jobs) == 0, jobs
        outputs.append(_dir_bytes(out))
    assert len(outputs[0]) == 5
    assert all(o == outputs[0] for o in outputs[1:])


# sha256 of every `repro` output file per suite at --seeds 2 --epochs 2
# --jobs 1: target names and order, every trained and ranked mAP, the
# claims' outcomes and the run description all go into them.
REPRO_SHA256 = {
    "laziness-clean": {
        "claims.txt": "352258c741dfb9fcc259733fa35b8d820dfdd5313cc5649a1651a88dd27b0c75",
        "config.json": "1ba04b751d26dd4b9cfe0d52d2e70807caa5e7f9b61e4b589e872387688170dd",
        "raw.csv": "66f0c1514082c0caa8d05c8d7945163cc0c0ec64fa9210aa7a6d5188f75e5c52",
        "table.csv": "dbeff58ec531946ad629aa3aa67991c60efc8b71454c97fa170a643947972183",
        "table.md": "1afac0c93618c6e37a8237fdfb5cb9d3aecf52ab5a161b5ec6412edb1f266162",
    },
    "weak-link": {
        "claims.txt": "d7f37dcb96a0bbedf4d4dd905a527b6c17709212446e440ca17f81f83a5170eb",
        "config.json": "5f10e131c719d9d26e8bd60c52193059126003c978fefe916ca7e38337a871c5",
        "raw.csv": "9110dc284ec38d33310dcf3bdc3ff622fe1a8e9459b92ad9168dda34f9184374",
        "table.csv": "e4b2cf02d839a5ddac010afb6e18d928ac3fadce26270971fb628e3944a2dd5f",
        "table.md": "769e2392ef0547469ae7d167e8776514c32dee777116c8baed93587b8b8afffc",
    },
    "ensemble": {
        "claims.txt": "b74bcbb2f9ece019e7f790beaa4880ae410eee1e1ebf33a4a92e5fbe0ac97647",
        "config.json": "6584fee53c3c77026a2bc335e892c699598e2259d8452d746eb79131dabb7bd4",
        "raw.csv": "c75c0e28f6f261d8d2f09637649599fe89819601cde75c3184778b4e1b1ca5db",
        "table.csv": "b9bc208c3d56df89e354b5871c48bcb5178b5018120f8a0aafb2f24e51aa3bd0",
        "table.md": "34940a62eb55aec984c858f598e827d045e4a9a33afa66936fb98b387300d9fb",
    },
    "train-vs-test": {
        "claims.txt": "2b76adbc19bcba2e9b3c4884dd44ab32e30d43e2e2f16c9e393a99a836f91007",
        "config.json": "678be878248735c3d71b519fd7bc7acf0d9a3fed7ecf36700c960f002193a8a9",
        "raw.csv": "d2ca54689e390cbe6fe7dffc59ebabb0998864f49554282d8e18d2b8eeda322a",
        "table.csv": "a67dd142c682bb8b1b9effe10d8b21e876549151a7775a788b02a297d51fd149",
        "table.md": "93d6fc17436e6275538fb19291926c28476543eb093951cb612bd0150384e74a",
    },
}


@pytest.mark.parametrize("suite", list(REPRO_SHA256))
def test_repro_bytes_pinned_for_every_suite(tmp_path, suite):
    out = tmp_path / suite
    assert main(["repro", suite, "-o", str(out), "--seeds", "2", "--epochs", "2", "--jobs", "1"]) == 0
    got = {name: hashlib.sha256(data).hexdigest() for name, data in _dir_bytes(out).items()}
    assert got == REPRO_SHA256[suite]


def _use_start_method(method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"the {method} start method is not available")
    old = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(method, force=True)
    yield
    multiprocessing.set_start_method(old, force=True)


@pytest.fixture
def fork_start_method():
    yield from _use_start_method("fork")


@pytest.fixture
def spawn_start_method():
    yield from _use_start_method("spawn")


def test_repro_helpers_under_spawn_write_the_sequential_bytes(tmp_path, spawn_start_method):
    # A spawned helper imports everything afresh and gets its share, and
    # sends its results back, pickled.
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        argv = ["repro", "ensemble", "-o", str(out), "--seeds", "2", "--epochs", "1", "--jobs", jobs]
        assert main(argv) == 0, jobs
        outputs.append(_dir_bytes(out))
    assert len(outputs[0]) == 5 and outputs[1] == outputs[0]


def _repro_errors(tmp_path, capsys, jobs_values=("1", "2")):
    """stderr of a failing weak-link repro at --seeds 2, per --jobs value."""
    errs = []
    for jobs in jobs_values:
        argv = ["repro", "weak-link", "-o", str(tmp_path / jobs), "--seeds", "2",
                "--epochs", "1", "--jobs", jobs]
        assert main(argv) == 4, jobs
        errs.append(capsys.readouterr().err)
    return errs


# Cells run in (seed, strategy) order; at --jobs 2, this process runs
# cells 0-2 (seed 0) and the helper runs cells 3-5 (seed 1).
@pytest.mark.parametrize("failing", [{3, 4}, {2, 3}, {5}, {1}])
def test_repro_failing_cell_error_does_not_depend_on_jobs(
    tmp_path, capsys, monkeypatch, fork_start_method, failing
):
    real_train = evalkit.train

    def train(ds, cfg, plan):
        index = 3 * cfg.seed + evalkit.ALL_STRATEGIES.index(cfg.strategy)
        if index in failing:
            raise NumericError(f"cell {index} diverged")
        return real_train(ds, cfg, plan)

    monkeypatch.setattr(evalkit, "train", train)
    errs = _repro_errors(tmp_path, capsys)
    assert errs[0] == errs[1] == f"numeric error: cell {min(failing)} diverged\n"


def test_repro_failing_batch_plan_is_charged_to_the_seeds_first_cell(
    tmp_path, capsys, monkeypatch, fork_start_method
):
    # Seed 1's plan is drawn for cell 3 and serves cells 3-5; cell 4 would
    # fail too, but only after cell 3. At --jobs 4 the workers run cells
    # [0], [1, 2], [3] and [4, 5], so seed 1's plan fails in two of them.
    real_pk_sample, real_train = pipeline.pk_sample, evalkit.train

    def pk_sample(groups, p, k, rng):
        if rng.seed == 1:
            raise NumericError("seed 1 has no batches")
        return real_pk_sample(groups, p, k, rng)

    def train(ds, cfg, plan):
        if (cfg.seed, cfg.strategy) == (1, evalkit.ALL_STRATEGIES[1]):
            raise NumericError("cell 4 diverged")
        return real_train(ds, cfg, plan)

    monkeypatch.setattr(pipeline, "pk_sample", pk_sample)
    monkeypatch.setattr(evalkit, "train", train)
    errs = _repro_errors(tmp_path, capsys, ("1", "2", "4"))
    assert errs == ["numeric error: seed 1 has no batches\n"] * 3


def test_repro_batch_plan_of_the_wrong_shape_exits_3(tmp_path, monkeypatch, capsys):
    real_plan = evalkit.batch_plan
    monkeypatch.setattr(evalkit, "batch_plan", lambda ds, cfg: real_plan(ds, cfg)[:, :-1])
    argv = ["repro", "ensemble", "-o", str(tmp_path / "x"), "--seeds", "1", "--epochs", "1", "--jobs", "1"]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("data error: batch plan (1, ")


def test_epochs_whose_batch_plan_cannot_be_allocated_exit_2(tmp_path, monkeypatch, capsys):
    # Every array of more than 10**8 cells is refused as numpy refuses one
    # it cannot allocate; the test itself never asks for a huge array.
    real_empty = np.empty

    def empty(shape, *args, **kwargs):
        if np.prod(shape, dtype=object) > 10**8:
            raise MemoryError("cannot allocate")
        return real_empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", empty)
    cfg = _config(tmp_path, data=TINY_DATA, trn=TINY_TRAIN)
    assert main(["train", "-c", str(cfg), "-o", str(tmp_path / "t"), "--set", "train.epochs=1000000000"]) == 2
    argv = ["repro", "laziness-clean", "-o", str(tmp_path / "r"), "--epochs", "1000000000", "--jobs", "1"]
    assert main(argv) == 2
    train_err, repro_err = capsys.readouterr().err.splitlines()
    for err in (train_err, repro_err):
        assert err.startswith("config error: epochs=1000000000: the batch plan of shape (1000000000, ")
        assert err.endswith(" bytes, more than can be allocated")


def test_sizes_numpy_cannot_allocate_or_index_exit_2(tmp_path, monkeypatch, capsys):
    # numpy's refusals are faked as it raises them: MemoryError for an array
    # it cannot allocate (here past 10**8 cells), ValueError for a dimension
    # past intp and OverflowError for a bincount minlength past a C long.
    # The test itself never asks for a huge array.
    real_normal, real_bincount = Rng.normal, np.bincount

    def refuse(cells):
        if cells >= 2**63:
            raise ValueError("Maximum allowed dimension exceeded")
        if cells > 10**8:
            raise MemoryError(f"Unable to allocate {cells * 8} bytes")

    def normal(self, rows, cols):
        refuse(rows * cols)
        return real_normal(self, rows, cols)

    def bincount(x, weights=None, minlength=0):
        if minlength >= 2**63:
            raise OverflowError("Python int too large to convert to C long")
        refuse(minlength)
        return real_bincount(x, weights, minlength)

    monkeypatch.setattr(Rng, "normal", normal)
    monkeypatch.setattr(np, "bincount", bincount)
    cfg = _config(tmp_path, data=TINY_DATA, trn=TINY_TRAIN)
    ds = generate(SynthConfig(**TINY_DATA))
    ext = tmp_path / "a.uceb"
    write_embedding_file(ext, "mod0", ds.features[0], ds.ids, ds.view_ids)
    train = ["train", "-c", str(cfg), "-o", str(tmp_path / "t"), "--set"]
    external = ["eval", "--external", str(ext), "-o", str(tmp_path / "e"), "--set"]
    cases = {
        "data.obs_dim=100000000000": (train, "Unable to allocate"),
        "data.obs_dim=100000000000000000000": (train, "Maximum allowed dimension exceeded"),
        "train.embed_dim=100000000000": (train, "Unable to allocate"),
        "eval.max_rank=100000000000": (external, "Unable to allocate"),
        "eval.max_rank=100000000000000000000": (external, "Python int too large"),
    }
    for setting, (argv, cause) in cases.items():
        assert main([*argv, setting]) == 2, setting
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cause}"), setting
        assert err.endswith("; a configured size is too large\n") and err.count("\n") == 1, setting


def _gen_raising(tmp_path, monkeypatch, exc):
    def refuse(cfg):
        raise exc

    monkeypatch.setattr(cli, "generate", refuse)
    return main(["gen", "-c", str(_config(tmp_path, data=TINY_DATA)), "-o", str(tmp_path / "g")])


@pytest.mark.parametrize("exc", [
    MemoryError("Unable to allocate 74.5 GiB"),
    ValueError("Maximum allowed size exceeded"),
    ValueError("array is too big; `arr.size * arr.dtype.itemsize` is larger than the maximum possible size."),
    # data.views_per_id=10**18 makes np.repeat's total wrap past 2**63
    ValueError("negative dimensions are not allowed"),
    OverflowError("Python int too large to convert to C long"),
])
def test_every_numpy_size_refusal_exits_2(tmp_path, monkeypatch, capsys, exc):
    assert _gen_raising(tmp_path, monkeypatch, exc) == 2
    assert capsys.readouterr().err == f"config error: {exc}; a configured size is too large\n"


def test_a_value_error_that_is_no_size_refusal_keeps_its_traceback(tmp_path, monkeypatch):
    with pytest.raises(ValueError, match="could not be broadcast"):
        _gen_raising(tmp_path, monkeypatch, ValueError("operands could not be broadcast together"))


def test_repro_fails_fast_on_unwritable_out(tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    trained = []
    monkeypatch.setattr(evalkit, "train", lambda *args: trained.append(args))
    argv = ["repro", "ensemble", "-o", str(blocker / "out"), "--seeds", "1", "--jobs", "1"]
    assert main(argv) == 3
    assert "file error" in capsys.readouterr().err
    assert trained == []


def test_repro_failed_write_exits_3_and_leaves_no_file(tmp_path, monkeypatch, capsys):
    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    out = tmp_path / "suite"
    argv = ["repro", "ensemble", "-o", str(out), "--seeds", "1", "--epochs", "1", "--jobs", "1"]
    assert main(argv) == 3
    assert capsys.readouterr().err == "file error: replace refused\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("value", ["0", "-1"])
def test_repro_rejects_nonpositive_jobs(tmp_path, capsys, value):
    # --seeds, --jobs and --epochs alike, before -o is created
    out = tmp_path / "x"
    for flag in ("--seeds", "--jobs", "--epochs"):
        argv = ["repro", "ensemble", "-o", str(out), "--seeds", "1", "--jobs", "1", flag, value]
        assert main(argv) == 2, flag
        assert capsys.readouterr().err == f"config error: {flag} must be >= 1, got {value}\n"
        assert not out.exists(), flag


def test_repro_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        main(["repro", "nope", "-o", "/tmp/x"])


# A child interpreter that runs the CLI with the given argv (none: it only
# imports reidlab.cli) and prints which of the modules named below it
# loaded.
_IMPORTS_CHILD = """
import sys
import reidlab.cli
if sys.argv[1:]:
    assert reidlab.cli.main(sys.argv[1:]) == 0
print(" ".join(m for m in ("numpy.ma", "yaml", "multiprocessing", "concurrent.futures") if m in sys.modules))
"""


def _modules_loaded_by(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(evalkit.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _IMPORTS_CHILD, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_repro_and_cli_import_load_neither_numpy_ma_nor_yaml(tmp_path):
    # numpy.ma costs a process about 16 ms and yaml about 15 ms; repro
    # parses no YAML, and nothing needs masked arrays. Neither a --jobs 1
    # repro nor the import loads multiprocessing: only helpers need it.
    argv = ["repro", "laziness-clean", "-o", str(tmp_path / "suite"), "--seeds", "1",
            "--epochs", "1", "--jobs", "1"]
    assert _modules_loaded_by(argv) == []
    assert "yaml" not in _modules_loaded_by([])
