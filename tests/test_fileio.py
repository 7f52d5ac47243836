import json
import os
import struct
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reidlab.config import config_dict as synth_config_dict
from reidlab.errors import DataError, ShapeError
from reidlab.fileio import (
    EMBEDDING_MAGIC,
    atomic_write,
    dump_json,
    loss_curve_csv,
    read_dataset,
    read_embedding_file,
    write_dataset,
    write_embedding_file,
    write_run_record,
    write_text,
)
from reidlab import model as model_module
from reidlab.evalkit import evaluate, report_csv
from reidlab.model import FUSED_SELECTOR, embed_dataset, load_checkpoint, save_checkpoint
from reidlab.objectives import Strategy
from reidlab.pipeline import TrainConfig, config_hash, train
from reidlab.synthdata import SPLIT_TRAIN, SynthConfig, generate, select_modalities


def _ds(seed=0, m=2):
    return generate(SynthConfig(
        num_modalities=m, latent_dim=3, obs_dim=6, ids_train=6, ids_test=4,
        views_per_id=4, noise_sigma=0.3, view_jitter=0.1, seed=seed,
    ))


def _write(tmp_path, features, ids=None, views=None, name="mod0"):
    n = features.shape[0]
    ids = np.arange(n) if ids is None else ids
    views = np.zeros(n, dtype=int) if views is None else views
    path = tmp_path / "e.uceb"
    write_embedding_file(path, name, features, ids, views)
    return path


def test_embedding_file_roundtrip_is_float32_exact(tmp_path):
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(17, 5))
    ids = rng.integers(0, 50, size=17)
    views = rng.integers(0, 4, size=17)
    path = _write(tmp_path, feats, ids, views, name="thermal")
    rec = read_embedding_file(path)
    assert rec.name == "thermal"
    assert rec.features.dtype == np.float32 and rec.features.flags.c_contiguous
    # features stay float32 in memory; the roundtrip reproduces them exactly
    np.testing.assert_array_equal(rec.features, feats.astype(np.float32).astype(np.float64))
    np.testing.assert_array_equal(rec.ids, ids)
    np.testing.assert_array_equal(rec.view_ids, views)


def test_embedding_file_roundtrip_float32_inputs_bitwise(tmp_path):
    feats = np.random.default_rng(1).normal(size=(4, 3)).astype(np.float32).astype(np.float64)
    rec = read_embedding_file(_write(tmp_path, feats))
    np.testing.assert_array_equal(rec.features, feats)


def test_embedding_file_write_holds_only_its_payload(tmp_path):
    # float32 features go into the payload as they are, and the payload is
    # written from its own buffer: nothing else the size of the file is
    # held. The slack covers the ids' conversions (8 bytes a row each).
    n, d = 5000, 128
    feats = np.random.default_rng(4).normal(size=(n, d)).astype(np.float32)
    ids, views = np.arange(n) // 10, np.arange(n) % 10
    payload_bytes = n * (8 + 4 + 4 * d)
    tracemalloc.start()
    try:
        write_embedding_file(tmp_path / "f.uceb", "m", feats, ids, views)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < payload_bytes + 32 * n, (peak, payload_bytes)
    rec = read_embedding_file(tmp_path / "f.uceb")
    assert rec.features.tobytes() == feats.tobytes()
    # float64 features are rounded as astype(float32) rounds them.
    wide = feats.astype(np.float64) * (1.0 + 2.0 ** -30)
    write_embedding_file(tmp_path / "w.uceb", "m", wide, ids, views)
    assert read_embedding_file(tmp_path / "w.uceb").features.tobytes() == wide.astype(np.float32).tobytes()


def test_embedding_file_unicode_name_and_empty(tmp_path):
    path = _write(tmp_path, np.zeros((0, 7)), np.zeros(0, int), np.zeros(0, int),
                  name="iré")
    rec = read_embedding_file(path)
    assert rec.name == "iré"
    assert rec.features.shape == (0, 7)


def test_embedding_file_write_validation(tmp_path):
    with pytest.raises(ShapeError):
        write_embedding_file(tmp_path / "x", "m", np.zeros(3), np.arange(3), np.arange(3))
    with pytest.raises(ShapeError):
        write_embedding_file(tmp_path / "x", "m", np.zeros((3, 2)), np.arange(2), np.arange(3))
    with pytest.raises(DataError):
        write_embedding_file(tmp_path / "x", "m", np.zeros((2, 2)),
                             np.array([-1, 0]), np.zeros(2, int))


def test_embedding_file_corruption_errors(tmp_path):
    path = _write(tmp_path, np.ones((3, 2)))
    blob = path.read_bytes()

    bad_magic = tmp_path / "m.uceb"
    bad_magic.write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(DataError):
        read_embedding_file(bad_magic)

    bad_version = tmp_path / "v.uceb"
    bad_version.write_bytes(blob[:4] + struct.pack("<I", 99) + blob[8:])
    with pytest.raises(DataError):
        read_embedding_file(bad_version)

    truncated = tmp_path / "t.uceb"
    truncated.write_bytes(blob[:-5])
    with pytest.raises(DataError):
        read_embedding_file(truncated)

    trailing = tmp_path / "x.uceb"
    trailing.write_bytes(blob + b"\x00" * 3)
    with pytest.raises(DataError):
        read_embedding_file(trailing)

    tiny = tmp_path / "s.uceb"
    tiny.write_bytes(EMBEDDING_MAGIC + b"\x01")
    with pytest.raises(DataError):
        read_embedding_file(tiny)

    nonfinite = np.ones((2, 2))
    ok = tmp_path / "f.uceb"
    write_embedding_file(ok, "m", nonfinite, np.arange(2), np.zeros(2, int))
    payload = bytearray(ok.read_bytes())
    payload[-4:] = struct.pack("<f", float("nan"))
    ok.write_bytes(bytes(payload))
    with pytest.raises(DataError):
        read_embedding_file(ok)


def test_dataset_directory_roundtrip(tmp_path):
    ds = _ds()
    cfg = SynthConfig(num_modalities=2, latent_dim=3, obs_dim=6, ids_train=6,
                      ids_test=4, views_per_id=4, noise_sigma=0.3,
                      view_jitter=0.1, seed=0)
    outdir = tmp_path / "data"
    write_dataset(ds, outdir, cfg)
    assert (outdir / "manifest.json").exists()
    assert (outdir / "modality_0.uceb").exists()

    back, manifest = read_dataset(outdir)
    assert back.modality_names == ds.modality_names
    np.testing.assert_array_equal(back.ids, ds.ids)
    np.testing.assert_array_equal(back.view_ids, ds.view_ids)
    np.testing.assert_array_equal(back.split, ds.split)
    for a, b in zip(back.features, ds.features):
        np.testing.assert_array_equal(a, b.astype(np.float32).astype(np.float64))
    assert manifest["config"] == synth_config_dict(cfg)
    assert manifest["config_hash"] == config_hash(synth_config_dict(cfg))
    assert manifest["num_samples"] == ds.num_samples


@pytest.mark.parametrize("strategy", list(Strategy))
def test_float32_dataset_gives_the_bytes_of_its_float64_upcast(tmp_path, strategy):
    # A dataset read back keeps its features float32, as stored. Every
    # computation upcasts the rows it reads, which is exact, so training,
    # embedding and ranking give the bytes of the same values as float64.
    write_dataset(_ds(m=3), tmp_path / "data")
    ds32, _ = read_dataset(tmp_path / "data")
    assert all(f.dtype == np.float32 for f in ds32.features)
    ds64 = replace(ds32, features=[f.astype(np.float64) for f in ds32.features])
    cfg = TrainConfig(strategy=strategy, p=3, k=2, lr_base=0.05, momentum=0.9, epochs=3,
                      warmup_epochs=1, hidden_dims=(8,), embed_dim=4, seed=0)
    blobs = []
    for ds in (ds32, ds64):
        model = train(ds, cfg).model
        save_checkpoint(model, tmp_path / "checkpoint.bin")
        blobs.append((tmp_path / "checkpoint.bin").read_bytes())
    assert blobs[0] == blobs[1]
    test32, test64 = (ds.take(ds.split != SPLIT_TRAIN) for ds in (ds32, ds64))
    q_ids = test32.ids[test32.query_rows]
    for selector in [FUSED_SELECTOR, 0, 1, 2]:
        e32, e64 = (embed_dataset(model, test, selector) for test in (test32, test64))
        assert e32.tobytes() == e64.tobytes()
    for f32, f64 in zip(test32.features, test64.features):
        assert (report_csv(evaluate(test32, lambda rows: f32[rows]), q_ids)
                == report_csv(evaluate(test64, lambda rows: f64[rows]), q_ids))


def test_dataset_directory_errors(tmp_path):
    with pytest.raises(DataError):
        read_dataset(tmp_path)  # no manifest

    ds = _ds()
    outdir = tmp_path / "data"
    write_dataset(ds, outdir)
    manifest = json.loads((outdir / "manifest.json").read_text())

    manifest["split"] = manifest["split"][:-1]
    (outdir / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DataError):
        read_dataset(outdir)

    manifest["split"] = "Z" * _ds().num_samples
    (outdir / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DataError):
        read_dataset(outdir)

    (outdir / "manifest.json").write_text("{not json")
    with pytest.raises(DataError):
        read_dataset(outdir)

    write_dataset(ds, outdir)
    manifest = json.loads((outdir / "manifest.json").read_text())
    manifest["modalities"][0]["name"] = "renamed"
    (outdir / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DataError):
        read_dataset(outdir)


def test_loss_curve_csv_and_run_record(tmp_path):
    ds = _ds()
    cfg = TrainConfig(strategy=Strategy.FUSION_CONCAT, p=3, k=2, lr_base=0.05,
                      momentum=0.9, epochs=3, warmup_epochs=1,
                      hidden_dims=(8,), embed_dim=4, seed=0)
    rec = train(ds, cfg)

    csv = loss_curve_csv(rec)
    lines = csv.strip().split("\n")
    assert lines[0] == "epoch,loss,lr"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0"
    # repr() serialization: parsing back is exact
    assert float(first[1]) == rec.epoch_losses[0]
    assert float(first[2]) == rec.epoch_lrs[0]

    outdir = tmp_path / "run"
    write_run_record(rec, outdir, extra={"note": "demo"})
    snapshot = json.loads((outdir / "config.json").read_text())
    assert snapshot["config_hash"] == config_hash(rec.config)
    assert snapshot["seed"] == rec.config.seed
    assert snapshot["config"]["strategy"] == "fusion-concat"
    assert snapshot["note"] == "demo"
    assert (outdir / "loss_curve.csv").read_text() == csv

    model = load_checkpoint(outdir / "checkpoint.bin")
    assert model.strategy == Strategy.FUSION_CONCAT
    for a, b in zip(model.streams, rec.model.streams):
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        np.testing.assert_array_equal(a.bn.running_mean, b.bn.running_mean)
    np.testing.assert_array_equal(model.fused.classifier, rec.model.fused.classifier)


# ----------------------------------------------------------- atomic writes

def _tiny_run(seed):
    cfg = TrainConfig(strategy=Strategy.UNICAT, p=3, k=2, lr_base=0.05, momentum=0.9, epochs=1,
                      warmup_epochs=0, hidden_dims=(4,), embed_dim=2, seed=seed)
    return train(_DS, cfg)


# Each writer, called as write(path, v): v = 0 and v = 1 write different bytes.
_WRITERS = {
    "embedding": lambda path, v: write_embedding_file(path, f"mod{v}", _DS.features[v], _DS.ids, _DS.view_ids),
    "json": lambda path, v: dump_json({"v": v}, path),
    "text": lambda path, v: write_text(path, f"v{v}\n"),
    "checkpoint": lambda path, v: save_checkpoint(_tiny_run(v).model, path),
    "run record": lambda path, v: write_run_record(_tiny_run(v), path.parent),
}


@pytest.mark.parametrize("writer", list(_WRITERS))
def test_failed_replace_leaves_no_partial_file(tmp_path, monkeypatch, writer):
    # A writer killed between its last byte and the rename: the target is
    # absent or keeps its old bytes, and no temporary file is left.
    write = _WRITERS[writer]
    fresh, kept = tmp_path / "fresh", tmp_path / "kept"
    fresh.mkdir()
    kept.mkdir()
    write(kept / "f", 0)
    old = {p.name: p.read_bytes() for p in kept.iterdir()}

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    for target, v in ((fresh / "f", 0), (kept / "f", 1)):
        with pytest.raises(OSError, match="replace refused"):
            write(target, v)
    monkeypatch.undo()
    assert list(fresh.iterdir()) == []
    assert {p.name: p.read_bytes() for p in kept.iterdir()} == old
    write(kept / "f", 1)
    new = {p.name: p.read_bytes() for p in kept.iterdir()}
    assert new.keys() == old.keys() and new != old


def test_failed_checkpoint_write_leaves_the_whole_old_run_record(tmp_path, monkeypatch):
    write_run_record(_tiny_run(0), tmp_path)
    old = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(old) == ["checkpoint.bin", "config.json", "loss_curve.csv"]

    def refuse(params, path):
        raise OSError("disk full")

    monkeypatch.setattr(model_module, "save_checkpoint", refuse)
    with pytest.raises(OSError, match="disk full"):
        write_run_record(_tiny_run(1), tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == old


def test_atomic_write_error_mid_write_keeps_old_bytes(tmp_path):
    path = tmp_path / "f.txt"
    write_text(path, "old\n")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("half")
            raise RuntimeError("killed")
    assert path.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [path]


def test_atomic_write_gives_the_permissions_of_open(tmp_path):
    write_text(tmp_path / "atomic", "x")
    (tmp_path / "plain").write_text("x")
    assert (tmp_path / "atomic").stat().st_mode == (tmp_path / "plain").stat().st_mode


# ------------------------------------------------- fuzzed reader inputs
#
# Every reader either round-trips a mutated file or raises DataError;
# any other exception is a reader bug.

@st.composite
def _mutated(draw, blob: bytes, donor: bytes):
    """blob truncated, with bytes flipped, or spliced with a suffix of donor."""
    kind = draw(st.sampled_from(["truncate", "flip", "splice"]))
    if kind == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    if kind == "splice":
        return blob[: draw(st.integers(0, len(blob)))] + donor[draw(st.integers(0, len(donor))):]
    out = bytearray(blob)
    for _ in range(draw(st.integers(1, 3))):
        # Half the flips land in the first 64 bytes, where headers live.
        i = draw(st.one_of(st.integers(0, 63), st.integers(0, len(blob) - 1)))
        out[i] ^= draw(st.integers(1, 255))
    return bytes(out)


def _uceb_bytes(name, features, ids, views) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.uceb"
        write_embedding_file(path, name, features, ids, views)
        return path.read_bytes()


_DS = _ds()
_UCEB = _uceb_bytes("mod0", _DS.features[0], _DS.ids, _DS.view_ids)
_UCEB_DONOR = _uceb_bytes("other", _DS.features[1][:5, :4], _DS.ids[:5], _DS.view_ids[:5])
_FUZZ = settings(max_examples=200, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FUZZ
@given(blob=_mutated(_UCEB, _UCEB_DONOR))
def test_fuzzed_embedding_file_round_trips_or_is_data_error(tmp_path, blob):
    path = tmp_path / "f.uceb"
    path.write_bytes(blob)
    try:
        rec = read_embedding_file(path)
    except DataError:
        return
    write_embedding_file(path, rec.name, rec.features, rec.ids, rec.view_ids)
    assert path.read_bytes() == blob


def _checkpoint_bytes(strategy) -> bytes:
    cfg = TrainConfig(strategy=strategy, p=3, k=2, epochs=2, warmup_epochs=1,
                      hidden_dims=(8,), embed_dim=4, seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.bin"
        save_checkpoint(train(_DS, cfg).model, path)
        return path.read_bytes()


_CHECKPOINT = _checkpoint_bytes(Strategy.FUSION_CONCAT)
_CHECKPOINT_DONOR = _checkpoint_bytes(Strategy.UNICAT)


@_FUZZ
@given(blob=_mutated(_CHECKPOINT, _CHECKPOINT_DONOR))
def test_fuzzed_checkpoint_round_trips_or_is_data_error(tmp_path, blob):
    path = tmp_path / "checkpoint.bin"
    path.write_bytes(blob)
    try:
        model = load_checkpoint(path)
    except DataError:
        return
    save_checkpoint(model, path)
    saved = path.read_bytes()
    payload = len(saved) - 16 - int.from_bytes(saved[8:16], "little")
    assert blob[-payload:] == saved[-payload:]  # the arrays are the file's own bytes
    save_checkpoint(load_checkpoint(path), path)
    assert path.read_bytes() == saved


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("fuzz") / "data"
    write_dataset(_DS, outdir)
    return outdir


def _manifest_cases():
    with tempfile.TemporaryDirectory() as tmp:
        write_dataset(_DS, tmp)
        blob = (Path(tmp) / "manifest.json").read_bytes()
        write_dataset(select_modalities(_DS, [1]), tmp)
        return blob, (Path(tmp) / "manifest.json").read_bytes()


@_FUZZ
@given(blob=_mutated(*_manifest_cases()))
def test_fuzzed_manifest_round_trips_or_is_data_error(tmp_path, dataset_dir, blob):
    (dataset_dir / "manifest.json").write_bytes(blob)
    try:
        ds, _ = read_dataset(dataset_dir)
    except DataError:
        return
    write_dataset(ds, tmp_path / "copy")
    back, _ = read_dataset(tmp_path / "copy")
    assert back.modality_names == ds.modality_names
    for a, b in zip(back.features, ds.features):
        np.testing.assert_array_equal(a, b)
    for name in ("ids", "view_ids", "split"):
        np.testing.assert_array_equal(getattr(back, name), getattr(ds, name))
