"""On-disk formats: embedding files, dataset directories, run records.

Embedding file layout (little-endian throughout):

    offset  size  field
    0       4     magic "UCEB"
    4       4     format version (unsigned, currently 1)
    8       8     N: number of samples (unsigned)
    16      4     D: feature dimension (unsigned)
    20      4     L: modality-name length in bytes (unsigned)
    24      L     modality name, UTF-8
    24+L    ...   N records of { id: 8-byte unsigned, view_id: 4-byte
                  unsigned, D float32 values }

Features are float32 on disk and float64 in memory; the write-side
conversion is the only lossy step and is documented here. Everything
else round-trips exactly.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .config import config_dict
from .errors import DataError, ShapeError
from .pipeline import RunRecord, config_hash
from .synthdata import (
    SPLIT_GALLERY,
    SPLIT_QUERY,
    SPLIT_TRAIN,
    MultimodalDataset,
    SynthConfig,
)

EMBEDDING_MAGIC = b"UCEB"
EMBEDDING_VERSION = 1

_SPLIT_CODES = {SPLIT_TRAIN: "T", SPLIT_QUERY: "Q", SPLIT_GALLERY: "G"}
_SPLIT_FROM_CODE = {v: k for k, v in _SPLIT_CODES.items()}


@dataclass
class EmbeddingRecord:
    """In-memory form of one embedding file."""

    name: str
    features: np.ndarray  # (n, d) float64 (float32 precision)
    ids: np.ndarray  # (n,) int64
    view_ids: np.ndarray  # (n,) int64


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


@contextmanager
def atomic_write(path, mode: str = "w"):
    """A file handle (text in UTF-8, or binary with mode "wb") whose bytes
    appear at path only when the block exits without an error.

    They go to a temporary file in path's directory, which then replaces
    path (os.replace), so a reader sees the old file or the whole new one.
    On an error the temporary file is removed and path is left as it was.
    The new file gets the permissions open() would give it.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with open(fd, mode, encoding=None if "b" in mode else "utf-8") as fh:
            os.chmod(tmp, 0o666 & ~_umask())
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_text(path, text: str) -> None:
    with atomic_write(path) as fh:
        fh.write(text)


def write_embedding_file(path, name: str, features, ids, view_ids) -> None:
    features = np.asarray(features, dtype=np.float64)
    ids = np.asarray(ids, dtype=np.int64)
    view_ids = np.asarray(view_ids, dtype=np.int64)
    if features.ndim != 2:
        raise ShapeError(f"features must be 2-D, got {features.shape}")
    n, d = features.shape
    if ids.shape != (n,) or view_ids.shape != (n,):
        raise ShapeError(
            f"ids {ids.shape} / view_ids {view_ids.shape} misaligned with {n} samples"
        )
    if n and (ids.min() < 0 or view_ids.min() < 0):
        raise DataError("ids and view_ids must be non-negative for serialization")
    name_bytes = str(name).encode("utf-8")
    payload = np.empty(
        n, dtype=np.dtype([("id", "<u8"), ("view", "<u4"), ("feat", "<f4", (d,))])
    )
    payload["id"] = ids.astype(np.uint64)
    payload["view"] = view_ids.astype(np.uint32)
    payload["feat"] = features.astype(np.float32)
    with atomic_write(path, "wb") as fh:
        fh.write(EMBEDDING_MAGIC)
        fh.write(struct.pack("<I", EMBEDDING_VERSION))
        fh.write(struct.pack("<Q", n))
        fh.write(struct.pack("<I", d))
        fh.write(struct.pack("<I", len(name_bytes)))
        fh.write(name_bytes)
        fh.write(payload.tobytes())


def read_embedding_file(path) -> EmbeddingRecord:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read embedding file: {exc}") from None
    if len(blob) < 24 or blob[:4] != EMBEDDING_MAGIC:
        raise DataError(f"{path}: not an embedding file (bad magic)")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != EMBEDDING_VERSION:
        raise DataError(f"{path}: unsupported embedding file version {version}")
    (n,) = struct.unpack_from("<Q", blob, 8)
    (d,) = struct.unpack_from("<I", blob, 16)
    (name_len,) = struct.unpack_from("<I", blob, 20)
    offset = 24 + name_len
    if len(blob) < offset:
        raise DataError(f"{path}: truncated before modality name ends")
    try:
        name = blob[24:offset].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: modality name is not valid UTF-8: {exc}") from None
    record_size = 8 + 4 + 4 * d
    expected = offset + n * record_size
    if len(blob) != expected:
        raise DataError(
            f"{path}: file length {len(blob)} does not match header "
            f"(expected {expected} for N={n}, D={d})"
        )
    payload = np.frombuffer(
        blob, dtype=np.dtype([("id", "<u8"), ("view", "<u4"), ("feat", "<f4", (d,))]),
        count=n, offset=offset,
    )
    if n and payload["id"].max() > np.iinfo(np.int64).max:
        raise DataError(f"{path}: ids must be below 2**63")
    ids = payload["id"].astype(np.int64)
    view_ids = payload["view"].astype(np.int64)
    features = payload["feat"].astype(np.float64).reshape(n, d)
    if not np.all(np.isfinite(features)):
        raise DataError(f"{path}: embeddings contain non-finite values")
    return EmbeddingRecord(name=name, features=features, ids=ids, view_ids=view_ids)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def dump_json(obj, path: Path) -> None:
    write_text(path, _json_text(obj))


def _manifest(ds: MultimodalDataset, files: list, cfg_dict: Optional[dict]) -> dict:
    """The manifest.json written for ds, its modality files and its generator config."""
    return {
        "format": "reidlab-dataset",
        "version": 1,
        "num_samples": ds.num_samples,
        "modalities": [
            {"name": name, "file": fname, "dim": int(x.shape[1])}
            for name, fname, x in zip(ds.modality_names, files, ds.features)
        ],
        "split": "".join(_SPLIT_CODES[int(s)] for s in ds.split),
        "config": cfg_dict,
        "config_hash": config_hash(cfg_dict) if cfg_dict is not None else None,
    }


def _canonical(obj: dict) -> dict:
    """Each value's sorted-key JSON text, so that 1, 1.0 and true differ."""
    return {k: json.dumps(v, sort_keys=True) for k, v in obj.items()}


def write_dataset(ds: MultimodalDataset, outdir, cfg: Optional[SynthConfig] = None) -> None:
    """Dataset directory: one embedding file per modality + manifest.json."""
    ds.validate()
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    files = [f"modality_{i}.uceb" for i in range(ds.num_modalities)]
    for name, fname, x in zip(ds.modality_names, files, ds.features):
        write_embedding_file(outdir / fname, name, x, ds.ids, ds.view_ids)
    dump_json(_manifest(ds, files, None if cfg is None else config_dict(cfg)), outdir / "manifest.json")


def read_dataset(path) -> tuple[MultimodalDataset, dict]:
    """A dataset directory whose manifest.json is exactly the one written
    for its files: every count, dim, name and the config hash must agree."""
    path = Path(path)
    manifest_path = path / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{manifest_path}: cannot read manifest: {exc}") from None
    if not isinstance(manifest, dict):
        raise DataError(f"{manifest_path}: manifest is not a JSON object")
    if manifest.get("format") != "reidlab-dataset" or manifest.get("version") != 1:
        raise DataError(f"{manifest_path}: unsupported dataset manifest")
    if not isinstance(manifest.get("modalities"), list) or not isinstance(manifest.get("split"), str):
        raise DataError(f"{manifest_path}: manifest needs a 'modalities' list and a 'split' string")
    for entry in manifest["modalities"]:
        if not (isinstance(entry, dict) and all(isinstance(entry.get(k), str) for k in ("file", "name"))):
            raise DataError(f"{manifest_path}: each modality entry needs string 'file' and 'name'")
    files = [entry["file"] for entry in manifest["modalities"]]
    features = []
    names = []
    ids = None
    view_ids = None
    for fname in files:
        rec = read_embedding_file(path / fname)
        if ids is None:
            ids, view_ids = rec.ids, rec.view_ids
        elif not (np.array_equal(ids, rec.ids) and np.array_equal(view_ids, rec.view_ids)):
            raise DataError(f"{fname}: ids/view_ids differ across modality files")
        features.append(rec.features)
        names.append(rec.name)
    split_str = manifest["split"]
    if ids is None or len(split_str) != ids.shape[0]:
        raise DataError(f"{manifest_path}: split string does not match sample count")
    try:
        split = np.array([_SPLIT_FROM_CODE[c] for c in split_str], dtype=np.int8)
    except KeyError as exc:
        raise DataError(f"{manifest_path}: bad split code {exc}") from None
    ds = MultimodalDataset(
        features=features, ids=ids, view_ids=view_ids, split=split, modality_names=names
    )
    ds.validate()
    want = _canonical(_manifest(ds, files, manifest.get("config")))
    got = _canonical(manifest)
    differ = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    if differ:
        raise DataError(f"{manifest_path}: key(s) {differ} differ from the manifest written for these files")
    return ds, manifest


def loss_curve_csv(rec: RunRecord) -> str:
    lines = ["epoch,loss,lr"]
    for e, (loss, lr) in enumerate(zip(rec.epoch_losses, rec.epoch_lrs)):
        lines.append(f"{e},{float(loss)!r},{float(lr)!r}")
    return "\n".join(lines) + "\n"


def write_run_record(rec: RunRecord, outdir, extra: Optional[dict] = None) -> None:
    """Run directory: config snapshot, loss curve CSV, checkpoint blob.

    The checkpoint is saved while the other two files are still open, so
    an error while writing any of the three replaces none of them.
    """
    from .model import save_checkpoint  # local import to keep fileio light

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    snapshot = {
        "config": config_dict(rec.config),
        "config_hash": config_hash(rec.config),
        "seed": rec.config.seed,
    }
    if extra:
        snapshot.update(extra)
    with atomic_write(outdir / "config.json") as config_fh:
        config_fh.write(_json_text(snapshot))
        with atomic_write(outdir / "loss_curve.csv") as curve_fh:
            curve_fh.write(loss_curve_csv(rec))
            save_checkpoint(rec.model, outdir / "checkpoint.bin")
