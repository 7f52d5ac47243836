"""Inputs and output checks for the workloads; run as a child of run.py.

    python benchmarks/checks.py prepare <workload> <seed> <run_dir>
    python benchmarks/checks.py check <workload> <seed> <run_dir> <round_dir>

`prepare` writes the inputs a workload reads from <run_dir>/inputs.
`check` verifies one round's outputs against the independent references
in reference.py. Both print one JSON object: {"errors": [...], "notes": [...]}.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

import reference as ref
from workloads import WORKLOADS, EvalGallery, PipelineWide, SuiteClean


def check_suite_clean(wl: SuiteClean, run_dir: Path, round_dir: Path) -> tuple:
    out = round_dir / "suite"
    cfg = json.loads((out / "config.json").read_text(encoding="utf-8"))
    errors = []
    if cfg["seeds"] != wl.seeds() or cfg["epochs"] != wl.EPOCHS:
        errors.append(f"config.json: seeds {cfg['seeds']} epochs {cfg['epochs']}")
    errs, claims = ref.suite_consistency(
        *((out / f).read_text(encoding="utf-8") for f in ("raw.csv", "table.csv", "claims.txt"))
    )
    return errors + errs, [f"claim: {line}" for line in claims]


def _check_dataset(wl: PipelineWide, data_dir: Path) -> tuple:
    """gen's files against the data config; returns (errors, features, split, ids)."""
    d = wl.DATA
    errors = []
    n_ids = d["ids_train"] + d["ids_test"]
    views = d["views_per_id"]
    n = n_ids * views
    ids = np.repeat(np.arange(n_ids), views)
    manifest = json.loads((data_dir / "manifest.json").read_text(encoding="utf-8"))
    for key in ("num_modalities", "latent_dim", "ids_train", "ids_test", "views_per_id"):
        if manifest["config"][key] != d[key]:
            errors.append(f"manifest config {key}: {manifest['config'][key]} vs {d[key]}")
    if manifest["config"]["seed"] != wl.seed or manifest["num_samples"] != n:
        errors.append("manifest: seed or num_samples differ from the data config")
    features = []
    for i in range(d["num_modalities"]):
        entry = manifest["modalities"][i]
        rec = ref.read_uceb(data_dir / entry["file"])
        got = (rec["version"], rec["name"], rec["n"], rec["d"], entry["dim"])
        want = (1, f"mod{i}", n, d["obs_dim"], d["obs_dim"])
        if got != want:
            errors.append(f"{entry['file']}: (version, name, rows, dim, manifest dim) {got} vs {want}")
        if not (np.array_equal(rec["ids"], ids)
                and np.array_equal(rec["views"], np.tile(np.arange(views), n_ids))):
            errors.append(f"{entry['file']}: ids or view ids differ from the data config")
        features.append(rec["features"])
    split = np.array(list(manifest["split"]))
    if split.size != n or not np.array_equal(split == "T", ids < d["ids_train"]):
        errors.append("manifest split: train rows are not exactly the train identities")
    else:
        q_per_id = np.bincount(ids[split == "Q"], minlength=n_ids)[d["ids_train"]:]
        if not np.all(q_per_id == max(1, views // 4)):
            errors.append("manifest split: query views per test identity differ from views // 4")
    return errors, features, split, ids


def check_pipeline_wide(wl: PipelineWide, run_dir: Path, round_dir: Path) -> tuple:
    errors, xs, split, ids = _check_dataset(wl, round_dir / "data")
    with open(round_dir / "run" / "loss_curve.csv", newline="", encoding="utf-8") as fh:
        losses = [float(row["loss"]) for row in csv.DictReader(fh)]
    if len(losses) != wl.TRAIN["epochs"] or not all(map(math.isfinite, losses)):
        errors.append(f"loss_curve.csv: {losses}")
    elif not losses[-1] < losses[0]:
        errors.append(f"loss_curve.csv: last epoch loss {losses[-1]} not below first {losses[0]}")
    ckpt = ref.read_checkpoint(round_dir / "run" / "checkpoint.bin")
    q, g = split == "Q", split == "G"
    for sel in ["multimodal", *range(len(xs))]:
        name = sel if sel == "multimodal" else f"mod{sel}"
        feats = ref.embed(ckpt, xs, sel)
        want = ref.retrieval(feats[q], ids[q], feats[g], ids[g])
        got = ref.read_report_csv(round_dir / "report" / f"report_{name}.csv")
        errors += ref.compare_report(f"report_{name}.csv", got, want, ids[q])
    return errors, [f"loss: first epoch {losses[0]!r}, last {losses[-1]!r}"]


def prepare_eval_gallery(wl: EvalGallery, run_dir: Path) -> None:
    rng = np.random.default_rng([wl.seed, 0xE6A1])
    ids = np.repeat(np.arange(wl.IDS), wl.VIEWS)
    views = np.tile(np.arange(wl.VIEWS), wl.IDS)
    centres = rng.standard_normal((wl.IDS, wl.DIM))
    inputs = run_dir / "inputs"
    inputs.mkdir()
    for name, sigma in wl.NOISE.items():
        x = (centres[ids] + sigma * rng.standard_normal((ids.size, wl.DIM))).astype(np.float32)
        if name == "planted":
            _require_separated(x.astype(np.float64), ids)
        ref.write_uceb(inputs / f"{name}.uceb", name, x, ids, views)


def _require_separated(x, ids, block: int = 500) -> None:
    """Every same-id cosine distance below every different-id distance."""
    xn = ref.l2_rows(x)
    max_same, min_diff = 0.0, 2.0
    for start in range(0, x.shape[0], block):
        d = 1.0 - xn[start:start + block] @ xn.T
        same = ids[start:start + block, None] == ids[None, :]
        max_same = max(max_same, float(d[same].max()))
        min_diff = min(min_diff, float(d[~same].min()))
    if not max_same + 1e-6 < min_diff:
        raise RuntimeError(f"planted file not separated: same-id {max_same} vs other {min_diff}")


def check_eval_gallery(wl: EvalGallery, run_dir: Path, round_dir: Path) -> tuple:
    recs = {name: ref.read_uceb(run_dir / "inputs" / f"{name}.uceb") for name in wl.NOISE}
    ids = recs["planted"]["ids"]
    is_q = ref.external_query_rows(ids, wl.VIEWS_AS_QUERY, wl.seed)
    feats = {name: rec["features"] for name, rec in recs.items()}
    feats["multimodal"] = np.concatenate([ref.l2_rows(f) for f in feats.values()], axis=1)
    errors, notes = [], []
    for name, f in feats.items():
        want = ref.retrieval(f[is_q], ids[is_q], f[~is_q], ids[~is_q])
        got = ref.read_report_csv(round_dir / "report" / f"report_{name}.csv")
        errors += ref.compare_report(f"report_{name}.csv", got, want, ids[is_q])
        if name == "planted" and not (got["map"] == want["map"] == 1.0 and got["rank1"] == 1.0):
            errors.append(f"planted file: mAP {got['map']!r}, Rank-1 {got['rank1']!r}, want 1.0")
        notes.append(f"{name}: mAP {got['map']:.4f}, Rank-1 {got['rank1']:.4f}")
    return errors, notes


CHECKS = {
    SuiteClean.name: check_suite_clean,
    PipelineWide.name: check_pipeline_wide,
    EvalGallery.name: check_eval_gallery,
}
PREPARE = {EvalGallery.name: prepare_eval_gallery}


def main() -> int:
    action, name, seed, run_dir = sys.argv[1], sys.argv[2], int(sys.argv[3]), Path(sys.argv[4])
    wl = WORKLOADS[name](seed)
    errors, notes = [], []
    if action == "prepare":
        if name in PREPARE:
            PREPARE[name](wl, run_dir)
    else:
        errors, notes = CHECKS[name](wl, run_dir, Path(sys.argv[5]))
    print(json.dumps({"errors": errors, "notes": notes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
