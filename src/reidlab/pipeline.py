"""Training orchestration: PK batches, the loss wiring of each strategy,
SGD with momentum, warmup+cosine learning-rate schedule, the epoch loop,
and grid search.

A run is a pure function of (dataset, config): the model init, the batch
sequence, and every update are derived from named sub-streams of the
config seed, so identical inputs give bit-identical RunRecords. Under
unicat each stream's updates depend only on that stream's own loss and
its own named init stream, which makes joint training of M streams
exactly equivalent to training each stream alone.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .config import TrainConfig, config_dict
from .errors import ConfigError, DataError, NumericError, ShapeError
from .model import (
    FUSED_SELECTOR,
    ModelParams,
    embed_dataset,
    head_backward,
    head_forward,
    init_model,
    iter_trainables,
    stream_backward,
    stream_forward,
)
from .numerics import Rng, label_groups, sorted_unique
from .objectives import LossConfig, combined_loss, fuse, inference_fusion_op, split_fusion_grad
from .synthdata import SPLIT_GALLERY, SPLIT_TRAIN, MultimodalDataset, split_query_gallery

LR_MIN_RATIO = 0.002


def config_hash(obj) -> str:
    """sha256 over the canonical JSON form of a config mapping."""
    if isinstance(obj, TrainConfig):
        obj = config_dict(obj)
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class RunRecord:
    config: TrainConfig
    epoch_losses: np.ndarray
    epoch_lrs: np.ndarray
    model: ModelParams


def pk_sample(groups: tuple[np.ndarray, list], p: int, k: int, rng: Rng) -> np.ndarray:
    """Batch of P distinct identities x K samples each, from the
    label_groups(y) of the labels y (built once per run).

    Identities are drawn without replacement; within an identity,
    samples are drawn without replacement unless it has fewer than K
    samples, in which case replacement is allowed.
    """
    ids, rows_of = groups
    if ids.size < p:
        raise DataError(f"PK sampling needs >= {p} distinct ids, got {ids.size}")
    chosen = rng.choice(ids, size=p, replace=False)
    parts = []
    for at in np.searchsorted(ids, chosen):
        rows = rows_of[at]
        parts.append(rng.choice(rows, size=k, replace=rows.size < k))
    return np.concatenate(parts).astype(np.int64)


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Linear warmup to lr_base, then cosine decay to LR_MIN_RATIO*lr_base."""
    if not (0 <= epoch < cfg.epochs):
        raise ConfigError(f"epoch {epoch} out of range [0, {cfg.epochs})")
    if epoch < cfg.warmup_epochs:
        return cfg.lr_base * (epoch + 1) / cfg.warmup_epochs
    lr_min = LR_MIN_RATIO * cfg.lr_base
    span = cfg.epochs - cfg.warmup_epochs
    t = (epoch - cfg.warmup_epochs) / span
    return lr_min + 0.5 * (cfg.lr_base - lr_min) * (1.0 + math.cos(math.pi * t))


def sgd_step(trainables: Sequence, grads: dict, velocity: dict, lr: float, momentum: float) -> None:
    """v <- momentum*v + g; p <- p - lr*v, in place on the live buffers and
    on velocity, which maps each trainable's key to its v."""
    for key, param in trainables:
        if key not in grads:
            raise ShapeError(f"missing gradient for parameter {key!r}")
        g = grads[key]
        if g.shape != param.shape:
            raise ShapeError(f"gradient shape {g.shape} != param shape {param.shape} for {key!r}")
        v = velocity[key]
        v *= momentum
        v += g
        param -= lr * v


def _train_labels(ds: MultimodalDataset, cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """The class index of every train row, and the sorted train ids they
    index, at least cfg.p of them."""
    rows = ds.train_rows
    if rows.size == 0:
        raise DataError("dataset has no training rows")
    y_raw = ds.ids[rows]
    classes = sorted_unique(y_raw)
    if classes.size < cfg.p:
        raise DataError(f"config asks P={cfg.p} ids per batch, train set has {classes.size}")
    return np.searchsorted(classes, y_raw).astype(np.int64), classes


def _plan_shape(num_rows: int, cfg: TrainConfig) -> tuple:
    return cfg.epochs, max(1, math.ceil(num_rows / cfg.batch_size)), cfg.p * cfg.k


def _draw_plan(y: np.ndarray, cfg: TrainConfig) -> np.ndarray:
    shape = _plan_shape(y.size, cfg)
    sampler = Rng(cfg.seed).split("batches")
    groups = label_groups(y)
    try:
        plan = np.empty(shape, dtype=np.int64)
    except (MemoryError, ValueError) as exc:  # ValueError: more bytes than numpy can index
        raise ConfigError(f"epochs={cfg.epochs}: the batch plan of shape {shape} needs "
                          f"{math.prod(shape) * 8} bytes, more than can be allocated") from exc
    for step in plan.reshape(-1, shape[2]):
        step[:] = pk_sample(groups, cfg.p, cfg.k, sampler)
    return plan


def batch_plan(ds: MultimodalDataset, cfg: TrainConfig) -> np.ndarray:
    """The PK batches of train(ds, cfg), drawn up front: plan[epoch, b]
    holds the positions, among ds's train rows, of batch b of that epoch.

    The plan depends only on ds's train labels and on cfg's seed, p, k and
    epochs, so configs that differ in anything else, such as the strategy,
    share it: train(ds, cfg, plan) then gives the bytes of train(ds, cfg).
    """
    cfg.validate()
    return _draw_plan(_train_labels(ds, cfg)[0], cfg)


def batch_gradients(
    model: ModelParams,
    x_batch: Sequence,
    y_batch: np.ndarray,
    loss_cfg: LossConfig,
) -> tuple[float, dict]:
    """One strategy-aware forward/backward on a fixed batch.

    The loss is attached to the fused head under fusion strategies and to
    every stream's head under unicat; the batch loss is the in-order sum
    of those heads' combined losses. Returns it and gradients keyed like
    iter_trainables. The forward moves every BN running statistic; the
    loss does not read them (train mode normalizes by batch statistics).
    """
    num_streams = model.num_streams
    if len(x_batch) != num_streams:
        raise ShapeError(f"{len(x_batch)} input blocks for {num_streams} streams")
    outs = [stream_forward(model.streams[i], x_batch[i], train=True) for i in range(num_streams)]
    fusion = model.strategy.is_fusion
    if fusion:
        op = inference_fusion_op(model.strategy)
        z_fuse = fuse([o.z for o in outs], op)
        fused_out = head_forward(model.fused, z_fuse, train=True)
    loss = 0.0
    head_grads = []  # (grad at z, grad at logits) per loss head, then per stream
    for out in [fused_out] if fusion else outs:
        loss_i, grad_z, grad_logits = combined_loss(out.z, out.logits, y_batch, loss_cfg)
        loss += loss_i
        head_grads.append((grad_z, grad_logits))
    fused = None
    if fusion:
        fused, gz_fuse = head_backward(model.fused, fused_out, *head_grads[0])
        head_grads = [(gz, None) for gz in split_fusion_grad(gz_fuse, op, [o.z.shape[1] for o in outs])]
    streams = [
        stream_backward(model.streams[i], outs[i], gz, glog)
        for i, (gz, glog) in enumerate(head_grads)
    ]
    return loss, dict(iter_trainables(replace(model, streams=streams, fused=fused)))


def train(ds: MultimodalDataset, cfg: TrainConfig, plan: Optional[np.ndarray] = None) -> RunRecord:
    """Full training run; deterministic given (ds, cfg). plan, if given,
    is batch_plan(ds, cfg) drawn ahead, e.g. once for several strategies;
    by default train draws its own."""
    cfg.validate()
    ds.validate()
    y, classes = _train_labels(ds, cfg)
    plan = _draw_plan(y, cfg) if plan is None else np.asarray(plan)
    if plan.shape != _plan_shape(y.size, cfg):
        raise ShapeError(f"batch plan {plan.shape} does not match {_plan_shape(y.size, cfg)} for this run")
    if not np.issubdtype(plan.dtype, np.integer) or plan.min() < 0 or plan.max() >= y.size:
        raise DataError(f"batch plan must hold integer positions among {y.size} train rows")
    xs = [np.ascontiguousarray(f[ds.train_rows]) for f in ds.features]
    root = Rng(cfg.seed)
    model = init_model(
        [x.shape[1] for x in xs],
        ds.modality_names,
        cfg.strategy,
        classes.size,
        root,
        hidden_dims=cfg.hidden_dims,
        embed_dim=cfg.embed_dim,
    )
    trainables = iter_trainables(model)
    velocity = {key: np.zeros_like(arr) for key, arr in trainables}
    epoch_losses = np.empty(cfg.epochs, dtype=np.float64)
    epoch_lrs = np.empty(cfg.epochs, dtype=np.float64)

    for epoch, batches in enumerate(plan):
        lr = lr_at(epoch, cfg)
        batch_losses = np.empty(len(batches), dtype=np.float64)
        for b, idx in enumerate(batches):
            loss, grads = batch_gradients(model, [x[idx] for x in xs], y[idx], cfg.loss)
            if not math.isfinite(loss):
                raise NumericError(f"training loss diverged at epoch {epoch}, batch {b}")
            sgd_step(trainables, grads, velocity, lr, cfg.momentum)
            batch_losses[b] = loss
        epoch_losses[epoch] = batch_losses.mean()
        epoch_lrs[epoch] = lr
    model.validate()
    return RunRecord(config=cfg, epoch_losses=epoch_losses, epoch_lrs=epoch_lrs, model=model)


def carve_validation(ds: MultimodalDataset, rng: Rng, id_fraction: float = 0.1) -> MultimodalDataset:
    """Hold out a fraction of train identities as a query/gallery split.

    Returns a dataset of the original train rows only: held-out ids
    become the validation query/gallery, the rest stay training rows.
    Test rows never enter, so model selection cannot leak test identity.
    """
    rows = ds.train_rows
    if rows.size == 0:
        raise DataError("dataset has no training rows to carve validation from")
    ids = sorted_unique(ds.ids[rows])
    n_val = max(2, int(round(id_fraction * ids.size)))
    if ids.size - n_val < 2:
        raise DataError(
            f"cannot hold out {n_val} of {ids.size} train ids and still train"
        )
    perm = rng.permutation(ids.size)
    val_ids = set(ids[perm[:n_val]].tolist())
    sub = ds.take(rows)
    sub.split[np.isin(sub.ids, list(val_ids))] = SPLIT_GALLERY
    return split_query_gallery(sub, None, rng.split("val-query-split"))


@dataclass(frozen=True)
class GridCell:
    batch_size: int
    lr: float
    p: int
    k: int
    val_map: float
    val_rank1: float


@dataclass
class GridSearchResult:
    best: RunRecord  # best config retrained on the full train split
    best_cell: GridCell
    cells: list
    cell_records: list  # RunRecord per cell, trained on the carved split


def grid_search(
    ds: MultimodalDataset,
    batch_sizes: Sequence[int],
    lr_values: Sequence[float],
    base_cfg: TrainConfig,
) -> GridSearchResult:
    """Train every (batch size, lr) cell, select by validation mAP.

    The validation split is carved from train identities. Ties prefer
    the lower lr, then the smaller batch. The winning cell is retrained
    on the full train split and returned as `best`.
    """
    from .evalkit import evaluate  # local import, evalkit depends on this module

    if len(batch_sizes) == 0 or len(lr_values) == 0:
        raise ConfigError("grid_search needs at least one batch size and one lr")
    ds_val = carve_validation(ds, Rng(base_cfg.seed).split("grid-val"))
    val_view = ds_val.take(ds_val.split != SPLIT_TRAIN)
    cells = []
    cell_records = []
    scored = []
    for bs in batch_sizes:
        if bs % base_cfg.k != 0 or bs // base_cfg.k < 2:
            raise ConfigError(
                f"batch size {bs} is not a multiple of K={base_cfg.k} with P >= 2"
            )
        for lr in lr_values:
            cfg = replace(base_cfg, p=bs // base_cfg.k, lr_base=lr)
            rec = train(ds_val, cfg)
            report = evaluate(val_view, embed_dataset(rec.model, val_view, FUSED_SELECTOR))
            cell = GridCell(
                batch_size=bs,
                lr=lr,
                p=cfg.p,
                k=cfg.k,
                val_map=report.map,
                val_rank1=report.rank1,
            )
            cells.append(cell)
            cell_records.append(rec)
            scored.append(((-cell.val_map, cell.lr, cell.batch_size), cell, cfg))
    scored.sort(key=lambda item: item[0])
    _, best_cell, best_cfg = scored[0]
    best = train(ds, best_cfg)
    return GridSearchResult(best=best, best_cell=best_cell, cells=cells, cell_records=cell_records)
