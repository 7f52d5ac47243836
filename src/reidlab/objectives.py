"""Losses, the fusion operators, and each strategy's inference rule.

The training objective is L(z) = L_tri(z) + lambda * L_CE(logits, y),
where L_tri is a soft-margin batch-hard triplet loss. The strategies
differ only in which heads carry that loss (pipeline.batch_gradients
attaches it):

- fusion-avg / fusion-concat: one global loss on the fused embedding
  z_fuse and the fused head's logits; gradients reach every stream
  through the fusion operator (fuse and split_fusion_grad).
- unicat: a sum of per-stream local losses; each stream's gradient
  depends only on its own loss, so streams train fully independently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .numerics import Matrix, as_matrix, pairwise_euclidean


class FusionOperator(enum.Enum):
    AVERAGE = "average"
    CONCAT = "concat"


class Strategy(enum.Enum):
    FUSION_AVG = "fusion-avg"
    FUSION_CONCAT = "fusion-concat"
    UNICAT = "unicat"

    @property
    def is_fusion(self) -> bool:
        return self is not Strategy.UNICAT


def inference_fusion_op(strategy: Strategy) -> FusionOperator:
    """Fusion rule applied to retrieval features at inference time."""
    if strategy is Strategy.FUSION_AVG:
        return FusionOperator.AVERAGE
    # unicat concatenates per-stream features at inference only.
    return FusionOperator.CONCAT


def default_normalize_first(strategy: Strategy) -> bool:
    """Per-stream L2 normalization before inference fusion.

    On for unicat (its streams never saw a shared head, so norms are not
    calibrated across streams); off for fusion strategies (their heads
    were trained on unnormalized fusions).
    """
    return strategy is Strategy.UNICAT


@dataclass(frozen=True)
class LossConfig:
    """lambda_ce balances CE against triplet; margin is the triplet alpha."""

    lambda_ce: float = 1.0
    margin: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.lambda_ce) or self.lambda_ce < 0:
            raise ConfigError(f"lambda_ce must be finite and >= 0, got {self.lambda_ce}")
        if not np.isfinite(self.margin):
            raise ConfigError(f"margin must be finite, got {self.margin}")


@dataclass(frozen=True)
class TripletSelection:
    """Batch-hard choices per anchor: indices and distances of the
    farthest positive and nearest negative."""

    pos_index: np.ndarray
    neg_index: np.ndarray
    d_ap: np.ndarray
    d_an: np.ndarray


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def triplet_loss(
    z: Matrix, y: Sequence[int], margin: float = 0.0
) -> tuple[float, Matrix, TripletSelection]:
    """Soft-margin batch-hard triplet loss with exact analytic gradient.

    Per anchor a: p* = argmax_{p: y[p]=y[a], p!=a} d(a, p),
    n* = argmin_{n: y[n]!=y[a]} d(a, n), ties going to the lowest index.
    Loss = mean_a log(1 + exp(d_ap - d_an + margin)). The gradient flows
    through the selected pairs only; zero distances use the zero
    subgradient of the L2 norm.
    """
    z = as_matrix(z, "z")
    y = np.asarray(y)
    n = z.shape[0]
    if y.ndim != 1 or y.shape[0] != n:
        raise ShapeError(f"labels shape {y.shape} does not match batch size {n}")
    d = pairwise_euclidean(z, z)
    same = y[:, None] == y[None, :]
    pos_mask = same & ~np.eye(n, dtype=bool)
    neg_mask = ~same
    if not pos_mask.any(axis=1).all():
        raise DataError("triplet batch has an anchor without a positive")
    if not neg_mask.any(axis=1).all():
        raise DataError("triplet batch has an anchor without a negative")
    # argmax/argmin return the first (lowest-index) extremum on ties
    pos_index = np.where(pos_mask, d, -np.inf).argmax(axis=1)
    neg_index = np.where(neg_mask, d, np.inf).argmin(axis=1)
    anchors = np.arange(n)
    d_ap = d[anchors, pos_index]
    d_an = d[anchors, neg_index]
    x = d_ap - d_an + margin
    loss = float(np.add.reduce(np.logaddexp(0.0, x)) / n)  # np.mean's bits

    w = _sigmoid(x) / n
    diff_p = z - z[pos_index]
    diff_n = z - z[neg_index]
    u_p = np.where(d_ap[:, None] > 0, diff_p / np.where(d_ap == 0, 1.0, d_ap)[:, None], 0.0)
    u_n = np.where(d_an[:, None] > 0, diff_n / np.where(d_an == 0, 1.0, d_an)[:, None], 0.0)
    # Anchors are unique, so their terms need no scatter; += keeps a -0.0
    # term from reaching the zeroed gradient as -0.0. The positive and
    # negative terms go through np.add.at on the flat gradient at row-major
    # indices: each cell gets its terms in anchor order, as the row-wise
    # scatter adds them, and the 1-D scatter is faster.
    grad = np.zeros_like(z)
    grad += w[:, None] * (u_p - u_n)
    flat, cols = grad.reshape(-1), np.arange(z.shape[1])
    np.add.at(flat, (pos_index[:, None] * z.shape[1] + cols).ravel(), (-w[:, None] * u_p).ravel())
    np.add.at(flat, (neg_index[:, None] * z.shape[1] + cols).ravel(), (w[:, None] * u_n).ravel())
    sel = TripletSelection(pos_index=pos_index, neg_index=neg_index, d_ap=d_ap, d_an=d_an)
    return loss, grad, sel


def cross_entropy(logits: Matrix, y: Sequence[int]) -> tuple[float, Matrix]:
    """Mean softmax cross-entropy with max-subtraction stabilization.

    Returns the loss and its gradient (softmax - onehot) / batch.
    """
    logits = as_matrix(logits, "logits")
    y = np.asarray(y)
    n, c = logits.shape
    if y.ndim != 1 or y.shape[0] != n:
        raise ShapeError(f"labels shape {y.shape} does not match batch size {n}")
    if not np.issubdtype(y.dtype, np.integer):
        raise DataError(f"labels must be integers, got dtype {y.dtype}")
    if n == 0:
        raise ShapeError("cross_entropy needs a non-empty batch")
    if y.min() < 0 or y.max() >= c:
        raise DataError(f"label out of range [0, {c}): min={y.min()}, max={y.max()}")
    m = logits.max(axis=1)
    shifted = logits - m[:, None]
    exp = np.exp(shifted)
    sum_exp = exp.sum(axis=1)
    rows = np.arange(n)
    # per-row loss = logsumexp(logits) - logits[y] = log(sum_exp) - shifted[y]
    loss = float(np.add.reduce(np.log(sum_exp) - shifted[rows, y]) / n)  # np.mean's bits
    grad = exp / sum_exp[:, None]
    grad[rows, y] -= 1.0
    grad /= n
    return loss, grad


def combined_loss(
    z: Matrix, logits: Matrix, y: Sequence[int], cfg: LossConfig
) -> tuple[float, Matrix, Matrix]:
    """Triplet + lambda * CE for one head; gradients at both interfaces.

    grad_z is the triplet gradient at the pre-BN embedding; grad_logits
    is lambda times the CE gradient at the classifier output.
    """
    l_tri, grad_z, _ = triplet_loss(z, y, cfg.margin)
    l_ce, grad_logits = cross_entropy(logits, y)
    loss = l_tri + cfg.lambda_ce * l_ce
    return loss, grad_z, cfg.lambda_ce * grad_logits


def fuse(
    z_list: Sequence[Matrix], op: FusionOperator, normalize_first: bool = False
) -> Matrix:
    """Combine per-stream embeddings: row-wise concat or element-wise mean.

    normalize_first L2-normalizes each stream's rows before combining
    (an inference-time option; training never sets it).
    """
    if len(z_list) == 0:
        raise ConfigError("fuse needs at least one stream")
    mats = [as_matrix(z, f"stream {i}") for i, z in enumerate(z_list)]
    rows = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.shape[0] != rows:
            raise ShapeError(
                f"stream {i} has {m.shape[0]} rows, expected {rows} (aligned samples)"
            )
    if op is FusionOperator.AVERAGE:
        dims = {m.shape[1] for m in mats}
        if len(dims) > 1:
            raise ShapeError(f"average fusion needs equal dims, got {sorted(dims)}")
    if normalize_first:
        normed = []
        for i, m in enumerate(mats):
            norms = np.sqrt(np.sum(m * m, axis=1))
            if np.any(norms == 0):
                raise DataError(f"stream {i} has a zero-norm row; cannot normalize")
            normed.append(m / norms[:, None])
        mats = normed
    if op is FusionOperator.AVERAGE:
        return np.mean(np.stack(mats, axis=0), axis=0)
    return np.concatenate(mats, axis=1)


def split_fusion_grad(
    grad_fuse: Matrix, op: FusionOperator, dims: Sequence[int]
) -> list[Matrix]:
    """Chain rule of fuse: route the gradient at z_fuse back per stream.

    Average: each stream receives grad_fuse / M. Concat: stream i
    receives its own coordinate block, exactly.
    """
    grad_fuse = as_matrix(grad_fuse, "grad_fuse", check_finite=False)
    m = len(dims)
    if m == 0:
        raise ConfigError("split_fusion_grad needs at least one stream dim")
    if op is FusionOperator.AVERAGE:
        if any(d != grad_fuse.shape[1] for d in dims):
            raise ShapeError(
                f"average fusion grad dim {grad_fuse.shape[1]} does not match stream dims {list(dims)}"
            )
        shared = grad_fuse / m
        return [shared] * m
    if sum(dims) != grad_fuse.shape[1]:
        raise ShapeError(
            f"concat fusion grad dim {grad_fuse.shape[1]} != sum of stream dims {sum(dims)}"
        )
    out = []
    start = 0
    for d in dims:
        out.append(grad_fuse[:, start : start + d])
        start += d
    return out
