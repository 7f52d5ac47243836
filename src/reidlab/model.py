"""Multi-stream encoder: one small MLP per modality, each with a BNNeck.

Conventions (the usual strong-baseline recipe):
- the triplet loss consumes the pre-BN embedding z;
- classification and retrieval consume the post-BN feature z_bn;
- the BNNeck has a learned scale gamma but no additive shift, and the
  classifier is bias-free;
- train mode normalizes by batch statistics (biased variance) and
  always moves the running statistics toward them with momentum 0.1,
  storing the unbiased variance; eval mode normalizes by running
  statistics and leaves them as they are.

Under fusion strategies the streams have no classifiers; one fused
BNNeck + classifier sits on top of the fused embedding. Stream BNNecks
still track running statistics during fusion training so per-stream
retrieval features are always post-BN, whatever the strategy.

A head is a BNNeck plus an optional classifier: each stream's (a
StreamParams) and the fused one (a Head). head_forward and head_backward
are the only BNNeck + classifier code; stream_forward and
stream_backward wrap them around the stream's MLP. A forward pass
returns one HeadOutput; in train mode it also holds everything the
backward pass reads (the normalized embedding, the inverse batch std
and, for a stream, each layer's input).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, DataError, ShapeError, StateError
from .numerics import Matrix, Rng, as_matrix, matmul
from .objectives import FusionOperator, Strategy, default_normalize_first, fuse, inference_fusion_op

CHECKPOINT_MAGIC = b"UCCK"
CHECKPOINT_VERSION = 1


@dataclass
class BnNeck:
    """Batch norm with scale only (no shift)."""

    gamma: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5
    momentum: float = 0.1


def init_bnneck(dim: int, eps: float = 1e-5, momentum: float = 0.1) -> BnNeck:
    return BnNeck(
        gamma=np.ones(dim, dtype=np.float64),
        running_mean=np.zeros(dim, dtype=np.float64),
        running_var=np.ones(dim, dtype=np.float64),
        eps=eps,
        momentum=momentum,
    )


@dataclass
class StreamParams:
    """MLP encoder (ReLU hidden layers) + BNNeck + optional classifier.

    The final embedding layer is bias-free: BN normalizes away a common
    shift and pairwise distances ignore it, so such a bias would be a
    pure dead parameter (the usual convention for layers feeding BN).
    """

    weights: list  # layer l: (out_dim, in_dim)
    biases: list  # hidden layer l: (out_dim,); no entry for the final layer
    bn: BnNeck
    classifier: Optional[np.ndarray]  # (num_classes, embed_dim), bias-free

    @property
    def layer_dims(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]


@dataclass
class Head:
    """BNNeck + bias-free classifier: the fused head, or a head's gradients."""

    bn: BnNeck
    classifier: Optional[np.ndarray]


@dataclass
class ModelParams:
    streams: list
    fused: Optional[Head]
    strategy: Strategy
    modality_names: list
    num_classes: int

    @property
    def num_streams(self) -> int:
        return len(self.streams)

    def validate(self) -> None:
        if len(self.streams) != len(self.modality_names):
            raise ShapeError(
                f"{len(self.streams)} streams but {len(self.modality_names)} modality names"
            )
        if self.strategy.is_fusion != (self.fused is not None):
            raise ConfigError(
                f"strategy {self.strategy.value} and fused head presence are inconsistent"
            )
        heads = [(f"stream {i}", s) for i, s in enumerate(self.streams)]
        if self.fused is not None:
            heads.append(("fused head", self.fused))
        for name, head in heads:
            if np.any(head.bn.running_var <= 0):
                raise DataError(f"{name} has non-positive running variance")


def init_stream(
    input_dim: int,
    hidden_dims: Sequence[int],
    embed_dim: int,
    num_classes: Optional[int],
    rng: Rng,
) -> StreamParams:
    """Kaiming-style init: W ~ N(0, 2/fan_in), hidden biases 0, gamma 1."""
    dims = [int(input_dim)] + [int(d) for d in hidden_dims] + [int(embed_dim)]
    if any(d < 1 for d in dims):
        raise ConfigError(f"layer dims must be >= 1, got {dims}")
    weights = []
    biases = []
    n_layers = len(dims) - 1
    for l, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        weights.append(rng.normal(fan_out, fan_in) * np.sqrt(2.0 / fan_in))
        if l < n_layers - 1:
            biases.append(np.zeros(fan_out, dtype=np.float64))
    classifier = None
    if num_classes is not None:
        if num_classes < 1:
            raise ConfigError(f"num_classes must be >= 1, got {num_classes}")
        classifier = rng.normal(num_classes, dims[-1]) * np.sqrt(2.0 / dims[-1])
    return StreamParams(weights=weights, biases=biases, bn=init_bnneck(dims[-1]), classifier=classifier)


def init_model(
    input_dims: Sequence[int],
    modality_names: Sequence[str],
    strategy: Strategy,
    num_classes: int,
    rng: Rng,
    hidden_dims: Sequence[int] = (64,),
    embed_dim: int = 32,
) -> ModelParams:
    """Build all streams (and the fused head under fusion strategies).

    Each stream's parameters are drawn from a sub-stream keyed by its
    modality name, so a stream's initialization does not depend on which
    other streams exist. That makes independent-vs-joint training
    comparisons exact.
    """
    if len(input_dims) != len(modality_names):
        raise ShapeError(
            f"{len(input_dims)} input dims but {len(modality_names)} modality names"
        )
    if len(set(modality_names)) != len(modality_names):
        raise ConfigError(f"modality names must be unique, got {list(modality_names)}")
    if len(input_dims) == 0:
        raise ConfigError("model needs at least one stream")
    per_stream_classes = num_classes if strategy is Strategy.UNICAT else None
    streams = [
        init_stream(dim, hidden_dims, embed_dim, per_stream_classes, rng.split(f"init:{name}"))
        for dim, name in zip(input_dims, modality_names)
    ]
    fused = None
    if strategy.is_fusion:
        op = inference_fusion_op(strategy)
        fused_dim = embed_dim * len(input_dims) if op is FusionOperator.CONCAT else embed_dim
        head_rng = rng.split("init:fused")
        fused = Head(
            bn=init_bnneck(fused_dim),
            classifier=head_rng.normal(num_classes, fused_dim) * np.sqrt(2.0 / fused_dim),
        )
    return ModelParams(
        streams=streams,
        fused=fused,
        strategy=strategy,
        modality_names=[str(n) for n in modality_names],
        num_classes=int(num_classes),
    )


@dataclass
class HeadOutput:
    """A head's forward pass. A train-mode output also keeps what backward
    reads; those fields are None in eval mode."""

    z: Matrix  # the pre-BN embedding fed into the head
    z_bn: Matrix
    logits: Optional[Matrix]  # None for a head without a classifier
    z_hat: Optional[Matrix] = None  # z normalized by the batch statistics
    inv_std: Optional[np.ndarray] = None  # 1 / sqrt(batch variance + eps)
    hiddens: Optional[list] = None  # a stream's layer inputs: h_0 = x, h_1 = relu(a_1), ...


def head_forward(head: Union[Head, StreamParams], z: Matrix, train: bool) -> HeadOutput:
    """BNNeck -> z_bn; classifier (if any) -> logits. Train mode normalizes
    by the batch statistics and moves the running statistics toward them."""
    bn = head.bn
    if z.shape[1] != bn.gamma.shape[0]:
        raise ShapeError(f"embedding dim {z.shape[1]} does not match head dim {bn.gamma.shape[0]}")
    z_hat = inv_std = None
    if train:
        n = z.shape[0]
        if n < 2:
            raise DataError(f"batch statistics need >= 2 rows in train mode, got {n}")
        # np.add.reduce(x, axis=0) / n is np.mean's arithmetic, bit for bit,
        # without its Python wrapper: BN runs in every step.
        mu = np.add.reduce(z, axis=0) / n
        centered = z - mu
        var_b = np.add.reduce(centered * centered, axis=0) / n
        inv_std = 1.0 / np.sqrt(var_b + bn.eps)
        z_hat = centered * inv_std
        var_u = var_b * (n / (n - 1.0))
        bn.running_mean += bn.momentum * (mu - bn.running_mean)
        bn.running_var += bn.momentum * (var_u - bn.running_var)
        z_bn = bn.gamma * z_hat
    else:
        z_bn = bn.gamma * ((z - bn.running_mean) / np.sqrt(bn.running_var + bn.eps))
    logits = matmul(z_bn, head.classifier.T) if head.classifier is not None else None
    return HeadOutput(z=z, z_bn=z_bn, logits=logits, z_hat=z_hat, inv_std=inv_std)


def stream_forward(params: StreamParams, x: Matrix, train: bool) -> HeadOutput:
    """MLP -> z, then the stream's head; train mode keeps the layer inputs."""
    x = as_matrix(x, "x")
    if x.shape[1] != params.weights[0].shape[1]:
        raise ShapeError(
            f"input dim {x.shape[1]} does not match stream input dim {params.weights[0].shape[1]}"
        )
    hiddens = [x]
    for w, b in zip(params.weights, params.biases):
        hiddens.append(np.maximum(matmul(hiddens[-1], w.T) + b, 0.0))
    out = head_forward(params, matmul(hiddens[-1], params.weights[-1].T), train)
    if train:
        out.hiddens = hiddens
    return out


def head_backward(
    head: Union[Head, StreamParams],
    output: HeadOutput,
    grad_z: Optional[Matrix],
    grad_logits: Optional[Matrix],
) -> tuple[Head, Matrix]:
    """Gradients of a head's BNNeck and classifier (as a Head), plus the gradient at z.

    grad_z enters at the pre-BN embedding (triplet path); grad_logits at
    the classifier output (CE path, back through the BNNeck). Either may
    be None (treated as zero). The classifier gradient is None only for a
    head without a classifier, and the BN running statistics are None.
    """
    if output.z_hat is None:
        raise StateError("head_backward requires a train-mode output")
    total_gz = np.zeros_like(output.z) if grad_z is None else np.array(grad_z, dtype=np.float64)
    if total_gz.shape != output.z.shape:
        raise ShapeError(f"grad_z shape {total_gz.shape} does not match z shape {output.z.shape}")
    grad_gamma = np.zeros_like(head.bn.gamma)
    grad_classifier = None if head.classifier is None else np.zeros_like(head.classifier)
    if grad_logits is not None:
        if head.classifier is None:
            raise StateError("grad_logits given but the head has no classifier")
        if grad_logits.shape != output.logits.shape:
            raise ShapeError(
                f"grad_logits shape {grad_logits.shape} does not match logits shape {output.logits.shape}"
            )
        grad_classifier = matmul(grad_logits.T, output.z_bn)
        g_zbn = matmul(grad_logits, head.classifier)
        # exact gradient through train-mode batch normalization
        n = output.z.shape[0]
        z_hat = output.z_hat
        grad_gamma = np.sum(g_zbn * z_hat, axis=0)
        g_hat = g_zbn * head.bn.gamma
        sum_g = g_hat.sum(axis=0)
        sum_gz = np.sum(g_hat * z_hat, axis=0)
        total_gz = total_gz + (output.inv_std / n) * (n * g_hat - sum_g - z_hat * sum_gz)
    bn = BnNeck(grad_gamma, running_mean=None, running_var=None)
    return Head(bn=bn, classifier=grad_classifier), total_gz


def stream_backward(
    params: StreamParams,
    output: HeadOutput,
    grad_z: Optional[Matrix],
    grad_logits: Optional[Matrix],
) -> StreamParams:
    """Exact gradients for one stream, in the stream's own structure:
    head_backward on its BNNeck and classifier, then back through the MLP.
    A hidden unit passes gradient only where its ReLU output is > 0, so
    relu'(0) = 0."""
    head, g = head_backward(params, output, grad_z, grad_logits)
    hiddens = output.hiddens
    grads_w = [None] * len(params.weights)
    grads_b = [None] * len(params.biases)
    last = len(params.weights) - 1
    for l in range(last, -1, -1):
        if l < last:
            g = g * (hiddens[l + 1] > 0)
        grads_w[l] = matmul(g.T, hiddens[l])
        if l < last:
            grads_b[l] = g.sum(axis=0)
        if l > 0:
            g = matmul(g, params.weights[l])
    return StreamParams(weights=grads_w, biases=grads_b, bn=head.bn, classifier=head.classifier)


FUSED_SELECTOR = "multimodal"


def embed_dataset(
    params: ModelParams,
    ds,
    selector: Union[int, str],
    normalize_first: Optional[bool] = None,
) -> Matrix:
    """Eval-mode retrieval features, one row per dataset row.

    selector: a stream index for unimodal features (that stream's
    post-BN z_bn), or "multimodal" for the strategy's inference rule:
    fusion strategies pass the fused pre-BN embedding through the fused
    head's BNNeck; unicat concatenates per-stream post-BN features
    (L2-normalized per stream unless normalize_first overrides).

    Each row's features depend on that row alone (eval-mode BN, row-local
    fuse, and matmul sums every cell in one fixed order), so embedding
    ds.take(rows) gives those rows of embedding ds, bit for bit: the
    embed(rows) that evaluate takes embeds only the part it asks for.
    """
    params.validate()
    if ds.num_modalities != params.num_streams:
        raise ShapeError(
            f"dataset has {ds.num_modalities} modalities, model has {params.num_streams} streams"
        )
    if isinstance(selector, str) and selector != FUSED_SELECTOR:
        raise DataError(f"unknown selector {selector!r}; use a stream index or {FUSED_SELECTOR!r}")

    if isinstance(selector, (int, np.integer)):
        idx = int(selector)
        if idx < 0 or idx >= params.num_streams:
            raise DataError(f"stream selector {idx} out of range [0, {params.num_streams})")
        out = stream_forward(params.streams[idx], ds.features[idx], train=False)
        return out.z_bn

    if normalize_first is None:
        normalize_first = default_normalize_first(params.strategy)
    if params.strategy.is_fusion:
        zs = [
            stream_forward(params.streams[i], ds.features[i], train=False).z
            for i in range(params.num_streams)
        ]
        z_fuse = fuse(zs, inference_fusion_op(params.strategy), normalize_first=normalize_first)
        return head_forward(params.fused, z_fuse, train=False).z_bn
    feats = [
        stream_forward(params.streams[i], ds.features[i], train=False).z_bn
        for i in range(params.num_streams)
    ]
    return fuse(feats, FusionOperator.CONCAT, normalize_first=normalize_first)


def param_slots(params: ModelParams) -> list[tuple[str, np.ndarray, bool]]:
    """Every stored array as (key, live array, trainable), in checkpoint order.

    The one walk of the parameter structure. Per stream: each layer's W
    (and hidden-layer bias), BN gamma, running_mean and running_var, the
    classifier if present; then the fused head's BN and classifier. BN
    running statistics are not trainable, and None in a gradient structure.
    """
    slots = []

    def add_bn(prefix: str, bn: BnNeck) -> None:
        slots.append((f"{prefix}.gamma", bn.gamma, True))
        slots.append((f"{prefix}.running_mean", bn.running_mean, False))
        slots.append((f"{prefix}.running_var", bn.running_var, False))

    for i, s in enumerate(params.streams):
        for l, w in enumerate(s.weights):
            slots.append((f"stream{i}.w{l}", w, True))
            if l < len(s.biases):
                slots.append((f"stream{i}.b{l}", s.biases[l], True))
        add_bn(f"stream{i}", s.bn)
        if s.classifier is not None:
            slots.append((f"stream{i}.classifier", s.classifier, True))
    if params.fused is not None:
        add_bn("fused", params.fused.bn)
        slots.append(("fused.classifier", params.fused.classifier, True))
    return slots


def iter_trainables(params: ModelParams) -> list[tuple[str, np.ndarray]]:
    """Deterministically ordered (key, array) pairs of trained parameters.

    Arrays are the live parameter buffers; optimizers update them in
    place. BN running statistics are buffers, not trainables.
    """
    return [(key, arr) for key, arr, trainable in param_slots(params) if trainable]


def _model_header(params: ModelParams) -> dict:
    return {
        "strategy": params.strategy.value,
        "modality_names": list(params.modality_names),
        "num_classes": params.num_classes,
        "layer_dims": [s.layer_dims for s in params.streams],
        "stream_classifiers": params.streams[0].classifier is not None,
        "fused_dim": None if params.fused is None else int(params.fused.classifier.shape[1]),
        "bn_eps": params.streams[0].bn.eps,
        "bn_momentum": params.streams[0].bn.momentum,
    }


def save_checkpoint(params: ModelParams, path) -> None:
    """Versioned binary blob: JSON header + flat little-endian float64 arrays.

    Layout: magic b"UCCK", version u32 LE, header length u64 LE, UTF-8 JSON
    header, then per stream: for each layer W (and hidden-layer bias),
    BN gamma/running_mean/running_var, classifier if present; then the
    fused head (gamma, running stats, classifier) if present. Array order
    matches param_slots.
    """
    from .fileio import atomic_write  # here, not at the top: fileio imports model via pipeline

    params.validate()
    header = json.dumps(_model_header(params), sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for _, arr, _ in param_slots(params):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


class _PayloadDraws:
    """Rng stand-in for a checkpoint's skeleton: it draws zeros, and rejects
    the header once its matrices need more floats than the payload holds."""

    def __init__(self, floats: int):
        self.floats = floats

    def split(self, tag: str) -> "_PayloadDraws":
        return self

    def normal(self, rows: int, cols: int) -> np.ndarray:
        self.floats -= rows * cols
        if self.floats < 0:
            raise DataError("the header describes more parameters than the payload holds")
        return np.zeros((rows, cols), dtype=np.float64)


def load_checkpoint(path) -> ModelParams:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint: {exc}") from None
    if len(blob) < 16 or blob[:4] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a checkpoint file (bad magic)")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    try:
        header = json.loads(blob[16 : 16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: corrupt checkpoint header: {exc}") from None
    if not isinstance(header, dict):
        raise DataError(f"{path}: checkpoint header is not a JSON object")
    offset = 16 + header_len
    try:
        dims = header["layer_dims"]
        params = init_model(
            [d[0] for d in dims],
            header["modality_names"],
            Strategy(header["strategy"]),
            header["num_classes"],
            _PayloadDraws((len(blob) - offset) // 8),
            hidden_dims=dims[0][1:-1],
            embed_dim=dims[0][-1],
        )
    except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed checkpoint header: {exc!r}") from None
    written = _model_header(params)
    if written != header:
        keys = sorted(k for k in written.keys() | header.keys() if written.get(k) != header.get(k))
        raise DataError(f"{path}: checkpoint header key(s) {keys} differ from what this program writes")
    slots = param_slots(params)
    size = 8 * sum(arr.size for _, arr, _ in slots)
    if offset + size != len(blob):
        raise DataError(f"{path}: payload has {len(blob) - offset} bytes, its header needs {size}")
    payload = np.frombuffer(blob, dtype="<f8", offset=offset)
    if not np.all(np.isfinite(payload)):
        raise DataError(f"{path}: checkpoint payload holds non-finite values")
    start = 0
    for _, arr, _ in slots:
        arr[...] = payload[start : start + arr.size].reshape(arr.shape)
        start += arr.size
    params.validate()
    return params
