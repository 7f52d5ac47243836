"""Synthetic multimodal ReID data with controllable noise and bait.

Per identity y a latent u_y ~ N(0, I) is drawn; per view a jitter
delta ~ N(0, kappa^2 I); modality i observes
x_i = signal_scale_i * A_i (u_y + delta) + sigma_i * eps with A_i a
fixed random map with orthonormal columns. Optional spurious
coordinates are appended: on train identities they are constant per
identity (perfectly learnable), on test rows they are re-drawn per
sample (task-irrelevant) -- bait for overfitting.

Two regimes come preconfigured: "clean" (all modalities informative,
moderate noise) and "weak-link" (one modality with high noise plus
spurious bait).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, DataError, NumericError, ShapeError
from .numerics import Rng, label_groups, matmul

SPLIT_TRAIN = 0
SPLIT_QUERY = 1
SPLIT_GALLERY = 2


@dataclass
class SynthConfig:
    num_modalities: int = 3
    latent_dim: int = 12
    obs_dim: Union[int, Sequence[int]] = 48
    ids_train: int = 48
    ids_test: int = 32
    views_per_id: int = 8
    signal_scale: Union[float, Sequence[float]] = 1.0
    view_jitter: float = 0.35
    noise_sigma: Union[float, Sequence[float]] = 0.5
    spurious_dim: Union[int, Sequence[int]] = 0
    spurious_strength: Union[float, Sequence[float]] = 0.0
    seed: int = 0

    def __post_init__(self):
        m = self.num_modalities
        for name in ("obs_dim", "signal_scale", "noise_sigma", "spurious_dim", "spurious_strength"):
            value = getattr(self, name)
            per = tuple(value) if isinstance(value, (list, tuple, np.ndarray)) else (value,) * m
            if len(per) != m:
                raise ConfigError(f"data.{name}: expected {m} per-modality values, got {len(per)}")
            setattr(self, name, per)

    def validate(self) -> None:
        if self.num_modalities < 1:
            raise ConfigError(f"num_modalities must be >= 1, got {self.num_modalities}")
        if self.latent_dim < 1:
            raise ConfigError(f"latent_dim must be >= 1, got {self.latent_dim}")
        if self.ids_train < 2 or self.ids_test < 2:
            raise ConfigError(
                f"ids_train and ids_test must be >= 2, got {self.ids_train}, {self.ids_test}"
            )
        if self.views_per_id < 2:
            raise ConfigError(f"views_per_id must be >= 2, got {self.views_per_id}")
        if self.view_jitter < 0 or not np.isfinite(self.view_jitter):
            raise ConfigError(f"view_jitter must be finite and >= 0, got {self.view_jitter}")
        for i in range(self.num_modalities):
            if self.obs_dim[i] < self.latent_dim:
                raise ConfigError(
                    f"obs_dim[{i}]={self.obs_dim[i]} must be >= latent_dim={self.latent_dim} "
                    "(orthonormal map)"
                )
            if self.noise_sigma[i] < 0 or not np.isfinite(self.noise_sigma[i]):
                raise ConfigError(f"noise_sigma[{i}] must be finite and >= 0")
            if not np.isfinite(self.signal_scale[i]):
                raise ConfigError(f"signal_scale[{i}] must be finite")
            if self.spurious_dim[i] < 0:
                raise ConfigError(f"spurious_dim[{i}] must be >= 0")
            if self.spurious_strength[i] < 0 or not np.isfinite(self.spurious_strength[i]):
                raise ConfigError(f"spurious_strength[{i}] must be finite and >= 0")


@dataclass
class MultimodalDataset:
    """Aligned multimodal samples: row r is one view of identity ids[r]
    observed simultaneously by every modality."""

    # per modality: (num_samples, dim_i), float64 when generated and float32
    # when read from .uceb files; computations upcast the rows they read
    features: list
    ids: np.ndarray
    view_ids: np.ndarray
    split: np.ndarray  # per row: SPLIT_TRAIN | SPLIT_QUERY | SPLIT_GALLERY
    modality_names: list

    @property
    def num_modalities(self) -> int:
        return len(self.features)

    @property
    def num_samples(self) -> int:
        return int(self.ids.shape[0])

    def take(self, rows) -> "MultimodalDataset":
        """The dataset of the given rows (indices or a boolean mask), in order."""
        return MultimodalDataset(
            features=[x[rows] for x in self.features],
            ids=self.ids[rows],
            view_ids=self.view_ids[rows],
            split=self.split[rows],
            modality_names=list(self.modality_names),
        )

    def rows_with(self, tag: int) -> np.ndarray:
        return np.nonzero(self.split == tag)[0]

    @property
    def train_rows(self) -> np.ndarray:
        return self.rows_with(SPLIT_TRAIN)

    @property
    def query_rows(self) -> np.ndarray:
        return self.rows_with(SPLIT_QUERY)

    @property
    def gallery_rows(self) -> np.ndarray:
        return self.rows_with(SPLIT_GALLERY)

    def validate(self) -> None:
        n = self.num_samples
        if len(self.modality_names) != len(self.features):
            raise ShapeError(
                f"{len(self.features)} feature blocks but {len(self.modality_names)} names"
            )
        if len(set(self.modality_names)) != len(self.modality_names):
            raise DataError(f"modality names must be unique: {self.modality_names}")
        for i, x in enumerate(self.features):
            if x.ndim != 2 or x.shape[0] != n:
                raise ShapeError(f"modality {i} features misaligned: {x.shape} vs {n} samples")
            if not np.all(np.isfinite(x)):
                raise NumericError(f"modality {i} features contain non-finite values")
        for arr, name in ((self.view_ids, "view_ids"), (self.split, "split")):
            if arr.shape != (n,):
                raise ShapeError(f"{name} misaligned: {arr.shape} vs {n} samples")
        train_ids = set(self.ids[self.train_rows].tolist())
        query_ids = set(self.ids[self.query_rows].tolist())
        gallery_ids = set(self.ids[self.gallery_rows].tolist())
        overlap = train_ids & (query_ids | gallery_ids)
        if overlap:
            raise DataError(f"train and test identities overlap: {sorted(overlap)[:5]} ...")
        missing = query_ids - gallery_ids
        if missing:
            raise DataError(f"query identities missing from gallery: {sorted(missing)[:5]} ...")


def _orthonormal_columns(rng: Rng, rows: int, cols: int) -> np.ndarray:
    # Modified Gram-Schmidt on a Gaussian draw; avoids LAPACK so the
    # result depends only on the stream, not on the linked backend.
    g = rng.normal(rows, cols)
    q = np.empty_like(g)
    for j in range(cols):
        v = g[:, j].copy()
        for i in range(j):
            v -= float(np.sum(q[:, i] * v)) * q[:, i]
        norm = float(np.sqrt(np.sum(v * v)))
        if norm < 1e-10:
            raise NumericError("degenerate random map draw (rank-deficient)")
        q[:, j] = v / norm
    return q


def generate(cfg: SynthConfig) -> MultimodalDataset:
    """Deterministic dataset from cfg; same cfg gives bit-identical data."""
    cfg.validate()
    root = Rng(cfg.seed)
    total_ids = cfg.ids_train + cfg.ids_test
    views = cfg.views_per_id
    n = total_ids * views
    ids = np.repeat(np.arange(total_ids, dtype=np.int64), views)
    view_ids = np.tile(np.arange(views, dtype=np.int64), total_ids)
    is_test_row = ids >= cfg.ids_train
    n_test_rows = int(is_test_row.sum())

    latents = root.split("latents").normal(total_ids, cfg.latent_dim)
    jitter = root.split("jitter").normal(n, cfg.latent_dim) * cfg.view_jitter
    core = latents[ids] + jitter

    features = []
    for i in range(cfg.num_modalities):
        a_map = _orthonormal_columns(root.split(f"map:{i}"), cfg.obs_dim[i], cfg.latent_dim)
        x = cfg.signal_scale[i] * matmul(core, a_map.T)
        if cfg.noise_sigma[i] > 0:
            x = x + cfg.noise_sigma[i] * root.split(f"noise:{i}").normal(n, cfg.obs_dim[i])
        sd = cfg.spurious_dim[i]
        if sd > 0:
            block = np.empty((n, sd), dtype=np.float64)
            s_train = root.split(f"spurious-train:{i}").normal(cfg.ids_train, sd)
            s_test = root.split(f"spurious-test:{i}").normal(n_test_rows, sd)
            block[~is_test_row] = s_train[ids[~is_test_row]]
            block[is_test_row] = s_test
            x = np.concatenate([x, cfg.spurious_strength[i] * block], axis=1)
        features.append(np.ascontiguousarray(x))

    split = np.full(n, SPLIT_GALLERY, dtype=np.int8)
    split[~is_test_row] = SPLIT_TRAIN
    ds = MultimodalDataset(
        features=features,
        ids=ids,
        view_ids=view_ids,
        split=split,
        modality_names=[f"mod{i}" for i in range(cfg.num_modalities)],
    )
    ds = split_query_gallery(ds, None, root.split("query-split"))
    ds.validate()
    return ds


def split_query_gallery(
    ds: MultimodalDataset, views_as_query: Optional[int], rng: Rng
) -> MultimodalDataset:
    """Re-tag each test identity's rows: views_as_query random views as
    query, the rest as gallery. Seeded and deterministic. None means a
    quarter of the fewest test views of any identity, and at least 1."""
    split = ds.split.copy()
    test_rows = np.nonzero(split != SPLIT_TRAIN)[0]
    groups = label_groups(ds.ids[test_rows])
    if views_as_query is None:
        views_as_query = max(1, min((at.size for at in groups[1]), default=0) // 4)
    if views_as_query < 1:
        raise ConfigError(f"views_as_query must be >= 1, got {views_as_query}")
    for tid, at in zip(*groups):
        rows = test_rows[at]
        if rows.size <= views_as_query:
            raise DataError(
                f"identity {tid} has {rows.size} test views; needs > {views_as_query} "
                "to keep a non-empty gallery"
            )
        perm = rng.permutation(rows.size)
        split[rows[perm[:views_as_query]]] = SPLIT_QUERY
        split[rows[perm[views_as_query:]]] = SPLIT_GALLERY
    return replace(ds, split=split, modality_names=list(ds.modality_names))


def select_modalities(ds: MultimodalDataset, indices: Sequence[int]) -> MultimodalDataset:
    """Dataset restricted to the given modality streams (rows unchanged)."""
    for i in indices:
        if i < 0 or i >= ds.num_modalities:
            raise DataError(f"modality index {i} out of range [0, {ds.num_modalities})")
    return replace(
        ds,
        features=[ds.features[i] for i in indices],
        modality_names=[ds.modality_names[i] for i in indices],
    )


def replicate_modality(ds: MultimodalDataset, modality_index: int, copies: int) -> MultimodalDataset:
    """Present one modality as `copies` identical streams.

    The copies get distinct names, so independently initialized encoders
    see byte-identical inputs -- ensemble members differ only by their
    initialization stream.
    """
    if modality_index < 0 or modality_index >= ds.num_modalities:
        raise DataError(
            f"modality index {modality_index} out of range [0, {ds.num_modalities})"
        )
    if copies < 2:
        raise ConfigError(f"copies must be >= 2, got {copies}")
    base = ds.modality_names[modality_index]
    return replace(
        ds,
        features=[ds.features[modality_index] for _ in range(copies)],
        modality_names=[f"{base}.copy{j}" for j in range(copies)],
    )


# Committed presets. "clean": three equally informative modalities with
# moderate noise. "weak-link": modality 2 is drowned in noise and baited
# with spurious identity-coded train features that decorrelate at test
# time. "ensemble-base": a single modality meant to be replicated into
# identical streams.
WEAK_STREAM = 2


def clean_preset(seed: int = 0) -> SynthConfig:
    # Low observation noise: every stream is individually learnable, the
    # regime where per-stream supervision should pay off.
    return SynthConfig(
        num_modalities=3,
        latent_dim=12,
        obs_dim=48,
        ids_train=64,
        ids_test=64,
        views_per_id=12,
        signal_scale=1.0,
        view_jitter=0.35,
        noise_sigma=0.4,
        spurious_dim=0,
        spurious_strength=0.0,
        seed=seed,
    )


def weak_link_preset(seed: int = 0) -> SynthConfig:
    # Stream 2 is mostly noise plus identity-coded bait columns that
    # decorrelate at test time: dedicated supervision mainly memorizes
    # the bait, while diluted fusion gradients leave the stream closer
    # to what little real signal it can represent.
    return replace(
        clean_preset(seed),
        noise_sigma=(0.4, 0.4, 1.5),
        spurious_dim=(0, 0, 12),
        spurious_strength=(0.0, 0.0, 4.0),
    )


def ensemble_base_preset(seed: int = 0) -> SynthConfig:
    # Single modality, meant to be duplicated into identical streams.
    # The small train split and moderate noise put long schedules deep
    # into the overfitting regime, where independently trained members
    # generalize better as an ensemble than jointly trained ones.
    return SynthConfig(
        num_modalities=1,
        latent_dim=12,
        obs_dim=48,
        ids_train=24,
        ids_test=96,
        views_per_id=12,
        signal_scale=1.0,
        view_jitter=0.35,
        noise_sigma=0.85,
        spurious_dim=0,
        spurious_strength=0.0,
        seed=seed,
    )


PRESETS = {
    "clean": clean_preset,
    "weak-link": weak_link_preset,
    "ensemble-base": ensemble_base_preset,
}


def preset(name: str, seed: int = 0) -> SynthConfig:
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; expected one of: {', '.join(sorted(PRESETS))}"
        ) from None
    return factory(seed)
