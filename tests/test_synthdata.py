import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reidlab.errors import ConfigError, DataError, ShapeError
from reidlab.numerics import Rng
from reidlab.synthdata import (
    PRESETS,
    SPLIT_GALLERY,
    SPLIT_QUERY,
    SPLIT_TRAIN,
    WEAK_STREAM,
    MultimodalDataset,
    SynthConfig,
    clean_preset,
    ensemble_base_preset,
    generate,
    preset,
    replicate_modality,
    select_modalities,
    split_query_gallery,
    weak_link_preset,
)


def _cfg(**kw):
    base = dict(
        num_modalities=2, latent_dim=4, obs_dim=8, ids_train=6, ids_test=5,
        views_per_id=4, noise_sigma=0.3, seed=0,
    )
    base.update(kw)
    return SynthConfig(**base)


def test_config_broadcasting_and_validation():
    cfg = _cfg(obs_dim=8, noise_sigma=(0.1, 0.2))
    assert cfg.obs_dim == (8, 8)
    assert cfg.noise_sigma == (0.1, 0.2)
    with pytest.raises(ConfigError):
        _cfg(noise_sigma=(0.1, 0.2, 0.3))  # wrong per-modality length
    with pytest.raises(ConfigError):
        _cfg(obs_dim=2).validate()  # below latent_dim
    with pytest.raises(ConfigError):
        _cfg(ids_test=1).validate()
    with pytest.raises(ConfigError):
        _cfg(views_per_id=1).validate()
    with pytest.raises(ConfigError):
        _cfg(view_jitter=-0.1).validate()
    with pytest.raises(ConfigError):
        _cfg(spurious_strength=-1.0).validate()


def test_generate_shapes_and_split_protocol():
    cfg = _cfg(num_modalities=3, ids_train=100, ids_test=8, views_per_id=8)
    ds = generate(cfg)
    assert ds.num_modalities == 3
    assert ds.num_samples == 108 * 8
    for x in ds.features:
        assert x.shape == (108 * 8, 8)
        assert x.dtype == np.float64
    assert ds.train_rows.size == 100 * 8  # 100 train ids x 8 views each
    # per test id: views // 4 = 2 queries, 6 gallery
    assert ds.query_rows.size == 8 * 2
    assert ds.gallery_rows.size == 8 * 6
    ds.validate()


def test_generate_id_disjointness_and_query_coverage():
    ds = generate(_cfg())
    train_ids = set(ds.ids[ds.train_rows].tolist())
    test_ids = set(ds.ids[ds.query_rows].tolist()) | set(ds.ids[ds.gallery_rows].tolist())
    assert train_ids.isdisjoint(test_ids)
    assert set(ds.ids[ds.query_rows].tolist()) <= set(ds.ids[ds.gallery_rows].tolist())


def test_generate_deterministic():
    a = generate(_cfg(seed=123))
    b = generate(_cfg(seed=123))
    for xa, xb in zip(a.features, b.features):
        assert np.array_equal(xa, xb)
    assert np.array_equal(a.split, b.split)
    c = generate(_cfg(seed=124))
    assert not np.array_equal(a.features[0], c.features[0])


def test_generate_noiseless_views_identical():
    # kappa = 0, sigma = 0, no spurious: all views of an id coincide
    ds = generate(_cfg(view_jitter=0.0, noise_sigma=0.0))
    for x in ds.features:
        for i in np.unique(ds.ids):
            rows = x[ds.ids == i]
            assert np.all(rows == rows[0])


def test_generate_within_id_spread_bounded_by_jitter():
    # sigma = 0: within-id distance only from jitter through an
    # orthonormal map: ||x_a - x_b|| = scale * ||delta_a - delta_b||
    cfg = _cfg(noise_sigma=0.0, view_jitter=0.05, signal_scale=1.0)
    ds = generate(cfg)
    x = ds.features[0]
    within_max = 0.0
    between_min = np.inf
    ids = ds.ids
    for i in range(ds.num_samples):
        d = np.sqrt(((x - x[i]) ** 2).sum(axis=1))
        same = ids == ids[i]
        diff = ~same
        same[i] = False
        if same.any():
            within_max = max(within_max, d[same].max())
        between_min = min(between_min, d[diff].min())
    # jitter N(0, kappa^2 I_4): pair distance concentrated below ~6 kappa sqrt(d)
    assert within_max < 6 * cfg.view_jitter * np.sqrt(cfg.latent_dim)
    # identities are unit-scale separated, jitter is tiny: clear gap
    assert between_min > within_max


def test_noisy_modality_drops_toward_chance():
    # 1-NN identity accuracy on raw features: noisy stream near chance
    cfg = _cfg(num_modalities=2, ids_train=2, ids_test=16, views_per_id=6,
               noise_sigma=(0.1, 50.0), view_jitter=0.1, seed=3)
    ds = generate(cfg)
    accs = []
    for x in ds.features:
        q, g = ds.query_rows, ds.gallery_rows
        d = ((x[q][:, None, :] - x[g][None, :, :]) ** 2).sum(axis=2)
        nn = d.argmin(axis=1)
        accs.append(float(np.mean(ds.ids[g][nn] == ds.ids[q])))
    assert accs[0] > 0.9
    assert accs[1] < 0.3  # chance is 1/16


def test_spurious_block_train_constant_test_fresh():
    cfg = _cfg(spurious_dim=(0, 3), spurious_strength=(0.0, 2.0))
    ds = generate(cfg)
    assert ds.features[0].shape[1] == 8
    assert ds.features[1].shape[1] == 11
    spur = ds.features[1][:, 8:]
    # train rows: constant per identity
    for i in np.unique(ds.ids[ds.train_rows]):
        rows = spur[(ds.ids == i) & (ds.split == SPLIT_TRAIN)]
        assert np.all(rows == rows[0])
    # test rows: re-drawn per sample (no two rows equal)
    test_rows = spur[ds.split != SPLIT_TRAIN]
    assert np.unique(test_rows, axis=0).shape[0] == test_rows.shape[0]


def test_split_query_gallery_counts_and_seeding():
    ds = generate(_cfg(views_per_id=4))
    re = split_query_gallery(ds, views_as_query=1, rng=Rng(5).split("s"))
    for tid in np.unique(re.ids[re.rows_with(SPLIT_QUERY)]):
        mask = re.ids == tid
        assert (re.split[mask] == SPLIT_QUERY).sum() == 1
        assert (re.split[mask] == SPLIT_GALLERY).sum() == 3
    again = split_query_gallery(ds, views_as_query=1, rng=Rng(5).split("s"))
    assert np.array_equal(re.split, again.split)
    with pytest.raises(DataError):
        split_query_gallery(ds, views_as_query=4, rng=Rng(0))
    with pytest.raises(ConfigError):
        split_query_gallery(ds, views_as_query=0, rng=Rng(0))


def test_split_query_gallery_default_is_a_quarter_of_the_fewest_views():
    def dataset(views_per_id, train_id):
        ids = np.repeat(np.arange(len(views_per_id)), views_per_id)
        split = np.where(ids == train_id, SPLIT_TRAIN, SPLIT_GALLERY).astype(np.int8)
        return MultimodalDataset(features=[np.zeros((ids.size, 1))], ids=ids,
                                 view_ids=np.arange(ids.size), split=split, modality_names=["m"])

    # Only the rows being split count; fewer than 4 views still give 1.
    for views_per_id, train_id, want in (([9, 5, 11, 3], 3, 1), ([9, 11, 3], 2, 2), ([9, 11, 3], -1, 1)):
        ds = dataset(views_per_id, train_id)
        got = split_query_gallery(ds, None, Rng(3).split("q")).split
        assert got.tobytes() == split_query_gallery(ds, want, Rng(3).split("q")).split.tobytes()


def test_take_selects_rows_in_order():
    ds = generate(_cfg(views_per_id=4))
    rows = np.array([5, 0, 3])
    sub = ds.take(rows)
    assert [x.tobytes() for x in sub.features] == [x[rows].tobytes() for x in ds.features]
    assert sub.ids.tolist() == ds.ids[rows].tolist()
    assert sub.view_ids.tolist() == ds.view_ids[rows].tolist()
    assert sub.split.tolist() == ds.split[rows].tolist()
    assert sub.modality_names == ds.modality_names
    sub.split[:] = SPLIT_QUERY
    assert not np.any(ds.split[rows] == SPLIT_QUERY)  # a copy
    mask = ds.split != SPLIT_TRAIN
    assert ds.take(mask).ids.tolist() == ds.ids[mask].tolist()


def test_split_query_gallery_equals_per_identity_scan():
    # Test rows of unequal identities, interleaved and out of id order,
    # among train rows: each identity's rows are found by one scan.
    rng = np.random.default_rng(4)
    ids = rng.permutation(np.repeat(np.array([7, 2, 9, 4, 5]), [3, 6, 2, 5, 4]))
    split = np.where(rng.uniform(size=ids.size) < 0.25, SPLIT_TRAIN, SPLIT_GALLERY).astype(np.int8)
    split[ids == 9] = SPLIT_GALLERY
    ds = MultimodalDataset(features=[np.zeros((ids.size, 1))], ids=ids,
                           view_ids=np.arange(ids.size), split=split, modality_names=["m"])
    want = split.copy()
    scan_rng = Rng(3).split("q")
    test_rows = np.nonzero(split != SPLIT_TRAIN)[0]
    for tid in np.unique(ids[test_rows]):
        rows = test_rows[ids[test_rows] == tid]
        perm = scan_rng.permutation(rows.size)
        want[rows[perm[:1]]] = SPLIT_QUERY
        want[rows[perm[1:]]] = SPLIT_GALLERY
    got = split_query_gallery(ds, 1, Rng(3).split("q")).split
    assert got.tobytes() == want.tobytes()


def test_select_modalities():
    ds = generate(_cfg(num_modalities=3))
    sub = select_modalities(ds, [2, 0])
    assert sub.modality_names == ["mod2", "mod0"]
    assert np.array_equal(sub.features[0], ds.features[2])
    assert np.array_equal(sub.ids, ds.ids)
    with pytest.raises(DataError):
        select_modalities(ds, [3])


def test_replicate_modality():
    ds = generate(_cfg(num_modalities=2))
    rep = replicate_modality(ds, 1, 2)
    assert rep.num_modalities == 2
    assert rep.modality_names == ["mod1.copy0", "mod1.copy1"]
    assert np.array_equal(rep.features[0], rep.features[1])
    assert np.array_equal(rep.features[0], ds.features[1])
    assert np.array_equal(rep.ids, ds.ids)
    rep.validate()  # names stay unique
    with pytest.raises(ConfigError):
        replicate_modality(ds, 0, 1)
    with pytest.raises(DataError):
        replicate_modality(ds, 5, 2)


def test_presets_named_and_valid():
    assert set(PRESETS) == {"clean", "weak-link", "ensemble-base"}
    for name in PRESETS:
        cfg = preset(name, seed=1)
        cfg.validate()
        assert cfg.seed == 1
    with pytest.raises(ConfigError):
        preset("nope")
    clean = clean_preset()
    assert clean.num_modalities == 3
    assert all(s == 0 for s in clean.spurious_dim)
    weak = weak_link_preset()
    assert weak.noise_sigma[WEAK_STREAM] > max(weak.noise_sigma[:WEAK_STREAM])
    assert weak.spurious_dim[WEAK_STREAM] > 0
    ens = ensemble_base_preset()
    assert ens.num_modalities == 1


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 3), st.integers(2, 4))
def test_generate_property_valid_anywhere(seed, m, views):
    cfg = SynthConfig(
        num_modalities=m, latent_dim=3, obs_dim=5, ids_train=4, ids_test=3,
        views_per_id=max(views, 2), noise_sigma=0.5, seed=seed,
    )
    ds = generate(cfg)
    ds.validate()
    assert ds.num_samples == (4 + 3) * cfg.views_per_id


def test_dataset_validation_errors():
    ds = generate(_cfg())
    broken = MultimodalDataset(
        features=[ds.features[0][:-1], ds.features[1]],
        ids=ds.ids, view_ids=ds.view_ids, split=ds.split,
        modality_names=list(ds.modality_names),
    )
    with pytest.raises(ShapeError):
        broken.validate()
    dup = MultimodalDataset(
        features=list(ds.features), ids=ds.ids, view_ids=ds.view_ids,
        split=ds.split, modality_names=["a", "a"],
    )
    with pytest.raises(DataError):
        dup.validate()
