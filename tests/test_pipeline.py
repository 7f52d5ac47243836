import hashlib
import json
import math
import re

import numpy as np
import pytest

from reidlab import pipeline
from reidlab.errors import ConfigError, DataError, ShapeError
from reidlab.model import head_forward, init_model, iter_trainables, save_checkpoint, stream_forward
from reidlab.numerics import Rng, label_groups
from reidlab.objectives import LossConfig, Strategy, combined_loss, fuse, inference_fusion_op
from reidlab.pipeline import (
    LR_MIN_RATIO,
    TrainConfig,
    batch_gradients,
    batch_plan,
    carve_validation,
    config_hash,
    grid_search,
    lr_at,
    pk_sample,
    sgd_step,
    train,
)
from reidlab.synthdata import MultimodalDataset, SynthConfig, clean_preset, generate, select_modalities


def _tiny_ds(seed=0, m=2, ids_train=6, ids_test=4, views=4, sigma=0.2, jitter=0.1):
    return generate(SynthConfig(
        num_modalities=m, latent_dim=3, obs_dim=6, ids_train=ids_train,
        ids_test=ids_test, views_per_id=views, noise_sigma=sigma,
        view_jitter=jitter, seed=seed,
    ))


def _tiny_cfg(strategy=Strategy.UNICAT, **kw):
    base = dict(strategy=strategy, p=3, k=2, lr_base=0.05, momentum=0.9,
                epochs=4, warmup_epochs=1, hidden_dims=(8,), embed_dim=4, seed=0)
    base.update(kw)
    return TrainConfig(**base)


# ---------------------------------------------------------------- pk_sample

def test_pk_sample_forced_batch():
    y = np.array([0, 0, 1, 1])
    idx = pk_sample(label_groups(y), p=2, k=2, rng=Rng(0))
    assert sorted(idx.tolist()) == [0, 1, 2, 3]


def test_pk_sample_counts_and_replacement_rule():
    y = np.repeat(np.arange(8), 5)
    rng = Rng(1)
    for _ in range(20):
        idx = pk_sample(label_groups(y), p=4, k=3, rng=rng)
        assert idx.shape == (12,)
        labels = y[idx]
        uniq, counts = np.unique(labels, return_counts=True)
        assert uniq.size == 4  # P distinct ids, drawn without replacement
        assert np.all(counts == 3)  # K each
        # every id has 5 >= K samples: within-id rows must not repeat
        for identity in uniq:
            rows = idx[labels == identity]
            assert np.unique(rows).size == rows.size


def test_pk_sample_replacement_only_when_id_is_short():
    y = np.array([0, 0, 1, 1, 1, 1, 2, 2, 2, 2])
    rng = Rng(2)
    for _ in range(10):
        idx = pk_sample(label_groups(y), p=3, k=3, rng=rng)
        labels = y[idx]
        rows0 = idx[labels == 0]
        assert rows0.size == 3 and np.unique(rows0).size <= 2  # forced repeat
        for identity in (1, 2):
            rows = idx[labels == identity]
            assert np.unique(rows).size == rows.size


def test_pk_sample_deterministic_and_errors():
    y = np.repeat(np.arange(5), 3)
    a = [pk_sample(label_groups(y), 3, 2, Rng(7).split("b")) for _ in range(1)]
    b = [pk_sample(label_groups(y), 3, 2, Rng(7).split("b")) for _ in range(1)]
    assert np.array_equal(a[0], b[0])
    with pytest.raises(DataError):
        pk_sample(label_groups(y), p=6, k=2, rng=Rng(0))


def test_every_batch_triplet_feasible():
    # K >= 2 and P >= 2 guarantee each anchor >= 1 positive, >= 1 negative
    y = np.repeat(np.arange(6), 4)
    rng = Rng(3)
    for _ in range(50):
        labels = y[pk_sample(label_groups(y), p=3, k=2, rng=rng)]
        for a in range(labels.size):
            same = labels == labels[a]
            assert same.sum() >= 2
            assert (~same).sum() >= 1


# -------------------------------------------------------------------- lr_at

def test_lr_schedule_junction_and_shape():
    cfg = _tiny_cfg(epochs=20, warmup_epochs=10, lr_base=0.05)
    # linear warmup hits lr_base at its last epoch; cosine starts there too
    assert lr_at(0, cfg) == pytest.approx(0.005)
    assert lr_at(9, cfg) == pytest.approx(0.05)
    assert lr_at(10, cfg) == pytest.approx(0.05)
    lrs = [lr_at(e, cfg) for e in range(10, 20)]
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))
    lr_min = LR_MIN_RATIO * cfg.lr_base
    assert all(lr >= lr_min for lr in lrs)
    # cosine midpoint: t = 1/2 -> average of the endpoints
    assert lr_at(15, cfg) == pytest.approx((0.05 + lr_min) / 2, rel=1e-12)


def test_lr_schedule_final_epoch_near_floor():
    cfg = _tiny_cfg(epochs=200, warmup_epochs=10, lr_base=0.05)
    lr_min = LR_MIN_RATIO * cfg.lr_base
    assert 0 <= lr_at(199, cfg) - lr_min < 1e-5


def test_lr_schedule_range_errors():
    cfg = _tiny_cfg(epochs=10, warmup_epochs=2)
    with pytest.raises(ConfigError):
        lr_at(-1, cfg)
    with pytest.raises(ConfigError):
        lr_at(10, cfg)


# ----------------------------------------------------------------- sgd_step

def _one_param(value):
    p = np.array([float(value)])
    trainables = [("w", p)]
    return p, trainables, {"w": np.zeros(1)}


def test_sgd_step_vanilla_when_momentum_zero():
    p, tr, st = _one_param(2.0)
    sgd_step(tr, {"w": np.array([0.4])}, st, lr=0.1, momentum=0.0)
    assert p[0] == pytest.approx(2.0 - 0.1 * 0.4, rel=1e-15)


def test_sgd_step_zero_gradient_is_identity():
    p, tr, st = _one_param(1.5)
    for _ in range(2):
        sgd_step(tr, {"w": np.zeros(1)}, st, lr=0.3, momentum=0.9)
    assert p[0] == 1.5


def test_sgd_step_two_constant_steps_unroll():
    # v1 = g, v2 = 0.9 g + g: total displacement lr * g * (1 + 1.9)
    p, tr, st = _one_param(2.0)
    for _ in range(2):
        sgd_step(tr, {"w": np.array([0.4])}, st, lr=0.1, momentum=0.9)
    assert 2.0 - p[0] == pytest.approx(0.1 * 0.4 * 2.9, rel=1e-12)


def test_sgd_step_shape_errors():
    p, tr, st = _one_param(1.0)
    with pytest.raises(ShapeError):
        sgd_step(tr, {}, st, lr=0.1, momentum=0.9)
    with pytest.raises(ShapeError):
        sgd_step(tr, {"w": np.zeros((2, 2))}, st, lr=0.1, momentum=0.9)


# -------------------------------------------------------- config validation

def test_train_config_validation_and_batch_size():
    assert _tiny_cfg(p=4, k=3).batch_size == 12
    bad = [
        dict(p=1), dict(k=1), dict(lr_base=0.0), dict(lr_base=-1.0),
        dict(momentum=1.0), dict(momentum=-0.1), dict(epochs=0),
        dict(warmup_epochs=4, epochs=4), dict(embed_dim=0), dict(hidden_dims=(0,)),
    ]
    for kw in bad:
        with pytest.raises(ConfigError):
            _tiny_cfg(**kw).validate()


def test_config_hash_stability_and_sensitivity():
    cfg = _tiny_cfg()
    h = config_hash(cfg)
    assert h == config_hash(_tiny_cfg())
    assert len(h) == 64 and set(h) <= set("0123456789abcdef")
    assert h != config_hash(_tiny_cfg(lr_base=0.01))
    assert h != config_hash(_tiny_cfg(seed=1))
    # canonical JSON form: sorted keys, no whitespace
    blob = json.dumps({"b": 1, "a": [2]}, sort_keys=True, separators=(",", ":"))
    assert config_hash({"b": 1, "a": [2]}) == hashlib.sha256(blob.encode()).hexdigest()


# -------------------------------------------------------------------- train

def test_train_bit_identical_reruns():
    ds = _tiny_ds()
    cfg = _tiny_cfg(epochs=3)
    a = train(ds, cfg)
    b = train(ds, cfg)
    assert np.array_equal(a.epoch_losses, b.epoch_losses)
    assert np.array_equal(a.epoch_lrs, b.epoch_lrs)
    assert a.config == b.config == cfg
    for (ka, pa), (kb, pb) in zip(iter_trainables(a.model), iter_trainables(b.model)):
        assert ka == kb
        assert np.array_equal(pa, pb)
    for sa, sb in zip(a.model.streams, b.model.streams):
        assert np.array_equal(sa.bn.running_mean, sb.bn.running_mean)
        assert np.array_equal(sa.bn.running_var, sb.bn.running_var)
    c = train(ds, _tiny_cfg(epochs=3, seed=1))
    assert not np.array_equal(a.epoch_losses, c.epoch_losses)


def test_train_records_schedule_and_validates_p():
    ds = _tiny_ds()
    cfg = _tiny_cfg(epochs=4)
    rec = train(ds, cfg)
    assert rec.epoch_losses.shape == (4,)
    assert np.array_equal(rec.epoch_lrs, [lr_at(e, cfg) for e in range(4)])
    with pytest.raises(DataError):
        train(ds, _tiny_cfg(p=8))  # only 6 train ids


def _pk_sample_per_step(y, p, k, rng):
    """pk_sample as a literal per-step scan: np.unique and one y == id
    comparison per chosen identity, on every call."""
    ids = np.unique(y)
    chosen = rng.choice(ids, size=p, replace=False)
    parts = []
    for identity in chosen:
        rows = np.nonzero(y == identity)[0]
        parts.append(rng.choice(rows, size=k, replace=rows.size < k))
    return np.concatenate(parts).astype(np.int64)


def test_train_batches_equal_per_step_pk_sample(monkeypatch):
    ds = _tiny_ds(ids_train=7)
    # Train ids keep 4, 3, 2 or 1 of their rows: with K = 3 some draws
    # need replacement and some do not.
    keep = np.ones(ds.num_samples, dtype=bool)
    train_rows = ds.train_rows
    for tid in np.unique(ds.ids[train_rows]):
        keep[train_rows[ds.ids[train_rows] == tid][: tid % 4]] = False
    ds = MultimodalDataset(
        features=[f[keep] for f in ds.features], ids=ds.ids[keep], view_ids=ds.view_ids[keep],
        split=ds.split[keep], modality_names=ds.modality_names,
    )
    cfg = _tiny_cfg(k=3, epochs=5)
    batches = []
    real_pk_sample = pipeline.pk_sample
    monkeypatch.setattr(pipeline, "pk_sample",
                        lambda *args: batches.append(real_pk_sample(*args)) or batches[-1])
    train(ds, cfg)
    y_raw = ds.ids[ds.train_rows]
    y = np.searchsorted(np.unique(y_raw), y_raw)
    assert len(batches) == cfg.epochs * math.ceil(y.size / cfg.batch_size)
    sampler = Rng(cfg.seed).split("batches")
    for got in batches:
        assert got.tobytes() == _pk_sample_per_step(y, cfg.p, cfg.k, sampler).tobytes()
    # batch_plan draws the same batches, in the same order.
    drawn = list(batches)
    plan = batch_plan(ds, cfg)
    assert plan.shape == (cfg.epochs, len(drawn) // cfg.epochs, cfg.batch_size)
    assert plan.tobytes() == np.concatenate(drawn).tobytes()


def _run_bytes(rec, path):
    """The loss curve, learning rates and checkpoint bytes of a run."""
    save_checkpoint(rec.model, path)
    return rec.epoch_losses.tobytes(), rec.epoch_lrs.tobytes(), path.read_bytes()


@pytest.mark.parametrize("strategy", list(Strategy))
def test_train_on_a_batch_plan_gives_the_bytes_of_its_own_draw(tmp_path, strategy):
    ds = _tiny_ds(m=3)
    cfg = _tiny_cfg(strategy, epochs=3)
    own = _run_bytes(train(ds, cfg), tmp_path / "own.bin")
    # A plan depends on no strategy, so one drawn under any serves all.
    for other in Strategy:
        plan = batch_plan(ds, _tiny_cfg(other, epochs=3))
        assert _run_bytes(train(ds, cfg, plan), tmp_path / "plan.bin") == own, other


@pytest.mark.parametrize("error", [MemoryError, ValueError])
def test_batch_plan_that_cannot_be_allocated_is_a_config_error(monkeypatch, error):
    # numpy raises MemoryError when the allocation fails and ValueError
    # past the largest size it can index. Both are faked: a real request
    # of that size may succeed under overcommit and then fill for hours.
    ds = _tiny_ds()
    cfg = _tiny_cfg(epochs=3)
    shape = batch_plan(ds, cfg).shape
    real_empty = np.empty

    def empty(shape, *args, **kwargs):
        if isinstance(shape, tuple) and len(shape) == 3:
            raise error("cannot allocate")
        return real_empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", empty)
    want = f"epochs=3: the batch plan of shape {shape} needs {math.prod(shape) * 8} bytes"
    for draw in (batch_plan, train):
        with pytest.raises(ConfigError, match=re.escape(want)):
            draw(ds, cfg)


def test_train_rejects_a_batch_plan_that_does_not_fit():
    ds = _tiny_ds()
    cfg = _tiny_cfg(epochs=3)
    plan = batch_plan(ds, cfg)
    assert plan.dtype == np.int64
    for bad in (plan[:-1], plan[:, :-1], plan[..., :-1], plan.reshape(-1), batch_plan(ds, _tiny_cfg(epochs=4))):
        with pytest.raises(ShapeError, match="batch plan"):
            train(ds, cfg, bad)
    num_rows = ds.train_rows.size
    for bad in (plan + num_rows, plan - num_rows, plan.astype(np.float64)):
        with pytest.raises(DataError, match=f"integer positions among {num_rows} train rows"):
            train(ds, cfg, bad)
    with pytest.raises(DataError, match="P=8"):
        batch_plan(ds, _tiny_cfg(p=8))  # only 6 train ids


def test_unicat_streams_match_solo_training_bitwise():
    ds = _tiny_ds(m=2)
    cfg = _tiny_cfg(strategy=Strategy.UNICAT, epochs=3)
    joint = train(ds, cfg)
    for i in range(2):
        solo = train(select_modalities(ds, [i]), cfg)
        js, ss = joint.model.streams[i], solo.model.streams[i if i == 0 else 0]
        for a, b in zip(js.weights, ss.weights):
            assert np.array_equal(a, b)
        for a, b in zip(js.biases, ss.biases):
            assert np.array_equal(a, b)
        assert np.array_equal(js.bn.gamma, ss.bn.gamma)
        assert np.array_equal(js.bn.running_mean, ss.bn.running_mean)
        assert np.array_equal(js.classifier, ss.classifier)


def test_batch_gradients_moves_running_stats_not_loss():
    ds = _tiny_ds()
    rec = train(ds, _tiny_cfg(epochs=2))
    model = rec.model
    rows = ds.train_rows[:6]
    xs = [f[rows] for f in ds.features]
    y = np.searchsorted(np.unique(ds.ids[ds.train_rows]), ds.ids[rows])
    before = [s.bn.running_mean.copy() for s in model.streams]
    loss_first, _ = batch_gradients(model, xs, y, _tiny_cfg().loss)
    loss_again, _ = batch_gradients(model, xs, y, _tiny_cfg().loss)
    assert loss_again == loss_first  # train mode normalizes by batch stats
    assert not np.array_equal(model.streams[0].bn.running_mean, before[0])
    with pytest.raises(ShapeError):
        batch_gradients(model, xs[:1], y, _tiny_cfg().loss)


def test_batch_loss_sums_the_loss_heads_in_order():
    # unicat attaches the loss to every stream's head, fusion to the fused head only
    dims = [5, 6, 4]
    x = [Rng(30).split(f"x{i}").normal(8, d) for i, d in enumerate(dims)]
    y = np.repeat(np.arange(4), 2)
    cfg = LossConfig(lambda_ce=0.7, margin=0.1)
    for strat in Strategy:
        model = init_model(dims, ["a", "b", "c"], strat, 4, Rng(31), hidden_dims=(7,), embed_dim=3)
        loss, _ = batch_gradients(model, x, y, cfg)
        outs = [stream_forward(s, xi, train=True) for s, xi in zip(model.streams, x)]
        if strat.is_fusion:
            z_fuse = fuse([o.z for o in outs], inference_fusion_op(strat))
            head = head_forward(model.fused, z_fuse, train=True)
            assert loss == combined_loss(head.z, head.logits, y, cfg)[0]
        else:
            want = 0.0
            for o in outs:
                want += combined_loss(o.z, o.logits, y, cfg)[0]
            assert loss == want


def test_long_run_on_committed_preset_learns_train_set():
    # Full recipe on the committed clean preset: loss direction plus
    # near-perfect final train classification under the default lambda=1.
    ds = generate(clean_preset(0))
    cfg = TrainConfig(strategy=Strategy.UNICAT, seed=0)
    rec = train(ds, cfg)
    assert rec.epoch_losses[-1] < rec.epoch_losses[0]
    rows = ds.train_rows
    classes = np.unique(ds.ids[rows])
    y = np.searchsorted(classes, ds.ids[rows])
    for i, stream in enumerate(rec.model.streams):
        out = stream_forward(stream, ds.features[i][rows], train=False)
        acc = float(np.mean(out.logits.argmax(axis=1) == y))
        assert acc > 0.95


# --------------------------------------------------------- carve_validation

def test_carve_validation_holds_out_train_ids_only():
    ds = _tiny_ds(ids_train=20, ids_test=4, views=4)
    sub = carve_validation(ds, Rng(0).split("v"))
    sub.validate()
    assert sub.num_samples == 20 * 4  # original train rows only
    orig_train = set(ds.ids[ds.train_rows].tolist())
    assert set(sub.ids.tolist()) == orig_train
    val_ids = set(sub.ids[sub.query_rows].tolist()) | set(sub.ids[sub.gallery_rows].tolist())
    assert len(val_ids) == 2  # 10% of 20
    assert set(sub.ids[sub.train_rows].tolist()) == orig_train - val_ids
    for tid in val_ids:
        mask = sub.ids == tid
        assert (sub.split[mask] == 1).sum() == 1  # 4 views -> 1 query
    again = carve_validation(ds, Rng(0).split("v"))
    assert np.array_equal(sub.split, again.split)


def test_carve_validation_needs_enough_ids():
    ds = _tiny_ds(ids_train=3, ids_test=4)
    with pytest.raises(DataError):
        carve_validation(ds, Rng(0))


# -------------------------------------------------------------- grid_search

def test_grid_search_singleton_returns_that_cell():
    ds = _tiny_ds(ids_train=12)
    base = _tiny_cfg(epochs=2, k=2, hidden_dims=(6,), embed_dim=3)
    res = grid_search(ds, [4], [0.05], base)
    assert len(res.cells) == 1 and len(res.cell_records) == 1
    assert res.best_cell == res.cells[0]
    assert res.best.config.p == 2 and res.best.config.lr_base == 0.05


def test_grid_search_nine_cell_grid():
    ds = _tiny_ds(ids_train=16, views=4)
    base = _tiny_cfg(epochs=2, k=2, hidden_dims=(6,), embed_dim=3)
    res = grid_search(ds, [4, 8, 12], [0.1, 0.05, 0.02], base)
    assert len(res.cells) == 9
    assert {(c.batch_size, c.lr) for c in res.cells} == {
        (bs, lr) for bs in (4, 8, 12) for lr in (0.1, 0.05, 0.02)
    }
    best_map = max(c.val_map for c in res.cells)
    assert res.best_cell.val_map == best_map


def test_grid_search_tie_prefers_low_lr_then_small_batch():
    # noiseless, tightly clustered ids: every cell reaches val mAP 1.0
    ds = _tiny_ds(ids_train=10, ids_test=3, sigma=0.0, jitter=0.02)
    base = _tiny_cfg(epochs=6, k=2, hidden_dims=(8,), embed_dim=4)
    res = grid_search(ds, [8, 4], [0.1, 0.02], base)
    assert all(c.val_map == 1.0 for c in res.cells)
    assert res.best_cell.lr == 0.02
    assert res.best_cell.batch_size == 4


def test_grid_search_determinism_and_errors():
    ds = _tiny_ds(ids_train=12)
    base = _tiny_cfg(epochs=2, k=2, hidden_dims=(6,), embed_dim=3)
    r1 = grid_search(ds, [4, 8], [0.05], base)
    r2 = grid_search(ds, [4, 8], [0.05], base)
    assert r1.best_cell == r2.best_cell
    assert r1.cells == r2.cells
    for (ka, pa), (kb, pb) in zip(iter_trainables(r1.best.model), iter_trainables(r2.best.model)):
        assert ka == kb and np.array_equal(pa, pb)
    with pytest.raises(ConfigError):
        grid_search(ds, [], [0.05], base)
    with pytest.raises(ConfigError):
        grid_search(ds, [5], [0.05], base)  # not a multiple of K=2
