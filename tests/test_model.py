import hashlib
import json
import math

import numpy as np
import pytest

from reidlab.errors import ConfigError, DataError, ShapeError, StateError
from reidlab.model import (
    CHECKPOINT_MAGIC,
    FUSED_SELECTOR,
    BnNeck,
    ModelParams,
    embed_dataset,
    head_backward,
    head_forward,
    init_bnneck,
    init_model,
    init_stream,
    iter_trainables,
    load_checkpoint,
    param_slots,
    save_checkpoint,
    stream_backward,
    stream_forward,
)
from reidlab.numerics import Rng, finite_diff_check
from reidlab.objectives import LossConfig, Strategy, combined_loss, fuse, inference_fusion_op
from reidlab.pipeline import batch_gradients
from reidlab.synthdata import SynthConfig, generate
from support import draw_fd_case, flat_objective, naive_matmul


def _stream(rng_seed=0, input_dim=5, hidden=(7,), embed=4, classes=3):
    return init_stream(input_dim, hidden, embed, classes, Rng(rng_seed).split("s"))


def _small_ds(m=2, seed=0):
    cfg = SynthConfig(
        num_modalities=m, latent_dim=3, obs_dim=6, ids_train=6, ids_test=4,
        views_per_id=4, noise_sigma=0.3, seed=seed,
    )
    return generate(cfg)


# ------------------------------------------------------------------ init


def test_init_kaiming_scale_and_zero_biases():
    s = init_stream(50, (40,), 30, None, Rng(0).split("k"))
    w = s.weights[0]
    assert w.shape == (40, 50)
    # pool enough draws for a stable std estimate
    big = init_stream(50, (200,), 30, None, Rng(1).split("k"))
    std = big.weights[0].std()
    want = math.sqrt(2.0 / 50)
    assert abs(std - want) / want < 0.15
    for b in s.biases:
        assert np.all(b == 0.0)
    # final layer is bias-free: biases only for hidden layers
    assert len(s.biases) == len(s.weights) - 1
    assert np.all(s.bn.gamma == 1.0)
    assert np.all(s.bn.running_mean == 0.0)
    assert np.all(s.bn.running_var == 1.0)


def test_init_deterministic():
    a = init_stream(5, (6,), 4, 3, Rng(7).split("x"))
    b = init_stream(5, (6,), 4, 3, Rng(7).split("x"))
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert np.array_equal(a.classifier, b.classifier)


def test_init_model_strategy_wiring():
    rng = Rng(3)
    uni = init_model([5, 6], ["a", "b"], Strategy.UNICAT, 4, rng.split("u"),
                     hidden_dims=(8,), embed_dim=4)
    assert uni.fused is None
    assert all(s.classifier is not None for s in uni.streams)

    cat = init_model([5, 6], ["a", "b"], Strategy.FUSION_CONCAT, 4, rng.split("c"),
                     hidden_dims=(8,), embed_dim=4)
    assert cat.fused is not None and cat.fused.classifier.shape == (4, 8)
    assert all(s.classifier is None for s in cat.streams)

    avg = init_model([5, 6], ["a", "b"], Strategy.FUSION_AVG, 4, rng.split("a"),
                     hidden_dims=(8,), embed_dim=4)
    assert avg.fused.classifier.shape == (4, 4)

    with pytest.raises(ShapeError):
        init_model([5], ["a", "b"], Strategy.UNICAT, 4, rng.split("e"))
    with pytest.raises(ConfigError):
        init_model([5, 6], ["a", "a"], Strategy.UNICAT, 4, rng.split("e2"))


def test_init_model_per_stream_rng_keyed_by_name():
    # a stream's init depends only on (seed, its name), not on siblings
    rng = Rng(11)
    pair = init_model([5, 5], ["left", "right"], Strategy.UNICAT, 3, Rng(11))
    solo = init_model([5], ["right"], Strategy.UNICAT, 3, Rng(11))
    for wa, wb in zip(pair.streams[1].weights, solo.streams[0].weights):
        assert np.array_equal(wa, wb)
    assert np.array_equal(pair.streams[1].classifier, solo.streams[0].classifier)


def test_model_validate_fused_consistency():
    m = init_model([4], ["a"], Strategy.FUSION_AVG, 3, Rng(0))
    m.validate()
    m.fused = None
    with pytest.raises(ConfigError):
        m.validate()
    u = init_model([4], ["a"], Strategy.UNICAT, 3, Rng(0))
    u.streams[0].bn.running_var[:] = 0.0
    with pytest.raises(DataError):
        u.validate()


# --------------------------------------------------------------- forward


def _naive_stream_forward(params, x):
    """Per-neuron loop oracle: MLP -> z, batch-stat BN, logits."""
    h = np.asarray(x, float)
    last = len(params.weights) - 1
    for l, w in enumerate(params.weights):
        a = np.empty((h.shape[0], w.shape[0]))
        for r in range(h.shape[0]):
            for u in range(w.shape[0]):
                acc = 0.0
                for j in range(w.shape[1]):
                    acc += h[r, j] * w[u, j]
                a[r, u] = acc + (params.biases[l][u] if l < last else 0.0)
        h = np.maximum(a, 0.0) if l < last else a
    z = h
    mu = z.mean(axis=0)
    var = ((z - mu) ** 2).mean(axis=0)
    z_bn = params.bn.gamma * (z - mu) / np.sqrt(var + params.bn.eps)
    logits = None
    if params.classifier is not None:
        logits = z_bn @ params.classifier.T
    return z, z_bn, logits


def test_forward_matches_naive_loop():
    s = _stream()
    x = Rng(4).normal(6, 5)
    out = stream_forward(s, x, train=True)
    z, z_bn, logits = _naive_stream_forward(s, x)
    np.testing.assert_allclose(out.z, z, atol=1e-12, rtol=0)
    np.testing.assert_allclose(out.z_bn, z_bn, atol=1e-12, rtol=0)
    np.testing.assert_allclose(out.logits, logits, atol=1e-12, rtol=0)


def test_forward_eval_identity_normalization():
    s = _stream(input_dim=4, hidden=(), embed=4, classes=None)
    s.bn = init_bnneck(4, eps=0.0)  # running stats (0, 1), gamma 1
    x = Rng(5).normal(3, 4)
    out = stream_forward(s, x, train=False)
    assert np.array_equal(out.z_bn, out.z)


def test_forward_train_batch_stats():
    s = _stream(input_dim=6, hidden=(9,), embed=5, classes=None)
    s.bn = init_bnneck(5, eps=1e-12)
    s.bn.gamma[:] = 1.7
    out = stream_forward(s, Rng(6).normal(32, 6), train=True)
    np.testing.assert_allclose(out.z_bn.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.z_bn.var(axis=0), 1.7**2, atol=1e-9 * 1.7**2, rtol=0)


def test_forward_train_needs_two_rows():
    s = _stream()
    with pytest.raises(DataError):
        stream_forward(s, Rng(0).normal(1, 5), train=True)


def test_forward_running_stats_update_rule():
    s = _stream(classes=None)
    x = Rng(8).normal(10, 5)
    rm0 = s.bn.running_mean.copy()
    rv0 = s.bn.running_var.copy()
    out = stream_forward(s, x, train=True)
    z = out.z
    mu = z.mean(axis=0)
    var_u = z.var(axis=0, ddof=1)  # unbiased variance stored
    np.testing.assert_allclose(s.bn.running_mean, rm0 + 0.1 * (mu - rm0), atol=1e-15)
    np.testing.assert_allclose(s.bn.running_var, rv0 + 0.1 * (var_u - rv0), atol=1e-15)


def test_forward_eval_is_pure():
    s = _stream()
    x = Rng(9).normal(8, 5)
    rm = s.bn.running_mean.copy()
    rv = s.bn.running_var.copy()
    stream_forward(s, x, train=False)
    assert np.array_equal(s.bn.running_mean, rm) and np.array_equal(s.bn.running_var, rv)


def test_logits_linear_in_z_bn():
    s = _stream()
    x = Rng(10).normal(6, 5)
    out = stream_forward(s, x, train=False)
    # doubling gamma doubles z_bn, and logits scale exactly with it
    s.bn.gamma *= 2.0
    out2 = stream_forward(s, x, train=False)
    np.testing.assert_allclose(out2.z_bn, 2.0 * out.z_bn, atol=0, rtol=0)
    np.testing.assert_allclose(out2.logits, 2.0 * out.logits, atol=0, rtol=0)


def test_forward_input_dim_mismatch():
    with pytest.raises(ShapeError):
        stream_forward(_stream(), np.zeros((4, 7)), train=False)


# -------------------------------------------------------------- backward


def test_backward_zero_grads_give_zero():
    s = _stream()
    x = Rng(12).normal(6, 5)
    out = stream_forward(s, x, train=True)
    g = stream_backward(s, out, np.zeros_like(out.z), np.zeros_like(out.logits))
    for w in g.weights:
        assert np.all(w == 0.0)
    for b in g.biases:
        assert np.all(b == 0.0)
    assert np.all(g.bn.gamma == 0.0)
    assert np.all(g.classifier == 0.0)


def test_backward_classifier_grad_identity():
    s = _stream()
    x = Rng(13).normal(6, 5)
    out = stream_forward(s, x, train=True)
    grad_logits = Rng(14).normal(6, 3)
    g = stream_backward(s, out, None, grad_logits)
    assert np.array_equal(g.classifier, naive_matmul(grad_logits.T, out.z_bn))


def test_backward_requires_train_cache_and_shapes():
    s = _stream()
    x = Rng(15).normal(6, 5)
    ev = stream_forward(s, x, train=False)
    with pytest.raises(StateError):
        stream_backward(s, ev, np.zeros((6, 4)), None)
    out = stream_forward(s, x, train=True)
    with pytest.raises(ShapeError):
        stream_backward(s, out, np.zeros((6, 9)), None)
    no_cls = init_stream(5, (7,), 4, None, Rng(0).split("nc"))
    out2 = stream_forward(no_cls, x, train=True)
    with pytest.raises(StateError):
        stream_backward(no_cls, out2, None, np.zeros((6, 3)))


def test_relu_subgradient_is_zero_at_signed_zeros():
    # relu'(0) = 0: a hidden unit whose pre-activation is exactly zero passes
    # no gradient back, whichever the zero's sign. The finite-difference
    # cases keep away from such kinks, so only this test pins it.
    s = _stream(input_dim=4, hidden=(5,), embed=3, classes=None)
    w0, b0 = s.weights[0], s.biases[0]
    w0[0], b0[0] = 0.0, 0.0
    w0[1], b0[1] = -0.0, -0.0
    x = Rng(40).normal(6, 4)
    out = stream_forward(s, x, train=True)
    pre = naive_matmul(x, w0.T) + b0
    assert np.all(pre[:, :2] == 0.0) and not np.any(np.signbit(pre[:, :2]))
    # matmul sums start at +0.0, so the forward never makes a -0.0
    # pre-activation; unit 1 gets the hidden output such a sum would give
    pre[:, 1] = -0.0
    out.hiddens[1][:, 1] = np.maximum(pre[:, 1], 0.0)
    assert np.all(np.signbit(pre[:, 1]))
    assert np.all(pre[:, 2:] != 0.0)
    grad_z = Rng(41).normal(6, 3)
    g = stream_backward(s, out, grad_z, None)
    assert np.all(g.biases[0][:2] == 0.0)
    assert np.all(g.weights[0][:2] == 0.0)
    # the gradient reaching the hidden layer, masked by pre > 0
    g_hidden = naive_matmul(grad_z, s.weights[1]) * (pre > 0)
    assert np.array_equal(g.biases[0], g_hidden.sum(axis=0))
    assert np.array_equal(g.weights[0], naive_matmul(g_hidden.T, x))


def test_full_stream_finite_difference():
    # combined loss through MLP + BNNeck + classifier, all parameters
    for seed in (0, 1, 2):
        model, x, y, cfg = draw_fd_case(seed)
        f, base, gvec, unpack = flat_objective(model, x, y, cfg)
        rep = finite_diff_check(f, base.copy(), gvec)
        unpack(base)
        assert rep.ok(1e-5), f"seed {seed}: {rep.max_rel_error:.3e}"


def test_head_backward_matches_stream_path():
    # the fused head is BN + classifier; same grads as a stream's BN/cls
    rng = Rng(21)
    model = init_model([5], ["a"], Strategy.FUSION_AVG, 3, rng.split("m"))
    z = rng.split("z").normal(6, 32)
    out = head_forward(model.fused, z, train=True)
    grad_logits = rng.split("g").normal(6, 3)
    hg, gz = head_backward(model.fused, out, None, grad_logits)
    assert np.array_equal(hg.classifier, naive_matmul(grad_logits.T, out.z_bn))
    assert gz.shape == z.shape
    ev = head_forward(model.fused, z, train=False)
    with pytest.raises(StateError):
        head_backward(model.fused, ev, None, grad_logits)


# --------------------------------------------------------- embed_dataset


def test_embed_dataset_selectors_and_errors():
    ds = _small_ds(m=2)
    model = init_model(
        [f.shape[1] for f in ds.features], ds.modality_names,
        Strategy.FUSION_CONCAT, 6, Rng(1), hidden_dims=(8,), embed_dim=4,
    )
    feats = embed_dataset(model, ds, FUSED_SELECTOR)
    assert feats.shape == (ds.num_samples, 8)
    uni = embed_dataset(model, ds, 0)
    assert uni.shape == (ds.num_samples, 4)
    with pytest.raises(DataError):
        embed_dataset(model, ds, 2)
    with pytest.raises(DataError):
        embed_dataset(model, ds, "fused")
    with pytest.raises(ShapeError):
        embed_dataset(model, _small_ds(m=1), "multimodal")


def test_embed_dataset_m1_unicat_degenerate_fusion():
    ds = _small_ds(m=1)
    model = init_model(
        [ds.features[0].shape[1]], ds.modality_names, Strategy.UNICAT, 6,
        Rng(2), hidden_dims=(8,), embed_dim=4,
    )
    fused = embed_dataset(model, ds, FUSED_SELECTOR, normalize_first=False)
    solo = embed_dataset(model, ds, 0)
    assert np.array_equal(fused, solo)


def test_embed_dataset_deterministic():
    ds = _small_ds(m=2)
    model = init_model(
        [f.shape[1] for f in ds.features], ds.modality_names,
        Strategy.UNICAT, 6, Rng(3),
    )
    a = embed_dataset(model, ds, FUSED_SELECTOR)
    b = embed_dataset(model, ds, FUSED_SELECTOR)
    assert np.array_equal(a, b)


# ------------------------------------------------------ trainables, io


def test_iter_trainables_keys_and_grads_alignment():
    for strat in Strategy:
        model = init_model([5, 6], ["a", "b"], strat, 4, Rng(5), hidden_dims=(7,), embed_dim=3)
        pairs = iter_trainables(model)
        keys = [k for k, _ in pairs]
        assert len(keys) == len(set(keys))
        if strat.is_fusion:
            assert "fused.gamma" in keys and "fused.classifier" in keys
            assert "stream0.classifier" not in keys
        else:
            assert "stream0.classifier" in keys and "fused.gamma" not in keys
        # per-layer weight keys, bias keys only for hidden layers
        assert "stream0.w0" in keys and "stream0.w1" in keys
        assert "stream0.b0" in keys and "stream0.b1" not in keys
        # iter_trainables is param_slots without the BN running statistics
        slots = param_slots(model)
        assert [(k, a) for k, a, t in slots if t] == pairs
        frozen = [k for k, _, t in slots if not t]
        assert all(k.endswith((".running_mean", ".running_var")) for k in frozen)
        assert len(frozen) == 2 * (model.num_streams + (model.fused is not None))
        # gradients come back keyed and shaped like the trainables
        x = [Rng(9).split(f"x{i}").normal(8, d) for i, d in enumerate([5, 6])]
        _, grads = batch_gradients(model, x, np.repeat(np.arange(4), 2), LossConfig())
        assert list(grads) == keys
        for key, arr in pairs:
            assert grads[key].shape == arr.shape, key


def test_checkpoint_roundtrip_bitwise(tmp_path):
    for strat in Strategy:
        model = init_model([5, 6], ["a", "b"], strat, 4, Rng(6), hidden_dims=(7,), embed_dim=3)
        # make running stats non-trivial
        x = [Rng(7).split(f"x{i}").normal(8, d) for i, d in enumerate([5, 6])]
        for s, xi in zip(model.streams, x):
            stream_forward(s, xi, train=True)
        path = tmp_path / f"{strat.value}.ckpt"
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        assert back.strategy is strat
        assert back.modality_names == ["a", "b"]
        for sa, sb in zip(model.streams, back.streams):
            for wa, wb in zip(sa.weights, sb.weights):
                assert np.array_equal(wa, wb)
            for ba, bb in zip(sa.biases, sb.biases):
                assert np.array_equal(ba, bb)
            assert np.array_equal(sa.bn.running_var, sb.bn.running_var)
            if sa.classifier is not None:
                assert np.array_equal(sa.classifier, sb.classifier)
        if strat.is_fusion:
            assert np.array_equal(model.fused.classifier, back.fused.classifier)


def _forwarded_model(strat):
    """A tiny model after one train-mode forward, so its running statistics are non-trivial."""
    model = init_model([5, 6], ["a", "b"], strat, 4, Rng(6), hidden_dims=(7,), embed_dim=3)
    x = [Rng(7).split(f"x{i}").normal(8, d) for i, d in enumerate([5, 6])]
    outs = [stream_forward(s, xi, train=True) for s, xi in zip(model.streams, x)]
    if strat.is_fusion:
        z_fuse = fuse([o.z for o in outs], inference_fusion_op(strat))
        head_forward(model.fused, z_fuse, train=True)
    return model


def _header_and_payload(blob):
    header_len = int.from_bytes(blob[8:16], "little")
    return json.loads(blob[16 : 16 + header_len]), blob[16 + header_len :]


def test_checkpoint_payload_is_param_slots_in_order(tmp_path):
    for strat in Strategy:
        model = _forwarded_model(strat)
        path = tmp_path / f"{strat.value}.ckpt"
        save_checkpoint(model, path)
        _, payload = _header_and_payload(path.read_bytes())
        want = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for _, a, _ in param_slots(model))
        assert payload == want


# sha256 of checkpoint.bin for _forwarded_model, per strategy: pins the
# file format (header and array order) against refactors.
CHECKPOINT_SHA256 = {
    Strategy.FUSION_AVG: "adab36d81b4e25aadf5bc0d4f2c68a4de1c904b0207199e0aed9d414f67b3b4f",
    Strategy.FUSION_CONCAT: "d9b5d76f03bd2ed133856413c6ff6a3570b05faf1c16ad6bcc7a2fd27d63621e",
    Strategy.UNICAT: "e159728e8b574a31e2c20c93a0cab7b23daffa0d6d4aa4b79421a3a7cb49a442",
}


@pytest.mark.parametrize("strat", list(Strategy))
def test_checkpoint_bytes_pinned(tmp_path, strat):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_forwarded_model(strat), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CHECKPOINT_SHA256[strat]


def _with_header(blob, **changes):
    header, payload = _header_and_payload(blob)
    new = json.dumps(dict(header, **changes)).encode("utf-8")
    return blob[:8] + len(new).to_bytes(8, "little") + new + payload


@pytest.mark.parametrize("changes", [
    {"layer_dims": "abc"},
    {"layer_dims": [["5", "7", "3"], ["6", "7", "3"]]},
    {"num_classes": "four"},
    {"strategy": "nope"},
    {"bn_eps": "x"},
    {"layer_dims": [[5, -7, 3], [6, -7, 3]]},
    {"modality_names": 3},
])
def test_checkpoint_malformed_header_is_data_error(tmp_path, changes):
    for strat in Strategy:
        good = tmp_path / f"{strat.value}.ckpt"
        save_checkpoint(_forwarded_model(strat), good)
        bad = tmp_path / f"{strat.value}.bad"
        bad.write_bytes(_with_header(good.read_bytes(), **changes))
        with pytest.raises(DataError):
            load_checkpoint(bad)


def test_checkpoint_header_larger_than_payload_rejected_before_allocating(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_forwarded_model(Strategy.UNICAT), path)
    huge = 10**12  # a 10**12 x 5 float64 matrix could never be allocated
    path.write_bytes(_with_header(path.read_bytes(), layer_dims=[[5, huge, 3], [6, huge, 3]]))
    with pytest.raises(DataError, match="more parameters than the payload holds"):
        load_checkpoint(path)


def test_checkpoint_rejects_corruption(tmp_path):
    model = init_model([5], ["a"], Strategy.UNICAT, 3, Rng(8))
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.ckpt"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(DataError):
        load_checkpoint(bad_magic)

    truncated = tmp_path / "short.ckpt"
    truncated.write_bytes(blob[:-9])
    with pytest.raises(DataError):
        load_checkpoint(truncated)

    trailing = tmp_path / "long.ckpt"
    trailing.write_bytes(blob + b"\x00" * 8)
    with pytest.raises(DataError):
        load_checkpoint(trailing)

    bad_version = tmp_path / "ver.ckpt"
    bad_version.write_bytes(blob[:4] + (99).to_bytes(4, "little") + blob[8:])
    with pytest.raises(DataError):
        load_checkpoint(bad_version)
