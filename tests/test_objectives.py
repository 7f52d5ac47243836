import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reidlab.errors import ConfigError, DataError, ShapeError
from reidlab.numerics import Rng
from reidlab.objectives import (
    FusionOperator,
    LossConfig,
    Strategy,
    _sigmoid,
    combined_loss,
    cross_entropy,
    default_normalize_first,
    fuse,
    inference_fusion_op,
    split_fusion_grad,
    triplet_loss,
)
from support import oracle_cross_entropy, oracle_triplet


# ------------------------------------------------------------- triplet


def test_triplet_symmetric_square_is_ln2():
    # two classes at the corners of a square: d_ap = d_an = 2 per anchor
    z = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    y = np.array([0, 0, 1, 1])
    loss, grad, sel = triplet_loss(z, y, margin=0.0)
    assert abs(loss - math.log(2.0)) < 1e-12


def test_triplet_saturated_easy_case():
    # duplicated positives (d_ap = 0), negatives 20 away
    z = np.array([[0.0], [0.0], [20.0], [20.0]])
    y = np.array([0, 0, 1, 1])
    loss, grad, sel = triplet_loss(z, y, margin=0.0)
    assert abs(loss - math.log1p(math.exp(-20.0))) < 1e-12
    assert np.all(sel.d_ap == 0.0)
    # zero-distance pairs use the zero subgradient: no NaN anywhere
    assert np.all(np.isfinite(grad))


def test_triplet_matches_exhaustive_oracle():
    rng = Rng(11)
    for trial in range(50):
        r = rng.split(f"t{trial}")
        p = int(r.integers(2, 5))
        k = int(r.integers(2, 5))
        dim = int(r.integers(1, 9))
        z = r.split("z").normal(p * k, dim)
        y = np.repeat(np.arange(p), k)
        margin = float(r.split("m").uniform(-0.5, 0.5))
        loss, grad, sel = triplet_loss(z, y, margin)
        o_loss, o_pos, o_neg = oracle_triplet(z, y, margin)
        assert np.array_equal(sel.pos_index, o_pos)
        assert np.array_equal(sel.neg_index, o_neg)
        assert abs(loss - o_loss) < 1e-12


def test_triplet_tie_goes_to_lowest_index():
    # anchor 0: positives 1 and 2 both at distance 1 -> pick 1
    z = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0], [-5.0, 5.0]])
    y = np.array([0, 0, 0, 1, 1])
    _, _, sel = triplet_loss(z, y)
    assert sel.pos_index[0] == 1
    # negatives 3 and 4 are equidistant from 0 -> pick 3
    assert sel.neg_index[0] == 3


def test_triplet_batch_composition_errors():
    with pytest.raises(DataError):
        triplet_loss(np.zeros((3, 2)), np.array([0, 1, 2]))  # no positives
    with pytest.raises(DataError):
        triplet_loss(np.zeros((3, 2)), np.array([0, 0, 0]))  # no negatives
    with pytest.raises(ShapeError):
        triplet_loss(np.zeros((3, 2)), np.array([0, 0]))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_triplet_positive_and_increasing_in_margin(seed):
    r = Rng(seed).split("tri")
    z = r.split("z").normal(6, 3)
    y = np.array([0, 0, 1, 1, 2, 2])
    l0, _, _ = triplet_loss(z, y, margin=0.0)
    l1, _, _ = triplet_loss(z, y, margin=0.3)
    assert l0 > 0.0  # softplus is strictly positive
    assert l1 > l0  # strictly increasing in the margin


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_triplet_selection_rotation_invariant(seed):
    r = Rng(seed).split("rot")
    z = r.split("z").normal(8, 4)
    y = np.repeat(np.arange(4), 2)
    q, _ = np.linalg.qr(r.split("q").normal(4, 4))
    l_a, _, sel_a = triplet_loss(z, y)
    l_b, _, sel_b = triplet_loss(z @ q, y)
    assert np.array_equal(sel_a.pos_index, sel_b.pos_index)
    assert np.array_equal(sel_a.neg_index, sel_b.neg_index)
    assert abs(l_a - l_b) < 1e-9


def _rowwise_triplet_grad(z, sel, margin):
    """triplet_loss's gradient scattered by three row-wise np.add.at calls,
    the literal form the flat scatter replaced."""
    n = z.shape[0]
    anchors = np.arange(n)
    pos_index, neg_index, d_ap, d_an = sel.pos_index, sel.neg_index, sel.d_ap, sel.d_an
    w = _sigmoid(d_ap - d_an + margin) / n
    diff_p = z - z[pos_index]
    diff_n = z - z[neg_index]
    u_p = np.where(d_ap[:, None] > 0, diff_p / np.where(d_ap == 0, 1.0, d_ap)[:, None], 0.0)
    u_n = np.where(d_an[:, None] > 0, diff_n / np.where(d_an == 0, 1.0, d_an)[:, None], 0.0)
    grad = np.zeros_like(z)
    np.add.at(grad, anchors, w[:, None] * (u_p - u_n))
    np.add.at(grad, pos_index, -w[:, None] * u_p)
    np.add.at(grad, neg_index, w[:, None] * u_n)
    return grad


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(2, 5), st.integers(1, 8),
       st.sampled_from(["normal", "coarse", "collapsed"]), st.floats(-1.0, 1.0))
def test_triplet_grad_bytes_equal_rowwise_scatter(seed, p, k, dim, kind, margin):
    r = Rng(seed).split("scatter")
    y = r.split("y").permutation(np.repeat(np.arange(p), k))
    z = r.split("z").normal(p * k, dim)
    if kind == "coarse":  # few distinct points: ties, zero distances, shared choices
        z = np.round(z)
    elif kind == "collapsed":  # each class on one point (d_ap = 0), with signed zeros
        z = np.round(r.split("c").normal(p, dim))[y]
    loss, grad, sel = triplet_loss(z, y, margin)
    assert grad.tobytes() == _rowwise_triplet_grad(z, sel, margin).tobytes()


# ------------------------------------------------------- cross entropy


def test_ce_uniform_and_saturated():
    loss, _ = cross_entropy(np.zeros((4, 10)), np.array([1, 3, 5, 9]))
    assert abs(loss - math.log(10.0)) < 1e-12
    logits = np.zeros((2, 5))
    logits[0, 2] = 50.0
    logits[1, 0] = 50.0
    loss, _ = cross_entropy(logits, np.array([2, 0]))
    assert loss < 1e-20


def test_ce_matches_direct_definition():
    rng = Rng(5)
    for trial in range(30):
        r = rng.split(f"c{trial}")
        n = int(r.integers(1, 9))
        c = int(r.integers(2, 7))
        logits = r.split("l").normal(n, c) * 3.0
        y = np.asarray(r.split("y").integers(0, c, size=n))
        loss, grad = cross_entropy(logits, y)
        assert abs(loss - oracle_cross_entropy(logits, y)) < 1e-12
        # grad rows sum to 0 (softmax minus onehot)
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-50, 50))
def test_ce_constant_shift_invariant(seed, shift):
    r = Rng(seed).split("ce")
    logits = r.split("l").normal(4, 6)
    y = np.asarray(r.split("y").integers(0, 6, size=4))
    a, _ = cross_entropy(logits, y)
    b, _ = cross_entropy(logits + shift, y)
    assert abs(a - b) < 1e-12


def test_ce_label_errors():
    with pytest.raises(DataError):
        cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(DataError):
        cross_entropy(np.zeros((2, 3)), np.array([-1, 0]))
    with pytest.raises(DataError):
        cross_entropy(np.zeros((2, 3)), np.array([0.5, 1.0]))


# ------------------------------------------------------- combined loss


def test_combined_lambda_zero_is_pure_triplet():
    r = Rng(9)
    z = r.split("z").normal(6, 4)
    logits = r.split("l").normal(6, 3)
    y = np.array([0, 0, 1, 1, 2, 2])
    tri, tri_grad, _ = triplet_loss(z, y, margin=0.2)
    loss, grad_z, grad_logits = combined_loss(z, logits, y, LossConfig(0.0, 0.2))
    assert loss == tri
    assert np.array_equal(grad_z, tri_grad)
    assert np.all(grad_logits == 0.0)


def test_combined_is_sum():
    r = Rng(10)
    z = r.split("z").normal(4, 4)
    logits = r.split("l").normal(4, 2)
    y = np.array([0, 0, 1, 1])
    cfg = LossConfig(lambda_ce=2.5, margin=0.1)
    tri, _, _ = triplet_loss(z, y, 0.1)
    ce, ce_grad = cross_entropy(logits, y)
    loss, _, grad_logits = combined_loss(z, logits, y, cfg)
    assert abs(loss - (tri + 2.5 * ce)) < 1e-12
    np.testing.assert_allclose(grad_logits, 2.5 * ce_grad, atol=0, rtol=0)


def test_loss_config_validation():
    with pytest.raises(ConfigError):
        LossConfig(lambda_ce=-1.0)
    with pytest.raises(ConfigError):
        LossConfig(margin=float("inf"))


# ---------------------------------------------------------------- fuse


def test_fuse_concat_and_average_definitions():
    a = np.array([[1.0, 0.0]])
    b = np.array([[0.0, 1.0]])
    np.testing.assert_array_equal(
        fuse([a, b], FusionOperator.CONCAT), np.array([[1.0, 0.0, 0.0, 1.0]])
    )
    v = np.array([[3.0, -2.0]])
    np.testing.assert_array_equal(fuse([v, v], FusionOperator.AVERAGE), v)
    # M=1 identity for both operators
    np.testing.assert_array_equal(fuse([v], FusionOperator.AVERAGE), v)
    np.testing.assert_array_equal(fuse([v], FusionOperator.CONCAT), v)


def test_fuse_normalize_first():
    a = np.array([[3.0, 4.0]])
    b = np.array([[0.0, 2.0]])
    out = fuse([a, b], FusionOperator.CONCAT, normalize_first=True)
    np.testing.assert_allclose(out, [[0.6, 0.8, 0.0, 1.0]], atol=1e-15)
    with pytest.raises(DataError):
        fuse([a, np.zeros((1, 2))], FusionOperator.CONCAT, normalize_first=True)


def test_fuse_shape_errors():
    with pytest.raises(ShapeError):
        fuse([np.zeros((1, 2)), np.zeros((1, 3))], FusionOperator.AVERAGE)
    with pytest.raises(ShapeError):
        fuse([np.zeros((1, 2)), np.zeros((2, 2))], FusionOperator.CONCAT)
    with pytest.raises(ConfigError):
        fuse([], FusionOperator.CONCAT)


def test_split_fusion_grad_routes_exactly():
    r = Rng(12)
    g = r.normal(5, 6)
    blocks = split_fusion_grad(g, FusionOperator.CONCAT, [2, 3, 1])
    np.testing.assert_array_equal(blocks[0], g[:, :2])
    np.testing.assert_array_equal(blocks[1], g[:, 2:5])
    np.testing.assert_array_equal(blocks[2], g[:, 5:])
    shared = split_fusion_grad(g, FusionOperator.AVERAGE, [6, 6, 6])
    for blk in shared:
        np.testing.assert_array_equal(blk, g / 3.0)
    with pytest.raises(ShapeError):
        split_fusion_grad(g, FusionOperator.CONCAT, [2, 3])
    with pytest.raises(ShapeError):
        split_fusion_grad(g, FusionOperator.AVERAGE, [5, 6])


def test_strategy_names_and_inference_ops():
    assert inference_fusion_op(Strategy.FUSION_AVG) is FusionOperator.AVERAGE
    assert inference_fusion_op(Strategy.FUSION_CONCAT) is FusionOperator.CONCAT
    assert inference_fusion_op(Strategy.UNICAT) is FusionOperator.CONCAT
    assert default_normalize_first(Strategy.UNICAT) is True
    assert default_normalize_first(Strategy.FUSION_AVG) is False
    assert Strategy.UNICAT.is_fusion is False
    assert Strategy.FUSION_CONCAT.is_fusion is True
