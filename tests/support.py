"""Shared test helpers: independent oracles and a conditioned sampler
for finite-difference checks.

The oracles here are deliberately naive (loops, literal definitions) so
they cannot share bugs with the vectorized implementations under test.
"""

import math

import numpy as np

from reidlab.model import init_model, iter_trainables, stream_forward
from reidlab.numerics import Rng, matmul, pairwise_euclidean
from reidlab.objectives import (
    FusionOperator,
    LossConfig,
    Strategy,
    fuse,
    inference_fusion_op,
)
from reidlab.pipeline import batch_gradients

# ---------------------------------------------------------------- oracles


def naive_matmul(a, b):
    """Triple-loop reference; accumulation order matches the k-loop."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m), dtype=np.float64)
    for t in range(k):
        for i in range(n):
            for j in range(m):
                out[i, j] += a[i, t] * b[t, j]
    return out


def naive_pairwise_euclidean(a, b):
    """Per-pair direct norm, no expansion trick."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = np.empty((a.shape[0], b.shape[0]), dtype=np.float64)
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            out[i, j] = math.sqrt(float(np.sum((a[i] - b[j]) ** 2)))
    return out


def oracle_triplet(z, y, margin):
    """Exhaustive batch-hard triplet oracle.

    Scans every (anchor, positive) and (anchor, negative) pair, takes the
    hardest of each with ties resolved to the lowest index, and sums the
    soft-margin penalty directly. Returns (loss, pos_idx, neg_idx).
    """
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y)
    n = z.shape[0]
    d = naive_pairwise_euclidean(z, z)
    pos_idx = np.empty(n, dtype=np.int64)
    neg_idx = np.empty(n, dtype=np.int64)
    total = 0.0
    for a in range(n):
        best_p, best_pd = -1, -np.inf
        best_n, best_nd = -1, np.inf
        for j in range(n):
            if j == a:
                continue
            if y[j] == y[a]:
                if d[a, j] > best_pd:
                    best_pd, best_p = d[a, j], j
            else:
                if d[a, j] < best_nd:
                    best_nd, best_n = d[a, j], j
        assert best_p >= 0 and best_n >= 0
        pos_idx[a] = best_p
        neg_idx[a] = best_n
        total += math.log1p(math.exp(best_pd - best_nd + margin)) if (
            best_pd - best_nd + margin
        ) < 500 else best_pd - best_nd + margin
    return total / n, pos_idx, neg_idx


def oracle_cross_entropy(logits, labels):
    """Literal mean CE via per-row softmax."""
    logits = np.asarray(logits, dtype=np.float64)
    total = 0.0
    for i, lab in enumerate(labels):
        row = logits[i] - logits[i].max()
        total += -(row[lab] - math.log(float(np.sum(np.exp(row)))))
    return total / logits.shape[0]


def oracle_cmc_map(dist, q_ids, g_ids, q_views, g_views, exclude_same_view=False, max_rank=50):
    """Per-query re-sort + literal AP/CMC definitions.

    Returns (map, cmc over ranks 0..max_rank, per_query_ap, num_skipped).
    cmc[0] is unused padding so cmc[k] is the rank-k value.
    """
    dist = np.asarray(dist, dtype=np.float64)
    nq, ng = dist.shape
    per_query_ap = np.full(nq, np.nan)
    first_rank = []
    skipped = 0
    for qi in range(nq):
        keep = np.ones(ng, dtype=bool)
        if exclude_same_view:
            keep = ~((g_ids == q_ids[qi]) & (g_views == q_views[qi]))
        cand = np.nonzero(keep)[0]
        # sort by (distance, gallery index): explicit deterministic ties
        order = cand[np.lexsort((cand, dist[qi, cand]))]
        matches = g_ids[order] == q_ids[qi]
        r = int(matches.sum())
        if r == 0:
            skipped += 1
            continue
        hits = 0
        ap = 0.0
        for rank0, m in enumerate(matches):
            if m:
                hits += 1
                ap += hits / (rank0 + 1)
        per_query_ap[qi] = ap / r
        first_rank.append(int(np.nonzero(matches)[0][0]) + 1)
    scored = nq - skipped
    assert scored > 0
    cmc = np.zeros(max_rank + 1, dtype=np.float64)
    for fr in first_rank:
        if fr <= max_rank:
            cmc[fr:] += 1.0
    cmc /= scored
    mean_ap = float(np.nanmean(per_query_ap))
    return mean_ap, cmc, per_query_ap, skipped


def argsort_cmc_map(d, q_ids, g_ids, q_views=None, g_views=None, exclude_same_view=False, max_rank=50):
    """Bitwise reference for evalkit.cmc_map: the full stable argsort of
    every row followed by a per-query scan, as cmc_map computed it before
    it ranked only the relevant entries.

    Unlike oracle_cmc_map it sums each query's AP terms with np.sum, so
    its results match cmc_map bit for bit. Returns (map, cmc over ranks
    0..max_rank, per_query_ap, num_skipped); inputs are not validated.
    """
    d = np.asarray(d, dtype=np.float64)
    q_ids = np.asarray(q_ids)
    g_ids = np.asarray(g_ids)
    nq = d.shape[0]
    order = np.argsort(d, axis=1, kind="stable")
    per_query_ap = np.full(nq, np.nan)
    first_match_rank = np.zeros(nq, dtype=np.int64)  # 0 = skipped
    num_skipped = 0
    for i in range(nq):
        ranked = order[i]
        if exclude_same_view:
            junk = (g_ids[ranked] == q_ids[i]) & (g_views[ranked] == q_views[i])
            ranked = ranked[~junk]
        matches = g_ids[ranked] == q_ids[i]
        r = int(matches.sum())
        if r == 0:
            num_skipped += 1
            continue
        cum = np.cumsum(matches)
        hit = np.nonzero(matches)[0]
        per_query_ap[i] = float(np.sum(cum[hit] / (hit + 1.0)) / r)
        first_match_rank[i] = hit[0] + 1
    scored = nq - num_skipped
    assert scored > 0
    hist = np.zeros(max_rank + 1, dtype=np.float64)
    for rank in first_match_rank:
        if 1 <= rank <= max_rank:
            hist[rank] += 1.0
    cmc = np.cumsum(hist) / scored
    cmc[0] = 0.0
    mean_ap = float(np.sum(per_query_ap[np.isfinite(per_query_ap)]) / scored)
    return mean_ap, cmc, per_query_ap, num_skipped


# --------------------------------------------- conditioned FD test cases

# Central differences at h=1e-6 on an O(1) loss carry ~1e-10 of float64
# rounding noise, so coordinates are only checkable when the true
# gradient clears that floor and no ReLU kink or mining tie sits inside
# the stencil. Draws violating that are resampled; structurally inert
# parameters (fusion-stream gammas, which the loss never reads) are
# exempt and must come back exactly zero.
PREACT_MARGIN = 1e-4
GAP_MARGIN = 1e-3
GMIN = 1e-3


def _mining_gaps_ok(z, y):
    d = pairwise_euclidean(z, z)
    n = len(y)
    same = y[:, None] == y[None, :]
    eye = np.eye(n, dtype=bool)
    for a in range(n):
        pos = np.sort(d[a][same[a] & ~eye[a]])[::-1]
        neg = np.sort(d[a][~same[a]])
        if pos.size >= 2 and pos[0] - pos[1] < GAP_MARGIN:
            return False
        if neg.size >= 2 and neg[1] - neg[0] < GAP_MARGIN:
            return False
    return True


def try_draw_fd_case(rng):
    """One random (architecture, batch, strategy) draw, or None if the
    draw fails the conditioning screens."""
    M = int(rng.integers(1, 4))
    strategy = (Strategy.FUSION_AVG, Strategy.FUSION_CONCAT, Strategy.UNICAT)[
        int(rng.integers(0, 3))
    ]
    input_dims = [int(rng.integers(3, 7)) for _ in range(M)]
    hidden = [] if rng.uniform() < 0.4 else [int(rng.integers(4, 9))]
    embed = int(rng.integers(2, 6))
    p, k = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    n = p * k
    names = [f"m{i}" for i in range(M)]
    model = init_model(
        input_dims, names, strategy, p, rng.split("init"),
        hidden_dims=hidden, embed_dim=embed,
    )
    for key, arr in iter_trainables(model):
        arr += 0.05 * rng.split(f"jit:{key}").normal_vec(arr.size).reshape(arr.shape)
    x = [rng.split(f"x{i}").normal(n, d) for i, d in enumerate(input_dims)]
    y = np.repeat(np.arange(p), k)
    cfg = LossConfig(lambda_ce=1.0, margin=0.1)

    outs = [stream_forward(model.streams[i], x[i], train=True) for i in range(M)]
    for s, o in zip(model.streams, outs):
        for h, w, b in zip(o.hiddens, s.weights, s.biases):
            if np.min(np.abs(matmul(h, w.T) + b)) < PREACT_MARGIN:
                return None
    if strategy.is_fusion:
        zf = fuse([o.z for o in outs], inference_fusion_op(strategy))
        if not _mining_gaps_ok(zf, y):
            return None
    else:
        for o in outs:
            if not _mining_gaps_ok(o.z, y):
                return None
    _, grads = batch_gradients(model, x, y, cfg)
    inert = {f"stream{i}.gamma" for i in range(M)} if strategy.is_fusion else set()
    for key, g in grads.items():
        g = np.asarray(g)
        if key in inert:
            assert np.all(g == 0.0)
            continue
        if np.min(np.abs(g)) < GMIN:
            return None
    return model, x, y, cfg


def draw_fd_case(seed, max_attempts=50):
    """Resample until a conditioned case is found."""
    root = Rng(seed)
    for attempt in range(max_attempts):
        case = try_draw_fd_case(root.split(f"case:{attempt}"))
        if case is not None:
            return case
    raise RuntimeError(f"no FD-checkable configuration in {max_attempts} draws (seed {seed})")


def flat_objective(model, x, y, cfg):
    """(f, base_vector, analytic_grad_vector) over all trainables."""
    trainables = iter_trainables(model)
    keys = [k for k, _ in trainables]
    sizes = [a.size for _, a in trainables]
    offs = np.cumsum([0] + sizes)

    def unpack(vec):
        for (_, a), o, s in zip(trainables, offs, sizes):
            a[...] = vec[o : o + s].reshape(a.shape)

    base = np.concatenate([a.ravel() for _, a in trainables])
    _, grads = batch_gradients(model, x, y, cfg)
    gvec = np.concatenate([np.asarray(grads[k]).ravel() for k in keys])

    def f(vec):
        unpack(vec)
        val, _ = batch_gradients(model, x, y, cfg)
        return val

    return f, base, gvec, unpack
