import time
import tracemalloc

import numpy as np
import pytest

from reidlab import evalkit
from reidlab.errors import ConfigError, DataError, NumericError, ShapeError
from reidlab.evalkit import (
    ALL_STRATEGIES,
    SUITE_NAMES,
    cmc_map,
    cosine_distance,
    evaluate,
    report_csv,
    report_markdown,
    run_suite,
    suite_train_config,
    table_csv,
    table_markdown,
    trainset_view,
)
from reidlab.model import FUSED_SELECTOR, embed_dataset
from reidlab.numerics import Rng, matmul
from reidlab.objectives import FusionOperator, Strategy, fuse
from reidlab.pipeline import TrainConfig, train
from reidlab.synthdata import SPLIT_GALLERY, SPLIT_QUERY, MultimodalDataset, SynthConfig, generate

from support import argsort_cmc_map, oracle_cmc_map


def _tiny_ds(seed=0, m=2, sigma=0.2, ids_train=6, ids_test=4, views=4):
    return generate(SynthConfig(
        num_modalities=m, latent_dim=3, obs_dim=6, ids_train=ids_train,
        ids_test=ids_test, views_per_id=views, noise_sigma=sigma,
        view_jitter=0.1, seed=seed,
    ))


def _trained(ds, strategy=Strategy.UNICAT, epochs=3, seed=0):
    cfg = TrainConfig(strategy=strategy, p=3, k=2, lr_base=0.05, momentum=0.9,
                      epochs=epochs, warmup_epochs=1, hidden_dims=(8,),
                      embed_dim=4, seed=seed)
    return train(ds, cfg).model


def _rows_of(f):
    """evaluate's embed over a whole feature matrix: a copy of its rows."""
    return lambda rows: f[rows]


def _score(model, ds, selector=FUSED_SELECTOR):
    return evaluate(ds, lambda rows: embed_dataset(model, ds.take(rows), selector))


# ---------------------------------------------------------- cosine_distance

def test_cosine_distance_hand_cases():
    q = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
    g = np.array([[2.0, 0.0], [-1.0, 0.0]])
    d = cosine_distance(q, g)
    assert d[0, 0] == pytest.approx(0.0, abs=1e-15)  # identical direction
    assert d[1, 0] == pytest.approx(1.0, abs=1e-15)  # orthogonal
    assert d[2, 1] == pytest.approx(2.0, abs=1e-15)  # antipodal
    assert np.all(d >= 0) and np.all(d <= 2)


def test_cosine_distance_scale_invariance_and_errors():
    rng = np.random.default_rng(0)
    q = rng.normal(size=(5, 7))
    g = rng.normal(size=(9, 7))
    scales_q = rng.uniform(0.1, 10, size=(5, 1))
    scales_g = rng.uniform(0.1, 10, size=(9, 1))
    np.testing.assert_allclose(
        cosine_distance(q * scales_q, g * scales_g), cosine_distance(q, g),
        rtol=0, atol=1e-12,
    )
    with pytest.raises(DataError):
        cosine_distance(np.array([[0.0, 0.0]]), g)
    with pytest.raises(ShapeError):
        cosine_distance(q, rng.normal(size=(3, 4)))


def test_cosine_distance_scales_rows_in_blocks_with_whole_matrix_bits():
    # A gallery of several row blocks of _unit_rows, and caller arrays that
    # are float64 and C-contiguous, the layout it could have written into.
    rng = np.random.default_rng(4)
    g = rng.normal(size=(3 * evalkit._RANK_BLOCK_CELLS // 7 + 5, 7))
    q = g[:3].copy()
    g_before, q_before = g.tobytes(), q.tobytes()
    unit = g / np.sqrt(np.sum(g * g, axis=1))[:, None]
    want = evalkit._distances_of_dots(matmul(unit[:3], unit.T))
    assert cosine_distance(q, g).tobytes() == want.tobytes()
    assert g.tobytes() == g_before and q.tobytes() == q_before


# ------------------------------------------------------------------ cmc_map

def test_cmc_map_perfect_single_query():
    d = np.array([[0.1, 0.5, 0.9]])
    rep = cmc_map(d, np.array([1]), np.array([1, 2, 3]))
    assert rep.map == 1.0
    assert rep.rank1 == 1.0
    assert rep.cmc[1] == 1.0
    assert rep.num_skipped_queries == 0


def test_cmc_map_two_matches_ranks_one_and_three():
    d = np.array([[0.1, 0.2, 0.3]])
    rep = cmc_map(d, np.array([7]), np.array([7, 0, 7]))
    assert rep.map == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, rel=1e-15)


def test_cmc_map_tie_breaks_to_lower_gallery_index():
    d = np.array([[0.5, 0.5, 0.5]])
    # all tied: ranking is gallery order, so the id-9 match sits at rank 2
    rep = cmc_map(d, np.array([9]), np.array([3, 9, 4]))
    assert rep.cmc[1] == 0.0 and rep.cmc[2] == 1.0
    assert rep.map == pytest.approx(0.5)


def test_cmc_map_skips_queries_without_relevant_gallery():
    d = np.array([[0.1, 0.2], [0.3, 0.4]])
    rep = cmc_map(d, np.array([1, 99]), np.array([1, 2]))
    assert rep.num_skipped_queries == 1
    assert np.isnan(rep.per_query_ap[1])
    assert rep.map == 1.0  # mean over scored queries only
    with pytest.raises(DataError):
        cmc_map(d, np.array([98, 99]), np.array([1, 2]))


def test_cmc_map_exclude_same_view_drops_junk():
    d = np.array([[0.0, 0.5, 0.9]])
    q_ids, g_ids = np.array([1]), np.array([1, 2, 1])
    q_views, g_views = np.array([0]), np.array([0, 0, 1])
    plain = cmc_map(d, q_ids, g_ids)
    assert plain.map == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, rel=1e-15)
    excl = cmc_map(d, q_ids, g_ids, q_views, g_views, exclude_same_view=True)
    assert excl.map == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(ConfigError):
        cmc_map(d, q_ids, g_ids, exclude_same_view=True)


def test_cmc_map_validation_errors():
    d = np.array([[0.1, 0.2]])
    with pytest.raises(ShapeError):
        cmc_map(d, np.array([1, 2]), np.array([1, 2]))
    with pytest.raises(ConfigError):
        cmc_map(d, np.array([1]), np.array([1, 2]), max_rank=0)


def test_cmc_map_invariants_and_oracle_agreement():
    rng = np.random.default_rng(42)
    for trial in range(8):
        nq, ng = rng.integers(3, 30), rng.integers(10, 120)
        d = rng.uniform(size=(nq, ng))
        if trial % 2:  # force rating ties to exercise the tie rule
            d = np.round(d, 1)
        q_ids = rng.integers(0, 8, size=nq)
        g_ids = rng.integers(0, 8, size=ng)
        q_views = rng.integers(0, 3, size=nq)
        g_views = rng.integers(0, 3, size=ng)
        excl = bool(trial % 3 == 0)
        rep = cmc_map(d, q_ids, g_ids, q_views, g_views,
                      exclude_same_view=excl, max_rank=20)
        omap, ocmc, oap, oskip = oracle_cmc_map(
            d, q_ids, g_ids, q_views, g_views, exclude_same_view=excl, max_rank=20)
        assert rep.map == pytest.approx(omap, abs=1e-12)
        np.testing.assert_allclose(rep.cmc, ocmc, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rep.per_query_ap, oap, rtol=0, atol=1e-12)
        assert rep.num_skipped_queries == oskip
        # structural invariants
        assert np.all(np.diff(rep.cmc) >= 0)
        assert rep.rank1 == rep.cmc[1]
        finite = rep.per_query_ap[np.isfinite(rep.per_query_ap)]
        assert np.all((finite >= 0) & (finite <= 1))


def test_cmc_map_gallery_permutation_invariance():
    rng = np.random.default_rng(7)
    d = rng.uniform(size=(10, 40))  # continuous draws: no ties
    q_ids = rng.integers(0, 5, size=10)
    g_ids = rng.integers(0, 5, size=40)
    base = cmc_map(d, q_ids, g_ids)
    perm = rng.permutation(40)
    shuffled = cmc_map(d[:, perm], q_ids, g_ids[perm])
    assert shuffled.map == pytest.approx(base.map, abs=1e-15)
    np.testing.assert_array_equal(shuffled.cmc, base.cmc)
    np.testing.assert_array_equal(shuffled.per_query_ap, base.per_query_ap)


def test_cmc_map_rejects_misaligned_views():
    d = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
    q_ids, g_ids = np.array([1, 2]), np.array([1, 2, 1])
    q_views, g_views = np.array([0, 1]), np.array([1, 0, 1])
    with pytest.raises(ShapeError):  # a longer g_views was silently cut
        cmc_map(d, q_ids, g_ids, q_views, np.array([1, 0, 1, 0]), exclude_same_view=True)
    with pytest.raises(ShapeError):  # a shorter q_views ended in IndexError
        cmc_map(d, q_ids, g_ids, np.array([0]), g_views, exclude_same_view=True)
    # without exclude_same_view the views are never read
    cmc_map(d, q_ids, g_ids, np.array([0]), g_views)


def _assert_matches_argsort_reference(d, q_ids, g_ids, q_views, g_views, excl, max_rank):
    """cmc_map must equal the full-argsort scan bit for bit, or raise
    DataError where every query is skipped."""
    try:
        ref_map, ref_cmc, ref_ap, ref_skipped = argsort_cmc_map(
            d, q_ids, g_ids, q_views, g_views, excl, max_rank)
    except AssertionError:
        with pytest.raises(DataError):
            cmc_map(d, q_ids, g_ids, q_views, g_views, excl, max_rank)
        return None
    rep = cmc_map(d, q_ids, g_ids, q_views, g_views, excl, max_rank)
    assert np.float64(rep.map).tobytes() == np.float64(ref_map).tobytes()
    assert rep.cmc.tobytes() == ref_cmc.tobytes()
    assert rep.per_query_ap.tobytes() == ref_ap.tobytes()
    assert rep.num_skipped_queries == ref_skipped
    assert rep.rank1 == rep.cmc[1]
    return rep


def _near_set_kinds(d, q_ids, g_ids, q_views, g_views, excl):
    """The near-set boundary cases that the rows of d meet, found row by
    row. A query's near set is its kept non-relevant entries at or below
    its farthest relevant distance; cmc_map sorts only those. d is one
    block here."""
    kinds = set()
    for i in range(d.shape[0]):
        same = g_ids == q_ids[i]
        junk = same & (g_views == q_views[i]) if excl else np.zeros_like(same)
        rel = same & ~junk
        if not rel.any():
            continue
        far = d[i, rel].max()
        kept = ~same
        near = kept & (d[i] <= far)
        if same.all():
            kinds.add("whole gallery same id")
        if np.any(d[i, kept] == far):
            kinds.add("kept at far")
        if junk.any() and d[i, junk].max() < d[i, rel].min():
            kinds.add("junk nearer than relevant")
        if kept.any() and np.all(near[kept]):
            kinds.add("all kept near")
        if kept.any() and not near.any():
            kinds.add("no kept near")
    if {"all kept near", "no kept near"} <= kinds:
        kinds.add("all and no kept near in one block")
    return kinds


def test_cmc_map_bitwise_equal_to_argsort_reference():
    rng = np.random.default_rng(2024)
    seen = dict.fromkeys(
        ["ties", "signed_zeros", "negative", "excl", "skipped", "all_relevant",
         "first_match_past_max_rank", "single_query", "single_gallery",
         "whole gallery same id", "kept at far", "junk nearer than relevant",
         "all kept near", "no kept near", "all and no kept near in one block"], 0)
    for trial in range(400):
        nq = 1 if trial % 11 == 0 else int(rng.integers(1, 25))
        ng = 1 if trial % 13 == 0 else int(rng.integers(1, 60))
        d = rng.normal(size=(nq, ng))
        if trial % 3:  # rounded distances: ties within and across ids
            d = np.round(d, int(rng.integers(0, 2)))
        zeros = d == 0
        if trial % 4 == 1 and zeros.any():
            d[zeros] = np.where(rng.uniform(size=zeros.sum()) < 0.5, -0.0, 0.0)
        num_ids = 1 if trial % 7 == 0 else int(rng.integers(1, 6))  # 1: r = ng
        q_ids = rng.integers(0, num_ids, size=nq)
        g_ids = rng.integers(0, num_ids, size=ng)
        q_views = rng.integers(0, 3, size=nq)
        g_views = rng.integers(0, 3, size=ng)
        excl = bool(trial % 2)
        max_rank = int(rng.integers(1, ng + 5))
        rep = _assert_matches_argsort_reference(d, q_ids, g_ids, q_views, g_views, excl, max_rank)
        if rep is None:
            continue
        seen["ties"] += int(np.unique(d).size < d.size)
        seen["signed_zeros"] += int(np.any(np.signbit(d[zeros])) and not np.all(np.signbit(d[zeros])))
        seen["negative"] += int(np.any(d < 0))
        seen["excl"] += int(excl)
        seen["skipped"] += int(rep.num_skipped_queries > 0)
        seen["all_relevant"] += int(not excl and np.all(g_ids == q_ids[0]) and np.all(q_ids == q_ids[0]))
        seen["first_match_past_max_rank"] += int(rep.cmc[-1] < 1.0)
        seen["single_query"] += int(nq == 1)
        seen["single_gallery"] += int(ng == 1)
        for kind in _near_set_kinds(d, q_ids, g_ids, q_views, g_views, excl):
            seen[kind] += 1
    assert all(count >= 3 for count in seen.values()), seen


def test_cmc_map_row_blocks_match_reference(monkeypatch):
    rng = np.random.default_rng(5)
    nq, ng = 23, 40
    d = np.round(rng.uniform(size=(nq, ng)), 1)
    q_ids, g_ids = rng.integers(0, 4, size=nq), rng.integers(0, 4, size=ng)
    q_views, g_views = rng.integers(0, 3, size=nq), rng.integers(0, 3, size=ng)
    # 3 rows per block: seven full blocks and a partial last one
    monkeypatch.setattr(evalkit, "_RANK_BLOCK_CELLS", 3 * ng + 1)
    for excl in (False, True):
        _assert_matches_argsort_reference(d, q_ids, g_ids, q_views, g_views, excl, 10)


def test_cmc_map_one_block_mixes_counts_skips_and_tied_rows(monkeypatch):
    rng = np.random.default_rng(8)
    # Gallery ids 0..3 hold 1, 3, 6 and 10 entries; id 9 has none.
    g_ids = rng.permutation(np.repeat(np.arange(4), [1, 3, 6, 10]))
    q_ids = np.array([0, 1, 2, 3, 9, 2, 0, 9, 3, 1, 3, 2])
    nq, ng = q_ids.size, g_ids.size
    g_views, q_views = rng.integers(0, 2, size=ng), rng.integers(0, 2, size=nq)
    d = rng.uniform(size=(nq, ng))
    d[::2] = np.round(d[::2], 1)  # every other row ties across ids
    monkeypatch.setattr(evalkit, "_RANK_BLOCK_CELLS", nq * ng)  # one block
    tied_rows = []
    real_stable_ranks = evalkit._stable_ranks
    monkeypatch.setattr(evalkit, "_stable_ranks",
                        lambda *args: tied_rows.append(1) or real_stable_ranks(*args))
    for excl in (False, True):
        tied_rows.clear()
        rep = _assert_matches_argsort_reference(d, q_ids, g_ids, q_views, g_views, excl, 5)
        assert rep.num_skipped_queries >= 2
        assert 0 < len(tied_rows) < nq - rep.num_skipped_queries


def _gallery_1000x4000(seed):
    rng = np.random.default_rng(seed)
    d = rng.uniform(size=(1000, 4000))
    q_ids, g_ids = np.repeat(np.arange(500), 2), np.repeat(np.arange(500), 8)
    return d, q_ids, g_ids


def test_cmc_map_memory_bounded_below_distance_matrix():
    d, q_ids, g_ids = _gallery_1000x4000(11)
    assert d.shape[0] > evalkit._RANK_BLOCK_CELLS // d.shape[1]  # several blocks
    tracemalloc.start()
    try:
        rep = cmc_map(d, q_ids, g_ids)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < d.nbytes, (peak, d.nbytes)
    ref_map, ref_cmc, ref_ap, _ = argsort_cmc_map(d, q_ids, g_ids)
    assert rep.map == ref_map
    assert rep.cmc.tobytes() == ref_cmc.tobytes()
    assert rep.per_query_ap.tobytes() == ref_ap.tobytes()


def test_cmc_map_single_identity_not_slower_than_full_argsort():
    d, _, _ = _gallery_1000x4000(12)
    cases = [
        # r = ng: every gallery entry is relevant to every query
        (d, np.zeros(1000, dtype=np.int64), np.zeros(4000, dtype=np.int64)),
        # two identities, distances rounded: every relevant entry ties
        # exactly with about 20 non-relevant ones
        (np.round(d, 2), np.repeat(np.arange(2), 500), np.repeat(np.arange(2), 2000)),
    ]

    def best_of_each(case, repeats=5):
        # Alternating the two keeps a busy spell of the host from landing
        # on one side only.
        times = {cmc_map: [], argsort_cmc_map: []}
        for _ in range(repeats):
            for fn, spent in times.items():
                t0 = time.perf_counter()
                fn(*case)
                spent.append(time.perf_counter() - t0)
        return min(times[cmc_map]), min(times[argsort_cmc_map])

    for case in cases:
        ours, full_argsort = best_of_each(case)
        assert ours <= 2.0 * full_argsort


# ----------------------------------------------------------------- evaluate

def _report_bytes(run, q_ids):
    """What the report run() returns writes (report_csv, CMC bytes, skipped
    count), or the type and message of the error it raised."""
    try:
        rep = run()
    except (ConfigError, DataError, NumericError) as exc:
        return type(exc), str(exc)
    return report_csv(rep, q_ids), rep.cmc.tobytes(), rep.num_skipped_queries


def _retrieval_ds(f, ids, views, is_query):
    """A one-modality dataset of the rows of f: query where is_query, else
    gallery. It is not validated: a query id may be absent from the gallery."""
    split = np.where(is_query, SPLIT_QUERY, SPLIT_GALLERY).astype(np.int8)
    return MultimodalDataset([f], ids, views, split, ["m0"])


def _exact_report_bytes(ds, f, excl=False, max_rank=50):
    """The bytes of the full exact distance matrix ranked by cmc_map."""
    q, g = ds.query_rows, ds.gallery_rows
    return _report_bytes(lambda: cmc_map(
        cosine_distance(f[q], f[g]), ds.ids[q], ds.ids[g], ds.view_ids[q], ds.view_ids[g],
        excl, max_rank), ds.ids[q])


def _evaluate_report_bytes(ds, f, excl=False, max_rank=50):
    return _report_bytes(lambda: evaluate(ds, _rows_of(f), excl, max_rank), ds.ids[ds.query_rows])


def _adversarial_sets(rng, case):
    """A query/gallery dataset and its features, whose rows copy, rescale or
    nudge by one ulp earlier rows, so that distances tie or nearly tie
    across identities. Returns (dataset, features, kinds of rows made)."""
    dim = 1 if case % 10 == 0 else int(rng.integers(2, 9))
    nq = 1 if case % 11 == 0 else int(rng.integers(1, 16))
    ng = 1 if case % 13 == 0 else int(rng.integers(1, 40))
    kinds = set()
    f = rng.normal(size=(nq + ng, dim))
    if case % 3 == 0:
        f = np.round(f, int(rng.integers(0, 2)))
        kinds.add("rounded")
    for j in range(1, nq + ng):
        src = f[rng.integers(0, j)]
        kind = ("duplicate", "scaled", "ulp", "independent")[rng.integers(0, 4)]
        if kind == "duplicate":
            f[j] = src
        elif kind == "scaled":
            f[j] = src * rng.choice([2.0, 3.7, 1e-3])
        elif kind == "ulp":
            f[j] = src
            t = rng.integers(0, dim)
            f[j, t] = np.nextafter(src[t], rng.choice([-np.inf, np.inf]))
        if kind != "independent":
            kinds.add(kind)
    f[np.all(f == 0, axis=1), 0] = 1.0
    if case % 4 == 1:
        for scale in (1e-160, 1e150):
            rows = rng.uniform(size=nq + ng) < 0.3
            f[rows] *= scale
            kinds.add(f"scale {scale:g}")
    f = f[rng.permutation(nq + ng)]
    num_ids = int(rng.integers(1, 5))
    ids = rng.integers(0, num_ids, size=nq + ng)
    views = rng.integers(0, 3, size=nq + ng)
    return _retrieval_ds(f, ids, views, np.arange(nq + ng) < nq), f, kinds


def test_evaluate_bytes_equal_exact_matrix_ranking(monkeypatch, matmul_kernel):
    # Rows whose relevant entries tie with non-relevant ones are ranked by
    # the stable sort.
    tied_calls = []
    real_stable_ranks = evalkit._stable_ranks
    monkeypatch.setattr(evalkit, "_stable_ranks",
                        lambda *args: tied_calls.append(1) or real_stable_ranks(*args))
    rng = np.random.default_rng(31)
    seen = dict.fromkeys(
        ["duplicate", "scaled", "ulp", "rounded", "scale 1e-160", "scale 1e+150", "dim 1",
         "single query", "single gallery", "excl", "skipped", "max_rank > ng", "tied",
         "reports"], 0)
    for case in range(320):
        ds, f, kinds = _adversarial_sets(rng, case)
        nq, ng = ds.query_rows.size, ds.gallery_rows.size
        excl = bool(case % 2)
        max_rank = int(rng.integers(1, ng + 5))
        want = _exact_report_bytes(ds, f, excl, max_rank)
        tied_calls.clear()
        assert _evaluate_report_bytes(ds, f, excl, max_rank) == want, case
        for kind in kinds:
            seen[kind] += 1
        seen["dim 1"] += int(f.shape[1] == 1)
        seen["single query"] += int(nq == 1)
        seen["single gallery"] += int(ng == 1)
        seen["excl"] += int(excl)
        seen["max_rank > ng"] += int(max_rank > ng)
        seen["tied"] += int(len(tied_calls) > 0)
        if isinstance(want[0], str):
            seen["reports"] += 1
            seen["skipped"] += int(want[2] > 0)
    assert all(count >= 3 for count in seen.values()), seen
    assert seen["reports"] >= 200, seen


def _gallery_sets_1000x4000(seed, dim=32):
    rng = np.random.default_rng(seed)
    centres = rng.normal(size=(500, dim))
    ids = np.repeat(np.arange(500), 10)
    f = centres[ids] + 0.7 * rng.normal(size=(ids.size, dim))
    is_query = np.tile(np.arange(10) < 2, 500)
    views = np.tile(np.arange(10), 500)
    return _retrieval_ds(f, ids, views, is_query), f


def test_evaluate_memory_bounded_below_distance_matrix():
    # Besides the unit rows, evaluate holds two block-sized float64 arrays
    # at once, a block's product and its row-major copy; then the copy, its
    # near mask (one byte a cell) and its near set's positions and
    # distances, which are small at this data's near-set sizes. A third
    # array's room holds the ids, the per-query results and the small
    # per-block arrays.
    block_bytes = 8 * evalkit._RANK_BLOCK_CELLS
    for dim in (32, 96):  # eval-gallery's per-file and fused widths
        ds, f = _gallery_sets_1000x4000(3, dim)
        matrix_bytes = 8 * ds.query_rows.size * ds.gallery_rows.size
        unit_bytes = 8 * dim * (ds.query_rows.size + ds.gallery_rows.size)
        tracemalloc.start()
        try:
            rep = evaluate(ds, _rows_of(f))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < min(matrix_bytes, unit_bytes + 3 * block_bytes), (dim, peak, unit_bytes)
        assert _report_bytes(lambda: rep, ds.ids[ds.query_rows]) == _exact_report_bytes(ds, f)


def _fused_gallery_streams(seed):
    """eval-gallery's shapes: three float32 streams of 500 ids x 10 views at
    dim 32 and rising noise, two views of each id as query, and the embed
    that `eval --external` passes evaluate for their normalized concat."""
    ds, _ = _gallery_sets_1000x4000(seed)
    rng = np.random.default_rng(seed)
    centres = rng.normal(size=(500, 32))
    streams = [(centres[ds.ids] + noise * rng.normal(size=(ds.num_samples, 32))).astype(np.float32)
               for noise in (0.02, 0.7, 1.2)]
    ds = MultimodalDataset(streams, ds.ids, ds.view_ids, ds.split, ["planted", "mid", "high"])

    def embed(rows):
        return fuse([f[rows] for f in streams], FusionOperator.CONCAT, normalize_first=True)

    return ds, embed


def _traced_peak(run):
    tracemalloc.start()
    try:
        out = run()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fused_evaluate_holds_no_whole_fused_matrix():
    # The fused path embeds the gallery rows, then the query rows, and
    # scales each part in place: its peak is that of ranking unit rows,
    # with no fused matrix of every row beside them. Fusing every row first
    # and handing evaluate copies of its rows holds both.
    ds, embed = _fused_gallery_streams(5)
    nq, ng = ds.query_rows.size, ds.gallery_rows.size
    unit_bytes = 8 * 96 * (nq + ng)
    _, peak = _traced_peak(lambda: evaluate(ds, embed))
    assert peak < unit_bytes + 3 * 8 * evalkit._RANK_BLOCK_CELLS, (peak, unit_bytes)

    def whole_matrix():
        fused = embed(np.arange(ds.num_samples))
        return evaluate(ds, lambda rows: fused[rows])

    _, whole_peak = _traced_peak(whole_matrix)
    assert peak < whole_peak - 8 * 96 * ng, (peak, whole_peak)


def test_fused_evaluate_bytes_equal_exact_matrix_ranking():
    ds, embed = _fused_gallery_streams(6)
    fused = embed(np.arange(ds.num_samples))
    calls = []

    def traced(rows):
        calls.append(rows)
        return embed(rows)

    got = _report_bytes(lambda: evaluate(ds, traced), ds.ids[ds.query_rows])
    assert got == _exact_report_bytes(ds, fused)
    assert [c.tolist() for c in calls] == [ds.gallery_rows.tolist(), ds.query_rows.tolist()]


def test_cmc_map_checks_finiteness_a_block_at_a_time():
    # A mask of the whole 1000 x 4000 matrix would take 4 MB; the ranking
    # itself holds a few block-sized arrays at this data's near-set sizes.
    ds, f = _gallery_sets_1000x4000(3)
    q, g = ds.query_rows, ds.gallery_rows
    d = cosine_distance(f[q], f[g])
    tracemalloc.start()
    try:
        rep = cmc_map(d, ds.ids[q], ds.ids[g])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * evalkit._RANK_BLOCK_CELLS, peak
    assert _report_bytes(lambda: rep, ds.ids[q]) == _exact_report_bytes(ds, f)
    # Every row is checked: the last one, and one in a first block of
    # queries without relevant entries, which the ranking never reads.
    q_ids = ds.ids[q].copy()
    q_ids[: evalkit._RANK_BLOCK_CELLS // g.size] = -1
    for row in (0, -1):
        bad = d.copy()
        bad[row, 7] = np.nan
        with pytest.raises(NumericError, match="^distance matrix contains non-finite entries$"):
            cmc_map(bad, q_ids, ds.ids[g])


@pytest.mark.parametrize("side", ["query", "gallery"])
@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0])
def test_evaluate_rejects_bad_features_as_exact_path(side, value):
    ds, f, _ = _adversarial_sets(np.random.default_rng(2), 7)
    bad_row = (ds.query_rows if side == "query" else ds.gallery_rows)[-1]
    if value == 0.0:
        f[bad_row] = 0.0
        want = (DataError, f"{side} embeddings contain a zero-norm row; cosine undefined")
    else:
        f[bad_row, 0] = value
        want = (NumericError, "distance matrix contains non-finite entries")
    with np.errstate(invalid="ignore"):
        assert _exact_report_bytes(ds, f) == want
        assert _evaluate_report_bytes(ds, f) == want


# ------------------------------------------------------- model-based evals

def test_embed_dataset_rows_and_zero_norm_guard():
    # One embed_dataset call over query and gallery rows gives the bits of
    # one call per split: every eval-mode kernel is row-independent.
    ds = _tiny_ds()
    for strategy in ALL_STRATEGIES:
        model = _trained(ds, strategy)
        for selector in (0, 1, FUSED_SELECTOR):
            both = embed_dataset(model, ds, selector)
            for rows in (ds.query_rows, ds.gallery_rows):
                alone = embed_dataset(model, ds.take(rows), selector)
                assert both[rows].tobytes() == alone.tobytes(), (strategy, selector)
    with pytest.raises(DataError, match="query embeddings contain a zero-norm row"):
        cosine_distance(np.zeros((2, 3)), np.ones((2, 3)))
    with pytest.raises(ShapeError):
        evaluate(ds, lambda rows: both[rows][:-1])


def test_unicat_fused_similarity_is_mean_of_stream_similarities():
    ds = _tiny_ds(m=3)
    model = _trained(ds, Strategy.UNICAT, epochs=2)
    q, g = ds.query_rows, ds.gallery_rows
    fused = embed_dataset(model, ds, FUSED_SELECTOR)  # normalized concat
    d_fused = cosine_distance(fused[q], fused[g])
    sims = []
    for i in range(3):
        f = embed_dataset(model, ds, i)
        sims.append(1.0 - cosine_distance(f[q], f[g]))
    np.testing.assert_allclose(
        1.0 - d_fused, sum(sims) / 3.0, rtol=0, atol=1e-12)


def test_eval_multimodal_single_stream_degenerates_to_unimodal():
    ds = _tiny_ds(m=1)
    model = _trained(ds, Strategy.UNICAT, epochs=2)
    multi = _score(model, ds)
    uni = _score(model, ds, 0)
    assert multi.map == uni.map
    np.testing.assert_array_equal(multi.cmc, uni.cmc)


def test_training_beats_untrained_features():
    ds = _tiny_ds(sigma=0.3, ids_train=8, ids_test=6, views=6)
    trained_map = _score(_trained(ds, epochs=25), ds).map
    # epochs=1 at lr ~ 0: parameters stay at initialization
    fresh_cfg = TrainConfig(strategy=Strategy.UNICAT, p=3, k=2, lr_base=1e-12,
                            momentum=0.0, epochs=1, warmup_epochs=0,
                            hidden_dims=(8,), embed_dim=4, seed=0)
    untrained_map = _score(train(ds, fresh_cfg).model, ds).map
    assert trained_map > untrained_map


def test_eval_trainset_perfect_when_noiseless():
    ds = generate(SynthConfig(
        num_modalities=2, latent_dim=3, obs_dim=6, ids_train=6, ids_test=4,
        views_per_id=4, noise_sigma=0.0, view_jitter=0.0, seed=0,
    ))
    model = _trained(ds, epochs=2)
    rep = _score(model, trainset_view(ds), 0)
    assert rep.map == 1.0  # all views of an id are identical
    assert rep.rank1 == 1.0


def test_trainset_view_protocol_and_determinism():
    ds = _tiny_ds(ids_train=8, views=4)
    tv = trainset_view(ds)
    assert tv.num_samples == ds.train_rows.size
    assert set(tv.ids.tolist()) == set(ds.ids[ds.train_rows].tolist())
    assert tv.train_rows.size == 0
    for tid in np.unique(tv.ids):
        mask = tv.ids == tid
        assert (tv.split[mask] == 1).sum() == 1  # 4 views -> 1 query
    again = trainset_view(ds)
    assert np.array_equal(tv.split, again.split)
    other = trainset_view(ds, seed=5)
    assert not np.array_equal(tv.split, other.split)


def test_evaluate_runs_validation():
    ds = _tiny_ds()
    model = _trained(ds)
    f = embed_dataset(model, ds, 0)
    with pytest.raises(DataError, match="zero-norm"):
        evaluate(ds, _rows_of(np.zeros_like(f)))
    with pytest.raises(DataError, match="empty query or gallery split"):
        evaluate(ds.take(ds.train_rows), _rows_of(f[ds.train_rows]))
    with pytest.raises(ShapeError):
        evaluate(ds, _rows_of(f[:, 0]))
    with pytest.raises(ShapeError, match="feature dims differ: query 3 vs gallery 4"):
        evaluate(ds, lambda rows: f[rows] if rows.size == ds.gallery_rows.size else f[rows, :3])
    # Train rows are not read: a non-finite one changes nothing.
    g = f.copy()
    g[ds.train_rows] = np.nan
    assert report_csv(evaluate(ds, _rows_of(g))) == report_csv(evaluate(ds, _rows_of(f)))


# -------------------------------------------------------------------- suite

def test_suite_train_config_recipe():
    cfg = suite_train_config(Strategy.FUSION_AVG, seed=3)
    assert (cfg.p, cfg.k, cfg.lr_base, cfg.momentum) == (8, 4, 0.05, 0.9)
    assert cfg.epochs == 60 and cfg.warmup_epochs == 6
    assert cfg.hidden_dims == (64,) and cfg.embed_dim == 32
    assert cfg.seed == 3
    short = suite_train_config(Strategy.UNICAT, 0, epochs=4)
    assert short.epochs == 4 and short.warmup_epochs == 2


def test_run_suite_single_seed_structure():
    res = run_suite("ensemble", seeds=[0], epochs=2)
    assert res.suite == "ensemble"
    strategies = {s.value for s in ALL_STRATEGIES}
    assert set(res.table.strategies()) == strategies
    assert "multimodal" in res.table.targets()
    for cell in res.table.cells.values():
        assert cell.map_std == 0.0  # single seed
        assert cell.rank1_std == 0.0
    assert len(res.claims) == 1
    claim = res.claims[0]
    assert claim.num_seeds == 1 and claim.required == 1
    assert claim.line().startswith(("PASS", "FAIL"))
    # raw is keyed (seed, strategy, target) with (map, rank1) pairs
    for (seed, s, t), (m, r1) in res.raw.items():
        assert seed == 0 and s in strategies
        assert 0 <= m <= 1 and 0 <= r1 <= 1


def test_run_suite_raw_does_not_depend_on_jobs():
    one = run_suite("ensemble", seeds=[0, 1], epochs=2, jobs=1)
    two = run_suite("ensemble", seeds=[0, 1], epochs=2, jobs=2)
    assert list(two.raw.items()) == list(one.raw.items())
    assert list(two.table.cells.items()) == list(one.table.cells.items())
    assert two.claims == one.claims


def test_suite_share_makes_each_seeds_dataset_and_plan_once(monkeypatch):
    real_generate, real_plan, real_train = evalkit.generate, evalkit.batch_plan, evalkit.train
    generated, plans, trained = [], [], []
    monkeypatch.setattr(evalkit, "generate", lambda cfg: generated.append(cfg.seed) or real_generate(cfg))
    monkeypatch.setattr(evalkit, "batch_plan", lambda ds, cfg: plans.append(real_plan(ds, cfg)) or plans[-1])
    monkeypatch.setattr(evalkit, "train",
                        lambda ds, cfg, plan: trained.append((cfg.seed, plan)) or real_train(ds, cfg, plan))
    cells = list(enumerate((seed, s) for seed in (0, 1) for s in ALL_STRATEGIES))
    done, failure = evalkit._suite_share("ensemble", 1, cells)
    assert failure is None and len(done) == 6
    assert generated == [0, 1] and len(plans) == 2
    assert [seed for seed, _ in trained] == [0, 0, 0, 1, 1, 1]
    assert all(plan is plans[seed] for seed, plan in trained)


UNI, FAVG, FCAT = (s.value for s in ALL_STRATEGIES)

# Each suite's target names, in the order its cells emit them.
SUITE_TARGETS = {
    "laziness-clean": ("mod0", "mod1", "mod2", "multimodal"),
    "weak-link": ("mod0", "mod1", "mod2", "multimodal"),
    "ensemble": ("mod0.copy0", "mod0.copy1", "multimodal"),
    "train-vs-test": ("mod0/test", "mod0/train", "mod1/test", "mod1/train",
                      "mod2/test", "mod2/train", "multimodal/test"),
}


def _suite_raw(suite, maps, seeds=5, base=0.5):
    """raw for a suite: every (seed, strategy, target) mAP is base, except
    maps[(strategy, target)], a value or a list of one value per seed."""
    raw = {}
    for seed in range(seeds):
        for s in (UNI, FAVG, FCAT):
            for t in SUITE_TARGETS[suite]:
                m = maps.get((s, t), base)
                raw[(seed, s, t)] = (m[seed] if isinstance(m, list) else m, 0.25)
    return raw


def _claims_of(suite, raw):
    seeds = tuple(dict.fromkeys(seed for seed, _, _ in raw))
    streams = ("mod0.copy0", "mod0.copy1") if suite == "ensemble" else ("mod0", "mod1", "mod2")
    return evalkit._check_claims(evalkit.SUITES[suite], seeds, raw, streams)


def _per_stream_wins(suite, suffix=""):
    """Unicat strictly above both fusions on every stream, every seed."""
    return {(UNI, f"mod{i}{suffix}"): 0.6 for i in range(3)}


def test_suite_claims_names_and_order():
    names = {suite: [c.name for c in _claims_of(suite, _suite_raw(suite, {}))] for suite in SUITE_TARGETS}
    assert names == {
        "laziness-clean": ["unicat-per-stream-test-map-beats-both-fusions",
                           "unicat-multimodal-beats-its-best-unimodal"],
        "weak-link": ["fusion-concat-weak-stream-beats-unicat"],
        "ensemble": ["independent-ensemble-at-least-joint"],
        "train-vs-test": ["fusion-trainset-per-stream-map-below-unicat",
                          "unicat-per-stream-test-map-beats-both-fusions"],
    }


def test_suite_claims_on_exact_ties():
    # Every mAP equal: the ensemble's >= holds on every seed, every > claim on none.
    for suite in SUITE_TARGETS:
        for c in _claims_of(suite, _suite_raw(suite, {})):
            assert c.successes == (5 if suite == "ensemble" else 0), (suite, c.name)
    # One tie inside otherwise strict wins fails just its seed.
    tie = [0.6, 0.6, 0.5, 0.6, 0.6]  # seed 2 ties the fusions' 0.5
    maps = _per_stream_wins("laziness-clean") | {(UNI, "mod1"): tie}
    lazy = _claims_of("laziness-clean", _suite_raw("laziness-clean", maps))
    assert lazy[0].per_seed == (True, True, False, True, True)
    for split in ("/train", "/test"):
        maps = _per_stream_wins("train-vs-test", "/train") | _per_stream_wins("train-vs-test", "/test")
        maps[(UNI, f"mod2{split}")] = tie
        per_seed = [c.per_seed for c in _claims_of("train-vs-test", _suite_raw("train-vs-test", maps))]
        want = [(True, True, False, True, True), (True,) * 5]
        assert per_seed == (want if split == "/train" else want[::-1])
    maps = {(UNI, "multimodal"): 0.6, (FAVG, "multimodal"): [0.6, 0.5, 0.5, 0.7, 0.5]}
    assert _claims_of("ensemble", _suite_raw("ensemble", maps))[0].per_seed == (True, True, True, False, True)


def test_weak_link_claim_reads_only_the_weak_stream():
    others = ("mod0", "mod1", "multimodal")
    wins = {(FCAT, "mod2"): 0.6} | {(UNI, t): 0.6 for t in others}
    losses = {(UNI, "mod2"): 0.6} | {(FCAT, t): 0.6 for t in others}
    assert _claims_of("weak-link", _suite_raw("weak-link", wins))[0].successes == 5
    assert _claims_of("weak-link", _suite_raw("weak-link", losses))[0].successes == 0


def test_multimodal_must_beat_every_stream_strictly():
    maps = {(UNI, "multimodal"): 0.7, (UNI, "mod0"): 0.6, (UNI, "mod1"): 0.65}
    assert _claims_of("laziness-clean", _suite_raw("laziness-clean", maps))[1].successes == 5
    maps[(UNI, "mod2")] = 0.7  # one stream ties the fused embedding
    assert _claims_of("laziness-clean", _suite_raw("laziness-clean", maps))[1].successes == 0


def test_claim_passes_at_four_of_five_seeds_and_fails_at_three():
    lines = []
    for margins in ([1, 1, 1, 1, 0], [1, 0, 1, 0, 1]):
        maps = {(FCAT, "mod2"): [0.5 + 0.1 * m for m in margins]}
        (claim,) = _claims_of("weak-link", _suite_raw("weak-link", maps))
        lines.append(claim.line())
    assert lines == [
        "PASS fusion-concat-weak-stream-beats-unicat (4/5 seeds, need >= 4)",
        "FAIL fusion-concat-weak-stream-beats-unicat (3/5 seeds, need >= 4)",
    ]


def test_run_suite_validation():
    with pytest.raises(ConfigError):
        run_suite("nope", seeds=[0])
    with pytest.raises(ConfigError):
        run_suite("ensemble", seeds=[])
    with pytest.raises(ConfigError):
        run_suite("ensemble", seeds=[0], jobs=0)
    assert set(SUITE_NAMES) == {"laziness-clean", "weak-link", "ensemble", "train-vs-test"}


# ------------------------------------------------------------------ exports

def test_report_and_table_exports():
    d = np.array([[0.1, 0.2], [0.3, 0.4]])
    rep = cmc_map(d, np.array([1, 99]), np.array([1, 2]), max_rank=5)
    csv = report_csv(rep, q_ids=np.array([1, 99]))
    lines = csv.strip().split("\n")
    assert lines[0] == "row_type,query_index,query_id,ap"
    assert lines[1].startswith("summary,,,")
    assert any(line.endswith("skipped") for line in lines)
    md = report_markdown(rep, "demo", max_rank_shown=3)
    assert md.startswith("## demo")
    assert "| mAP |" in md and "| Rank-3 |" in md

    res = run_suite("ensemble", seeds=[0], epochs=2)
    tcsv = table_csv(res.table)
    header, *rows = tcsv.strip().split("\n")
    assert header == "strategy,target,map_mean,map_std,rank1_mean,rank1_std,num_seeds"
    assert len(rows) == len(res.table.cells)
    tmd = table_markdown(res.table)
    assert tmd.startswith("# suite: ensemble")
    assert "| unicat |" in tmd or "| unicat " in tmd
