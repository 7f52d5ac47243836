"""Retrieval evaluation and the packaged experiment suites.

Metrics follow the standard single-shot protocol: cosine distance,
CMC curve, Rank-1, and mAP with AP = (1/R) * sum over match ranks k of
(matches at or before k) / k. Ranking ties break toward the lower
gallery index. Queries with no relevant gallery entry are skipped and
counted, not errors.

Suites train all three strategies over several seeds on committed
presets and check the directional claims: per-stream laziness on clean
data, weak-modality rescue under concat fusion, the independent-vs-joint
ensemble direction, and train-vs-test laziness diagnostics. Each suite
is one SuiteSpec row of SUITES, and each claim a list of comparisons.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, DataError, NumericError, ShapeError
from .model import FUSED_SELECTOR, embed_dataset
from .numerics import Matrix, Rng, as_matrix, matmul, scale_rows_to_unit
from .objectives import Strategy
from .pipeline import TrainConfig, batch_plan, train
from .synthdata import (
    SPLIT_GALLERY,
    SPLIT_TRAIN,
    MultimodalDataset,
    SynthConfig,
    WEAK_STREAM,
    clean_preset,
    ensemble_base_preset,
    generate,
    replicate_modality,
    split_query_gallery,
    weak_link_preset,
)

ALL_STRATEGIES = (Strategy.UNICAT, Strategy.FUSION_AVG, Strategy.FUSION_CONCAT)


@dataclass
class RetrievalReport:
    """cmc is indexed by rank: cmc[k] is the rank-k match rate for
    k in 1..max_rank; cmc[0] is unused and fixed at 0. per_query_ap
    holds NaN at skipped queries (no relevant gallery entries)."""

    map: float
    cmc: np.ndarray
    rank1: float
    per_query_ap: np.ndarray
    num_skipped_queries: int


# Queries are ranked a block of rows at a time; the block's (rows x gallery)
# arrays hold at most this many cells each (512 KiB of float64): its
# distances, its near mask (one byte a cell), and its near set's positions
# and distances (at most one entry a cell each). 2^18 cells added about
# 2 MB to the peak RSS of a repro run, and was no faster on 1000 x 4000.
_RANK_BLOCK_CELLS = 1 << 16


def _unit_rows(f: Matrix, name: str) -> Matrix:
    """Scale the rows of f, a C-contiguous float64 matrix that the caller
    owns, to unit length in place, and return it: the operands of every
    cosine distance. A NaN or inf feature is kept: it makes its row's
    distances NaN, which cmc_map rejects."""
    return scale_rows_to_unit(f, f"{name} embeddings contain a zero-norm row; cosine undefined")


def _distances_of_dots(d: Matrix) -> Matrix:
    """Cosine distances clip(1 - d, 0, 2) of the unit-row dot products d,
    computed in place."""
    np.subtract(1.0, d, out=d)
    return np.clip(d, 0.0, 2.0, out=d)


def cosine_distance(q, g) -> Matrix:
    """D[i, j] = 1 - <q_i, g_j> / (||q_i|| ||g_j||), clipped to [0, 2]."""
    qf = as_matrix(q, "query embeddings", check_finite=False)
    gf = as_matrix(g, "gallery embeddings", check_finite=False)
    if qf.shape[1] != gf.shape[1]:
        raise ShapeError(f"feature dims differ: query {qf.shape[1]} vs gallery {gf.shape[1]}")
    # as_matrix may return the caller's own array: scale copies.
    uq, ug = _unit_rows(qf.copy(), "query"), _unit_rows(gf.copy(), "gallery")
    return _distances_of_dots(matmul(uq, ug.T))


def _stable_ranks(row: np.ndarray, near: np.ndarray, rel: np.ndarray) -> np.ndarray:
    """The ranks of one query's relevant entries, ascending: their positions
    when its near entries (the mask near) and relevant entries (the gallery
    indices rel), taken in gallery order, are sorted stably by their
    distances in row, that is, in (distance, gallery index) order."""
    is_rel = np.zeros(row.size, dtype=bool)
    is_rel[rel] = True
    cols = np.flatnonzero(near | is_rel)
    return np.flatnonzero(is_rel[cols[np.argsort(row[cols], kind="stable")]])


def _rank_queries(
    shape: tuple,
    distance_rows,
    q_ids: np.ndarray,
    g_ids: np.ndarray,
    q_views: Optional[np.ndarray],
    g_views: Optional[np.ndarray],
    exclude_same_view: bool,
    max_rank: int,
) -> RetrievalReport:
    """The ranking core of cmc_map and evaluate.

    distance_rows(rows) gives the rows at a slice of query rows of the
    query x gallery distance matrix of this shape, C-contiguous; they are
    only read.

    The rank of a relevant entry at distance d counts the relevant entries
    ahead of it in (distance, index) order and the kept non-relevant
    entries closer than d or at d with a lower index. Those kept entries
    lie at or below the query's farthest relevant distance: its near set.
    Only the near set is sorted, so the work per query follows its size,
    not the gallery's. If no near entry ties with any relevant entry of
    its query, the relevant entry in slot s of that query's ascending
    distances has rank closer + s, closer being the near entries below it.
    Rows are ranked that way a block at a time. Only a query with such a
    tie consults gallery indices: _stable_ranks sorts its near and relevant
    entries, in gallery order, stably by distance, and each relevant
    entry's rank is its position in that order.
    """
    q_ids = np.asarray(q_ids)
    g_ids = np.asarray(g_ids)
    nq, ng = shape
    if q_ids.shape != (nq,) or g_ids.shape != (ng,):
        raise ShapeError(
            f"distance matrix {shape} does not match {q_ids.shape} query ids / {g_ids.shape} gallery ids"
        )
    if max_rank < 1:
        raise ConfigError(f"max_rank must be >= 1, got {max_rank}")
    if exclude_same_view:
        if q_views is None or g_views is None:
            raise ConfigError("exclude_same_view needs q_views and g_views")
        q_views = np.asarray(q_views)
        g_views = np.asarray(g_views)
        if q_views.shape != (nq,) or g_views.shape != (ng,):
            raise ShapeError(
                f"distance matrix {shape} does not match {q_views.shape} query views / {g_views.shape} gallery views"
            )
    # Query i's same-id gallery columns are by_id[lo[i] : lo[i] + num_same[i]],
    # ascending.
    by_id = np.argsort(g_ids, kind="stable")
    sorted_ids = g_ids[by_id]
    lo = np.searchsorted(sorted_ids, q_ids, "left")
    num_same = np.searchsorted(sorted_ids, q_ids, "right") - lo
    per_query_ap = np.full(nq, np.nan)
    first_match_rank = np.zeros(nq, dtype=np.int64)  # 0 = skipped
    step = max(1, _RANK_BLOCK_CELLS // max(ng, 1))
    for start in range(0, nq, step):
        rows = slice(start, start + step)
        # The block's same-id entries (pair_row, pair_col), row by row, and
        # the relevant ones among them; the others are junk. The j-th entry
        # of row i is column by_id[lo[i] + j].
        n_same = num_same[rows]
        pair_row = np.repeat(np.arange(n_same.size), n_same)
        pair_col = by_id[np.arange(pair_row.size) + np.repeat(lo[rows] - np.cumsum(n_same) + n_same, n_same)]
        rel_row, rel_col = pair_row, pair_col
        if exclude_same_view:
            is_rel = g_views[pair_col] != q_views[rows][pair_row]
            rel_row, rel_col = pair_row[is_rel], pair_col[is_rel]
        count = np.bincount(rel_row, minlength=n_same.size)
        if not count.any():
            continue
        d = distance_rows(rows)
        # Each row's relevant distances, ascending, in its first count
        # slots; the slots after them hold +inf and are masked out.
        dist = np.full((count.size, count.max()), np.inf)
        slot = np.arange(dist.shape[1])
        valid = slot < count[:, None]
        dist[valid] = d[rel_row, rel_col]
        dist.sort(axis=1)
        far = np.where(count > 0, dist[np.arange(count.size), count - 1], -np.inf)
        near = d <= far[:, None]
        near[pair_row, pair_col] = False
        # Row i's near distances are near_d[bounds[i] : bounds[i + 1]], sorted
        # below; one +inf follows the last row's.
        at = np.flatnonzero(near)
        bounds = np.searchsorted(at, np.arange(count.size + 1) * ng)
        near_d = np.empty(at.size + 1)
        # With out, mode "raise" would copy through a buffer; at holds valid
        # positions, so "clip" changes none.
        np.take(d, at, out=near_d[:-1], mode="clip")
        near_d[-1] = np.inf
        # closer counts the near entries below each relevant entry.
        closer = np.zeros(dist.shape, dtype=np.int64)
        for i in np.flatnonzero(count):
            row = near_d[bounds[i] : bounds[i + 1]]
            row.sort()
            closer[i] = row.searchsorted(dist[i], "left")
        pos = closer + slot
        # A near entry ties when the row's first near entry not closer
        # equals the relevant one.
        tied = valid & (closer < np.diff(bounds)[:, None]) & (near_d[bounds[:-1, None] + closer] == dist)
        rel_start = np.cumsum(count) - count
        for b in np.flatnonzero(tied.any(axis=1)):
            r = count[b]
            pos[b, :r] = _stable_ranks(d[b], near[b], rel_col[rel_start[b] : rel_start[b] + r])
        # AP is the mean over the r relevant entries of k / (rank_k + 1).
        # Each row's sum runs over exactly its r terms, the same pairwise
        # sum as for that row alone, so rows are taken in groups of one r.
        # The block slices are views: writes land in the full arrays.
        block_ap, block_first = per_query_ap[rows], first_match_rank[rows]
        for r in np.flatnonzero(np.bincount(count)[1:]) + 1:
            of_r = count == r
            block_ap[of_r] = np.sum(np.arange(1, r + 1) / (pos[of_r, :r] + 1.0), axis=1) / r
            block_first[of_r] = pos[of_r, 0] + 1
        # Freed before the next block's distances are formed.
        del d, near, at, near_d
    num_skipped = int(np.count_nonzero(first_match_rank == 0))
    scored = nq - num_skipped
    if scored == 0:
        raise DataError("every query was skipped (no relevant gallery entries)")
    ranks = first_match_rank[(first_match_rank >= 1) & (first_match_rank <= max_rank)]
    cmc = np.cumsum(np.bincount(ranks, minlength=max_rank + 1)) / scored
    cmc[0] = 0.0
    mean_ap = float(np.sum(per_query_ap[np.isfinite(per_query_ap)]) / scored)
    return RetrievalReport(
        map=mean_ap,
        cmc=cmc,
        rank1=float(cmc[1]),
        per_query_ap=per_query_ap,
        num_skipped_queries=num_skipped,
    )


def cmc_map(
    d: Matrix,
    q_ids: np.ndarray,
    g_ids: np.ndarray,
    q_views: Optional[np.ndarray] = None,
    g_views: Optional[np.ndarray] = None,
    exclude_same_view: bool = False,
    max_rank: int = 50,
) -> RetrievalReport:
    """CMC and mAP from a query x gallery distance matrix.

    Per query the gallery is ranked ascending by distance with ties
    going to the lower gallery index. With exclude_same_view, gallery
    entries sharing both the query's id and view are dropped before
    scoring (the usual same-camera junk convention).

    Only the relevant entries are ranked: each one's rank is found by
    binary search in the query's near set, the kept non-relevant distances
    at or below its farthest relevant one, sorted. No row is argsorted or
    sorted whole. Queries are taken in blocks whose arrays hold at most
    _RANK_BLOCK_CELLS cells each; d is not written.
    """
    d = as_matrix(d, "distance matrix", check_finite=False)
    # Checked a block of rows at a time: a mask of the whole of d would be
    # the largest array cmc_map holds.
    step = max(1, _RANK_BLOCK_CELLS // max(d.shape[1], 1))
    for start in range(0, d.shape[0], step):
        if not np.isfinite(d[start : start + step]).all():
            raise NumericError("distance matrix contains non-finite entries")
    return _rank_queries(
        d.shape, lambda rows: d[rows],
        q_ids, g_ids, q_views, g_views, exclude_same_view, max_rank,
    )


def _unit_part(embed: Callable[[np.ndarray], Matrix], rows: np.ndarray, name: str) -> Matrix:
    """The unit rows of embed(rows), the features of the rows `rows`."""
    f = np.asarray(embed(rows))
    if f.ndim != 2 or f.shape[0] != rows.size:
        raise ShapeError(f"{name} features {f.shape} do not hold one row per {name} row ({rows.size})")
    # embed returns a new array, so it is scaled in place; one of another
    # dtype or layout is scaled in its C-contiguous float64 copy.
    return _unit_rows(np.ascontiguousarray(f, dtype=np.float64), name)


def evaluate(
    ds: MultimodalDataset,
    embed: Callable[[np.ndarray], Matrix],
    exclude_same_view: bool = False,
    max_rank: int = 50,
) -> RetrievalReport:
    """Rank ds's query rows against its gallery rows by the cosine distance
    of their features; train rows are not read.

    embed(rows) returns a new array, one row per index in rows, holding
    the features of those rows of ds; evaluate scales it in place. It is
    called for the gallery rows first and then for the query rows, so no
    features but those two parts are held for ds: e.g.
    lambda rows: embed_dataset(model, ds.take(rows), selector). If the
    gallery part fails, the query part is built before its error is
    raised, so that the query's error comes first.

    The report is that of cmc_map(cosine_distance(f[q], f[g]), ...) for
    the features f of every row, the query rows q and gallery rows g, byte
    for byte, without forming the query x gallery distance matrix: each
    block of query rows gets its distances from matmul on the unit rows,
    computed once.
    """
    q_rows, g_rows = ds.query_rows, ds.gallery_rows
    if q_rows.size == 0 or g_rows.size == 0:
        raise DataError("dataset has an empty query or gallery split")
    # The gallery's part is built while nothing else is held.
    try:
        ug = _unit_part(embed, g_rows, "gallery")
    except Exception:
        _unit_part(embed, q_rows, "query")
        raise
    uq = _unit_part(embed, q_rows, "query")
    if uq.shape[1] != ug.shape[1]:
        raise ShapeError(f"feature dims differ: query {uq.shape[1]} vs gallery {ug.shape[1]}")
    if not (np.all(np.isfinite(uq)) and np.all(np.isfinite(ug))):
        # A NaN or inf feature makes every distance of its row NaN.
        raise NumericError("distance matrix contains non-finite entries")
    # A block's products are taken as matmul(ug, uq[rows].T), transposed:
    # each cell sums the same products in the same order, so it has the
    # bits of the whole product. The compiled kernel reads its right operand
    # once per four rows of the left one; as that operand the gallery (3 MB
    # at 4000 rows of dim 96) spills a 2 MB L2, and evaluate ran 25 % slower
    # at eval-gallery's size (Xeon, AVX-512). The transpose is copied to
    # the row-major layout that _rank_queries reads; the product is then
    # dropped, so the block holds one such array.
    return _rank_queries(
        (uq.shape[0], ug.shape[0]),
        lambda rows: _distances_of_dots(matmul(ug, uq[rows].T).T.copy()),
        ds.ids[q_rows], ds.ids[g_rows], ds.view_ids[q_rows], ds.view_ids[g_rows],
        exclude_same_view, max_rank,
    )


def trainset_view(ds: MultimodalDataset, views_as_query: Optional[int] = None, seed: int = 0) -> MultimodalDataset:
    """Train rows re-cast as a query/gallery split (seeded, deterministic).

    Scoring a model on it with the test protocol is the overfitting
    diagnostic: high values mean the feature memorizes its training
    identities."""
    rows = ds.train_rows
    if rows.size == 0:
        raise DataError("dataset has no training rows")
    sub = ds.take(rows)
    sub.split[:] = SPLIT_GALLERY
    return split_query_gallery(sub, views_as_query, Rng(seed).split("trainset-eval"))


@dataclass(frozen=True)
class TableCell:
    map_mean: float
    map_std: float
    rank1_mean: float
    rank1_std: float


@dataclass
class ExperimentTable:
    """Mean +/- std (population, ddof=0) over seeds, keyed by
    (strategy name, evaluation target)."""

    suite: str
    num_seeds: int
    cells: dict  # (strategy, target) -> TableCell

    def strategies(self) -> list:
        return list(dict.fromkeys(s for s, _ in self.cells))

    def targets(self) -> list:
        return list(dict.fromkeys(t for _, t in self.cells))


@dataclass(frozen=True)
class ClaimResult:
    """One directional claim checked per seed; passes when it holds in
    at least 80% of seeds (4 of 5 at the committed seed count)."""

    name: str
    successes: int
    num_seeds: int
    required: int
    passed: bool
    per_seed: tuple

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} ({self.successes}/{self.num_seeds} seeds, need >= {self.required})"


def _claim(name: str, per_seed: Sequence[bool]) -> ClaimResult:
    n = len(per_seed)
    required = math.ceil(0.8 * n)
    successes = int(sum(bool(b) for b in per_seed))
    return ClaimResult(
        name=name,
        successes=successes,
        num_seeds=n,
        required=required,
        passed=successes >= required,
        per_seed=tuple(bool(b) for b in per_seed),
    )


@dataclass
class SuiteResult:
    suite: str
    seeds: tuple
    epochs: int
    table: ExperimentTable
    claims: list
    # raw[(seed, strategy value, target)] = (mAP, rank1)
    raw: dict


def suite_train_config(strategy: Strategy, seed: int, epochs: Optional[int] = None) -> TrainConfig:
    """The committed training recipe shared by all suites."""
    e = 60 if epochs is None else int(epochs)
    return TrainConfig(
        strategy=strategy,
        p=8,
        k=4,
        lr_base=0.05,
        momentum=0.9,
        epochs=e,
        warmup_epochs=min(6, max(0, e // 2)),
        hidden_dims=(64,),
        embed_dim=32,
        seed=seed,
    )


# A claim target: the fused embedding, one stream by index, or each stream
# in turn (the same stream on both sides of a comparison that names it twice).
MULTIMODAL = "multimodal"
EVERY_STREAM = "every stream"


@dataclass(frozen=True)
class Comparison:
    """left op right on one seed's mAP, op ">" or ">="; each side is a
    (strategy, target) scored on split."""

    left: tuple
    op: str
    right: tuple
    split: str = "test"


_HOLDS = {">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class SuiteSpec:
    """One packaged experiment. Each seed's dataset is
    transform(generate(preset(seed))); every strategy trains on it for
    `epochs` and is scored per stream and fused on the test split, and per
    stream on the train split too with train_split. A claim holds on a seed
    when all its comparisons do."""

    preset: Callable[[int], SynthConfig]
    epochs: int
    claims: dict  # claim name -> tuple of Comparisons
    transform: Callable[[MultimodalDataset], MultimodalDataset] = lambda ds: ds
    train_split: bool = False

    def target(self, name: str, split: str = "test") -> str:
        """The raw and table name of a stream, or of MULTIMODAL, scored on split."""
        return f"{name}/{split}" if self.train_split else name


_UNI, _FAVG, _FCAT = ALL_STRATEGIES


def _unicat_vs_fusions(op: str, target, split: str = "test") -> tuple:
    return tuple(Comparison((_UNI, target), op, (fusion, target), split) for fusion in (_FAVG, _FCAT))


SUITES = {
    "laziness-clean": SuiteSpec(preset=clean_preset, epochs=60, claims={
        "unicat-per-stream-test-map-beats-both-fusions": _unicat_vs_fusions(">", EVERY_STREAM),
        "unicat-multimodal-beats-its-best-unimodal": (
            Comparison((_UNI, MULTIMODAL), ">", (_UNI, EVERY_STREAM)),
        ),
    }),
    "weak-link": SuiteSpec(preset=weak_link_preset, epochs=60, claims={
        "fusion-concat-weak-stream-beats-unicat": (
            Comparison((_FCAT, WEAK_STREAM), ">", (_UNI, WEAK_STREAM)),
        ),
    }),
    # Trained longer than the other suites. Over seeds 0-19 the claim ties
    # alike against fusion-concat at 60, 120 and 240 epochs (holding on
    # 9-11 of 20 seeds) and holds against fusion-avg on 17-20 of 20.
    "ensemble": SuiteSpec(
        preset=ensemble_base_preset,
        transform=lambda ds: replicate_modality(ds, 0, 2),
        epochs=120,
        claims={"independent-ensemble-at-least-joint": _unicat_vs_fusions(">=", MULTIMODAL)},
    ),
    "train-vs-test": SuiteSpec(preset=clean_preset, epochs=60, train_split=True, claims={
        "fusion-trainset-per-stream-map-below-unicat": _unicat_vs_fusions(">", EVERY_STREAM, "train"),
        "unicat-per-stream-test-map-beats-both-fusions": _unicat_vs_fusions(">", EVERY_STREAM),
    }),
}
SUITE_NAMES = tuple(SUITES)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        return os.cpu_count() or 1


def _suite_cell(
    spec: SuiteSpec, ds: MultimodalDataset, plan: np.ndarray, seed: int, strategy: Strategy, epochs: int
) -> tuple:
    """Train one (seed, strategy) cell on the seed's batch plan: (stream
    names, [(target, (mAP, rank1)), ...] in target order)."""
    model = train(ds, suite_train_config(strategy, seed, epochs), plan).model
    test = ds.take(ds.split != SPLIT_TRAIN)
    splits = [("test", test)] + ([("train", trainset_view(ds))] if spec.train_split else [])

    def score(view: MultimodalDataset, selector: Union[int, str]) -> tuple:
        rep = evaluate(view, lambda rows: embed_dataset(model, view.take(rows), selector))
        return rep.map, rep.rank1

    out = [
        (spec.target(name, split), score(view, i))
        for i, name in enumerate(ds.modality_names)
        for split, view in splits
    ]
    out.append((spec.target(MULTIMODAL), score(test, FUSED_SELECTOR)))
    return tuple(ds.modality_names), out


def _suite_share(suite: str, epochs: int, cells: list) -> tuple:
    """Run [(cell index, (seed, strategy)), ...] in order, stopping at the first failure.

    Returns (results of the finished cells, None or (index, exception) of
    the failed one). A seed's dataset and batch plan are made once for
    consecutive cells of that seed, which share them: the strategies differ
    in neither. A failure to make them is charged to the first such cell.
    """
    spec = SUITES[suite]
    done = []
    ds_seed = None
    for index, (seed, strategy) in cells:
        try:
            if seed != ds_seed:
                ds_seed, ds = seed, spec.transform(generate(spec.preset(seed)))
                plan = batch_plan(ds, suite_train_config(strategy, seed, epochs))
            done.append(_suite_cell(spec, ds, plan, seed, strategy, epochs))
        except Exception as exc:
            return done, (index, exc)
    return done, None


def _suite_helper(conn, suite: str, epochs: int, cells: list) -> None:
    """A helper process's body: run its share and send the result back."""
    with conn:
        conn.send(_suite_share(suite, epochs, cells))


def _run_shares(suite: str, epochs: int, shares: list) -> list:
    """_suite_share of every share, in order: the first in this process,
    each of the others in a helper process started for it."""
    if len(shares) == 1:
        return [_suite_share(suite, epochs, shares[0])]
    # Imported here so that importing the CLI does not pay for it. Helpers
    # start with the platform's default method (fork on Linux: no fresh
    # numpy import on the critical path); the shares' arguments and
    # results pickle under any start method.
    import multiprocessing

    helpers = []
    try:
        for share in shares[1:]:
            recv, send = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(target=_suite_helper, args=(send, suite, epochs, share), daemon=True)
            proc.start()
            # The helper now holds the only send end: recv sees EOF if it dies.
            send.close()
            helpers.append((proc, recv))
        results = [_suite_share(suite, epochs, shares[0])]
        for proc, recv in helpers:
            try:
                results.append(recv.recv())
            except EOFError:
                proc.join()
                raise RuntimeError(f"suite helper exited with code {proc.exitcode} before sending its results") from None
        return results
    except BaseException:
        for proc, _ in helpers:
            proc.terminate()
        raise
    finally:
        for proc, recv in helpers:
            recv.close()
            proc.join()


def run_suite(
    suite: str,
    seeds: Sequence[int],
    epochs: Optional[int] = None,
    jobs: Optional[int] = None,
) -> SuiteResult:
    """Train all strategies per seed on the suite's preset and aggregate.

    Each (seed, strategy) cell is an independent training run. The cells,
    seed-major, are cut into jobs contiguous runs of near-equal length, one
    per worker: worker 0 is this process, the others are helper processes
    that send their results back over a pipe. A worker thus holds whole
    seeds, except where a run boundary splits one, and makes each of its
    seeds' dataset and batch plan once for all its cells of that seed.
    jobs=None means every usable CPU; it is capped at the cell count.
    Results merge in (seed, strategy, target) order, so the result does not
    depend on jobs. On failure, the error of the lowest-indexed failing
    cell is raised, as a sequential run would.
    """
    spec = SUITES.get(suite)
    if spec is None:
        raise ConfigError(f"unknown suite {suite!r}; expected one of: {', '.join(SUITE_NAMES)}")
    seeds = tuple(int(s) for s in seeds)
    if len(seeds) == 0:
        raise ConfigError("run_suite needs at least one seed")
    if jobs is not None and jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    epochs = spec.epochs if epochs is None else int(epochs)

    cells = list(enumerate((seed, strategy) for seed in seeds for strategy in ALL_STRATEGIES))
    jobs = min(len(cells), _usable_cpus() if jobs is None else jobs)
    bounds = [len(cells) * w // jobs for w in range(jobs + 1)]
    shares = _run_shares(suite, epochs, [cells[a:b] for a, b in zip(bounds, bounds[1:])])
    failures = [failure for _, failure in shares if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]

    per_cell = [result for done, _ in shares for result in done]
    raw = {}
    for (_, (seed, strategy)), (_, results) in zip(cells, per_cell):
        for t, value in results:
            raw[(seed, strategy.value, t)] = value

    targets = list(dict.fromkeys(t for (_, _, t) in raw))
    table_cells = {}
    for strategy in ALL_STRATEGIES:
        s = strategy.value
        for t in targets:
            maps = np.array([raw[(seed, s, t)][0] for seed in seeds])
            r1s = np.array([raw[(seed, s, t)][1] for seed in seeds])
            table_cells[(s, t)] = TableCell(
                map_mean=float(maps.mean()),
                map_std=float(maps.std()),
                rank1_mean=float(r1s.mean()),
                rank1_std=float(r1s.std()),
            )
    table = ExperimentTable(suite=suite, num_seeds=len(seeds), cells=table_cells)
    streams = per_cell[0][0]  # the same in every cell
    claims = _check_claims(spec, seeds, raw, streams)
    return SuiteResult(suite=suite, seeds=seeds, epochs=epochs, table=table, claims=claims, raw=raw)


def _check_claims(spec: SuiteSpec, seeds: tuple, raw: dict, streams: Sequence[str]) -> list:
    """Each claim of spec checked per seed on raw's mAPs; streams are the dataset's stream names."""

    def key(side: tuple, split: str, stream: Optional[str]) -> tuple:
        strategy, target = side
        name = stream if target == EVERY_STREAM else streams[target] if isinstance(target, int) else target
        return strategy.value, spec.target(name, split)

    claims = []
    for name, comparisons in spec.claims.items():
        checks = [
            (_HOLDS[c.op], key(c.left, c.split, stream), key(c.right, c.split, stream))
            for c in comparisons
            for stream in (streams if EVERY_STREAM in (c.left[1], c.right[1]) else [None])
        ]
        claims.append(_claim(name, [
            all(holds(raw[(seed, *a)][0], raw[(seed, *b)][0]) for holds, a, b in checks) for seed in seeds
        ]))
    return claims


def _fmt_pct(mean: float, std: float) -> str:
    return f"{100 * mean:.1f} ±{100 * std:.1f}"


def table_markdown(table: ExperimentTable) -> str:
    """Markdown layout mirroring the usual benchmark tables: one row per
    strategy, mAP and Rank-1 columns per evaluation target, percents."""
    targets = table.targets()
    header = ["Model"]
    for t in targets:
        header += [f"{t} mAP", f"{t} R1"]
    lines = [
        f"# suite: {table.suite} ({table.num_seeds} seeds, mean ±std, %)",
        "",
        "| " + " | ".join(header) + " |",
        "|" + "---|" * len(header),
    ]
    for s in table.strategies():
        row = [s]
        for t in targets:
            cell = table.cells[(s, t)]
            row += [_fmt_pct(cell.map_mean, cell.map_std), _fmt_pct(cell.rank1_mean, cell.rank1_std)]
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def table_csv(table: ExperimentTable) -> str:
    lines = ["strategy,target,map_mean,map_std,rank1_mean,rank1_std,num_seeds"]
    for (s, t), cell in table.cells.items():
        lines.append(
            f"{s},{t},{cell.map_mean!r},{cell.map_std!r},{cell.rank1_mean!r},{cell.rank1_std!r},{table.num_seeds}"
        )
    return "\n".join(lines) + "\n"


def report_csv(report: RetrievalReport, q_ids: Optional[np.ndarray] = None) -> str:
    """Report as CSV: one summary row, then one row per query."""
    lines = [
        "row_type,query_index,query_id,ap",
        f"summary,,,{report.map!r}",
        f"rank1,,,{report.rank1!r}",
        f"skipped,,,{report.num_skipped_queries}",
    ]
    for i, ap in enumerate(report.per_query_ap):
        qid = "" if q_ids is None else q_ids[i]
        lines.append(f"query,{i},{qid},{'skipped' if not np.isfinite(ap) else repr(float(ap))}")
    return "\n".join(lines) + "\n"


def report_markdown(report: RetrievalReport, title: str, max_rank_shown: int = 10) -> str:
    ranks = range(1, min(max_rank_shown, len(report.cmc) - 1) + 1)
    lines = [
        f"## {title}",
        "",
        "| metric | value (%) |",
        "|---|---|",
        f"| mAP | {100 * report.map:.2f} |",
    ]
    for k in ranks:
        lines.append(f"| Rank-{k} | {100 * report.cmc[k]:.2f} |")
    lines.append(f"| skipped queries | {report.num_skipped_queries} |")
    return "\n".join(lines) + "\n"
