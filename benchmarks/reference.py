"""Independent readers and references the benchmark checks outputs against.

Nothing here imports reidlab. The file formats are parsed from their
documented layouts (``fileio`` and ``save_checkpoint`` docstrings), the
forward pass is plain numpy with BLAS products, and retrieval is scored
by a literal per-query loop. A fault in the program's own readers,
kernels or metrics therefore shows up as a disagreement.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

# Retrieval figures from the reference must match the program's reports
# within this absolute tolerance. The reference multiplies with BLAS
# while the program uses a fixed-order kernel, so distances differ by a
# few ulps (~1e-16). That cannot reorder a ranking unless two distances
# lie within ~1e-13 of each other, and for identical orderings AP differs
# only by summation rounding (< 1e-14). The smallest change a single
# reordering can make is one swap at the bottom of a 4000-row gallery
# with 8 relevant rows, 1 / (4000 * 4001 * 8) ~ 7.8e-9, so 1e-10 passes
# every rounding difference and fails every reordering.
RETRIEVAL_TOL = 1e-10


# ---------------------------------------------------------------- .uceb

def _uceb_record(d: int) -> np.dtype:
    return np.dtype([("id", "<u8"), ("view", "<u4"), ("feat", "<f4", (d,))])


def write_uceb(path, name: str, features, ids, views) -> None:
    """Embedding file per the fileio docstring (float32 features)."""
    n, d = features.shape
    payload = np.empty(n, dtype=_uceb_record(d))
    payload["id"], payload["view"], payload["feat"] = ids, views, features
    name_b = name.encode("utf-8")
    Path(path).write_bytes(
        b"UCEB" + struct.pack("<IQII", 1, n, d, len(name_b)) + name_b + payload.tobytes()
    )


def read_uceb(path) -> dict:
    blob = Path(path).read_bytes()
    if blob[:4] != b"UCEB":
        raise ValueError(f"{path}: bad magic")
    version, n, d, name_len = struct.unpack_from("<IQII", blob, 4)
    name = blob[24:24 + name_len].decode("utf-8")
    offset = 24 + name_len
    if len(blob) != offset + n * (12 + 4 * d):
        raise ValueError(f"{path}: length does not match header N={n}, D={d}")
    rec = np.frombuffer(blob, dtype=_uceb_record(d), count=n, offset=offset)
    return {
        "version": version, "name": name, "n": n, "d": d,
        "ids": rec["id"].astype(np.int64),
        "views": rec["view"].astype(np.int64),
        "features": rec["feat"].astype(np.float64),
    }


# ------------------------------------------------------------ checkpoint

def read_checkpoint(path) -> dict:
    """Parse checkpoint.bin following save_checkpoint's documented layout:
    b"UCCK", u32 version, u64 header length, JSON header, then per stream
    each layer's W (and hidden-layer bias), BN gamma / running_mean /
    running_var, classifier if present; then the fused head's gamma,
    running stats and classifier if present. float64 little-endian."""
    blob = Path(path).read_bytes()
    if blob[:4] != b"UCCK":
        raise ValueError(f"{path}: bad magic")
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16:16 + header_len].decode("utf-8"))
    pos = 16 + header_len

    def take(*shape):
        nonlocal pos
        count = int(np.prod(shape))
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=pos).reshape(shape)
        pos += 8 * count
        return arr.astype(np.float64)

    def bn(dim):
        return {"gamma": take(dim), "mean": take(dim), "var": take(dim)}

    c = header["num_classes"]
    streams = []
    for dims in header["layer_dims"]:
        layers = []
        for l, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            w = take(fan_out, fan_in)
            b = take(fan_out) if l < len(dims) - 2 else None
            layers.append((w, b))
        s = {"layers": layers, "bn": bn(dims[-1])}
        s["classifier"] = take(c, dims[-1]) if header["stream_classifiers"] else None
        streams.append(s)
    fused = None
    if header["fused_dim"] is not None:
        fd = header["fused_dim"]
        fused = {"bn": bn(fd), "classifier": take(c, fd)}
    if pos != len(blob):
        raise ValueError(f"{path}: {len(blob) - pos} bytes left after the last array")
    return {"header": header, "streams": streams, "fused": fused}


def _bn_eval(bn: dict, z, eps: float):
    return bn["gamma"] * (z - bn["mean"]) / np.sqrt(bn["var"] + eps)


def l2_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def embed(ckpt: dict, xs: list, selector) -> np.ndarray:
    """Eval-mode retrieval features: stream i's post-BN z for an int
    selector; for "multimodal" the strategy's inference rule (fused head
    on the concatenated or averaged pre-BN z under fusion, concat of
    L2-normalized post-BN streams under unicat)."""
    eps = ckpt["header"]["bn_eps"]
    zs, zbns = [], []
    for s, x in zip(ckpt["streams"], xs):
        h = x
        for w, b in s["layers"]:
            h = h @ w.T
            if b is not None:
                h = np.maximum(h + b, 0.0)
        zs.append(h)
        zbns.append(_bn_eval(s["bn"], h, eps))
    if selector != "multimodal":
        return zbns[selector]
    strategy = ckpt["header"]["strategy"]
    if strategy == "unicat":
        return np.concatenate([l2_rows(z) for z in zbns], axis=1)
    fused = np.mean(zs, axis=0) if strategy == "fusion-avg" else np.concatenate(zs, axis=1)
    return _bn_eval(ckpt["fused"]["bn"], fused, eps)


# ------------------------------------------------------------- retrieval

def retrieval(q, q_ids, g, g_ids) -> dict:
    """Literal single-shot protocol: cosine distance, gallery ranked per
    query ascending with ties to the lower gallery index, AP as the mean
    of precision at each relevant rank, Rank-1 as the share of scored
    queries whose first hit is at rank 1."""
    d = 1.0 - l2_rows(q) @ l2_rows(g).T
    np.clip(d, 0.0, 2.0, out=d)
    tiebreak = np.arange(g.shape[0])
    aps, first = [], []
    for i in range(q.shape[0]):
        order = np.lexsort((tiebreak, d[i]))
        hits = np.flatnonzero(g_ids[order] == q_ids[i])
        if hits.size == 0:
            aps.append(math.nan)
            continue
        precisions = [j / (rank + 1.0) for j, rank in enumerate(hits.tolist(), start=1)]
        aps.append(math.fsum(precisions) / hits.size)
        first.append(int(hits[0]) + 1)
    scored = [a for a in aps if not math.isnan(a)]
    return {
        "ap": aps,
        "map": math.fsum(scored) / len(scored),
        "rank1": sum(1 for r in first if r == 1) / len(scored),
        "skipped": len(aps) - len(scored),
    }


def read_report_csv(path) -> dict:
    """report_<name>.csv: summary / rank1 / skipped rows, then per query."""
    out = {"ap": [], "query_ids": []}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            kind, ap = row["row_type"], row["ap"]
            if kind == "summary":
                out["map"] = float(ap)
            elif kind == "rank1":
                out["rank1"] = float(ap)
            elif kind == "skipped":
                out["skipped"] = int(ap)
            elif kind == "query":
                out["ap"].append(math.nan if ap == "skipped" else float(ap))
                out["query_ids"].append(int(row["query_id"]))
    return out


def compare_report(name: str, report: dict, ref: dict, q_ids) -> list:
    """Differences between a program report and the reference, as text."""
    errors = []
    if report["query_ids"] != [int(i) for i in q_ids]:
        return [f"{name}: query ids or their order differ from the reference split"]
    if report["skipped"] != ref["skipped"]:
        errors.append(f"{name}: {report['skipped']} skipped queries, reference {ref['skipped']}")
    for key in ("map", "rank1"):
        if not abs(report[key] - ref[key]) <= RETRIEVAL_TOL:
            errors.append(f"{name}: {key} {report[key]!r} vs reference {ref[key]!r}")
    worst = max(
        (0.0 if math.isnan(a) and math.isnan(b) else abs(a - b))
        for a, b in zip(report["ap"], ref["ap"])
    )
    if not worst <= RETRIEVAL_TOL:
        errors.append(f"{name}: per-query AP differs from the reference by up to {worst:.3g}")
    for key in ("map", "rank1"):
        if not 0.0 <= report[key] <= 1.0:
            errors.append(f"{name}: {key} {report[key]!r} outside [0, 1]")
    return errors


# ------------------------------------------------------- seeded streams

def split_stream(seed: int, *path: str) -> np.random.Generator:
    """The documented numerics.Rng stream: PCG64 keyed by sha256 of
    "reidlab|<seed>|" + "|".join("<len>:<tag>") over the split path."""
    material = "reidlab|%d|" % seed + "|".join("%d:%s" % (len(p), p) for p in path)
    entropy = int.from_bytes(hashlib.sha256(material.encode("utf-8")).digest(), "little")
    return np.random.Generator(np.random.PCG64(entropy))


def external_query_rows(ids, views_as_query: int, seed: int) -> np.ndarray:
    """Query rows `eval --external` draws: per id in ascending order, the
    first views_as_query entries of a permutation of that id's rows, all
    from one stream split as "external-eval" off the eval seed."""
    gen = split_stream(seed, "external-eval")
    is_query = np.zeros(ids.shape[0], dtype=bool)
    for tid in np.unique(ids):
        rows = np.flatnonzero(ids == tid)
        is_query[rows[gen.permutation(rows.size)[:views_as_query]]] = True
    return is_query


# ----------------------------------------------------------------- suite

def suite_consistency(raw_csv: str, table_csv: str, claims_txt: str) -> tuple[list, list]:
    """Recompute table.csv and claims.txt of `repro laziness-clean` from
    raw.csv. Returns (errors, claim lines recomputed)."""
    errors = []
    rows = list(csv.DictReader(raw_csv.splitlines()))
    raw = {}
    seeds, strategies, targets = [], [], []
    for r in rows:
        seed, s, t = int(r["seed"]), r["strategy"], r["target"]
        m, r1 = float(r["map"]), float(r["rank1"])
        for v, what in ((m, "mAP"), (r1, "Rank-1")):
            if not 0.0 <= v <= 1.0:
                errors.append(f"raw.csv: {what} {v!r} outside [0, 1] at {seed},{s},{t}")
        raw[(seed, s, t)] = (m, r1)
        for seen, v in ((seeds, seed), (strategies, s), (targets, t)):
            if v not in seen:
                seen.append(v)

    table = {}
    for r in csv.DictReader(table_csv.splitlines()):
        table[(r["strategy"], r["target"])] = r
    if set(table) != {(s, t) for s in strategies for t in targets}:
        errors.append("table.csv: (strategy, target) cells differ from raw.csv")
        return errors, []
    for (s, t), r in table.items():
        for col, idx in (("map", 0), ("rank1", 1)):
            vals = [raw[(seed, s, t)][idx] for seed in seeds]
            mean = math.fsum(vals) / len(vals)
            std = math.sqrt(math.fsum((v - mean) ** 2 for v in vals) / len(vals))
            for stat, want in (("mean", mean), ("std", std)):
                got = float(r[f"{col}_{stat}"])
                if not abs(got - want) <= 1e-12 * max(1.0, abs(want)):
                    errors.append(f"table.csv {s},{t} {col}_{stat}: {got!r} vs {want!r}")
        if int(r["num_seeds"]) != len(seeds):
            errors.append(f"table.csv {s},{t}: num_seeds {r['num_seeds']} vs {len(seeds)}")

    def m(seed, s, t):
        return raw[(seed, s, t)][0]

    streams = [t for t in targets if t.startswith("mod")]
    per_seed = {
        "unicat-per-stream-test-map-beats-both-fusions": [
            all(m(sd, "unicat", t) > max(m(sd, "fusion-avg", t), m(sd, "fusion-concat", t))
                for t in streams)
            for sd in seeds
        ],
        "unicat-multimodal-beats-its-best-unimodal": [
            m(sd, "unicat", "multimodal") > max(m(sd, "unicat", t) for t in streams)
            for sd in seeds
        ],
    }
    lines = []
    for name, flags in per_seed.items():
        n, ok = len(flags), sum(flags)
        need = math.ceil(0.8 * n)
        lines.append(f"{'PASS' if ok >= need else 'FAIL'} {name} ({ok}/{n} seeds, need >= {need})")
    if claims_txt.splitlines() != lines:
        errors.append(f"claims.txt {claims_txt.splitlines()} vs recomputed {lines}")
    return errors, lines
