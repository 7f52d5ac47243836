"""Command-line interface.

Subcommands: gen (synthesize a dataset directory), train (train or grid
search from a config), eval (reports for a checkpoint or for external
embedding files), repro (the packaged multi-seed experiment suites).

Configs are YAML with three sections (data, train, eval), checked by
config.SCHEMA. Exit codes: 0 ok, 2 config error, 3 data error (or a file
that cannot be read or written), 4 numeric error. All outputs are
deterministic in config + seed: rerun a command and its bytes repeat.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .config import EvalOptions, config_dict, read_section, synth_config, train_config, validate_config
from .errors import ConfigError, DataError, NumericError
from .evalkit import (
    SUITE_NAMES,
    evaluate,
    report_csv,
    report_markdown,
    run_suite,
    suite_train_config,
    table_csv,
    table_markdown,
    trainset_view,
)
from .model import FUSED_SELECTOR, embed_dataset, load_checkpoint
from .numerics import Rng
from .objectives import FusionOperator, Strategy, fuse
from .pipeline import config_hash, grid_search, train
from .synthdata import SPLIT_GALLERY, SPLIT_TRAIN, MultimodalDataset, generate, split_query_gallery


def load_config(path) -> dict:
    import yaml  # here, not at the top: only YAML parsing needs it

    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        cfg = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from None
    if cfg is None:
        cfg = {}
    validate_config(cfg)
    return cfg


def apply_overrides(cfg: dict, sets: list) -> dict:
    """--set a.b.c=value overrides, parsed as YAML scalars."""
    import yaml  # here, not at the top: only YAML parsing needs it

    for item in sets or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key.path=value, got {item!r}")
        key_path, value_str = item.split("=", 1)
        keys = key_path.strip().split(".")
        try:
            value = yaml.safe_load(value_str)
        except yaml.YAMLError:
            raise ConfigError(f"--set {item!r}: cannot parse value") from None
        node = cfg
        for k in keys[:-1]:
            if node.get(k) is None:  # an absent or null section
                node[k] = {}
            node = node[k]
            if not isinstance(node, dict):
                raise ConfigError(f"--set {item!r}: {k!r} is not a mapping")
        node[keys[-1]] = value
    validate_config(cfg)
    return cfg


def _load_or_generate(cfg: dict) -> tuple[MultimodalDataset, str]:
    data = read_section(cfg, "data")
    if "dir" not in data:
        scfg = synth_config(data)
        return generate(scfg), f"generated (seed {scfg.seed})"
    if len(data) > 1:
        raise ConfigError(f"data.dir cannot be combined with {sorted(set(data) - {'dir'})}")
    ds, _ = fileio.read_dataset(data["dir"])
    return ds, f"dataset dir {data['dir']}"


def cmd_gen(args) -> int:
    cfg = apply_overrides(load_config(args.config), args.set)
    data = read_section(cfg, "data")
    if "dir" in data:
        raise ConfigError("gen generates a dataset; remove data.dir from the config")
    scfg = synth_config(data)
    ds = generate(scfg)
    fileio.write_dataset(ds, args.out, scfg)
    print(f"wrote {ds.num_modalities} modality file(s) + manifest to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = apply_overrides(load_config(args.config), args.set)
    ds, source = _load_or_generate(cfg)
    tcfg, grid = train_config(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if grid is None:
        rec = train(ds, tcfg)
        fileio.write_run_record(rec, out, extra={"data_source": source})
        print(f"trained {tcfg.strategy.value}: final loss {rec.epoch_losses[-1]:.4f} -> {out}")
        return 0
    result = grid_search(ds, grid.batch_sizes, grid.lr_values, tcfg)
    for cell, rec in zip(result.cells, result.cell_records):
        fileio.write_run_record(
            rec,
            out / f"cell_bs{cell.batch_size}_lr{cell.lr:g}",
            extra={"val_map": cell.val_map, "val_rank1": cell.val_rank1},
        )
    fileio.write_run_record(result.best, out, extra={"data_source": source})
    selection = {
        "cells": [vars(c) for c in result.cells],
        "selected": {"batch_size": result.best_cell.batch_size, "lr": result.best_cell.lr},
    }
    fileio.dump_json(selection, out / "selection.json")
    print(
        f"grid search done: best bs={result.best_cell.batch_size} lr={result.best_cell.lr:g} "
        f"(val mAP {result.best_cell.val_map:.4f}) -> {out}"
    )
    return 0


def _write_report(out: Path, name: str, report, q_ids, header: str) -> None:
    fileio.write_text(out / f"report_{name}.csv", report_csv(report, q_ids))
    fileio.write_text(out / f"report_{name}.md", report_markdown(report, header))


def cmd_eval(args) -> int:
    if not (args.external or args.checkpoint):
        raise ConfigError("eval needs --checkpoint (or --external files)")
    if args.external and args.checkpoint:
        raise ConfigError("eval takes --external files or --checkpoint, not both")
    if args.external and args.trainset:
        raise ConfigError("--trainset needs --checkpoint: --external files have no train split")
    if args.checkpoint and args.fusion_op is not None:
        raise ConfigError("--fusion-op applies to --external files: a checkpoint fuses by its strategy")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = apply_overrides(load_config(args.config) if args.config else {}, args.set)
    opts = EvalOptions(**read_section(cfg, "eval"))
    if args.external:
        view, evals, summary, kind = _external_evals(args, opts)
    else:
        view, evals, summary, kind = _checkpoint_evals(args, cfg, opts)
    q_ids = view.ids[view.query_rows]
    for name, features in evals:
        report = evaluate(view, features, opts.exclude_same_view, opts.max_rank)
        _write_report(out, name, report, q_ids, f"{name} ({kind})")
        summary.append(
            f"- {name}: mAP {100 * report.map:.2f}%, Rank-1 {100 * report.rank1:.2f}%"
            f" ({report.num_skipped_queries} skipped)"
        )
    fileio.write_text(out / "summary.md", "\n".join(summary) + "\n")
    print(f"wrote {len(evals)} report pair(s) to {out}")
    return 0


def _checkpoint_evals(args, cfg: dict, opts: EvalOptions) -> tuple:
    """(view, [(name, features), ...], summary head, report kind) for a checkpoint."""
    model = load_checkpoint(args.checkpoint)
    ds, source = _load_or_generate(cfg)
    if args.trainset:
        view = trainset_view(ds, opts.views_as_query, opts.seed)
    else:
        view = ds.take(ds.split != SPLIT_TRAIN)
    selectors = [(FUSED_SELECTOR, "multimodal")] + [
        (i, f"mod{i}") for i in range(model.num_streams)
    ]
    evals = [
        (name, embed_dataset(model, view, selector, normalize_first=opts.normalize_first))
        for selector, name in selectors
    ]
    summary = [
        f"# Evaluation {'(train split)' if args.trainset else '(test split)'}",
        "",
        f"- source: {source}",
        f"- checkpoint: {args.checkpoint}",
        f"- strategy: {model.strategy.value}",
        f"- eval options hash: {config_hash(config_dict(opts) | {'trainset': bool(args.trainset)})}",
        "",
    ]
    return view, evals, summary, model.strategy.value


def _external_evals(args, opts: EvalOptions) -> tuple:
    """(view, [(name, features), ...], summary head, report kind) for
    embedding files: each file, and their fusion when there are several."""
    records = [fileio.read_embedding_file(f) for f in args.external]
    names = []
    for rec in records:
        name = rec.name or "embeddings"
        while name in names:
            name += "+"
        names.append(name)
    base = records[0]
    for rec, name in zip(records[1:], names[1:]):
        if not (np.array_equal(rec.ids, base.ids) and np.array_equal(rec.view_ids, base.view_ids)):
            raise DataError(f"external file {name!r}: ids/view_ids differ from the first file")
    holder = MultimodalDataset(
        features=[rec.features for rec in records],
        ids=base.ids,
        view_ids=base.view_ids,
        split=np.full(base.ids.shape[0], SPLIT_GALLERY, dtype=np.int8),
        modality_names=names,
    )
    view = split_query_gallery(holder, opts.views_as_query, Rng(opts.seed).split("external-eval"))
    op = FusionOperator(args.fusion_op or "concat")
    normalize = True if opts.normalize_first is None else opts.normalize_first
    evals = list(zip(names, view.features))
    if len(records) > 1:
        evals.append(("multimodal", fuse(view.features, op, normalize_first=normalize)))
    summary = [
        "# External embedding evaluation",
        "",
        f"- files: {', '.join(str(f) for f in args.external)}",
        f"- fusion: {op.value} (normalize_first={normalize})",
        "",
    ]
    return view, evals, summary, "external"


def cmd_repro(args) -> int:
    for flag, value in (("--seeds", args.seeds), ("--jobs", args.jobs), ("--epochs", args.epochs)):
        if value is not None and value < 1:
            raise ConfigError(f"{flag} must be >= 1, got {value}")
    seeds = list(range(args.seed_base, args.seed_base + args.seeds))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = run_suite(args.suite, seeds, epochs=args.epochs, jobs=args.jobs)
    run_desc = {
        "suite": args.suite,
        "seeds": seeds,
        "epochs": result.epochs,
        "train_recipe": config_dict(suite_train_config(Strategy.UNICAT, seeds[0], result.epochs)),
    }
    run_desc["config_hash"] = config_hash(run_desc)
    fileio.dump_json(run_desc, out / "config.json")
    md = table_markdown(result.table) + f"\nconfig_hash: {run_desc['config_hash']}\n"
    fileio.write_text(out / "table.md", md)
    fileio.write_text(out / "table.csv", table_csv(result.table))
    raw_lines = ["seed,strategy,target,map,rank1"]
    for (seed, s, t), (m, r1) in result.raw.items():
        raw_lines.append(f"{seed},{s},{t},{m!r},{r1!r}")
    fileio.write_text(out / "raw.csv", "\n".join(raw_lines) + "\n")
    claim_lines = [c.line() for c in result.claims]
    fileio.write_text(out / "claims.txt", "\n".join(claim_lines) + "\n")
    for line in claim_lines:
        print(line)
    print(f"wrote suite outputs to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reidlab",
        description="Multimodal metric-learning lab: synthetic ReID data, "
        "late-fusion training strategies, retrieval evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset directory")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--set", action="append", metavar="KEY.PATH=VALUE")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a model (or run the configured grid search)")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--set", action="append", metavar="KEY.PATH=VALUE")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint or external embedding files")
    p.add_argument("-c", "--config")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--trainset", action="store_true", help="evaluate on the train split")
    p.add_argument("--external", nargs="+", metavar="FILE", help="embedding files; skips the model")
    p.add_argument(
        "--fusion-op", choices=[o.value for o in FusionOperator],
        help="how --external files are fused (default concat)",
    )
    p.add_argument("--set", action="append", metavar="KEY.PATH=VALUE")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("repro", help="run a packaged multi-seed experiment suite")
    p.add_argument("suite", choices=list(SUITE_NAMES))
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--seeds", type=int, default=5, help="number of seeds (default 5)")
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--epochs", type=int, default=None, help="override the suite's epoch count")
    p.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the (seed, strategy) cells (default: usable CPUs); "
        "outputs do not depend on it",
    )
    p.set_defaults(func=cmd_repro)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
