"""The benchmark's workloads: their inputs, command sequences and work counts.

A workload is built from the run's --seed. `files` are config files
written into every round's directory; `commands` is the CLI sequence one
round runs, with relative paths only, so that every round's output bytes
can be compared with the first round's. Inputs the benchmark makes
itself and the checks of a round's outputs live in checks.py, which runs
in a child process: this module, like run.py, imports no numpy, so the
load generator stays small next to the children whose peak RSS it measures.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Command:
    kind: str  # the CLI subcommand: gen | train | eval | repro
    argv: tuple
    cells: int = 0  # operations inside the command, counted on top of it

    @property
    def trains(self) -> bool:
        return self.kind in ("train", "repro")


def count_queries(report_dir: Path) -> int:
    """Query rows over every report_*.csv in a directory."""
    total = 0
    for path in sorted(report_dir.glob("report_*.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            total += sum(1 for row in csv.DictReader(fh) if row["row_type"] == "query")
    return total


class Workload:
    name = ""
    why = ""
    profile = False  # whether the traced run adds a cProfile round

    def __init__(self, seed: int):
        self.seed = seed

    def files(self) -> dict:
        return {}

    def commands(self) -> list:
        raise NotImplementedError

    def train_samples(self, round_dir: Path) -> int:
        """Training rows processed per round (steps x batch size)."""
        return 0

    def queries(self, round_dir: Path) -> int:
        """Queries ranked per round by `eval` commands, over all selectors."""
        return 0


class SuiteClean(Workload):
    name = "suite-clean"
    why = ("repro laziness-clean, 2 seeds x 3 strategies at 3 epochs: many small "
           "training steps in independent cells, no files read")
    profile = True
    SEEDS = 2
    EPOCHS = 3
    STRATEGIES = 3
    # The laziness-clean preset (synthdata.clean_preset): 64 train ids x 12 views.
    TRAIN_ROWS = 64 * 12

    def seeds(self) -> list:
        return list(range(self.SEEDS * self.seed, self.SEEDS * (self.seed + 1)))

    def commands(self):
        argv = ("repro", "laziness-clean", "-o", "suite", "--seeds", str(self.SEEDS),
                "--seed-base", str(self.SEEDS * self.seed), "--epochs", str(self.EPOCHS))
        return [Command("repro", argv, cells=self.SEEDS * self.STRATEGIES)]

    def train_samples(self, round_dir):
        cfg = json.loads((round_dir / "suite" / "config.json").read_text(encoding="utf-8"))
        recipe = cfg["train_recipe"]
        batch = recipe["p"] * recipe["k"]
        steps = cfg["epochs"] * max(1, math.ceil(self.TRAIN_ROWS / batch))
        return len(cfg["seeds"]) * self.STRATEGIES * steps * batch


class PipelineWide(Workload):
    name = "pipeline-wide"
    why = ("gen, train from data.dir, eval --checkpoint; fusion-concat with 4-8x "
           "larger matrices per call and the .uceb/manifest/checkpoint write-read path")
    DATA = {
        "num_modalities": 3, "latent_dim": 12, "obs_dim": 128, "ids_train": 64,
        "ids_test": 64, "views_per_id": 12, "signal_scale": 1.0, "view_jitter": 0.35,
        "noise_sigma": 0.4,
    }
    TRAIN = {
        "strategy": "fusion-concat", "p": 16, "k": 4, "lr_base": 0.05, "momentum": 0.9,
        "epochs": 5, "warmup_epochs": 1, "hidden_dims": [256], "embed_dim": 64,
    }

    def files(self):
        gen = {"data": dict(self.DATA, seed=self.seed)}
        train = {"data": {"dir": "data"}, "train": dict(self.TRAIN, seed=self.seed)}
        # JSON is YAML, so the CLI reads these as written.
        return {"gen.yaml": json.dumps(gen, indent=1), "train.yaml": json.dumps(train, indent=1)}

    def commands(self):
        return [
            Command("gen", ("gen", "-c", "gen.yaml", "-o", "data")),
            Command("train", ("train", "-c", "train.yaml", "-o", "run")),
            Command("eval", ("eval", "-c", "train.yaml", "-o", "report",
                             "--checkpoint", "run/checkpoint.bin")),
        ]

    def train_samples(self, round_dir):
        t, d = self.TRAIN, self.DATA
        batch = t["p"] * t["k"]
        rows = d["ids_train"] * d["views_per_id"]
        return t["epochs"] * max(1, math.ceil(rows / batch)) * batch

    def queries(self, round_dir):
        return count_queries(round_dir / "report")


class EvalGallery(Workload):
    name = "eval-gallery"
    why = ("eval --external, concat fusion of three seeded .uceb files (500 ids x 10 "
           "views, dim 32): trains nothing, retrieval- and parse-bound")
    IDS = 500
    VIEWS = 10
    DIM = 32
    VIEWS_AS_QUERY = 2  # the CLI's default eval.views_as_query
    # Per-coordinate noise next to unit-variance identity centres. The
    # planted file's noise is small enough that every same-id pair is
    # closer than every different-id pair; checks.py verifies it.
    NOISE = {"planted": 0.02, "mid": 0.7, "high": 1.2}

    def commands(self):
        files = tuple(f"../../inputs/{name}.uceb" for name in self.NOISE)
        argv = ("eval", "-o", "report", "--external", *files, "--fusion-op", "concat",
                "--set", f"eval.seed={self.seed}")
        return [Command("eval", argv)]

    def queries(self, round_dir):
        return count_queries(round_dir / "report")


WORKLOADS = {w.name: w for w in (SuiteClean, PipelineWide, EvalGallery)}
