"""Run one reidlab CLI command in this process with per-layer tracing.

Usage (PYTHONPATH must reach the package):

    python benchmarks/tracer.py --trace-out spans.json -- <cli args>
    python benchmarks/tracer.py --profile-out top10.txt -- <cli args>

With --trace-out, every function named in SPANS is wrapped at every
module that holds a binding to it (``model.matmul``, ``evalkit.matmul``
and ``synthdata.matmul`` are separate bindings of ``numerics.matmul``,
and each is replaced), then ``reidlab.cli.main`` runs with the given
argv. Each wrapper records a span; a span's self time is its duration
minus the spans opened inside it. Totals and counters are written as
JSON when the command ends. The wrappers only read arguments and file
sizes, so the command's outputs are the same bytes as without them.

With --profile-out, the command runs under cProfile instead (no
wrappers) and the ten functions with the most internal time are
written as text, with the share of numerics.matmul.

The exit code is the command's exit code.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import os
import pstats
import sys
import time

# Traced functions, as "<module>.<function>", with the fields of their
# totals the benchmark reports.
SPANS = {
    "numerics.matmul": ("calls", "self_s"),
    "numerics.pairwise_euclidean": ("calls", "self_s"),
    "objectives.triplet_loss": ("calls", "self_s"),
    "objectives.cross_entropy": ("calls", "self_s"),
    "objectives.fuse": ("self_s",),
    "model.stream_forward": ("self_s",),
    "model.stream_backward": ("self_s",),
    "model.head_forward": ("self_s",),
    "model.head_backward": ("self_s",),
    "model.embed_dataset": ("self_s",),
    "model.save_checkpoint": ("self_s",),
    "model.load_checkpoint": ("self_s",),
    "pipeline.train": ("self_s",),
    "pipeline.batch_gradients": ("self_s",),
    "pipeline.sgd_step": ("calls", "self_s"),
    "pipeline.pk_sample": ("self_s",),
    "evalkit.run_suite": ("self_s",),
    "evalkit.cosine_distance": ("self_s",),
    "evalkit.cmc_map": ("self_s",),
    "synthdata.generate": ("calls", "self_s"),
    "fileio.read_embedding_file": ("self_s",),
    "fileio.write_dataset": ("self_s",),
    "fileio.read_dataset": ("self_s",),
    "fileio.write_run_record": ("self_s",),
    "cli.main": ("self_s",),
}

# Counters kept at the same boundaries, with their units.
COUNTERS = {
    "numerics.matmul.gflop": "GFLOP",
    "model.checkpoint_bytes": "bytes",
    "pipeline.steps": "count",
    "evalkit.run_suite.cells": "count",
    "evalkit.queries": "count",
    "fileio.bytes_read": "bytes",
    "fileio.bytes_written": "bytes",
}


def _dir_bytes(path) -> int:
    with os.scandir(path) as entries:
        return sum(e.stat().st_size for e in entries if e.is_file(follow_symlinks=False))


class Tracer:
    """Span stack plus per-name totals; one instance per traced command."""

    def __init__(self):
        self.stack = []  # [name, start, child_time]
        self.totals = {}  # name -> [calls, self_s]
        self.counters = dict.fromkeys(COUNTERS, 0)

    def active(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def count(self, name: str, args) -> None:
        c = self.counters
        if name == "numerics.matmul":
            (n, k), m = args[0].shape, args[1].shape[1]
            c["numerics.matmul.gflop"] += 2 * n * k * m / 1e9
        elif name == "evalkit.cmc_map":
            c["evalkit.queries"] += args[0].shape[0]
        elif name == "pipeline.train" and self.active("evalkit.run_suite"):
            c["evalkit.run_suite.cells"] += 1
        elif name == "pipeline.sgd_step" and self.active("pipeline.train"):
            c["pipeline.steps"] += 1
        elif name == "model.load_checkpoint":
            c["model.checkpoint_bytes"] += os.path.getsize(args[0])
        elif name == "fileio.read_embedding_file":
            c["fileio.bytes_read"] += os.path.getsize(args[0])
        elif name == "fileio.read_dataset":
            c["fileio.bytes_read"] += os.path.getsize(os.path.join(args[0], "manifest.json"))

    def count_after(self, name: str, args) -> None:
        c = self.counters
        if name == "model.save_checkpoint":
            c["model.checkpoint_bytes"] += os.path.getsize(args[1])
        elif name in ("fileio.write_dataset", "fileio.write_run_record"):
            c["fileio.bytes_written"] += _dir_bytes(args[1])

    def wrap(self, name: str, fn):
        clock = time.perf_counter
        stack = self.stack
        totals = self.totals.setdefault(name, [0, 0.0])

        def traced(*args, **kwargs):
            self.count(name, args)
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = clock() - frame[1]
                totals[0] += 1
                totals[1] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                self.count_after(name, args)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every binding of each traced function in reidlab.*."""
        import importlib

        wrappers = {}
        for name in SPANS:
            mod_name, fn_name = name.split(".")
            fn = getattr(importlib.import_module(f"reidlab.{mod_name}"), fn_name)
            wrappers[id(fn)] = (fn, self.wrap(name, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "reidlab" and not mod_name.startswith("reidlab."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def report(self) -> dict:
        return {
            "layers": {
                name: {"calls": t[0], "self_s": t[1]}
                for name, t in sorted(self.totals.items())
            },
            "counters": self.counters,
        }


def _run_cli(argv) -> int:
    import reidlab.cli

    try:
        return int(reidlab.cli.main(argv) or 0)
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--trace-out")
    mode.add_argument("--profile-out")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    if args.trace_out:
        tracer = Tracer()
        tracer.install()
        try:
            rc = _run_cli(argv)
        finally:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                json.dump(tracer.report(), fh, indent=1, sort_keys=True)
        return rc

    prof = cProfile.Profile()
    rc = prof.runcall(_run_cli, argv)
    text = io.StringIO()
    stats = pstats.Stats(prof, stream=text)
    total = stats.total_tt
    matmul_tt = sum(
        tt for (file, _, fn), (_, _, tt, _, _) in stats.stats.items()
        if fn == "matmul" and file.endswith(os.path.join("reidlab", "numerics.py"))
    )
    stats.sort_stats("tottime").print_stats(10)
    lines = [ln for ln in text.getvalue().splitlines() if ln.strip()]
    head = f"numerics.matmul share of profiled time: {100 * matmul_tt / total:.1f}% of {total:.2f} s"
    with open(args.profile_out, "w", encoding="utf-8") as fh:
        fh.write(head + "\n" + "\n".join(lines) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
