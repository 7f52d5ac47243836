"""reidlab benchmark: times CLI workloads end to end and layer by layer.

    python3 benchmarks/run.py --workload suite-clean --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all

The program is taken from the src/ next to this directory. One process
drives the load as a closed loop: it starts one CLI child at a time
(`python -m reidlab.cli ...`, PYTHONPATH=src, BLAS/OpenMP pools pinned
to one thread) and starts the next when the previous one has exited. A
run repeats whole rounds of the workload's command sequence while the
next round is expected to end within --seconds (at least three rounds),
checks that every round wrote the same bytes as the first and that the
first round's outputs agree with independent references, and prints one
JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics. --trace 1 alternates plain
rounds with rounds whose commands run under tracer.py and reports the
per-layer metrics instead; suite-clean also gets one cProfile round.
README.md defines every metric. Exit status: 0 when every check passed,
1 when one failed, 2 when there is no program to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COUNTERS, SPANS
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = ROOT / ".bench-runs"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PLAIN_ROUNDS = 3
SETUP_SAMPLES = 9

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Byte-code is cached as a user's interpreter caches it, outside the
    # source tree; the warm-up import in measure_setup fills the cache.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(RUNS_DIR / "pycache")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def machine_info(env: dict) -> dict:
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "threads": {var: env[var] for var in THREAD_VARS},
    }


def run_child(argv, cwd: Path, env: dict, log_stem: Path = None) -> tuple:
    """Run one child to completion; returns (exit code, wall s, peak RSS MB)."""
    out = open(f"{log_stem}.stdout", "wb") if log_stem else subprocess.DEVNULL
    err = open(f"{log_stem}.stderr", "wb") if log_stem else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if log_stem:
            out.close()
            err.close()
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def measure_setup(env: dict) -> list:
    """Wall time of fresh interpreters importing reidlab.cli (one warm-up)."""
    argv = [sys.executable, "-c", "import reidlab.cli"]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        rc, wall, _ = run_child(argv, ROOT, env)
        if rc != 0:
            raise RuntimeError("importing reidlab.cli failed")
        if i:
            samples.append(wall)
    return samples


def run_round(wl, run_dir: Path, index: int, mode: str, env: dict) -> dict:
    """One pass over the workload's commands in rounds/r<index>."""
    rdir = run_dir / "rounds" / f"r{index}"
    rdir.mkdir(parents=True)
    for name, text in wl.files().items():
        (rdir / name).write_text(text, encoding="utf-8")
    res = {"dir": rdir, "mode": mode, "ops": 0, "failed": 0, "wall": 0.0,
           "train_wall": 0.0, "eval_wall": 0.0, "rss": 0.0, "traces": []}
    for i, cmd in enumerate(wl.commands()):
        if mode == "plain":
            argv = [sys.executable, "-m", "reidlab.cli", *cmd.argv]
        else:
            side = run_dir / f"{mode}-r{index}-c{i}.{'json' if mode == 'traced' else 'txt'}"
            flag = "--trace-out" if mode == "traced" else "--profile-out"
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), flag, str(side), "--", *cmd.argv]
            res["traces"].append(side)
        rc, wall, rss = run_child(argv, rdir, env, rdir / f"cmd{i}")
        res["ops"] += 1 + cmd.cells
        if rc != 0:
            res["failed"] += 1 + cmd.cells
        res["wall"] += wall
        res["rss"] = max(res["rss"], rss)
        if cmd.trains:
            res["train_wall"] += wall
        if cmd.kind == "eval":
            res["eval_wall"] += wall
    return res


def checks_child(env: dict, *args) -> dict:
    """Run checks.py (numpy lives there, not in this process)."""
    argv = [sys.executable, str(BENCH_DIR / "checks.py"), *map(str, args)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"errors": [f"checks.py {args[0]} failed: {proc.stderr.strip()[-2000:]}"], "notes": []}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def same_bytes(a: Path, b: Path) -> list:
    """Files that differ between two round directories."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    diff = sorted(str(p) for p in files_a ^ files_b)
    diff += sorted(str(p) for p in files_a & files_b if (a / p).read_bytes() != (b / p).read_bytes())
    return diff


def layer_metrics(traced: list, plain: list, wl) -> dict:
    """Per-layer metrics of the fastest traced round, summed over its commands."""
    fastest = min(traced, key=lambda r: r["wall"])
    spans, c = {}, {}
    for path in fastest["traces"]:
        rep = json.loads(Path(path).read_text(encoding="utf-8"))
        for name, t in rep["layers"].items():
            acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += t["calls"]
            acc["self_s"] += t["self_s"]
        for name, v in rep["counters"].items():
            c[name] = c.get(name, 0) + v
    out = {}
    for name, fields in SPANS.items():
        for field in fields:
            unit = "s" if field == "self_s" else "count"
            out[f"{name}.{field}"] = (spans.get(name, {field: 0})[field], unit)
    for name, unit in COUNTERS.items():
        out[name] = (c[name], unit)
    matmul_s = out["numerics.matmul.self_s"][0]
    out["numerics.matmul.gflop_per_s"] = (c["numerics.matmul.gflop"] / matmul_s, "GFLOP/s")
    out["numerics.matmul.share"] = (100.0 * matmul_s / fastest["wall"], "%")
    fastest_plain = min(plain, key=lambda r: r["wall"])
    out["tracing.overhead_s"] = (fastest["wall"] - fastest_plain["wall"], "s")
    # Rates of the commands that train or evaluate, from the fastest
    # plain round; 0 on a workload without such a command.
    for name, unit, work, key in (
        ("cli.train.samples_per_s", "samples/s", wl.train_samples(plain[0]["dir"]), "train_wall"),
        ("cli.eval.queries_per_s", "queries/s", wl.queries(plain[0]["dir"]), "eval_wall"),
    ):
        out[name] = (work / fastest_plain[key] if work else 0.0, unit)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name](seed)
    env = child_env()
    run_dir = RUNS_DIR / f"{name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    print("machine:", json.dumps(machine_info(env), sort_keys=True), flush=True)

    setup = measure_setup(env)
    errors = checks_child(env, "prepare", name, seed, run_dir)["errors"]
    notes, rounds = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        plain_n = sum(r["mode"] == "plain" for r in rounds)
        traced_n = len(rounds) - plain_n
        enough = (plain_n >= 2 and traced_n >= 2) if trace else plain_n >= MIN_PLAIN_ROUNDS
        # Start another round only if it should end within --seconds.
        if enough and time.perf_counter() - start + rounds[-1]["wall"] > seconds:
            break
        mode = "traced" if trace and plain_n > traced_n else "plain"
        rounds.append(run_round(wl, run_dir, len(rounds), mode, env))
    if trace and wl.profile:
        rounds.append(run_round(wl, run_dir, len(rounds), "profile", env))

    for res in rounds:
        attempted += res["ops"]
        failed += res["failed"]
    good = [r for r in rounds if r["failed"] == 0]
    first = good[0] if good else None
    if first is None:
        errors.append("no round completed without a failed operation")
    else:
        for res in good[1:]:
            diff = same_bytes(first["dir"], res["dir"])
            if diff:
                errors.append(f"{res['mode']} round {res['dir'].name} differs from "
                              f"{first['dir'].name} in {diff[:5]}")
        out = checks_child(env, "check", name, seed, run_dir, first["dir"])
        errors += out["errors"]
        notes = out["notes"]

    plain = [r for r in good if r["mode"] == "plain"]
    traced = [r for r in good if r["mode"] == "traced"]
    metrics = {}
    if trace and plain and traced:
        metrics = layer_metrics(traced, plain, wl)
        for res in good:
            if res["mode"] == "profile":
                print((Path(res["traces"][0])).read_text(encoding="utf-8"), end="")
    elif not trace and plain:
        metrics = {
            "wall_s": (statistics.median(r["wall"] for r in plain), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (max(r["rss"] for r in plain), "MB"),
        }
    print("rounds:", json.dumps([[r["mode"], round(r["wall"], 4)] for r in rounds]))
    print("setup:", json.dumps([round(t, 4) for t in setup]))
    for note in notes:
        print(f"[{name}] {note}")
    for err in errors:
        print(f"CHECK FAILED [{name}]: {err}", file=sys.stderr)
    if not errors:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="reidlab benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run still stops and reaps the child it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "reidlab" / "cli.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'reidlab'} is missing", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results[name] = res
        print(f"[{name}] correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, v in res["metrics"].items():
            print(f"[{name}] {metric} = {v['value']:.6g} {v['unit']}")
    final = results[names[0]] if len(names) == 1 else results
    print(json.dumps(final, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
