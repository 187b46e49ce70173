"""Layered host-time benchmark of the CRISP simulator.

Run from the repository root::

    python3 hostbench/run.py --workload overflow --seed 1 \
        --seconds 20 --trace 0

Every sample is a fresh interpreter (``worker.py``) with an empty
in-memory program cache and ``CRISP_CACHE_DIR`` unset, running one
workload serially through the public entry points. This file only
starts the children, checks and aggregates what they report, and prints
the metrics; the last line of stdout is one JSON object.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a
separate traced run and prints the per-layer metrics. See README.md for
the workloads, the metrics and why each exists.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import ENTRY_POINTS, GENERATOR_ENTRY_POINTS
from worker import CYCLE_WORKLOADS, EXHIBITS, OPS_PER_PASS

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

#: host seconds one pass takes on the reference host (2 vCPUs, Python
#: 3.11); a run makes round(--seconds / this) passes, at least one, so the
#: amount of work in a run does not depend on how fast the host is
PASS_SECONDS = {"overflow": 25.0, "resident": 2.5, "exhibits": 14.0,
                "fuzz": 9.0}
#: set-up is sampled at least this often per run (median reported)
SETUP_SAMPLES = 9
#: live/disabled event-bus pass pairs behind obs.overhead_frac (resident)
OBS_PAIRS = 5
#: the whole run must end within 180 s
RUN_DEADLINE_S = 170.0
#: every layer reports ``<layer>.self_s``
SELF_TIME_LAYERS = tuple(entry[0] for entry
                         in ENTRY_POINTS + GENERATOR_ENTRY_POINTS)


class ChildFailed(Exception):
    """A worker exited badly, printed no result or ran out of time."""


class Run:
    """Starts worker children against one deadline and keeps the tally."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        env = dict(os.environ)
        env.pop("CRISP_CACHE_DIR", None)
        src = str(Path.cwd() / "src")
        env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src)
        self.env = env

    def child(self, mode: str, *extra: str) -> dict:
        command = [sys.executable, str(WORKER), mode,
                   "--workload", self.workload, "--seed", str(self.seed),
                   *extra]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildFailed("run deadline reached")
        try:
            done = subprocess.run(command, env=self.env, text=True,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{mode} {' '.join(extra)}: timed out") from None
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
            raise ChildFailed(f"{mode} {' '.join(extra)}: exit "
                              f"{done.returncode}: {tail[0]}")
        return json.loads(lines[-1])

    def measured_pass(self, *extra: str) -> dict | None:
        """One pass; its operations join the attempted/failed tally."""
        try:
            result = self.child("pass", *extra)
        except ChildFailed as exc:
            self.attempted += OPS_PER_PASS[self.workload]
            self.failed += OPS_PER_PASS[self.workload]
            self.errors.append(str(exc))
            return None
        for op in result["ops"]:
            self.attempted += 1
            if not op["ok"]:
                self.failed += 1
                self.errors.append(f"{op['name']}: {op.get('error')}")
        return result

    def fail_ops(self, result: dict, name: str, why: str) -> None:
        """Mark an operation that passed its own checks as failed."""
        for op in result["ops"]:
            if op["name"] == name and op["ok"]:
                op["ok"] = False
                self.failed += 1
                self.errors.append(f"{name}: {why}")


def work_s(result: dict) -> float:
    return sum(op["s"] for op in result["ops"])


def cycles_per_s(result: dict) -> float:
    return result["model"]["cycles"] / work_s(result)


def same_stats(run: Run, reference: dict, other: dict, what: str) -> None:
    """Cycle workloads are deterministic: every pass and every engine arm
    must produce bit-identical PipelineStats for each program."""
    want = {op["name"]: op.get("stats") for op in reference["ops"]}
    for op in other["ops"]:
        if op["ok"] and op.get("stats") != want.get(op["name"]):
            run.fail_ops(other, op["name"], f"{what}: PipelineStats differ")


# ---- end-to-end run --------------------------------------------------------


def end_to_end(run: Run, seconds: int) -> dict:
    passes = max(1, round(seconds / PASS_SECONDS[run.workload]))
    setups: list[float] = []
    results: list[dict] = []
    for _ in range(max(0, SETUP_SAMPLES - passes)):
        setups.append(run.child("setup")["setup_s"])
    for index in range(passes):
        extra = ["--index", str(index)]
        if index == 0:
            extra.append("--functional")
        result = run.measured_pass(*extra)
        if result is None:
            continue
        setups.append(result["setup_s"])
        if results and run.workload in CYCLE_WORKLOADS:
            same_stats(run, results[0], result, f"pass {index}")
        results.append(result)
    if not results:
        raise ChildFailed("no pass completed: " + "; ".join(run.errors[:3]))

    # each operation counts once, at its median over the passes that ran
    # it, so a burst of host noise in one pass does not move the sums
    per_op: dict[str, list[float]] = {}
    for result in results:
        for op in result["ops"]:
            per_op.setdefault(op["name"], []).append(op["s"])
    op_s = [statistics.median(times) for times in per_op.values()]
    ops_per_pass = len(results[0]["ops"])
    wall = sum(op_s) * ops_per_pass / len(op_s)
    cycles = sum(r["model"]["cycles"] for r in results) / len(results)
    if run.workload in CYCLE_WORKLOADS:
        print_programs(results[0])
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "sim_cycles_per_s": (cycles / wall, "cyc/s"),
        "ops_per_s": (ops_per_pass / wall, "1/s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), "MB"),
        "ok_frac": ((run.attempted - run.failed) / run.attempted, "ratio"),
    }


def print_programs(result: dict) -> None:
    """Per-program simulated time and the decoded-cache miss share."""
    print(f"{'program':18} {'cycles':>8} {'miss_ratio':>10} {'host_s':>7}")
    for op in result["ops"]:
        stats = op.get("stats")
        if stats is None:
            continue
        fetches = stats["icache_hits"] + stats["icache_misses"]
        print(f"{op['name']:18} {stats['cycles']:8d} "
              f"{stats['icache_misses'] / fetches:10.3f} {op['s']:7.3f}")


# ---- traced run -------------------------------------------------------------


def per_layer(run: Run) -> dict:
    """An untraced pass, then a traced pass, then (cycle workloads) the
    same pass on the blockspec and batched tiers; ``resident`` also
    alternates untraced passes on a live and a disabled event bus. Each
    pass is a fresh interpreter, so every arm is measured cold."""
    base = run.measured_pass()
    if base is None:
        raise ChildFailed("untraced pass failed: " + run.errors[-1])
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"{run.workload}-seed{run.seed}-trace.json"
    traced = run.measured_pass("--trace", str(trace_path))
    if traced is None:
        raise ChildFailed("traced pass failed: " + run.errors[-1])
    arms: dict[str, dict | None] = {}
    if run.workload in CYCLE_WORKLOADS:
        same_stats(run, base, traced, "traced pass")
        for engine in ("blockspec", "batched"):
            arms[engine] = run.measured_pass("--engine", engine)
            if arms[engine] is not None:
                same_stats(run, base, arms[engine], f"{engine} engine")
    bus_ratios = []
    if run.workload == "resident":
        # the bus costs a few per cent, less than one pass's noise on a
        # shared host: take the median over alternating pairs
        live = base
        for pair in range(OBS_PAIRS):
            if pair:
                live = run.measured_pass()
            off = run.measured_pass("--engine", "nobus")
            if live is None or off is None:
                continue
            same_stats(run, base, off, "disabled event bus")
            bus_ratios.append(work_s(live) / work_s(off))

    layers = traced["layers"]
    metrics: dict[str, tuple[float, str]] = {}
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = (layers["self_s"].get(layer, 0.0), "s")
    calls = layers["calls"]
    metrics["core.folder.calls"] = (calls.get("core.folder", 0), "count")
    metrics["sim.icache.calls"] = (calls.get("sim.icache", 0), "count")
    metrics["asm.calls"] = (calls.get("asm", 0), "count")
    metrics["predict.events"] = (calls.get("predict", 0), "count")
    metrics["sim.functional.instructions"] = (
        layers["counts"].get("sim.functional.instructions", 0), "count")
    metrics["sim.progcache.hits"] = (layers["progcache"]["hits"], "count")
    metrics["sim.progcache.misses"] = (layers["progcache"]["misses"],
                                       "count")
    by_name = {op["name"]: op["s"] for op in base["ops"]}
    deciles = (statistics.quantiles(by_name.values(), n=10,
                                    method="inclusive")
               if run.workload == "fuzz" else [0.0] * 9)
    metrics["verify.runner.task_p50_ms"] = (deciles[4] * 1e3, "ms")
    metrics["verify.runner.task_p90_ms"] = (deciles[8] * 1e3, "ms")
    for exhibit in EXHIBITS:
        metrics[f"eval.{exhibit}.s"] = (
            by_name.get(exhibit, 0.0) if run.workload == "exhibits" else 0.0,
            "s")
    blockspec, batched = arms.get("blockspec"), arms.get("batched")
    metrics["sim.blockspec.cycles_per_s"] = (
        cycles_per_s(blockspec) if blockspec else 0.0, "cyc/s")
    metrics["sim.blockspec.traced_frac"] = (
        blockspec["traced_cycles"] / blockspec["model"]["cycles"]
        if blockspec else 0.0, "ratio")
    metrics["sim.batched.cycles_per_s"] = (
        cycles_per_s(batched) if batched else 0.0, "cyc/s")
    metrics["obs.overhead_frac"] = (
        statistics.median(bus_ratios) - 1.0 if bus_ratios else 0.0, "ratio")
    metrics["trace.overhead_frac"] = (work_s(traced) / work_s(base) - 1.0,
                                      "ratio")
    model = traced["model"]
    fetches = model["icache_hits"] + model["icache_misses"]
    metrics["model.cycles"] = (model["cycles"], "cycles")
    metrics["model.issued"] = (model["issued_instructions"], "count")
    metrics["model.folded"] = (model["folded_branches"], "count")
    metrics["model.icache_misses"] = (model["icache_misses"], "count")
    metrics["model.miss_ratio"] = (
        model["icache_misses"] / fetches if fetches else 0.0, "ratio")
    metrics["model.cpi"] = (
        model["cycles"] / model["executed_instructions"]
        if model["executed_instructions"] else 0.0, "cyc/instr")

    print_layers(layers, traced["setup_s"] + work_s(traced))
    if run.workload in CYCLE_WORKLOADS:
        print_programs(base)
    print(f"perfetto trace: {trace_path.relative_to(Path.cwd())}")
    return metrics


def print_layers(layers: dict, traced_s: float) -> None:
    """Host time by layer (set-up included), largest self time first."""
    own = layers["self_s"]
    print(f"{'layer':18} {'self_s':>8} {'share':>6} {'calls':>10}")
    for layer in sorted(own, key=own.get, reverse=True):
        print(f"{layer:18} {own[layer]:8.3f} {own[layer] / traced_s:6.1%} "
              f"{layers['calls'][layer]:10d}")
    print(f"{'(not in a layer)':18} {traced_s - sum(own.values()):8.3f}")


# ---- entry point ------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(PASS_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path.cwd() / "src" / "repro" / "__init__.py").is_file():
        print("hostbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    try:
        metrics = (per_layer(run) if args.trace
                   else end_to_end(run, args.seconds))
    except ChildFailed as exc:
        print(f"hostbench: {exc}", file=sys.stderr)
        return 1
    for error in run.errors:
        print(f"FAILED {error}", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
