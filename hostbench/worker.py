"""One fresh-interpreter measurement of a benchmark workload.

``run.py`` starts this file as a child process for every sample, so each
sample pays the cold cost a ``crisp-*`` invocation pays: fresh imports,
an empty in-memory program cache, no ``CRISP_CACHE_DIR``. Modes:

``setup``
    Imports plus building the workload's inputs (compiling and
    assembling its programs, loading expected exhibits, building the
    fuzz task list); reports the time that took.
``pass``
    Set-up, then one pass over the workload's operations, each timed on
    its own, then the output checks (outside the timed region).
    ``--trace`` adds per-layer accounting (see :mod:`layers`) and writes
    a Perfetto trace; ``--engine`` runs a cycle workload on another
    engine tier or on a disabled event bus.

The last line on stdout is one JSON object with the results.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from layers import LayerClock  # noqa: E402

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"

#: programs whose decoded-cache working set overflows the 32 entries
OVERFLOW_SUITE = ("puzzle", "dhry_like", "cwhet_int", "strings")
OVERFLOW_WORKING_SET = 96  #: instructions in the seeded working_set loop
#: programs that fit the decoded cache (figure3 is added in front)
RESIDENT_SUITE = ("matrix", "alternating", "sieve", "fib", "collatz")
RESIDENT_SYNTHETIC = ("gen_branchy2", "gen_branchy8", "gen_biased5",
                      "gen_alternating")
EXHIBITS = ("table1", "table2", "table3", "table4", "dynfold", "figures",
            "branch-stats")
#: fuzz tasks per pass: crisp-verify fuzz's default --programs
FUZZ_TASKS = 200

CYCLE_WORKLOADS = ("overflow", "resident")
WORKLOADS = CYCLE_WORKLOADS + ("exhibits", "fuzz")
OPS_PER_PASS = {
    "overflow": len(OVERFLOW_SUITE) + 1,
    "resident": 1 + len(RESIDENT_SUITE) + len(RESIDENT_SYNTHETIC),
    "exhibits": len(EXHIBITS),
    "fuzz": FUZZ_TASKS,
}
ENGINES = ("fast", "blockspec", "batched", "nobus")


def program_sources(workload: str, seed: int) -> list[tuple[str, str]]:
    """(name, mini-C source) of a cycle workload's programs, in run order."""
    from repro.workloads import FIGURE3, SUITE, synthetic_suite
    from repro.workloads.generators import working_set
    if workload == "overflow":
        sources = [(name, SUITE[name].source) for name in OVERFLOW_SUITE]
        sources.append((f"working_set{OVERFLOW_WORKING_SET}",
                        working_set(OVERFLOW_WORKING_SET, seed=seed)))
        return sources
    synthetic = synthetic_suite(seed)
    return ([("figure3", FIGURE3)]
            + [(name, SUITE[name].source) for name in RESIDENT_SUITE]
            + [(name, synthetic[name].source)
               for name in RESIDENT_SYNTHETIC])


def fuzz_tasks(seed: int, index: int) -> list:
    """Pass ``index``'s slice of the task list ``crisp-verify fuzz --seed
    SEED`` builds (default profiles and policy mix, stress on, engine
    fast): tasks are numbered absolutely, so pass k runs the tasks that
    ``--programs`` (k+1)*200 adds after k*200."""
    from repro.verify.cli import _tasks
    from repro.verify.generator import PROFILES
    return _tasks(seed, index * FUZZ_TASKS, FUZZ_TASKS, list(PROFILES),
                  stress=True)


def exhibit_text(name: str) -> str:
    """An exhibit exactly as ``crisp-eval NAME --json`` prints it."""
    from repro.eval.jsonout import exhibit_json
    return json.dumps(exhibit_json(name), sort_keys=True)


# ---- set-up ----------------------------------------------------------------


def setup(workload: str, seed: int, index: int) -> list[tuple[str, object]]:
    """Build the workload's inputs: (operation name, input) pairs.

    Each branch also imports the entry point its operations call, so
    import time counts as set-up, not as the first operation.
    """
    if workload in CYCLE_WORKLOADS:
        from repro.sim.cpu import run_cycle_accurate  # noqa: F401
        from repro.sim.progcache import compile_cached
        return [(name, compile_cached(source))
                for name, source in program_sources(workload, seed)]
    if workload == "exhibits":
        import repro.eval.jsonout  # noqa: F401
        return [(name, (DATA / "exhibits" / f"{name}.json").read_text())
                for name in EXHIBITS]
    from repro.verify.runner import run_fuzz_task  # noqa: F401
    return [(f"{task.profile}/{task.seed}", task)
            for task in fuzz_tasks(seed, index)]


# ---- operations -------------------------------------------------------------


def make_operation(workload: str, engine: str):
    """``operation(name, input)`` through the public entry point."""
    if workload in CYCLE_WORKLOADS:
        from repro.obs.events import EventBus
        from repro.sim.cpu import CpuConfig, run_cycle_accurate
        if engine == "nobus":
            return lambda name, program: run_cycle_accurate(
                program, obs=EventBus(enabled=False))
        config = CpuConfig(engine=engine) if engine != "fast" else None
        return lambda name, program: run_cycle_accurate(program, config)
    if workload == "exhibits":
        return lambda name, expected: exhibit_text(name)
    from repro.verify.runner import run_fuzz_task
    return lambda name, task: run_fuzz_task(task)


def run_pass(workload: str, inputs: list, engine: str, recorder=None
             ) -> list[dict]:
    """Time every operation; an exception is a failed operation."""
    operation = make_operation(workload, engine)
    records = []
    clock = time.perf_counter
    for name, item in inputs:
        record: dict = {"name": name, "ok": True}
        start = clock()
        try:
            result = operation(name, item)
        except Exception as exc:  # a watchdog trip or a crash of one op
            result = None
            record["ok"] = False
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["s"] = clock() - start
        if recorder is not None:
            recorder.end(name, start, category="op")
        record["result"] = result
        records.append(record)
    return records


# ---- output checks ---------------------------------------------------------


def check_pass(workload: str, inputs: list, records: list[dict],
               functional: bool) -> None:
    """Mark each record ok/failed against committed and recomputed truth.

    Cycle workloads: the final PipelineStats and return value must equal
    the committed values (programs that do not depend on the seed), and
    the architectural result — return value, memory and ExecutionStats —
    must equal a FunctionalSimulator run (for every program with
    ``functional``, else only for the seed-dependent ones). Exhibits
    must be byte-identical to the committed JSON; every fuzz report must
    be ok. Results are replaced by what ``run.py`` needs to compare.
    """
    expected = (json.loads((DATA / "programs.json").read_text())
                if workload in CYCLE_WORKLOADS else {})
    for (name, item), record in zip(inputs, records):
        result = record.pop("result")
        if not record["ok"]:
            continue
        problems = []
        if workload in CYCLE_WORKLOADS:
            stats = result.stats.as_dict()
            record["stats"] = stats
            want = expected.get(name)
            if want is not None:
                if stats != want["stats"]:
                    problems.append("PipelineStats differ from committed")
                if result.state.accum != want["accum"]:
                    problems.append("return value differs from committed")
            if functional or want is None:
                problems += functional_mismatches(item, result)
        elif workload == "exhibits":
            if result != item.rstrip("\n"):
                problems.append("exhibit JSON differs from committed")
        elif not result.ok:
            problems.append("; ".join(result.mismatches[:3])
                            or "fuzz report not ok")
        if problems:
            record["ok"] = False
            record["error"] = "; ".join(problems)


def functional_mismatches(program, cpu) -> list[str]:
    from repro.sim.functional import run_program
    reference = run_program(program)
    problems = []
    if reference.state.accum != cpu.state.accum:
        problems.append("return value differs from FunctionalSimulator")
    if reference.memory.snapshot() != cpu.memory.snapshot():
        problems.append("memory differs from FunctionalSimulator")
    if reference.stats.as_dict() != cpu.stats.execution.as_dict():
        problems.append("ExecutionStats differ from FunctionalSimulator")
    return problems


# ---- counters and traces ---------------------------------------------------


class ModelTotals:
    """Simulated-time totals over every cycle-accurate run in the pass."""

    FIELDS = ("cycles", "issued_instructions", "executed_instructions",
              "folded_branches", "icache_misses", "icache_hits")

    def __init__(self) -> None:
        self.totals = dict.fromkeys(self.FIELDS, 0)

    def add(self, args, result) -> None:
        stats = args[0].stats
        for field in self.FIELDS:
            self.totals[field] += getattr(stats, field)


def count_traced_cycles(clock: LayerClock, counter: list[int]) -> None:
    """Sum ``BlockSpecEngine.try_trace`` return values: the cycles spent
    in compiled traces, measured from outside the engine."""

    def make(original):
        def try_trace(self, remaining):
            consumed = original(self, remaining)
            counter[0] += consumed
            return consumed
        return try_trace

    clock.patch("repro.sim.blockspec", "BlockSpecEngine.try_trace", make)


def import_layers() -> None:
    """Import every traced layer, so wrappers replace names imported
    with ``from x import f`` before anything runs."""
    import repro.eval.jsonout  # noqa: F401
    import repro.predict.harness  # noqa: F401
    import repro.sim.cpu  # noqa: F401
    import repro.sim.functional  # noqa: F401
    import repro.sim.progcache  # noqa: F401
    import repro.sim.reference  # noqa: F401
    import repro.trace.synthetic  # noqa: F401
    import repro.verify.runner  # noqa: F401
    import repro.workloads  # noqa: F401


def write_trace(path: Path, recorder, origin: float, workload: str,
                seed: int) -> None:
    from repro.obs.spans import TrackSpans, campaign_trace_events
    events = campaign_trace_events(
        [TrackSpans(0, f"{workload} seed {seed}", recorder.spans)],
        origin, process_name="hostbench")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))


# ---- entry point ------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "pass"))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0,
                        help="pass number (selects the fuzz task slice)")
    parser.add_argument("--engine", choices=ENGINES, default="fast",
                        help="cycle workloads: engine tier, or nobus (the "
                             "fast engine on a disabled event bus)")
    parser.add_argument("--functional", action="store_true",
                        help="also check cycle runs against the "
                             "FunctionalSimulator")
    parser.add_argument("--trace", metavar="FILE",
                        help="per-layer accounting; Perfetto trace to FILE")
    parser.add_argument("--slow-decode-us", type=float, default=0.0,
                        help="busy-wait this long inside every "
                             "BranchFolder.decode (sensitivity self-test)")
    args = parser.parse_args(argv)

    recorder = None
    if args.trace:
        from repro.obs.spans import SpanRecorder, activate
        import_layers()
        recorder = SpanRecorder(clock=time.perf_counter)
        activate(recorder)
    clock = LayerClock(recorder)
    model = ModelTotals()

    def count_instructions(call_args, result) -> None:
        clock.counts["sim.functional.instructions"] += (
            call_args[0].stats.instructions)

    # untraced passes wrap CrispCpu.run alone (once per simulation, not
    # per cycle) to count simulated cycles, plus the decode layer when
    # the sensitivity self-test slows it
    layers = None
    if not args.trace:
        layers = {"sim.cpu"} | ({"core.folder"} if args.slow_decode_us
                                else set())
    clock.install(after={"sim.cpu": model.add,
                         "sim.functional": count_instructions},
                  delays={"core.folder": args.slow_decode_us / 1e6},
                  layers=layers)
    traced_cycles = [0]
    if args.engine == "blockspec":
        count_traced_cycles(clock, traced_cycles)

    inputs = setup(args.workload, args.seed, args.index)
    setup_s = time.perf_counter() - STARTED
    if recorder is not None:
        recorder.end("setup", STARTED, category="setup")
    out: dict = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    records = run_pass(args.workload, inputs, args.engine, recorder)
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    clock.uninstall()
    if args.trace:
        from repro.sim.progcache import default_cache
        cache = default_cache().stats()
        out["layers"] = {"self_s": dict(clock.self_s),
                         "calls": dict(clock.calls),
                         "counts": dict(clock.counts),
                         "progcache": {"hits": cache["hits"],
                                       "misses": cache["misses"]}}
        write_trace(Path(args.trace), recorder, STARTED, args.workload,
                    args.seed)
    check_pass(args.workload, inputs, records, args.functional)
    out["ops"] = records
    out["model"] = model.totals
    out["traced_cycles"] = traced_cycles[0]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
