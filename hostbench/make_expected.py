"""Regenerate the benchmark's committed expected outputs in ``data/``.

Run from the repository root, only when a change is *meant* to alter
simulated results or exhibit documents::

    PYTHONPATH=src python3 hostbench/make_expected.py

``data/programs.json`` holds the final PipelineStats and return value of
every seed-independent program of the cycle workloads (each checked
against the FunctionalSimulator before it is written);
``data/exhibits/NAME.json`` holds each exhibit as ``crisp-eval NAME
--json`` prints it.
"""

from __future__ import annotations

import json
import sys

import worker


def main() -> int:
    from repro.sim.cpu import run_cycle_accurate
    from repro.sim.progcache import compile_cached

    programs = {}
    for workload in worker.CYCLE_WORKLOADS:
        other_seed = dict(worker.program_sources(workload, 1))
        for name, source in worker.program_sources(workload, 0):
            if source != other_seed[name]:
                continue  # depends on the seed: checked live only
            program = compile_cached(source)
            cpu = run_cycle_accurate(program)
            problems = worker.functional_mismatches(program, cpu)
            if problems:
                print(f"{name}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            programs[name] = {"stats": cpu.stats.as_dict(),
                              "accum": cpu.state.accum}
            print(f"{name}: {cpu.stats.cycles} cycles")
    worker.DATA.mkdir(exist_ok=True)
    (worker.DATA / "programs.json").write_text(
        json.dumps(programs, indent=1, sort_keys=True) + "\n")

    exhibits = worker.DATA / "exhibits"
    exhibits.mkdir(exist_ok=True)
    for name in worker.EXHIBITS:
        (exhibits / f"{name}.json").write_text(worker.exhibit_text(name)
                                               + "\n")
        print(f"exhibit {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
