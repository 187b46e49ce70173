"""Sensitivity self-test: a deliberately slowed layer must fail the gate.

``BranchFolder.decode`` is slowed by a fixed busy wait through the
benchmark's own wrapper (``worker.py --slow-decode-us``). The traced
run must charge the added time to ``core.folder.self_s`` (and not to
the layers around it), and the untraced ``overflow`` pass must lose
more ``sim_cycles_per_s`` than the bound ``BENCHMARK.json`` fixes.

Run from the repository root (about four minutes)::

    python3 -m pytest hostbench/test_sensitivity.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DELAY_US = 100.0


def bound(name: str) -> float:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(metric["bound"] for metric in spec["end_to_end"]
                if metric["name"] == name)


def overflow_pass(*extra: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("CRISP_CACHE_DIR", None)
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "pass",
         "--workload", "overflow", "--seed", "0", *extra],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
        check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert all(op["ok"] for op in result["ops"]), result["ops"]
    return result


def cycles_per_s(result: dict) -> float:
    return result["model"]["cycles"] / sum(op["s"] for op in result["ops"])


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    traces = tmp_path_factory.mktemp("traces")
    slow = ("--slow-decode-us", str(DELAY_US))
    return {
        "base": overflow_pass(),
        "slow": overflow_pass(*slow),
        "base_traced": overflow_pass("--trace", str(traces / "base.json")),
        "slow_traced": overflow_pass("--trace", str(traces / "slow.json"),
                                     *slow),
    }


def test_slowed_decode_fails_the_throughput_bound(runs):
    base = cycles_per_s(runs["base"])
    slow = cycles_per_s(runs["slow"])
    assert slow < base * (1.0 - bound("sim_cycles_per_s")), (base, slow)


def test_added_time_shows_in_the_folder_layer(runs):
    base = runs["base_traced"]["layers"]
    slow = runs["slow_traced"]["layers"]
    calls = slow["calls"]["core.folder"]
    assert calls == base["calls"]["core.folder"]
    added = calls * DELAY_US / 1e6
    gained = slow["self_s"]["core.folder"] - base["self_s"]["core.folder"]
    # tolerances leave room for host noise across the two traced runs
    assert gained >= 0.75 * added, (gained, added)
    for layer in ("sim.pdu", "sim.eu", "sim.cpu"):
        moved = slow["self_s"][layer] - base["self_s"][layer]
        assert abs(moved) < 0.25 * added, (layer, moved, added)
