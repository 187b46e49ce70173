"""Per-layer host-time accounting for the traced benchmark run.

Each layer's public entry point is replaced, from outside the program,
by a wrapper that keeps busy time and a call count in memory. Wrappers
share one stack of child-time accumulators, so a layer's *self* time is
its busy time minus the time of the wrapped calls nested inside it (the
PDU's self time excludes ``BranchFolder.decode``, the CPU's excludes the
PDU, the decoded cache and the EU, and so on).

Coarse boundaries (compile, assemble, simulate, oracle, ...) are also
recorded as :mod:`repro.obs.spans` spans for the Perfetto export.
Per-cycle entry points only count: a span per simulated cycle would be
millions of records.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

#: (layer, module, attribute path, span name or None) — the span name is
#: set for coarse boundaries only
ENTRY_POINTS: tuple[tuple[str, str, str, str | None], ...] = (
    ("core.folder", "repro.core.folder", "BranchFolder.decode", None),
    ("sim.pdu", "repro.sim.pdu", "PrefetchDecodeUnit.tick", None),
    ("sim.icache", "repro.sim.icache", "DecodedICache.lookup", None),
    ("sim.eu", "repro.sim.eu", "ExecutionUnit.tick", None),
    ("sim.cpu", "repro.sim.cpu", "CrispCpu.run", "simulate"),
    ("sim.reference", "repro.sim.reference", "ReferenceCpu.run",
     "reference"),
    ("sim.functional", "repro.sim.functional", "FunctionalSimulator.run",
     "functional"),
    ("sim.progcache", "repro.sim.progcache", "ProgramCache.get_or_build",
     None),
    ("predict", "repro.predict.harness", "PredictionStudy.observe", None),
    ("lang", "repro.lang.compiler", "compile_source", "compile"),
    ("asm", "repro.asm.assembler", "assemble", "assemble"),
    ("verify.oracle", "repro.verify.oracle", "run_oracle", "oracle"),
    ("verify.generator", "repro.verify.generator", "generate_source",
     "generate_source"),
)

#: generator methods: each ``next()`` on the returned iterator is busy time
GENERATOR_ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("trace.synthetic", "repro.trace.synthetic", "SyntheticWorkload.generate"),
)


def busy_wait(seconds: float) -> None:
    """Spin for ``seconds`` (a sleep would not show as busy host time)."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class LayerClock:
    """Self time and call counts per layer, kept in memory."""

    def __init__(self, recorder=None) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: extra counters filled by ``after`` hooks (instructions, cycles)
        self.counts: dict[str, float] = defaultdict(float)
        self.recorder = recorder
        self._stack = [0.0]
        self._undo: list[tuple[Any, str, Any]] = []

    def wrap(self, layer: str, fn: Callable, span: str | None = None,
             after: Callable | None = None,
             delay_s: float = 0.0) -> Callable:
        """``fn`` with its time charged to ``layer``.

        ``after(args, result)`` runs outside the timed region;
        ``delay_s`` adds a fixed busy wait inside it (the sensitivity
        self-test slows a layer this way).
        """
        clock = time.perf_counter
        stack = self._stack
        own, calls = self.self_s, self.calls
        recorder = self.recorder if span is not None else None

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                if delay_s:
                    busy_wait(delay_s)
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                own[layer] += elapsed - child
                calls[layer] += 1
                if recorder is not None:
                    recorder.end(span, start, category=layer)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def iterate(self, layer: str, iterator: Iterator) -> Iterator:
        """Yield from ``iterator``, charging each ``next()`` to ``layer``."""
        clock = time.perf_counter
        stack = self._stack
        while True:
            stack.append(0.0)
            start = clock()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                self.self_s[layer] += elapsed - child
                self.calls[layer] += 1
            yield item

    # ---- installing wrappers ---------------------------------------------

    def patch(self, module_name: str, path: str,
              make: Callable[[Callable], Callable]) -> None:
        """Replace ``module_name.path`` with ``make(original)``.

        A module-level function is also replaced in every loaded
        ``repro`` module that imported it by name, so callers that did
        ``from x import f`` see the wrapper too.
        """
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, attr)
        replacement = make(original)
        self._set(owner, attr, replacement)
        if owner_name:
            return
        for name, loaded in list(sys.modules.items()):
            if (name.startswith("repro") and loaded is not module
                    and getattr(loaded, attr, None) is original):
                self._set(loaded, attr, replacement)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, after: dict[str, Callable] | None = None,
                delays: dict[str, float] | None = None,
                layers: set[str] | None = None) -> None:
        """Wrap every entry point (or only ``layers``)."""
        after = after or {}
        delays = delays or {}
        for layer, module_name, path, span in ENTRY_POINTS:
            if layers is None or layer in layers:
                self.patch(module_name, path,
                           lambda original, layer=layer, span=span:
                           self.wrap(layer, original, span, after.get(layer),
                                     delays.get(layer, 0.0)))
        for layer, module_name, path in GENERATOR_ENTRY_POINTS:
            if layers is None or layer in layers:
                self.patch(module_name, path,
                           lambda original, layer=layer:
                           lambda *args, **kwargs: self.iterate(
                               layer, original(*args, **kwargs)))

    def uninstall(self) -> None:
        """Restore every patched attribute (latest first)."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

