"""Layer spans recorded from outside the program.

:class:`Tracer` replaces each layer's public entry point at its import
site (the module attribute its callers look up) with a wrapper that opens
a span, and puts the originals back on :meth:`Tracer.uninstall`.  Spans
nest through one stack; a span's self time is its duration minus its
children's.  Only the main thread records: helper threads call through
unrecorded, and forked workers record into their own copy of the tracer,
which is discarded with them.

The registry (``repro.observe``) supplies what no public call exposes:
the campaign phases (through ``phase_timer`` at its import sites) and the
prune, vector, journal, shard and exec counters (through
:func:`registry_totals` deltas).
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: ``phase_timer`` phase -> layer span.
PHASES = {
    "campaign.reference": "injection.reference",
    "campaign.injections": "injection.faults",
    "campaign.merge": "fanout.merge",
}

#: (module, attribute, span, count) for every wrapped entry point.  ``count``
#: names a per-request count and how to read it off the call's result.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Tuple[str, Callable]]], ...] = (
    ("repro.compiler.pipeline", "parse_source", "lang.parse", None),
    ("repro.compiler.pipeline", "check_source", "lang.check", None),
    ("repro.lang", "parse_source", "lang.parse", None),
    ("repro.lang", "check_source", "lang.check", None),
    ("repro.lang", "interpret", "lang.interp", None),
    ("repro.compiler.pipeline", "lower_source", "compiler.lower", None),
    ("repro.compiler", "compile_source", "compiler.emit",
     ("compiler.instrs", lambda compiled: compiled.program.size)),
    ("repro.program", "check_program", "types.check", None),
    ("repro.simulator", "simulate", "simulator.simulate",
     ("simulator.cycles", lambda timing: timing.cycles)),
    ("repro.exec.cache", "compile_program", "exec.compile", None),
    ("repro.injection.prune", "analysis_for", "prune.analysis", None),
    ("repro.verify.theorems", "check_no_false_positives", "verify.theorems",
     None),
    ("repro.fuzz.generator", "generate_program", "fuzz.generate", None),
    ("repro.fuzz.oracle", "check_program", "fuzz.oracle", None),
    ("repro.injection.campaign", "run_campaign", "injection.campaign",
     ("injection.executed", lambda report: report.injections)),
    ("repro.fuzz.oracle", "run_campaign", "injection.campaign",
     ("injection.executed", lambda report: report.injections)),
    ("repro.service.coordinator", "run_campaign_sharded",
     "fanout.coordinator",
     ("injection.executed", lambda report: report.injections)),
)

#: Methods wrapped on their class: (module, class, method, span).
METHODS = (
    ("repro.injection.journal", "CampaignJournal", "append_step",
     "journal.append"),
    ("repro.injection.journal", "CampaignJournal", "append_raw",
     "journal.append"),
)

#: Classes replaced at one import site by a subclass whose method is
#: wrapped: the oracle's differential machine runs, and no others (the
#: campaign's own runs belong to its phases).
SUBCLASS_SITES = (
    ("repro.fuzz.oracle", "Machine", "run", "exec.run"),
)

#: Modules whose ``phase_timer`` import is wrapped.
PHASE_SITES = ("repro.injection.campaign", "repro.service.coordinator")


class Tracer:
    """Nested spans with self time, aggregated per layer per request."""

    def __init__(self) -> None:
        self._main = threading.main_thread()
        self._patches: List[Tuple[object, str, object]] = []
        self.reset()

    # -- recording ----------------------------------------------------------

    def reset(self) -> None:
        """Start a new request: zero the per-layer totals."""
        #: Open spans: [name, start, child seconds].
        self._stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)

    def _recording(self) -> bool:
        return threading.current_thread() is self._main

    def open(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def close(self) -> None:
        name, start, children = self._stack.pop()
        duration = time.perf_counter() - start
        if self._stack:
            self._stack[-1][2] += duration
        self.self_s[name] += duration - children
        self.total_s[name] += duration

    # -- installation -------------------------------------------------------

    def _wrap(self, fn: Callable, name: str,
              count: Optional[Tuple[str, Callable]]) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._recording():
                return fn(*args, **kwargs)
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if count is not None:
                tracer.counts[count[0]] += count[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_phase_timer(self, phase_timer: Callable) -> Callable:
        tracer = self

        class TracedPhase:
            def __init__(self, phase, *args, **kwargs):
                self._inner = phase_timer(phase, *args, **kwargs)
                self._span = PHASES.get(phase) if tracer._recording() \
                    else None

            def __enter__(self):
                if self._span is not None:
                    tracer.open(self._span)
                return self._inner.__enter__()

            def __exit__(self, *exc):
                try:
                    return self._inner.__exit__(*exc)
                finally:
                    if self._span is not None:
                        tracer.close()

        return TracedPhase

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for module_name, attr, name, count in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            self._patch(module, attr,
                        self._wrap(getattr(module, attr), name, count))
        for module_name, class_name, method, name in METHODS:
            owner = getattr(importlib.import_module(module_name), class_name)
            self._patch(owner, method,
                        self._wrap(getattr(owner, method), name, None))
        for module_name, attr, method, name in SUBCLASS_SITES:
            module = importlib.import_module(module_name)
            base = getattr(module, attr)
            traced = self._wrap(getattr(base, method), name, None)
            self._patch(module, attr,
                        type(base.__name__, (base,), {method: traced}))
        for module_name in PHASE_SITES:
            module = importlib.import_module(module_name)
            self._patch(module, "phase_timer",
                        self._wrap_phase_timer(module.phase_timer))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def registry_totals() -> Tuple[Dict[str, float], Dict[str, float]]:
    """Counter values and histogram sums of the default registry, summed
    over label sets (fleet workers' folded series included)."""
    from repro.observe import get_registry

    data = get_registry().as_dict()
    counters: Dict[str, float] = defaultdict(int)
    for entry in data["counters"]:
        name = entry["name"]
        if name == "exec_cache_lookups_total":
            name += "." + entry["labels"].get("outcome", "")
        counters[name] += entry["value"]
    sums: Dict[str, float] = defaultdict(float)
    for entry in data["histograms"]:
        sums[entry["name"]] += entry["sum"]
    return counters, sums


def registry_delta(before, after) -> Tuple[Dict[str, float], Dict[str, float]]:
    """``after - before`` for two :func:`registry_totals` readings."""
    return tuple(
        {name: value - old.get(name, 0) for name, value in new.items()}
        for old, new in zip(before, after))
