"""Shared helpers for the benchmark harness.

Each ``bench_*.py`` regenerates one experiment from the paper (see the
experiment index in DESIGN.md) and prints its table.  Tables are written
both to the real terminal (bypassing pytest's capture, so they appear in
``pytest benchmarks/ --benchmark-only`` output) and to
``benchmarks/results/<name>.txt``; machine-readable figures go to
``benchmarks/results/BENCH_<name>.json`` via :func:`emit_json`, which is
what CI archives as artifacts.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
from typing import Dict, Iterable, List, Sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def host_metadata() -> Dict[str, object]:
    """The host facts needed to interpret a stored throughput number:
    interpreter, platform, CPU count, and the numpy the vector backend
    ran on (``None`` when the ``[vector]`` extra is absent)."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python_version": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "numpy_version": numpy_version,
    }


def geomean(values: Sequence[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def make_cold() -> None:
    """Clear every cache a campaign fills, so the next run starts cold:
    exec compilations, normalization caches and the prune outcome memo
    (a warm memo settles repeated faults without executing them)."""
    from repro.exec import clear_exec_caches
    from repro.injection import prune
    from repro.statics.normalize import clear_normalization_caches

    clear_exec_caches()
    clear_normalization_caches()
    prune._MEMO_TABLES.clear()


def emit_table(name: str, lines: Iterable[str]) -> None:
    """Print a result table to the terminal and save it under results/."""
    text = "\n".join(lines)
    banner = f"\n===== {name} =====\n{text}\n"
    # sys.__stdout__ bypasses pytest's capture so tables are visible in
    # normal benchmark runs.
    print(banner, file=sys.__stdout__, flush=True)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as handle:
        handle.write(text + "\n")


def emit_json(name: str, data: Dict[str, object]) -> str:
    """Save a benchmark's machine-readable results.

    Writes ``benchmarks/results/BENCH_<name>.json`` and returns the path.
    ``data`` should carry whatever the experiment measured -- throughputs,
    speedups, cycle counts -- plus the configuration that produced them,
    so a stored artifact is interpretable without the table next to it.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"BENCH_{name}.json")
    payload = {"bench": name, "host": host_metadata(), **data}
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def format_row(columns: Sequence[object], widths: Sequence[int]) -> str:
    cells = []
    for value, width in zip(columns, widths):
        if isinstance(value, float):
            cells.append(f"{value:>{width}.3f}")
        else:
            cells.append(f"{value:>{width}}" if not isinstance(value, str)
                         else f"{value:<{width}}")
    return "  ".join(cells)
