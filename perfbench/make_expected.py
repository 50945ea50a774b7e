"""Regenerate ``perfbench/expected.json``, the benchmark's pinned answers.

Every answer comes from a reference engine, never from the engines the
benchmark times:

* kernel outputs from the MWL interpreter (``repro.lang.interp``);
* campaign fingerprints from the ``step()`` interpreter with pruning off
  (the compiled backend, fusion, pruning and its memo never run here);
* simulator cycles from ``simulate(..., backend="step")``.

Run from the repository root (takes ~15 minutes on two cores)::

    python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from workloads import (  # noqa: E402
    KERNEL_CAMPAIGN,
    SWEEP_CAMPAIGN,
    SWEEP_KERNELS,
)

EXPECTED_PATH = os.path.join(HERE, "expected.json")
#: Worker processes (the reference host has two cores).
JOBS = 2


def _reference_campaign(program, knobs):
    from repro.injection.campaign import CampaignConfig, run_campaign
    from repro.injection.chaos import fingerprint_digest

    report = run_campaign(program, CampaignConfig(
        **knobs, backend="step", prune=False))
    return {"fingerprint": fingerprint_digest(report),
            "injections": report.injections}


def kernel_entry(name: str):
    from repro.compiler import compile_source
    from repro.lang import interpret, parse_source
    from repro.simulator import DEFAULT_CONFIG, RELAXED_CONFIG, simulate
    from repro.workloads import kernel_source

    source = kernel_source(name)
    writes = interpret(parse_source(source)).writes
    ft = compile_source(source, mode="ft")
    baseline = compile_source(source, mode="baseline")
    cycles = {
        "baseline": simulate(baseline, backend="step").cycles,
        "ft": simulate(ft, DEFAULT_CONFIG, backend="step").cycles,
        "relaxed": simulate(ft, RELAXED_CONFIG, backend="step").cycles,
    }
    entry = {"writes": [list(write) for write in writes], "cycles": cycles}
    entry.update(_reference_campaign(ft.program, KERNEL_CAMPAIGN))
    return "kernels", name, entry


def sweep_entry(name: str):
    from repro.compiler import compile_source
    from repro.workloads import kernel_source

    program = compile_source(kernel_source(name), mode="ft").program
    return "sweep", name, _reference_campaign(program, SWEEP_CAMPAIGN)


def write_expected(expected) -> None:
    """One line per kernel, so a changed answer shows as a one-line diff."""
    lines = []
    for kind, entries in expected.items():
        body = ",\n".join(f"  {json.dumps(name)}: {json.dumps(entry)}"
                          for name, entry in entries.items())
        lines.append(f" {json.dumps(kind)}: {{\n{body}\n }}")
    with open(EXPECTED_PATH, "w") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")


def _run(task):
    kind, name = task
    return (kernel_entry if kind == "kernels" else sweep_entry)(name)


def main() -> int:
    from repro.workloads import ALL_KERNELS

    # Longest tasks first so the pool's tail is short.
    tasks = [("sweep", name) for name in SWEEP_KERNELS]
    tasks += [("kernels", name) for name in ("go", "gzip")]
    tasks += [("kernels", name) for name in ALL_KERNELS
              if name not in ("go", "gzip")]
    expected = {"kernels": {}, "sweep": {}}
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(JOBS) as pool:
        for kind, name, entry in pool.imap_unordered(_run, tasks):
            expected[kind][name] = entry
            print(f"{kind:8s} {name:8s} done", flush=True)
    expected["kernels"] = {name: expected["kernels"][name]
                           for name in ALL_KERNELS}
    expected["sweep"] = {name: expected["sweep"][name]
                         for name in SWEEP_KERNELS}
    write_expected(expected)
    print(f"wrote {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
