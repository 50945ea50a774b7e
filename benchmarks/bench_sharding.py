"""Sharded campaign scaling: the worker fleet vs the single process.

This PR turned ``run_campaign`` into a horizontally sharded system
(:mod:`repro.injection.shard` + :mod:`repro.service`): the injection-step
space is planned into journal-backed shards, executed by a socket worker
fleet with work stealing and dead-worker reissue, and merged back into
the exact single-process report.  Sharding is only worth its coordination
machinery if the fleet actually multiplies throughput, so this bench runs
the same exhaustive ``vpr`` SEU sweep as ``bench_campaign_throughput``
(every site, every representative value -- the regime campaigns run at
scale) on:

* the single-process engine (the merge-parity baseline),
* a sharded local fleet of 1, 2 and 4 workers (``shards=4`` throughout,
  so stealing keeps the fleet busy regardless of worker count).

Every row must be fingerprint-equal to the single-process report --
scaling numbers are meaningless if the distribution changed a bit.

A second, ungated table runs the default engine (compiled backend,
equivalence pruning on) cold on the vpr, gcc and jpeg sweeps at 100
sampled steps: serial, the supervised pool at ``jobs=2`` and the forked
shard fleet at ``shards=2``.  Next to each wall time it reports the
parent process's own CPU seconds -- the fold, journal and transport work
the fan-out leaves in the parent, which workers cannot parallelise.

Every timed run starts cold: the exec compilation cache, the
normalization caches and the prune outcome memo are cleared first.

The contract: **4 local workers deliver >= 3x the 1-worker fleet's
throughput** on this sweep.  The assertion is gated on
``os.cpu_count() >= 4``: the fleet multiplies real cores, and this
repo's development container exposes a single CPU, where 4 forked
workers time-slice one core and the matrix is informational (CI's
4-vCPU runners assert it).
"""

from __future__ import annotations

import os
import time
from typing import List

from repro.injection import CampaignConfig, run_campaign
from repro.injection.chaos import report_fingerprint
from repro.service import run_campaign_sharded
from repro.workloads import compile_kernel

from _bench_utils import emit_json, emit_table, format_row, make_cold

#: Mirrors bench_campaign_throughput's exhaustive sweep: every fault
#: site, every representative value at 10 sampled steps.  ``prune=False``
#: keeps every row measuring raw fleet execution, not the pruner.
_SWEEP_CONFIG = CampaignConfig(
    max_injection_steps=10,
    max_values_per_site=None,
    max_sites_per_step=None,
    seed=20260705,
    prune=False,
)

_SHARDS = 4
_FLEET_SIZES = (1, 2, 4)
_MIN_SPEEDUP_4_WORKERS = 3.0

#: The default engine's exhaustive sweep (perfbench's ``sweep``/``fleet``
#: campaigns): every site and representative value at 100 sampled steps.
_DEFAULT_ENGINE_CONFIG = CampaignConfig(max_injection_steps=100)
_DEFAULT_ENGINE_KERNELS = ("vpr", "gcc", "jpeg")
_FAN_OUT_WIDTH = 2
_DEFAULT_ENGINE_REPS = 3


def _timed(runner):
    """One cold run: ``(report, wall seconds, parent CPU seconds)``."""
    make_cold()
    wall, cpu = time.perf_counter(), time.process_time()
    report = runner()
    return (report, time.perf_counter() - wall,
            time.process_time() - cpu)


def _default_engine_rows():
    """Best-of cold wall time (and that run's parent CPU) per kernel and
    fan-out, interleaved so every fan-out sees the same host regimes."""
    modes = {
        "serial": lambda program: run_campaign(
            program, _DEFAULT_ENGINE_CONFIG),
        f"jobs={_FAN_OUT_WIDTH}": lambda program: run_campaign(
            program, _DEFAULT_ENGINE_CONFIG, jobs=_FAN_OUT_WIDTH),
        f"shards={_FAN_OUT_WIDTH}": lambda program: run_campaign_sharded(
            program, _DEFAULT_ENGINE_CONFIG, shards=_FAN_OUT_WIDTH),
    }
    rows = []
    for kernel in _DEFAULT_ENGINE_KERNELS:
        program = compile_kernel(kernel, "ft").program
        best = {}
        for _ in range(_DEFAULT_ENGINE_REPS):
            for mode, run in modes.items():
                result = _timed(lambda: run(program))
                if mode not in best or result[1] < best[mode][1]:
                    best[mode] = result
        baseline = best["serial"][0]
        for mode, (report, wall, cpu) in best.items():
            if report_fingerprint(report) != report_fingerprint(baseline) \
                    or report.latency_buckets != baseline.latency_buckets:
                raise AssertionError(
                    f"{kernel} {mode} diverged from the serial report")
            rows.append((kernel, mode, report.injections, wall, cpu))
    return rows


def run_sharding_table() -> List[str]:
    program = compile_kernel("vpr", "ft").program
    single_report, single_time, _ = _timed(
        lambda: run_campaign(program, _SWEEP_CONFIG, jobs=1))
    baseline = report_fingerprint(single_report)

    rows = []
    for fleet in _FLEET_SIZES:
        report, seconds, _ = _timed(
            lambda fleet=fleet: run_campaign_sharded(
                program, _SWEEP_CONFIG, shards=_SHARDS,
                local_workers=fleet))
        if report_fingerprint(report) != baseline:
            raise AssertionError(
                f"sharded fleet of {fleet} diverged from the "
                "single-process report")
        if report.latency_buckets != single_report.latency_buckets:
            raise AssertionError(
                f"sharded fleet of {fleet} changed latency_buckets")
        rows.append((fleet, report, seconds))

    single_rate = single_report.injections / single_time
    rates = {fleet: report.injections / seconds
             for fleet, report, seconds in rows}
    speedup_vs_one = rates[4] / rates[1]
    cores = os.cpu_count() or 1
    contract_asserted = cores >= 4

    widths = (24, 12, 10, 12, 12)
    lines = [
        format_row(("configuration", "injections", "time_s", "inj_per_s",
                    "vs_single"), widths),
        "-" * 76,
        format_row(("single process", single_report.injections,
                    single_time, single_rate, 1.0), widths),
    ]
    for fleet, report, seconds in rows:
        lines.append(format_row(
            (f"shards=4, workers={fleet}", report.injections, seconds,
             rates[fleet], rates[fleet] / single_rate), widths))
    lines.append("-" * 76)
    lines.append(
        f"4-worker fleet vs 1-worker fleet: {speedup_vs_one:.2f}x "
        f"(contract >= {_MIN_SPEEDUP_4_WORKERS:.0f}x "
        + (f"asserted on this {cores}-core host)" if contract_asserted
           else f"informational: host exposes {cores} core(s))"))
    lines.append("all reports bit-identical to the single process, "
                 "latency_buckets included")

    default_rows = _default_engine_rows()
    default_widths = (8, 10, 12, 10, 12, 14)
    lines += [
        "",
        "default engine (compiled, pruned), cold, best of "
        f"{_DEFAULT_ENGINE_REPS}; ungated",
        format_row(("kernel", "fan-out", "injections", "time_s",
                    "inj_per_s", "parent_cpu_s"), default_widths),
        "-" * 76,
    ]
    for kernel, mode, injections, wall, cpu in default_rows:
        lines.append(format_row((kernel, mode, injections, wall,
                                 injections / wall, cpu), default_widths))
    lines.append("-" * 76)
    lines.append("parent_cpu_s: the calling process's CPU time (fold, "
                 "journal, transport); workers excluded")
    if contract_asserted and speedup_vs_one < _MIN_SPEEDUP_4_WORKERS:
        raise AssertionError(
            f"4 local workers delivered {speedup_vs_one:.2f}x the "
            f"1-worker fleet on a {cores}-core host; the sharding "
            f"contract requires >= {_MIN_SPEEDUP_4_WORKERS:.0f}x")

    emit_json("sharding", {
        "config": {
            "kernel": "vpr", "mode": "ft",
            "max_injection_steps": _SWEEP_CONFIG.max_injection_steps,
            "max_sites_per_step": None,
            "max_values_per_site": None,
            "seed": _SWEEP_CONFIG.seed,
            "prune": False,
            "shards": _SHARDS,
        },
        "injections": single_report.injections,
        "throughput_inj_per_s": {
            "single_process": single_rate,
            **{f"fleet_{fleet}_workers": rates[fleet]
               for fleet in _FLEET_SIZES},
        },
        "speedup_4_workers_vs_1": speedup_vs_one,
        "speedup_contract": _MIN_SPEEDUP_4_WORKERS,
        "contract_asserted": contract_asserted,
        "contract_gate_reason": (
            "asserted: host has >= 4 cores" if contract_asserted
            else f"informational: host exposes {cores} core(s); "
                 "4 forked workers time-slice one core"),
        "default_engine": {
            "config": {"max_injection_steps":
                       _DEFAULT_ENGINE_CONFIG.max_injection_steps,
                       "backend": "compiled", "prune": True,
                       "width": _FAN_OUT_WIDTH,
                       "repeats": _DEFAULT_ENGINE_REPS, "cold": True},
            "rows": [
                {"kernel": kernel, "fan_out": mode,
                 "injections": injections, "wall_s": wall,
                 "inj_per_s": injections / wall, "parent_cpu_s": cpu}
                for kernel, mode, injections, wall, cpu in default_rows
            ],
        },
        "cold": True,
        "bit_identical": True,
    })
    return lines


def test_sharding_scaling(benchmark):
    lines = benchmark.pedantic(run_sharding_table, rounds=1, iterations=1)
    emit_table("sharding", lines)
