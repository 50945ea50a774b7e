"""Resilience overhead: what crash safety costs on the campaign hot path.

PR 4 layered a durable result journal (group-committed JSONL with
per-line checksums and delta-encoded output tails) and a supervised
process pool (deadlines, retries, serial fallback) under
``run_campaign``.  Crash safety is only free to *enable by default* if
the fault-free path barely pays for it, so this bench times the same
sampled ``vpr`` campaign as ``bench_campaign_throughput`` -- identical
config, identical compiled backend -- in four configurations:

* plain compiled serial (the PR-3 baseline number),
* journaling on (``journal_path=``, fresh journal each run),
* resuming from a complete journal (the replay fast path),
* supervised pool, ``jobs=2`` (informational on this single-CPU
  container; the supervisor's bookkeeping rides on pool dispatch that is
  already paid for).

The contract asserted here: **journaling costs <= 5%** of the plain
serial engine's throughput.  The delta-encoded tails are what make this
hold -- MASKED runs (the overwhelming majority) journal their output
tail as a one-byte sentinel instead of the full output list, and fsyncs
group-commit instead of hitting the disk per step.

All four reports must be bit-identical; a resilience layer that changed
a single record would be a correctness bug, not an overhead question.

Every timed run starts cold (exec compilations, normalization caches and
the prune outcome memo cleared first), and each row also reports the
parent process's own CPU seconds: for the pool row, the fold and
bookkeeping the workers leave behind.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import List

from repro.injection import CampaignConfig, run_campaign
from repro.injection.chaos import report_fingerprint
from repro.workloads import compile_kernel

from _bench_utils import emit_json, emit_table, format_row, make_cold

#: Mirrors bench_campaign_throughput so the baseline row is the PR-3
#: compiled-backend number.
_CONFIG = CampaignConfig(
    max_injection_steps=30,
    max_values_per_site=2,
    max_sites_per_step=8,
    seed=20260705,
)

_MAX_JOURNAL_OVERHEAD = 0.05


def _cold_run(runner):
    """One cold run: ``(report, wall seconds, parent CPU seconds)``."""
    make_cold()
    wall, cpu = time.perf_counter(), time.process_time()
    report = runner()
    return report, time.perf_counter() - wall, time.process_time() - cpu


def _timed(runner, reps: int = 1):
    """Best-of-``reps`` cold wall time, with that run's parent CPU."""
    runner()  # warm up (imports, pool forks)
    best = (None, float("inf"), 0.0)
    for _ in range(reps):
        result = _cold_run(runner)
        if result[1] < best[1]:
            best = result
    return best


def _paired_overhead(baseline_runner, treated_runner, reps: int):
    """Minimum of per-pair time ratios, measured back-to-back.

    This single-CPU container drifts between fast and throttled regimes
    by ~1.7x over seconds, so best-of times taken in different windows
    are incomparable.  Running baseline and treatment adjacently makes
    each pair regime-matched; if the treatment carried an inherent cost
    above the budget, *every* pair would show it, so the minimum ratio
    isolates the inherent overhead from the drift.
    """
    baseline_runner(), treated_runner()  # warm up
    best_ratio = float("inf")
    baseline_best = treated_best = (None, float("inf"), 0.0)
    for _ in range(reps):
        baseline = _cold_run(baseline_runner)
        treated = _cold_run(treated_runner)
        best_ratio = min(best_ratio, treated[1] / baseline[1])
        if baseline[1] < baseline_best[1]:
            baseline_best = baseline
        if treated[1] < treated_best[1]:
            treated_best = treated
    return baseline_best, treated_best, best_ratio


def run_resilience_table() -> List[str]:
    program = compile_kernel("vpr", "ft").program
    with tempfile.TemporaryDirectory() as workdir:
        journal_path = os.path.join(workdir, "bench.journal")
        resume_path = os.path.join(workdir, "resume.journal")

        # The resume row replays a *complete* journal: write it once.
        run_campaign(program, _CONFIG, jobs=1, journal_path=resume_path)

        ((plain_report, plain_time, plain_cpu),
         (journal_report, journal_time, journal_cpu),
         journal_ratio) = _paired_overhead(
            lambda: run_campaign(program, _CONFIG, jobs=1),
            lambda: run_campaign(program, _CONFIG, jobs=1,
                                 journal_path=journal_path),
            reps=7)
        resume_report, resume_time, resume_cpu = _timed(
            lambda: run_campaign(program, _CONFIG, jobs=1,
                                 journal_path=resume_path, resume=True),
            reps=3)
        pool_report, pool_time, pool_cpu = _timed(
            lambda: run_campaign(program, _CONFIG, jobs=2), reps=2)
        journal_size = os.path.getsize(journal_path)

    # Bit-identical first: overhead numbers are meaningless otherwise.
    baseline = report_fingerprint(plain_report)
    for label, report in (("journaled", journal_report),
                          ("resumed", resume_report),
                          ("supervised pool", pool_report)):
        if report_fingerprint(report) != baseline:
            raise AssertionError(
                f"{label} campaign diverged from the plain serial report")
    if resume_report.resilience.journaled_steps != 0:
        raise AssertionError("resume row recomputed steps it had on disk")

    plain_rate = plain_report.injections / plain_time
    journal_rate = journal_report.injections / journal_time
    resume_rate = resume_report.injections / resume_time
    pool_rate = pool_report.injections / pool_time
    overhead = journal_ratio - 1.0

    widths = (22, 11, 9, 11, 9, 13)
    lines = [
        format_row(("configuration", "injections", "time_s", "inj_per_s",
                    "vs_plain", "parent_cpu_s"), widths),
        "-" * 76,
        format_row(("compiled serial", plain_report.injections,
                    plain_time, plain_rate, 1.0, plain_cpu), widths),
        format_row(("+ journal (fresh)", journal_report.injections,
                    journal_time, journal_rate,
                    journal_rate / plain_rate, journal_cpu), widths),
        format_row(("+ journal (resume)", resume_report.injections,
                    resume_time, resume_rate,
                    resume_rate / plain_rate, resume_cpu), widths),
        format_row(("supervised jobs=2", pool_report.injections,
                    pool_time, pool_rate, pool_rate / plain_rate,
                    pool_cpu), widths),
        "-" * 76,
        f"journal: {journal_size} bytes for "
        f"{journal_report.injections} outcomes "
        f"(delta-encoded tails, group-committed fsync)",
        f"contract: journaling overhead <= "
        f"{_MAX_JOURNAL_OVERHEAD:.0%} (got {overhead:+.1%}, best paired "
        "ratio); all reports bit-identical",
    ]
    if overhead > _MAX_JOURNAL_OVERHEAD:
        raise AssertionError(
            f"journaling overhead {overhead:.1%} exceeds the "
            f"{_MAX_JOURNAL_OVERHEAD:.0%} budget "
            f"({plain_time * 1000:.1f}ms plain vs "
            f"{journal_time * 1000:.1f}ms journaled, best-of times)")
    emit_json("resilience", {
        "config": {
            "kernel": "vpr", "mode": "ft",
            "max_injection_steps": _CONFIG.max_injection_steps,
            "max_sites_per_step": _CONFIG.max_sites_per_step,
            "max_values_per_site": _CONFIG.max_values_per_site,
            "seed": _CONFIG.seed,
        },
        "injections": plain_report.injections,
        "journal_bytes": journal_size,
        "throughput_inj_per_s": {
            "compiled_serial": plain_rate,
            "journaled": journal_rate,
            "resume_replay": resume_rate,
            "supervised_jobs2": pool_rate,
        },
        "parent_cpu_s": {
            "compiled_serial": plain_cpu,
            "journaled": journal_cpu,
            "resume_replay": resume_cpu,
            "supervised_jobs2": pool_cpu,
        },
        "cold": True,
        "journal_overhead_fraction": overhead,
        "journal_overhead_budget": _MAX_JOURNAL_OVERHEAD,
        "bit_identical": True,
    })
    return lines


def test_resilience_overhead(benchmark):
    lines = benchmark.pedantic(run_resilience_table, rounds=1, iterations=1)
    emit_table("resilience", lines)
