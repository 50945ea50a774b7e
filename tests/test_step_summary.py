"""Step summaries: one fold, whichever process ran the step.

Every producer of injection steps -- the serial loop, the supervised pool,
the shard fleet, a resumed journal -- reduces a step's outcomes to a
``StepSummary`` where they were produced, and the parent folds only
summaries.  These tests pin what that must not change: violation records
and their order, the bytes of the journal, and the campaign metrics in
the registry.
"""

import os

import pytest

from repro.injection import CampaignConfig, run_campaign
from repro.injection.campaign import (
    CampaignReport,
    _campaign_instruments,
    _injection_steps,
    _reference_run,
    _run_step,
    fold_step,
    reference_tail,
    resolve_backend_config,
    summarize_step,
)
from repro.injection.chaos import report_fingerprint, truncate_journal_tail
from repro.injection.journal import (
    CampaignJournal,
    decode_summary,
    encode_summary,
    frame_step,
)
from repro.observe import MetricsRegistry, set_registry
from repro.service import run_campaign_sharded
from repro.workloads import compile_kernel

#: Small enough for three fan-outs per test, large enough that the
#: baseline build produces silent corruptions and detected faults.
CONFIG = dict(max_injection_steps=10, max_sites_per_step=6,
              max_values_per_site=2, seed=424242)


def _baseline():
    return compile_kernel("adpcm", "baseline").program


def _ft():
    return compile_kernel("adpcm", "ft").program


def _shard_lines(base):
    """Every step line of the shard journals written under ``base``."""
    lines = []
    directory = os.path.dirname(base)
    for name in sorted(os.listdir(directory)):
        if name.startswith(os.path.basename(base) + ".shard-"):
            with open(os.path.join(directory, name)) as handle:
                lines.extend(handle.readlines()[1:])
    return lines


class TestViolationParity:
    @pytest.mark.parametrize("keep_records", [False, True])
    def test_baseline_violations_survive_both_fan_outs(self, keep_records):
        program = _baseline()
        config = CampaignConfig(keep_records=keep_records, **CONFIG)
        serial = run_campaign(program, config)
        pooled = run_campaign(program, config, jobs=2)
        sharded = run_campaign_sharded(program, config, shards=2)
        assert len(serial.violations) > 0
        assert serial.detected > 0
        for report in (pooled, sharded):
            assert report_fingerprint(report) == report_fingerprint(serial)
            assert report.latency_buckets == serial.latency_buckets
        if keep_records:
            assert len(serial.records) == serial.injections


class TestSummary:
    def test_fold_equals_per_outcome_pass(self):
        """Folding summaries rebuilds exactly what one pass over every
        outcome builds: counts in first-seen order, records, violations
        and latency buckets."""
        program = _baseline()
        config = resolve_backend_config(
            program, CampaignConfig(keep_records=True, **CONFIG))
        reference = _reference_run(program, config)
        budget = reference.trace.steps + config.step_slack
        report = CampaignReport(reference=reference.trace)
        instruments = _campaign_instruments(MetricsRegistry())
        outcomes = []
        for step in _injection_steps(reference.num_steps, config):
            step_outcomes = _run_step(program, config, reference, budget,
                                      step)
            fold_step(report, reference, config,
                      summarize_step(reference, config, step, step_outcomes),
                      instruments)
            outcomes.extend((step, outcome) for outcome in step_outcomes)
        first_seen = list(dict.fromkeys(o[1] for _, o in outcomes))
        assert list(report.counts) == first_seen
        assert [(r.step, r.fault, r.result, r.latency)
                for r in report.records] == \
            [(step, o[0], o[1], o[3]) for step, o in outcomes]
        assert report.violations == [r for r in report.records
                                     if r.result.value != "masked"
                                     and r.result.value != "detected"]
        assert sum(report.latency_buckets.values()) == report.detected

    def test_wire_codec_round_trips(self):
        program = _baseline()
        config = resolve_backend_config(
            program, CampaignConfig(keep_records=True, **CONFIG))
        reference = _reference_run(program, config)
        budget = reference.trace.steps + config.step_slack
        for step in _injection_steps(reference.num_steps, config):
            summary = summarize_step(
                reference, config, step,
                _run_step(program, config, reference, budget, step))
            assert decode_summary(step, encode_summary(summary, reference),
                                  reference) == summary

    def test_summary_line_is_the_append_step_line(self, tmp_path):
        program = _ft()
        config = resolve_backend_config(program, CampaignConfig(**CONFIG))
        reference = _reference_run(program, config)
        budget = reference.trace.steps + config.step_slack
        step = _injection_steps(reference.num_steps, config)[3]
        outcomes = _run_step(program, config, reference, budget, step)
        summary = summarize_step(reference, config, step, outcomes,
                                 journaled=True)
        tail = reference_tail(reference, step)
        assert summary.line == frame_step(step, outcomes, tail)
        path = str(tmp_path / "one.jnl")
        with CampaignJournal.fresh(path, "p", "c") as journal:
            journal.append_step(step, outcomes, tail)
        with open(path) as handle:
            assert handle.readlines()[1] == summary.line


class TestJournalBytes:
    @pytest.mark.parametrize("build", [_ft, _baseline])
    def test_pool_and_serial_journals_are_byte_identical(self, tmp_path,
                                                         build):
        program = build()
        config = CampaignConfig(**CONFIG)
        serial_path = str(tmp_path / "serial.jnl")
        pool_path = str(tmp_path / "pool.jnl")
        run_campaign(program, config, journal_path=serial_path)
        run_campaign(program, config, jobs=2, journal_path=pool_path)
        with open(serial_path, "rb") as serial, open(pool_path, "rb") as pool:
            assert serial.read() == pool.read()

    def test_shard_lines_equal_serial_lines(self, tmp_path):
        program = _baseline()
        config = CampaignConfig(**CONFIG)
        serial_path = str(tmp_path / "serial.jnl")
        run_campaign(program, config, journal_path=serial_path)
        with open(serial_path) as handle:
            serial_lines = handle.readlines()[1:]
        shard_base = str(tmp_path / "sharded.jnl")
        run_campaign_sharded(program, config, shards=2,
                             journal_path=shard_base)
        shard_lines = _shard_lines(shard_base)
        assert sorted(shard_lines) == sorted(serial_lines)

    @pytest.mark.parametrize("writer_jobs,resume_jobs", [(2, 1), (1, 2)])
    def test_journals_resume_across_fan_outs(self, tmp_path, writer_jobs,
                                             resume_jobs):
        program = _baseline()
        config = CampaignConfig(**CONFIG)
        base = run_campaign(program, config)
        full_path = str(tmp_path / "full.jnl")
        run_campaign(program, config, journal_path=full_path)
        path = str(tmp_path / "cut.jnl")
        run_campaign(program, config, jobs=writer_jobs, journal_path=path)
        truncate_journal_tail(path, lines=4)
        resumed = run_campaign(program, config, jobs=resume_jobs,
                               journal_path=path, resume=True)
        assert report_fingerprint(resumed) == report_fingerprint(base)
        assert resumed.latency_buckets == base.latency_buckets
        stats = resumed.resilience
        assert stats.resumed_steps and stats.journaled_steps == 4
        with open(path, "rb") as cut, open(full_path, "rb") as full:
            assert cut.read() == full.read()


def _campaign_metrics(registry):
    """The fold's metrics, without the fleet's host-labelled series."""
    data = registry.as_dict()
    counters = {
        (entry["name"], tuple(sorted(entry["labels"].items()))):
            entry["value"]
        for entry in data["counters"]
        if entry["name"] in ("campaign_injections_total",
                             "campaign_results_total")
        and "host" not in entry["labels"]
    }
    histograms = [
        (entry["count"], entry["sum"], entry["buckets"])
        for entry in data["histograms"]
        if entry["name"] == "campaign_detection_latency_steps"
        and "host" not in entry["labels"]
    ]
    return counters, histograms


class TestRegistryParity:
    def test_fold_metrics_equal_across_fan_outs(self):
        program = _baseline()
        config = CampaignConfig(**CONFIG)
        runs = {
            "serial": lambda: run_campaign(program, config),
            "pool": lambda: run_campaign(program, config, jobs=2),
            "shards": lambda: run_campaign_sharded(program, config,
                                                   shards=2),
        }
        metrics = {}
        for name, run in runs.items():
            fresh = MetricsRegistry()
            previous = set_registry(fresh)
            try:
                report = run()
            finally:
                set_registry(previous)
            metrics[name] = _campaign_metrics(fresh)
        counters, histograms = metrics["serial"]
        assert counters[("campaign_injections_total", ())] == \
            report.injections
        for result, count in report.counts.items():
            assert counters[("campaign_results_total",
                             (("result", result.value),))] == count
        assert histograms and histograms[0][0] == report.detected > 0
        assert metrics["pool"] == metrics["serial"]
        assert metrics["shards"] == metrics["serial"]
