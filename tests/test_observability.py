"""Tests for the unified observability layer (``repro.observe``).

Two contracts matter:

1. the metrics machinery itself (registries, merging, Prometheus
   exposition, events, progress, phase timers) behaves as documented;
2. observability is *observational*: a campaign instrumented into a live
   registry produces a report bit-identical to one with recording
   disabled.
"""

import io
import json

import pytest

from repro.injection import CampaignConfig, run_campaign
from repro.injection.chaos import report_fingerprint
from repro.observe import (
    MetricsRegistry,
    NullRegistry,
    ProgressReporter,
    SECONDS_BUCKETS,
    STEPS_BUCKETS,
    configure_events,
    disabled,
    emit,
    events_enabled,
    get_registry,
    phase_timer,
    set_registry,
    snapshot,
    write_metrics,
)
from tests.helpers import countdown_loop_program, paper_store_program


@pytest.fixture
def registry():
    """A fresh default registry, restored after the test."""
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    try:
        yield fresh
    finally:
        set_registry(previous)


class TestRegistry:
    def test_counter_accumulates(self, registry):
        counter = registry.counter("widgets_total")
        counter.inc()
        counter.inc(4)
        assert registry.counter("widgets_total").value == 5

    def test_labels_separate_series(self, registry):
        registry.counter("r_total", kind="a").inc(1)
        registry.counter("r_total", kind="b").inc(2)
        assert registry.counter("r_total", kind="a").value == 1
        assert registry.counter("r_total", kind="b").value == 2

    def test_label_order_is_canonical(self, registry):
        registry.counter("x_total", a=1, b=2).inc()
        assert registry.counter("x_total", b=2, a=1).value == 1

    def test_gauge_last_write_wins(self, registry):
        gauge = registry.gauge("depth")
        gauge.set(3)
        gauge.set(1)
        assert registry.gauge("depth").value == 1

    def test_histogram_buckets_and_overflow(self, registry):
        histogram = registry.histogram("lat", buckets=(1, 2, 4))
        for value in (0.5, 1, 3, 100):
            histogram.observe(value)
        # bounds are inclusive upper edges; 100 falls in the overflow.
        assert histogram.buckets == [2, 0, 1, 1]
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(104.5)

    def test_as_dict_merge_round_trip(self, registry):
        registry.counter("c_total").inc(2)
        registry.gauge("g").set(7)
        registry.histogram("h", buckets=STEPS_BUCKETS).observe(5)
        other = MetricsRegistry()
        other.merge_dict(registry.as_dict())
        other.merge_dict(registry.as_dict())
        assert other.counter("c_total").value == 4  # counters add
        assert other.gauge("g").value == 7          # gauges keep max
        assert other.histogram("h", buckets=STEPS_BUCKETS).count == 2

    def test_merge_with_host_label_keeps_series_distinct(self, registry):
        """Shard-fleet telemetry: identical metric names from different
        workers must not collide -- ``extra_labels={"host": ...}`` gives
        each worker's series its own labelled identity."""
        worker_a = MetricsRegistry()
        worker_a.counter("shard_worker_steps_total").inc(3)
        worker_b = MetricsRegistry()
        worker_b.counter("shard_worker_steps_total").inc(5)
        registry.merge_dict(worker_a.as_dict(),
                            extra_labels={"host": "alpha:1"})
        registry.merge_dict(worker_b.as_dict(),
                            extra_labels={"host": "beta:2"})
        assert registry.counter("shard_worker_steps_total",
                                host="alpha:1").value == 3
        assert registry.counter("shard_worker_steps_total",
                                host="beta:2").value == 5
        text = registry.to_prometheus()
        assert 'shard_worker_steps_total{host="alpha:1"} 3' in text
        assert 'shard_worker_steps_total{host="beta:2"} 5' in text

    def test_merge_host_label_overrides_colliding_label(self, registry):
        """``extra_labels`` wins over a same-named label in the payload --
        the coordinator's host attribution is authoritative."""
        worker = MetricsRegistry()
        worker.counter("c_total", host="stale").inc(2)
        registry.merge_dict(worker.as_dict(),
                            extra_labels={"host": "fresh:9"})
        assert registry.counter("c_total", host="fresh:9").value == 2

    def test_host_label_shape(self):
        from repro.observe import host_label

        label = host_label()
        name, _, pid = label.rpartition(":")
        assert name and pid.isdigit()

    def test_merge_ignores_incompatible_histogram_bounds(self, registry):
        registry.histogram("h", buckets=(1, 2)).observe(1)
        before = registry.histogram("h", buckets=(1, 2)).count
        registry.merge_dict({"histograms": [
            {"name": "h", "labels": {}, "bounds": [9], "buckets": [0, 1],
             "sum": 1.0, "count": 1},
        ]})
        assert registry.histogram("h", buckets=(1, 2)).count == before

    def test_prometheus_exposition_shape(self, registry):
        registry.counter("c_total", kind="x").inc(3)
        registry.gauge("g").set(2)        # noqa: a gauge line too
        histogram = registry.histogram("h", buckets=(1, 2))
        histogram.observe(1)
        histogram.observe(10)
        text = registry.to_prometheus()
        assert "# TYPE c_total counter" in text
        assert 'c_total{kind="x"} 3' in text
        assert "# TYPE h histogram" in text
        assert 'h_bucket{le="1"} 1' in text
        assert 'h_bucket{le="2"} 1' in text      # cumulative
        assert 'h_bucket{le="+Inf"} 2' in text
        assert "h_count 2" in text

    def test_null_registry_records_nothing(self):
        null = NullRegistry()
        null.counter("c_total").inc(10)
        null.histogram("h").observe(1.0)
        null.gauge("g").set(5)
        assert null.as_dict() == {"counters": [], "gauges": [],
                                  "histograms": []}
        assert null.to_prometheus() == ""

    def test_disabled_context_swaps_registry(self, registry):
        with disabled():
            get_registry().counter("hidden_total").inc()
            assert isinstance(get_registry(), NullRegistry)
        assert get_registry() is registry
        assert registry.counter("hidden_total").value == 0


class TestEventsAndTimers:
    def test_events_off_by_default(self, registry):
        assert not events_enabled()
        emit("noop", a=1)  # must not raise

    def test_events_stream_jsonl(self, registry):
        stream = io.StringIO()
        configure_events(stream)
        try:
            emit("thing-happened", count=3, what="x")
            record = json.loads(stream.getvalue())
            assert record["event"] == "thing-happened"
            assert record["count"] == 3
            assert "ts" in record
        finally:
            configure_events(None)
        assert not events_enabled()

    def test_phase_timer_records_histogram(self, registry):
        with phase_timer("unit-test-phase"):
            pass
        found = [h for h in registry.as_dict()["histograms"]
                 if h["name"] == "talft_phase_seconds"
                 and h["labels"].get("phase") == "unit-test-phase"]
        assert len(found) == 1 and found[0]["count"] == 1

    def test_phase_timer_records_on_exception(self, registry):
        with pytest.raises(RuntimeError):
            with phase_timer("failing-phase"):
                raise RuntimeError("boom")
        found = [h for h in registry.as_dict()["histograms"]
                 if h["labels"].get("phase") == "failing-phase"]
        assert found and found[0]["count"] == 1


class TestProgressReporter:
    def test_heartbeat_format(self, registry):
        stream = io.StringIO()
        reporter = ProgressReporter(4, label="campaign", stream=stream,
                                    min_interval=0.0)
        reporter.advance()
        reporter.finish()
        lines = [line for line in stream.getvalue().splitlines() if line]
        assert lines[0].startswith("campaign: 1/4 steps (25.0%)")
        assert "eta" in lines[0]
        assert lines[-1].startswith("campaign: 1/4 steps")

    def test_rate_limited_but_final_line_always_emitted(self, registry):
        stream = io.StringIO()
        reporter = ProgressReporter(1000, stream=stream, min_interval=3600)
        for _ in range(50):
            reporter.advance()
        # The first heartbeat fires immediately; every later one falls
        # under the rate limit...
        lines = [line for line in stream.getvalue().splitlines() if line]
        assert len(lines) == 1 and lines[0].startswith("progress: 1/1000")
        # ...but finish() always emits the closing summary.
        reporter.finish()
        assert "50/1000" in stream.getvalue()

    def test_closed_stream_never_raises(self, registry):
        stream = io.StringIO()
        reporter = ProgressReporter(2, stream=stream, min_interval=0.0)
        stream.close()
        reporter.advance()
        reporter.finish()  # swallowed, campaign must survive


class TestSnapshotAndMetricsFile:
    def test_snapshot_unifies_scattered_stats(self, registry):
        snap = snapshot()
        assert set(snap) == {"metrics", "caches"}
        assert set(snap["caches"]) == {"exec", "normalization",
                                       "intern_tables"}
        assert "program_hits" in snap["caches"]["exec"]

    def test_write_metrics_emits_json_and_prometheus(self, registry,
                                                     tmp_path):
        registry.counter("c_total").inc(3)
        path = str(tmp_path / "metrics.json")
        json_path, prom_path = write_metrics(path, extra={"command": "test"})
        document = json.loads(open(json_path).read())
        assert document["command"] == "test"
        names = [c["name"] for c in document["metrics"]["counters"]]
        assert "c_total" in names
        assert "c_total 3" in open(prom_path).read()


class TestCampaignInstrumentation:
    CONFIG = CampaignConfig(max_injection_steps=6, max_values_per_site=2,
                            max_sites_per_step=4, seed=11)

    def test_campaign_populates_counters(self, registry):
        report = run_campaign(countdown_loop_program(2), self.CONFIG)
        assert registry.counter("campaign_injections_total").value == \
            report.injections
        assert registry.counter("campaign_results_total",
                                result="masked").value == report.masked
        assert registry.counter("campaign_steps_total").value == 6
        hist = registry.histogram("campaign_detection_latency_steps",
                                  buckets=STEPS_BUCKETS)
        assert hist.count == report.detected

    def test_reconverged_count_repeats_between_serial_runs(self, registry):
        from repro.injection import prune
        from repro.workloads import compile_kernel

        program = compile_kernel("vpr", "ft").program
        counts = []
        for _ in range(2):
            run_registry = MetricsRegistry()
            set_registry(run_registry)
            prune._MEMO_TABLES.clear()
            run_campaign(program, self.CONFIG)
            counts.append(
                run_registry.counter("campaign_reconverged_total").value)
        assert counts[0] == counts[1] > 0

    def test_report_is_bit_identical_with_metrics_disabled(self, registry):
        program = paper_store_program()
        instrumented = run_campaign(program, self.CONFIG)
        with disabled():
            plain = run_campaign(program, self.CONFIG)
        assert report_fingerprint(instrumented) == report_fingerprint(plain)
        assert instrumented.latency_buckets == plain.latency_buckets

    def test_latency_buckets_power_of_two_and_complete(self, registry):
        report = run_campaign(countdown_loop_program(2), self.CONFIG)
        assert sum(report.latency_buckets.values()) == report.detected
        for bucket in report.latency_buckets:
            assert bucket & (bucket - 1) == 0  # power of two

    def test_latency_buckets_identical_across_jobs(self, registry):
        program = countdown_loop_program(2)
        serial = run_campaign(program, self.CONFIG, jobs=1)
        parallel = run_campaign(program, self.CONFIG, jobs=2)
        assert report_fingerprint(serial) == report_fingerprint(parallel)
        assert serial.latency_buckets == parallel.latency_buckets

    def test_progress_goes_to_stderr_only(self, registry, capsys):
        run_campaign(paper_store_program(), self.CONFIG, progress=True)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "campaign:" in captured.err and "eta" in captured.err

    def test_worker_telemetry_folds_into_parent(self, registry):
        run_campaign(countdown_loop_program(2), self.CONFIG, jobs=2)
        assert registry.counter("campaign_worker_steps_total").value == 6
        assert registry.counter("campaign_worker_injections_total").value > 0
        assert registry.histogram("campaign_worker_chunk_seconds").count > 0

    def test_journal_metrics_recorded(self, registry, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        run_campaign(paper_store_program(), self.CONFIG, journal_path=path)
        assert registry.counter("journal_appends_total").value == 6
        assert registry.counter("journal_fsyncs_total").value >= 1
        assert registry.histogram("journal_fsync_seconds").count >= 1

    def test_typecheck_metrics_recorded(self, registry):
        paper_store_program().check()
        assert registry.counter("typecheck_blocks_total").value == 1
        assert registry.counter("typecheck_instructions_total").value == 7
        found = [h for h in registry.as_dict()["histograms"]
                 if h["labels"].get("phase") == "typecheck"]
        assert found and found[0]["count"] == 1


class TestCliObservability:
    STORE = "examples/programs/store.tal"

    def test_check_writes_metrics_files(self, registry, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "m.json")
        assert main(["check", self.STORE, "--metrics", path]) == 0
        document = json.loads(open(path).read())
        names = [c["name"] for c in document["metrics"]["counters"]]
        assert "typecheck_blocks_total" in names
        assert document["command"] == "check"
        assert "typecheck_blocks_total" in open(path + ".prom").read()

    def test_campaign_events_stream(self, registry, tmp_path, capsys):
        from repro.cli import main

        events_path = str(tmp_path / "events.jsonl")
        program = str(tmp_path / "p.mwl")
        with open("examples/programs/dotproduct.mwl") as src:
            open(program, "w").write(src.read())
        assert main(["campaign", program, "--samples", "4",
                     "--events", events_path]) == 0
        kinds = [json.loads(line)["event"]
                 for line in open(events_path) if line.strip()]
        assert "campaign-start" in kinds
        assert "campaign-end" in kinds
        assert "phase" in kinds
