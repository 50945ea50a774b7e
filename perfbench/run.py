#!/usr/bin/env python3
"""The repository benchmark: cold, closed-loop workloads with checked outputs.

Usage, from the repository root::

    python3 perfbench/run.py --workload kernels|sweep|fuzz|fleet \\
        --seed N --seconds S --trace 0|1

One client sends one request at a time (closed loop); each request starts
from cold caches.  The run measures as many whole cycles of the workload's
inputs as take about ``--seconds`` on the reference host, checks every output against
``perfbench/expected.json`` (or, for ``fuzz``, the differential oracle's
verdict), and prints a report followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, with every time rescaled to
the reference host's usual speed (``perfbench/hostspeed.py``); ``--trace 1``
runs every request twice, untraced then traced, and reports the per-layer
split in raw seconds plus the tracing overhead.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from hostspeed import REFERENCE_SAMPLE_S, HostSpeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED_PATH = os.path.join(HERE, "expected.json")
#: Fleet journals go under the checkout, in a directory git ignores.
SCRATCH = os.path.join(ROOT, ".perfbench")

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 3
#: Fan-out width of the ``fleet`` workload (the reference host's nproc).
FLEET_WORKERS = 2
#: Fuzz programs per cycle.
FUZZ_CYCLE = 10
#: Fuzz run seed of the generated programs (``talft fuzz``'s default).
#: Program costs span 30x, and a seed-dependent mix of 200 programs moved
#: the mean cost by +-13%; so every run measures the same programs and
#: the benchmark seed only orders them.
FUZZ_PROGRAM_SEED = 1
#: The paper's Figure 10 geomeans (FT, FT without store ordering).
PAPER_GEOMEANS = (1.34, 1.30)


@dataclass
class Result:
    """What one request produced, beyond its wall time."""

    injections: int = 0
    #: What the workload's ``check`` compares against the references.
    payload: object = None
    #: Request-level counts the tracer cannot see (fan-out statistics).
    counts: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Cold state
# ---------------------------------------------------------------------------


def make_cold() -> List[str]:
    """Clear every cache a request could inherit; report any left warm."""
    from repro.exec import clear_exec_caches, exec_cache_stats
    from repro.injection import prune
    from repro.statics import kinds
    from repro.statics.normalize import (
        clear_normalization_caches,
        normalization_cache_stats,
    )

    clear_exec_caches()
    clear_normalization_caches()
    # A request does not pay for its predecessor's garbage either.
    gc.collect()
    kinds.clear_kind_cache()
    prune._MEMO_TABLES.clear()

    warm = []
    stats = exec_cache_stats()
    if stats["programs"] or stats["aux_entries"]:
        warm.append(f"exec cache warm: {stats}")
    for name, (entries, _, _) in normalization_cache_stats().items():
        if entries:
            warm.append(f"normalization cache {name!r} holds {entries}")
    if len(kinds._KIND_CACHE):
        warm.append(f"kind cache holds {len(kinds._KIND_CACHE)}")
    if prune._MEMO_TABLES:
        warm.append(f"prune memo holds {len(prune._MEMO_TABLES)} tables")
    return ["request started warm: " + w for w in warm]


def import_layers() -> None:
    """Import every layer a request reaches, so no request pays an import."""
    try:
        import numpy  # noqa: F401 -- the vector backend's lazy import
    except ImportError:
        pass  # the vector backend runs as the compiled one
    import repro.asm  # noqa: F401
    import repro.exec.vector  # noqa: F401
    import repro.fuzz  # noqa: F401
    import repro.injection.batch  # noqa: F401
    import repro.injection.journal  # noqa: F401
    import repro.injection.resilience  # noqa: F401
    import repro.service.coordinator  # noqa: F401
    import repro.service.worker  # noqa: F401
    import repro.simulator  # noqa: F401
    import repro.verify.theorems  # noqa: F401
    import repro.workloads  # noqa: F401


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed right now."""
    started = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i & 7
    return time.perf_counter() - started


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _check_campaign(report, expected: Dict, what: str) -> List[str]:
    from repro.injection.chaos import fingerprint_digest

    errors = []
    digest = fingerprint_digest(report)
    if digest != expected["fingerprint"]:
        errors.append(f"{what}: fingerprint {digest} != reference "
                      f"{expected['fingerprint']} ({report.injections} vs "
                      f"{expected['injections']} injections)")
    if report.violations:
        record = report.violations[0]
        errors.append(f"{what}: {len(report.violations)} Theorem 4 "
                      f"violations, first: step {record.step} "
                      f"{record.fault.describe()} -> {record.result.value}")
    return errors


class Workload:
    """A named input set; ``cycle(n)`` is the n-th whole cycle of items."""

    #: Seconds one cycle takes on the reference host (2 vCPUs).
    cycle_seconds: float

    def __init__(self, seed: int, expected: Dict) -> None:
        self.seed = seed
        self.expected = expected

    def cycle(self, index: int) -> List:
        raise NotImplementedError

    def request(self, item) -> Result:
        raise NotImplementedError

    def check(self, item, result: Result) -> None:
        """Append to ``result.errors`` every output that is wrong."""
        raise NotImplementedError

    def label(self, item) -> str:
        return str(item)


class Kernels(Workload):
    """One kernel end to end: ``talft time`` then ``talft campaign``."""

    cycle_seconds = 31.0

    def __init__(self, seed: int, expected: Dict) -> None:
        super().__init__(seed, expected)
        from repro.workloads import ALL_KERNELS

        self.names = list(ALL_KERNELS)
        #: kernel -> measured cycles, for the Figure 10 geomeans.
        self.cycles: Dict[str, Dict[str, int]] = {}

    def cycle(self, index: int) -> List[str]:
        names = list(self.names)
        random.Random(f"kernels:{self.seed}:{index}").shuffle(names)
        return names

    def request(self, name: str) -> Result:
        import repro.compiler as compiler
        import repro.simulator as simulator
        from repro.injection import campaign
        from repro.workloads import kernel_source
        from workloads import KERNEL_CAMPAIGN

        # compile_kernel is lru-cached; compile_source is not.
        source = kernel_source(name)
        ft = compiler.compile_source(source, mode="ft")
        baseline = compiler.compile_source(source, mode="baseline")
        ft.program.check()
        cycles = {
            "baseline": simulator.simulate(baseline).cycles,
            "ft": simulator.simulate(ft, simulator.DEFAULT_CONFIG).cycles,
            "relaxed": simulator.simulate(
                ft, simulator.RELAXED_CONFIG).cycles,
        }
        report = campaign.run_campaign(
            ft.program, campaign.CampaignConfig(**KERNEL_CAMPAIGN))
        return Result(report.injections, payload=(ft, cycles, report))

    def check(self, name: str, result: Result) -> None:
        ft, cycles, report = result.payload
        want = self.expected["kernels"][name]
        layout = ft.lowered.layout
        writes = [list(layout.describe(address)) + [value]
                  for address, value in report.reference.outputs]
        if writes != want["writes"]:
            result.errors.append(f"{name}: FT outputs differ from the MWL "
                                 "interpreter's")
        if cycles != want["cycles"]:
            result.errors.append(f"{name}: cycles {cycles} != reference "
                                 f"{want['cycles']}")
        result.errors += _check_campaign(report, want, name)
        self.cycles[name] = cycles


class Sweep(Workload):
    """One exhaustive SEU campaign at 100 sampled steps, default engine."""

    cycle_seconds = 3.7

    def __init__(self, seed: int, expected: Dict) -> None:
        super().__init__(seed, expected)
        from repro.compiler import compile_source
        from repro.workloads import kernel_source
        from workloads import SWEEP_KERNELS

        self.programs = {}
        for name in SWEEP_KERNELS:
            program = compile_source(kernel_source(name), mode="ft").program
            program.check()
            self.programs[name] = program

    def cycle(self, index: int) -> List:
        names = sorted(self.programs)
        random.Random(f"sweep:{self.seed}:{index}").shuffle(names)
        return names

    def config(self):
        from repro.injection.campaign import CampaignConfig
        from workloads import SWEEP_CAMPAIGN

        return CampaignConfig(**SWEEP_CAMPAIGN)

    def request(self, name: str) -> Result:
        from repro.injection import campaign

        report = campaign.run_campaign(self.programs[name], self.config())
        return Result(report.injections, payload=report)

    def check(self, name: str, result: Result) -> None:
        report = result.payload
        result.errors += _check_campaign(
            report, self.expected["sweep"][name], name)


class Fleet(Sweep):
    """The sweep campaigns on two workers, alternating the supervised pool
    and the forked shard fleet, each journaled to a fresh directory."""

    cycle_seconds = 9.2

    def cycle(self, index: int) -> List:
        # The same order twice: items i and i+3 run one kernel on the
        # two fan-outs, so every cycle covers every (kernel, fan-out).
        names = super().cycle(index)
        modes = ("pool", "shards")
        return [(name, modes[position % 2])
                for position, name in enumerate(names + names)]

    def label(self, item) -> str:
        return f"{item[0]}/{item[1]}"

    def request(self, item) -> Result:
        from repro.injection import campaign
        from repro.service import coordinator

        name, mode = item
        started = time.perf_counter()
        first_step = []

        def on_step(done: int, total: int) -> None:
            if not first_step:
                first_step.append(time.perf_counter() - started)

        os.makedirs(SCRATCH, exist_ok=True)
        directory = tempfile.mkdtemp(prefix="fleet-", dir=SCRATCH)
        try:
            journal = os.path.join(directory, "campaign.jnl")
            if mode == "pool":
                report = campaign.run_campaign(
                    self.programs[name], self.config(), jobs=FLEET_WORKERS,
                    journal_path=journal, on_step=on_step)
            else:
                report = coordinator.run_campaign_sharded(
                    self.programs[name], self.config(),
                    shards=FLEET_WORKERS, journal_path=journal,
                    on_step=on_step)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        stats = report.resilience
        return Result(report.injections, payload=report, counts={
            "fanout.first_step_s": first_step[0] if first_step else 0.0,
            "fanout.steals": stats.shard_steals,
            "fanout.reissues": stats.retries + stats.shard_worker_deaths,
        })

    def check(self, item, result: Result) -> None:
        super().check(item[0], result)


class Fuzz(Workload):
    """One new generated program through the full differential oracle."""

    cycle_seconds = 1.2

    def cycle(self, index: int) -> List[int]:
        programs = list(range(index * FUZZ_CYCLE, (index + 1) * FUZZ_CYCLE))
        random.Random(f"fuzz:{self.seed}:{index}").shuffle(programs)
        return programs

    def request(self, index: int) -> Result:
        from repro.fuzz import generator, oracle

        program = generator.generate_program(FUZZ_PROGRAM_SEED, index)
        verdict = oracle.check_program(program)
        return Result(verdict.injections, payload=verdict)

    def check(self, index: int, result: Result) -> None:
        verdict = result.payload
        if not verdict.ok:
            result.errors.append(f"fuzz program {index}: {verdict.stage}: "
                                 f"{verdict.detail}")

    def label(self, index: int) -> str:
        return f"program {index}"


WORKLOAD_CLASSES = {"kernels": Kernels, "sweep": Sweep, "fuzz": Fuzz,
                    "fleet": Fleet}


def prepare(name: str, seed: int) -> Workload:
    """The set-up ``setup_s`` times: imports, references, inputs."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import_layers()
    with open(EXPECTED_PATH) as handle:
        expected = json.load(handle)
    return WORKLOAD_CLASSES[name](seed, expected)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    """One request as measured."""

    label: str
    #: perf_counter() at the request's start.
    started: float
    wall: float
    #: CPU seconds of this process and of the children it reaped.
    cpu: float
    child_cpu: float
    result: Result
    #: Traced requests only: per-layer self/total seconds, counts and the
    #: registry delta.
    layers: Optional[Dict] = None
    #: Untraced runs only: wall and CPU seconds in reference seconds.
    reference_wall: Optional[float] = None
    reference_cpu: Optional[float] = None


def _cpu():
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime,
            children.ru_utime + children.ru_stime)


def measure(workload: Workload, item, tracer=None) -> Sample:
    """Run one cold request; time it; check its outputs outside the timing."""
    from tracing import registry_delta, registry_totals

    errors = make_cold()
    before = registry_totals() if tracer is not None else None
    if tracer is not None:
        tracer.reset()
        tracer.open("other")
    cpu_self, cpu_children = _cpu()
    started = time.perf_counter()
    try:
        result = workload.request(item)
    except Exception:  # noqa: BLE001 -- a crashing request is a failure
        result = Result(errors=[traceback.format_exc()])
    wall = time.perf_counter() - started
    after_self, after_children = _cpu()
    child_cpu = after_children - cpu_children
    cpu = after_self - cpu_self + child_cpu
    layers = None
    if tracer is not None:
        tracer.close()
        counters, sums = registry_delta(before, registry_totals())
        layers = {"self": dict(tracer.self_s), "total": dict(tracer.total_s),
                  "counts": dict(tracer.counts), "counters": counters,
                  "sums": sums}
    if result.payload is not None:
        try:
            workload.check(item, result)
        except Exception:  # noqa: BLE001 -- a broken output is a failure
            result.errors.append(traceback.format_exc())
    result.errors[:0] = errors
    result.payload = None
    return Sample(workload.label(item), started, wall, cpu, child_cpu, result,
                  layers)


def plan(workload: Workload, seconds: float,
         requests: Optional[int]) -> List[List]:
    """The run's cycles: as many as take about ``seconds`` on the reference
    host, or just enough for exactly ``requests`` items.

    The count is fixed by ``seconds`` rather than by a clock, so two runs
    execute the same requests (exact counts repeat, percentiles keep
    their rank) and a faster program measures the same work."""
    if requests is None:
        count = max(1, round(seconds / workload.cycle_seconds))
        return [workload.cycle(index) for index in range(count)]
    cycles, index = [], 0
    while requests > 0:
        items = workload.cycle(index)[:requests]
        cycles.append(items)
        requests -= len(items)
        index += 1
    return cycles


def run_loop(workload: Workload, cycles: List[List],
             trace: bool) -> Dict[str, List[Sample]]:
    """Measure every request; with ``trace``, each untraced, then traced
    right after, so the overhead compares twins that met the same host."""
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    samples: Dict[str, List[Sample]] = {"plain": [], "traced": []}
    for items in cycles:
        for item in items:
            samples["plain"].append(measure(workload, item))
            if tracer is None:
                continue
            tracer.install()
            try:
                samples["traced"].append(measure(workload, item, tracer))
            finally:
                tracer.uninstall()
    return samples


def rescale(samples: List[Sample], speed: HostSpeed) -> None:
    """Set each request's times in reference seconds, sampling taken out."""
    for sample in samples:
        end = sample.started + sample.wall
        sampling = speed.sampling_s(sample.started, end)
        factor = speed.factor(sample.started, end)
        sample.reference_wall = (sample.wall - sampling) * factor
        sample.reference_cpu = (sample.cpu - sampling) * factor


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(walls: List[float]):
    """The highest percentile with at least ten requests beyond it, as
    ``(seconds, percentile)``; the maximum when fewer than 11 requests ran."""
    ordered = sorted(walls)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    rank = len(ordered) - 11
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def end_to_end(samples: List[Sample], setup_s: float,
               reference: bool = True) -> Dict[str, tuple]:
    """The end-to-end metrics, in reference seconds (or raw ones)."""
    walls = [s.reference_wall if reference else s.wall for s in samples]
    cpus = [s.reference_cpu if reference else s.cpu for s in samples]
    busy = sum(walls)
    attempted = len(samples)
    failed = sum(1 for s in samples if s.result.errors)
    tail_s, _ = tail(walls)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (attempted / busy, "1/s"),
        "request_p50_s": (statistics.median(walls), "s"),
        "request_tail_s": (tail_s, "s"),
        "injections_per_s": (
            sum(s.result.injections for s in samples) / busy, "1/s"),
        "cpu_s_per_request": (sum(cpus) / attempted, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "ok_share": (1.0 - failed / attempted, "ratio"),
    }


#: Layer time metrics: metric -> span.
LAYER_SPANS = {
    "lang.parse_s": "lang.parse",
    "lang.check_s": "lang.check",
    "lang.interp_s": "lang.interp",
    "compiler.lower_s": "compiler.lower",
    "compiler.emit_s": "compiler.emit",
    "types.check_s": "types.check",
    "simulator.simulate_s": "simulator.simulate",
    "exec.compile_s": "exec.compile",
    "exec.run_s": "exec.run",
    "injection.campaign_s": "injection.campaign",
    "injection.reference_s": "injection.reference",
    "injection.faults_s": "injection.faults",
    "prune.analysis_s": "prune.analysis",
    "verify.theorems_s": "verify.theorems",
    "fuzz.generate_s": "fuzz.generate",
    "fuzz.oracle_s": "fuzz.oracle",
    "journal.append_s": "journal.append",
    "fanout.coordinator_s": "fanout.coordinator",
    "fanout.merge_s": "fanout.merge",
    "other_s": "other",
}

#: Per-request counts that repeat exactly between runs of one seed on the
#: serial workloads: metric -> registry counter (None: tracer or request).
EXACT_COUNTS = {
    "exec.compiles": "exec_compiles_total",
    "exec.fused_sites": "exec_fused_sites_total",
    "compiler.instrs": None,
    "types.instrs": "typecheck_instructions_total",
    "simulator.cycles": None,
    "injection.executed": None,
    "prune.executed": "prune_executed_total",
    "prune.pruned": "prune_pruned_variants_total",
    "prune.memo_hits": "prune_memo_hits_total",
    "journal.appends": "journal_appends_total",
    "vector.lane_steps": "vector_lane_steps_total",
}


def request_counts(sample: Sample) -> Dict[str, float]:
    """The exact per-request counts of one traced request."""
    layers = sample.layers
    counts = {}
    for metric, counter in EXACT_COUNTS.items():
        if counter is None:
            counts[metric] = layers["counts"].get(metric, 0)
        else:
            counts[metric] = layers["counters"].get(counter, 0)
    counts["injections"] = sample.result.injections
    return counts


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(plain: List[Sample], traced: List[Sample],
              probe: float) -> Dict[str, tuple]:
    n = len(traced)

    def total(kind: str, key: str) -> float:
        return sum(s.layers[kind].get(key, 0.0) for s in traced)

    def counter(name: str) -> float:
        return total("counters", name)

    metrics: Dict[str, tuple] = {}
    for metric, span in LAYER_SPANS.items():
        metrics[metric] = (total("self", span) / n, "s")
    for metric in EXACT_COUNTS:
        metrics[metric] = (
            sum(request_counts(s)[metric] for s in traced) / n, "count")
    hits = counter("exec_cache_lookups_total.hit")
    metrics["exec.cache_hit_ratio"] = (
        _ratio(hits, hits + counter("exec_cache_lookups_total.miss")),
        "ratio")
    executed = counter("prune_executed_total")
    settled = counter("prune_pruned_variants_total") \
        + counter("prune_memo_hits_total")
    metrics["prune.settled_ratio"] = (
        _ratio(settled, settled + executed), "ratio")
    metrics["vector.fallback_ratio"] = (
        _ratio(counter("vector_fallback_lanes_total"),
               counter("vector_lanes_total")), "ratio")
    metrics["journal.fsyncs"] = (counter("journal_fsyncs_total") / n, "count")
    metrics["journal.fsync_s"] = (total("sums", "journal_fsync_seconds") / n,
                                  "s")
    fan = [s for s in traced if "fanout.first_step_s" in s.result.counts]
    faults_wall = total("total", "injection.faults")
    metrics["fanout.first_step_s"] = (
        _ratio(sum(s.result.counts["fanout.first_step_s"] for s in fan),
               len(fan)), "s")
    # Workers are reaped inside their request, so the children's CPU
    # time is the workers' busy time.
    metrics["fanout.worker_busy_ratio"] = (
        _ratio(sum(s.child_cpu for s in fan),
               FLEET_WORKERS * faults_wall) if fan else 0.0, "ratio")
    metrics["fanout.chunk_s"] = (
        total("sums", "campaign_worker_chunk_seconds") / n, "s")
    metrics["fanout.steals"] = (
        _ratio(sum(s.result.counts["fanout.steals"] for s in fan), n),
        "count")
    metrics["fanout.reissues"] = (
        _ratio(sum(s.result.counts["fanout.reissues"] for s in fan), n),
        "count")
    wall = sum(s.wall for s in traced)
    metrics["trace.coverage"] = (1.0 - total("self", "other") / wall, "ratio")
    plain_wall = sum(s.wall for s in plain)
    metrics["trace.overhead"] = (wall / plain_wall - 1.0, "ratio")
    metrics["host.probe_s"] = (probe, "s")
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def time_setup(workload: str, seed: int) -> Tuple[float, float]:
    """Median time of fresh interpreters running :func:`prepare`, in
    reference seconds and in raw seconds."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-only",
               "--workload", workload, "--seed", str(seed)]
    spans = []
    with HostSpeed() as speed:
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            subprocess.run(command, check=True, cwd=ROOT)
            spans.append((started, time.perf_counter()))
    # The child runs on the other vCPU while the client samples, so the
    # sampling is not taken out of its time.
    return (statistics.median((end - start) * speed.factor(start, end)
                              for start, end in spans),
            statistics.median(end - start for start, end in spans))


def _geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def print_report(name: str, args, samples: Dict[str, List[Sample]],
                 metrics: Dict[str, tuple], probes, workload,
                 speed: Optional[HostSpeed], raw: Dict[str, tuple]) -> None:
    plain = samples["plain"]
    walls = [s.wall if speed is None else s.reference_wall for s in plain]
    tail_s, percentile = tail(walls)
    print(f"perfbench {name}: seed {args.seed}, {len(plain)} requests, "
          "closed loop, 1 client, cold caches before every request")
    print(f"host probe: {probes[0]:.4f}s before, {probes[1]:.4f}s after")
    if speed is not None:
        print(f"host speed: median sample {speed.median_sample_s() * 1e3:.4f}"
              f" ms of {len(speed.seconds)} (reference "
              f"{REFERENCE_SAMPLE_S * 1e3:.4f} ms); times below are in "
              "reference seconds")
    print(f"request_tail_s is p{percentile:.1f} of {len(walls)} requests "
          f"({tail_s:.4f}s)")
    failed = [s for s in plain + samples["traced"] if s.result.errors]
    print(f"failed_share: {len(failed) / len(plain + samples['traced']):.4f}")
    for sample in failed[:5]:
        print(f"FAILED {sample.label}: {sample.result.errors[0].strip()}")
    if isinstance(workload, Kernels) and len(workload.cycles) == len(
            workload.names):
        ft = _geomean([c["ft"] / c["baseline"]
                       for c in workload.cycles.values()])
        relaxed = _geomean([c["relaxed"] / c["baseline"]
                            for c in workload.cycles.values()])
        print(f"Figure 10 geomean: FT {ft:.2f}x (paper "
              f"{PAPER_GEOMEANS[0]:.2f}x), FT without ordering "
              f"{relaxed:.2f}x (paper {PAPER_GEOMEANS[1]:.2f}x)")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:28s} {value:14.6f} {unit}")
    if raw:
        print("raw (not rescaled):")
        for metric, (value, unit) in raw.items():
            print(f"  {metric:28s} {value:14.6f} {unit}")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Cold closed-loop benchmark of the TAL_FT system.")
    parser.add_argument("--workload", choices=tuple(WORKLOAD_CLASSES),
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--requests", type=int, default=None,
                        help="run exactly this many requests instead of "
                             "--seconds, and print each traced request's "
                             "exact counts (the benchmark's own tests)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        prepare(args.workload, args.seed)
        return 0
    # Set-up is an end-to-end metric only: traced runs skip its timing.
    setup = (0.0, 0.0) if args.trace else time_setup(args.workload,
                                                     args.seed)
    workload = prepare(args.workload, args.seed)
    cycles = plan(workload, args.seconds, args.requests)
    probes = [host_probe()]
    speed = None
    try:
        if args.trace:
            samples = run_loop(workload, cycles, True)
        else:
            with HostSpeed() as speed:
                samples = run_loop(workload, cycles, False)
            rescale(samples["plain"], speed)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    probes.append(host_probe())
    plain, traced = samples["plain"], samples["traced"]
    raw = {}
    if args.trace:
        metrics = per_layer(plain, traced, statistics.mean(probes))
        if args.requests is not None:
            for sample in traced:
                print("counts " + json.dumps(
                    {"request": sample.label, **request_counts(sample)},
                    sort_keys=True))
    else:
        metrics = end_to_end(plain, setup[0])
        raw = end_to_end(plain, setup[1], reference=False)
    print_report(args.workload, args, samples, metrics, probes, workload,
                 speed, raw)
    everything = plain + traced
    failed = sum(1 for s in everything if s.result.errors)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(everything),
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
