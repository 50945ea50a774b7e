"""Backend parity: the compiled executor is an observational twin of step().

Every test here runs the same program through both execution backends and
demands *equality of everything observable*: outcome, output sequence,
step count, rule-name sequence, final register bank, store-queue contents,
memory, machine status and pending instruction register.  The sweeps cover
the places fusion could plausibly diverge -- faults landing between the
halves of a fused pair, step budgets that split chains mid-way, the RANDOM
out-of-bounds policy, and multi-fault schedules.
"""

from __future__ import annotations

import random

import pytest

from repro.core.faults import QueueZapAddress, QueueZapValue, RegZap
from repro.core.machine import Machine
from repro.core.semantics import KNOWN_RULES, OobPolicy
from repro.core.tracing import trace_execution
from repro.exec import (
    clear_exec_caches,
    compiled_for,
    exec_cache_stats,
    run_compiled,
    trace_events_compiled,
)
from repro.injection import CampaignConfig, run_campaign
from repro.injection import prune as _prune
from repro.injection.multifault import run_multifault_campaign
from repro.observe import MetricsRegistry, set_registry
from repro.workloads import ALL_KERNELS, compile_kernel

#: The shortest-running kernel (loads, stores, arithmetic and both
#: transfer kinds) -- cheap enough to sweep exhaustively.
_SMALL = "vpr"


def _program(name=_SMALL, mode="ft"):
    return compile_kernel(name, mode).program


def _snapshot(state):
    return (dict(state.regs._regs), state.queue.pairs(),
            dict(state.memory), state.status, state.ir)


def _run_both(program, *, fault=None, at=0, faults=None, max_steps=3000,
              budget=1, policy=OobPolicy.TRAP):
    """Run under both backends; return the (identical) observables."""
    results = []
    for backend in ("step", "compiled"):
        state = program.boot()
        machine = Machine(state, oob_policy=policy, record_rules=True,
                          fault_budget=budget, backend=backend)
        try:
            trace = machine.run(max_steps=max_steps, fault=fault,
                                fault_at_step=at, faults=faults)
            observed = (trace.outcome, tuple(trace.outputs), trace.steps,
                        tuple(trace.rules))
        except Exception as exc:  # must raise identically on both backends
            observed = ("raised", type(exc).__name__, str(exc))
        results.append((observed, _snapshot(state)))
    assert results[0] == results[1], (fault, at, faults, max_steps)
    return results[0]


# ---------------------------------------------------------------------------
# Fault-free parity across the whole workload suite
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_KERNELS)
@pytest.mark.parametrize("mode", ("ft", "baseline", "swift"))
def test_fault_free_parity_all_kernels(name, mode):
    program = _program(name, mode)
    if name == "gzip":
        # The longest kernel: bound the run, parity must hold mid-flight.
        _run_both(program, max_steps=50_000)
    else:
        _run_both(program, max_steps=3_000_000)


@pytest.mark.parametrize("policy", (OobPolicy.TRAP, OobPolicy.RANDOM))
def test_fault_free_parity_policies(policy):
    _run_both(_program("vpr"), policy=policy, max_steps=50_000)


def test_rules_are_known():
    """Every rule the compiled backend emits is a semantics rule name."""
    state = _program("vpr").boot()
    compiled = compiled_for(state)
    assert compiled is not None
    trace = run_compiled(state, compiled, max_steps=20_000, rules=[])
    assert trace.rules and set(trace.rules) <= KNOWN_RULES


# ---------------------------------------------------------------------------
# Exhaustive fault sweep on a small program
# ---------------------------------------------------------------------------


def test_exhaustive_zap_sweep():
    """Every register zap and queue zap at every early step, both backends.

    This is the case fusion must not get wrong: the injection lands at
    exact small-step granularity, including *between* the two halves of
    what the compiled backend fuses into one dispatch.
    """
    program = _program()
    registers = sorted(program.boot().regs._regs)
    cases = 0
    for at in range(48):
        for reg in registers:
            for value in (0, 999):
                _run_both(program, fault=RegZap(reg, value), at=at)
                cases += 1
        for index in range(2):
            _run_both(program, fault=QueueZapAddress(index, 5), at=at)
            _run_both(program, fault=QueueZapValue(index, 1000), at=at)
            cases += 2
    assert cases > 1000


def test_step_budget_parity():
    """Budgets that split fused chains mid-way, incl. mid-instruction."""
    program = _program()
    for max_steps in (0, 1, 2, 3, 5, 17, 33, 101):
        _run_both(program, max_steps=max_steps)
        _run_both(program, fault=RegZap("pcG", 7), at=11,
                  max_steps=max_steps)


def test_multifault_schedule_parity():
    program = _program()
    registers = sorted(program.boot().regs._regs)
    rng = random.Random(7)
    for _ in range(60):
        count = rng.randint(2, 4)
        faults = sorted(
            ((rng.randint(0, 100), RegZap(rng.choice(registers),
                                          rng.randint(0, 99)))
             for _ in range(count)),
            key=lambda pair: pair[0],
        )
        _run_both(program, faults=faults, budget=count, max_steps=2500)


def test_multifault_engine_report_parity():
    program = _program("vpr")
    reports = [
        run_multifault_campaign(program, num_faults=2, samples=40, seed=9,
                                backend=backend)
        for backend in ("step", "compiled")
    ]
    assert reports[0].injections == reports[1].injections
    assert reports[0].counts == reports[1].counts


# ---------------------------------------------------------------------------
# Trace events and campaign reports
# ---------------------------------------------------------------------------


def test_trace_event_parity():
    program = _program("vpr")
    interpreter = trace_execution(program.boot(), max_steps=4001)
    compiled = trace_events_compiled(program.boot(), max_steps=4001)
    assert interpreter == compiled


def test_trace_execution_backend_param():
    program = _program()
    assert trace_execution(program.boot(), max_steps=500) == \
        trace_execution(program.boot(), max_steps=500, backend="compiled")
    with pytest.raises(ValueError):
        trace_execution(program.boot(), backend="jit")


def test_campaign_report_parity():
    """Bit-identical campaign reports, incl. per-record diagnostics.

    Covers FT and baseline builds, pruned and unpruned.  The compiled
    backend settles most of these faulty runs at reconvergence with the
    reference (the ``step`` backend replays every run to its end), so
    the comparison also pins that early exit.
    """
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        for mode in ("ft", "baseline"):
            program = _program("vpr", mode)
            for prune in (True, False):
                config = CampaignConfig(
                    max_injection_steps=12, max_values_per_site=2,
                    max_sites_per_step=6, seed=321, keep_records=True,
                    prune=prune)
                reports = []
                settled = []
                reconverged = registry.counter("campaign_reconverged_total")
                for backend in ("step", "compiled"):
                    # A warm outcome memo would copy one backend's
                    # outcomes into the other's report.
                    _prune._MEMO_TABLES.clear()
                    before = reconverged.value
                    reports.append(
                        run_campaign(program, config, backend=backend))
                    settled.append(reconverged.value - before)
                assert settled[0] == 0 and settled[1] > 0, (mode, prune)
                first, second = reports
                assert first.injections == second.injections
                assert first.counts == second.counts
                assert first.violations == second.violations
                assert len(first.records) == len(second.records)
                for a, b in zip(first.records, second.records):
                    assert (a.step, a.fault, a.result, a.outputs,
                            a.latency) == \
                        (b.step, b.fault, b.result, b.outputs, b.latency)
    finally:
        set_registry(previous)


def test_unknown_backend_rejected():
    program = _program()
    with pytest.raises(Exception):
        Machine(program.boot(), backend="jit")
    config = CampaignConfig(max_injection_steps=2, max_sites_per_step=2,
                            max_values_per_site=1)
    with pytest.raises(Exception):
        run_campaign(program, config, backend="jit")


def test_program_cache_shared():
    """One compilation serves repeated runs of the same program."""
    clear_exec_caches()
    program = _program("vpr")
    for _ in range(3):
        state = program.boot()
        Machine(state, backend="compiled").run(max_steps=10_000)
    stats = exec_cache_stats()
    assert stats["programs"] == 1
