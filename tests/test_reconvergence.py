"""Reconvergence: compiled faulty runs settled at a reference checkpoint.

:func:`repro.injection.campaign.run_faulty_compiled` stops a faulty run
as soon as its state equals the reference checkpoint of the same step,
and completes the trace from the reference.  These tests pin that the
early exit is exact: the trace equals a full replay, and outputs emitted
*before* reconvergence still decide the classification.
"""

from __future__ import annotations

import pytest

from repro.core import Halt, Mov, PlainStore, green
from repro.core.faults import RegZap, apply_fault
from repro.core.machine import Machine, Outcome
from repro.exec import run_compiled
from repro.injection import CampaignConfig, FaultResult, run_campaign
from repro.injection import prune as _prune
from repro.injection.campaign import (
    RECONVERGE_FIRST_CHECK,
    _reference_run,
    run_faulty_compiled,
)
from repro.observe import MetricsRegistry, set_registry
from repro.program import Program
from repro.workloads import compile_kernel

#: Address the test program stores to twice.
OUT = 256
#: Straight-line padding after the stores, so the run outlives the first
#: reconvergence check.
PADDING = 100


def _store_twice_program() -> Program:
    """An unprotected program that stores to ``OUT`` twice.

    ``r1`` holds 5 for the first store and is then overwritten with 7
    before the second.  A fault in ``r1`` before the first store commits
    a wrong pair, after which the state is the reference's again.
    """
    code = {
        1: Mov("r1", green(5)),
        2: Mov("r2", green(OUT)),
        3: PlainStore("r2", "r1"),
        4: Mov("r1", green(7)),
        5: PlainStore("r2", "r1"),
    }
    for offset in range(PADDING):
        code[6 + offset] = Mov("r3", green(offset))
    code[6 + PADDING] = Halt()
    return Program(code=code, entry=1, initial_memory={OUT: 0}, num_gprs=4)


#: Before step 4 (the fetch of the first store) ``r1`` holds 5.
FAULT_STEP = 4
WRONG = RegZap("r1", 0)


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    try:
        yield fresh
    finally:
        set_registry(previous)


def test_wrong_output_then_reconvergence_is_silent_corruption(registry):
    program = _store_twice_program()
    config = CampaignConfig()
    reference = _reference_run(program, config)
    assert reference.trace.outputs == [(OUT, 5), (OUT, 7)]
    budget = reference.trace.steps + config.step_slack

    faulty = reference.state_at(FAULT_STEP)
    apply_fault(faulty, WRONG)
    replay = Machine(faulty.clone(), backend="step").run(max_steps=budget)
    trace = run_faulty_compiled(faulty, reference.compiled, reference,
                                FAULT_STEP, budget)
    assert registry.counter("campaign_reconverged_total").value == 1
    assert (trace.outcome, trace.outputs, trace.steps) == \
        (replay.outcome, replay.outputs, replay.steps)
    assert trace.outputs == [(OUT, 0), (OUT, 7)]


@pytest.mark.parametrize("prune", [True, False])
def test_campaign_keeps_pre_reconvergence_outputs(registry, prune):
    program = _store_twice_program()
    config = CampaignConfig(keep_records=True, prune=prune)
    reports = {}
    for backend in ("step", "compiled"):
        _prune._MEMO_TABLES.clear()
        reports[backend] = run_campaign(program, config, backend=backend)
    assert registry.counter("campaign_reconverged_total").value > 0
    step, compiled = reports["step"], reports["compiled"]
    assert compiled.counts == step.counts
    assert compiled.records == step.records
    wrong = [record for record in compiled.violations
             if record.step == FAULT_STEP and record.fault == WRONG]
    assert len(wrong) == 1
    assert wrong[0].result is FaultResult.SILENT_CORRUPTION
    assert wrong[0].outputs == ((OUT, 0), (OUT, 7))


def test_short_run_is_one_plain_segment(registry):
    """A run whose first check would fall past the reference's end pays
    no segmentation: the plain compiled run, no reconvergence."""
    program = _store_twice_program()
    config = CampaignConfig()
    reference = _reference_run(program, config)
    start = reference.trace.steps - RECONVERGE_FIRST_CHECK + 1
    faulty = reference.state_at(start)
    apply_fault(faulty, RegZap("r3", 1))
    plain = run_compiled(faulty.clone(), reference.compiled,
                         max_steps=10_000)
    trace = run_faulty_compiled(faulty, reference.compiled, reference,
                                start, 10_000)
    assert (trace.outcome, trace.outputs, trace.steps) == \
        (plain.outcome, plain.outputs, plain.steps)
    assert trace.outcome is Outcome.HALTED
    assert registry.counter("campaign_reconverged_total").value == 0


@pytest.mark.parametrize("mode", ["ft", "baseline"])
def test_segmented_runs_equal_full_replays(registry, mode):
    """Every register zap at sampled steps of vpr: the segmented run
    returns exactly the trace of one uninterrupted compiled run."""
    program = compile_kernel("vpr", mode).program
    config = CampaignConfig()
    reference = _reference_run(program, config)
    budget = reference.trace.steps + config.step_slack
    for start in range(0, reference.trace.steps, 97):
        base = reference.state_at(start)
        for name, value in list(base.regs._regs.items())[:12]:
            fault = RegZap(name, value[1] + 3)
            plain_state = base.clone()
            apply_fault(plain_state, fault)
            plain = run_compiled(plain_state, reference.compiled,
                                 max_steps=budget)
            faulty = base.clone()
            apply_fault(faulty, fault)
            trace = run_faulty_compiled(faulty, reference.compiled,
                                        reference, start, budget)
            assert (trace.outcome, trace.outputs, trace.steps) == \
                (plain.outcome, plain.outputs, plain.steps), (start, fault)
    assert registry.counter("campaign_reconverged_total").value > 0
