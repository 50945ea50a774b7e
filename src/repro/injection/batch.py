"""Batch injection driver: one campaign step as a vectorized lane batch.

:func:`run_step_batch` is the vector backend's twin of the scalar loop in
:func:`repro.injection.campaign._run_step`: given the already-enumerated
fault list of one injection step, it builds a :class:`~repro.exec.vector.
LaneBatch` (one lane per fault), walks the reference schedule in lockstep
and settles every lane into exactly the ``(fault, result, outputs, steps)``
tuple the scalar engines would produce:

* **Detected lanes** (``fetch-fail``, store/branch protocol checks,
  out-of-bounds traps) are settled from reference slices alone -- the
  lockstep invariant guarantees their output tail equals the reference
  outputs emitted between injection and detection, and the latency is the
  step distance.
* **Halted lanes** reached the reference's ``halt`` with an identical
  output history: MASKED, with the full reference tail.
* **Fallback lanes** (control-flow divergence, deviating emissions,
  values outside the vector range, batch cutoff) are materialized as
  exact scalar states and finished on the compiled backend (or the
  interpreter), then classified by the same
  :func:`~repro.injection.campaign.classify_tail` as the scalar loop --
  exactness by construction, at scalar speed for only those lanes.

The function returns ``None`` whenever the program or state resists
vectorization (no numpy, unschedulable program, exotic register bank);
the caller falls through to the scalar loop, so ``backend="vector"``
never changes a report, only its speed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.faults import (
    Fault,
    QueueZapAddress,
    QueueZapValue,
    RegZap,
    apply_fault,
)
from repro.core.machine import Machine, Outcome, Trace
from repro.core.registers import PC_B, PC_G
from repro.core.state import MachineState
from repro.exec.vector import (
    FALLBACK_REASONS,
    LaneBatch,
    VMAX,
    VectorUnsupported,
    schedule_for,
    vector_available,
)
from repro.observe import get_registry

#: Retire the whole batch to the scalar fallback once this few lanes are
#: active (at a fetch boundary): full-width numpy ops on a nearly-empty
#: batch cost more than finishing the stragglers scalar.  Small batches
#: keep a proportional cutoff so tests still exercise the vector path.
CUTOFF_LANES = 24


def _screen_reason(fault: Fault, reg_index, queue_len: int) -> Optional[str]:
    """Why ``fault`` cannot be applied as an int64 array poke, or ``None``
    when it can.  The reason labels the ``vector_scalar_screened_total``
    counter, so ``--metrics`` distinguishes oversized replacement values
    from sites outside the lane layout."""
    if abs(fault.new_value) > VMAX:
        return "value-range"
    if isinstance(fault, RegZap):
        return None if fault.reg in reg_index else "site"
    if isinstance(fault, (QueueZapAddress, QueueZapValue)):
        return None if 0 <= fault.index < queue_len else "site"
    return "site"


def run_step_batch(
    program,
    config,
    reference,
    budget: int,
    step_index: int,
    base: MachineState,
    faults: List[Fault],
) -> Optional[List]:
    """All of one injection step's faulty runs, stepped in lockstep.

    Returns the step's outcomes in fault order -- element-for-element
    equal to the scalar loop's -- or ``None`` when the step cannot be
    vectorized and the caller must run it scalar.
    """
    from repro.injection.campaign import (
        FaultResult,
        classify_tail,
        run_faulty_compiled,
    )

    if not vector_available() or not faults:
        return None
    ref_trace = reference.trace
    if ref_trace.outcome is not Outcome.HALTED:
        return None
    schedule = schedule_for(program.boot(), config.oob_policy,
                            ref_trace.steps)
    if schedule is None or schedule.steps != ref_trace.steps:
        return None
    # Sanity-pin the base state to the schedule: the injection point must
    # sit exactly where the reference replay says it does.  (These always
    # hold for states produced by ReferenceRun.state_at; a mismatch means
    # the caller handed us something else, so decline rather than guess.)
    s = step_index
    instr_index = s // 2
    if tuple(base.regs._regs) != schedule.reg_names:
        return None
    if not 0 <= instr_index < len(schedule.pcs):
        return None
    if base.regs._regs[PC_G][1] != schedule.pcs[instr_index] \
            or base.regs._regs[PC_B][1] != schedule.pcs[instr_index]:
        return None
    if (s % 2 == 1) != (base.ir is not None):
        return None
    if s % 2 == 1 and base.ir != schedule.instrs[instr_index]:
        return None

    oob_policy = config.oob_policy
    error_port = config.error_port
    produced = reference.outputs_before[s]
    outputs_before = reference.outputs_before
    ref_outputs = ref_trace.outputs
    ref_steps = ref_trace.steps
    compiled = reference.compiled
    if compiled is not None and not compiled.supports(base):
        compiled = None

    def scalar_outcome(fault: Fault):
        faulty = base.clone()
        apply_fault(faulty, fault)
        if compiled is not None:
            trace = run_faulty_compiled(faulty, compiled, reference, s,
                                        budget)
        else:
            trace = Machine(faulty, oob_policy=oob_policy,
                            backend="step").run(max_steps=budget)
        result = classify_tail(trace, ref_trace, produced, error_port)
        return (fault, result, tuple(trace.outputs), trace.steps)

    # Faults the arrays cannot carry (oversized values, sites outside the
    # lane layout) run scalar, exactly as the scalar loop would run them.
    queue_len = len(base.queue)
    reg_index = schedule.reg_index
    vector_faults: List[Fault] = []
    vector_cols: List[int] = []
    results: List[Optional[tuple]] = [None] * len(faults)
    screened: Dict[str, int] = {}
    for position, fault in enumerate(faults):
        reason = _screen_reason(fault, reg_index, queue_len)
        if reason is None:
            vector_faults.append(fault)
            vector_cols.append(position)
        else:
            screened[reason] = screened.get(reason, 0) + 1
            results[position] = scalar_outcome(fault)
    if screened:
        screen_registry = get_registry()
        for reason, count in screened.items():
            screen_registry.counter("vector_scalar_screened_total",
                                    reason=reason).inc(count)
    if not vector_faults:
        return [outcome for outcome in results if outcome is not None]

    try:
        batch = LaneBatch(schedule, base, vector_faults)
    except VectorUnsupported:
        return None

    #: Reference-output tails are shared: one tuple per retirement step.
    tail_at: Dict[int, tuple] = {}

    def ref_tail(t: int) -> tuple:
        tail = tail_at.get(t)
        if tail is None:
            end = outputs_before[t] if t < ref_steps else len(ref_outputs)
            tail = tuple(ref_outputs[produced:end])
            tail_at[t] = tail
        return tail

    full_tail = tuple(ref_outputs[produced:])

    fallback_lanes = 0
    lane_steps = 0
    divergences: Dict[str, int] = {}

    def settle_fault(lane: int, t: int) -> None:
        # The hardware detected the fault at step t; by the lockstep
        # invariant the lane's output tail is the reference slice, which
        # classify_tail maps to DETECTED whether or not an error port is
        # configured (the port convention only reinterprets HALTED runs).
        col = vector_cols[lane]
        results[col] = (vector_faults[lane], FaultResult.DETECTED,
                        ref_tail(t), t - s + 1)

    def settle_halt(lane: int, t: int) -> None:
        col = vector_cols[lane]
        steps = t - s + 1
        if error_port is None:
            results[col] = (vector_faults[lane], FaultResult.MASKED,
                            full_tail, steps)
            return
        # A trailing error-port write can reclassify even an exact run.
        trace = Trace(Outcome.HALTED, list(full_tail), steps)
        result = classify_tail(trace, ref_trace, produced, error_port)
        results[col] = (vector_faults[lane], result, full_tail, steps)

    def settle_fallback(lane: int, state: MachineState, t: int,
                        reason: str) -> None:
        nonlocal fallback_lanes
        fallback_lanes += 1
        divergences[reason] = divergences.get(reason, 0) + 1
        col = vector_cols[lane]
        if compiled is not None:
            trace = run_faulty_compiled(state, compiled, reference, t,
                                        budget - (t - s))
        else:
            trace = Machine(state, oob_policy=oob_policy,
                            backend="step").run(max_steps=budget - (t - s))
        tail = ref_tail(t) + tuple(trace.outputs)
        steps = (t - s) + trace.steps
        merged = Trace(trace.outcome, list(tail), steps)
        result = classify_tail(merged, ref_trace, produced, error_port)
        results[col] = (vector_faults[lane], result, tail, steps)

    cutoff = min(CUTOFF_LANES, max(1, batch.n // 2))
    t = s
    while t < ref_steps and batch.active_count:
        if t % 2 == 0 and batch.active_count <= cutoff:
            break
        lane_steps += batch.active_count
        instr_index = t // 2
        if t % 2 == 0:
            faulted, fallback = batch.fetch(schedule.pcs[instr_index])
            for lane in faulted:
                settle_fault(lane, t)
            for lane, state in fallback:
                settle_fallback(lane, state, t, "pc")
        else:
            next_count = outputs_before[t + 1] if t + 1 < ref_steps \
                else len(ref_outputs)
            ref_pair = ref_outputs[outputs_before[t]] \
                if next_count > outputs_before[t] else None
            spec = schedule.specs[instr_index]
            faulted, fallback, halted = batch.execute(
                spec, schedule.instrs[instr_index],
                oob_policy.value == "trap", ref_pair)
            reason = FALLBACK_REASONS.get(spec[0], "other")
            for lane in faulted:
                settle_fault(lane, t)
            for lane, state in fallback:
                settle_fallback(lane, state, t, reason)
            for lane in halted:
                settle_halt(lane, t)
        t += 1
    if batch.active_count:
        # Cutoff (or a defensive tail): hand the stragglers to the scalar
        # engines at the current fetch boundary -- always exact.
        for lane, state in batch.retire_all():
            settle_fallback(lane, state, t, "cutoff")

    registry = get_registry()
    registry.counter("vector_batches_total").inc()
    registry.counter("vector_lanes_total").inc(batch.n)
    registry.counter("vector_lane_steps_total").inc(lane_steps)
    registry.counter("vector_fallback_lanes_total").inc(fallback_lanes)
    for reason, count in divergences.items():
        registry.counter("vector_divergences_total", reason=reason).inc(count)

    return results
