"""Horizontal sharding: deterministic campaign partitioning + merge.

A sharded campaign splits the injection-step space of one campaign into
``N`` self-describing **shard specs**, executes them on a fleet of worker
processes (possibly on other machines -- :mod:`repro.service`), journals
every shard's completed steps durably, and merges the per-step outcomes
back into a :class:`~repro.injection.campaign.CampaignReport` that is
**bit-identical** to the single-process run -- fingerprint-equal
including ``latency_buckets``.

The pieces here are pure planning and merging; the socket fleet lives in
:mod:`repro.service.coordinator`:

* :func:`plan_shards` -- partition an already-sampled injection-step list
  (``stride``/``samples`` semantics are applied *before* planning, so a
  sharded campaign samples exactly the steps a single-process run would)
  into contiguous, balanced :class:`ShardSpec`\\ s carrying the campaign's
  program/config identity digests.  Deterministic: the same campaign
  always plans the same shards, which is what makes shard journals
  resumable and shard re-execution (work stealing, dead-worker reissue)
  free to happen anywhere.
* :func:`merge_outcomes` -- the order-insensitive merge: per-step
  summaries (:class:`~repro.injection.campaign.StepSummary`) may arrive
  in any order from any worker, but folding them in ascending step order
  replays exactly the serial engine's fold.
* :func:`merge_journal_files` / :func:`reconstruct_report` -- offline
  tooling (CLI: ``talft journal merge``): union shard journals into one
  combined journal a plain ``talft campaign --journal X --resume`` can
  replay, or rebuild the report directly from shard journals.

Why this is sound: every injection step's outcomes are a pure function
of ``(program, config, step_index)`` -- the per-step RNG contract from
PR 1 -- so *where* a step executes and *when* its result arrives cannot
change a bit of the merged report.  Sharding only has to guarantee
coverage (every planned step merged exactly once) and ordering at merge
time, both enforced here.
"""

from __future__ import annotations

import glob as _glob
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.pool import chunk as _chunk
from repro.injection.campaign import (
    CampaignConfig,
    CampaignReport,
    ReferenceRun,
    StepSummary,
    _campaign_instruments,
    _injection_steps,
    _reference_run,
    fold_step,
    reference_tail,
    resolve_backend_config,
    summarize_step,
)
from repro.injection.journal import (
    JournalMismatch,
    _frame,
    _header_payload,
    config_digest,
    decode_step,
    load_journal,
    program_digest,
    read_journal_header,
)
from repro.program import Program


@dataclass(frozen=True)
class ShardSpec:
    """One self-describing unit of a sharded campaign.

    Carries everything a worker -- or an offline tool -- needs to verify
    it is executing the right campaign: the shard's position, its exact
    injection steps, and the program/config identity digests the journal
    layer already uses to reject mismatched resumes.
    """

    index: int
    num_shards: int
    steps: Tuple[int, ...]
    program_digest: str
    config_digest: str

    def journal_path(self, base: str) -> str:
        """Where this shard journals under a campaign journaled at
        ``base`` (``base.shard-INDEX-of-TOTAL``)."""
        return f"{base}.shard-{self.index:03d}-of-{self.num_shards:03d}"


def plan_shards(
    steps: Sequence[int],
    num_shards: int,
    prog_digest: str,
    conf_digest: str,
) -> List[ShardSpec]:
    """Partition sampled injection steps into contiguous balanced shards.

    ``steps`` is the output of the campaign's sampler
    (:func:`repro.injection.campaign._injection_steps`), so stride and
    sample caps are already respected.  At most ``len(steps)`` shards are
    produced (empty shards are never planned); the plan is a pure
    function of its inputs.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be at least 1 (got {num_shards})")
    parts = _chunk(list(steps), num_shards) if steps else []
    total = len(parts)
    return [
        ShardSpec(index, total, tuple(part), prog_digest, conf_digest)
        for index, part in enumerate(parts)
    ]


def plan_campaign_shards(
    program: Program,
    config: CampaignConfig,
    num_shards: int,
    reference: Optional[ReferenceRun] = None,
) -> List[ShardSpec]:
    """Plan the shards of a whole campaign (reference run included).

    Convenience wrapper for callers that do not already hold the
    reference run; the coordinator plans from its own reference instead.
    """
    if reference is None:
        reference = _reference_run(program, config)
    steps = _injection_steps(reference.num_steps, config)
    return plan_shards(steps, num_shards, program_digest(program),
                       config_digest(config))


def existing_shard_journals(base: str) -> List[str]:
    """Every shard journal file written next to a campaign journal at
    ``base``, sorted by shard index (lexicographic equals numeric for the
    zero-padded naming)."""
    return sorted(_glob.glob(base + ".shard-*-of-*"))


# ---------------------------------------------------------------------------
# Order-insensitive merge
# ---------------------------------------------------------------------------


def merge_outcomes(
    reference: ReferenceRun,
    config: CampaignConfig,
    steps: Sequence[int],
    done: Dict[int, StepSummary],
) -> CampaignReport:
    """Fold per-step summaries -- gathered in *any* order -- into the
    exact single-process :class:`CampaignReport`.

    ``done`` maps every step in ``steps`` to its summary; folding in
    ascending step order replays the serial fold, so records,
    counts, violations and ``latency_buckets`` all come out bit-identical
    regardless of which worker produced which step when.  Raises
    ``ValueError`` when coverage is incomplete -- a sharded campaign must
    never silently report on a subset.
    """
    missing = [step for step in steps if step not in done]
    if missing:
        raise ValueError(
            f"sharded campaign is missing {len(missing)} of {len(steps)} "
            f"injection steps (first missing: {missing[0]}); refusing to "
            "merge a partial report")
    report = CampaignReport(reference=reference.trace)
    instruments = _campaign_instruments()
    for step_index in steps:
        fold_step(report, reference, config, done[step_index], instruments)
    return report


# ---------------------------------------------------------------------------
# Offline journal tooling (CLI: talft journal merge)
# ---------------------------------------------------------------------------


def merge_journal_files(output: str, inputs: Sequence[str]) -> Tuple[int, int]:
    """Union shard journals into one combined journal file.

    All inputs must carry the same program/config identity header
    (:class:`JournalMismatch` otherwise); duplicate steps across inputs
    are identical by the determinism contract, so the first occurrence
    wins.  The combined file is a plain campaign journal: ``talft
    campaign --journal OUTPUT --resume`` reconstructs the full report
    from it without re-executing anything.  Returns ``(steps_written,
    corrupt_lines_skipped)``.
    """
    if not inputs:
        raise ValueError("journal merge needs at least one input journal")
    header: Optional[Dict] = None
    steps: Dict[int, List] = {}
    corrupt = 0
    for path in inputs:
        found = read_journal_header(path)
        if found is None:
            raise JournalMismatch(
                f"journal {path} is missing or has no valid header")
        if header is None:
            header = found
        elif (found.get("program"), found.get("config")) != \
                (header.get("program"), header.get("config")):
            raise JournalMismatch(
                f"journal {path} belongs to a different campaign "
                f"(program {found.get('program')}/config "
                f"{found.get('config')} vs {header.get('program')}/"
                f"{header.get('config')}); refusing to merge")
        load = load_journal(path, header["program"], header["config"])
        corrupt += load.corrupt_lines
        for step_index, raw in load.steps.items():
            steps.setdefault(step_index, raw)
    temp_path = output + ".tmp"
    with open(temp_path, "w") as handle:
        handle.write(_frame(_header_payload(header["program"],
                                            header["config"])))
        for step_index in sorted(steps):
            handle.write(_frame({"step": step_index,
                                 "out": steps[step_index]}))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp_path, output)
    return len(steps), corrupt


def load_shard_steps(
    program: Program,
    config: CampaignConfig,
    paths: Sequence[str],
    reference: ReferenceRun,
) -> Tuple[Dict[int, StepSummary], int]:
    """Decode and summarise every journaled step from ``paths``,
    identity-verified.

    Returns ``(done_steps, corrupt_lines)``; steps outside the campaign's
    sampled set are ignored (a journal from a wider run may seed a
    narrower one).
    """
    prog_digest = program_digest(program)
    conf_digest = config_digest(config)
    wanted = set(_injection_steps(reference.num_steps, config))
    done: Dict[int, StepSummary] = {}
    corrupt = 0
    for path in paths:
        load = load_journal(path, prog_digest, conf_digest)
        corrupt += load.corrupt_lines
        for step_index, raw in load.steps.items():
            if step_index in wanted and step_index not in done:
                outcomes = decode_step(
                    raw, reference_tail(reference, step_index))
                done[step_index] = summarize_step(reference, config,
                                                  step_index, outcomes)
    return done, corrupt


def reconstruct_report(
    program: Program,
    config: Optional[CampaignConfig] = None,
    journal_paths: Sequence[str] = (),
    backend: Optional[str] = None,
) -> CampaignReport:
    """Rebuild the exact single-process report from shard journals alone.

    No injection is re-executed: the reference run is recomputed (it is
    deterministic and cheap relative to the campaign) and every sampled
    step must be present across ``journal_paths``.  The result is
    fingerprint-equal to the uninterrupted single-process campaign,
    ``latency_buckets`` included.
    """
    from repro.injection.resilience import ResilienceStats

    config = resolve_backend_config(program, config or CampaignConfig(),
                                    backend)
    reference = _reference_run(program, config)
    steps = _injection_steps(reference.num_steps, config)
    done, corrupt = load_shard_steps(program, config, journal_paths,
                                     reference)
    report = merge_outcomes(reference, config, steps, done)
    stats = ResilienceStats(resumed_steps=len(steps),
                            corrupt_journal_lines=corrupt)
    report.resilience = stats
    return report
