"""Single-event-upset fault-injection campaigns."""

from repro.injection.campaign import (
    CampaignConfig,
    CampaignReport,
    FaultResult,
    InjectionRecord,
    ReferenceDidNotHalt,
    ReferenceRun,
    classify,
    classify_tail,
    run_campaign,
)
from repro.core.pool import default_jobs
from repro.injection.resilience import (
    ResilienceConfig,
    ResilienceStats,
    run_steps_supervised,
)
from repro.injection.journal import (
    CampaignJournal,
    JournalMismatch,
    config_digest,
    load_journal,
    program_digest,
    resume_journal,
)
from repro.injection.chaos import (
    SCENARIOS as CHAOS_SCENARIOS,
    ChaosSpec,
    ScenarioResult,
    corrupt_journal_line,
    report_fingerprint,
    run_scenarios,
    truncate_journal_tail,
)
from repro.injection.shard import (
    ShardSpec,
    existing_shard_journals,
    merge_journal_files,
    merge_outcomes,
    plan_campaign_shards,
    plan_shards,
    reconstruct_report,
)
from repro.injection.multifault import (
    correlated_double_fault,
    run_faults,
    run_multifault_campaign,
)
from repro.injection.values import (
    current_payload,
    representative_values,
    with_value,
)

__all__ = [
    "CHAOS_SCENARIOS",
    "CampaignConfig",
    "CampaignJournal",
    "CampaignReport",
    "ChaosSpec",
    "FaultResult",
    "InjectionRecord",
    "JournalMismatch",
    "ReferenceDidNotHalt",
    "ReferenceRun",
    "ResilienceConfig",
    "ResilienceStats",
    "ScenarioResult",
    "ShardSpec",
    "classify",
    "classify_tail",
    "config_digest",
    "correlated_double_fault",
    "corrupt_journal_line",
    "current_payload",
    "default_jobs",
    "existing_shard_journals",
    "load_journal",
    "merge_journal_files",
    "merge_outcomes",
    "plan_campaign_shards",
    "plan_shards",
    "program_digest",
    "reconstruct_report",
    "report_fingerprint",
    "representative_values",
    "resume_journal",
    "run_campaign",
    "run_faults",
    "run_multifault_campaign",
    "run_scenarios",
    "run_steps_supervised",
    "truncate_journal_tail",
    "with_value",
]
