"""Checkpointed co-simulation validation of the DLX implementation."""

from .checkpoints import compare_checkpoint, compare_streams
from .harness import (
    DIRECTED_TEST_NAME,
    BugCampaignError,
    BugVerdict,
    campaign_from_concrete_test,
    directed_battery,
    expected_stream,
    measure_latencies,
    run_bug_campaign,
    sweep_bug_verdicts,
    validate,
    validate_concrete_test,
)
from .report import (
    BugCampaignResult,
    BugCampaignRow,
    Mismatch,
    ValidationResult,
)
from .testgen import ConcreteTest, ConversionError, fill_inputs

__all__ = [
    "DIRECTED_TEST_NAME",
    "BugCampaignError",
    "BugCampaignResult",
    "BugCampaignRow",
    "BugVerdict",
    "expected_stream",
    "ConcreteTest",
    "ConversionError",
    "Mismatch",
    "ValidationResult",
    "campaign_from_concrete_test",
    "compare_checkpoint",
    "compare_streams",
    "directed_battery",
    "fill_inputs",
    "measure_latencies",
    "run_bug_campaign",
    "sweep_bug_verdicts",
    "validate",
    "validate_concrete_test",
]
