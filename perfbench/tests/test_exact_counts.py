"""Per-request counts repeat exactly between two runs of one seed.

Each workload runs twice, in fresh processes, for a fixed number of
traced requests; every exact count of every request must match.  Later
changes then have a noise-free cross-check for each layer.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys

import pytest

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "run.py")

#: Counts the fleet's timing decides (which worker ran which step, the
#: journal's clock-driven group commit) are not claimed there.
FLEET_EXACT = ("injections", "injection.executed", "journal.appends")

CASES = [
    ("kernels", 2),
    ("sweep", 1),
    ("fuzz", 6),
    ("fleet", 2),
]


def traced_counts(workload: str, requests: int):
    completed = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1", "--requests", str(requests)],
        capture_output=True, text=True, timeout=300, check=True)
    lines = completed.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"], completed.stdout
    counts = [json.loads(line[len("counts "):]) for line in lines
              if line.startswith("counts ")]
    assert len(counts) == requests
    return counts


@pytest.mark.parametrize("workload,requests", CASES)
def test_counts_repeat_exactly(workload, requests):
    first = traced_counts(workload, requests)
    second = traced_counts(workload, requests)
    if workload == "fleet":
        keys = ("request",) + FLEET_EXACT
        first = [{key: c[key] for key in keys} for c in first]
        second = [{key: c[key] for key in keys} for c in second]
    assert first == second
    assert all(c["injections"] > 0 for c in first)
    assert all(c["injection.executed"] == c["injections"] for c in first)
