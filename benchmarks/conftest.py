"""Shared configuration for the benchmark suite.

Every benchmark regenerates one of the paper's artefacts (a table, a figure
panel, or a theorem-level scaling claim) at a reduced but faithful scale so
the whole suite runs in a couple of minutes on a laptop.  The module-level
constants below are the single place where those scales are defined.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import pytest

from repro.core.backend import active_backend

#: Problem size used by the Table 1 benchmarks (paper-scale is unspecified;
#: we fix n = 2_000, m = 8n for the measured table).
TABLE1_BALLS = 16_000
TABLE1_BINS = 2_000

#: Figure 3 benchmark grid: the paper-scale n = 10^4 scaled 10x down, and the
#: same m/n ratios as the paper's x-axis (m·10^-4 in {20, …, 100} at n = 10^4).
FIGURE3_BINS = 1_000
FIGURE3_GRID = (20_000, 40_000, 60_000, 80_000, 100_000)

#: Seeds are fixed so benchmark numbers are comparable across runs.
BENCH_SEED = 2013


@pytest.fixture(scope="session")
def bench_seed() -> int:
    return BENCH_SEED


# --------------------------------------------------------------------- #
# Benchmark-regression tracking (see benchmarks/check_regression.py)
# --------------------------------------------------------------------- #
#: Where the ``--quick`` runs drop their fresh measurements.
BENCH_OUTPUT_DIR = Path(__file__).resolve().parent
#: Where the committed reference numbers live.
BENCH_BASELINE_DIR = BENCH_OUTPUT_DIR / "baselines"


def git_sha() -> str:
    """Short commit hash of the working tree, or ``"unknown"`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=BENCH_OUTPUT_DIR,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def write_bench_json(name: str, entries: list[dict]) -> Path:
    """Record one benchmark run as ``BENCH_<name>.json`` for CI tracking.

    ``entries`` is a list of measurements; each must carry a unique
    ``label`` and an ``ops_per_second`` throughput (plus whatever sizes and
    auxiliary numbers the benchmark wants to keep).  The surrounding
    envelope records the git commit so artifacts uploaded from CI are
    attributable.  Returns the written path.
    """
    for entry in entries:
        if "label" not in entry or "ops_per_second" not in entry:
            raise ValueError(
                "every benchmark entry needs a 'label' and an 'ops_per_second'"
            )
    payload = {
        "benchmark": name,
        "git_sha": git_sha(),
        # Ambient kernel backend the run was measured under; individual
        # entries may override it (e.g. the per-backend memory scenarios).
        "backend": active_backend().name,
        "entries": entries,
    }
    path = BENCH_OUTPUT_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
