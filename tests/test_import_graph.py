"""Import-graph guard: every entry point runs on numpy and the stdlib alone.

Each fresh ``repro`` process - the CLI, ``repro serve``, a cluster worker
started with ``spawn`` - pays for whatever its imports pull in before it
does any work.  scipy alone cost about 0.9 s of that, although only
confidence intervals, the Poisson reference pmf and the theory tail bounds
call it, so those functions import it on first use.  This test keeps it
that way, and catches the next heavy import before a benchmark does: a
fresh interpreter imports every entry point, runs a small simulation of
each protocol, one dispatch batch and one cluster shard, and may load no
third-party package but numpy.  The cluster also stands apart from the
live service: a TCP sweep loads no ``repro.service`` module, since both
transports share the cluster's own wire.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json
import sys

def top_level():
    # Modules with no import spec were made in memory, not imported: the
    # ``__mp_main__`` alias multiprocessing adds and Cython's runtime
    # modules inside numpy.random.
    return {
        name.partition(".")[0]
        for name, module in list(sys.modules.items())
        if getattr(module, "__spec__", None) is not None
    }

before = top_level()

import numpy as np

import repro
import repro.cluster.worker
import repro.experiments.cli
import repro.resilience
import repro.service.server
from repro.api import SimulationSpec, simulate
from repro.scheduler import Dispatcher

for protocol in ("adaptive", "threshold", "greedy", "left", "memory", "weighted-adaptive"):
    simulate(SimulationSpec(protocol, 200, 20, seed=0, trials=2))
Dispatcher(16, seed=0).dispatch_batch(np.ones(40))
repro.cluster.worker.run_shard(SimulationSpec("adaptive", 200, 20, seed=0, trials=2), 0)

new = top_level() - before
print(json.dumps(sorted(name for name in new if name not in sys.stdlib_module_names)))
"""


TCP_SWEEP_SCRIPT = """
import json
import sys

from repro.cluster import TcpTransport, run_cluster_sweep
from repro.experiments.config import SweepConfig

sweep = SweepConfig(protocols=("adaptive",), n_bins=20, ball_grid=(100, 200), trials=2, seed=0)
rows = run_cluster_sweep(sweep, workers=2, transport=TcpTransport())
assert len(rows) == 4, rows
print(json.dumps(sorted(name for name in sys.modules if name.startswith("repro.service"))))
"""


def run_fresh(script: str):
    """Run ``script`` in a fresh interpreter; its last stdout line as JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_entry_points_load_no_third_party_package_but_numpy():
    assert run_fresh(SCRIPT) == ["numpy", "repro"]


def test_tcp_sweep_loads_no_service_module():
    assert run_fresh(TCP_SWEEP_SCRIPT) == []
