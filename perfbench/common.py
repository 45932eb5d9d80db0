"""Shared pieces of the benchmark: timing, percentiles, tracing, wrappers.

Everything here is installed from outside the program: the tracer records
spans around calls into the ``repro`` package's public boundaries, and the
wrappers (a timing :class:`~repro.core.backend.KernelBackend`, attribute
patches on single objects) are built by the benchmark, never by ``src/``.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import math
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

#: The seed a run uses when none is given, and the held-out seed a claimed
#: gain must also hold on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

#: The end-to-end figures each workload measures itself; setup_s comes
#: from its set-up and peak_rss_mb from the process at the end.
MEASURED = ("balls_per_s", "latency_p50_ms", "latency_p99_ms")

#: Fresh set-ups per run; setup_s is their median.
SETUP_REPEATS = 5

#: Servers of the benchmarked dispatch service.
SERVERS = 1000

#: Spans a tracer keeps for the span file; later ones are only aggregated.
KEEP_SPANS = 100_000

#: Kernel backend method -> layer name of its span.
KERNELS = {
    "run_window": "core.run_window",
    "occurrence_ranks": "core.occurrence_ranks",
    "conflict_free_rows": "core.conflict_free_rows",
    "simulate_weighted_block": "core.simulate_weighted_block",
    "commit_chunk": "baselines.commit_chunk",
    "memory_fallback": "baselines.memory_fallback",
    "weighted_memory_fallback": "baselines.weighted_memory_fallback",
    "move_sweep": "baselines.move_sweep",
}


def use_source_tree() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}/repro")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def now() -> float:
    return time.perf_counter()


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile of a non-empty sequence."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """p99 when at least ten samples lie beyond it, else the highest such.

    Below 20 samples no percentile above the median keeps ten beyond it;
    the slowest sample is then the tail.
    """
    if n >= 1000:
        return 99.0
    if n < 20:
        return 100.0
    return 100.0 * (1.0 - 10.0 / n)


def median(values) -> float:
    return percentile(values, 50.0)


#: Seconds the pace loop takes when the host runs at full speed.
REFERENCE_PACE_S = 0.010


class Pace:
    """The host's current speed, sampled between timed operations.

    The hosts this benchmark runs on are shared: over minutes their speed
    can halve and recover, which moves every timing alike.  A fixed loop of
    interpreter and NumPy work, independent of the program, is timed (on
    each CPU the operations use) before the first operation and after every
    one.  Each operation's time is scaled by ``REFERENCE_PACE_S`` over the
    faster of the samples just before and just after it, so a slowdown of
    the whole host cancels out while a slowdown of the program does not.
    Callers keep the raw times too.
    """

    def __init__(self, cpus=None) -> None:
        import numpy as np

        self._np = np
        self._values = np.random.default_rng(0).integers(0, 10_000, 100_000)
        self._cpus = sorted(cpus) if cpus else None
        self.samples: list[float] = []

    def _loop(self) -> float:
        started = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(10_000):
            counts[i & 1023] = counts.get(i & 1023, 0) + i
        self._np.bincount(self._values, minlength=10_000)
        self._np.argsort(self._values, kind="stable")
        return time.perf_counter() - started

    def mark(self) -> None:
        """Take one sample, averaged over the CPUs in use."""
        if not self._cpus:
            self.samples.append(self._loop())
            return
        allowed = os.sched_getaffinity(0)
        times = []
        try:
            for cpu in self._cpus:
                os.sched_setaffinity(0, {cpu})
                times.append(self._loop())
        finally:
            os.sched_setaffinity(0, allowed)
        self.samples.append(sum(times) / len(times))

    def paced(self, raw: list[float], first: int = 0) -> list[float]:
        """Each ``raw[i]``, timed between marks ``first + i`` and the next,
        at reference speed."""
        return [
            value * REFERENCE_PACE_S / min(self.samples[i], self.samples[i + 1])
            for i, value in enumerate(raw, start=first)
        ]

    def median_ms(self) -> float:
        return median(self.samples) * 1e3 if self.samples else 0.0


def timed_setup(workload: str, seed: int, repeats: int) -> tuple[float, float]:
    """Set-up time of fresh interpreters: median paced and median raw seconds.

    Each probe runs ``run.py --setup-probe``, which imports the program,
    builds the inputs and warms up, then exits.
    """
    command = [
        sys.executable,
        str(Path(__file__).with_name("run.py")),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--setup-probe",
    ]
    pace = Pace()
    pace.mark()
    raw = []
    for _ in range(repeats):
        started = now()
        subprocess.run(command, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        raw.append(now() - started)
        pace.mark()
    return median(pace.paced(raw)), median(raw)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref:"):
            return ref
        name = ref.split(None, 1)[1]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def envelope(workload: str, seed: int, samples: dict, extra: dict | None = None) -> dict:
    """Everything needed to reproduce or compare one result."""
    import numpy

    info = {
        "workload": workload,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": "numpy",
        "git_sha": git_sha(),
        "samples": samples,
    }
    if extra:
        info.update(extra)
    return info


def emit(correct: bool, attempted: int, failed: int, metrics: dict, info: dict) -> None:
    """Print the envelope line, then the result as the last stdout line."""
    print(json.dumps({"envelope": info}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )


# --------------------------------------------------------------------- #
# Tracing
# --------------------------------------------------------------------- #
class Tracer:
    """Spans kept in memory, aggregated per layer as they close.

    A span records its name, start, end, parent span and an optional
    request or shard id.  Its parent is the innermost span open in the
    same context (thread or asyncio task), so work interleaved on an event
    loop is never charged to an unrelated request.  A layer's self time is
    its span time minus the time of its direct child spans.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.top_ns = 0  # time in spans with no parent
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()  # cluster spans close on executor threads
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    def open(self, name: str, tag=None) -> list:
        parent = self._current.get()
        frame = [next(self._ids), name, time.perf_counter_ns(), 0, parent, tag, None]
        frame[6] = self._current.set(frame)
        return frame

    def close(self, frame: list) -> int:
        end = time.perf_counter_ns()
        span_id, name, start, child_ns, parent, tag, token = frame
        self._current.reset(token)
        duration = end - start
        with self._lock:
            self.calls[name] += 1
            self.total_ns[name] += duration
            self.self_ns[name] += duration - child_ns
            if parent is None:
                self.top_ns += duration
            else:
                parent[3] += duration
            if len(self.spans) < KEEP_SPANS:
                parent_id = None if parent is None else parent[0]
                self.spans.append((span_id, name, start, end, parent_id, tag))
            else:
                self.dropped += 1
        return duration

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as one ``name`` span."""

        def timed(*args, **kwargs):
            frame = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(frame)

        return timed

    def seconds(self, name: str) -> float:
        return self.total_ns.get(name, 0) / 1e9

    def self_seconds(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def layer_metrics(self, names) -> dict:
        """``<name>.calls`` and ``<name>.s`` for each layer name."""
        out = {}
        for name in names:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.s"] = self.seconds(name)
        return out

    def summary(self, basis_s: float) -> dict:
        """Per-layer calls, seconds, self seconds and self share of ``basis_s``."""
        return {
            name: {
                "calls": self.calls[name],
                "s": self.total_ns[name] / 1e9,
                "self_s": self.self_ns[name] / 1e9,
                "share": self.self_ns[name] / 1e9 / basis_s if basis_s else 0.0,
            }
            for name in sorted(self.calls)
        }

    def write(self, path: Path) -> None:
        """Write the kept spans once, as JSON lines, at the end of a run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, tag in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "tag": tag,
                        }
                    )
                    + "\n"
                )


def timed_backend(tracer: Tracer):
    """A numpy kernel backend whose every kernel call is one span."""
    from repro.core.backend import NumpyBackend

    class TimedBackend(NumpyBackend):
        """The default kernels, each call timed at the backend boundary."""

    def make(method, label):
        base = getattr(NumpyBackend, method)

        def kernel(self, *args, **kwargs):
            frame = tracer.open(label)
            try:
                return base(self, *args, **kwargs)
            finally:
                tracer.close(frame)

        kernel.__name__ = method
        return kernel

    for method, label in KERNELS.items():
        setattr(TimedBackend, method, make(method, label))
    return TimedBackend()
