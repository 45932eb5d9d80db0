"""The service workloads, driven against a service in its own process.

``service-open`` is an open loop: one sender thread sends small seeded
submits (1-32 jobs, each with a ``request_id``) and a fixed share of
``stats`` reads on a Poisson schedule that steps through a ladder of
arrival rates, while one receiver thread reads the replies on the same
connection.  Every request is timed from when it was due, so a stall
delays every request scheduled behind it.

``service-small`` is the same request mix in a closed loop: one client
sends one request and waits for its reply before sending the next.  It
measures the small-frame path (codec, request log, ``stats``, small-burst
dispatch) without depending on where a collector pause falls.

``service-bulk`` is a closed loop of bulk writes: one client sends
pipelined waves of large submits (hundreds of jobs, heavy-tailed job
sizes, no ``request_id``) and waits for the whole wave before sending the
next.

All of them check every reply against a bare ``Dispatcher.dispatch_batch``
replay of the same group stream and the final ``stats``/``checkpoint``
against the replay's counters, outside the timed region.
"""

from __future__ import annotations

import gc
import json
import math
import os
import select
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from common import (
    MEASURED,
    ROOT,
    SERVERS,
    SETUP_REPEATS,
    TMP,
    Pace,
    median,
    now,
    percentile,
    tail_percentile,
)

LAUNCHER = Path(__file__).with_name("service_main.py")
START_TIMEOUT_S = 60.0
#: Closed-loop small submits each fresh service gets before measuring.
WARM_UP_REQUESTS = 200

#: The open loop's arrival-rate ladder: (requests per second, relative
#: length) per step.  A short settling step comes first; the reference
#: step, at which latency is reported, is the longest so its p99 has many
#: samples beyond it.  The latency limit applies to every step's p99.
LADDER = (
    (500, 0.5),
    (1000, 4.0),
    (2000, 1.0),
    (4000, 1.0),
    (6000, 1.0),
    (8000, 1.0),
    (10000, 1.0),
    (12000, 1.0),
)
REFERENCE_STEP = 1
LIMIT_MS = 20.0
#: Requests in flight past which the service is plainly overrun: the
#: sender stops and the steps it did not finish count as failed.
ABORT_OUTSTANDING = 500
STATS_SHARE = 0.05
MAX_SUBMIT_JOBS = 32
#: How long the open loop waits for stragglers after its last send.
GRACE_S = 5.0

#: The bulk loop's waves: pipelined submits per wave, jobs per submit, and
#: how many distinct waves the seeded pool holds (sent round-robin).
WAVE_SUBMITS = 8
BULK_JOBS = (100, 600)
WAVE_POOL = 64
#: Requests of one pass of the small closed loop (about 0.3 s at the
#: ~0.31 ms a closed-loop small submit takes on a 2-CPU host).
SMALL_POOL = 1024
#: Latencies per p99 window of a closed loop, so ten lie beyond each p99.
WINDOW = 1024
STATS_FRAME = b'{"type":"stats","id":0}\n'


# --------------------------------------------------------------------- #
# The service process
# --------------------------------------------------------------------- #
def cpu_split() -> tuple[set, set] | None:
    """One CPU for the client, another for the service, when there are two.

    Fixed placement keeps the scheduler from putting the client and the
    service on one CPU in some runs and on two in others.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return {cpus[0]}, {cpus[1]}


class ServiceProcess:
    """One service process plus one client connection to it."""

    def __init__(self, seed: int, ledger: Path | None = None, cpus=None) -> None:
        started = now()
        command = [sys.executable, str(LAUNCHER), "--seed", str(seed)]
        if ledger is not None:
            command += ["--trace", str(ledger)]
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT)
        if cpus is not None:
            os.sched_setaffinity(self.proc.pid, cpus)
        try:
            port = self._read_port()
            self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")
        self.start_s = now() - started
        self._ids = 0

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("PORT "):
            raise RuntimeError(f"service did not start (got {line!r})")
        return int(line.split()[1])

    def call(self, message: dict) -> dict:
        """One closed-loop request: send, then wait for its reply."""
        self._ids += 1
        message = dict(message, id=f"c{self._ids}")
        self.sock.sendall(json.dumps(message).encode() + b"\n")
        while True:
            reply = json.loads(self.rfile.readline())
            if reply.get("id") == message["id"]:
                return reply

    def close(self) -> None:
        try:
            self.call({"type": "shutdown"})
        except (OSError, ValueError):
            pass
        self.rfile.close()
        self.sock.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def small_group(rng) -> list[float]:
    """1-32 jobs with sizes in [0.5, 2], as an interactive client sends."""
    count = int(rng.integers(1, MAX_SUBMIT_JOBS + 1))
    return np.round(rng.uniform(0.5, 2.0, count), 3).tolist()


def warm_up_groups(rng) -> list[list[float]]:
    return [small_group(rng) for _ in range(WARM_UP_REQUESTS)]


def start_service(seed: int, warm: list, ledger: Path | None = None, cpus=None):
    """Start a service and warm it up; returns it, its replies and the time."""
    service = ServiceProcess(seed, ledger, cpus)
    started = now()
    replies = [service.call({"type": "submit", "sizes": sizes}) for sizes in warm]
    return service, replies, service.start_s + (now() - started)


def setup_services(seed: int, warm: list, pace: Pace, cpus=None):
    """Start the service several times; keep the last, report the medians.

    Returns the service, its warm-up replies, and the median paced and raw
    set-up seconds.
    """
    raw = []
    pace.mark()
    for attempt in range(SETUP_REPEATS):
        service, replies, seconds = start_service(seed, warm, cpus=cpus)
        raw.append(seconds)
        if attempt + 1 < SETUP_REPEATS:
            service.close()
        pace.mark()
    return service, replies, median(pace.paced(raw)), median(raw)


class ReplayCheck:
    """Replay the group stream on a bare dispatcher; count mismatched replies."""

    def __init__(self, seed: int) -> None:
        from repro.scheduler.dispatcher import Dispatcher

        self.bare = Dispatcher(SERVERS, policy="adaptive", seed=seed)
        self.bad = 0

    def feed(self, pairs) -> None:
        """Check the next replies.

        ``pairs`` yields each submitted group's job sizes with its reply (a
        dict, or ``None`` when it never came), in send order; sizes of
        ``None`` mark a ``stats`` read, whose reply must be stats.
        """
        for sizes, reply in pairs:
            if sizes is None:
                self.bad += reply is None or reply.get("type") != "stats"
                continue
            want = self.bare.dispatch_batch(np.asarray(sizes, dtype=np.float64))
            got = None if reply is None else reply.get("assignments")
            if got is None or not np.array_equal(np.asarray(got), want):
                self.bad += 1

    def finish(self, service) -> list[str]:
        """The service's final counters against the replay's."""
        problems = []
        stats = service.call({"type": "stats"})["stats"]
        state = service.call({"type": "checkpoint"})["state"]
        counts = np.asarray(state["job_counts"])
        if int(counts.sum()) != int(stats["jobs_dispatched"]):
            problems.append("job_counts.sum() != jobs_dispatched")
        if not np.array_equal(counts, self.bare.job_counts):
            problems.append("service job_counts differ from the bare replay")
        if int(stats["jobs_dispatched"]) != int(self.bare.jobs_dispatched):
            problems.append("jobs_dispatched differs from the jobs sent")
        return problems


# --------------------------------------------------------------------- #
# service-open
# --------------------------------------------------------------------- #
def open_schedule(rng, seconds: float):
    """Due offsets, frames, group sizes and ladder step of every request."""
    unit_s = seconds / sum(length for _, length in LADDER)
    offsets, frames, groups, steps = [], [], [], []
    start = 0.0
    for step, (rate, length) in enumerate(LADDER):
        step_s = unit_s * length
        gaps = rng.exponential(1.0 / rate, int(rate * step_s * 1.2) + 10)
        times = start + np.cumsum(gaps)
        times = times[times < start + step_s]
        for due in times.tolist():
            index = len(frames)
            if rng.random() < STATS_SHARE:
                message = {"type": "stats", "id": index}
                sizes = None
            else:
                sizes = small_group(rng)
                message = {
                    "type": "submit",
                    "sizes": sizes,
                    "id": index,
                    "request_id": f"open-{index}",
                }
            offsets.append(due)
            frames.append(json.dumps(message, separators=(",", ":")).encode() + b"\n")
            groups.append(sizes)
            steps.append(step)
        start += step_s
    return np.asarray(offsets), frames, groups, np.asarray(steps)


def drive_open(service: ServiceProcess, offsets, frames):
    """Send on schedule from one thread, receive on another."""
    n = len(frames)
    sent_at = np.zeros(n)
    outstanding = np.zeros(n, dtype=np.int64)
    received: list[tuple[float, bytes]] = []
    recv_wait = [0.0]
    rfile = service.rfile

    def receive() -> None:
        while len(received) < n:
            before = time.perf_counter()
            try:
                line = rfile.readline()
            except (OSError, ValueError):
                return
            after = time.perf_counter()
            recv_wait[0] += after - before
            if not line:
                return
            received.append((after, line))

    receiver = threading.Thread(target=receive, name="perfbench-receiver")
    sock = service.sock
    sock.settimeout(None)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(0.0002)
    # The generator's own garbage collections would stall both threads and
    # show up as service latency.
    gc.collect()
    gc.disable()
    try:
        receiver.start()
        base = time.perf_counter() + 0.05
        i = 0
        while i < n:
            t = time.perf_counter()
            due = base + offsets[i]
            if t < due:
                time.sleep(due - t)
                continue
            j = i + 1
            while j < n and base + offsets[j] <= t:
                j += 1
            sock.sendall(b"".join(frames[i:j]))
            sent_at[i:j] = t
            outstanding[i:j] = np.arange(i, j) + 1 - len(received)
            i = j
            if outstanding[i - 1] > ABORT_OUTSTANDING:
                break
        n = i  # the receiver stops after the replies to what was sent
        receiver.join(GRACE_S)
        if receiver.is_alive():
            sock.shutdown(socket.SHUT_RD)
            receiver.join()
            raise RuntimeError("open loop: replies missing after the grace period")
    finally:
        gc.enable()
        sys.setswitchinterval(switch)
    return n, base, sent_at[:n], outstanding[:n], received, recv_wait[0]


def growth(times, values) -> float:
    """Increase of ``values`` over the span of ``times``, by a least-squares line."""
    if len(times) < 3 or np.ptp(times) == 0:
        return 0.0
    slope = np.polyfit(times, values, 1)[0]
    return float(slope * np.ptp(times))


def evaluate_steps(due, latency_ms, outstanding, steps, depths):
    """Per ladder step: p99, backlog, pass/fail; and the highest rate met.

    A step's backlog grows when the requests in flight, or the service's
    ``queue_depth`` gauge (in jobs), rise through the step by more than the
    latency limit allows at that rate (Little's law: rate * limit).
    """
    mean_jobs = (1 + MAX_SUBMIT_JOBS) / 2
    results = []
    for step, (rate, _) in enumerate(LADDER):
        mask = steps == step
        lat = latency_ms[mask]
        if lat.size == 0:
            continue
        p99 = percentile(lat.tolist(), tail_percentile(lat.size))
        allowed = max(16.0, rate * LIMIT_MS / 1e3)
        depth_t, depth = depths.get(step, ([], []))
        backlog = (
            growth(due[mask], outstanding[mask]) > allowed
            or growth(depth_t, depth) > allowed * mean_jobs
        )
        results.append(
            {
                "rate_hz": rate,
                "p50_ms": percentile(lat.tolist(), 50),
                "p99_ms": p99,
                "samples": int(lat.size),
                "backlog": bool(backlog),
                "passed": bool(p99 <= LIMIT_MS and not backlog),
            }
        )
    return results, max_rate(results)


def monotone(values: list[float]) -> list[float]:
    """Least-squares non-decreasing fit (pool adjacent violators)."""
    blocks: list[list[float]] = []  # [mean, weight]
    for value in values:
        blocks.append([value, 1.0])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            (m2, w2), (m1, w1) = blocks.pop(), blocks.pop()
            blocks.append([(m1 * w1 + m2 * w2) / (w1 + w2), w1 + w2])
    return [mean for mean, weight in blocks for _ in range(int(weight))]


def max_rate(results) -> float:
    """The highest rate at which p99 meets the limit without a backlog.

    p99 grows with the arrival rate, but one stall can push a single
    step's p99 past the limit.  So log(p99) is fitted non-decreasing in the
    rate (a step with a growing backlog, or with replies missing, counts
    as far past the limit), and the rate where the fit crosses the limit
    is interpolated between the two ladder steps around it.
    """
    if not results:
        return 0.0
    worst = math.log(100 * LIMIT_MS)
    logs = [
        worst if r["backlog"] or not math.isfinite(r["p99_ms"])
        else min(math.log(max(r["p99_ms"], 1e-3)), worst)
        for r in results
    ]
    fit = monotone(logs)
    limit = math.log(LIMIT_MS)
    rates = [math.log(r["rate_hz"]) for r in results]
    if fit[0] > limit:
        return results[0]["rate_hz"] * math.exp(limit - fit[0])
    for i in range(1, len(fit)):
        if fit[i] > limit:
            fraction = (limit - fit[i - 1]) / (fit[i] - fit[i - 1])
            return math.exp(rates[i - 1] + fraction * (rates[i] - rates[i - 1]))
    return float(results[-1]["rate_hz"])


def run_open_session(seed: int, seconds: float, service, warm, warm_replies, pace):
    """The rate ladder.  Its figures are reported raw: ``pace`` goes unused,
    since sampling it mid-ladder would stall the schedule."""
    rng = np.random.default_rng([seed, 2])
    offsets, frames, groups, steps = open_schedule(rng, seconds)
    n, base, sent_at, outstanding, received, recv_wait = drive_open(
        service, offsets, frames
    )
    offsets, groups, steps = offsets[:n], groups[:n], steps[:n]
    recv_at = np.full(n, np.inf)
    replies: list = [None] * n
    depths: dict[int, tuple[list, list]] = {}
    errors = 0
    for t, line in received:
        reply = json.loads(line)
        index = reply.get("id")
        if not isinstance(index, int) or not 0 <= index < n:
            errors += 1
            continue
        if reply.get("type") == "error":
            errors += 1
            continue
        recv_at[index] = t
        replies[index] = reply
        if reply.get("type") == "stats":
            times, values = depths.setdefault(int(steps[index]), ([], []))
            times.append(t)
            values.append(reply["stats"].get("queue_depth", 0))
    due = base + offsets
    # A request that failed or never came back misses the limit.
    latency_ms = (recv_at - due) * 1e3
    results, rate = evaluate_steps(due, latency_ms, outstanding, steps, depths)
    ref = steps == REFERENCE_STEP
    ref_lat = latency_ms[ref].tolist()
    submits = [i for i in range(n) if groups[i] is not None]
    check = ReplayCheck(service_seed(seed))
    check.feed(zip(warm, warm_replies))
    check.feed((groups[i], replies[i]) for i in submits)
    bad, problems = check.bad, check.finish(service)
    failed = int(np.sum(~np.isfinite(recv_at))) + errors
    # Jobs dispatched per second while the reference rate was offered.
    ref_jobs = sum(len(groups[i]) for i in np.flatnonzero(ref) if groups[i] is not None)
    ref_span = float(np.ptp(due[ref])) if ref.any() else 0.0
    return {
        "attempted": n,
        "failed": failed + bad,
        "correct": bad == 0 and not problems and failed == 0,
        "problems": problems,
        "balls_per_s": ref_jobs / ref_span if ref_span else 0.0,
        "max_rate_hz": rate,
        "latency_p50_ms": percentile(ref_lat, 50),
        "latency_p99_ms": percentile(ref_lat, tail_percentile(len(ref_lat))),
        "latency_samples": len(ref_lat),
        "latency_tail_pct": tail_percentile(len(ref_lat)),
        "steps": results,
        "late_p99_ms": percentile(((sent_at - due) * 1e3).tolist(), 99),
        "outstanding_max": int(outstanding.max()) if n else 0,
        "recv_wait_s": recv_wait,
    }


# --------------------------------------------------------------------- #
# The closed loops: service-small and service-bulk
# --------------------------------------------------------------------- #
def frame(message: dict) -> bytes:
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


def small_pool(rng):
    """One pass of the small closed loop: one request per step.

    Each step is ``(payload, groups)``; ``groups`` holds the job sizes of
    each frame in the payload, ``None`` for a ``stats`` read.  A payload's
    ``%d`` takes the send counter, so every submit carries a fresh
    ``request_id``.  The mix is the open loop's.
    """
    pool = []
    for _ in range(SMALL_POOL):
        if rng.random() < STATS_SHARE:
            pool.append((STATS_FRAME, [None]))
            continue
        sizes = small_group(rng)
        message = {"type": "submit", "sizes": sizes, "id": 0, "request_id": "small-%d"}
        pool.append((frame(message), [sizes]))
    return pool


def bulk_pool(rng):
    """One pass of the bulk closed loop: one pipelined wave per step."""
    pool = []
    for _ in range(WAVE_POOL):
        frames, groups = [], []
        for slot in range(WAVE_SUBMITS):
            count = int(rng.integers(BULK_JOBS[0], BULK_JOBS[1] + 1))
            sizes = np.round(1.0 + rng.pareto(1.5, count), 3).tolist()
            frames.append(frame({"type": "submit", "sizes": sizes, "id": slot}))
            groups.append(sizes)
        pool.append((b"".join(frames), groups))
    return pool


def run_closed_session(pool, seed, seconds, service, warm, warm_replies, pace):
    """Whole passes over ``pool`` until ``seconds`` have gone by.

    Each step sends its payload and waits for a reply to every frame in
    it; each reply's latency runs from the step's send.  A frame's id is
    its slot in the step.
    """
    sock, readline = service.sock, service.rfile.readline
    numbered = [b"%d" in payload for payload, _ in pool]
    pass_jobs = sum(len(sizes) for _, groups in pool for sizes in groups if sizes)
    latencies, cycles = [], []  # latencies: one list per pass
    recv_wait = 0.0
    sent = 0
    check = ReplayCheck(service_seed(seed))
    check.feed(zip(warm, warm_replies))

    gc.collect()
    gc.disable()
    pace_start = len(pace.samples)
    pace.mark()
    deadline = now() + seconds
    while True:
        cycle_start = now()
        pass_latencies, lines = [], []
        for (payload, groups), number in zip(pool, numbered):
            started = now()
            sock.sendall(payload % sent if number else payload)
            for _ in groups:
                before = now()
                line = readline()
                after = now()
                if not line:
                    raise RuntimeError("closed loop: the service closed the connection")
                recv_wait += after - before
                lines.append(line)
                pass_latencies.append((after - started) * 1e3)
            sent += 1
        # The closed loop idles while the pace is sampled and the pass's
        # replies are checked, so the client's memory does not grow with
        # the number of passes; the check's time is not measured.
        cycles.append(now() - cycle_start)
        latencies.append(pass_latencies)
        pace.mark()
        checked = now()
        check.feed(pass_pairs(pool, lines))
        deadline += now() - checked
        if now() >= deadline:
            break
    gc.enable()
    # Pace each pass, and each request by its pass's factor.
    paced_cycles = pace.paced(cycles, first=pace_start)
    paced_latencies = [
        [value * paced / raw for value in one]
        for raw, paced, one in zip(cycles, paced_cycles, latencies)
    ]
    problems = check.finish(service)
    replies = sum(len(one) for one in latencies)
    return {
        "attempted": replies,
        "failed": check.bad,
        "correct": check.bad == 0 and not problems,
        "problems": problems,
        **closed_figures(pass_jobs, paced_cycles, paced_latencies),
        "raw": closed_figures(pass_jobs, cycles, latencies),
        "latency_samples": replies,
        "latency_tail_pct": 99.0,
        "recv_wait_s": recv_wait,
    }


def pass_pairs(pool, lines):
    """Each group of one pass over ``pool`` with its reply, in send order."""
    position = 0
    for _, groups in pool:
        replies = {}
        for line in lines[position : position + len(groups)]:
            reply = json.loads(line)
            replies[reply.get("id")] = reply
        position += len(groups)
        for slot, sizes in enumerate(groups):
            yield sizes, replies.get(slot)


def run_small_session(seed, seconds, service, warm, warm_replies, pace):
    pool = small_pool(np.random.default_rng([seed, 7]))
    return run_closed_session(pool, seed, seconds, service, warm, warm_replies, pace)


def run_bulk_session(seed, seconds, service, warm, warm_replies, pace):
    pool = bulk_pool(np.random.default_rng([seed, 3]))
    return run_closed_session(pool, seed, seconds, service, warm, warm_replies, pace)


def closed_figures(pass_jobs: int, cycles: list, latencies: list) -> dict:
    """Rates from the median pass; latency from the requests of every pass.

    ``latencies`` holds one list of request latencies per pass.  p99 is
    taken within windows of whole passes holding at least ``WINDOW``
    requests (so ten lie beyond it) and the median window is reported: a
    rare stall of the host or the service moves one window, not the
    figure.  The window size is fixed, so the percentile does not move
    with the number of passes a run fits.
    """
    per = math.ceil(WINDOW / len(latencies[0]))
    windows = [
        [value for one in latencies[i : i + per] for value in one]
        for i in range(0, len(latencies) - per + 1, per)
    ] or latencies
    return {
        "balls_per_s": pass_jobs / median(cycles),
        "latency_p50_ms": median([value for one in latencies for value in one]),
        "latency_p99_ms": median([percentile(window, 99) for window in windows]),
    }


# --------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------- #
def service_seed(seed: int) -> int:
    return int(np.random.default_rng([seed, 1]).integers(2**31))


SESSIONS = {
    "service-open": run_open_session,
    "service-small": run_small_session,
    "service-bulk": run_bulk_session,
}


def session(workload: str, seed: int, seconds: float, ledger: Path | None = None):
    """Set up a service, run one measured session, stop the service."""
    warm = warm_up_groups(np.random.default_rng([seed, 4]))
    allowed = os.sched_getaffinity(0)
    split = cpu_split()
    client_cpus, service_cpus = split if split else (allowed, None)
    pace = Pace(allowed)
    os.sched_setaffinity(0, client_cpus)
    try:
        if ledger is None:
            service, warm_replies, setup_s, raw_setup_s = setup_services(
                service_seed(seed), warm, pace, service_cpus
            )
        else:
            service, warm_replies, setup_s = start_service(
                service_seed(seed), warm, ledger, service_cpus
            )
            raw_setup_s = setup_s
        try:
            run = SESSIONS[workload]
            # The service's CPU does most of the work of a bulk pass; a
            # small request's round trip is split between both sides.
            bulk = workload == "service-bulk"
            loop_pace = Pace(service_cpus if bulk and service_cpus else allowed)
            result = run(seed, seconds, service, warm, warm_replies, loop_pace)
        finally:
            service.close()
    finally:
        os.sched_setaffinity(0, allowed)
    result["setup_s"] = setup_s
    result.setdefault("raw", {})["setup_s"] = raw_setup_s
    result["pace_ms"] = loop_pace.median_ms()
    return result


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure a service workload; with ``trace``, also a traced session."""
    base = session(workload, seed, seconds)
    out = {
        "correct": base["correct"],
        "attempted": base["attempted"],
        "failed": base["failed"],
        "e2e": {name: base[name] for name in ("setup_s", *MEASURED)},
        "samples": {
            "latency": base["latency_samples"],
            "latency_tail_pct": base["latency_tail_pct"],
            "operations": base["attempted"],
            "setup": SETUP_REPEATS,
        },
        "info": {
            "problems": base["problems"],
            "raw": base["raw"],
            "pace_ms": base["pace_ms"],
        },
    }
    if workload == "service-open":
        out["info"]["ladder"] = base["steps"]
        out["info"]["max_rate_hz"] = base["max_rate_hz"]
    if not trace:
        return out
    ledger_path = TMP / f"{workload}-ledger.json"
    ledger_path.unlink(missing_ok=True)  # never report a previous run's ledger
    traced = session(workload, seed, seconds, ledger_path)
    ledger = json.loads(ledger_path.read_text())
    layers = dict(ledger["metrics"])
    if workload == "service-open":
        # Only the open loop has a schedule to fall behind.
        layers["loadgen.late_p99_ms"] = traced["late_p99_ms"]
        layers["loadgen.outstanding_max"] = traced["outstanding_max"]
    layers["client.recv_wait.s"] = traced["recv_wait_s"]
    layers["latency.samples"] = traced["latency_samples"]
    if workload == "service-open":
        # Open-loop throughput is set by the schedule; latency shows the cost.
        layers["trace_overhead"] = traced["latency_p50_ms"] / base["latency_p50_ms"] - 1
    else:
        layers["trace_overhead"] = base["balls_per_s"] / traced["balls_per_s"] - 1
    out["layers"] = layers
    out["correct"] = base["correct"] and traced["correct"]
    out["attempted"] += traced["attempted"]
    out["failed"] += traced["failed"]
    out["info"]["traced_problems"] = traced["problems"]
    out["info"]["ledger"] = str(ledger_path.relative_to(ROOT))
    out["info"]["layers"] = ledger["layers"]
    return out
