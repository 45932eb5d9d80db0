"""Pluggable kernel backends: one algorithmic contract, swappable kernels.

Every chunked engine in the package dispatches on a small set of primitive
kernels — the occurrence-rank / conflict-free-row folds, the window-filling
exact-cutoff pass, the chunk commit, the weighted verify/fixpoint pass, the
(d,k)-memory hand-off and the rebalancing move sweep.  This module separates
those *implementations* from the *algorithms* that call them, the same
algorithm/execution-substrate split that lets one protocol contract run on
different execution models: a :class:`KernelBackend` implements the kernels,
a registry names the implementations, and a context variable selects which
one the engines see.

Two backends ship:

* ``"numpy"`` (default) — the chunked vectorised kernels the engines have
  always used; the only ``vectorised`` backend, under which
  ``allocate_batch`` may run the trial-axis engines (the trial-axis
  d-choice commit bypasses the kernel methods).
* ``"scalar"`` — the literal per-ball loops, single-homed here: the
  reference the numpy kernels are checked against, and the route the
  :class:`~repro.scheduler.dispatcher.Dispatcher` runs small bursts on.
  Its kernels cost what they touch: they read and write ``loads`` one
  element at a time (the memory rules on short calls), so a call costs
  O(balls or probes), not O(bins).  (The per-ball *reference oracles* in
  :mod:`repro.baselines.reference` implement whole protocols and stay
  deliberately independent.)

Both backends produce **bit-identical** results on every kernel — same
loads, same assignments, same probe consumption — which the cross-backend
suite (``tests/test_backends.py``) certifies under shared
:class:`~repro.runtime.probes.FixedProbeStream` replay.  Backends are an
execution strategy, never a semantic choice.

Selection is ambient: drivers (:class:`repro.api.Simulation`, the
:class:`repro.scheduler.dispatcher.Dispatcher`, :func:`repro.experiments.runner.run_trials`,
the CLI) resolve a spec's ``backend=`` field once and wrap their engine
calls in :func:`use_backend`; engine entry points read
:func:`active_backend` so protocol logic never threads a backend argument.
"""

from __future__ import annotations

import contextlib
import contextvars
from itertools import repeat
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.probes import ProbeStream

__all__ = [
    "KernelBackend",
    "NumpyBackend",
    "ScalarBackend",
    "DEFAULT_BACKEND",
    "register_backend",
    "get_backend",
    "resolve_backend",
    "active_backend",
    "use_backend",
    "backend_names",
    "describe_backends",
    "validate_backend_name",
    "memory_hand_off",
    "memory11_hand_off",
    "chunked_memory_hand_off",
]

#: Balls per bulk fresh-choice draw on the scalar memory paths; the hand-off
#: is sequential either way, so the chunk only bounds each ``take_matrix``
#: call (results are independent of it).
_FRESH_CHUNK = 4096


# --------------------------------------------------------------------- #
# The literal scalar memory rules (single-homed: every execution strategy
# that needs the sequential (d,k)-memory rule calls these)
# --------------------------------------------------------------------- #
def memory_hand_off(
    counts,
    fresh_rows: list[list[int]],
    memory: list[int],
    k: int,
    assignments: list[int] | None = None,
    weights: list[float] | None = None,
) -> list[int]:
    """Run the sequential (d,k)-memory hand-off over one chunk of balls.

    ``counts`` (per-bin loads, mutated in place — a plain list or a NumPy
    vector, accessed element-wise) and the returned memory are the
    protocol's exact sequential state.  Candidates are the fresh row
    followed by the remembered bins; the first least-loaded candidate wins,
    and the ``k`` least loaded *distinct* candidate bins (stable order:
    candidate order breaks load ties) are remembered for the next ball.
    Each placement adds the ball's entry of ``weights`` (float loads of
    weighted balls), or 1 when no weights are given.  This is the rule of
    :meth:`KernelBackend.memory_fallback` for every ``(d, k)`` but unit
    ``(1, 1)`` (which runs :func:`memory11_hand_off`) on both backends,
    and so of every (d,k)-memory run, unit or weighted, and of the
    dispatcher's ``memory`` policy on either of its routes: every
    execution strategy shares one implementation of the literal rule.
    """
    for row, increment in zip(fresh_rows, repeat(1) if weights is None else weights):
        candidates = row + memory
        best = candidates[0]
        best_load = counts[best]
        for bin_index in candidates[1:]:
            load = counts[bin_index]
            if load < best_load:
                best, best_load = bin_index, load
        counts[best] = best_load + increment
        if assignments is not None:
            assignments.append(best)
        if k:
            seen: set[int] = set()
            unique = [
                b for b in candidates if not (b in seen or seen.add(b))
            ]
            unique.sort(key=counts.__getitem__)  # stable: ties keep cand order
            memory = unique[:k]
    return memory


def memory11_hand_off(
    counts,
    fresh: list[int],
    memory: list[int],
    assignments: list[int] | None = None,
) -> list[int]:
    """:func:`memory_hand_off` at ``d = k = 1``: two candidates per ball.

    ``fresh`` is the flat list of each ball's one fresh bin ``f``; the
    remembered bin ``m`` and its load ``v`` live in locals.  The candidates
    are ``[f, m]``: the first least-loaded one wins, so ``f`` wins a tie,
    and after placement the less loaded of the distinct candidates is
    remembered, ``f`` again on a tie.  The first ball of a run
    (``memory == []``) has only its fresh bin.  Reads ``memory[0]`` only;
    ``counts`` (and ``assignments``) are mutated in place exactly as the
    general rule mutates them, and the new remembered set is returned.
    Unit balls only: the ``a == v`` tie step stands for ``a <= v`` because
    integer loads with ``a > v - 1`` cannot fall below ``v``.
    """
    balls = iter(fresh)
    if memory:
        m = memory[0]
    else:
        m = next(balls, None)
        if m is None:
            return memory
        counts[m] += 1
        if assignments is not None:
            assignments.append(m)
    v = counts[m]
    for f in balls:
        a = counts[f]
        if v < a or f == m:
            if assignments is not None:
                assignments.append(m)
            v += 1
            counts[m] = v
            if a == v:  # never when f == m: a is then the load before placement
                m = f
        else:
            if assignments is not None:
                assignments.append(f)
            a += 1
            counts[f] = a
            if a <= v:
                m, v = f, a
    return [m]


def _fresh_chunks(stream: "ProbeStream", n_balls: int, d: int, chunk_size: int | None):
    """Yield each chunk's first ball and its ``(count, d)`` fresh choices.

    One bulk :meth:`~repro.runtime.probes.ProbeStream.take_matrix` call per
    chunk of ``chunk_size`` balls (default ``_FRESH_CHUNK``) draws them in
    the order of a per-ball loop, so the chunk cannot affect results.
    """
    chunk = int(chunk_size) if chunk_size else _FRESH_CHUNK
    for start in range(0, n_balls, chunk):
        yield start, stream.take_matrix(min(chunk, n_balls - start), d)


def chunked_memory_hand_off(
    stream: "ProbeStream",
    counts,
    memory: list[int],
    n_balls: int,
    d: int,
    k: int,
    assignments: list[int] | None = None,
    chunk_size: int | None = None,
    weights: list[float] | None = None,
) -> list[int]:
    """Drive :func:`memory_hand_off` over ``n_balls`` chunked fresh draws.

    ``weights`` (a list covering the ``n_balls`` balls; ``None`` for unit
    balls) gives each chunk its slice of increments.  This is the general
    loop of :meth:`KernelBackend.memory_fallback` (weighted balls, ``d >
    1`` or ``k >= 2``) and the baseline the ``memory-engine(1,1)`` row of
    ``bench_baseline_throughput.py`` measures the (1,1) loop against.
    Returns the new remembered set; ``counts`` (and ``assignments``) are
    mutated in place.
    """
    for start, fresh in _fresh_chunks(stream, n_balls, d, chunk_size):
        memory = memory_hand_off(
            counts,
            fresh.tolist(),
            memory,
            k,
            assignments,
            None if weights is None else weights[start : start + len(fresh)],
        )
    return memory


# --------------------------------------------------------------------- #
# Scalar kernels for the engine primitives (the "scalar" backend)
# --------------------------------------------------------------------- #
def _occurrence_ranks_scalar(values: np.ndarray) -> np.ndarray:
    """Per-element count of earlier equal elements, one dict pass."""
    out = np.empty(values.size, dtype=np.int64)
    seen: dict[int, int] = {}
    for i, v in enumerate(values.tolist()):
        rank = seen.get(v, 0)
        out[i] = rank
        seen[v] = rank + 1
    return out


def _conflict_free_rows_scalar(
    candidates: np.ndarray, n_bins: int | None = None
) -> np.ndarray:
    """Row-by-row first-holder scan; same contract as the scatter version."""
    rows = candidates.tolist()
    first: dict[int, int] = {}
    for i, row in enumerate(rows):
        for v in row:
            if v not in first:
                first[v] = i
    out = np.empty(len(rows), dtype=bool)
    for i, row in enumerate(rows):
        out[i] = all(first[v] >= i for v in row)
    return out


def _run_window_scalar(
    loads: np.ndarray,
    acceptance_limit: int,
    n_balls: int,
    stream: "ProbeStream",
    block_size: int | None,
    collect: bool,
) -> tuple[int, list[np.ndarray]]:
    """The ball-by-ball window rule: probe until the bin is under the limit.

    Probes are drawn in blocks a little larger than the balls still to
    place, and the unread tail of each block is given back, so the probes
    consumed are exactly the sequential process's and loads and probe
    counts match the vectorised window bit for bit.  ``loads`` is read and
    written one element at a time, so a call costs O(probes), not O(bins).
    ``block_size`` is accepted for interface parity; it cannot affect a
    per-probe loop.
    """
    item = loads.item
    limit = int(acceptance_limit)
    accepted: list[int] = []
    placed = 0
    probes = 0
    while placed < n_balls:
        remaining = n_balls - placed
        want = remaining + remaining // 4 + 4
        if stream.available is not None:
            # Finite replay streams: never request more than they can serve
            # (requesting at least one keeps the exhaustion error meaningful).
            want = max(1, min(want, stream.available))
        block = stream.take(want)
        examined = 0
        for j in block.tolist():
            examined += 1
            load = item(j)
            if load <= limit:
                loads[j] = load + 1
                if collect:
                    accepted.append(j)
                placed += 1
                if placed == n_balls:
                    break
        probes += examined
        if examined < want:
            stream.give_back(block[examined:])
    chunks = [np.asarray(accepted, dtype=np.int64)] if accepted else []
    return probes, chunks


def _commit_chunk_scalar(
    loads: np.ndarray,
    rows: np.ndarray,
    priorities: np.ndarray | None = None,
    assignments: np.ndarray | None = None,
    base: int = 0,
    weights: np.ndarray | None = None,
) -> list[int]:
    """The per-ball argmin commit: first least-loaded candidate wins.

    With ``priorities``, the smallest priority among the least-loaded
    positions wins (first position on a priority tie).  The vectorised
    commit's column loop applies this same comparison to every row at
    once, and hands its last few pending rows to this function.  Weighted
    commits add each ball's weight with one scalar ``+`` in ball order, the
    same IEEE operation sequence as the engine's element-wise ``np.add.at``.

    ``loads`` is read and written one element at a time, so a call costs
    O(rows), not O(bins).  Returns the chosen bins in row order.
    """
    item = loads.item
    row_list = rows.tolist()
    pri_list = priorities.tolist() if priorities is not None else None
    weight_list = weights.tolist() if weights is not None else None
    chosen: list[int] = []
    for i, row in enumerate(row_list):
        best = row[0]
        best_load = item(best)
        if pri_list is None:
            for cand in row[1:]:
                load = item(cand)
                if load < best_load:
                    best, best_load = cand, load
        else:
            prow = pri_list[i]
            best_pri = prow[0]
            for pos in range(1, len(row)):
                cand = row[pos]
                load = item(cand)
                if load < best_load or (load == best_load and prow[pos] < best_pri):
                    best, best_load, best_pri = cand, load, prow[pos]
        loads[best] = best_load + (1 if weight_list is None else weight_list[i])
        chosen.append(best)
    if assignments is not None:
        assignments[base : base + len(chosen)] = chosen
    return chosen


def _move_sweep_scalar(
    loads: np.ndarray,
    choices: np.ndarray,
    placement: np.ndarray,
    chunk_size: int | None = None,
) -> int:
    """The sequential CRS-style move rule, ball by ball in ball order."""
    counts = loads.tolist()
    placed = placement.tolist()
    moved = 0
    for i, row in enumerate(choices.tolist()):
        best = row[0]
        best_load = counts[best]
        for cand in row[1:]:
            load = counts[cand]
            if load < best_load:
                best, best_load = cand, load
        current = placed[i]
        if best_load + 2 <= counts[current]:
            counts[current] -= 1
            counts[best] += 1
            placed[i] = best
            moved += 1
    loads[:] = counts
    placement[:] = placed
    return moved


def _simulate_weighted_block_scalar(
    block: np.ndarray,
    bin_loads: np.ndarray,
    weights: np.ndarray,
    thresholds: np.ndarray,
    ball_base: int,
    last_ball: int,
) -> tuple[np.ndarray, int]:
    """Exact sequential replay of one weighted probe block.

    Walks the probes in order, maintaining each touched bin's running load
    in a dict seeded from the snapshot ``bin_loads``; every outcome is the
    sequential process's own decision, so the whole block is verified
    (``verified_until == size``) and the caller's margin machinery never
    engages.  Probes past the chunk's last acceptance are left unmarked —
    the caller's remaining-balls cutoff gives them back untouched.
    """
    size = block.size
    accepted = np.zeros(size, dtype=bool)
    bins = block.tolist()
    start_loads = bin_loads.tolist()
    current: dict[int, float] = {}
    ball = ball_base
    for p in range(size):
        if ball > last_ball:
            break
        j = bins[p]
        load = current.get(j)
        if load is None:
            load = start_loads[p]
        if load < thresholds[ball]:
            accepted[p] = True
            current[j] = load + weights[ball]
            ball += 1
    return accepted, size


# --------------------------------------------------------------------- #
# The backend interface
# --------------------------------------------------------------------- #
class KernelBackend:
    """One implementation of the primitive kernels the engines dispatch on.

    Subclasses implement the kernel methods; the base class carries the
    single-homed scalar memory rules (shared verbatim by the numpy and
    scalar backends — every (d,k)-memory configuration runs a scalar loop,
    see the ROADMAP standing constraint) and the capability flag
    ``allocate_batch`` consults.

    Every kernel must be **bit-identical** to the reference semantics —
    same loads, same assignments, same probe consumption.  Backends are an
    execution strategy, never a semantic choice.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    #: Whether :meth:`~repro.core.protocol.AllocationProtocol.allocate_batch`
    #: may run a ``batches = True`` protocol's trial-axis body under this
    #: backend; the trial-axis d-choice commit ``batched_argmin_commit``
    #: bypasses the kernel methods.  When false every batch loops its
    #: trials (results are identical either way).
    vectorised: bool = False

    #: ``memory_fallback`` runs the rules on ``loads`` in place when a call
    #: places fewer than one ball per this many bins; ``None`` never does.
    _in_place_bins_per_ball: int | None = None

    # -- engine kernels (subclasses implement) -------------------------- #
    def occurrence_ranks(self, values: np.ndarray) -> np.ndarray:
        """Per-element count of earlier equal elements (validated 1-D input)."""
        raise NotImplementedError

    def conflict_free_rows(
        self, candidates: np.ndarray, n_bins: int | None = None
    ) -> np.ndarray:
        """Rows of a candidate matrix no earlier row can disturb."""
        raise NotImplementedError

    def run_window(
        self,
        loads: np.ndarray,
        acceptance_limit: int,
        n_balls: int,
        stream: "ProbeStream",
        block_size: int | None,
        collect: bool,
    ) -> tuple[int, list[np.ndarray]]:
        """Fill one constant-limit window (validated, capacity-checked input)."""
        raise NotImplementedError

    def commit_chunk(
        self,
        loads: np.ndarray,
        rows: np.ndarray,
        priorities: np.ndarray | None = None,
        assignments: np.ndarray | None = None,
        base: int = 0,
        weights: np.ndarray | None = None,
    ) -> None:
        """Commit one chunk of d-choice balls in sequential ball order."""
        raise NotImplementedError

    def move_sweep(
        self,
        loads: np.ndarray,
        choices: np.ndarray,
        placement: np.ndarray,
        chunk_size: int | None = None,
    ) -> int:
        """One self-balancing sweep over all balls; returns the move count."""
        raise NotImplementedError

    def simulate_weighted_block(
        self,
        block: np.ndarray,
        bin_loads: np.ndarray,
        weights: np.ndarray,
        thresholds: np.ndarray,
        ball_base: int,
        last_ball: int,
    ) -> tuple[np.ndarray, int]:
        """Resolve one weighted probe block; returns (accepted, verified_until)."""
        raise NotImplementedError

    # -- the scalar memory rules (shared defaults) ----------------------- #
    def memory_fallback(
        self,
        stream: "ProbeStream",
        loads: np.ndarray,
        memory: list[int],
        n_balls: int,
        d: int,
        k: int,
        assignments: np.ndarray | None = None,
        chunk_size: int | None = None,
        weights: np.ndarray | None = None,
    ) -> list[int]:
        """Place ``n_balls`` (d,k)-memory balls with the sequential rule.

        The commit path of
        :func:`repro.baselines.memory_engine.chunked_memory_commit` for
        every ``k >= 1``: unit balls at ``d = k = 1`` run the two-candidate
        loop :func:`memory11_hand_off` over blocks of ``chunk_size`` fresh
        bins, every other call the general :func:`chunked_memory_hand_off`
        (every NumPy decomposition of the rule measured slower than these
        loops).  ``loads`` is int64, or float64 with per-ball ``weights``,
        updated in place; returns the new remembered set.  ``chunk_size``
        only bounds the bulk fresh draws and cannot affect results.

        The loops run on a list copy of ``loads``, written back once, which
        costs O(bins) per call.  Below one ball per
        ``_in_place_bins_per_ball`` bins they read and write ``loads``
        one element at a time instead, which costs O(balls) at several
        times a list's cost per ball; that call draws all its fresh choices
        before the first write, so a stream that runs out leaves ``loads``
        unchanged, as it does on the round trip.
        """
        ratio = self._in_place_bins_per_ball
        if ratio is not None and n_balls * ratio < loads.size:
            counts, chunk_size = loads, n_balls
        else:
            counts = loads.tolist()
        out: list[int] | None = [] if assignments is not None else None
        if d == 1 and k == 1 and weights is None:
            for _, fresh in _fresh_chunks(stream, n_balls, 1, chunk_size):
                memory = memory11_hand_off(
                    counts, fresh.ravel().tolist(), memory, assignments=out
                )
        else:
            memory = chunked_memory_hand_off(
                stream,
                counts,
                memory,
                n_balls,
                d,
                k,
                out,
                chunk_size,
                None if weights is None else weights.tolist(),
            )
        if counts is not loads:
            loads[:] = counts
        if assignments is not None:
            assignments[:n_balls] = out
        return memory

    def weighted_memory_fallback(
        self,
        stream: "ProbeStream",
        weighted_loads: np.ndarray,
        memory: list[int],
        weights: np.ndarray,
        d: int,
        k: int,
        assignments: np.ndarray | None = None,
        chunk_size: int | None = None,
    ) -> list[int]:
        """:meth:`memory_fallback` placing one weighted ball per ``weights`` entry.

        :func:`~repro.baselines.memory_engine.chunked_memory_commit` calls
        :meth:`memory_fallback` for unit and weighted balls alike; this
        spelling keeps the weighted entry's signature for callers that name
        it.
        """
        return self.memory_fallback(
            stream,
            weighted_loads,
            memory,
            int(weights.size),
            d,
            k,
            assignments=assignments,
            chunk_size=chunk_size,
            weights=weights,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class NumpyBackend(KernelBackend):
    """The chunked vectorised kernels — today's engines, moved not rewritten.

    The kernel bodies live next to their engines (``_*_numpy`` functions in
    :mod:`repro.core.window`, :mod:`repro.baselines.engine`,
    :mod:`repro.core.weighted_engine`); this class binds them behind the
    backend interface.  The imports are function-local because those engine
    modules import this one for dispatch.
    """

    name = "numpy"
    vectorised = True

    def occurrence_ranks(self, values):
        from repro.core.window import _occurrence_ranks_numpy

        return _occurrence_ranks_numpy(values)

    def conflict_free_rows(self, candidates, n_bins=None):
        from repro.core.window import _conflict_free_rows_numpy

        return _conflict_free_rows_numpy(candidates, n_bins)

    def run_window(self, loads, acceptance_limit, n_balls, stream, block_size, collect):
        from repro.core.window import _run_window_numpy

        return _run_window_numpy(
            loads, acceptance_limit, n_balls, stream, block_size, collect
        )

    def commit_chunk(
        self, loads, rows, priorities=None, assignments=None, base=0, weights=None
    ):
        from repro.baselines.engine import _commit_chunk_numpy

        _commit_chunk_numpy(
            loads,
            rows,
            priorities=priorities,
            assignments=assignments,
            base=base,
            weights=weights,
        )

    def move_sweep(self, loads, choices, placement, chunk_size=None):
        from repro.baselines.engine import _move_sweep_numpy

        return _move_sweep_numpy(loads, choices, placement, chunk_size=chunk_size)

    def simulate_weighted_block(
        self, block, bin_loads, weights, thresholds, ball_base, last_ball
    ):
        from repro.core.weighted_engine import _simulate_block

        return _simulate_block(
            block, bin_loads, weights, thresholds, ball_base, last_ball
        )


class ScalarBackend(KernelBackend):
    """The literal per-ball loops, one shared home for every scalar rule.

    The cross-check oracle for the vectorised kernels (independent of the
    per-ball references in :mod:`repro.baselines.reference`, which
    implement whole protocols rather than kernels).
    """

    name = "scalar"

    #: Measured per ``memory_fallback`` call at 10^3, 10^4 and 10^5 bins,
    #: in place and the list round trip break even at 22-39 bins per ball
    #: for (2,1)- and (2,2)-memory and at 4-15 for (1,1)-memory.
    _in_place_bins_per_ball = 32

    def occurrence_ranks(self, values):
        return _occurrence_ranks_scalar(values)

    def conflict_free_rows(self, candidates, n_bins=None):
        return _conflict_free_rows_scalar(candidates, n_bins)

    def run_window(self, loads, acceptance_limit, n_balls, stream, block_size, collect):
        return _run_window_scalar(
            loads, acceptance_limit, n_balls, stream, block_size, collect
        )

    def commit_chunk(
        self, loads, rows, priorities=None, assignments=None, base=0, weights=None
    ):
        _commit_chunk_scalar(
            loads,
            rows,
            priorities=priorities,
            assignments=assignments,
            base=base,
            weights=weights,
        )

    def move_sweep(self, loads, choices, placement, chunk_size=None):
        return _move_sweep_scalar(loads, choices, placement, chunk_size=chunk_size)

    def simulate_weighted_block(
        self, block, bin_loads, weights, thresholds, ball_base, last_ball
    ):
        return _simulate_weighted_block_scalar(
            block, bin_loads, weights, thresholds, ball_base, last_ball
        )


# --------------------------------------------------------------------- #
# Registry and ambient selection
# --------------------------------------------------------------------- #
_REGISTRY: dict[str, KernelBackend] = {}

DEFAULT_BACKEND = "numpy"

_ACTIVE: contextvars.ContextVar[KernelBackend | None] = contextvars.ContextVar(
    "active_kernel_backend", default=None
)


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Add a backend instance to the registry under its ``name``."""
    name = backend.name
    if not name or name == "abstract":
        raise ConfigurationError("registered backends must define a unique name")
    if name in _REGISTRY and type(_REGISTRY[name]) is not type(backend):
        raise ConfigurationError(f"backend name {name!r} is already registered")
    _REGISTRY[name] = backend
    return backend


def backend_names() -> list[str]:
    """Names of all registered backends, sorted."""
    return sorted(_REGISTRY)


def describe_backends() -> list[dict[str, Any]]:
    """One record per registered backend: name and whether it is the default."""
    return [
        {"name": name, "default": name == DEFAULT_BACKEND}
        for name in sorted(_REGISTRY)
    ]


def validate_backend_name(name: Any) -> None:
    """Spec-level validation: the name must be registered (``None`` = default)."""
    if name is None:
        return
    if not isinstance(name, str):
        raise ConfigurationError(f"backend must be a string, got {name!r}")
    if name not in _REGISTRY:
        raise ConfigurationError(
            f"unknown backend {name!r}; available: {backend_names()}"
        )


def get_backend(name: str) -> KernelBackend:
    """Return the backend registered under ``name``."""
    validate_backend_name(name)
    return _REGISTRY[name]


def resolve_backend(backend: "str | KernelBackend | None") -> KernelBackend:
    """Coerce a spec field / kwarg to a backend instance (``None`` = default)."""
    if backend is None:
        return _REGISTRY[DEFAULT_BACKEND]
    if isinstance(backend, KernelBackend):
        return backend
    return get_backend(backend)


def active_backend() -> KernelBackend:
    """The backend the engines currently dispatch to (default ``"numpy"``)."""
    backend = _ACTIVE.get()
    return _REGISTRY[DEFAULT_BACKEND] if backend is None else backend


@contextlib.contextmanager
def use_backend(backend: "str | KernelBackend | None") -> Iterator[KernelBackend]:
    """Select the ambient kernel backend for the duration of the block.

    Context-variable based, so concurrent sessions (threads, async tasks)
    each see their own selection.  ``None`` selects the default.
    """
    resolved = resolve_backend(backend)
    token = _ACTIVE.set(resolved)
    try:
        yield resolved
    finally:
        _ACTIVE.reset(token)


register_backend(NumpyBackend())
register_backend(ScalarBackend())
