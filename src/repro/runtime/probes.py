"""Probe streams: the source of uniformly random bin choices.

The allocation time studied by the paper is the number of *probes* (random bin
choices) a protocol consumes.  The analysis of THRESHOLD in Theorem 4.1 even
fixes the whole infinite choice vector ``C`` in advance and asks how many
entries are consumed.  We mirror that formulation: a :class:`ProbeStream`
produces a conceptually infinite i.i.d. uniform sequence over ``{0, …, n-1}``
and records how many entries have been consumed.

The vectorised protocol engines draw probes in blocks and typically do not
use the tail of their final block; :meth:`ProbeStream.give_back` returns those
*values* to the stream so that the next consumer sees exactly the sequence a
ball-by-ball implementation would have seen.  This makes a run independent of
the block-partitioning strategy (traced runs equal untraced runs, any block
size gives identical results) — a property the test-suite checks explicitly.

Two implementations are provided:

* :class:`RandomProbeStream` — draws blocks from a
  :class:`numpy.random.Generator`; this is what simulations use.
* :class:`FixedProbeStream` — replays a user-supplied array; this is what the
  test-suite uses to check that the vectorised protocol engines are
  *bit-for-bit* equivalent to the straightforward reference implementations
  when both consume the same choice vector.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ConfigurationError, ProtocolError
from repro.runtime.rng import SeedLike, as_generator

__all__ = [
    "ProbeStream",
    "RandomProbeStream",
    "FixedProbeStream",
    "BatchedProbeStream",
    "probe_stream_from_state",
    "AUX_SEED",
]

#: Fallback seed for :meth:`ProbeStream.derive_generator` on replay streams
#: when the caller supplies no seed.  Fixed (and documented) so that replaying
#: the same choice vector through two implementations always produces the
#: same auxiliary randomness — the replay-equivalence tests depend on it.
AUX_SEED = 0x7AB1E1


class ProbeStream(ABC):
    """Abstract i.i.d. uniform stream of bin indices.

    Attributes
    ----------
    n_bins:
        Size of the sample space; every probe is in ``range(n_bins)``.
    consumed:
        Number of probes handed out (and not given back) so far.  Protocols
        report this as their allocation time.
    """

    def __init__(self, n_bins: int) -> None:
        if n_bins <= 0:
            raise ConfigurationError(f"n_bins must be positive, got {n_bins}")
        self.n_bins = int(n_bins)
        self.consumed = 0
        # Values returned via give_back, served again (in order) by take().
        self._pending: np.ndarray = np.empty(0, dtype=np.int64)

    @abstractmethod
    def _draw(self, count: int) -> np.ndarray:
        """Return the next ``count`` fresh probes from the underlying source."""

    def take(self, count: int) -> np.ndarray:
        """Consume and return the next ``count`` probes as an int64 array."""
        if count < 0:
            raise ConfigurationError(f"count must be non-negative, got {count}")
        if count == 0:
            return np.empty(0, dtype=np.int64)
        count = int(count)
        if self._pending.size:
            from_pending = self._pending[:count]
            self._pending = self._pending[count:]
            fresh_needed = count - from_pending.size
            if fresh_needed:
                block = np.concatenate([from_pending, self._draw(fresh_needed)])
            else:
                block = from_pending.copy()
        else:
            block = self._draw(count)
        self.consumed += count
        return block.astype(np.int64, copy=False)

    def take_one(self) -> int:
        """Consume and return a single probe."""
        return int(self.take(1)[0])

    def take_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Consume ``rows * cols`` probes and return them as a matrix.

        The matrix is filled row-major, so row ``i`` holds the ``cols``
        consecutive probes a sequential process would have drawn for ball
        ``i``.  Bulk consumers (the greedy dispatcher policy, the parallel
        round protocol) use this to replace per-ball scalar draws with one
        block draw while keeping the logical probe sequence identical.
        """
        if rows < 0 or cols < 0:
            raise ConfigurationError(
                f"rows and cols must be non-negative, got {rows} x {cols}"
            )
        return self.take(rows * cols).reshape(rows, cols)

    @property
    def available(self) -> int | None:
        """Number of probes still obtainable, or ``None`` when unbounded.

        Block-drawing consumers use this to avoid requesting more probes than
        a finite replay stream can serve.
        """
        return None

    def give_back(self, values: np.ndarray) -> None:
        """Return unconsumed probe *values* to the front of the stream.

        ``values`` must be the exact tail of the most recent :meth:`take`
        block that the caller did not examine; they will be served again by
        the next :meth:`take` so the logical probe sequence is unaffected by
        how callers partition their draws into blocks.
        """
        arr = np.asarray(values, dtype=np.int64).ravel()
        if arr.size == 0:
            return
        if arr.size > self.consumed:
            raise ProtocolError(
                f"cannot give back {arr.size} probes, only {self.consumed} consumed"
            )
        if arr.size and (arr.min() < 0 or arr.max() >= self.n_bins):
            raise ProtocolError("given-back values contain out-of-range bin indices")
        self.consumed -= int(arr.size)
        self._pending = np.concatenate([arr, self._pending])

    # ------------------------------------------------------------------ #
    # Checkpoint/restore
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """JSON-serialisable snapshot of the stream's exact position.

        The snapshot captures everything that determines the *future* probe
        sequence — the underlying source position plus the pending buffer of
        given-back values — so a stream rebuilt via
        :func:`probe_stream_from_state` emits bit-identically the probes
        this stream would have emitted.  This is what lets a checkpointed
        dispatcher resume mid-stream without perturbing a single assignment
        (see :meth:`repro.scheduler.Dispatcher.state_dict`).
        """
        state = self._source_state()
        state["n_bins"] = self.n_bins
        state["consumed"] = int(self.consumed)
        state["pending"] = self._pending.tolist()
        return state

    def _source_state(self) -> dict:
        """Subclass hook: snapshot the underlying probe source."""
        raise ConfigurationError(
            f"{type(self).__name__} does not support checkpointing"
        )

    def _restore_base(self, state: dict) -> None:
        """Restore the base-class position fields from a snapshot.

        A consumed count that is not a non-negative integer, or pending
        give-backs (served as the next probes) that are not bins of this
        stream, are refused here rather than at the next take.
        """
        consumed, pending = state["consumed"], np.asarray(state["pending"])
        if (
            isinstance(consumed, bool)
            or not isinstance(consumed, (int, np.integer))
            or consumed < 0
        ):
            raise ConfigurationError(
                f"probe stream consumed must be a non-negative integer, got {consumed!r}"
            )
        if pending.size and (
            pending.ndim != 1
            or pending.dtype.kind != "i"
            or pending.min() < 0
            or pending.max() >= self.n_bins
        ):
            raise ConfigurationError(
                f"probe stream pending must be a flat list of bins in [0, {self.n_bins})"
            )
        self.consumed = int(consumed)
        self._pending = pending.astype(np.int64).ravel()

    def derive_generator(self, seed: SeedLike = None) -> np.random.Generator:
        """Deterministic auxiliary generator for protocol-internal randomness.

        Protocols that need randomness *besides* uniform bin probes (e.g. the
        greedy[d] random tie-break) must not draw it from the probe source —
        that would couple the auxiliary noise to how many probes have been
        consumed, and make vectorised engines diverge from their per-ball
        references.  The contract is:

        * :class:`RandomProbeStream` returns a spawned child of its own
          generator, so the auxiliary stream is a pure function of the
          stream's seed, independent of every probe draw (``seed`` is
          ignored; repeated calls yield independent children);
        * replay streams return a generator seeded by ``seed``, falling back
          to the fixed, documented :data:`AUX_SEED` when ``seed`` is ``None``
          — so two implementations replaying the same choice vector (and
          passing the same ``seed``) always agree on the auxiliary noise.
        """
        return as_generator(AUX_SEED if seed is None else seed)


class RandomProbeStream(ProbeStream):
    """Probe stream backed by a :class:`numpy.random.Generator`."""

    def __init__(self, n_bins: int, seed: SeedLike = None) -> None:
        super().__init__(n_bins)
        self._rng = as_generator(seed)

    def _draw(self, count: int) -> np.ndarray:
        return self._rng.integers(0, self.n_bins, size=count, dtype=np.int64)

    def _source_state(self) -> dict:
        """The bit generator's exact position (a JSON-serialisable dict).

        This pins the future *probe* sequence exactly.  It deliberately does
        not capture the seed-sequence spawn counter behind
        :meth:`derive_generator` — none of the dispatcher policies draw
        auxiliary randomness mid-stream, which is what the checkpoint
        machinery serves; protocols that do (the greedy tie-break) document
        their own derivation contract.
        """
        return {
            "stream": "random",
            "bit_generator": self._rng.bit_generator.state,
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "RandomProbeStream":
        """Rebuild a stream at the exact position captured by ``state_dict``."""
        stream = cls(int(state["n_bins"]))
        stream._rng.bit_generator.state = state["bit_generator"]
        stream._restore_base(state)
        return stream

    @property
    def generator(self) -> np.random.Generator:
        """The underlying generator (used by protocols needing extra draws)."""
        return self._rng

    def derive_generator(self, seed: SeedLike = None) -> np.random.Generator:
        """A spawned child of the probe generator (see the base contract).

        Spawning advances only the seed-sequence spawn counter, never the bit
        stream, so deriving an auxiliary generator does not perturb the probe
        sequence.
        """
        return self._rng.spawn(1)[0]


class FixedProbeStream(ProbeStream):
    """Probe stream that replays a pre-computed choice vector.

    Parameters
    ----------
    n_bins:
        Number of bins; every entry of ``choices`` must lie in
        ``range(n_bins)``.
    choices:
        The finite prefix of the choice vector ``C``.  Requesting more probes
        than available raises :class:`~repro.errors.ProtocolError`, which the
        tests use to bound the allocation time of a protocol run.
    """

    def __init__(self, n_bins: int, choices: np.ndarray) -> None:
        super().__init__(n_bins)
        arr = np.asarray(choices, dtype=np.int64)
        if arr.ndim != 1:
            raise ConfigurationError("choices must be a 1-D array")
        if arr.size and (arr.min() < 0 or arr.max() >= n_bins):
            raise ConfigurationError("choices contain out-of-range bin indices")
        self._choices = arr
        self._cursor = 0

    def _draw(self, count: int) -> np.ndarray:
        end = self._cursor + count
        if end > self._choices.size:
            raise ProtocolError(
                f"fixed probe stream exhausted: requested {count}, "
                f"only {self._choices.size - self._cursor} remaining"
            )
        block = self._choices[self._cursor : end]
        self._cursor = end
        # Copy so consumers that mutate the returned block (or hand it to
        # callers, as the dispatcher does with assignments) cannot corrupt
        # the replayed choice vector, which the caller may share.
        return block.copy()

    @property
    def remaining(self) -> int:
        """Number of probes still available for replay (pending ones included)."""
        return int(self._choices.size - self._cursor + self._pending.size)

    @property
    def available(self) -> int | None:
        return self.remaining

    def _source_state(self) -> dict:
        """The unconsumed tail of the choice vector (tests replay these)."""
        return {
            "stream": "fixed",
            "choices": self._choices[self._cursor :].tolist(),
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "FixedProbeStream":
        """Rebuild a replay stream at the exact position of ``state_dict``."""
        stream = cls(
            int(state["n_bins"]), np.asarray(state["choices"], dtype=np.int64)
        )
        stream._restore_base(state)
        return stream


def probe_stream_from_state(state: dict) -> ProbeStream:
    """Rebuild a probe stream from a :meth:`ProbeStream.state_dict` snapshot.

    Routed by the snapshot's ``"stream"`` key; the restored stream emits the
    exact probe sequence the checkpointed one would have emitted (pending
    give-backs included), which the checkpoint/restore tests certify
    end-to-end through the dispatcher.  A snapshot no stream can produce
    raises :class:`~repro.errors.ConfigurationError`.
    """
    if not isinstance(state, dict):
        raise ConfigurationError(
            f"probe stream state must be a dict, got {type(state).__name__}"
        )
    kinds = {
        "random": RandomProbeStream.from_state_dict,
        "fixed": FixedProbeStream.from_state_dict,
    }
    kind = state.get("stream")
    try:
        build = kinds[kind]
    except (KeyError, TypeError):
        raise ConfigurationError(
            f"unknown probe stream kind {kind!r}; available: {sorted(kinds)}"
        ) from None
    try:
        return build(state)
    except ConfigurationError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"probe stream state is malformed: {exc!r}") from exc


class BatchedProbeStream:
    """A bundle of per-trial probe streams, one child per trial.

    The batched ``allocate_batch`` paths run ``T`` independent trials
    together; each trial still consumes its *own* probe sequence (the same
    one the single-trial engine with the same seed would consume, which is
    what makes batched runs bit-identical per trial).  This class holds the
    ``T`` child streams: the greedy[d] and left[d] commit draws each
    trial's candidates from its child, and ADAPTIVE fills each trial's
    window from its child.

    The children are ordinary :class:`ProbeStream` objects and remain fully
    usable individually (``children[i].consumed`` is trial ``i``'s allocation
    time; ``children[i].derive_generator`` supplies trial ``i``'s auxiliary
    randomness under the same contract as a single-trial run).
    """

    def __init__(self, children: "list[ProbeStream] | tuple[ProbeStream, ...]") -> None:
        children = list(children)
        if not children:
            raise ConfigurationError("need at least one child probe stream")
        n_bins = children[0].n_bins
        if any(child.n_bins != n_bins for child in children):
            raise ConfigurationError(
                "all child probe streams must sample from the same n_bins"
            )
        self.children = children
        self.n_bins = n_bins

    @classmethod
    def from_seeds(
        cls, n_bins: int, seeds: "list[SeedLike] | tuple[SeedLike, ...]"
    ) -> "BatchedProbeStream":
        """One :class:`RandomProbeStream` child per seed — the seeded path.

        Child ``i`` is exactly the stream a single-trial run with
        ``seeds[i]`` would construct, so seed derivation is unchanged by
        batching.
        """
        return cls([RandomProbeStream(n_bins, seed) for seed in seeds])

    @property
    def trials(self) -> int:
        return len(self.children)
