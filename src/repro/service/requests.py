"""Idempotent-request bookkeeping: the service's submit dedup log.

A retrying client replays submits whose replies it never saw — but a lost
*reply* does not mean a lost *dispatch*: the jobs may well have been
applied before the connection died.  Replaying them blindly would dispatch
the same jobs twice and diverge from the fault-free stream.  The
:class:`RequestLog` closes that hole: every submit carrying a client-chosen
``request_id`` records its assignments when its micro-batch commits, and a
replayed id is answered from the log instead of being dispatched again.

Two properties make this safe across crashes:

* entries are recorded by the micro-batcher *inside the flush* (under the
  same ``flush_lock`` a checkpoint quiesces on), so a checkpoint's
  dispatcher state and its request log are always mutually consistent —
  a dispatched-but-unlogged submit cannot exist in a snapshot;
* the log rides inside the service checkpoint document (under the
  ``"service"`` key the dispatcher state loader ignores), so a restored
  service still recognises replays of submits that committed *before* the
  checkpoint, while submits dispatched after it — lost with the crash —
  are genuinely re-dispatched, which is exactly the bit-identical resume.

The log is bounded (FIFO eviction) — request ids are a reconnect-replay
mechanism, not an unbounded ledger; a client only ever replays its most
recent unacknowledged pipeline window.  Each entry is its own int64 array,
which the garbage collector does not track, so a full log adds one object
per entry to a collection instead of a list of ints.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["RequestLog", "DEFAULT_REQUEST_LOG_CAPACITY"]

#: Default bound on remembered request ids (FIFO-evicted beyond this).
DEFAULT_REQUEST_LOG_CAPACITY = 4096

_INT64_MAX = int(np.iinfo(np.int64).max)


class RequestLog:
    """Bounded ``request_id -> assignments`` memory with JSON snapshots."""

    STATE_VERSION = 1

    def __init__(self, capacity: int = DEFAULT_REQUEST_LOG_CAPACITY) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"capacity: must be at least 1, got {capacity}"
            )
        self.capacity = int(capacity)
        self._entries: "OrderedDict[str, np.ndarray]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, request_id: str) -> bool:
        return request_id in self._entries

    def get(self, request_id: str) -> np.ndarray | None:
        """A copy of the recorded assignments for ``request_id``, or ``None``."""
        entry = self._entries.get(request_id)
        if entry is None:
            return None
        return entry.copy()

    def record(self, request_id: str, assignments) -> None:
        """Remember one committed submit (evicting the oldest past capacity).

        The log keeps its own flat int64 copy of ``assignments``.
        """
        self._entries[request_id] = np.asarray(assignments, dtype=np.int64).flatten()
        self._entries.move_to_end(request_id)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict[str, Any]:
        """Strict-JSON snapshot (insertion order preserved for eviction)."""
        return {
            "version": self.STATE_VERSION,
            "capacity": self.capacity,
            "entries": [[rid, entry.tolist()] for rid, entry in self._entries.items()],
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "RequestLog":
        """Rebuild a log from :meth:`state_dict`, rejecting impossible entries.

        A checkpoint is untrusted input: every entry must be a
        ``[request_id, assignments]`` pair whose assignments are a flat list
        of non-negative integers that fit the int64 :meth:`get` replays.
        Anything else raises :class:`~repro.errors.ConfigurationError`
        instead of being truncated, kept, or failing later on a replay.
        """
        if not isinstance(state, dict) or "entries" not in state:
            raise ConfigurationError(
                "expected a request-log state document "
                "(the dict returned by RequestLog.state_dict)"
            )
        version = state.get("version")
        if version != cls.STATE_VERSION:
            raise ConfigurationError(
                f"unsupported request-log state version {version!r} "
                f"(this release reads version {cls.STATE_VERSION})"
            )
        capacity = state.get("capacity", DEFAULT_REQUEST_LOG_CAPACITY)
        if type(capacity) is not int:
            raise ConfigurationError(
                f"request-log capacity must be an integer, got {capacity!r}"
            )
        log = cls(capacity=capacity)
        entries = state["entries"]
        if not isinstance(entries, list):
            raise ConfigurationError("request-log entries must be a list")
        for item in entries:
            if not (isinstance(item, list) and len(item) == 2):
                raise ConfigurationError(
                    f"request-log entry {item!r} is not a "
                    "[request_id, assignments] pair"
                )
            rid, entry = item
            if not (
                isinstance(entry, list)
                and all(type(a) is int and 0 <= a <= _INT64_MAX for a in entry)
            ):
                raise ConfigurationError(
                    f"request-log entry {rid!r} holds {entry!r}, not a flat "
                    "list of non-negative int64 server ids"
                )
            log.record(str(rid), entry)
        return log
