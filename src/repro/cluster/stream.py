"""JSONL record streaming and resume bookkeeping for cluster sweeps.

The coordinator emits each completed shard's rows as JSON Lines — one
schema-v1 record per line, and :func:`~repro.cluster.run_cluster_sweep`
flushes after every row — so a sweep's output is useful (and parseable)
the moment the first row lands, and a crash leaves at worst one shard's
rows partially written at the tail, the last line possibly torn.

``--resume`` inverts that format: :func:`resume_scan` reads a (possibly
truncated) JSONL file, keeps every shard whose full row set is present,
and reports the rest for re-running.  Partial shards are discarded —
re-running a half-written shard and appending would duplicate rows — and
the kept rows are rewritten atomically before the sweep continues, so the
final file is always the exact row multiset of an uninterrupted run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro.core.result import RunResult
from repro.errors import ConfigurationError, ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.coordinator import Shard

__all__ = ["JsonlWriter", "iter_jsonl", "resume_scan", "rewrite_jsonl", "ResumeState"]


class JsonlWriter:
    """Append records to a JSONL file, one line each; flushed on request.

    :func:`~repro.cluster.run_cluster_sweep` flushes after every row, so
    the file holds each row the moment it is emitted.

    ``None`` path = disabled (every method is a no-op), which lets the
    coordinator treat "stream to disk" as an always-present sink.
    """

    def __init__(self, path: str | os.PathLike | None, append: bool = False) -> None:
        self._file = None
        if path is not None:
            target = Path(path)
            if target.parent != Path():
                target.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(target, "a" if append else "w", encoding="utf-8")

    def write(self, record: dict[str, Any]) -> None:
        if self._file is not None:
            self._file.write(json.dumps(record) + "\n")

    def flush(self) -> None:
        if self._file is not None:
            self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def iter_jsonl(path: str | os.PathLike) -> Iterator[dict[str, Any]]:
    """Yield records from a JSONL file, tolerating a truncated final line.

    A crash mid-append leaves at most one torn line at the end of the file;
    that line is silently skipped.  A malformed line anywhere *else* (not
    UTF-8, or not JSON) is corruption, not truncation, and raises
    :class:`~repro.errors.ConfigurationError` naming the line number.
    """
    for _, record in _numbered_jsonl(path):
        yield record


def _numbered_jsonl(path: str | os.PathLike) -> Iterator[tuple[int, Any]]:
    """``(line number, value)`` for each non-blank line; see :func:`iter_jsonl`."""
    with open(path, "rb") as handle:
        lines = handle.readlines()
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            yield number, json.loads(stripped.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # not UTF-8, JSON or shallow
            if number == len(lines):
                return  # torn final line from an interrupted append
            raise ConfigurationError(
                f"{path}: line {number} is not valid JSON "
                f"(corrupt results file): {exc}"
            ) from exc


@dataclass
class ResumeState:
    """What a previous partial run already finished.

    Attributes
    ----------
    completed:
        Shard ids whose full row set is present in the file.
    records:
        The kept rows (complete shards only), in file order.
    dropped_rows:
        Rows discarded because their shard was incomplete (they will be
        regenerated bit-identically when the shard re-runs).
    """

    completed: set[int] = field(default_factory=set)
    records: list[dict[str, Any]] = field(default_factory=list)
    dropped_rows: int = 0


def resume_scan(path: str | os.PathLike, shards: list["Shard"]) -> ResumeState:
    """Classify an existing JSONL file against the sweep's shard list.

    A shard counts as complete when the file holds one row for every one of
    its ``trials`` distinct trial indices.  Duplicate (shard, trial) rows —
    possible only if a file was concatenated by hand — keep their first
    occurrence.  Lines that cannot belong to the sweep (not a JSON object,
    a ``shard`` or ``trial`` that is not an integer, a shard id out of
    range, or identity fields disagreeing with the shard's spec) raise
    :class:`~repro.errors.ConfigurationError` naming the line: resuming
    someone else's results file silently would corrupt the sweep.  So does
    a row that is not exactly what :func:`~repro.cluster.worker.run_shard`
    writes — a full record that round-trips through
    :meth:`~repro.core.result.RunResult.from_record` unchanged, plus its
    ``shard`` and ``trial`` — since a resumed row is returned and rewritten
    as if computed.
    """
    by_shard: dict[int, dict[int, dict[str, Any]]] = {}
    for number, row in _numbered_jsonl(path):
        where = f"{path}: line {number}"
        if not isinstance(row, dict) or "shard" not in row or "trial" not in row:
            raise ConfigurationError(
                f"{where}: not a row with shard/trial provenance — not a "
                "cluster sweep results file"
            )
        shard_id = _provenance(row, "shard", where)
        trial = _provenance(row, "trial", where)
        if shard_id < 0 or shard_id >= len(shards):
            raise ConfigurationError(
                f"{where}: row references shard {shard_id} but the sweep has "
                f"{len(shards)} shards — results file belongs to a different sweep"
            )
        spec = shards[shard_id].spec
        for key, expected in (
            ("protocol", spec.protocol),
            ("n_balls", spec.n_balls),
            ("n_bins", spec.n_bins),
        ):
            if row.get(key) != expected:
                raise ConfigurationError(
                    f"{where}: shard {shard_id} row has {key}={row.get(key)!r} "
                    f"but the sweep's spec says {expected!r} — results file "
                    "belongs to a different sweep"
                )
        if not _is_shard_row(row):
            raise ConfigurationError(
                f"{where}: shard {shard_id} trial {trial} row is not a full "
                "result record as a sweep writes it (a field is missing, "
                "extra, retyped or inconsistent with its loads)"
            )
        by_shard.setdefault(shard_id, {}).setdefault(trial, row)

    state = ResumeState()
    for shard_id, rows in by_shard.items():
        expected = shards[shard_id].spec.trials
        if len(rows) == expected and set(rows) == set(range(expected)):
            state.completed.add(shard_id)
        else:
            state.dropped_rows += len(rows)
    # Keep rows in stable (shard, trial) order for the rewritten prefix.
    for shard_id in sorted(state.completed):
        rows = by_shard[shard_id]
        state.records.extend(rows[trial] for trial in sorted(rows))
    return state


def _is_shard_row(row: dict[str, Any]) -> bool:
    """Is ``row`` a result record plus its provenance, exactly as written?"""
    try:
        record = RunResult.from_record(row).as_record()
    except (ReproError, TypeError, ValueError, OverflowError):
        return False
    record["shard"], record["trial"] = row["shard"], row["trial"]
    return json.dumps(record, sort_keys=True) == json.dumps(row, sort_keys=True)


def _provenance(row: dict[str, Any], key: str, where: str) -> int:
    """A row's ``shard`` or ``trial`` index, which must be a JSON integer."""
    value = row[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{where}: {key} must be an integer, got {value!r}")
    return value


def rewrite_jsonl(path: str | os.PathLike, records: list[dict[str, Any]]) -> None:
    """Atomically replace ``path`` with exactly ``records`` (one per line)."""
    target = Path(path)
    temp = target.with_name(target.name + ".tmp")
    with open(temp, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    os.replace(temp, target)
