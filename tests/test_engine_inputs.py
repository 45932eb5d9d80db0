"""Input checks of the in-place engine entry points.

Each chunked engine updates the caller's ``loads`` in place.  A list would
be copied (the placement is lost) and a read-only array must not be written
through (``np.add.at`` does not check the flag), so every entry point
rejects both with :class:`~repro.errors.ConfigurationError` before it draws
a single probe.  Per-ball inputs (``priorities``, ``weights``,
``placement``) must cover every ball placed, and an ``assignments`` output
must be a writeable array with a slot for every ball.  Weighted balls need
float64 loads: integer loads would truncate every weight.  The trial-axis
commit also checks each source block before it offsets the block into the
combined instance, where a bad bin would land in another trial's bins.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.engine import (
    batched_argmin_commit,
    chunked_argmin_commit,
    chunked_move_sweep,
)
from repro.baselines.memory_engine import chunked_memory_commit
from repro.core.weighted_engine import chunked_weighted_assign
from repro.errors import ConfigurationError
from repro.runtime.probes import RandomProbeStream

BALLS = 10


def _frozen(shape, dtype=np.float64) -> np.ndarray:
    array = np.zeros(shape, dtype=dtype)
    array.flags.writeable = False
    return array


#: Loads no engine can update in place.  With 1,000 bins a 10-ball commit
#: takes the ``np.add.at`` path, which writes through the read-only flag;
#: with 8 bins the write raises, but only after probes were drawn.
UNWRITEABLE = {
    "list": lambda: [0.0] * 8,
    "read-only-1000-bins": lambda: _frozen(1000),
    "read-only-8-bins": lambda: _frozen(8),
}


#: Assignments outputs no engine can fill: one slot short, or read-only.
#: Either used to fail only after every probe was drawn and placed.
BAD_ASSIGNMENTS = {
    "short-assignments": lambda: np.empty(BALLS - 1, dtype=np.int64),
    "read-only-assignments": lambda: _frozen(BALLS, np.int64),
}


#: Fractional weights integer loads would truncate (total 6.3 over 6 balls).
FRACTIONAL = np.array([0.5, 1.7, 0.2, 2.9, 0.5, 0.5, 0.5, 1.7, 0.2, 2.9])


#: Source blocks the trial-axis commit must refuse, by the trial returning
#: them: with 1,000 bins, trial 0's bin 1,000 would be trial 1's bin 0 and
#: trial 1's bin -1 trial 0's bin 999; a (count, 1) block would broadcast
#: across both candidate columns.
BAD_BLOCKS = {
    "bin-past-the-end": (0, lambda count: np.full((count, 2), 1000)),
    "negative-bin": (1, lambda count: np.full((count, 2), -1)),
    "narrow-block": (0, lambda count: np.zeros((count, 1), np.int64)),
}


def _source(stream: RandomProbeStream, d: int):
    return lambda start, count: stream.take_matrix(count, d)


class TestArgminCommitInputs:
    @pytest.mark.parametrize(
        "case",
        [*UNWRITEABLE, "short-priorities", "short-weights", *BAD_ASSIGNMENTS,
         "int-loads"],
    )
    def test_chunked_argmin_commit(self, case):
        loads = UNWRITEABLE[case]() if case in UNWRITEABLE else np.zeros(1000)
        stream = RandomProbeStream(len(loads), seed=1)
        kwargs = {}
        if case == "short-priorities":
            kwargs["priorities"] = np.zeros((BALLS - 1, 2))
        elif case == "short-weights":
            kwargs["weights"] = np.ones(BALLS - 1)
        elif case in BAD_ASSIGNMENTS:
            kwargs["assignments"] = BAD_ASSIGNMENTS[case]()
        elif case == "int-loads":
            loads = np.zeros(1000, dtype=np.int64)
            kwargs["weights"] = FRACTIONAL
        with pytest.raises(ConfigurationError):
            chunked_argmin_commit(loads, _source(stream, 2), BALLS, 2, **kwargs)
        assert stream.consumed == 0
        assert not np.any(loads)

    @pytest.mark.parametrize(
        "case",
        [*UNWRITEABLE, "short-priorities", "short-weights",
         "priorities-per-trial", "weights-per-trial", "int-loads", *BAD_BLOCKS],
    )
    def test_batched_argmin_commit(self, case):
        if case in UNWRITEABLE:
            row = UNWRITEABLE[case]()
            loads = [list(row)] * 2 if isinstance(row, list) else _frozen((2, len(row)))
        elif case == "int-loads":
            loads = np.zeros((2, 1000), dtype=np.int64)
        else:
            loads = np.zeros((2, 1000))
        streams = [RandomProbeStream(len(loads[0]), seed=s) for s in (1, 2)]
        sources = [_source(s, 2) for s in streams]
        kwargs = {}
        if case == "short-priorities":
            kwargs["priorities"] = [np.zeros((BALLS, 2)), np.zeros((BALLS - 1, 2))]
        elif case == "short-weights":
            kwargs["weights"] = [np.ones(BALLS), np.ones(BALLS - 1)]
        elif case == "priorities-per-trial":
            kwargs["priorities"] = [np.zeros((BALLS, 2))]
        elif case == "weights-per-trial":
            kwargs["weights"] = [np.ones(BALLS)] * 3
        elif case == "int-loads":
            kwargs["weights"] = [FRACTIONAL, FRACTIONAL]
        elif case in BAD_BLOCKS:
            trial, block = BAD_BLOCKS[case]
            sources = [lambda start, count: np.zeros((count, 2), np.int64)] * 2
            sources[trial] = lambda start, count: block(count)
        with pytest.raises(ConfigurationError):
            batched_argmin_commit(loads, sources, BALLS, 2, **kwargs)
        assert [s.consumed for s in streams] == [0, 0]
        assert not np.any(loads)

    @pytest.mark.parametrize(
        "case",
        [
            *UNWRITEABLE,
            "list-placement",
            "read-only-placement",
            "short-placement",
            "placement-outside-row",
            "negative-bin",
            "bin-past-the-end",
            "list-choices",
            "1-d-choices",
        ],
    )
    def test_chunked_move_sweep(self, case):
        # Every ball sits in bin 0 with a free alternative: a sweep would move.
        choices = np.array([[0, 1], [0, 2], [0, 3], [0, 1]], dtype=np.int64)
        loads = np.array([4, 0, 0, 0], dtype=np.int64)
        placement = np.zeros(4, dtype=np.int64)
        if case in UNWRITEABLE:
            loads = UNWRITEABLE[case]()
        elif case == "list-placement":
            placement = [0, 0, 0, 0]
        elif case == "read-only-placement":
            placement = _frozen(4, np.int64)
        elif case == "placement-outside-row":
            # Ball 2 sits in bin 1, which is not one of its candidates: the
            # conflict-free rule would read a bin another ball writes.
            placement[2] = 1
            loads = np.array([3, 1, 0, 0], dtype=np.int64)
        elif case in ("negative-bin", "bin-past-the-end"):
            # Ball 0's second candidate is outside the 4 bins: -1 would alias
            # the last bin (a sweep would move ball 0 there), 4 index past it.
            bad = -1 if case == "negative-bin" else 4
            choices = np.array([[0, bad], [0, 2], [1, 3]], dtype=np.int64)
            placement = np.array([0, 0, 1], dtype=np.int64)
            loads = np.array([3, 1, 0, 0], dtype=np.int64)
        elif case == "list-choices":
            choices = choices.tolist()
        elif case == "1-d-choices":
            choices = choices[:, 0].copy()
        else:
            placement = np.zeros(3, dtype=np.int64)
        before = (np.array(loads), np.array(placement))
        with pytest.raises(ConfigurationError):
            chunked_move_sweep(loads, choices, placement)
        assert np.array_equal(loads, before[0])
        assert np.array_equal(placement, before[1])


class TestMemoryAndWeightedInputs:
    @pytest.mark.parametrize("case", [*UNWRITEABLE, *BAD_ASSIGNMENTS])
    @pytest.mark.parametrize("d,k", [(2, 0), (1, 1), (2, 2)])
    def test_chunked_memory_commit(self, case, d, k):
        if case in BAD_ASSIGNMENTS:
            loads = np.zeros(1000, dtype=np.int64)
            assignments = BAD_ASSIGNMENTS[case]()
        else:
            loads, assignments = UNWRITEABLE[case](), None
        stream = RandomProbeStream(len(loads), seed=1)
        with pytest.raises(ConfigurationError):
            chunked_memory_commit(
                stream, loads, [], BALLS, d, k, assignments=assignments
            )
        assert stream.consumed == 0
        assert not np.any(loads)

    @pytest.mark.parametrize("case", [*UNWRITEABLE, *BAD_ASSIGNMENTS, "int-loads"])
    def test_chunked_weighted_memory_commit(self, case):
        if case in BAD_ASSIGNMENTS:
            loads, assignments = np.zeros(1000), BAD_ASSIGNMENTS[case]()
        elif case == "int-loads":
            loads, assignments = np.zeros(1000, dtype=np.int64), None
        else:
            loads, assignments = UNWRITEABLE[case](), None
        stream = RandomProbeStream(len(loads), seed=1)
        with pytest.raises(ConfigurationError):
            chunked_memory_commit(
                stream, loads, [], BALLS, 2, 1, assignments=assignments,
                weights=FRACTIONAL,
            )
        assert stream.consumed == 0
        assert not np.any(loads)

    @pytest.mark.parametrize(
        "case", [*UNWRITEABLE, "bytes", *BAD_ASSIGNMENTS, "int-loads"]
    )
    def test_chunked_weighted_assign(self, case):
        data = bytes(32)
        assignments = None
        if case == "bytes":
            # np.frombuffer views the immutable bytes object as four float bins.
            loads = np.frombuffer(data)
        elif case in BAD_ASSIGNMENTS:
            loads, assignments = np.zeros(1000), BAD_ASSIGNMENTS[case]()
        elif case == "int-loads":
            loads = np.zeros(1000, dtype=np.int64)
        else:
            loads = UNWRITEABLE[case]()
        stream = RandomProbeStream(len(loads), seed=1)
        with pytest.raises(ConfigurationError):
            chunked_weighted_assign(
                loads,
                FRACTIONAL,
                np.full(BALLS, 4.0),
                stream,
                assignments=assignments,
            )
        assert stream.consumed == 0
        assert not np.any(loads)
        assert data == bytes(32)
