"""Newline-delimited JSON framing of the live dispatcher service.

One frame is one JSON document on one line, UTF-8 encoded and terminated by
``\\n``.  JSON string escaping guarantees the payload itself can never
contain a raw newline, so the framing needs no length prefix and a frame
stream can be inspected (or hand-fed) with ordinary line tools.  The live
dispatcher service (:mod:`repro.service.server`) and its clients speak
exactly this format, which is also the JSONL record format of
:mod:`repro.cluster.stream` — a service conversation captured to a file
*is* a JSONL document.  The cluster's worker transports do not use it: they
carry :mod:`multiprocessing.connection`'s length-prefixed frames (see
:mod:`repro.cluster.transport`).

Three consumer shapes are supported:

* :func:`encode_frame` / :func:`decode_frame` — pure bytes-level codec (the
  service writes its replies as ``encode_frame`` bytes);
* :func:`read_frame` — the asyncio stream reader of the service's event
  loop;
* :class:`FrameConnection` — a blocking socket wrapper for synchronous
  peers (the :class:`ServiceClient`).

Malformed input raises :class:`FramingError` (a
:class:`~repro.errors.ReproError`), so peers can distinguish "the other
side speaks garbage" from "the other side went away" (plain
``ConnectionError`` / ``EOFError``).  A frame that exceeds
:data:`MAX_FRAME_BYTES` raises the :class:`FrameTooLargeError` subclass;
since the oversized line is only partially consumed, the byte stream is
desynchronised mid-frame and the connection must not be reused.
"""

from __future__ import annotations

import asyncio
import json
import socket
from typing import Any

from repro.errors import ReproError

__all__ = [
    "FramingError",
    "FrameTooLargeError",
    "MAX_FRAME_BYTES",
    "encode_frame",
    "decode_frame",
    "read_frame",
    "FrameConnection",
]

#: Upper bound on one frame's wire size.  Large enough for a checkpoint of a
#: million-server dispatcher or a 10^6-job submit batch, small enough that a
#: corrupt peer cannot make a reader buffer unbounded garbage.
MAX_FRAME_BYTES = 256 * 1024 * 1024


class FramingError(ReproError):
    """A peer sent bytes that are not a valid newline-delimited JSON frame."""


class FrameTooLargeError(FramingError):
    """A peer's frame exceeds :data:`MAX_FRAME_BYTES`.

    The oversized line is (in general) only partially consumed when this is
    raised, leaving the byte stream desynchronised mid-frame — after
    reporting the error the connection must be closed, never read again.
    """


def encode_frame(message: dict[str, Any]) -> bytes:
    """Serialise one message dict to its wire form (JSON line + newline)."""
    if not isinstance(message, dict):
        raise FramingError(
            f"frame payload must be a dict, got {type(message).__name__}"
        )
    try:
        text = json.dumps(message, separators=(",", ":"), allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise FramingError(f"frame payload is not JSON-serialisable: {exc}") from exc
    return text.encode("utf-8") + b"\n"


def _reject_constant(name: str) -> float:
    raise ValueError(f"{name} is not strict JSON")


#: Frames are strict JSON both ways: :func:`encode_frame` writes no NaN or
#: Infinity, and a frame carrying one is malformed — its echoed ``id``
#: could not be written back.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def decode_frame(line: bytes) -> dict[str, Any]:
    """Parse one wire line back into a message dict."""
    try:
        message = _DECODER.decode(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and the NaN/Infinity
        # literals; RecursionError a line nested too deep to parse.
        raise FramingError(f"malformed frame: {exc}") from exc
    if not isinstance(message, dict):
        raise FramingError(
            f"frame must decode to a dict, got {type(message).__name__}"
        )
    return message


async def read_frame(reader: asyncio.StreamReader) -> dict[str, Any] | None:
    """Read the next frame from an asyncio stream; ``None`` on clean EOF.

    The reader's buffer limit must cover :data:`MAX_FRAME_BYTES` (the
    service passes ``limit=MAX_FRAME_BYTES`` to ``asyncio.start_server``);
    a line that overruns it raises :class:`FrameTooLargeError` — and since
    ``readline`` consumed part of the oversized line, the stream is
    desynchronised and the caller must close the connection after replying.
    """
    try:
        line = await reader.readline()
    except (ConnectionError, OSError):
        return None
    except (asyncio.LimitOverrunError, ValueError) as exc:
        # StreamReader.readline raises ValueError (from LimitOverrunError)
        # when a line exceeds the stream's buffer limit.
        raise FrameTooLargeError(
            f"frame exceeds the {MAX_FRAME_BYTES}-byte limit: {exc}"
        ) from exc
    if not line:
        return None
    if not line.endswith(b"\n"):
        # readline returned a partial tail: the peer died mid-frame.
        return None
    if len(line) > MAX_FRAME_BYTES:
        raise FrameTooLargeError(
            f"frame of {len(line)} bytes exceeds MAX_FRAME_BYTES"
        )
    return decode_frame(line)


class FrameConnection:
    """Blocking frame exchange over a connected socket.

    Owns the socket: :meth:`close` shuts it down.  ``recv`` raises
    ``ConnectionError`` when the peer is gone (EOF or a torn final line), so
    callers that retry (the :class:`~repro.service.ServiceClient`) can
    tell a lost peer from a malformed frame.
    An oversized frame raises :class:`FrameTooLargeError` and closes the
    connection, since the partially-read line desynchronises the stream.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        # Buffered reader so a recv does one readline, not byte-wise recv(1).
        self._rfile = sock.makefile("rb")

    def send(self, message: dict[str, Any]) -> None:
        self._sock.sendall(encode_frame(message))

    def recv(self) -> dict[str, Any]:
        line = self._rfile.readline(MAX_FRAME_BYTES + 1)
        if not line.endswith(b"\n"):
            if len(line) > MAX_FRAME_BYTES:
                # readline stopped at the size cap mid-line: the frame is
                # oversized and the unread tail leaves the stream
                # desynchronised, so the connection is closed here.
                self.close()
                raise FrameTooLargeError(
                    f"frame exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES} "
                    f"bytes); connection closed"
                )
            raise ConnectionError("frame connection closed by peer")
        if len(line) > MAX_FRAME_BYTES:
            self.close()
            raise FrameTooLargeError(
                f"frame of {len(line)} bytes exceeds MAX_FRAME_BYTES; "
                f"connection closed"
            )
        return decode_frame(line)

    def close(self) -> None:
        for closer in (self._rfile.close, self._sock.close):
            try:
                closer()
            except OSError:  # pragma: no cover - best-effort teardown
                pass
