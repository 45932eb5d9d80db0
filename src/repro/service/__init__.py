"""Live dispatcher service: async micro-batching server, clients, telemetry.

The :mod:`repro.service` package turns the one-shot batch dispatcher into a
long-running system: a newline-delimited-JSON TCP protocol
(:mod:`~repro.service.framing`), a backpressure-aware micro-batcher
(:mod:`~repro.service.batcher`), rolling latency/throughput telemetry with
live schedule gauges (:mod:`~repro.service.telemetry`), and the asyncio
service + synchronous clients (:mod:`~repro.service.server`), including
checkpoint/restore that resumes an interrupted stream bit-identically and
an idempotent-request log (:mod:`~repro.service.requests`) that lets
retrying clients replay unacknowledged submits exactly once.
"""

from repro.service.batcher import DEFAULT_MAX_QUEUE_JOBS, MicroBatcher, QueueOverflow
from repro.service.framing import (
    MAX_FRAME_BYTES,
    FrameConnection,
    FrameTooLargeError,
    FramingError,
    decode_frame,
    encode_frame,
    read_frame,
)
from repro.service.requests import DEFAULT_REQUEST_LOG_CAPACITY, RequestLog
from repro.service.server import (
    DispatchService,
    ServiceClient,
    ServiceError,
    ServiceThread,
)
from repro.service.telemetry import RollingWindow, ServiceTelemetry

__all__ = [
    "DEFAULT_MAX_QUEUE_JOBS",
    "DEFAULT_REQUEST_LOG_CAPACITY",
    "MAX_FRAME_BYTES",
    "DispatchService",
    "RequestLog",
    "FrameConnection",
    "FrameTooLargeError",
    "FramingError",
    "MicroBatcher",
    "QueueOverflow",
    "RollingWindow",
    "ServiceClient",
    "ServiceError",
    "ServiceTelemetry",
    "ServiceThread",
    "decode_frame",
    "encode_frame",
    "read_frame",
]
