"""The background-flush service: config, request objects, progress engine.

One :class:`ProgressEngine` per rank lives in the rank's ``Proc.ns``
scratch space (the same place the MPI mailboxes live), so every SPMD run
starts with a fresh, empty queue.  Its ``clock`` is the drain timeline: a
posted write is issued to the file system at
``max(rank clock, drain clock)`` -- the progress thread serialises its own
queue but runs concurrently with the rank -- and the request's completion
time advances only the drain timeline.  The rank's clock catches up to a
request's completion exactly when it *waits* (explicit ``wait()``, queue
backpressure, or a pre-read/pre-close drain), which is where overlap with
compute comes from.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

__all__ = [
    "AioConfig",
    "AioRequest",
    "ProgressEngine",
    "drain_all",
    "progress_engine",
]

_NS_KEY = "aio.progress"


@dataclass(frozen=True)
class AioConfig:
    """Sizing of the per-rank background flush service.

    ``queue_depth`` bounds outstanding requests (``None`` = unbounded,
    the VOL-async default: the queue is gated by memory, not count) and
    ``staging_bytes`` bounds staged data; posting past either limit
    retires the oldest requests first (backpressure), charging the
    waiting time to the posting rank like a full staging queue would.
    """

    queue_depth: int | None = None
    staging_bytes: int = 64 * 1024 * 1024

    def __post_init__(self):
        if self.queue_depth is not None and self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.staging_bytes < 1:
            raise ValueError("staging_bytes must be >= 1")


@dataclass
class AioRequest:
    """A posted nonblocking operation (``MPI_File_iwrite``-style).

    ``done_time`` is on the drain timeline; ``error`` holds a failure the
    background thread hit after exhausting its retries, raised when the
    request (or a younger one on the same queue) is waited on.
    """

    path: str
    nbytes: int
    done_time: float
    engine: "ProgressEngine | None" = None
    error: BaseException | None = None
    retired: bool = False

    def test(self, proc) -> bool:
        """Nonblocking completion check at the rank's current clock."""
        if self.retired or self.engine is None:
            return True
        return proc.clock >= self.done_time

    def wait(self, proc) -> None:
        """Block until complete; raises the deferred error, if any.

        Retires every older request on the same queue first (completions
        are in post order on the single progress thread), so errors
        surface oldest-first.
        """
        if self.engine is not None:
            self.engine.retire_through(self, proc)
        elif self.error is not None:
            raise self.error


class ProgressEngine:
    """One rank's simulated I/O-progress thread and staging queue."""

    def __init__(self, config: AioConfig):
        self.config = config
        self.clock = 0.0  # drain timeline (>= every retired done_time)
        self.pending: deque[AioRequest] = deque()
        self.staged_bytes = 0

    def post(self, req: AioRequest) -> AioRequest:
        """Enqueue a request whose issue the caller already timed."""
        req.engine = self
        self.clock = max(self.clock, req.done_time)
        self.pending.append(req)
        self.staged_bytes += req.nbytes
        return req

    def reserve(self, nbytes: int, proc) -> None:
        """Backpressure: retire oldest requests until ``nbytes`` fits."""
        cfg = self.config
        while self.pending and (
            (cfg.queue_depth is not None and len(self.pending) >= cfg.queue_depth)
            or self.staged_bytes + nbytes > cfg.staging_bytes
        ):
            self.retire_oldest(proc)

    def retire_oldest(self, proc) -> None:
        """Wait for the oldest request; raises its deferred error."""
        req = self.pending.popleft()
        self.staged_bytes -= req.nbytes
        req.retired = True
        proc.advance_to(req.done_time)
        if req.error is not None:
            raise req.error

    def retire_through(self, req: AioRequest, proc) -> None:
        while not req.retired and self.pending:
            self.retire_oldest(proc)

    def drain(self, proc) -> None:
        """Retire everything outstanding (the explicit flush barrier)."""
        while self.pending:
            self.retire_oldest(proc)


def progress_engine(proc, config: AioConfig) -> ProgressEngine:
    """Get or create the rank's progress engine (fresh per SPMD run)."""
    eng = proc.ns.get(_NS_KEY)
    if eng is None:
        eng = ProgressEngine(config)
        proc.ns[_NS_KEY] = eng
    return eng


def drain_all(comm) -> None:
    """Drain this rank's progress engine, if one exists (idempotent)."""
    eng = comm.proc.ns.get(_NS_KEY)
    if eng is not None:
        eng.drain(comm.proc)
