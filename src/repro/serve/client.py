"""The client for the ``repro serve`` job service.

:class:`ServeClient` holds one *persistent* connection per thread:
requests reuse the socket, a dead peer is detected on EOF and the
client transparently reconnects and resends.  The connection is
thread-local so one client shared across a thread pool never
interleaves frames — each thread speaks over its own socket.  Retries
are safe by construction — ``run_id`` is content-addressed, so
replaying a submit can only hit the cache or coalesce, never
double-execute.  Backoff between attempts uses decorrelated jitter so a
thundering herd of clients re-approaching a restarted server spreads
out instead of stampeding in lockstep.

Every verb goes through one exchange path (:meth:`ServeClient._call`):
send one :mod:`repro.serve.protocol` frame, read the reply frames, and
on any failure that leaves a frame half-read drop the connection so the
next request never reads a stale reply.  Job-shaped verbs return
:class:`SubmitReply`.

    >>> with ServeClient(socket_path=".repro/serve.sock") as c:
    ...     r = c.submit(JobSpec(app="hello", nvp=2))
    ...     r.cache, r.run_id[:12]          # 'miss' first, 'hit' after
"""

from __future__ import annotations

import random
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.errors import ReproError
from repro.harness.jobspec import JobSpec
from repro.provenance.record import RunRecord
from repro.serve import protocol

#: default retry envelope: attempts = retries + 1
DEFAULT_RETRIES = 2
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0


class ServeConnectionError(ReproError):
    """The service is unreachable or hung up mid-reply."""


@dataclass
class SubmitReply:
    """One submit/await outcome as the client sees it."""

    ok: bool
    run_id: str | None = None
    #: ``hit`` | ``miss`` | ``coalesced`` | ``inflight`` (wait=False)
    cache: str | None = None
    record: dict[str, Any] | None = None
    error: str | None = None
    #: structured-failure code (``busy``, ``deadline-exceeded``, ...)
    reason: str | None = None
    #: the submission was shed before acceptance; retry is always safe
    retryable: bool = False
    #: position in the request batch (``submit_many`` replies only)
    index: int | None = None
    #: client-side wall seconds for the round trip
    wall_s: float = 0.0

    @property
    def hit(self) -> bool:
        return self.cache == protocol.CACHE_HIT

    def run_record(self) -> RunRecord:
        if self.record is None:
            raise ReproError(f"no record in reply: {self.error or self}")
        return RunRecord.from_dict(self.record)

    @classmethod
    def from_reply(cls, reply: dict[str, Any],
                   wall_s: float = 0.0) -> "SubmitReply":
        return cls(ok=bool(reply.get("ok")),
                   run_id=reply.get("run_id"),
                   cache=reply.get("cache"),
                   record=reply.get("record"),
                   error=reply.get("error"),
                   reason=reply.get("reason"),
                   retryable=bool(reply.get("retryable")),
                   index=reply.get("index"),
                   wall_s=wall_s)


def _spec_dict(spec: JobSpec | dict[str, Any]) -> dict[str, Any]:
    return spec.to_dict() if isinstance(spec, JobSpec) else dict(spec)


class _Backoff:
    """Decorrelated-jitter backoff (`sleep = U(base, prev*3)` capped).
    Each thread's connection gets its own RNG so a fleet re-approaching
    a restarted server spreads out instead of retrying in lockstep."""

    def __init__(self, base_s: float = BACKOFF_BASE_S,
                 cap_s: float = BACKOFF_CAP_S):
        self.base_s, self.cap_s = base_s, cap_s
        self._rng = random.Random()  # repro: allow(det-unseeded-random) backoff jitter must differ across clients; never touches simulation state
        self._prev = base_s

    def next_delay(self) -> float:
        self._prev = min(self.cap_s,
                         self._rng.uniform(self.base_s, self._prev * 3))
        return self._prev

    def reset(self) -> None:
        self._prev = self.base_s


class _Conn(threading.local):
    """The calling thread's connection state: its socket, the unread
    bytes after the last reply frame, and its backoff."""

    def __init__(self, backoff_base_s: float, backoff_cap_s: float):
        self.sock: socket.socket | None = None
        self.buf = b""
        self.backoff = _Backoff(backoff_base_s, backoff_cap_s)


class ServeClient:
    """Synchronous client over persistent, self-healing sockets.

    The connection (and its read buffer, and its backoff state) is
    *thread-local*: one client instance shared across a thread pool
    gives each thread its own socket, so concurrent requests never
    interleave frames or steal each other's replies.
    """

    def __init__(self, socket_path: str | Path | None = None, *,
                 host: str | None = None, port: int | None = None,
                 timeout: float | None = None,
                 retries: int = DEFAULT_RETRIES,
                 backoff_base_s: float = BACKOFF_BASE_S,
                 backoff_cap_s: float = BACKOFF_CAP_S):
        if socket_path is None and host is None:
            raise ReproError("need a socket_path or a host/port")
        self.socket_path = str(socket_path) if socket_path else None
        self.host, self.port = host, port
        self.timeout = timeout
        self.retries = retries
        self._conn = _Conn(backoff_base_s, backoff_cap_s)

    @property
    def _sock(self) -> socket.socket | None:
        """The calling thread's socket (None until its first request)."""
        return self._conn.sock

    # -- transport ----------------------------------------------------------

    def _connect(self) -> socket.socket:
        try:
            if self.socket_path is not None:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(self.timeout)
                sock.connect(self.socket_path)
                return sock
            return socket.create_connection(
                (self.host, self.port or 0), timeout=self.timeout)
        except OSError as e:
            raise ServeConnectionError(
                f"cannot reach serve at "
                f"{self.socket_path or f'{self.host}:{self.port}'}: {e}"
            ) from None

    def close(self) -> None:
        """Close the *calling thread's* connection (other threads'
        sockets close when their thread exits or on their next EOF)."""
        conn = self._conn
        if conn.sock is not None:
            try:
                conn.sock.close()
            except OSError:
                pass
            conn.sock = None
        conn.buf = b""

    def _read_reply(self) -> dict[str, Any]:
        """Read and decode the next reply frame on this thread's
        connection."""
        conn = self._conn
        assert conn.sock is not None
        while b"\n" not in conn.buf:
            try:
                chunk = conn.sock.recv(65536)
            except OSError as e:
                raise ServeConnectionError(
                    f"serve connection lost: {e}") from None
            if not chunk:
                raise ServeConnectionError("serve hung up (EOF)")
            conn.buf += chunk
            if len(conn.buf) > protocol.MAX_LINE:
                raise protocol.ProtocolError(
                    f"reply exceeds {protocol.MAX_LINE} bytes")
        line, _, conn.buf = conn.buf.partition(b"\n")
        return protocol.decode(line)

    def _call(self, msg: dict[str, Any], *,
              deadline_ms: float | None = None
              ) -> list[tuple[dict[str, Any], float]]:
        """The one exchange path: send ``msg`` and return its reply
        frames, each with the client-observed seconds since the call
        began.  A verb gets one frame; ``submit_many`` gets every frame
        before its terminator.

        Any exception drops the connection, since it may leave a frame
        half-read.  A connection failure is also retried on a fresh
        connection (idempotent: run ids are content-addressed) after a
        decorrelated-jitter backoff."""
        if deadline_ms is not None:
            msg = {**msg, "deadline_ms": deadline_ms}
        stream = msg["op"] == protocol.OP_SUBMIT_MANY
        conn = self._conn
        conn.backoff.reset()
        t0 = time.perf_counter()  # repro: allow(det-wallclock) client-observed host latency, reported not simulated
        attempt = 0
        while True:
            try:
                if conn.sock is None:
                    conn.sock = self._connect()
                try:
                    conn.sock.sendall(protocol.encode(msg))
                except OSError as e:
                    raise ServeConnectionError(
                        f"serve connection lost on send: {e}") from None
                frames: list[tuple[dict[str, Any], float]] = []
                while True:
                    reply = self._read_reply()
                    done = reply.get("op") == protocol.OP_SUBMIT_MANY_DONE
                    if stream and done:
                        return frames
                    frames.append((reply, time.perf_counter() - t0))  # repro: allow(det-wallclock) client-observed host latency, reported not simulated
                    if not stream:
                        return frames
            except BaseException as e:
                self.close()
                if (not isinstance(e, ServeConnectionError)
                        or attempt == self.retries):
                    raise
            attempt += 1
            time.sleep(conn.backoff.next_delay())  # repro: allow(det-wallclock) client retry pacing against a real server

    def _request(self, msg: dict[str, Any]) -> dict[str, Any]:
        return self._call(msg)[0][0]

    # -- verbs --------------------------------------------------------------

    def submit(self, spec: JobSpec | dict[str, Any], *,
               wait: bool = True,
               deadline_ms: float | None = None,
               chaos: dict[str, Any] | None = None) -> SubmitReply:
        msg: dict[str, Any] = {"op": protocol.OP_SUBMIT,
                               "spec": _spec_dict(spec), "wait": wait}
        if chaos is not None:
            msg["chaos"] = chaos
        [(reply, wall)] = self._call(msg, deadline_ms=deadline_ms)
        return SubmitReply.from_reply(reply, wall)

    def submit_many(self, specs: Sequence[JobSpec | dict[str, Any]], *,
                    wait: bool = True,
                    deadline_ms: float | None = None
                    ) -> list[SubmitReply]:
        """Batch submit: one request, replies streamed back per job.
        Returned list is in *request order* (the wire order is
        completion order; the client reorders by ``index``).  A job
        without a reply carries the batch's un-indexed error, if the
        server rejected the whole request."""
        msg: dict[str, Any] = {"op": protocol.OP_SUBMIT_MANY,
                               "specs": [_spec_dict(s) for s in specs],
                               "wait": wait}
        n = len(specs)
        out: list[SubmitReply | None] = [None] * n
        missing = "no reply for this index"
        for reply, wall in self._call(msg, deadline_ms=deadline_ms):
            sr = SubmitReply.from_reply(reply, wall)
            if isinstance(sr.index, int) and 0 <= sr.index < n:
                out[sr.index] = sr
            elif sr.error:
                missing = sr.error
        return [r if r is not None
                else SubmitReply(ok=False, index=i, error=missing)
                for i, r in enumerate(out)]

    def await_result(self, run_id: str, *,
                     deadline_ms: float | None = None) -> SubmitReply:
        [(reply, wall)] = self._call({"op": protocol.OP_AWAIT,
                                      "run_id": run_id},
                                     deadline_ms=deadline_ms)
        return SubmitReply.from_reply(reply, wall)

    def status(self, run_id: str) -> str:
        reply = self._request({"op": protocol.OP_STATUS, "run_id": run_id})
        return reply.get("state", "unknown")

    def stats(self) -> dict[str, Any]:
        reply = self._request({"op": protocol.OP_STATS})
        if not reply.get("ok"):
            raise ReproError(f"stats failed: {reply.get('error')}")
        return reply["stats"]

    def health(self) -> dict[str, Any]:
        return self._request({"op": protocol.OP_HEALTH})

    def ping(self) -> dict[str, Any]:
        return self._request({"op": protocol.OP_PING})

    def drain(self) -> dict[str, Any]:
        return self._request({"op": protocol.OP_DRAIN})

    def shutdown(self) -> dict[str, Any]:
        return self._request({"op": protocol.OP_SHUTDOWN})

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
