"""Clients of the fleet wire protocol: pooled connections + the remote byte store.

:class:`WireClient` owns the transport concerns every protocol client shares —
a small pool of persistent connections, per-request timeouts, bounded retries
with exponential backoff (a retried request is safe because every protocol
operation is idempotent: puts are content-addressed, leases tolerate
re-delivery).  :class:`RemoteByteStore` wraps it into the third cache tier:
``get``/``put``/``contains`` over the wire with **graceful local-only
fallback** — when the server is unreachable the store answers misses and
drops writes instead of raising, and backs off for ``down_cooldown_s`` so a
dead remote costs one connect timeout per cooldown window, not per request.

All remote traffic is counted into a shared
:class:`~repro.obs.Telemetry` registry (``remote_hits`` /
``remote_misses`` / ``remote_puts`` / ``remote_errors`` /
``remote_refusals`` / ``remote_down_skips`` plus the ``remote_request``
timer), which the serving layer's ``/metrics`` endpoint surfaces.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from ..obs.metrics import Telemetry
from ..obs.tracing import span, trace_wire_header
from . import protocol


@dataclass
class RemoteStoreConfig:
    """Transport knobs of one remote byte-store (or coordinator) client."""

    #: ``host:port`` of the server (see ``python -m repro byte-store-server``).
    address: str
    #: Seconds allowed for establishing a TCP connection.
    connect_timeout_s: float = 2.0
    #: Seconds allowed for one request round-trip (send + receive).  Large
    #: blobs (model weights) transfer well inside this on a LAN; raise it for
    #: slow links rather than disabling it — an unbounded wait would stall a
    #: serving worker forever.
    request_timeout_s: float = 30.0
    #: Additional attempts after a failed request (0 disables retries).  Every
    #: retry dials a fresh connection, so a stale pooled socket never counts
    #: against the budget twice.
    retries: int = 2
    #: Backoff before the first retry; doubles per subsequent attempt.
    backoff_s: float = 0.05
    #: Connections kept open per client (requests beyond it dial ad hoc).
    pool_size: int = 4
    #: Seconds the client treats the remote as *down* after exhausting its
    #: retries.  During the cooldown every operation falls back locally
    #: without touching the network; afterwards the next operation probes the
    #: server again.  0 retries on every request.
    down_cooldown_s: float = 5.0

    def __post_init__(self) -> None:
        protocol.parse_address(self.address)  # fail fast on malformed input


class RemoteUnavailableError(ConnectionError):
    """Every attempt at one request failed; the remote is treated as down."""


class RemoteRefusedError(RemoteUnavailableError):
    """The server answered but *refused* the operation (``ok: false``).

    A refusal proves the server is alive — transport-level ``except
    RemoteUnavailableError`` handlers still catch it (it subclasses the
    transport error, preserving historical behaviour), but callers that need
    the distinction (e.g. probing an old server for an op it does not know,
    like ``index-update``) can catch this first and fall back without
    marking a healthy server down.
    """


class WireClient:
    """A pooled, retrying protocol client (shared by store and fleet ops)."""

    def __init__(self, config: RemoteStoreConfig, telemetry: Optional[Telemetry] = None) -> None:
        """Create a client for ``config.address`` (no connection is dialed yet).

        ``telemetry`` is the shared counter registry remote traffic is
        reported into; a private one is created when omitted.
        """
        self.config = config
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._host, self._port = protocol.parse_address(config.address)
        self._pool: List[socket.socket] = []
        self._pool_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    def _dial(self) -> socket.socket:
        sock = socket.create_connection(
            (self._host, self._port), timeout=self.config.connect_timeout_s
        )
        sock.settimeout(self.config.request_timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _checkout(self) -> socket.socket:
        with self._pool_lock:
            if self._pool:
                return self._pool.pop()
        return self._dial()

    def _checkin(self, sock: socket.socket) -> None:
        with self._pool_lock:
            if not self._closed and len(self._pool) < self.config.pool_size:
                self._pool.append(sock)
                return
        _close_quietly(sock)

    def request(
        self, header: Dict[str, Any], payload: bytes = b""
    ) -> Tuple[Dict[str, Any], bytes]:
        """One round-trip with bounded retries; raises :class:`RemoteUnavailableError`.

        When the calling thread carries an active trace context, it rides
        along under the frame header's ``"trace"`` key (opaque to old
        servers) and the round-trip records a client-side ``wire.<op>``
        span — observability never changes the op's payload bytes.
        """
        trace = trace_wire_header()
        if trace is not None:
            header = dict(header)
            header.setdefault("trace", trace)
        with span(f"wire.{header.get('op')}", address=self.config.address):
            return self._request_attempts(header, payload)

    def _request_attempts(
        self, header: Dict[str, Any], payload: bytes
    ) -> Tuple[Dict[str, Any], bytes]:
        last_error: Optional[Exception] = None
        for attempt in range(self.config.retries + 1):
            if attempt:
                time.sleep(self.config.backoff_s * (2 ** (attempt - 1)))
            try:
                sock = self._checkout()
            except OSError as error:
                last_error = error
                continue
            try:
                response, blob = protocol.request(sock, header, payload)
            except (OSError, protocol.ProtocolError) as error:
                last_error = error
                _close_quietly(sock)
                continue
            self._checkin(sock)
            if not response.get("ok", False):
                # The server answered but refused the operation — that is an
                # application error, not a transport failure: no retry.
                raise RemoteRefusedError(
                    f"server at {self.config.address} rejected "
                    f"{header.get('op')!r}: {response.get('error', 'unknown error')}"
                )
            return response, blob
        raise RemoteUnavailableError(
            f"no response from {self.config.address} after "
            f"{self.config.retries + 1} attempt(s): {last_error}"
        ) from last_error

    def close(self) -> None:
        """Close every pooled connection; in-flight requests finish ad hoc."""
        with self._pool_lock:
            self._closed = True
            pool, self._pool = self._pool, []
        for sock in pool:
            _close_quietly(sock)


def _close_quietly(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:
        pass


class RemoteByteStore:
    """The remote cache tier: a byte store served by another process/host.

    Plugs in behind :class:`~repro.runtime.eviction.TieredByteStore` (and
    therefore behind the runtime :class:`~repro.runtime.cache.ResultCache`,
    the serving :class:`~repro.serve.cache.ExplanationCache` and the
    :class:`~repro.serve.store.ModelArtifactStore`).  Every method degrades
    gracefully: a dead or unreachable server makes ``get`` answer ``None``,
    ``put`` answer ``False`` and ``contains`` answer ``False`` — callers keep
    working from their local tiers — and the client backs off for
    ``down_cooldown_s`` before probing the server again.
    """

    def __init__(
        self,
        config: Union[str, RemoteStoreConfig],
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        """Create a store client from an ``"host:port"`` string or a full
        :class:`RemoteStoreConfig`; the first request dials the server."""
        if isinstance(config, str):
            config = RemoteStoreConfig(address=config)
        self.config = config
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._client = WireClient(config, telemetry=self.telemetry)
        self._down_until = 0.0
        # None until probed: does the server know the "index-update" op?
        # (Old servers answer a refusal, remembered here so every later
        # publish skips straight to the read-modify-write fallback.)
        self._index_update_supported: Optional[bool] = None

    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        """The configured ``host:port`` of the remote server."""
        return self.config.address

    @property
    def available(self) -> bool:
        """False while the client sits in its down-cooldown window."""
        return time.monotonic() >= self._down_until

    def _mark_down(self) -> None:
        self.telemetry.increment("remote_errors")
        self._down_until = time.monotonic() + max(0.0, self.config.down_cooldown_s)

    def _request(
        self, header: Dict[str, Any], payload: bytes = b""
    ) -> Optional[Tuple[Dict[str, Any], bytes]]:
        """A round-trip, or ``None`` when the remote is (or goes) down."""
        if not self.available:
            self.telemetry.increment("remote_down_skips")
            return None
        try:
            with self.telemetry.timer("remote_request"):
                return self._client.request(header, payload)
        except RemoteRefusedError:
            # A refusal proves the server is alive: degrade this one
            # operation without disabling the tier for the whole cooldown.
            self.telemetry.increment("remote_refusals")
            return None
        except RemoteUnavailableError:
            self._mark_down()
            return None

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[bytes]:
        """The remote blob for ``key``, or ``None`` on miss *or* server-down."""
        response = self._request({"op": "get", "key": key})
        if response is None:
            return None
        header, blob = response
        if header.get("found"):
            self.telemetry.increment("remote_hits")
            return blob
        self.telemetry.increment("remote_misses")
        return None

    def put(self, key: str, blob: bytes) -> bool:
        """Best-effort write-through; ``False`` means the write was dropped
        (server down) — safe because callers keep their local copy."""
        response = self._request({"op": "put", "key": key}, blob)
        if response is None:
            return False
        self.telemetry.increment("remote_puts")
        return True

    def contains(self, key: str) -> bool:
        """True when the server is reachable *and* holds ``key``."""
        response = self._request({"op": "contains", "key": key})
        return bool(response is not None and response[0].get("found"))

    def index_update(self, key: str, add) -> Optional[List[str]]:
        """Atomically union ``add`` names into the JSON list stored at ``key``.

        The merge happens server-side under one lock (the ``index-update``
        op), so two hosts registering concurrently can no longer overwrite
        each other's names with stale read-modify-write puts.  Returns the
        merged, sorted name list — or ``None`` when the server is down *or*
        too old to know the op (a refusal from a live server is remembered
        and does **not** start a down-cooldown); callers fall back to the
        legacy client-side read-modify-write put.
        """
        if self._index_update_supported is False:
            return None
        if not self.available:
            self.telemetry.increment("remote_down_skips")
            return None
        try:
            with self.telemetry.timer("remote_request"):
                header, _ = self._client.request(
                    {"op": "index-update", "key": key, "add": sorted(str(name) for name in add)}
                )
        except RemoteRefusedError:
            self._index_update_supported = False
            return None
        except RemoteUnavailableError:
            self._mark_down()
            return None
        self._index_update_supported = True
        self.telemetry.increment("remote_index_updates")
        return [str(name) for name in header.get("names", ())]

    def stats(self) -> Optional[Dict[str, Any]]:
        """The server's store statistics, or ``None`` when unreachable."""
        response = self._request({"op": "stats"})
        return None if response is None else dict(response[0].get("stats", {}))

    def ping(self) -> bool:
        """Probe the server, clearing the down state on success."""
        self._down_until = 0.0
        return self._request({"op": "ping"}) is not None

    def close(self) -> None:
        """Release the pooled connections (the store object stays usable —
        a later request dials fresh)."""
        self._client.close()

    def __repr__(self) -> str:
        return f"RemoteByteStore({self.config.address!r})"
