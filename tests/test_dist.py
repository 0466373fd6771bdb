"""Tests of repro.dist: wire protocol, remote byte store, and the fleet.

The guarantees pinned here mirror the module's contracts:

* the frame protocol rejects torn, truncated and oversized frames rather
  than silently delivering bad bytes;
* :class:`RemoteByteStore` degrades to a no-op (miss / refused put) when the
  server is unreachable, and callers stacked on top of it —
  :class:`TieredByteStore`, :class:`ResultCache`,
  :class:`ModelArtifactStore` — keep answering from their local tiers with
  byte-identical content;
* the fleet executor produces results *identical* to serial execution, and
  survives failing units, dead workers and lease expiry.
"""

import os
import socket
import struct
import subprocess
import sys
import threading
import time
import zlib

import pytest

import fleet_provider  # noqa: F401  (registers the _fleet_* work kinds)
from repro.dist import (
    ByteStoreServer,
    FleetConfig,
    FleetCoordinator,
    FleetExecutor,
    ProtocolError,
    RemoteByteStore,
    RemoteRefusedError,
    RemoteStoreConfig,
    RemoteUnavailableError,
    UnitFailedError,
    WireClient,
    WireServer,
    parse_address,
    run_worker,
)
from repro.dist.protocol import MAGIC, _PREFIX, recv_message, send_message
from repro.experiments import tiny_scale
from repro.models import create_model
from repro.runtime import ExperimentSpec, ResultCache, SerialExecutor, WorkUnit, run
from repro.runtime.eviction import TieredByteStore
from repro.runtime.executor import executor_label
from repro.serve.store import ModelArtifactStore
from repro.obs import Telemetry


@pytest.fixture(scope="module")
def scale():
    return tiny_scale(random_state=0)


@pytest.fixture()
def byte_server(tmp_path):
    server = ByteStoreServer(directory=str(tmp_path / "served")).start()
    yield server
    server.close()


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


FAST_REMOTE = dict(connect_timeout_s=0.2, request_timeout_s=2.0,
                   retries=1, backoff_s=0.01, down_cooldown_s=0.2)


# ---------------------------------------------------------------------------
# wire protocol
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_round_trip(self):
        a, b = socket.socketpair()
        try:
            send_message(a, {"op": "echo", "n": 3}, b"\x00\x01payload")
            header, payload = recv_message(b)
            assert header == {"op": "echo", "n": 3}
            assert payload == b"\x00\x01payload"
        finally:
            a.close()
            b.close()

    def test_corrupted_payload_is_rejected(self):
        # Flip one payload byte behind the CRC's back: the frame must not be
        # delivered as if it were intact.
        a, b = socket.socketpair()
        try:
            header = b'{"op":"put"}'
            payload = b"precious bytes"
            torn = bytearray(payload)
            torn[3] ^= 0xFF
            prefix = _PREFIX.pack(MAGIC, len(header), len(payload), zlib.crc32(payload))
            a.sendall(prefix + header + bytes(torn))
            with pytest.raises(ProtocolError, match="checksum"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_bad_magic_and_oversized_header_are_rejected(self):
        # A fresh pair per frame: after a rejected frame the stream is dead.
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack("!2sIQI", b"XX", 2, 0, 0) + b"{}")
            with pytest.raises(ProtocolError, match="magic"):
                recv_message(b)
        finally:
            a.close()
            b.close()
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack("!2sIQI", MAGIC, (1 << 20) + 1, 0, 0))
            with pytest.raises(ProtocolError, match="header length"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_receiver_payload_bound_trips_before_allocation(self):
        # A crafted frame header announcing a huge payload must be rejected
        # on the preamble alone — no payload bytes are ever buffered.
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack("!2sIQI", MAGIC, 2, 1 << 30, 0) + b"{}")
            with pytest.raises(ProtocolError, match="payload length"):
                recv_message(b, max_payload_bytes=1 << 20)
        finally:
            a.close()
            b.close()

    def test_parse_address(self):
        assert parse_address("example.org:7070") == ("example.org", 7070)
        assert parse_address(":7070") == ("127.0.0.1", 7070)
        with pytest.raises(ValueError):
            parse_address("no-port-here")


# ---------------------------------------------------------------------------
# wire server + client
# ---------------------------------------------------------------------------
class TestWireServerClient:
    def test_request_response_and_unknown_op(self):
        server = WireServer()
        server.register("double", lambda header, payload: ({"ok": True, "n": header["n"] * 2},
                                                           payload * 2))
        server.start()
        try:
            client = WireClient(RemoteStoreConfig(address=server.address, **FAST_REMOTE))
            header, payload = client.request({"op": "double", "n": 21}, b"ab")
            assert header["n"] == 42 and payload == b"abab"
            # An application-level refusal is not a transport failure: the
            # client must surface it immediately instead of retrying.
            with pytest.raises(RemoteUnavailableError, match="unknown op"):
                client.request({"op": "no-such-op"})
            client.close()
        finally:
            server.close()

    def test_server_enforces_its_payload_bound(self):
        server = WireServer(max_payload_bytes=1024)
        server.register("echo", lambda header, payload: ({"ok": True}, payload))
        server.start()
        try:
            client = WireClient(RemoteStoreConfig(address=server.address, **FAST_REMOTE))
            # Oversized frames cost the sender its connection, not the server
            # a buffer; a compliant frame on a fresh connection still works.
            with pytest.raises(RemoteUnavailableError):
                client.request({"op": "echo"}, b"x" * 2048)
            _, payload = client.request({"op": "echo"}, b"x" * 512)
            assert payload == b"x" * 512
            client.close()
        finally:
            server.close()

    def test_dead_server_raises_after_bounded_retries(self):
        config = RemoteStoreConfig(address=f"127.0.0.1:{free_port()}", **FAST_REMOTE)
        client = WireClient(config)
        start = time.monotonic()
        with pytest.raises(RemoteUnavailableError, match="no response"):
            client.request({"op": "get", "key": "k"})
        # retries are bounded: 2 attempts at 0.2s connect timeout + backoff.
        assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# remote byte store
# ---------------------------------------------------------------------------
class TestRemoteByteStore:
    def test_put_get_contains_stats(self, byte_server):
        store = RemoteByteStore(RemoteStoreConfig(address=byte_server.address, **FAST_REMOTE))
        assert store.get("missing") is None
        assert store.put("blob-a", b"alpha")
        assert store.get("blob-a") == b"alpha"
        assert store.contains("blob-a") and not store.contains("missing")
        stats = store.stats()
        assert stats["puts"] == 1 and stats["hits"] == 1
        assert store.ping()
        store.close()

    def test_invalid_keys_are_refused(self, byte_server):
        store = RemoteByteStore(RemoteStoreConfig(address=byte_server.address, **FAST_REMOTE))
        with pytest.raises(RemoteUnavailableError, match="invalid store key"):
            store._client.request({"op": "get", "key": "../escape"})
        store.close()

    def test_refusal_does_not_mark_healthy_server_down(self, byte_server):
        # Regression: a refusal (server alive, operation rejected) used to be
        # caught as a transport failure and start a down-cooldown, disabling
        # the remote tier for every caller for down_cooldown_s.
        telemetry = Telemetry()
        store = RemoteByteStore(
            RemoteStoreConfig(address=byte_server.address, **FAST_REMOTE),
            telemetry=telemetry,
        )
        assert store.get("bad/key") is None
        assert store.available
        assert store.put("ok-key", b"v") and store.get("ok-key") == b"v"
        counters = telemetry.snapshot()
        assert counters["remote_refusals"] == 1
        assert "remote_errors" not in counters
        assert "remote_down_skips" not in counters
        store.close()

    def test_down_server_degrades_to_misses(self):
        telemetry = Telemetry()
        store = RemoteByteStore(
            RemoteStoreConfig(address=f"127.0.0.1:{free_port()}", **FAST_REMOTE),
            telemetry=telemetry,
        )
        assert store.get("k") is None
        assert store.put("k", b"v") is False
        assert store.contains("k") is False
        assert not store.available
        # During the cooldown window the store answers without touching the
        # network at all.
        assert store.get("k") is None
        counters = telemetry.snapshot()
        assert counters["remote_errors"] >= 1
        assert counters["remote_down_skips"] >= 1
        store.close()

    def test_ping_recovers_after_cooldown(self, tmp_path):
        port = free_port()
        store = RemoteByteStore(RemoteStoreConfig(address=f"127.0.0.1:{port}", **FAST_REMOTE))
        assert not store.ping()
        server = ByteStoreServer(port=port, directory=str(tmp_path / "late")).start()
        try:
            time.sleep(0.25)  # let the down-cooldown window lapse
            assert store.ping()
            assert store.put("k", b"v") and store.get("k") == b"v"
        finally:
            store.close()
            server.close()


# ---------------------------------------------------------------------------
# tiered store failure paths (local tiers + remote tier)
# ---------------------------------------------------------------------------
class TestTieredByteStoreFailures:
    def test_remote_read_through_promotes_locally(self, byte_server, tmp_path):
        remote = RemoteByteStore(RemoteStoreConfig(address=byte_server.address, **FAST_REMOTE))
        warm = TieredByteStore(directory=str(tmp_path / "warm"), remote=remote)
        warm.put("shared", b"from-host-a")

        cold = TieredByteStore(directory=str(tmp_path / "cold"), remote=remote)
        assert cold.get("shared") == b"from-host-a"
        # The read-through promoted the blob: a second read works even with
        # the server gone.
        byte_server.close()
        assert cold.get("shared") == b"from-host-a"
        remote.close()

    def test_refused_connection_mid_read_falls_back(self, tmp_path):
        port = free_port()
        server = ByteStoreServer(port=port, directory=str(tmp_path / "srv")).start()
        remote = RemoteByteStore(RemoteStoreConfig(address=f"127.0.0.1:{port}", **FAST_REMOTE))
        store = TieredByteStore(directory=str(tmp_path / "local"), remote=remote)
        store.put("k", b"v")
        server.close()
        # Local tiers still answer; a key absent locally is a miss, not an
        # exception, and writes still land locally.
        assert store.get("k") == b"v"
        assert store.get("remote-only") is None
        store.put("k2", b"v2")
        assert store.get("k2") == b"v2"
        remote.close()

    def test_invalidate_only_touches_local_tiers(self, byte_server, tmp_path):
        remote = RemoteByteStore(RemoteStoreConfig(address=byte_server.address, **FAST_REMOTE))
        store = TieredByteStore(directory=str(tmp_path / "local"), remote=remote)
        store.put("k", b"v")
        store.invalidate("k")
        assert not os.path.exists(store.path("k"))
        # The remote copy survives (it is CRC-protected in transit, so local
        # corruption says nothing about it) and read-through restores it.
        assert store.get("k") == b"v"
        remote.close()

    def test_fallback_byte_identity(self, tmp_path):
        # The same key served with and without a (dead) remote tier must
        # yield the exact same bytes — the remote tier is invisible to
        # correctness.
        blob = os.urandom(257)
        plain = TieredByteStore(directory=str(tmp_path / "a"))
        plain.put("k", blob)
        dead_remote = RemoteByteStore(
            RemoteStoreConfig(address=f"127.0.0.1:{free_port()}", **FAST_REMOTE))
        degraded = TieredByteStore(directory=str(tmp_path / "b"), remote=dead_remote)
        degraded.put("k", blob)
        assert plain.get("k") == degraded.get("k") == blob
        dead_remote.close()


class TestResultCacheCorruption:
    def test_torn_disk_blob_is_a_miss_and_invalidated(self, scale, tmp_path):
        cache = ResultCache(directory=str(tmp_path / "cache"))
        unit = WorkUnit.create("_fleet_square", value=9)
        from repro.runtime import unit_fingerprint

        key = unit_fingerprint(scale, unit)
        blob = cache.store(key, 81)
        # Tear the on-disk pickle (truncate to half) and drop the memory tier
        # so the next lookup must read the torn file.
        path = cache._store.path(key)
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        cache._store.memory.discard(key)
        hit, value = cache.lookup(key)
        assert not hit and value is None
        assert cache.stats.corrupt == 1
        assert not os.path.exists(path)  # invalidated, not left to fail again
        # The slot is usable again immediately.
        cache.store(key, 81)
        assert cache.lookup(key) == (True, 81)

    def test_remote_backed_caches_share_byte_identical_blobs(self, scale, byte_server, tmp_path):
        remote = RemoteByteStore(RemoteStoreConfig(address=byte_server.address, **FAST_REMOTE))
        first = ResultCache(directory=str(tmp_path / "host-a"), remote=remote)
        unit = WorkUnit.create("_fleet_square", value=12)
        from repro.runtime import unit_fingerprint

        key = unit_fingerprint(scale, unit)
        blob = first.store(key, 144)
        second = ResultCache(directory=str(tmp_path / "host-b"), remote=remote)
        assert second.get_blob(key) == blob
        assert second.lookup(key) == (True, 144)
        remote.close()


# ---------------------------------------------------------------------------
# artifact store over the remote tier
# ---------------------------------------------------------------------------
class TestArtifactStoreRemote:
    def test_cross_host_fetch_is_byte_identical(self, byte_server, tmp_path):
        remote = RemoteByteStore(RemoteStoreConfig(address=byte_server.address, **FAST_REMOTE))
        model = create_model("cnn", 3, 32, 2)
        publisher = ModelArtifactStore(str(tmp_path / "host-a"), remote=remote)
        artifact = publisher.register("demo", model, model_name="cnn")

        fetcher = ModelArtifactStore(str(tmp_path / "host-b"), remote=remote)
        assert "demo" in fetcher.list_names()
        assert "demo" in fetcher
        fetched = fetcher.artifact("demo")
        assert fetched.state_hash == artifact.state_hash
        loaded = fetcher.load("demo")
        assert loaded.n_dimensions == 3 and loaded.n_classes == 2
        with open(os.path.join(str(tmp_path / "host-a"), "demo", "weights.npz"), "rb") as fh:
            original = fh.read()
        with open(os.path.join(str(tmp_path / "host-b"), "demo", "weights.npz"), "rb") as fh:
            copied = fh.read()
        assert original == copied
        remote.close()

    def test_unknown_artifact_still_raises(self, byte_server, tmp_path):
        remote = RemoteByteStore(RemoteStoreConfig(address=byte_server.address, **FAST_REMOTE))
        store = ModelArtifactStore(str(tmp_path / "empty"), remote=remote)
        with pytest.raises(KeyError):
            store.artifact("never-registered")
        remote.close()


# ---------------------------------------------------------------------------
# atomic server-side index updates (the index-update op)
# ---------------------------------------------------------------------------
class TestIndexUpdate:
    def test_merges_server_side_and_tolerates_corruption(self, byte_server):
        remote = RemoteByteStore(RemoteStoreConfig(address=byte_server.address, **FAST_REMOTE))
        assert remote.index_update("idx", ["b", "a"]) == ["a", "b"]
        assert remote.index_update("idx", ["c"]) == ["a", "b", "c"]
        # A corrupt index is rebuilt from the submitted names instead of
        # poisoning every later publish.
        byte_server.store.put("idx", b"{not json")
        assert remote.index_update("idx", ["d"]) == ["d"]
        assert remote.telemetry.counter("remote_index_updates").value == 3
        remote.close()

    def test_concurrent_updates_drop_no_names(self, byte_server):
        import json as json_module

        remotes = [
            RemoteByteStore(RemoteStoreConfig(address=byte_server.address, **FAST_REMOTE))
            for _ in range(8)
        ]
        threads = [
            threading.Thread(target=remote.index_update, args=("races", [f"name-{index}"]))
            for index, remote in enumerate(remotes)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        merged = json_module.loads(byte_server.store.get("races").decode("utf-8"))
        assert merged == [f"name-{index}" for index in range(8)]
        for remote in remotes:
            remote.close()

    def test_refusal_from_old_server_is_remembered_without_cooldown(self, byte_server):
        # Simulate a pre-index-update server: the op is simply unknown.
        del byte_server.wire._handlers["index-update"]
        remote = RemoteByteStore(RemoteStoreConfig(address=byte_server.address, **FAST_REMOTE))
        assert remote.index_update("idx", ["a"]) is None
        # The refusal proved the server alive: no down-cooldown started and
        # ordinary ops keep flowing.
        assert remote.available
        assert remote.put("k", b"v") and remote.get("k") == b"v"
        assert remote.telemetry.counter("remote_errors").value == 0
        # The answer is remembered; later updates skip straight to None.
        assert remote._index_update_supported is False
        assert remote.index_update("idx", ["b"]) is None
        remote.close()

    def test_register_falls_back_to_client_side_put(self, byte_server, tmp_path):
        del byte_server.wire._handlers["index-update"]
        remote = RemoteByteStore(RemoteStoreConfig(address=byte_server.address, **FAST_REMOTE))
        store = ModelArtifactStore(str(tmp_path / "host-a"), remote=remote)
        store.register("legacy", create_model("cnn", 3, 32, 2), model_name="cnn")
        fetcher = ModelArtifactStore(
            str(tmp_path / "host-b"),
            remote=RemoteByteStore(RemoteStoreConfig(address=byte_server.address, **FAST_REMOTE)),
        )
        assert "legacy" in fetcher.list_names()
        remote.close()

    def test_invalid_add_payload_is_refused(self, byte_server):
        client = WireClient(RemoteStoreConfig(address=byte_server.address, **FAST_REMOTE))
        with pytest.raises(RemoteRefusedError, match="list of name strings"):
            client.request({"op": "index-update", "key": "idx", "add": "oops"})
        # The subclass preserves the historical catch-all behaviour.
        assert issubclass(RemoteRefusedError, RemoteUnavailableError)
        client.close()


# ---------------------------------------------------------------------------
# fleet coordinator (pure queue semantics, no sockets)
# ---------------------------------------------------------------------------
class TestFleetCoordinator:
    def make(self, **overrides):
        config = FleetConfig(**{"lease_timeout_s": 0.3, "max_attempts": 2, **overrides})
        return FleetCoordinator(config)

    def test_lease_complete_wait(self):
        coord = self.make()
        unit_id = coord.submit(b"blob", fingerprint="fp")
        leased_id, state, shutdown = coord.lease("w1")
        assert leased_id == unit_id and state.blob == b"blob" and not shutdown
        coord.complete(unit_id, b"result")
        finished = coord.wait(unit_id, timeout_s=1.0)
        assert finished.result_blob == b"result" and finished.done

    def test_empty_queue_and_drain(self):
        coord = self.make()
        assert coord.lease("w1") == (None, None, False)
        coord.drain()
        assert coord.lease("w1") == (None, None, True)

    def test_fail_requeues_until_max_attempts(self):
        coord = self.make()
        unit_id = coord.submit(b"blob")
        coord.lease("w1")
        coord.fail(unit_id, "boom 1")
        leased_id, state, _ = coord.lease("w1")  # requeued
        assert leased_id == unit_id and state.attempts == 2
        coord.fail(unit_id, "boom 2")
        finished = coord.wait(unit_id, timeout_s=1.0)
        assert finished.done and "boom 2" in finished.error

    def test_lease_expiry_requeues_at_queue_front(self):
        coord = self.make()
        dying = coord.submit(b"dying")
        behind = coord.submit(b"behind")
        leased_id, _, _ = coord.lease("doomed")
        assert leased_id == dying
        time.sleep(0.35)  # outlive the lease without heartbeating
        # The expired unit jumps the queue ahead of `behind`.
        leased_id, state, _ = coord.lease("healthy")
        assert leased_id == dying and state.attempts == 2
        leased_id, _, _ = coord.lease("healthy")
        assert leased_id == behind
        assert coord.telemetry.snapshot()["fleet_leases_expired"] == 1

    def test_heartbeat_extends_leases(self):
        coord = self.make()
        unit_id = coord.submit(b"blob")
        coord.lease("steady")
        for _ in range(3):
            time.sleep(0.15)
            assert coord.heartbeat("steady") == 1
        # Well past the original deadline, the lease is still alive.
        assert coord.lease("thief") == (None, None, False)
        coord.complete(unit_id, b"ok")
        assert coord.wait(unit_id, timeout_s=1.0).result_blob == b"ok"

    def test_late_complete_after_expiry_rerun_is_ignored(self):
        coord = self.make()
        unit_id = coord.submit(b"blob")
        coord.lease("slow")
        time.sleep(0.35)
        coord.lease("fast")  # expiry re-lease
        coord.complete(unit_id, b"fast-result")
        coord.complete(unit_id, b"slow-result")  # the zombie answers late
        assert coord.wait(unit_id, timeout_s=1.0).result_blob == b"fast-result"


# ---------------------------------------------------------------------------
# fleet executor end-to-end (in-process workers on threads)
# ---------------------------------------------------------------------------
def start_worker_thread(address, cache=None, **kwargs):
    kwargs.setdefault("poll_interval_s", 0.02)
    kwargs.setdefault("heartbeat_interval_s", 0.1)
    thread = threading.Thread(
        target=run_worker, args=(address,), kwargs={"cache": cache, **kwargs}, daemon=True
    )
    thread.start()
    return thread


class TestFleetExecutor:
    def test_fleet_matches_serial_and_preserves_order(self, scale):
        spec = ExperimentSpec("fleet-square", scale, tuple(
            WorkUnit.create("_fleet_square", value=value) for value in range(8)))
        serial = run(spec, executor=SerialExecutor())
        with FleetExecutor(FleetConfig(lease_timeout_s=5.0)) as executor:
            assert executor_label(executor) == f"fleet[{executor.address}]"
            workers = [start_worker_thread(executor.address) for _ in range(2)]
            fleet = run(spec, executor=executor)
        for worker in workers:
            worker.join(timeout=5.0)
        assert fleet == serial == [value * value for value in range(8)]

    def test_failing_unit_surfaces_unit_failed_error(self, scale):
        spec = ExperimentSpec("fleet-fail", scale, (
            WorkUnit.create("_fleet_echo", value=1),
            WorkUnit.create("_fleet_fail", value=2),
        ))
        with FleetExecutor(FleetConfig(lease_timeout_s=5.0, max_attempts=2)) as executor:
            start_worker_thread(executor.address)
            with pytest.raises(UnitFailedError, match="exploded"):
                run(spec, executor=executor)

    def test_workers_dedupe_against_shared_cache(self, scale, tmp_path):
        counter_dir = str(tmp_path / "executions")
        cache_dir = str(tmp_path / "shared-cache")
        spec = ExperimentSpec("fleet-dedupe", scale, tuple(
            WorkUnit.create("_fleet_touch_count", value=value, counter_dir=counter_dir)
            for value in range(4)))

        def fleet_run():
            # The *executor side* holds no cache — dedupe must happen on the
            # workers against the shared store.
            with FleetExecutor(FleetConfig(lease_timeout_s=5.0)) as executor:
                worker_cache = ResultCache(directory=cache_dir)
                worker = start_worker_thread(executor.address, cache=worker_cache)
                result = run(spec, executor=executor)
            worker.join(timeout=5.0)
            return result

        first = fleet_run()
        assert len(os.listdir(counter_dir)) == 4
        second = fleet_run()  # warm store: every unit answered from cache
        assert second == first
        assert len(os.listdir(counter_dir)) == 4

    def test_direct_map_of_plain_payloads(self):
        with FleetExecutor(FleetConfig()) as executor:
            start_worker_thread(executor.address)
            assert executor.map(_double, [1, 2, 3]) == [2, 4, 6]


def _double(value):
    return value * 2


# ---------------------------------------------------------------------------
# subprocess fleet: a worker dies mid-unit and the sweep still finishes
# ---------------------------------------------------------------------------
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def worker_env():
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    tests = os.path.join(REPO_ROOT, "tests")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, tests] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


class TestFleetSubprocess:
    def test_sweep_survives_worker_killed_mid_unit(self, scale, tmp_path):
        marker = str(tmp_path / "suicide-marker")
        spec = ExperimentSpec("fleet-survival", scale, (
            WorkUnit.create("_fleet_echo", value=0),
            WorkUnit.create("_fleet_suicide", value=99, marker=marker),
            WorkUnit.create("_fleet_echo", value=1),
            WorkUnit.create("_fleet_echo", value=2),
        ))
        workers = []
        try:
            with FleetExecutor(FleetConfig(lease_timeout_s=1.5)) as executor:
                workers = [
                    subprocess.Popen(
                        [sys.executable, "-m", "repro", "worker",
                         "--connect", executor.address,
                         "--provider", "fleet_provider",
                         "--poll-interval-s", "0.05", "--max-idle-s", "60"],
                        env=worker_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                    for _ in range(2)
                ]
                result = run(spec, executor=executor)
            # The executor is closed now: the survivor sees the drained
            # coordinator (or the dead socket) and exits on its own.
            for worker in workers:
                worker.wait(timeout=30)
        finally:
            for worker in workers:
                if worker.poll() is None:
                    worker.kill()
        assert result == [0, 99, 1, 2]
        assert os.path.exists(marker)  # one worker really did die mid-unit
        assert any(worker.returncode == 1 for worker in workers)
        counters = executor.telemetry.snapshot()
        assert counters["fleet_leases_expired"] >= 1
