"""Serve workloads: drive a live ``python -m repro serve`` process over HTTP.

Load comes from this one process over at most ``nproc`` keep-alive
connections, one client thread each:

* **closed loop** — each client sends its next request as soon as the
  previous one returns; gives ``throughput_per_s``;
* **open loop** — requests are due on a fixed schedule (the workload's
  ``open_rate``) whatever the server does, and each is timed from when it
  was due; gives ``latency_p50_ms`` and ``latency_tail_ms``.

Before timing, a gate phase checks served responses byte for byte against
the in-process reference (``repro.serve.engine.per_request_explain`` and
``serve_logits`` on the same stored artifact); after timing, a sample of the
timed responses (every one for ``serve-hot``) gets the same check.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import os
import queue
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .gen import ServeOp, ServeOps, Workload, export_model
from .layers import serve_layers
from .report import Op, Phase, finish, peak_rss_mb, trace_overhead
from .spans import breakdown, read_spans, tree_to_ms

#: Setups per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: Requests of the correctness gate that runs before timing.
GATE_OPS = 6
#: Seconds allowed for a server to announce its port.
START_TIMEOUT_S = 60.0
_LISTENING = re.compile(rb"listening on http://([0-9.]+):([0-9]+)")


class ServerProcess:
    """One ``repro serve`` child process (optionally with span probes)."""

    def __init__(self, root: str, store_dir: str, traced: bool, spans_path: str) -> None:
        self.root = root
        self.store_dir = store_dir
        self.traced = traced
        self.spans_path = spans_path
        self.process: Optional[subprocess.Popen] = None
        self.address: Optional[Tuple[str, int]] = None
        self.log: List[bytes] = []
        self._ready = threading.Event()
        self._reader: Optional[threading.Thread] = None

    def start(self) -> "ServerProcess":
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        serve_args = ["serve", "--store", self.store_dir, "--host", "127.0.0.1", "--port", "0"]
        if self.traced:
            entry = os.path.join(self.root, "perfbench", "server_main.py")
            command = [sys.executable, entry, "--spans-out", self.spans_path, *serve_args]
        else:
            command = [sys.executable, "-m", "repro", *serve_args]
        self.process = subprocess.Popen(
            command, cwd=self.root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        self._reader = threading.Thread(target=self._read_log, daemon=True)
        self._reader.start()
        if not self._ready.wait(START_TIMEOUT_S) or self.address is None:
            self.stop()
            raise RuntimeError("server did not start:\n" + b"".join(self.log).decode(errors="replace"))
        return self

    def _read_log(self) -> None:
        for line in self.process.stderr:
            self.log.append(line)
            match = _LISTENING.search(line)
            if match and self.address is None:
                self.address = (match.group(1).decode(), int(match.group(2)))
                self._ready.set()
        self._ready.set()  # the process ended (the caller checks address)

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        """SIGINT (graceful drain, spans written), then wait for exit."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        if self._reader is not None:
            self._reader.join(timeout=10)
        self.process.stderr.close()
        self.process = None


class Connection:
    """One keep-alive HTTP/1.1 client connection."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self.address = address
        self._connection = self._dial()

    def _dial(self) -> http.client.HTTPConnection:
        connection = http.client.HTTPConnection(*self.address, timeout=120)
        connection.connect()
        connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return connection

    def send(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes, str]:
        """``(status, body, error)``; status 0 on a transport error."""
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            self._connection.request(method, path, body=body, headers=headers)
            response = self._connection.getresponse()
            return response.status, response.read(), ""
        except (http.client.HTTPException, OSError) as error:
            self._connection.close()
            try:
                self._connection = self._dial()
            except OSError:
                pass
            return 0, b"", type(error).__name__

    def json(self, path: str) -> Dict[str, Any]:
        status, data, error = self.send("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} failed: {status} {error}")
        return json.loads(data)

    def close(self) -> None:
        self._connection.close()


def _send_op(connection: Connection, index: int, op: ServeOp, due: Optional[float]) -> Op:
    sent = time.perf_counter()
    status, data, error = connection.send("POST", op.path, op.body)
    done = time.perf_counter()
    return Op(
        index=index, due=sent if due is None else due, sent=sent, done=done,
        ok=status == 200, status=status, request_bytes=len(op.body),
        response_bytes=len(data), payload=(op, data), error=error,
    )


def closed_loop(name: str, ops: ServeOps, connections: List[Connection], seconds: float,
                count: Optional[int] = None) -> Phase:
    """Each connection re-sends as soon as its previous request returns.

    Runs for ``seconds``, or until ``count`` requests were sent if given.
    """
    counter = itertools.count()
    phase = Phase(name, "closed", started=time.perf_counter(), clients=len(connections))
    deadline = phase.started + seconds
    results: List[List[Op]] = [[] for _ in connections]

    def client(slot: int) -> None:
        while time.perf_counter() < deadline:
            index = next(counter)
            if count is not None and index >= count:
                return
            results[slot].append(_send_op(connections[slot], index, ops.op(name, index), None))

    _run_threads(client, len(connections))
    phase.ops = sorted((op for ops_ in results for op in ops_), key=lambda op: op.index)
    phase.ended = max((op.done for op in phase.ops), default=time.perf_counter())
    return phase


def open_loop(name: str, ops: ServeOps, connections: List[Connection], rate: float,
              seconds: float) -> Phase:
    """Requests due every ``1/rate`` s; latency runs from when each was due."""
    count = max(1, int(round(rate * seconds)))
    prepared = [ops.op(name, index) for index in range(count)]
    pending: "queue.Queue[Optional[Tuple[int, float]]]" = queue.Queue()
    results: List[List[Op]] = [[] for _ in connections]
    phase = Phase(name, "open", started=time.perf_counter(), rate=rate, clients=len(connections))

    def client(slot: int) -> None:
        while True:
            item = pending.get()
            if item is None:
                return
            index, due = item
            results[slot].append(_send_op(connections[slot], index, prepared[index], due))

    threads = [threading.Thread(target=client, args=(slot,)) for slot in range(len(connections))]
    for thread in threads:
        thread.start()
    start = time.perf_counter() + 0.01
    try:
        for index in range(count):
            due = start + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            phase.generator_late.append(max(0.0, time.perf_counter() - due))
            pending.put((index, due))
    finally:
        for _ in threads:
            pending.put(None)
        for thread in threads:
            thread.join()
    phase.started = start
    phase.ops = sorted((op for ops_ in results for op in ops_), key=lambda op: op.index)
    phase.ended = max((op.done for op in phase.ops), default=time.perf_counter())
    return phase


def _run_threads(target, count: int) -> None:
    """Run ``target(slot)`` on ``count`` threads; re-raise the first error."""
    errors: List[BaseException] = []

    def guarded(slot: int) -> None:
        try:
            target(slot)
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(slot,)) for slot in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class Reference:
    """In-process reference answers from the same stored artifact."""

    def __init__(self, workload: Workload, ops: ServeOps, store_dir: str) -> None:
        from repro.serve.service import ServeConfig
        from repro.serve.store import ModelArtifactStore

        self.ops = ops
        self.model = ModelArtifactStore(store_dir).load(workload.model_name)
        # The server explains with its default ServeConfig batch size.
        self.batch_size = ServeConfig().engine_batch_size
        self._logits: Dict[Tuple[int, ...], np.ndarray] = {}
        self._explains: Dict[Tuple[Any, ...], Any] = {}

    def logits(self, instance_id: Tuple[int, ...]) -> np.ndarray:
        from repro.serve.engine import serve_logits

        if instance_id not in self._logits:
            instance = self.ops.instance(instance_id)
            self._logits[instance_id] = serve_logits(self.model, instance[None])[0]
        return self._logits[instance_id]

    def explain(self, instance_id, class_id: int, k: int, seed: int):
        from repro.serve.engine import per_request_explain

        key = (instance_id, class_id, k, seed)
        if key not in self._explains:
            self._explains[key] = per_request_explain(
                self.model, "dcam", self.ops.instance(instance_id), class_id, k, seed,
                batch_size=self.batch_size,
            )
        return self._explains[key]

    def mismatch(self, op: ServeOp, data: bytes) -> Optional[str]:
        """Why a served response differs from the reference (``None``: same bytes)."""
        try:
            response = json.loads(data)
        except ValueError:
            return "response is not JSON"
        logits = self.logits(op.instance_id)
        if op.path == "/classify":
            served = np.asarray(response.get("logits"), dtype=np.float64)
            if served.shape != logits.shape or served.tobytes() != logits.tobytes():
                return "classify logits differ"
            if response.get("predicted") != int(logits.argmax()):
                return "classify prediction differs"
            return None
        class_id = int(logits.argmax()) if op.class_id is None else op.class_id
        if response.get("class_id") != class_id:
            return "explained class differs"
        reference = self.explain(op.instance_id, class_id, op.k, op.seed)
        served = np.asarray(response.get("heatmap"), dtype=np.float64)
        if served.shape != reference.heatmap.shape or served.tobytes() != reference.heatmap.tobytes():
            return "explain heatmap differs"
        if response.get("success_ratio") != reference.success_ratio:
            return "explain success ratio differs"
        return None


def _verify(reference: Reference, phase_ops: List[Op], limit: Optional[int]) -> Tuple[int, List[str]]:
    """Check ``limit`` evenly spaced successful ops (all when ``None``)."""
    good = [op for op in phase_ops if op.ok]
    if limit is not None and len(good) > limit:
        step = len(good) / limit
        good = [good[int(position * step)] for position in range(limit)]
    problems = []
    for op in good:
        reason = reference.mismatch(*op.payload)
        if reason is not None:
            op.ok = False
            op.error = reason
            problems.append(f"op {op.index}: {reason}")
    return len(good), problems


class _Servers:
    """Starts servers for one run and guarantees they are all stopped."""

    def __init__(self, workload: Workload, ops: ServeOps, root: str, workdir: str) -> None:
        self.workload = workload
        self.ops = ops
        self.root = root
        self.workdir = workdir
        self.running: List[ServerProcess] = []

    def setup(self, label: str, traced: bool, spans_path: str = "") -> Tuple[ServerProcess, float]:
        """Export, start and warm one server; returns it with its set-up time."""
        started = time.perf_counter()
        store_dir = os.path.join(self.workdir, label, "models")
        export_model(self.workload, store_dir)
        server = ServerProcess(self.root, store_dir, traced, spans_path)
        self.running.append(server)
        server.start()
        connections = [Connection(server.address) for _ in range(2)]
        try:
            if connections[0].json("/healthz").get("status") != "ok":
                raise RuntimeError("server is not healthy")
            # Sequential requests pay the lazy first-flush parity probe per
            # kind; concurrent explains fill the coalesced-width einsum paths.
            for index in (0, 1):
                self._expect_ok(connections[0], self.ops.op("warmup", index))
            concurrent = [self.ops.op("warmup", index) for index in (2, 4)]
            _run_threads(lambda slot: self._expect_ok(connections[slot], concurrent[slot]), 2)
        finally:
            for connection in connections:
                connection.close()
        return server, time.perf_counter() - started

    @staticmethod
    def _expect_ok(connection: Connection, op: ServeOp) -> None:
        status, _, error = connection.send("POST", op.path, op.body)
        if status != 200:
            raise RuntimeError(f"warm-up {op.path} failed: {status} {error}")

    def stop(self, server: ServerProcess) -> None:
        server.stop()
        self.running.remove(server)

    def stop_all(self) -> None:
        for server in list(self.running):
            self.stop(server)


def _prefill(ops: ServeOps, connections: List[Connection]) -> Optional[Phase]:
    """Bring the caches to steady state before timing (untimed)."""
    if not ops.workload.prefill_ops:
        return None
    return closed_loop("prefill", ops, connections, math.inf, count=ops.workload.prefill_ops)


def _gate(ops: ServeOps, connection: Connection) -> Phase:
    phase = Phase("gate", "closed", started=time.perf_counter())
    phase.ops = [_send_op(connection, index, ops.op("gate", index), None) for index in range(GATE_OPS)]
    phase.ended = time.perf_counter()
    return phase


def run(workload: Workload, seed: int, seconds: float, trace: bool, root: str,
        workdir: str, spans_path: str, clients: int) -> Dict[str, Any]:
    """One run of a serve workload; returns the record."""
    ops = ServeOps(workload, seed)
    servers = _Servers(workload, ops, root, workdir)
    record: Dict[str, Any] = {"phases": {}, "peak_rss_of": "the server process"}
    setup_times: List[float] = []
    try:
        if not trace:
            for attempt in range(SETUPS):
                server, elapsed = servers.setup(f"setup{attempt}", traced=False)
                setup_times.append(elapsed)
                if attempt < SETUPS - 1:
                    servers.stop(server)
            connections = [Connection(server.address) for _ in range(clients)]
            gate = _gate(ops, connections[0])
            warm = [_prefill(ops, connections)]
            closed = closed_loop("closed", ops, connections, seconds / 3)
            opened = open_loop("open", ops, connections, workload.open_rate, seconds * 2 / 3)
            rss = peak_rss_mb(server.pid)
            for connection in connections:
                connection.close()
            store_dir = server.store_dir
            servers.stop(server)
        else:
            server, elapsed = servers.setup("plain", traced=False)
            setup_times.append(elapsed)
            connections = [Connection(server.address) for _ in range(clients)]
            gate = _gate(ops, connections[0])
            warm = [_prefill(ops, connections)]
            plain = closed_loop("closed_plain", ops, connections, seconds / 4)
            for connection in connections:
                connection.close()
            servers.stop(server)
            server, _ = servers.setup("traced", traced=True, spans_path=spans_path)
            connections = [Connection(server.address) for _ in range(clients)]
            warm.append(_prefill(ops, connections))
            before = connections[0].json("/metrics")
            traced_from = time.perf_counter()
            closed = closed_loop("closed", ops, connections, seconds / 4)
            opened = open_loop("open", ops, connections, workload.open_rate, seconds / 2)
            traced_to = time.perf_counter()
            after = connections[0].json("/metrics")
            rss = peak_rss_mb(server.pid)
            for connection in connections:
                connection.close()
            store_dir = server.store_dir
            servers.stop(server)
            record["phases"]["closed_plain"] = plain.summary()
    finally:
        servers.stop_all()

    reference = Reference(workload, ops, store_dir)
    checked, problems = _verify(reference, gate.ops, None)
    for phase in [closed, opened] + ([plain] if trace else []):
        count, found = _verify(reference, phase.ops, workload.verify_limit)
        checked += count
        problems += found
    for position, phase in enumerate(phase for phase in warm if phase is not None):
        record["phases"][f"prefill{position}"] = phase.summary()
    finish(record, setup_times, gate, closed, opened, rss, checked, problems)
    if trace:
        tree = breakdown(read_spans(spans_path), traced_from, traced_to)
        overhead = trace_overhead(plain, closed)
        record["per_layer"] = serve_layers(tree, before, after, closed.ops + opened.ops,
                                           overhead["overhead"])
        record["layer_tree_ms"] = tree_to_ms(tree)
        record["trace_overhead_detail"] = overhead
    return record
