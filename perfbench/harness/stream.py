"""Stream workload: an in-process ``repro.stream.StreamSession`` on a live feed.

* **closed loop** — hop blocks are pushed back to back as fast as the
  session takes them; gives ``throughput_per_s`` (emissions/s);
* **open loop** — samples arrive at a fixed rate (``open_rate`` hops/s);
  each hop's block is pushed once its last sample has arrived, and an
  emission's latency runs from that arrival to the emission.

An untimed run alternates :data:`ROUNDS` closed and open stretches on one
session; the throughput is the median of the closed stretches' rates and the
latencies pool every open stretch.

The gate runs before timing: a fresh incremental session and the
``engine="naive"`` oracle consume the same feed; the first window must agree
bit for bit (heatmap) and later hops to 1e-10.  After timing, sampled emissions of the
timed session are checked against the oracle on the same window.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .gen import Feed, Workload, export_model
from .layers import stream_layers
from .probes import BlockIndex, install
from .report import Op, Phase, finish, peak_rss_mb, trace_overhead
from .spans import SpanRecorder, breakdown, tree_to_ms

#: Set-ups per untraced run; ``setup_s`` is their median.  A set-up takes
#: ~80 ms and the first few still run slower, so take enough of them that
#: the median sits among the settled ones.
SETUPS = 11
#: Hops pushed after the first window while setting up (warm state).
WARM_HOPS = 4
#: Hops after the first window compared against the oracle in the gate.
GATE_HOPS = 12
#: Keep every n-th timed emission for the post-run check.
KEEP_EVERY = 25
#: Tolerance of steady-state hops against the oracle.
TOLERANCE = 1e-10
#: Closed/open stretch pairs of an untraced run.
ROUNDS = 10


def _config(workload: Workload, engine: str):
    from repro.stream import StreamConfig

    return StreamConfig(window=workload.length, hop=workload.hop, k=workload.k, seed=0,
                        engine=engine)


def _session(workload: Workload, model, engine: str, state_hash: Optional[str] = None):
    from repro.stream import StreamSession

    return StreamSession(model, _config(workload, engine), state_hash=state_hash)


def _compare(result, oracle, exact: bool) -> Optional[str]:
    """Why an emission differs from the oracle's (``None``: it agrees).

    Logits always agree to :data:`TOLERANCE` (the oracle's batch-1 head and
    the session's k-row head are different BLAS calls); with ``exact`` (a
    cold start) the heatmap must also be bitwise equal.
    """
    if result.predicted != oracle.predicted or result.class_id != oracle.class_id:
        return "class differs"
    if result.success_ratio != oracle.success_ratio:
        return "success ratio differs"
    for name in ("logits", "heatmap"):
        got, want = getattr(result, name), getattr(oracle, name)
        if got.shape != want.shape:
            return f"{name} shape differs"
        if float(np.max(np.abs(got - want))) > TOLERANCE:
            return f"{name} differs by more than {TOLERANCE:g}"
    if exact and result.heatmap.tobytes() != oracle.heatmap.tobytes():
        return "heatmap not bitwise equal on a cold start"
    return None


def _gate(workload: Workload, model, seed: int) -> Tuple[Phase, List[str]]:
    """Incremental vs naive on the gate feed, emission by emission."""
    feed = Feed(workload, seed, "gate")
    incremental = _session(workload, model, "incremental")
    naive = _session(workload, model, "naive")
    phase = Phase("gate", "closed", started=time.perf_counter())
    problems: List[str] = []
    blocks = [feed.first_window()] + [feed.next() for _ in range(GATE_HOPS)]
    for block in blocks:
        for result, oracle in zip(incremental.push(block), naive.push(block)):
            reason = _compare(result, oracle, exact=result.index == 0)
            now = time.perf_counter()
            phase.ops.append(Op(result.index, now, now, now, ok=reason is None,
                                error=reason or ""))
            if reason is not None:
                problems.append(f"gate emission {result.index}: {reason}")
    phase.ended = time.perf_counter()
    return phase, problems


def _push(phase: Phase, session, block: np.ndarray, due: Optional[float]) -> None:
    sent = time.perf_counter()
    results = session.push(block)
    done = time.perf_counter()
    for result in results:
        keep = result if result.index % KEEP_EVERY == 0 else None
        phase.ops.append(Op(result.index, sent if due is None else due, sent, done,
                            ok=True, payload=keep))


def closed_loop(phase: Phase, session, feed: Feed, seconds: float) -> Phase:
    """One stretch of hops pushed back to back, added to ``phase``."""
    started = time.perf_counter()
    if not phase.stretches:
        phase.started = started
    while time.perf_counter() < started + seconds:
        _push(phase, session, feed.next(), None)
    phase.ended = time.perf_counter()
    phase.stretches.append((started, phase.ended))
    return phase


def open_loop(phase: Phase, session, feed: Feed, seconds: float) -> Phase:
    """One stretch at ``phase.rate`` hops/s, added to ``phase``.

    Hop ``j`` of the stretch has its last sample arrive at
    ``start + (j + 1) / rate``.  The generator spins until each arrival
    instead of sleeping: a sleeping thread's wake-up on a shared host ran up
    to 20 ms late, and that delay landed in the latency tail as generator
    noise, not session time.
    """
    rate = phase.rate
    count = max(1, int(round(rate * seconds)))
    start = time.perf_counter() + 0.01
    for index in range(count):
        block = feed.next()
        due = start + (index + 1) / rate
        while time.perf_counter() < due:
            pass
        phase.generator_late.append(max(0.0, time.perf_counter() - due))
        _push(phase, session, block, due)
    if not phase.stretches:
        phase.started = start
    phase.ended = time.perf_counter()
    phase.stretches.append((start, phase.ended))
    return phase


def _phases(rate: float, *names: str) -> List[Phase]:
    """Empty phases: ``closed`` ones, then an ``open`` one at ``rate``."""
    now = time.perf_counter()
    phases = [Phase(name, "closed", started=now) for name in names]
    return phases + [Phase("open", "open", started=now, rate=rate)]


def _setup(workload: Workload, seed: int, store_dir: str) -> Tuple[Any, Any, Feed, float]:
    """Export, load and warm one session; returns it with its set-up time."""
    started = time.perf_counter()
    store = export_model(workload, store_dir)
    model = store.load(workload.model_name)
    session = _session(workload, model, "incremental",
                       state_hash=store.artifact(workload.model_name).state_hash)
    feed = Feed(workload, seed, "main")
    session.push(feed.first_window())
    for _ in range(WARM_HOPS):
        session.push(feed.next())
    return model, session, feed, time.perf_counter() - started


def _verify(workload: Workload, model, feed: Feed, phases: List[Phase],
            limit: Optional[int]) -> Tuple[int, List[str]]:
    kept = [op for phase in phases for op in phase.ops if op.payload is not None]
    if limit is not None and len(kept) > limit:
        step = len(kept) / limit
        kept = [kept[int(position * step)] for position in range(limit)]
    problems = []
    for op in kept:
        result = op.payload
        oracle = _session(workload, model, "naive").push(feed.window(result.t_end))[0]
        reason = _compare(result, oracle, exact=False)
        if reason is not None:
            op.ok = False
            op.error = reason
            problems.append(f"emission {result.index}: {reason}")
    return len(kept), problems


def run(workload: Workload, seed: int, seconds: float, trace: bool, root: str,
        workdir: str, spans_path: str, clients: int) -> Dict[str, Any]:
    """One run of the stream workload; returns the record."""
    record: Dict[str, Any] = {"phases": {}}
    setup_times: List[float] = []
    for attempt in range(1 if trace else SETUPS):
        model, session, feed, elapsed = _setup(
            workload, seed, os.path.join(workdir, f"setup{attempt}", "models")
        )
        setup_times.append(elapsed)
    gate, problems = _gate(workload, model, seed)

    if not trace:
        # Closed and open stretches alternate, so both metrics sample the
        # whole run and not one end of it while the host's speed drifts.
        closed, opened = _phases(workload.open_rate, "closed")
        for _ in range(ROUNDS):
            closed_loop(closed, session, feed, seconds / 3 / ROUNDS)
            open_loop(opened, session, feed, seconds * 2 / 3 / ROUNDS)
    else:
        plain, closed, opened = _phases(workload.open_rate, "closed_plain", "closed")
        closed_loop(plain, session, feed, seconds / 4)
        recorder = SpanRecorder(label="h")
        blocks = BlockIndex()
        blocks.register(model)
        install(recorder, blocks)
        cold_before = session.stats["cold_starts"]
        traced_from = time.perf_counter()
        closed_loop(closed, session, feed, seconds / 4)
        open_loop(opened, session, feed, seconds / 2)
        traced_to = time.perf_counter()
        cold_starts = session.stats["cold_starts"] - cold_before
        record["phases"]["closed_plain"] = plain.summary()
    rss = peak_rss_mb()
    record["peak_rss_of"] = ("this benchmark process: the in-process session plus the gate's "
                             "naive oracle, the set-ups and the client's buffers")

    checked, found = _verify(workload, model, feed, [closed, opened], workload.verify_limit)
    finish(record, setup_times, gate, closed, opened, rss, checked + len(gate.ops), problems + found)
    if trace:
        recorder.write(spans_path)
        tree = breakdown(recorder.spans, traced_from, traced_to)
        overhead = trace_overhead(plain, closed)
        emissions = len(closed.ops) + len(opened.ops)
        record["per_layer"] = stream_layers(tree, emissions, cold_starts, overhead["overhead"])
        record["layer_tree_ms"] = tree_to_ms(tree)
        record["trace_overhead_detail"] = overhead
    return record
