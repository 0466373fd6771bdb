"""Latency statistics, phase accounting, environment and the result line."""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Samples a tail percentile must have beyond it.
TAIL_BEYOND = 10
#: Windows a closed-loop phase is cut into; its rate is the window median.
WINDOWS = 5
#: Fewest successes per closed-loop window (one window below).
MIN_WINDOW_SAMPLES = 40

#: End-to-end metrics of the result line (``BENCHMARK.json``), and units.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
#: Printed and recorded too, but 0 on a healthy run, so not on the result
#: line (whose ``failed`` / ``attempted`` carry it).
ERROR_RATE_UNIT = "ratio"


@dataclass
class Op:
    """One operation of a phase: a request, or a stream emission."""

    index: int
    due: float  # when it was due (open loop) or sent (closed loop)
    sent: float
    done: float
    ok: bool
    status: int = 200
    request_bytes: int = 0
    response_bytes: int = 0
    payload: Any = None  # what the correctness check needs
    error: str = ""

    @property
    def latency_s(self) -> float:
        """Seconds from due to done; a failed op misses every limit."""
        return self.done - self.due if self.ok else math.inf


@dataclass
class Phase:
    """Accounting of one load phase."""

    name: str
    loop: str  # "closed" or "open"
    started: float
    ended: float = 0.0
    ops: List[Op] = field(default_factory=list)
    rate: Optional[float] = None
    clients: int = 1
    #: Per-op ``dispatch - due`` of the open-loop generator (seconds).
    generator_late: List[float] = field(default_factory=list)
    #: ``(start, end)`` of each stretch when the phase runs in several
    #: stretches interleaved with another phase's (else empty).
    stretches: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        if self.stretches:
            return sum(end - start for start, end in self.stretches)
        return self.ended - self.started

    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)

    def summary(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "loop": self.loop,
            "clients": self.clients,
            "seconds": self.elapsed,
            "sent": len(self.ops),
            "succeeded": len(self.ops) - self.failed(),
            "failed": self.failed(),
        }
        if len(self.stretches) > 1:
            payload["stretches"] = len(self.stretches)
        if self.rate is not None:
            payload["rate_per_s"] = self.rate
        elif self.ops:
            payload["window_rates_per_s"] = window_rates(self)
        if self.generator_late:
            late = sorted(self.generator_late)
            payload["generator_late_ms"] = {
                "p50": statistics.median(late) * 1e3,
                "max": late[-1] * 1e3,
                "mean": statistics.fmean(late) * 1e3,
            }
        statuses: Dict[str, int] = {}
        for op in self.ops:
            if not op.ok:
                key = op.error or str(op.status)
                statuses[key] = statuses.get(key, 0) + 1
        if statuses:
            payload["failures"] = statuses
        return payload


def tail_percentile(latencies: List[float]) -> Dict[str, Any]:
    """The highest percentile with at least :data:`TAIL_BEYOND` samples above it.

    Of ``N`` sorted samples the value at 0-based rank ``N - TAIL_BEYOND - 1``
    has exactly ``TAIL_BEYOND`` samples beyond it; its percentile is
    ``100 * (rank + 1) / N``.  No interpolation.  With too few samples (a
    very short run) it is the maximum, and ``beyond`` says so.
    """
    ordered = sorted(latencies)
    count = len(ordered)
    if not count:
        raise ValueError("a tail percentile needs at least one sample")
    rank = max(0, count - TAIL_BEYOND - 1) if count > TAIL_BEYOND else count - 1
    return {
        "value": ordered[rank],
        "percentile": 100.0 * (rank + 1) / count,
        "samples": count,
        "beyond": count - rank - 1,
    }


def open_loop_latency(phase: Phase) -> Dict[str, Any]:
    """Median and tail of an open-loop phase, in milliseconds.

    Both are over every operation of the phase; the tail is the phase's
    :func:`tail_percentile`, and the record states its percentile and the
    samples beyond it.
    """
    latencies = [op.latency_s for op in phase.ops]
    tail = tail_percentile(latencies)
    return {
        "p50_ms": statistics.median(latencies) * 1e3,
        "tail_ms": tail["value"] * 1e3,
        "tail_percentile": tail["percentile"],
        "samples": tail["samples"],
        "beyond": tail["beyond"],
    }


def window_rates(phase: Phase) -> List[float]:
    """Successes per second in up to :data:`WINDOWS` equal time windows.

    Fewer windows (down to one) when a window would hold under
    :data:`MIN_WINDOW_SAMPLES` successes, so counts are never coarse.  A
    phase run in several stretches has one window per stretch.
    """
    successes = [op for op in phase.ops if op.ok]
    if len(phase.stretches) > 1:
        return [sum(1 for op in successes if start <= op.done <= end) / (end - start)
                for start, end in phase.stretches]
    windows = max(1, min(WINDOWS, len(successes) // MIN_WINDOW_SAMPLES))
    width = phase.elapsed / windows
    counts = [0] * windows
    for op in successes:
        counts[min(windows - 1, int((op.done - phase.started) / width))] += 1
    return [count / width for count in counts]


def closed_loop_throughput(phase: Phase) -> float:
    """Successful operations per second of a closed-loop phase.

    The median of the phase's :func:`window_rates`.
    """
    return statistics.median(window_rates(phase))


def finish(record: Dict[str, Any], setup_times: List[float], gate: Phase, closed: Phase,
           opened: Phase, rss_mb: float, checked: int, problems: List[str]) -> None:
    """Fill in phase accounting, correctness and the end-to-end metrics.

    Call after the correctness check, which marks mismatched operations as
    failed: they then count as errors and as missing every latency limit.
    """
    timed = [closed, opened]
    record["phases"].update({phase.name: phase.summary() for phase in [gate] + timed})
    latency = open_loop_latency(opened)
    attempted = sum(len(phase.ops) for phase in timed)
    failed = sum(phase.failed() for phase in timed)
    record.update(
        setup_times_s=setup_times,
        latency=latency,
        correctness={"checked": checked, "mismatches": problems, "gate_failed": gate.failed()},
        correct=not problems and gate.failed() == 0,
        attempted=attempted,
        failed=failed,
        end_to_end={
            "setup_s": statistics.median(setup_times),
            "throughput_per_s": closed_loop_throughput(closed),
            "latency_p50_ms": latency["p50_ms"],
            "latency_tail_ms": latency["tail_ms"],
            "error_rate": failed / attempted,
            "peak_rss_mb": rss_mb,
        },
    )


def trace_overhead(plain: Phase, traced: Phase) -> Dict[str, float]:
    """Closed-loop throughput untraced over traced, minus 1."""
    plain_rate, traced_rate = closed_loop_throughput(plain), closed_loop_throughput(traced)
    return {
        "overhead": plain_rate / traced_rate - 1.0,
        "plain_throughput_per_s": plain_rate,
        "traced_throughput_per_s": traced_rate,
    }


def environment() -> Dict[str, Any]:
    """Host facts that explain a number: CPUs, BLAS and its threads, versions."""
    import numpy as np

    blas: Dict[str, Any] = {}
    try:
        config = np.show_config(mode="dicts")
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, ValueError, AttributeError):
        blas = {"name": "unknown"}
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    blas["threads"] = {name: os.environ.get(name, "unset") for name in thread_vars}
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of ``pid`` (default: this process)."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path, "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def print_result(workload: str, record: Dict[str, Any], metric_units: Dict[str, str]) -> None:
    """Human-readable metric lines, then the one-line JSON result (last line)."""
    for name, value in record["end_to_end"].items():
        print(f"{workload:14s} {name:24s} {value:14.6g} {END_TO_END.get(name, ERROR_RATE_UNIT)}")
    for name, value in record.get("per_layer", {}).items():
        print(f"{workload:14s} {name:24s} {value:14.6g} {metric_units.get(name, '')}")
    source = record["per_layer"] if record["trace"] else record["end_to_end"]
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": source[name], "unit": unit} for name, unit in metric_units.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(result))
