"""Per-layer metrics of a traced run, from spans and ``/metrics`` deltas.

Every per-request figure is divided by the successful operations of the
traced phases (requests for the serve workloads, emissions for the stream
workload).  Every workload reports every key; a layer a workload never
enters reports 0.
"""

from __future__ import annotations

from typing import Any, Dict, List

from .report import Op
from .spans import find

#: Conv blocks reported individually (the ``small`` preset has three).
CONV_BLOCKS = 3

#: Every per-layer metric and its unit, in report order.
PER_LAYER: Dict[str, str] = {
    "http.edge_ms": "ms",
    "http.request_bytes": "B",
    "http.response_bytes": "B",
    "service.response_hit_ratio": "ratio",
    "service.shed": "count",
    "batcher.queue_wait_ms": "ms",
    "batcher.flush_width": "count",
    "batcher.flush_ms": "ms",
    "cache.get_ms.memory": "ms",
    "cache.get_ms.miss": "ms",
    "cache.perm_hit_ratio": "ratio",
    "cache.puts_per_request": "count",
    "cache.put_ms": "ms",
    "cache.evictions_per_request": "count",
    "engine.busy_ms": "ms",
    "dcam.cube_ms": "ms",
    "dcam.trunk_ms": "ms",
    "dcam.head_ms": "ms",
    "dcam.cam_ms": "ms",
    "dcam.merge_ms": "ms",
    "dcam.extract_ms": "ms",
    "dcam.residual_ms": "ms",
    "dcam.forwards": "count",
    **{f"nn.conv_ms.block{index}": "ms" for index in range(CONV_BLOCKS)},
    "nn.conv_calls": "count",
    "nn.conv_gflop": "GFLOP",
    "nn.conv_bytes": "B",
    "nn.conv_gflops_achieved": "GFLOP/s",
    "stream.push_ms": "ms",
    "stream.trunk_ms": "ms",
    "stream.roll_ms": "ms",
    "stream.cam_delta_ms": "ms",
    "stream.dirty_cols": "count",
    "stream.cold_starts": "count",
    "obs.trace_overhead": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _conv(tree: Dict[str, Any], per: float) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    calls = flop = moved = seconds = 0.0
    for index in range(CONV_BLOCKS):
        block = find(tree, f"nn.conv.block{index}")
        metrics[f"nn.conv_ms.block{index}"] = _ratio(block["total_s"] * 1e3, per)
    for name in _conv_names(tree):
        block = find(tree, name)
        calls += block["calls"]
        flop += block["attrs"].get("flop", 0.0)
        moved += block["attrs"].get("bytes", 0.0)
        seconds += block["total_s"]
    metrics["nn.conv_calls"] = _ratio(calls, per)
    metrics["nn.conv_gflop"] = _ratio(flop / 1e9, per)
    metrics["nn.conv_bytes"] = _ratio(moved, per)
    metrics["nn.conv_gflops_achieved"] = _ratio(flop / 1e9, seconds)
    return metrics


def _conv_names(tree: Dict[str, Any]) -> List[str]:
    names = set()

    def visit(node: Dict[str, Any]) -> None:
        for name, kid in node["children"].items():
            if name.startswith("nn.conv.block"):
                names.add(name)
            visit(kid)

    visit(tree)
    return sorted(names)


def _dcam(tree: Dict[str, Any], per: float) -> Dict[str, float]:
    def ms(name: str, parent: str = None, key: str = "total_s") -> float:
        return _ratio(find(tree, name, parent)[key] * 1e3, per)

    forward = find(tree, "dcam.forward")
    return {
        "dcam.cube_ms": ms("model.cube", "dcam.forward"),
        "dcam.trunk_ms": ms("model.trunk", "dcam.forward"),
        "dcam.head_ms": ms("model.head", "dcam.forward"),
        # The CAM contraction is inline in the forward loop: it is the
        # forward's own time once cube, trunk and head are subtracted.
        "dcam.cam_ms": ms("dcam.forward", key="self_s"),
        "dcam.merge_ms": ms("dcam.merge"),
        "dcam.extract_ms": ms("dcam.extract"),
        "dcam.residual_ms": ms("dcam.explain", key="self_s"),
        "dcam.forwards": _ratio(forward["attrs"].get("cubes", 0.0), per),
    }


def _delta(before: Dict[str, Any], after: Dict[str, Any], *names: str) -> float:
    return sum(float(after.get(name, 0)) - float(before.get(name, 0)) for name in names)


def serve_layers(tree: Dict[str, Any], before: Dict[str, Any], after: Dict[str, Any],
                 ops: List[Op], overhead: float) -> Dict[str, float]:
    """Per-layer metrics of a traced serve run.

    ``before``/``after`` are ``/metrics`` snapshots bracketing the traced
    phases, ``ops`` their client-side operations.
    """
    good = [op for op in ops if op.ok]
    per = float(len(good))
    kinds = ("classify", "explain")

    def timer_mean_ms(*names: str) -> float:
        seconds = _delta(before, after, *(f"{name}_seconds" for name in names))
        count = _delta(before, after, *(f"{name}_count" for name in names))
        return _ratio(seconds * 1e3, count)

    client_ms = _ratio(sum(op.done - op.sent for op in good) * 1e3, per)
    response_gets = find(tree, "cache.get.response")
    perm_gets = find(tree, "cache.get.perm")
    puts = [find(tree, "cache.put.perm"), find(tree, "cache.put.response")]
    put_calls = sum(put["calls"] for put in puts)
    flushes = _delta(before, after, "batches_flushed")
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update({
        "http.edge_ms": client_ms - timer_mean_ms(*(f"http_{kind}" for kind in kinds)),
        "http.request_bytes": _ratio(sum(op.request_bytes for op in good), per),
        "http.response_bytes": _ratio(sum(op.response_bytes for op in good), per),
        "service.response_hit_ratio": _ratio(
            response_gets["attrs"].get("hit", 0.0), response_gets["calls"]
        ),
        "service.shed": _delta(before, after, "requests_shed"),
        "batcher.queue_wait_ms": timer_mean_ms(*(f"queue_wait_{kind}" for kind in kinds)),
        "batcher.flush_width": _ratio(_delta(before, after, "batched_requests"), flushes),
        "batcher.flush_ms": _ratio(
            _delta(before, after, *(f"flush_{kind}_seconds" for kind in kinds)) * 1e3, flushes
        ),
        "cache.get_ms.memory": timer_mean_ms("cache_get[memory]"),
        "cache.get_ms.miss": timer_mean_ms("cache_get[miss]"),
        "cache.perm_hit_ratio": _ratio(perm_gets["attrs"].get("hit", 0.0), perm_gets["calls"]),
        "cache.puts_per_request": _ratio(_delta(before, after, "cache_stores"), per),
        "cache.put_ms": _ratio(sum(put["total_s"] for put in puts) * 1e3, put_calls),
        "cache.evictions_per_request": _ratio(_delta(before, after, "cache_evictions"), per),
        "engine.busy_ms": _ratio(_delta(before, after, "engine_seconds") * 1e3, per),
        "obs.trace_overhead": overhead,
    })
    metrics.update(_dcam(tree, per))
    metrics.update(_conv(tree, per))
    return metrics


def stream_layers(tree: Dict[str, Any], emissions: int, cold_starts: int,
                  overhead: float) -> Dict[str, float]:
    """Per-layer metrics of a traced stream run (``emissions`` per-op base)."""
    per = float(emissions)
    push = find(tree, "stream.push")
    trunk = find(tree, "stream.trunk", "stream.push")
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update({
        "stream.push_ms": _ratio(push["total_s"] * 1e3, per),
        "stream.trunk_ms": _ratio(trunk["total_s"] * 1e3, per),
        "stream.roll_ms": _ratio(find(tree, "stream.roll")["total_s"] * 1e3, per),
        # Everything a push does besides the trunk and the cube roll: ring
        # buffer, head, CAM / M-bar delta and dCAM extraction.
        "stream.cam_delta_ms": _ratio(push["self_s"] * 1e3, per),
        "stream.dirty_cols": _ratio(trunk["attrs"].get("dirty_cols", 0.0), trunk["calls"]),
        "stream.cold_starts": float(cold_starts),
        "obs.trace_overhead": overhead,
    })
    metrics.update(_conv(tree, per))
    return metrics
