"""In-memory spans recorded around the program's layer entry points.

A :class:`SpanRecorder` keeps one span per wrapped call — name, start, end,
parent and request id — in a list, and writes them out once, when the run
ends.  Parents are tracked per thread with a stack, so a span's children are
the wrapped calls it made on its own thread.  A root span opens a new request
id; its descendants inherit it.

:func:`aggregate` folds spans into a layer tree keyed by name path, with
each node's self time (its duration minus what its children cover);
:func:`check_tree` verifies that every node's children plus its residual add
up to the node, and :func:`check_spans` that every child lies inside its
parent and no two siblings overlap.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Absolute slack (seconds) when comparing span boundaries and sums.
TOLERANCE_S = 1e-6


class BreakdownError(ValueError):
    """A span tree whose children and residual do not add up to the parent."""


class Span:
    """One timed call: ``[start, end)`` in ``time.perf_counter`` seconds."""

    __slots__ = ("name", "start", "end", "parent", "rid", "attrs")

    def __init__(self, name: str, start: float, end: float, parent: int, rid: str,
                 attrs: Optional[Dict[str, float]] = None) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index of the parent span, -1 for a root
        self.rid = rid
        self.attrs = attrs if attrs is not None else {}

    def to_json(self, index: int) -> Dict[str, Any]:
        return {"id": index, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "rid": self.rid, "attrs": self.attrs}

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "Span":
        return cls(payload["name"], payload["start"], payload["end"], payload["parent"],
                   payload["rid"], payload.get("attrs"))


class SpanRecorder:
    """Thread-aware in-memory span collector."""

    def __init__(self, label: str = "r") -> None:
        self.spans: List[Optional[Span]] = []
        self._label = label
        self._local = threading.local()
        self._lock = threading.Lock()
        self._rids = itertools.count()

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def parent_name(self) -> Optional[str]:
        """Name of the innermost open span on this thread, if any."""
        stack = self._stack()
        if not stack:
            return None
        return self.spans[stack[-1][0]].name

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, float]]:
        """Record ``name`` around the block; yields the span's attrs dict."""
        stack = self._stack()
        attrs: Dict[str, float] = {}
        if stack:
            parent, rid = stack[-1]
        else:
            parent, rid = -1, f"{self._label}{next(self._rids)}"
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        start = time.perf_counter()
        # Placeholder so children can read the parent's name while it is open.
        self.spans[index] = Span(name, start, start, parent, rid, attrs)
        stack.append((index, rid))
        try:
            yield attrs
        finally:
            stack.pop()
            self.spans[index].end = time.perf_counter()

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                if span is not None:
                    handle.write(json.dumps(span.to_json(index)) + "\n")


def read_spans(path: str) -> List[Span]:
    """Spans written by :meth:`SpanRecorder.write`, re-indexed densely.

    The recorder writes span ``id`` values; parents refer to them.  Reading
    keeps list positions equal to those ids by padding gaps, so ``parent``
    stays a valid list index.
    """
    by_id: Dict[int, Span] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            payload = json.loads(line)
            by_id[payload["id"]] = Span.from_json(payload)
    if not by_id:
        return []
    spans: List[Optional[Span]] = [None] * (max(by_id) + 1)
    for index, span in by_id.items():
        spans[index] = span
    return spans  # type: ignore[return-value]


def wrap(recorder: SpanRecorder, owner: Any, attribute: str,
         name: "str | Callable[..., str]",
         annotate: Optional[Callable[..., None]] = None) -> None:
    """Replace ``owner.attribute`` with a version recorded as a span.

    ``name`` is a span name or a callable ``(args, kwargs) -> name``;
    ``annotate(attrs, args, kwargs, result)`` may add numeric attributes.
    """
    original = getattr(owner, attribute)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span_name = name(args, kwargs) if callable(name) else name
        with recorder.span(span_name) as attrs:
            result = original(*args, **kwargs)
            if annotate is not None:
                annotate(attrs, args, kwargs, result)
            return result

    setattr(owner, attribute, wrapper)


# ---------------------------------------------------------------------------
# Breakdown
# ---------------------------------------------------------------------------
def _children(spans: Sequence[Optional[Span]]) -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span is not None and span.parent >= 0:
            children.setdefault(span.parent, []).append(index)
    return children


def _covered(span: Span, kids: Iterable[Span]) -> float:
    """Length of the union of ``kids`` clipped to ``span``'s interval."""
    intervals = sorted((max(kid.start, span.start), min(kid.end, span.end)) for kid in kids)
    covered, cursor = 0.0, span.start
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def check_spans(spans: Sequence[Optional[Span]]) -> List[str]:
    """Problems with raw spans: children outside a parent or overlapping."""
    problems: List[str] = []
    for parent_index, kid_indices in _children(spans).items():
        parent = spans[parent_index]
        if parent is None:
            problems.append(f"span #{kid_indices[0]} names missing parent #{parent_index}")
            continue
        kids = sorted((spans[index] for index in kid_indices), key=lambda span: span.start)
        for kid in kids:
            if kid.start < parent.start - TOLERANCE_S or kid.end > parent.end + TOLERANCE_S:
                problems.append(f"{kid.name} lies outside its parent {parent.name}")
        for before, after in zip(kids, kids[1:]):
            if after.start < before.end - TOLERANCE_S:
                problems.append(f"{before.name} and {after.name} overlap under {parent.name}")
    return problems


def _new_node() -> Dict[str, Any]:
    return {"calls": 0, "total_s": 0.0, "self_s": 0.0, "attrs": {}, "children": {}}


def aggregate(spans: Sequence[Optional[Span]],
              keep_root: Optional[Callable[[Span], bool]] = None) -> Dict[str, Any]:
    """Fold spans into a tree of nodes keyed by name path.

    Each node holds the call count, the summed duration (``total_s``), the
    summed self time (``self_s``: duration minus what the children cover),
    the summed numeric attributes and its child nodes.  ``keep_root``
    filters whole request trees by their root span (e.g. to one phase).
    """
    children = _children(spans)
    root = _new_node()

    def visit(index: int, parent_node: Dict[str, Any]) -> None:
        span = spans[index]
        node = parent_node["children"].setdefault(span.name, _new_node())
        kid_indices = children.get(index, [])
        duration = span.end - span.start
        node["calls"] += 1
        node["total_s"] += duration
        node["self_s"] += duration - _covered(span, (spans[kid] for kid in kid_indices))
        for key, value in span.attrs.items():
            node["attrs"][key] = node["attrs"].get(key, 0.0) + value
        for kid in kid_indices:
            visit(kid, node)

    for index, span in enumerate(spans):
        if span is not None and span.parent < 0 and (keep_root is None or keep_root(span)):
            visit(index, root)
    root["total_s"] = sum(node["total_s"] for node in root["children"].values())
    root["calls"] = sum(node["calls"] for node in root["children"].values())
    return root


def check_tree(node: Dict[str, Any], path: str = "") -> None:
    """Raise :class:`BreakdownError` unless children + residual == parent.

    Checked at every node below the (synthetic) root: ``total_s`` must equal
    ``self_s`` plus the children's ``total_s``, and no self time may be
    negative.
    """
    problems: List[str] = []

    def visit(current: Dict[str, Any], current_path: str) -> None:
        kids = current["children"]
        if current_path:
            kid_total = sum(kid["total_s"] for kid in kids.values())
            slack = TOLERANCE_S * (1 + current["calls"] + len(kids))
            if current["self_s"] < -slack:
                problems.append(f"{current_path}: negative residual {current['self_s']:.6f}s")
            if abs(kid_total + current["self_s"] - current["total_s"]) > slack:
                problems.append(
                    f"{current_path}: children {kid_total:.6f}s + residual "
                    f"{current['self_s']:.6f}s != {current['total_s']:.6f}s"
                )
        for name, kid in kids.items():
            visit(kid, f"{current_path}/{name}" if current_path else name)

    visit(node, path)
    if problems:
        raise BreakdownError("; ".join(problems))


def find(tree: Dict[str, Any], name: str, parent: Optional[str] = None) -> Dict[str, Any]:
    """Sum every node called ``name`` (optionally only under ``parent``).

    Returns ``{"calls", "total_s", "self_s", "attrs"}`` summed over matches.
    """
    found = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "attrs": {}}

    def visit(node: Dict[str, Any], node_name: Optional[str]) -> None:
        for kid_name, kid in node["children"].items():
            if kid_name == name and (parent is None or node_name == parent):
                found["calls"] += kid["calls"]
                found["total_s"] += kid["total_s"]
                found["self_s"] += kid["self_s"]
                for key, value in kid["attrs"].items():
                    found["attrs"][key] = found["attrs"].get(key, 0.0) + value
            visit(kid, kid_name)

    visit(tree, None)
    return found


def breakdown(spans: Sequence[Optional[Span]], start: float, end: float) -> Dict[str, Any]:
    """The checked layer tree of the requests whose root began in ``[start, end]``.

    Raises :class:`BreakdownError` when the spans or the tree do not add up.
    """
    problems = check_spans(spans)
    if problems:
        raise BreakdownError("; ".join(problems[:5]))
    tree = aggregate(spans, keep_root=lambda span: start <= span.start <= end)
    check_tree(tree)
    return tree


def tree_to_ms(node: Dict[str, Any]) -> Dict[str, Any]:
    """JSON-friendly copy of a layer tree in milliseconds."""
    return {
        "calls": node["calls"],
        "total_ms": node["total_s"] * 1e3,
        "self_ms": node["self_s"] * 1e3,
        **({"attrs": node["attrs"]} if node["attrs"] else {}),
        "children": {name: tree_to_ms(kid) for name, kid in node["children"].items()},
    }
