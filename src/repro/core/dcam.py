"""dCAM: Dimension-wise Class Activation Map (Section 4.4 of the paper).

Given a trained d-architecture (dCNN / dResNet / dInceptionTime), dCAM

1. draws ``k`` random permutations of the input dimensions (Section 4.4.1),
2. computes the CAM of the ``C(S_T)`` cube for each permutation and
   re-indexes it by (original dimension, position-within-row) — the ``M``
   transformation of Definition 2,
3. averages the ``M`` transformations into ``M̄`` (Section 4.4.2), and
4. extracts the final ``(D, n)`` map as the per-position variance of ``M̄``
   multiplied by the average activation over all dimensions/positions
   (Definition 3) — high variance across positions marks discriminant
   subsequences, while the average filters out irrelevant temporal windows.

The number ``n_g`` of permutations that the model classifies correctly is also
recorded; ``n_g / k`` (:attr:`DCAMResult.success_ratio`) is the paper's
label-free proxy for explanation quality (Sections 4.6 and 5.6).

Execution strategy
------------------
One generator, :func:`_dcam_results`, is the only execution path:
:func:`compute_dcam` takes its single result, :func:`compute_dcam_batch` all of
them, and :class:`repro.explain.DCAMExplainer` feeds it its byte cache so each
permutation's CAM rows are stored under a :func:`permutation_cache_keys` key
and only unseen permutations are forwarded.  Explanation only needs
activations, never gradients, so the permuted cubes of a group of instances run
through the model in micro-batches under :func:`repro.nn.inference_mode`: no
autograd graph is recorded, the im2col buffers of the convolutions are
released immediately, and the per-permutation ``M`` transformations are
materialised by one fancy-indexed gather over the stacked ``(k, D, n)`` CAM
array instead of a Python loop of ``(D, D, n)`` temporaries.
:func:`_permutation_cam` retains the legacy one-permutation graph-recording
path as a numerical reference for tests and benchmarks.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..nn import inference_mode
from .input_transform import inverse_order, random_permutations

__all__ = [
    "DCAMResult",
    "compute_dcam",
    "compute_dcam_batch",
    "merge_permutation_cams",
    "permutation_rows",
    "extract_dcam",
    "permutation_cache_keys",
]

#: Default number of permuted cubes per forward pass.  Bounds the peak im2col
#: footprint (which grows linearly with the micro-batch size) while keeping
#: the matrix multiplications large enough to amortise Python dispatch.
DEFAULT_BATCH_SIZE = 32

#: Soft cap on the scratch memory of the vectorised ``M``-transform gather;
#: above it the gather falls back to chunking over permutations.
_MERGE_SCRATCH_BYTES = 128 * 1024 * 1024

#: Soft cap on the permuted-series + CAM arrays materialised at once by the
#: dCAM pipeline (the only memory cap on it); above it instances are processed
#: in groups (micro-batching still crosses instance boundaries within a group).
#: Tuned at paper scale (D=40, n=100, k=100, ~6.4 MB/instance): throughput
#: plateaus once a group holds ~20 instances, so 128 MB matches the 256 MB
#: setting's speed at half the peak transient footprint (sweep recorded in
#: docs/benchmarks.md).
_BATCH_MATERIALIZE_BYTES = 128 * 1024 * 1024


@dataclass
class DCAMResult:
    """Output of :func:`compute_dcam`.

    Attributes
    ----------
    dcam:
        The dimension-wise class activation map, shape ``(D, n)``.
    m_bar:
        The averaged ``M`` transformation ``M̄``, shape ``(D, D, n)`` indexed by
        (original dimension, position within a cube row, time).
    averaged_cam:
        ``μ(M̄)`` per timestamp, shape ``(n,)`` — the approximation of the
        standard (univariate) CAM described in Section 4.4.3.
    class_id:
        Class the map explains.
    k:
        Number of permutations evaluated.
    n_correct:
        ``n_g`` — how many permutations the model classified as ``class_id``.
    """

    dcam: np.ndarray
    m_bar: np.ndarray
    averaged_cam: np.ndarray
    class_id: int
    k: int
    n_correct: int

    @property
    def success_ratio(self) -> float:
        """``n_g / k``: the label-free proxy for explanation quality."""
        return self.n_correct / self.k if self.k else 0.0

    @property
    def n_dimensions(self) -> int:
        return self.dcam.shape[0]

    @property
    def length(self) -> int:
        return self.dcam.shape[1]


def _permutation_cam(model: "ConvBackboneClassifier", series: np.ndarray, class_id: int,
                     order: np.ndarray) -> tuple[np.ndarray, int]:
    """CAM over the cube rows for one permutation, plus the predicted class.

    Legacy batch-size-1, graph-recording path.  The production pipeline is
    :func:`_permutation_cams_batched`; this function is kept as the
    independent numerical reference the equivalence tests compare against.
    """
    prepared = model.prepare_input(series[None], order)
    features = model.features(prepared)
    pooled = model.gap(features)
    logits = model.classifier(pooled)
    weights = model.class_weights[class_id]
    cam_rows = np.tensordot(weights, features.data[0], axes=(0, 0))  # (D, n)
    predicted = int(logits.data[0].argmax())
    return cam_rows, predicted


def _require_d_architecture(model: "ConvBackboneClassifier") -> None:
    if getattr(model, "input_kind", None) != "cube":
        raise TypeError(
            f"dCAM requires a d-architecture (dCNN/dResNet/dInceptionTime); "
            f"got {type(model).__name__}"
        )


def _stack_orders(permutations: Sequence[np.ndarray], n_dimensions: int) -> np.ndarray:
    """Validate and stack permutations into a ``(k, D)`` integer array."""
    try:
        orders = np.asarray([np.asarray(order) for order in permutations])
    except ValueError as error:
        raise ValueError(
            f"permutations must all have length {n_dimensions} to match the "
            f"series dimensions"
        ) from error
    if orders.ndim != 2 or orders.shape[1] != n_dimensions:
        raise ValueError(
            f"permutations must have shape (k, {n_dimensions}), got {orders.shape}"
        )
    if not np.issubdtype(orders.dtype, np.integer):
        raise ValueError(
            f"permutations must contain integer dimension indices, got dtype {orders.dtype}"
        )
    valid = np.sort(orders, axis=1) == np.arange(n_dimensions)[None, :]
    if not valid.all():
        index = int(np.flatnonzero(~valid.all(axis=1))[0])
        raise ValueError(f"permutation #{index} is not a permutation of range({n_dimensions})")
    return orders.astype(np.intp, copy=False)


def _permutation_cams_batched(model: "ConvBackboneClassifier", permuted: np.ndarray,
                              class_weights: np.ndarray,
                              batch_size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Forward pre-permuted series through the model in graph-free micro-batches.

    Parameters
    ----------
    permuted:
        Stack of dimension-permuted series, shape ``(N, D, n)``.
    class_weights:
        Per-row dense-layer weight vectors ``w^{C}`` of shape ``(N, F)`` —
        rows may differ when explaining several instances/classes at once.
    batch_size:
        Number of cubes per forward pass (peak-memory knob).

    Returns
    -------
    cams:
        Stacked CAM rows, shape ``(N, D, n)``.
    predicted:
        Predicted class per permuted series, shape ``(N,)``.
    """
    n_total, n_dimensions, length = permuted.shape
    cams = np.empty((n_total, n_dimensions, length))
    predicted = np.empty(n_total, dtype=np.int64)
    batch_size = max(1, int(batch_size))
    with inference_mode():
        for start in range(0, n_total, batch_size):
            stop = min(start + batch_size, n_total)
            prepared = model.prepare_input(permuted[start:stop])
            features = model.features(prepared)
            logits = model.classifier(model.gap(features))
            cams[start:stop] = np.einsum(
                "bf,bfdn->bdn", class_weights[start:stop], features.data
            )
            predicted[start:stop] = logits.data.argmax(axis=1)
    return cams, predicted


def _m_transform(cam_rows: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The ``M`` transformation (Definition 2) for one permutation.

    ``M[d, p, :]`` is the CAM row that contained original dimension ``d`` at
    position ``p`` of the permuted cube ``C(S_T)``.
    """
    n_dimensions = cam_rows.shape[0]
    slots = inverse_order(order)  # original dimension -> slot in the permuted series
    positions = np.arange(n_dimensions)
    # Row containing slot s at position p is (s - p) mod D.
    rows = (slots[:, None] - positions[None, :]) % n_dimensions  # (D, D)
    return cam_rows[rows]  # (D, D, n)


def permutation_rows(orders: np.ndarray) -> np.ndarray:
    """``rows[p, d, q]`` = cube row holding dimension ``d`` at position ``q``.

    The vectorised ``idx`` function of Definition 1 over a ``(k, D)``
    permutation stack: gathering ``cams[p, rows[p]]`` materialises every
    permutation's ``M`` transform at once.  Shared by the batched merge below
    and by the streaming engine's per-column ``M̄`` delta updates
    (:mod:`repro.stream`), which gather only the window columns a slide
    touched.
    """
    k, n_dimensions = orders.shape
    # slots[p, d] = position of original dimension d under permutation p.
    slots = np.empty_like(orders)
    slots[np.arange(k)[:, None], orders] = np.arange(n_dimensions)[None, :]
    positions = np.arange(n_dimensions)
    return (slots[:, :, None] - positions[None, None, :]) % n_dimensions  # (k, D, D)


def _merge_cam_stack(cams: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """Average the ``M`` transformations of stacked permutation CAMs.

    ``cams`` has shape ``(k, D, n)`` and ``orders`` shape ``(k, D)``.  The
    ``M`` transforms of all permutations are materialised by a single
    fancy-indexed gather ``cams[perm, row]`` (chunked over ``k`` when the
    ``(k, D, D, n)`` scratch array would exceed the soft memory cap).
    """
    k, n_dimensions, length = cams.shape
    rows = permutation_rows(orders)  # (k, D, D)
    bytes_per_perm = n_dimensions * n_dimensions * length * cams.itemsize
    chunk = max(1, _MERGE_SCRATCH_BYTES // max(1, bytes_per_perm))
    if chunk >= k:
        return cams[np.arange(k)[:, None, None], rows].sum(axis=0) / k
    total = np.zeros((n_dimensions, n_dimensions, length), dtype=cams.dtype)
    for start in range(0, k, chunk):
        stop = min(start + chunk, k)
        index = np.arange(start, stop)[:, None, None]
        total += cams[index, rows[start:stop]].sum(axis=0)
    return total / k


def merge_permutation_cams(cams_and_orders: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Average the ``M`` transformations of several permutations into ``M̄``.

    Every entry must be a ``(cam_rows, order)`` pair whose ``cam_rows`` share
    one ``(D, n)`` shape and whose ``order`` is a permutation of ``range(D)``;
    mismatches raise :class:`ValueError` with the offending entry identified.
    """
    if not cams_and_orders:
        raise ValueError("at least one permutation CAM is required")
    expected_shape: Optional[tuple] = None
    cam_list: List[np.ndarray] = []
    order_list: List[np.ndarray] = []
    for index, (cam_rows, order) in enumerate(cams_and_orders):
        cam_rows = np.asarray(cam_rows, dtype=np.float64)
        order = np.asarray(order)
        if cam_rows.ndim != 2:
            raise ValueError(
                f"cam_rows #{index} must be a (D, n) array, got shape {cam_rows.shape}"
            )
        if expected_shape is None:
            expected_shape = cam_rows.shape
        elif cam_rows.shape != expected_shape:
            raise ValueError(
                f"cam_rows #{index} has shape {cam_rows.shape} but earlier entries "
                f"have shape {expected_shape}; all permutation CAMs must share one "
                f"(D, n) shape"
            )
        n_dimensions = cam_rows.shape[0]
        if order.shape != (n_dimensions,):
            raise ValueError(
                f"order #{index} has shape {order.shape} but cam_rows #{index} has "
                f"D={n_dimensions} rows; each order must list a permutation of range(D)"
            )
        if not np.array_equal(np.sort(order), np.arange(n_dimensions)):
            raise ValueError(f"order #{index} is not a permutation of range({n_dimensions})")
        cam_list.append(cam_rows)
        order_list.append(order.astype(np.intp))
    return _merge_cam_stack(np.stack(cam_list), np.stack(order_list))


def extract_dcam(m_bar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Definition 3: combine per-position variance with the global average.

    Returns ``(dcam, averaged_cam)`` where ``dcam`` has shape ``(D, n)`` and
    ``averaged_cam`` (``μ(M̄)``, shape ``(n,)``) approximates the standard CAM.
    """
    if m_bar.ndim != 3 or m_bar.shape[0] != m_bar.shape[1]:
        raise ValueError("m_bar must have shape (D, D, n)")
    n_dimensions = m_bar.shape[0]
    averaged_cam = m_bar.sum(axis=(0, 1)) / (2.0 * n_dimensions)
    variance_per_dimension = m_bar.var(axis=1)  # (D, n)
    dcam = variance_per_dimension * averaged_cam[None, :]
    return dcam, averaged_cam


def _assemble_result(cams: np.ndarray, orders: np.ndarray, predicted: np.ndarray,
                     class_id: int, use_only_correct: bool) -> DCAMResult:
    """Merge the CAMs of one instance's permutations into a :class:`DCAMResult`."""
    correct_mask = predicted == class_id
    n_correct = int(correct_mask.sum())
    if use_only_correct and 0 < n_correct:
        m_bar = _merge_cam_stack(cams[correct_mask], orders[correct_mask])
    else:
        m_bar = _merge_cam_stack(cams, orders)
    dcam, averaged_cam = extract_dcam(m_bar)
    return DCAMResult(
        dcam=dcam,
        m_bar=m_bar,
        averaged_cam=averaged_cam,
        class_id=class_id,
        k=len(orders),
        n_correct=n_correct,
    )


def permutation_cache_keys(model_hash: str, series: np.ndarray, class_id: int,
                           orders: np.ndarray) -> List[str]:
    """Content keys of one (instance, class)'s permutation CAM rows, one per order.

    Each key folds in the model-state hash, the instance bytes, the class and
    the permutation, so an entry can only ever replay the exact forward pass
    that produced it.  The instance bytes dominate the key material, so they
    are hashed once and each (tiny) permutation is folded into a copy.
    """
    digest = hashlib.sha256()
    digest.update(b"dcam-permutation-cam\x00")
    digest.update(model_hash.encode("ascii"))
    digest.update(b"\x00")
    series = np.ascontiguousarray(series, dtype=np.float64)
    digest.update(str(series.shape).encode("ascii"))
    digest.update(series.tobytes())
    digest.update(f"\x00{int(class_id)}\x00".encode("ascii"))
    keys = []
    for order in orders:
        key = digest.copy()
        key.update(np.ascontiguousarray(order, dtype=np.int64).tobytes())
        keys.append(key.hexdigest())
    return keys


def _dcam_results(model: "ConvBackboneClassifier", X: np.ndarray, class_ids: Sequence[int],
                  k: int, rng: Optional[np.random.Generator],
                  permutations: Optional[Sequence[Sequence[np.ndarray]]],
                  use_only_correct: bool, batch_size: int,
                  store=None, model_hash: Optional[str] = None) -> Iterator[DCAMResult]:
    """The dCAM pipeline: yield one :class:`DCAMResult` per instance of ``X``.

    Each instance's permutations are taken as given or drawn from ``rng``
    instance by instance.  Instances are processed in groups whose permuted
    series and CAM stacks stay under ``_BATCH_MATERIALIZE_BYTES``; a group's
    permutations are forwarded instance-major in one
    :func:`_permutation_cams_batched` call, so micro-batches cross instance
    boundaries.  With a byte ``store`` (``get``/``put``), each permutation's
    ``(cam_rows, predicted)`` is looked up under its
    :func:`permutation_cache_keys` key first and only the missing ones are
    forwarded (and stored); a cold store forwards exactly what no store does.
    """
    X = np.asarray(X, dtype=getattr(model, "compute_dtype", np.float64))
    if len(X) != len(class_ids):
        raise ValueError("X and class_ids must have the same length")
    if X.ndim != 3:
        raise ValueError(f"X must be (instances, D, n), got shape {X.shape}")
    _require_d_architecture(model)
    n_instances, n_dimensions, length = X.shape
    model.eval()

    if permutations is None:
        rng = rng or np.random.default_rng()
        permutations = [random_permutations(n_dimensions, k, rng) for _ in range(n_instances)]
    elif len(permutations) != n_instances:
        raise ValueError(
            f"permutations must supply one sequence per instance "
            f"({n_instances}), got {len(permutations)}"
        )
    per_instance_orders = [_stack_orders(orders, n_dimensions) for orders in permutations]
    class_ids = [int(c) for c in class_ids]
    counts = [len(orders) for orders in per_instance_orders]

    # Permuted series + CAM stacks cost ~2 * k_i * D * n * 8 bytes per instance.
    bytes_per_instance = 2 * max(counts, default=0) * n_dimensions * length * 8
    group = max(1, _BATCH_MATERIALIZE_BYTES // max(1, bytes_per_instance))
    for first in range(0, n_instances, group):
        last = min(first + group, n_instances)
        orders_flat = np.concatenate(per_instance_orders[first:last], axis=0)
        instance_flat = np.repeat(np.arange(first, last), counts[first:last])
        class_flat = np.repeat(class_ids[first:last], counts[first:last])
        missing = np.arange(len(orders_flat))
        if store is not None:
            keys = [key for index in range(first, last)
                    for key in permutation_cache_keys(model_hash, X[index], class_ids[index],
                                                      per_instance_orders[index])]
            cams = np.empty((len(keys), n_dimensions, length))
            predicted = np.empty(len(keys), dtype=np.int64)
            hit = np.zeros(len(keys), dtype=bool)
            for flat, key in enumerate(keys):
                blob = store.get(key)
                if blob is not None:
                    cams[flat], predicted[flat] = pickle.loads(blob)
                    hit[flat] = True
            missing = np.flatnonzero(~hit)
        if len(missing):
            computed_cams, computed_predicted = _permutation_cams_batched(
                model, X[instance_flat[missing, None], orders_flat[missing]],
                model.class_weights[class_flat[missing]], batch_size,
            )
            if len(missing) == len(orders_flat):
                cams, predicted = computed_cams, computed_predicted
            else:
                cams[missing], predicted[missing] = computed_cams, computed_predicted
            if store is not None:
                for row, flat in enumerate(missing):
                    store.put(keys[flat], pickle.dumps(
                        (computed_cams[row], int(computed_predicted[row])),
                        protocol=pickle.HIGHEST_PROTOCOL))
        start = 0
        for index in range(first, last):
            stop = start + counts[index]
            yield _assemble_result(cams[start:stop], per_instance_orders[index],
                                   predicted[start:stop], class_ids[index], use_only_correct)
            start = stop


def compute_dcam(model: "ConvBackboneClassifier", series: np.ndarray, class_id: int,
                 k: int = 100, rng: Optional[np.random.Generator] = None,
                 permutations: Optional[Sequence[np.ndarray]] = None,
                 use_only_correct: bool = False,
                 batch_size: int = DEFAULT_BATCH_SIZE) -> DCAMResult:
    """Compute dCAM for one multivariate series.

    The ``k`` permuted cubes are evaluated in graph-free micro-batches (see
    the module docstring), which is several times faster than ``k``
    independent autograd-recording forward passes while producing maps that
    agree with the legacy path to float round-off (≤ 1e-10).

    Parameters
    ----------
    model:
        A trained d-architecture (``input_kind == "cube"``).
    series:
        Multivariate series of shape ``(D, n)``.
    class_id:
        Class to explain (typically the predicted or ground-truth class).
    k:
        Number of random permutations (the paper uses ``k = 100``).
    rng:
        Random generator controlling the permutation draw.
    permutations:
        Explicit permutations to use instead of random ones (overrides ``k``).
    use_only_correct:
        If True, only permutations classified as ``class_id`` contribute to
        ``M̄`` (falling back to all permutations when none is correct).
    batch_size:
        Number of permuted cubes per forward pass.  Larger values amortise
        per-call overhead and enlarge the underlying matrix multiplications
        (faster), but peak memory — dominated by the im2col patch buffers of
        the convolutions — grows linearly with it.  The default of
        ``32`` is a good trade-off for the paper's scales; lower it for very
        long series or high-dimensional cubes, raise it for tiny problems.
        Results agree across ``batch_size`` values (and with the legacy
        per-permutation path) to within a few ulps of floating-point
        round-off — well under 1e-10 — not necessarily bit-for-bit.
    """
    series = np.asarray(series)
    if series.ndim != 2:
        raise ValueError(f"series must be (D, n), got shape {series.shape}")
    return next(_dcam_results(model, series[None], [class_id], k, rng,
                              None if permutations is None else [permutations],
                              use_only_correct, batch_size))


def compute_dcam_batch(model: "ConvBackboneClassifier", X: np.ndarray,
                       class_ids: Sequence[int], k: int = 100,
                       rng: Optional[np.random.Generator] = None,
                       permutations: Optional[Sequence[Sequence[np.ndarray]]] = None,
                       use_only_correct: bool = False,
                       batch_size: int = DEFAULT_BATCH_SIZE) -> List[DCAMResult]:
    """Compute dCAM for every series of a batch ``(instances, D, n)``.

    The instances' permuted cubes share one micro-batched pipeline, so forward
    passes are never padded down to a single instance's leftover permutations
    and the model is driven at full batch width throughout.  Instances are
    processed in groups sized so that the materialised permuted-series and CAM
    arrays stay within a soft memory cap.

    ``permutations`` optionally supplies one explicit permutation sequence per
    instance (overriding ``k``/``rng``), mirroring :func:`compute_dcam`'s
    parameter.  The serving layer uses this to batch requests that each carry
    their own permutation seed: instance ``i``'s result then matches
    ``compute_dcam(model, X[i], class_ids[i], permutations=permutations[i])``.
    Instances may bring different permutation counts.
    """
    return list(_dcam_results(model, X, class_ids, k, rng, permutations,
                              use_only_correct, batch_size))
