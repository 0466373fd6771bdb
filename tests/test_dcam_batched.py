"""Equivalence tests: batched no-grad dCAM vs the legacy per-permutation path."""

import numpy as np
import pytest

from repro.core.dcam import (
    _m_transform,
    _permutation_cam,
    compute_dcam,
    compute_dcam_batch,
    extract_dcam,
    merge_permutation_cams,
    permutation_cache_keys,
)
from repro.core.input_transform import random_permutations
from repro.explain import get_explainer
from repro.models import create_model
from repro.nn import is_grad_enabled
from repro.serve.cache import ExplanationCache

ATOL = 1e-10


def legacy_dcam(model, series, class_id, permutations):
    """The seed implementation: k graph-recording batch-size-1 passes plus a
    Python-loop merge of (D, D, n) M-transform temporaries."""
    model.eval()
    collected = []
    n_correct = 0
    for order in permutations:
        cam_rows, predicted = _permutation_cam(model, series, class_id, order)
        collected.append((cam_rows, order))
        if predicted == class_id:
            n_correct += 1
    total = None
    for cam_rows, order in collected:
        transformed = _m_transform(cam_rows, np.asarray(order))
        total = transformed if total is None else total + transformed
    m_bar = total / len(collected)
    dcam, averaged_cam = extract_dcam(m_bar)
    return dcam, m_bar, averaged_cam, n_correct


class TestBatchedEquivalence:
    def test_matches_legacy_path(self, trained_dcnn, tiny_type1_dataset):
        series = tiny_type1_dataset.X[0]
        perms = random_permutations(tiny_type1_dataset.n_dimensions, 12,
                                    np.random.default_rng(7))
        dcam, m_bar, averaged_cam, n_correct = legacy_dcam(trained_dcnn, series, 1, perms)
        result = compute_dcam(trained_dcnn, series, 1, permutations=perms)
        assert result.n_correct == n_correct
        np.testing.assert_allclose(result.dcam, dcam, rtol=0, atol=ATOL)
        np.testing.assert_allclose(result.m_bar, m_bar, rtol=0, atol=ATOL)
        np.testing.assert_allclose(result.averaged_cam, averaged_cam, rtol=0, atol=ATOL)

    def test_matches_legacy_with_only_correct_filter(self, trained_dcnn, tiny_type1_dataset):
        series = tiny_type1_dataset.X[1]
        perms = random_permutations(tiny_type1_dataset.n_dimensions, 8,
                                    np.random.default_rng(3))
        result = compute_dcam(trained_dcnn, series, 1, permutations=perms,
                              use_only_correct=True)
        # Reference: filter manually, merge with the public API.
        trained_dcnn.eval()
        kept = []
        for order in perms:
            cam_rows, predicted = _permutation_cam(trained_dcnn, series, 1, order)
            if predicted == 1:
                kept.append((cam_rows, order))
        if kept:
            expected, _ = extract_dcam(merge_permutation_cams(kept))
            np.testing.assert_allclose(result.dcam, expected, rtol=0, atol=ATOL)

    @pytest.mark.parametrize("batch_size", [1, 2, 3, 5, 12, 64])
    def test_independent_of_batch_size(self, trained_dcnn, tiny_type1_dataset, batch_size):
        series = tiny_type1_dataset.X[2]
        perms = random_permutations(tiny_type1_dataset.n_dimensions, 12,
                                    np.random.default_rng(11))
        reference = compute_dcam(trained_dcnn, series, 1, permutations=perms, batch_size=12)
        result = compute_dcam(trained_dcnn, series, 1, permutations=perms,
                              batch_size=batch_size)
        assert result.n_correct == reference.n_correct
        np.testing.assert_allclose(result.dcam, reference.dcam, rtol=0, atol=ATOL)

    def test_batch_pipeline_matches_instance_loop(self, trained_dcnn, tiny_type1_dataset):
        X = tiny_type1_dataset.X[:4]
        y = tiny_type1_dataset.y[:4]
        batched = compute_dcam_batch(trained_dcnn, X, y, k=5,
                                     rng=np.random.default_rng(9), batch_size=7)
        looped = [
            compute_dcam(trained_dcnn, X[index], int(y[index]), k=5,
                         rng=np.random.default_rng(9))
            for index in [0]
        ]
        # Same generator state sequence: instance 0 must agree exactly.
        np.testing.assert_allclose(batched[0].dcam, looped[0].dcam, rtol=0, atol=ATOL)
        assert batched[0].n_correct == looped[0].n_correct
        assert len(batched) == 4

    def test_grad_mode_restored_after_compute(self, trained_dcnn, tiny_type1_dataset):
        compute_dcam(trained_dcnn, tiny_type1_dataset.X[0], 1, k=3,
                     rng=np.random.default_rng(0))
        assert is_grad_enabled()

    def test_rejects_ragged_permutations(self, trained_dcnn, tiny_type1_dataset):
        with pytest.raises(ValueError):
            compute_dcam(trained_dcnn, tiny_type1_dataset.X[0], 1,
                         permutations=[np.arange(4), np.arange(3)])

    def test_rejects_non_permutation(self, trained_dcnn, tiny_type1_dataset):
        with pytest.raises(ValueError, match="not a permutation"):
            compute_dcam(trained_dcnn, tiny_type1_dataset.X[0], 1,
                         permutations=[np.array([0, 0, 1, 2])])

    def test_rejects_float_permutation(self, trained_dcnn, tiny_type1_dataset):
        with pytest.raises(ValueError, match="integer"):
            compute_dcam(trained_dcnn, tiny_type1_dataset.X[0], 1,
                         permutations=[np.array([0.9, 1.2, 2.0, 3.0])])


class TestMergeValidation:
    def test_requires_matching_cam_shapes(self):
        rng = np.random.default_rng(0)
        pairs = [
            (rng.standard_normal((4, 6)), np.arange(4)),
            (rng.standard_normal((4, 7)), np.arange(4)),
        ]
        with pytest.raises(ValueError, match="shape"):
            merge_permutation_cams(pairs)

    def test_requires_matching_order_length(self):
        rng = np.random.default_rng(0)
        pairs = [(rng.standard_normal((4, 6)), np.arange(3))]
        with pytest.raises(ValueError, match="order #0"):
            merge_permutation_cams(pairs)

    def test_rejects_non_permutation_order(self):
        rng = np.random.default_rng(0)
        pairs = [(rng.standard_normal((4, 6)), np.array([0, 1, 1, 3]))]
        with pytest.raises(ValueError, match="not a permutation"):
            merge_permutation_cams(pairs)

    def test_rejects_one_dimensional_cam(self):
        pairs = [(np.zeros(4), np.arange(4))]
        with pytest.raises(ValueError, match="cam_rows #0"):
            merge_permutation_cams(pairs)

    def test_matches_per_pair_m_transform_average(self):
        rng = np.random.default_rng(5)
        pairs = [
            (rng.standard_normal((5, 9)), rng.permutation(5))
            for _ in range(7)
        ]
        expected = np.mean(
            [_m_transform(cam, np.asarray(order)) for cam, order in pairs], axis=0
        )
        np.testing.assert_allclose(merge_permutation_cams(pairs), expected,
                                   rtol=0, atol=ATOL)


SMALL_D_MODELS = {
    "dcnn": {"filters": (4, 4)},
    "dresnet": {"filters": (4, 4), "kernel_sizes": (3, 3)},
    "dinceptiontime": {"depth": 2, "n_filters": 2, "kernel_size": 5},
}


class TestOnePipeline:
    """Every dCAM entry point runs one pipeline, so they agree bit for bit."""

    @pytest.mark.parametrize("name, dtype", [
        ("dcnn", np.float64), ("dresnet", np.float64),
        ("dinceptiontime", np.float64), ("dcnn", np.float32),
    ])
    def test_entry_points_and_cache_states_are_bitwise_equal(self, name, dtype):
        model = create_model(name, 4, 16, 3, rng=np.random.default_rng(0),
                             **SMALL_D_MODELS[name]).astype(dtype)
        rng = np.random.default_rng(1)
        X = rng.standard_normal((3, 4, 16))
        class_ids = [0, 2, 1]
        permutations = [random_permutations(4, k, rng) for k in (3, 7, 5)]
        reference = [
            compute_dcam(model, X[index], class_ids[index],
                         permutations=permutations[index], batch_size=4)
            for index in range(3)
        ]
        runs = {"compute_dcam_batch": compute_dcam_batch(
            model, X, class_ids, permutations=permutations, batch_size=4)}
        cache = ExplanationCache(max_memory_bytes=None)
        stores = {}
        for label, store in (("no cache", None), ("cold", cache), ("warm", cache)):
            explainer = get_explainer(model, batch_size=4, cache=store)
            explanations = explainer.explain_batch(X, class_ids, permutations=permutations)
            runs[label] = [explanation.details for explanation in explanations]
            stores[label] = cache.telemetry.snapshot().get("cache_stores", 0)
        assert stores["cold"] == 3 + 7 + 5
        assert stores["warm"] == stores["cold"], "a warm pass must not put"
        for label, results in runs.items():
            for expected, result in zip(reference, results):
                assert np.array_equal(result.dcam, expected.dcam), label
                assert np.array_equal(result.m_bar, expected.m_bar), label
                assert result.n_correct == expected.n_correct, label

    def test_permutation_cache_key_bytes_are_pinned(self):
        # Persisted disk and remote entries are addressed by these bytes; a
        # format drift would silently turn every stored permutation cold.
        series = np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0
        [key] = permutation_cache_keys("model-state", series, 1, [np.array([2, 0, 1])])
        assert key == "4fac4773ca672b960e4b54d0a922d6dce9477185adcc5e8eaa2eca370c6921ee"
