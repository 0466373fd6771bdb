"""End-to-end integration tests: train, explain, evaluate.

These tests tie every subsystem together: data generation → training →
explanation (CAM / dCAM) → Dr-acc evaluation, mirroring the paper's pipeline
on a miniature problem with fixed seeds.
"""

import numpy as np
import pytest

from repro.core import compute_dcam
from repro.data import SyntheticConfig, make_type1_dataset
from repro.eval import (
    classification_accuracy,
    dr_acc,
    evaluate_classification,
    fit_on_dataset,
    random_baseline_dr_acc,
    repeated_runs,
)
from repro.explain import evaluate_explainer, get_explainer
from repro.models import DCNNClassifier, TrainingConfig, create_model


class TestProtocolHelpers:
    def test_fit_on_dataset_uses_split(self, tiny_type1_dataset):
        model = create_model("cnn", tiny_type1_dataset.n_dimensions,
                             tiny_type1_dataset.length, tiny_type1_dataset.n_classes,
                             rng=np.random.default_rng(0), filters=(4,))
        history = fit_on_dataset(model, tiny_type1_dataset,
                                 TrainingConfig(epochs=2, batch_size=8, random_state=0),
                                 random_state=0)
        assert history.epochs_run >= 1
        assert len(history.validation_loss) == history.epochs_run

    def test_evaluate_classification_returns_model_and_result(self, tiny_type1_dataset,
                                                              tiny_type1_test_dataset):
        model, result = evaluate_classification(
            "cnn", tiny_type1_dataset, tiny_type1_test_dataset,
            training=TrainingConfig(epochs=2, batch_size=8, random_state=0),
            model_kwargs={"filters": (4,)}, random_state=0)
        assert result.model_name == "cnn"
        assert 0.0 <= result.c_acc <= 1.0
        assert result.epochs_run >= 1
        assert result.train_seconds > 0

    def test_repeated_runs(self, tiny_type1_dataset, tiny_type1_test_dataset):
        results = repeated_runs("cnn", tiny_type1_dataset, tiny_type1_test_dataset,
                                n_runs=2,
                                training=TrainingConfig(epochs=1, batch_size=8,
                                                        random_state=0),
                                model_kwargs={"filters": (4,)})
        assert len(results) == 2

    def test_explanation_for_dispatch(self, trained_dcnn, trained_cnn, trained_ccnn,
                                      trained_mtex, tiny_type1_dataset):
        series = tiny_type1_dataset.X[-1]
        shape = (tiny_type1_dataset.n_dimensions, tiny_type1_dataset.length)
        dcam = get_explainer(trained_dcnn, k=4, rng=np.random.default_rng(0)).explain(series, 1)
        assert dcam.heatmap.shape == shape and dcam.success_ratio is not None
        cam = get_explainer(trained_cnn).explain(series, 1)
        assert cam.heatmap.shape == shape and cam.success_ratio is None
        assert get_explainer(trained_ccnn).explain(series, 1).heatmap.shape == shape
        assert get_explainer(trained_mtex).explain(series, 1).heatmap.shape == shape

    def test_evaluate_explanation(self, trained_dcnn, tiny_type1_dataset):
        report = evaluate_explainer(trained_dcnn, tiny_type1_dataset, target_class=1,
                                    n_instances=2, k=4, random_state=0)
        assert 0.0 <= report.dr_acc <= 1.0
        assert 0.0 <= report.success_ratio <= 1.0

    def test_evaluate_explanation_requires_ground_truth(self, trained_dcnn,
                                                        tiny_type1_dataset):
        stripped = tiny_type1_dataset.subset(range(len(tiny_type1_dataset)))
        stripped.ground_truth = None
        with pytest.raises(ValueError):
            evaluate_explainer(trained_dcnn, stripped)


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def well_trained_setup(self):
        """A dCNN trained long enough to classify Type 1 data reliably."""
        config = SyntheticConfig(seed_name="starlight", n_dimensions=5,
                                 n_instances_per_class=20, series_length=64,
                                 seed_instance_length=32, pattern_length=16,
                                 random_state=5)
        train = make_type1_dataset(config)
        test = make_type1_dataset(SyntheticConfig(**{**config.__dict__,
                                                     "random_state": 99,
                                                     "n_instances_per_class": 8}))
        model = DCNNClassifier(train.n_dimensions, train.length, train.n_classes,
                               filters=(8, 16, 16), rng=np.random.default_rng(0))
        model.fit(train.X, train.y,
                  config=TrainingConfig(epochs=25, batch_size=8, learning_rate=3e-3,
                                        patience=25, random_state=0))
        return model, train, test

    def test_dcnn_learns_type1_problem(self, well_trained_setup):
        model, train, test = well_trained_setup
        assert model.score(train.X, train.y) >= 0.9
        assert model.score(test.X, test.y) >= 0.75

    def test_dcam_success_ratio_is_high_for_accurate_model(self, well_trained_setup):
        model, _, test = well_trained_setup
        index = int(np.flatnonzero(test.y == 1)[0])
        result = compute_dcam(model, test.X[index], class_id=1, k=16,
                              rng=np.random.default_rng(0))
        assert result.success_ratio >= 0.5

    def test_dcam_beats_random_baseline_on_average(self, well_trained_setup):
        model, _, test = well_trained_setup
        indices = np.flatnonzero(test.y == 1)[:4]
        rng = np.random.default_rng(0)
        dcam_scores, random_scores = [], []
        for index in indices:
            result = compute_dcam(model, test.X[index], class_id=1, k=24, rng=rng)
            dcam_scores.append(dr_acc(result.dcam, test.ground_truth[index]))
            random_scores.append(random_baseline_dr_acc(test.ground_truth[index],
                                                        np.random.default_rng(1)))
        assert np.mean(dcam_scores) > np.mean(random_scores)

    def test_classification_accuracy_helper_agrees_with_score(self, well_trained_setup):
        model, _, test = well_trained_setup
        manual = classification_accuracy(test.y, model.predict(test.X))
        assert manual == pytest.approx(model.score(test.X, test.y))
