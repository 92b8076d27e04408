"""Tests for the experiment harness, reporting helpers and ablations."""

import pytest

from repro.eval import (
    ExperimentConfig,
    PAPER_AUC,
    PAPER_TABLE2,
    format_comparison,
    format_figure3,
    format_table2,
    paper_scale_costs,
    run_full_experiment,
    run_variational_ablation,
    study_specs,
)
from repro.eval.experiment import evaluate_detector
from repro.pipeline import Pipeline


class TestPaperScaleCosts:
    def test_all_six_detectors_present(self):
        costs = paper_scale_costs()
        assert set(costs) == {"VARADE", "AR-LSTM", "AE", "GBRF", "kNN", "Isolation Forest"}

    def test_neural_models_cost_more_flops_than_tree_models(self):
        costs = paper_scale_costs()
        assert costs["VARADE"].flops > costs["GBRF"].flops
        assert costs["AE"].flops > costs["Isolation Forest"].flops


class TestEvaluateDetector:
    def test_produces_valid_metrics(self, tiny_dataset):
        specs = study_specs(n_channels=tiny_dataset.n_channels, window=16)
        detector = Pipeline.from_spec(specs["kNN"]).build_detector()
        evaluation = evaluate_detector(detector, tiny_dataset)
        assert 0.0 <= evaluation.auc_roc <= 1.0
        assert 0.0 <= evaluation.average_precision <= 1.0
        assert evaluation.samples_scored > 0
        assert evaluation.host_score_hz > 0


class TestFullExperiment:
    @pytest.fixture(scope="class")
    def small_result(self, tiny_dataset):
        config = ExperimentConfig(
            window=16,
            neural_epochs=1,
            max_train_windows=60,
            detectors=("GBRF", "kNN"),
        )
        return run_full_experiment(config, dataset=tiny_dataset)

    def test_contains_requested_detectors(self, small_result):
        assert {e.name for e in small_result.evaluations} == {"GBRF", "kNN"}

    def test_edge_metrics_for_both_boards(self, small_result):
        for evaluation in small_result.evaluations:
            assert set(evaluation.edge) == {"Jetson Xavier NX", "Jetson AGX Orin"}

    def test_table2_rows_include_idle(self, small_result):
        rows = small_result.table2_rows("Jetson Xavier NX")
        assert rows[0]["model"] == "Idle"
        assert len(rows) == 3
        assert all("inference_hz" in row for row in rows)

    def test_figure3_series(self, small_result):
        points = small_result.figure3_series()
        assert len(points) == 4  # 2 detectors x 2 boards
        for point in points:
            assert 0.0 <= point["auc_roc"] <= 1.0
            assert point["inference_hz"] > 0

    def test_by_name_lookup(self, small_result):
        assert small_result.by_name("kNN").name == "kNN"
        with pytest.raises(KeyError):
            small_result.by_name("missing")


class TestReporting:
    def test_paper_reference_values(self):
        assert PAPER_AUC["VARADE"] == pytest.approx(0.844)
        assert PAPER_TABLE2["Jetson AGX Orin"]["GBRF"]["inference_hz"] == pytest.approx(44.128)

    def test_format_table2(self):
        rows = [{
            "board": "Jetson Xavier NX", "model": "VARADE", "cpu_percent": 52.4,
            "gpu_percent": 70.6, "ram_mb": 5488.9, "gpu_ram_mb": 1005.4,
            "power_w": 6.33, "auc_roc": 0.844, "inference_hz": 14.94,
        }]
        text = format_table2(rows, title="Table 2")
        assert "VARADE" in text and "Table 2" in text and "14.94" in text

    def test_format_figure3(self):
        points = [{"model": "VARADE", "board": "Jetson Xavier NX",
                   "inference_hz": 14.9, "auc_roc": 0.84, "power_w": 6.3}]
        text = format_figure3(points, title="Figure 3")
        assert "VARADE" in text and "Figure 3" in text

    def test_format_comparison(self):
        text = format_comparison({"VARADE": 0.8}, {"VARADE": 0.844, "AE": 0.81}, "AUC")
        assert "0.95" in text or "0.9" in text
        assert "---" in text  # AE not measured


class TestAblation:
    def test_variational_ablation_runs(self, tiny_dataset):
        results = run_variational_ablation(tiny_dataset, window=16, feature_maps=4,
                                           epochs=2, max_windows=60)
        assert len(results) == 2
        labels = [r.label for r in results]
        assert any("variational" in label for label in labels)
        assert any("deterministic" in label for label in labels)
        for result in results:
            assert 0.0 <= result.auc_roc <= 1.0
            assert result.parameters > 0
            assert set(result.as_row()) == {"configuration", "auc_roc", "parameters",
                                            "train_time_s"}
