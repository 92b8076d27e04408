"""The staged Pipeline facade: parity with the legacy APIs, stage guards,
package/load round-trips and runtime deployment."""

import dataclasses

import numpy as np
import pytest

from repro.core import ThresholdCalibrator, TrainingConfig, VaradeConfig, VaradeDetector
from repro.data import StreamReader, build_synthetic_anomaly_dataset
from repro.edge import StreamingRuntime
from repro.pipeline import (AdaptationSpec, CalibrationSpec, DeploymentSpec,
                            DetectorSpec, Pipeline, PipelineStageError,
                            QuantizationSpec, RuntimeSpec, SpecError)

VARADE_PARAMS = {"n_channels": 4, "window": 8, "base_feature_maps": 2}
VARADE_TRAINING = {"epochs": 2, "mean_warmup_epochs": 1,
                   "variance_finetune_epochs": 1, "max_train_windows": 80,
                   "learning_rate": 3e-3}


def _varade_spec(**kwargs) -> DeploymentSpec:
    return DeploymentSpec(
        detector=DetectorSpec(kind="varade", params=dict(VARADE_PARAMS),
                              training=dict(VARADE_TRAINING)),
        **kwargs,
    )


@pytest.fixture(scope="module")
def dataset():
    return build_synthetic_anomaly_dataset(n_channels=4, train_samples=300,
                                           test_samples=300, seed=5)


# --------------------------------------------------------------------------- #
# Parity with the legacy hand-wired workflow
# --------------------------------------------------------------------------- #
def test_pipeline_matches_legacy_workflow_bit_identically(dataset):
    """fit + calibrate via Pipeline == the five-call legacy wiring."""
    legacy = VaradeDetector(
        VaradeConfig(**VARADE_PARAMS),
        TrainingConfig(seed=0, **VARADE_TRAINING),
    ).fit(dataset.train)
    legacy_scores = legacy.score_stream(dataset.test)
    legacy_threshold = ThresholdCalibrator(method="quantile", quantile=0.99) \
        .calibrate(legacy.score_stream(dataset.train).valid_scores())

    pipeline = Pipeline.from_spec(_varade_spec()).fit(dataset.train).calibrate()
    pipeline_scores = pipeline.detector.score_stream(dataset.test)

    assert np.array_equal(legacy_scores.scores, pipeline_scores.scores,
                          equal_nan=True)
    assert pipeline.detector.threshold.threshold == legacy_threshold.threshold
    assert pipeline.detector.threshold.method == legacy_threshold.method


def test_one_shot_run_reports_the_same_scores(dataset):
    report = Pipeline.from_spec(_varade_spec()).run(dataset)
    manual = Pipeline.from_spec(_varade_spec()).fit(dataset.train).calibrate()
    manual_scores = manual.detector.score_stream(dataset.test)
    assert np.array_equal(report.float_report.score_result.scores,
                          manual_scores.scores, equal_nan=True)
    assert report.float_report.auc_roc is not None
    assert 0.0 <= report.float_report.auc_roc <= 1.0
    assert report.threshold.threshold == manual.detector.threshold.threshold
    assert report.serving_report is report.float_report


def test_run_with_quantization_serves_the_int8_detector(dataset):
    spec = _varade_spec(quantization=QuantizationSpec())
    report = Pipeline.from_spec(spec).run(dataset)
    assert report.quantized_report is not None
    assert report.serving_report is report.quantized_report
    assert report.quantized_report.name == "VARADE-int8"
    # Quantized threshold is inherited from the float calibration.
    assert report.quantized_report.auc_roc is not None


def test_run_builds_dataset_from_spec_data_entry():
    from repro.pipeline import DataSpec

    spec = _varade_spec(data=DataSpec(source="synthetic",
                                      params={"n_channels": 4,
                                              "train_samples": 200,
                                              "test_samples": 200}))
    report = Pipeline.from_spec(spec).run()
    assert report.float_report.samples_scored > 0


# --------------------------------------------------------------------------- #
# Stage guards
# --------------------------------------------------------------------------- #
def test_stages_guard_their_prerequisites(dataset):
    pipeline = Pipeline.from_spec(_varade_spec(quantization=QuantizationSpec()))
    with pytest.raises(PipelineStageError, match="fit"):
        _ = pipeline.detector
    with pytest.raises(PipelineStageError, match="fit"):
        pipeline.calibrate()
    with pytest.raises(PipelineStageError, match="quantized"):
        _ = pipeline.quantized
    pipeline.fit(dataset.train)
    with pytest.raises(PipelineStageError, match="quantized"):
        _ = pipeline.quantized


def test_quantize_requires_spec_entry(dataset):
    pipeline = Pipeline.from_spec(_varade_spec()).fit(dataset.train)
    with pytest.raises(PipelineStageError, match="quantization"):
        pipeline.quantize()


def test_run_without_dataset_or_data_entry_raises():
    with pytest.raises(PipelineStageError, match="data"):
        Pipeline.from_spec(_varade_spec()).run()


def test_unknown_kind_fails_at_construction():
    """At the spec boundary an unknown kind is a SpecError (the registry's
    own lookups keep raising UnknownDetectorError)."""
    spec = DeploymentSpec(detector=DetectorSpec(kind="nonexistent"))
    with pytest.raises(SpecError, match="nonexistent"):
        Pipeline.from_spec(spec)


def test_pipeline_rejects_non_spec():
    with pytest.raises(SpecError, match="DeploymentSpec"):
        Pipeline({"detector": {"kind": "varade"}})


# --------------------------------------------------------------------------- #
# Package / load round-trip
# --------------------------------------------------------------------------- #
def test_package_embeds_spec_and_load_restores_it(tmp_path, dataset):
    spec = _varade_spec(calibration=CalibrationSpec(quantile=0.97), seed=9)
    pipeline = Pipeline.from_spec(spec).fit(dataset.train).calibrate()
    artifact = pipeline.package(tmp_path / "artifact")

    restored = Pipeline.load(artifact)
    assert restored.spec == spec
    original_scores = pipeline.detector.score_stream(dataset.test)
    restored_scores = restored.detector.score_stream(dataset.test)
    assert np.array_equal(original_scores.scores, restored_scores.scores,
                          equal_nan=True)
    assert restored.detector.threshold.threshold == \
        pipeline.detector.threshold.threshold


def test_package_serves_quantized_artifact_and_load_slots_it(tmp_path, dataset):
    spec = _varade_spec(quantization=QuantizationSpec())
    pipeline = Pipeline.from_spec(spec) \
        .fit(dataset.train).calibrate().quantize()
    artifact = pipeline.package(tmp_path / "int8")
    restored = Pipeline.load(artifact)
    assert restored.serving_detector.name == "VARADE-int8"
    assert restored.spec.quantization is not None
    with pytest.raises(PipelineStageError, match="float"):
        _ = restored.detector   # only the int8 artifact was packaged


def test_load_legacy_artifact_without_spec(tmp_path, dataset):
    """Artifacts saved by bare save_detector still load into a pipeline."""
    from repro.serialize import save_detector

    detector = Pipeline.from_spec(_varade_spec()).fit(dataset.train).detector
    save_detector(detector, tmp_path / "legacy")
    restored = Pipeline.load(tmp_path / "legacy")
    assert restored.spec.detector.kind == "varade"
    assert restored.detector.name == "VARADE"


# --------------------------------------------------------------------------- #
# Deployment
# --------------------------------------------------------------------------- #
def test_deploy_stream_matches_raw_runtime(dataset):
    pipeline = Pipeline.from_spec(
        _varade_spec(runtime=RuntimeSpec(sample_rate_hz=50.0))
    ).fit(dataset.train).calibrate()

    result = pipeline.deploy_stream(dataset.test, labels=dataset.test_labels)
    raw = StreamingRuntime(pipeline.detector).run(
        StreamReader(dataset.test, labels=dataset.test_labels, sample_rate=50.0)
    )
    assert np.array_equal(result.scores, raw.scores, equal_nan=True)
    assert np.array_equal(result.alarms, raw.alarms)
    assert result.samples_scored == raw.samples_scored


def test_deploy_stream_honours_max_samples(dataset):
    spec = _varade_spec(runtime=RuntimeSpec(max_samples=20))
    pipeline = Pipeline.from_spec(spec).fit(dataset.train).calibrate()
    assert pipeline.deploy_stream(dataset.test).samples_scored == 20
    # Explicit argument overrides the spec.
    assert pipeline.deploy_stream(dataset.test,
                                  max_samples=10).samples_scored == 10


def test_deploy_fleet_matches_per_stream_runtime(dataset):
    pipeline = Pipeline.from_spec(_varade_spec()).fit(dataset.train).calibrate()
    streams = [dataset.test[:150], dataset.test[50:200]]
    fleet = pipeline.deploy_fleet(streams)
    assert fleet.stats.samples_scored == sum(r.samples_scored for r in fleet)
    for ours, stream in zip(fleet, streams):
        reference = StreamingRuntime(pipeline.detector).run(
            StreamReader(stream, sample_rate=50.0))
        assert np.array_equal(ours.scores, reference.scores, equal_nan=True)
        assert np.array_equal(ours.alarms, reference.alarms)
    with pytest.raises(ValueError, match="one to one"):
        pipeline.deploy_fleet(streams, labels=[None])


def test_deploy_service_from_spec_matches_deploy_stream(dataset):
    """deploy_service wires the serving detector + spec.service settings and
    scores bit-identically to the sequential deploy_stream path."""
    import asyncio

    from repro.pipeline import ServiceSpec

    spec = _varade_spec(service=ServiceSpec(max_batch=8, max_delay_ms=2.0,
                                            backpressure="drop_oldest"))
    pipeline = Pipeline.from_spec(spec).fit(dataset.train).calibrate()
    service = pipeline.deploy_service(record_sessions=True)
    assert service.detector is pipeline.serving_detector
    assert service.config.max_batch == 8
    assert service.config.backpressure == "drop_oldest"
    stream = dataset.test[:120]

    async def main():
        async with service:
            for row in stream:
                await service.push("s0", row)
            session = service.session("s0")
            await service.close_session("s0")
            return session

    session = asyncio.run(main())
    reference = pipeline.deploy_stream(stream)
    np.testing.assert_allclose(session.result().scores, reference.scores,
                               rtol=0.0, atol=0.0, equal_nan=True)
    np.testing.assert_array_equal(session.result().alarms, reference.alarms)


def test_deploy_service_without_service_spec_uses_defaults(dataset):
    pipeline = Pipeline.from_spec(_varade_spec()).fit(dataset.train).calibrate()
    service = pipeline.deploy_service()
    assert service.config.max_batch == 32
    assert service.config.backpressure == "block"
    assert service.adaptation is None


def test_deploy_stream_wires_adaptation_from_spec(dataset):
    spec = _varade_spec(adaptation=AdaptationSpec(min_reservoir=50,
                                                  confirm_samples=16))
    pipeline = Pipeline.from_spec(spec).fit(dataset.train).calibrate()
    result = pipeline.deploy_stream(dataset.test)
    # The adaptive path reports a threshold trace (frozen runs have one only
    # when a threshold exists -- it does here -- but adaptation_events is the
    # telling field: present and a list).
    assert isinstance(result.adaptation_events, list)
    assert result.threshold_trace is not None


def test_refit_clears_stale_quantized_state(dataset):
    spec = _varade_spec(quantization=QuantizationSpec())
    pipeline = Pipeline.from_spec(spec).fit(dataset.train).calibrate().quantize()
    assert pipeline._quantized is not None
    pipeline.fit(dataset.train)
    with pytest.raises(PipelineStageError):
        _ = pipeline.quantized


def test_edge_estimates_for_spec_devices(dataset):
    spec = _varade_spec(runtime=RuntimeSpec(
        devices=("Jetson Xavier NX", "Jetson AGX Orin")))
    pipeline = Pipeline.from_spec(spec).fit(dataset.train)
    estimates = pipeline.edge_estimates()
    assert set(estimates) == {"Jetson Xavier NX", "Jetson AGX Orin"}
    for metrics in estimates.values():
        assert metrics.inference_frequency_hz > 0


def test_run_pipeline_shim(dataset):
    from repro.pipeline import run_pipeline

    report = run_pipeline(_varade_spec(), dataset)
    assert report.float_report.samples_scored > 0


def test_spec_replace_keeps_pipeline_usable(dataset):
    """dataclasses.replace on a spec yields an independent, valid pipeline."""
    base = _varade_spec()
    quantizing = dataclasses.replace(base, quantization=QuantizationSpec())
    assert base.quantization is None
    pipeline = Pipeline.from_spec(quantizing).fit(dataset.train).quantize()
    assert pipeline.quantized.name == "VARADE-int8"
