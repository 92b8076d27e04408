"""Experiment D1 -- online drift adaptation: precision recovered vs frozen.

A deployed detector's threshold is calibrated against the anomaly-score
distribution of normal data; concept drift moves that distribution and the
frozen threshold either alarms on everything (upward score shift) or goes
blind.  This benchmark measures what :mod:`repro.drift` buys on the seeded
drift scenarios of :func:`repro.data.build_drift_scenario`:

* **Recovery** -- on the mean-shift scenario, the adaptive runtime must
  recover >= 80% of pre-drift alarm precision in the post-settle steady
  state while the frozen baseline retains < 30%.
* **Detection delay** -- the confirmed recalibration must answer the drift
  within ``DELAY_BUDGET`` samples.
* **No-drift identity** -- with no drift in the stream, the adaptive
  runtime (single-stream and fleet) must score and alarm bit-identically
  to the non-adaptive path, with zero adaptation events.

The scorecard table for all four drift kinds is printed for inspection;
only the mean-shift row is an acceptance gate (the channel-dropout kind
produces a much smaller score shift and is a known-hard case the table
keeps honest).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_drift_adaptation.py -q -s
"""

import numpy as np
import pytest

from repro.data import DRIFT_KINDS, StreamReader, build_drift_scenario
from repro.edge import StreamingRuntime
from repro.eval import compare_adaptation
from repro.pipeline import (AdaptationSpec, DeploymentSpec, DetectorSpec,
                            Pipeline)

SEED = 11
N_TEST = 3600            # long enough for the full refinement schedule to land
REQUIRED_RECOVERY = 0.80
FROZEN_CEILING = 0.30
DELAY_BUDGET = 400       # samples from drift onset to the answering recalibration


def _fitted_pipeline(scenario, adaptation=AdaptationSpec()):
    """Fit + calibrate the kNN deployment through the declarative pipeline.

    ``AdaptationSpec()`` carries the ``AdaptationPolicy()`` defaults; ``None``
    is the same (deterministic) fit with the threshold frozen.
    """
    spec = DeploymentSpec(
        detector=DetectorSpec(kind="knn",
                              params={"n_channels": scenario.n_channels,
                                      "max_reference_points": 800}),
        adaptation=adaptation,
        seed=0,
    )
    return Pipeline.from_spec(spec).fit(scenario.train).calibrate()


def _run_pair(scenario):
    pipeline = _fitted_pipeline(scenario)
    # Frozen baseline: the raw runtime without the spec's adaptation policy.
    frozen = StreamingRuntime(pipeline.detector).run(
        StreamReader(scenario.stream, scenario.labels)
    )
    adaptive = pipeline.deploy_stream(scenario.stream, labels=scenario.labels)
    return frozen, adaptive


@pytest.fixture(scope="module")
def scenario_reports():
    reports = {}
    for kind in DRIFT_KINDS:
        scenario = build_drift_scenario(kind, n_test=N_TEST, seed=SEED)
        frozen, adaptive = _run_pair(scenario)
        reports[kind] = compare_adaptation(frozen, adaptive, scenario.drift_start)
    return reports


def test_drift_adaptation_scorecard(scenario_reports):
    """Print the frozen-vs-adaptive scorecard; gate on the mean-shift row."""
    print()
    print(f"drift adaptation -- kNN detector, {N_TEST} test samples, "
          f"drift at 1200, seed {SEED}")
    print(f"{'scenario':>16} {'delay':>6} {'settle':>7} {'pre prec':>9} "
          f"{'frozen':>7} {'adaptive':>9} {'recovered':>10} {'far':>6}")
    for kind, report in scenario_reports.items():
        print(f"{kind:>16} {report.detection_delay:>6.0f} "
              f"{report.settle_samples:>7d} {report.pre_drift_precision:>9.3f} "
              f"{report.post_precision_frozen:>7.3f} "
              f"{report.post_precision_adaptive:>9.3f} "
              f"{report.precision_recovered:>9.1%} "
              f"{report.post_far_adaptive:>6.3f}")

    mean_shift = scenario_reports["mean_shift"]
    assert np.isfinite(mean_shift.detection_delay), \
        "adaptive runtime never answered the mean-shift drift"
    assert mean_shift.detection_delay <= DELAY_BUDGET, (
        f"mean-shift detection delay {mean_shift.detection_delay:.0f} exceeds "
        f"the {DELAY_BUDGET}-sample budget"
    )
    assert mean_shift.precision_recovered >= REQUIRED_RECOVERY, (
        f"adaptive runtime recovered only "
        f"{mean_shift.precision_recovered:.1%} of pre-drift precision "
        f"(required {REQUIRED_RECOVERY:.0%})"
    )
    assert mean_shift.frozen_precision_retained < FROZEN_CEILING, (
        f"frozen baseline retained {mean_shift.frozen_precision_retained:.1%} "
        f"precision -- the scenario is not stressing the frozen threshold"
    )
    # The adaptive runtime must also not trade precision for blindness:
    # the same anomalies the frozen runtime catches must still alarm.
    assert mean_shift.post_precision_adaptive > 0.5


def test_mean_shift_false_alarms_controlled(scenario_reports):
    """Post-settle false-alarm rate must return to the pre-drift regime."""
    report = scenario_reports["mean_shift"]
    assert report.post_far_frozen > 0.5, \
        "frozen baseline should be alarming on most shifted normal samples"
    assert report.post_far_adaptive <= max(
        5.0 * report.pre_drift_false_alarm_rate, 0.02
    ), (
        f"adaptive post-drift false-alarm rate {report.post_far_adaptive:.3f} "
        f"did not return to the pre-drift regime "
        f"({report.pre_drift_false_alarm_rate:.3f})"
    )


def test_no_drift_streams_bit_identical():
    """Adaptation must be a no-op -- bit for bit -- on drift-free streams."""
    scenario = build_drift_scenario("mean_shift", n_test=1500, seed=SEED)
    pipeline = _fitted_pipeline(scenario)
    detector = pipeline.detector
    # A drift-free stream with the same anomaly bursts: scenario.train is
    # clean; reuse the generator's base by clipping the test stream before
    # the drift onset (anomalies included).
    clean = scenario.stream[: scenario.drift_start]
    labels = scenario.labels[: scenario.drift_start]

    plain = StreamingRuntime(detector).run(StreamReader(clean, labels))
    adaptive = pipeline.deploy_stream(clean, labels=labels)
    assert adaptive.adaptation_events == []
    assert np.array_equal(plain.scores, adaptive.scores, equal_nan=True)
    assert np.array_equal(plain.alarms, adaptive.alarms)

    fleet_plain = _fitted_pipeline(scenario, adaptation=None).deploy_fleet(
        [clean, clean], labels=[labels, labels])
    fleet_adaptive = pipeline.deploy_fleet([clean, clean], labels=[labels, labels])
    for plain_stream, adaptive_stream in zip(fleet_plain, fleet_adaptive):
        assert adaptive_stream.adaptation_events == []
        assert np.array_equal(plain_stream.scores, adaptive_stream.scores,
                              equal_nan=True)
        assert np.array_equal(plain_stream.alarms, adaptive_stream.alarms)
    print("\nno-drift identity: single-stream and fleet bit-identical, "
          "0 adaptation events")
