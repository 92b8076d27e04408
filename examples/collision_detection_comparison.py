"""Compare VARADE against the paper's five baselines on the collision task.

Reproduces the accuracy side of the paper's evaluation (Section 4.4): every
detector is trained on the same normal recording, scored on the same
collision experiment, and ranked by AUC-ROC.  This is the workload the
paper's introduction motivates: detecting human/robot collisions from the
86-channel sensor stream of a production cell.

Run with:  python examples/collision_detection_comparison.py
"""

from __future__ import annotations

import time

from repro.data import DatasetConfig, build_benchmark_dataset
from repro.eval import (PAPER_AUC, evaluate_detector, format_comparison,
                        study_specs)
from repro.pipeline import Pipeline


def main() -> None:
    dataset = build_benchmark_dataset(DatasetConfig(
        train_duration_s=90.0,
        test_duration_s=60.0,
        n_collisions=20,
        sample_rate=50.0,
        seed=0,
    ))
    print(f"dataset: {dataset.summary()}\n")

    specs = study_specs(
        n_channels=dataset.n_channels,
        window=32,
        neural_epochs=4,
        max_train_windows=600,
        varade_feature_maps=16,
        seed=0,
    )

    rows = []
    # Each study entry is a declarative DeploymentSpec the pipeline builds.
    for spec in specs.values():
        detector = Pipeline.from_spec(spec).build_detector()
        start = time.perf_counter()
        evaluation = evaluate_detector(detector, dataset)
        rows.append(evaluation)
        print(f"{evaluation.name:<18} AUC-ROC={evaluation.auc_roc:.3f}  "
              f"AP={evaluation.average_precision:.3f}  best-F1={evaluation.best_f1:.3f}  "
              f"train={evaluation.train_time_s:5.1f}s  "
              f"host scoring rate={evaluation.host_score_hz:8.1f} Hz  "
              f"(total {time.perf_counter() - start:.1f}s)")

    print()
    ranked = sorted(rows, key=lambda e: -e.auc_roc)
    print("ranking by AUC-ROC: " + " > ".join(e.name for e in ranked))
    print()
    print(format_comparison({e.name: e.auc_roc for e in rows}, PAPER_AUC, "AUC-ROC",
                            title="paper vs reproduction -- AUC-ROC"))


if __name__ == "__main__":
    main()
