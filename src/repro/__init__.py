"""Reproduction of VARADE (Mascolini et al., DAC 2024).

``repro`` packages everything the paper's study needs, implemented from
scratch on top of numpy:

* :mod:`repro.core` -- the VARADE detector (variational autoregressive
  forecaster whose predicted variance is the anomaly score);
* :mod:`repro.baselines` -- AR-LSTM, GBRF, convolutional auto-encoder, kNN
  and Isolation Forest;
* :mod:`repro.nn`, :mod:`repro.trees`, :mod:`repro.neighbors` -- the learning
  substrates (autograd NN framework, CART/boosting/isolation forest, kNN);
* :mod:`repro.robot` -- the simulated KUKA robot cell (kinematics, actions,
  IMU and power-meter models, collision injection);
* :mod:`repro.data` -- schema, normalisation, windowing, train/test builders
  and concept-drift scenario generation;
* :mod:`repro.drift` -- online score-stream drift detection and adaptive
  threshold recalibration for the streaming runtimes;
* :mod:`repro.edge` -- Jetson device models, metric estimation, streaming
  runtime;
* :mod:`repro.serve` -- the async serving API: per-stream scoring sessions,
  latency-budgeted micro-batched inference, the asyncio/TCP
  :class:`~repro.serve.AnomalyService` front door (``repro serve``);
* :mod:`repro.eval` -- AUC-ROC and friends, the Table-2 / Figure-3 experiment
  harness, ablations and reporting;
* :mod:`repro.serialize` -- versioned save/load of fitted detectors (npz
  weights + JSON manifest), the deployable edge artifact;
* :mod:`repro.pipeline` -- the unified deployment pipeline: declarative
  :class:`~repro.pipeline.DeploymentSpec`, staged
  :class:`~repro.pipeline.Pipeline` facade and the string-keyed detector
  registry, driven end to end by the ``python -m repro`` CLI
  (:mod:`repro.cli`).
"""

__version__ = "0.1.0"

from . import baselines, core, data, drift, edge, eval, neighbors, nn, robot, serve, trees
from .core import TrainingConfig, VaradeConfig, VaradeDetector
from .data import DatasetConfig, build_benchmark_dataset
from .eval import ExperimentConfig, run_full_experiment
from . import serialize
from .serialize import load_detector, save_detector
from . import pipeline
from .pipeline import DeploymentSpec, Pipeline

__all__ = [
    "baselines",
    "core",
    "data",
    "drift",
    "edge",
    "eval",
    "neighbors",
    "nn",
    "pipeline",
    "robot",
    "serialize",
    "serve",
    "trees",
    "load_detector",
    "save_detector",
    "DeploymentSpec",
    "Pipeline",
    "TrainingConfig",
    "VaradeConfig",
    "VaradeDetector",
    "DatasetConfig",
    "build_benchmark_dataset",
    "ExperimentConfig",
    "run_full_experiment",
    "__version__",
]
