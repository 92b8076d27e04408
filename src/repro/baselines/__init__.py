"""Baseline anomaly detectors benchmarked against VARADE in the paper:
AR-LSTM, GBRF, convolutional auto-encoder, kNN and Isolation Forest.
"""

from .ar_lstm import ARLSTMConfig, ARLSTMDetector
from .autoencoder import AutoencoderConfig, AutoencoderDetector
from .gbrf import GBRFConfig, GBRFDetector
from .isolation_forest import IsolationForestConfig, IsolationForestDetector
from .knn import KNNConfig, KNNDetector

__all__ = [
    "ARLSTMConfig",
    "ARLSTMDetector",
    "AutoencoderConfig",
    "AutoencoderDetector",
    "GBRFConfig",
    "GBRFDetector",
    "IsolationForestConfig",
    "IsolationForestDetector",
    "KNNConfig",
    "KNNDetector",
]
