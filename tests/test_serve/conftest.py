"""Shared fixtures for the serving-API suite.

The parity fixtures mirror ``tests/test_edge/test_fleet_parity.py``: all six
study detectors trained tiny (seconds, not minutes) but through their real
code paths, plus a set of unequal-length test streams with one injected
anomaly burst.  Stream generation lives in ``serve_helpers.py`` so the test
modules can import it directly.
"""

import pytest

from repro.data import StreamReader
from repro.eval import study_specs
from repro.pipeline import Pipeline

from serve_helpers import N_CHANNELS, STREAM_LENGTHS, WINDOW, make_stream


@pytest.fixture(scope="session")
def train_stream():
    return make_stream(220, seed=0)[0]


@pytest.fixture(scope="session")
def detectors(train_stream):
    """All six study detectors, trained tiny but through their real code paths."""
    specs = study_specs(
        n_channels=N_CHANNELS,
        window=WINDOW,
        neural_epochs=1,
        max_train_windows=80,
        varade_feature_maps=2,
        varade_epochs=2,
        varade_warmup_epochs=1,
        lstm_hidden=8,
        seed=0,
    )
    return {name: Pipeline.from_spec(spec).build_detector().fit(train_stream)
            for name, spec in specs.items()}


@pytest.fixture(scope="session")
def streams():
    """Unequal-length test streams, one with injected anomalies."""
    return [
        make_stream(length, seed=30 + index, anomaly=index == 0)
        for index, length in enumerate(STREAM_LENGTHS)
    ]


@pytest.fixture(scope="session")
def readers(streams):
    return [StreamReader(data, labels=labels) for data, labels in streams]
