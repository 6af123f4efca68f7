"""Fixtures for the raw-event ingestion suite.

Every test here carries the ``ingest`` marker (module-level ``pytestmark``
in each file, select with ``pytest -m ingest``) and the serving layer's
resource-leak check — the ingress tests drive real services and worker
pools, and are held to the same no-leak standard as the serving suite (root ``conftest.py``, ``serving_leak_check``).

The ``detector`` fixture mirrors the serving suite's: fitting even a
1-block detector dominates runtime, so the cross-model ingress tests share
one package-scoped NSL-KDD detector instead of training their own.
"""

import pytest

from repro.core import PelicanDetector
from repro.data import NSLKDD_SCHEMA, load_nslkdd
from repro.data.nslkdd import nslkdd_generator


@pytest.fixture(autouse=True)
def _no_leaked_ingest_resources(serving_leak_check):
    """Hold ingress tests to the serving suite's no-leak contract."""
    yield


@pytest.fixture(scope="package")
def generator():
    return nslkdd_generator()


@pytest.fixture(scope="package")
def detector():
    records = load_nslkdd(n_records=400, seed=11)
    detector = PelicanDetector(
        NSLKDD_SCHEMA, num_blocks=1, epochs=2, batch_size=64,
        dropout_rate=0.3, seed=0,
    )
    detector.fit(records)
    return detector
