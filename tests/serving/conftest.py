"""Shared fixtures for the serving suite: small fitted detectors and a
per-test resource-leak check.

Fitting even a 1-block detector dominates the suite's runtime, so the
service, worker-pool, sharding, fleet and scenario-suite tests all share
these package-scoped fixtures (built once per test session) instead of
training their own:

* ``detector`` — the NSL-KDD detector used by most of the suite;
* ``unsw_detector`` — its UNSW-NB15 counterpart;
* ``fleet_detectors`` — both, keyed by schema name, the cheap two-corpus
  fixture behind the cross-dataset fleet tests (ROADMAP: "cross-dataset
  fleet example").

The autouse ``_no_leaked_serving_resources`` fixture asserts after every
test that nothing the serving layer spawns survives it: no extra
non-daemon threads and no live child processes.  The check itself lives
in the root ``conftest.py`` (``serving_leak_check``) so the ingest suite's
ingress tests are held to the same standard.
"""

import pytest

from repro.core import PelicanDetector
from repro.data import (
    NSLKDD_SCHEMA,
    UNSWNB15_SCHEMA,
    load_nslkdd,
    load_unswnb15,
)


@pytest.fixture(autouse=True)
def _no_leaked_serving_resources(serving_leak_check):
    """Fail any serving test that leaks a thread or a child process past
    its own teardown (see root conftest)."""
    yield


@pytest.fixture(scope="package")
def detector():
    records = load_nslkdd(n_records=400, seed=11)
    detector = PelicanDetector(
        NSLKDD_SCHEMA, num_blocks=1, epochs=2, batch_size=64,
        dropout_rate=0.3, seed=0,
    )
    detector.fit(records)
    return detector


@pytest.fixture(scope="package")
def unsw_detector():
    records = load_unswnb15(n_records=400, seed=11)
    detector = PelicanDetector(
        UNSWNB15_SCHEMA, num_blocks=1, epochs=2, batch_size=64,
        dropout_rate=0.3, seed=0,
    )
    detector.fit(records)
    return detector


@pytest.fixture(scope="package")
def fleet_detectors(detector, unsw_detector):
    """Two-corpus detector fleet keyed by schema name."""
    return {"nsl-kdd": detector, "unsw-nb15": unsw_detector}


@pytest.fixture()
def traffic():
    return load_nslkdd(n_records=150, seed=12)
