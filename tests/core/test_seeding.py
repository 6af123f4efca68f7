"""A detector's seed alone determines its network.

Every layer's generator is spawned from the seed of the model that owns
it, so what a process built before a detector cannot move the detector's
initial weights, dropout masks or batch order.
"""

import numpy as np
import pytest

from repro.core import PelicanDetector, build_network
from repro.data import NSLKDD_SCHEMA, load_nslkdd


@pytest.fixture(scope="module")
def records():
    return load_nslkdd(n_records=300, seed=2)


def _detector(seed=0):
    return PelicanDetector(
        NSLKDD_SCHEMA, num_blocks=2, epochs=1, batch_size=64, seed=seed
    )


def _state(network):
    return network.get_weights() + network.get_buffers()


def _assert_identical(first, second):
    assert len(first) == len(second)
    assert all(np.array_equal(a, b) for a, b in zip(first, second))


def test_same_seed_fits_are_bit_identical_in_one_process(records):
    first = _detector()
    first.fit(records)
    # An unrelated network built (and run) between the two fits.
    other = build_network(3, 5, first.config, residual=False, seed=9)
    other.predict(np.zeros((2, 1, NSLKDD_SCHEMA.num_encoded_features)))
    second = _detector()
    second.fit(records)
    _assert_identical(_state(first.network), _state(second.network))


def test_build_untrained_is_repeatable():
    detector = _detector()
    features = NSLKDD_SCHEMA.num_encoded_features
    first = detector.build_untrained(5, features)
    second = detector.build_untrained(5, features)
    _assert_identical(_state(first), _state(second))


def test_a_challenger_is_reproduced_from_its_seed(records):
    champion = _detector(seed=0)
    challenger = champion.clone_architecture(seed=4)
    challenger.fit(records)
    replay = champion.clone_architecture(seed=4)
    replay.fit(records)
    _assert_identical(_state(challenger.network), _state(replay.network))
