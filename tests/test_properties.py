"""Property-based tests (hypothesis) on the core data structures and invariants.

These cover the properties that must hold for *any* input, not just the
examples in the unit tests: autodiff linearity, metric ranges and identities,
encoder/scaler invariants and the residual block's identity property.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.metrics import (
    accuracy,
    binary_confusion_counts,
    confusion_matrix,
    detection_rate,
    evaluate_detection,
    false_alarm_rate,
)
from repro.nn import tensor as ops
from repro.nn.tensor import Tensor
from repro.data.dataset import TrafficRecords
from repro.data.schema import CategoricalFeature, DatasetSchema, NumericFeature
from repro.preprocessing import IDSPreprocessor, one_hot
from repro.preprocessing.kfold import KFold, StratifiedKFold

# Keep hypothesis fast and deterministic enough for CI-style runs.
SETTINGS = settings(max_examples=30, deadline=None)

finite_floats = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


_CLASSES = ("normal", "dos", "probe", "r2l", "u2r")


def _schema(n_numeric, vocabulary=()):
    """A schema of ``n_numeric`` numeric columns and, given a vocabulary,
    one categorical column ``proto``."""
    return DatasetSchema(
        name="property",
        numeric_features=tuple(NumericFeature(f"f{i}") for i in range(n_numeric)),
        categorical_features=(
            (CategoricalFeature("proto", tuple(vocabulary)),) if vocabulary else ()
        ),
        classes=_CLASSES,
        class_priors={name: 1 / len(_CLASSES) for name in _CLASSES},
    )


def _records(schema, numeric, proto=None, labels=None):
    n_records = len(numeric)
    return TrafficRecords(
        schema=schema,
        numeric=numeric,
        categorical={} if proto is None else {"proto": np.array(proto, dtype=object)},
        labels=np.array(labels or ["normal"] * n_records, dtype=object),
    )


def small_matrices(max_side=6):
    return arrays(
        dtype=np.float64,
        shape=array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=max_side),
        elements=finite_floats,
    )


class TestAutodiffProperties:
    @SETTINGS
    @given(small_matrices())
    def test_sum_gradient_is_ones(self, values):
        tensor = Tensor(values, requires_grad=True)
        tensor.sum().backward()
        assert np.allclose(tensor.grad, np.ones_like(values))

    @SETTINGS
    @given(small_matrices(), st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
    def test_scaling_gradient_matches_scale(self, values, scale):
        tensor = Tensor(values, requires_grad=True)
        (tensor * scale).sum().backward()
        assert np.allclose(tensor.grad, scale)

    @SETTINGS
    @given(small_matrices())
    def test_relu_output_nonnegative_and_bounded_by_input(self, values):
        out = ops.relu(Tensor(values)).data
        assert (out >= 0).all()
        assert (out <= np.maximum(values, 0.0) + 1e-12).all()

    @SETTINGS
    @given(small_matrices())
    def test_softmax_is_probability_distribution(self, values):
        out = ops.softmax(Tensor(values)).data
        assert np.all(out >= 0)
        assert np.allclose(out.sum(axis=-1), 1.0)

    @SETTINGS
    @given(small_matrices())
    def test_addition_commutes(self, values):
        a = Tensor(values)
        b = Tensor(values[::-1].copy())
        assert np.allclose((a + b).data, (b + a).data)

    @SETTINGS
    @given(small_matrices())
    def test_reshape_preserves_sum(self, values):
        tensor = Tensor(values)
        flat = tensor.reshape(values.size)
        assert flat.data.sum() == pytest.approx(values.sum(), rel=1e-9, abs=1e-9)


class TestMetricProperties:
    @SETTINGS
    @given(
        st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=200),
        st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=200),
    )
    def test_binary_counts_sum_to_total(self, y_true, y_pred):
        length = min(len(y_true), len(y_pred))
        y_true, y_pred = np.array(y_true[:length]), np.array(y_pred[:length])
        counts = binary_confusion_counts(y_true, y_pred)
        assert sum(counts.values()) == length

    @SETTINGS
    @given(
        st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=150),
        st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=150),
    )
    def test_metric_ranges(self, y_true, y_pred):
        length = min(len(y_true), len(y_pred))
        report = evaluate_detection(
            np.array(y_true[:length]), np.array(y_pred[:length]), normal_index=0
        )
        for value in (report.accuracy, report.detection_rate, report.false_alarm_rate,
                      report.precision, report.f1):
            assert 0.0 <= value <= 1.0

    @SETTINGS
    @given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=150))
    def test_perfect_prediction_is_perfect(self, labels):
        labels = np.array(labels)
        report = evaluate_detection(labels, labels, normal_index=0)
        assert report.accuracy == 1.0
        assert report.false_alarm_rate == 0.0
        # DR is 1 whenever there is at least one attack, else 0 by convention.
        assert report.detection_rate in (0.0, 1.0)

    @SETTINGS
    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=100),
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=100),
    )
    def test_confusion_matrix_total_and_nonnegative(self, y_true, y_pred):
        length = min(len(y_true), len(y_pred))
        matrix = confusion_matrix(y_true[:length], y_pred[:length], num_classes=4)
        assert matrix.sum() == length
        assert (matrix >= 0).all()

    @SETTINGS
    @given(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=500),
    )
    def test_accuracy_dr_far_consistency(self, tp, tn, fp, fn):
        counts = {"tp": tp, "tn": tn, "fp": fp, "fn": fn}
        assert 0.0 <= accuracy(counts) <= 1.0
        assert 0.0 <= detection_rate(counts) <= 1.0
        assert 0.0 <= false_alarm_rate(counts) <= 1.0


class TestPreprocessingProperties:
    @SETTINGS
    @given(
        arrays(
            dtype=np.float64,
            shape=array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=30),
            elements=finite_floats,
        )
    )
    def test_standard_scaler_output_statistics(self, values):
        schema = _schema(values.shape[1])
        scaled = IDSPreprocessor(schema).fit_transform(
            _records(schema, values)
        ).flat_inputs
        assert np.all(np.isfinite(scaled))
        # Columns that are (numerically) constant are only centred, and columns
        # whose spread is at the limit of float precision cannot be checked
        # meaningfully, so the statistical assertions apply to well-conditioned
        # columns only.
        spread = values.std(axis=0)
        informative = spread > 1e-6 * np.maximum(np.abs(values).max(axis=0), 1.0)
        assert np.allclose(scaled.mean(axis=0)[informative], 0.0, atol=1e-7)
        assert np.allclose(scaled.std(axis=0)[informative], 1.0, atol=1e-7)

    @SETTINGS
    @given(
        st.lists(
            st.sampled_from(["tcp", "udp", "icmp", "gre", "sctp"]),
            min_size=1,
            max_size=100,
        )
    )
    def test_one_hot_encoder_row_sums(self, values):
        """A declared value sets one slot, any other none; the width is the
        vocabulary's whatever the batch holds."""
        vocabulary = ("tcp", "udp", "icmp")
        schema = _schema(0, vocabulary)
        preprocessor = IDSPreprocessor(schema).restore_state({
            "schema": schema.name,
            "categories": {"proto": vocabulary},
            "classes": _CLASSES,
            "scaler_mean": np.zeros(3),
            "scaler_scale": np.ones(3),
        })
        inputs, unknown = preprocessor.transform_inputs(
            _records(schema, np.zeros((len(values), 0)), values)
        )
        known = np.isin(values, vocabulary)
        assert inputs.shape == (len(values), 1, 3)
        np.testing.assert_array_equal(inputs[:, 0].sum(axis=1), known)
        assert unknown == ({"proto": int((~known).sum())} if not known.all() else {})

    @SETTINGS
    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=100))
    def test_one_hot_argmax_roundtrip(self, indices):
        encoded = one_hot(np.array(indices), 10)
        assert np.array_equal(np.argmax(encoded, axis=1), indices)
        assert encoded.sum() == len(indices)

    @SETTINGS
    @given(
        st.lists(
            st.sampled_from(["normal", "dos", "probe", "r2l", "u2r"]),
            min_size=1,
            max_size=80,
        )
    )
    def test_label_encoder_roundtrip(self, labels):
        schema = _schema(1)
        preprocessor = IDSPreprocessor(schema)
        encoded = preprocessor.encode_labels(
            _records(schema, np.zeros((len(labels), 1)), labels=labels)
        )
        assert list(preprocessor.decode_labels(encoded)) == labels

    @SETTINGS
    @given(
        st.integers(min_value=10, max_value=300),
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=0, max_value=1000),
    )
    def test_kfold_is_a_partition(self, n_samples, n_splits, seed):
        splitter = KFold(n_splits=n_splits, seed=seed)
        seen = []
        for train, test in splitter.split(n_samples):
            assert len(np.intersect1d(train, test)) == 0
            assert len(train) + len(test) == n_samples
            seen.extend(test.tolist())
        assert sorted(seen) == list(range(n_samples))

    @SETTINGS
    @given(
        st.lists(st.sampled_from(["a", "b", "c"]), min_size=12, max_size=200),
        st.integers(min_value=2, max_value=4),
    )
    def test_stratified_kfold_is_a_partition(self, labels, n_splits):
        labels = np.array(labels, dtype=object)
        splitter = StratifiedKFold(n_splits=n_splits, seed=0)
        seen = []
        for train, test in splitter.split(labels):
            assert len(np.intersect1d(train, test)) == 0
            seen.extend(test.tolist())
        assert sorted(seen) == list(range(len(labels)))


class TestResidualBlockProperty:
    @SETTINGS
    @given(
        arrays(
            dtype=np.float64,
            shape=st.tuples(
                st.integers(min_value=2, max_value=6),
                st.just(1),
                st.just(8),
            ),
            elements=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        )
    )
    def test_zeroed_transform_path_reduces_to_shortcut(self, values):
        """For any input, zeroing the GRU makes the residual block an identity
        over the first BN output — the property residual learning relies on."""
        from repro.core import ResidualBlock

        block = ResidualBlock(8, 3, 8, dropout_rate=0.0, seed=0)
        block(values)  # build
        for parameter in block.recurrent.parameters():
            parameter.data[...] = 0.0
        expected = block.input_norm(values, training=False).data
        out = block(values, training=False).data
        assert np.allclose(out, expected, atol=1e-8)
