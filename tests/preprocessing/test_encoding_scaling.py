"""Tests for the one feature encoder's steps: one-hot encoding, class
coding and standardization, all on :class:`IDSPreprocessor`."""

import numpy as np
import pytest

from repro.data import NSLKDD_SCHEMA, load_nslkdd
from repro.data.dataset import TrafficRecords
from repro.data.schema import CategoricalFeature, DatasetSchema, NumericFeature
from repro.preprocessing import IDSPreprocessor, one_hot

#: Two numeric columns, then column ``a`` (2 values) and ``b`` (3 values).
TOY_SCHEMA = DatasetSchema(
    name="toy",
    numeric_features=(NumericFeature("bytes"), NumericFeature("rate")),
    categorical_features=(
        CategoricalFeature("a", ("x", "y")),
        CategoricalFeature("b", ("p", "q", "r")),
    ),
    classes=("normal", "dos", "probe"),
    class_priors={"normal": 0.5, "dos": 0.3, "probe": 0.2},
)


def _records(numeric, a, b, labels=None, schema=TOY_SCHEMA):
    numeric = np.asarray(numeric, dtype=np.float64)
    if labels is None:
        labels = ["normal"] * len(numeric)
    return TrafficRecords(
        schema=schema,
        numeric=numeric,
        categorical={
            "a": np.array(a, dtype=object), "b": np.array(b, dtype=object)
        },
        labels=np.array(labels, dtype=object),
    )


def _raw(schema=TOY_SCHEMA):
    """A preprocessor restored with mean 0 and scale 1: its transform is
    the unstandardized feature layout."""
    width = IDSPreprocessor(schema).num_features
    return IDSPreprocessor(schema).restore_state({
        "schema": schema.name,
        "categories": {f.name: f.values for f in schema.categorical_features},
        "classes": schema.classes,
        "scaler_mean": np.zeros(width),
        "scaler_scale": np.ones(width),
    })


def _loop_reference(preprocessor, records):
    """The per-row loop the vectorised encode step replaced: numeric
    columns, then each column's one-hot block (unknown values stay zero),
    then ``(x - mean) / scale``."""
    blocks = [records.numeric]
    for feature in preprocessor.schema.categorical_features:
        index = {value: slot for slot, value in enumerate(feature.values)}
        block = np.zeros((len(records), len(feature.values)))
        for row, value in enumerate(records.categorical[feature.name]):
            slot = index.get(str(value))
            if slot is not None:
                block[row, slot] = 1.0
        blocks.append(block)
    state = preprocessor.export_state()
    raw = np.concatenate(blocks, axis=1)
    return (raw - state["scaler_mean"]) / state["scaler_scale"]


class TestOneHotFunction:
    def test_basic(self):
        encoded = one_hot(np.array([0, 2, 1]), 3)
        assert np.allclose(encoded, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            one_hot(np.array([0, 3]), 3)

    def test_empty(self):
        assert one_hot(np.array([], dtype=int), 4).shape == (0, 4)


class TestOneHotEncoder:
    """The one-hot step: the schema's declared vocabularies fix the layout."""

    def test_declared_vocabulary_fixes_width(self):
        preprocessor = IDSPreprocessor(TOY_SCHEMA).fit(
            _records([[1.0, 2.0]], ["x"], ["p"])
        )
        prepared = preprocessor.transform(
            _records([[0.0, 0.0], [1.0, 1.0]], ["y", "y"], ["q", "r"])
        )
        assert preprocessor.num_features == 2 + 2 + 3
        assert prepared.inputs.shape == (2, 1, 7)

    def test_unknown_value_ignored_by_default(self):
        inputs, unknown = _raw().transform_inputs(
            _records([[0.0, 0.0], [0.0, 0.0]], ["gre", "x"], ["p", "ftp"])
        )
        np.testing.assert_array_equal(
            inputs[:, 0, 2:], [[0, 0, 1, 0, 0], [1, 0, 0, 0, 0]]
        )
        assert unknown == {"a": 1, "b": 1}

    def test_transform_before_fit(self):
        with pytest.raises(RuntimeError, match="fitted"):
            IDSPreprocessor(TOY_SCHEMA).transform(_records([[0.0, 0.0]], ["x"], ["p"]))

    def test_missing_column_rejected(self):
        records = _records([[0.0, 0.0]], ["x"], ["p"])
        del records.categorical["b"]
        with pytest.raises(KeyError, match="b"):
            _raw().transform(records)

    def test_feature_names(self):
        """Within a block, slots follow the declared vocabulary order."""
        prepared = _raw().transform(
            _records([[0.0, 0.0]] * 3, ["x", "x", "x"], ["p", "q", "r"])
        )
        np.testing.assert_array_equal(prepared.flat_inputs[:, 4:], np.eye(3))

    def test_multiple_columns_concatenated_in_order(self):
        prepared = _raw().transform(
            _records([[7.0, 8.0], [9.0, 10.0]], ["x", "y"], ["r", "p"])
        )
        np.testing.assert_array_equal(
            prepared.flat_inputs,
            [[7, 8, 1, 0, 0, 0, 1], [9, 10, 0, 1, 1, 0, 0]],
        )

    def test_vectorised_encode_equals_a_per_row_loop(self):
        """Bit for bit, on both outputs, with drifted values mixed in."""
        train = load_nslkdd(n_records=300, seed=2)
        batch = load_nslkdd(n_records=200, seed=3)
        for name in NSLKDD_SCHEMA.categorical_names:
            batch.categorical[name][::7] = "never-seen"
        preprocessor = IDSPreprocessor(NSLKDD_SCHEMA).fit(train)
        reference = _loop_reference(preprocessor, batch)
        np.testing.assert_array_equal(
            preprocessor.transform(batch).flat_inputs, reference
        )
        inputs, unknown = preprocessor.transform_inputs(batch)
        np.testing.assert_array_equal(inputs[:, 0, :], reference.astype(np.float32))
        assert unknown == {name: 29 for name in NSLKDD_SCHEMA.categorical_names}


class TestLabelEncoder:
    """Class coding: the schema's class order, no fitting needed."""

    def test_fit_transform_roundtrip(self):
        preprocessor = IDSPreprocessor(TOY_SCHEMA)
        labels = ["dos", "normal", "dos", "probe"]
        records = _records([[0.0, 0.0]] * 4, ["x"] * 4, ["p"] * 4, labels)
        encoded = preprocessor.encode_labels(records)
        assert encoded.dtype == np.int64
        assert list(preprocessor.decode_labels(encoded)) == labels

    def test_declared_classes_preserve_order(self):
        records = _records([[0.0, 0.0]] * 2, ["x"] * 2, ["p"] * 2, ["dos", "normal"])
        assert list(IDSPreprocessor(TOY_SCHEMA).encode_labels(records)) == [1, 0]

    def test_unknown_label(self):
        records = _records([[0.0, 0.0]], ["x"], ["p"])
        records.labels = np.array(["worm"], dtype=object)
        with pytest.raises(ValueError, match="unknown label 'worm'"):
            IDSPreprocessor(TOY_SCHEMA).encode_labels(records)

    def test_inverse_out_of_range(self):
        preprocessor = IDSPreprocessor(TOY_SCHEMA)
        for ids in ([5], [-1]):
            with pytest.raises(ValueError, match="class ids"):
                preprocessor.decode_labels(np.array(ids))

    def test_transform_before_fit(self):
        """Labels code before any fit; only the features need statistics."""
        records = _records([[0.0, 0.0]], ["x"], ["p"], ["probe"])
        preprocessor = IDSPreprocessor(TOY_SCHEMA)
        assert list(preprocessor.encode_labels(records)) == [2]
        with pytest.raises(RuntimeError, match="fitted"):
            preprocessor.transform(records)

    def test_num_classes(self):
        preprocessor = IDSPreprocessor(TOY_SCHEMA)
        assert preprocessor.class_names == ["normal", "dos", "probe"]
        assert preprocessor.normal_index == 0
        prepared = _raw().transform(_records([[0.0, 0.0]], ["x"], ["p"]))
        assert prepared.num_classes == 3


class TestStandardScaler:
    """The standardization step: ``(x - mean) / scale``, fitted by ``fit``."""

    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        records = _records(
            rng.normal(loc=7.0, scale=3.0, size=(500, 2)),
            rng.choice(["x", "y"], 500), rng.choice(["p", "q", "r"], 500),
        )
        scaled = IDSPreprocessor(TOY_SCHEMA).fit_transform(records).flat_inputs
        assert np.allclose(scaled.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(scaled.std(axis=0), 1.0, atol=1e-10)

    def test_constant_column_not_divided_by_zero(self):
        records = _records(
            np.column_stack([np.ones(10), np.arange(10.0)]), ["x"] * 10, ["p"] * 10
        )
        preprocessor = IDSPreprocessor(TOY_SCHEMA)
        scaled = preprocessor.fit_transform(records).flat_inputs
        assert np.all(np.isfinite(scaled))
        # The constant numeric column and every constant one-hot slot keep
        # scale 1: centred, not divided.
        np.testing.assert_array_equal(scaled[:, [0, 2, 3, 4, 5, 6]], 0.0)
        np.testing.assert_array_equal(
            preprocessor.export_state()["scaler_scale"][[0, 2, 3, 4, 5, 6]], 1.0
        )

    def test_transform_uses_training_statistics(self):
        preprocessor = IDSPreprocessor(TOY_SCHEMA).fit(
            _records(np.full((10, 2), 5.0), ["x"] * 10, ["p"] * 10)
        )
        scaled = preprocessor.transform(
            _records(np.full((3, 2), 5.0), ["x"] * 3, ["p"] * 3)
        ).flat_inputs
        np.testing.assert_array_equal(scaled, 0.0)

    def test_feature_count_mismatch(self):
        state = _raw().export_state()
        state["scaler_mean"] = np.zeros(8)
        with pytest.raises(ValueError, match="encoded width 7"):
            IDSPreprocessor(TOY_SCHEMA).restore_state(state)

    def test_requires_2d(self):
        """The statistics are one value per encoded column."""
        state = _raw().export_state()
        state["scaler_scale"] = np.ones((1, 7))
        with pytest.raises(ValueError, match="encoded width"):
            IDSPreprocessor(TOY_SCHEMA).restore_state(state)

    def test_transform_before_fit(self):
        preprocessor = IDSPreprocessor(TOY_SCHEMA)
        with pytest.raises(RuntimeError, match="fitted"):
            preprocessor.transform_inputs(_records([[0.0, 0.0]], ["x"], ["p"]))
        with pytest.raises(RuntimeError, match="fitted"):
            preprocessor.export_state()


class TestNonFiniteFeatures:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_entry_point_names_the_column(self, bad):
        fitted = _raw()
        records = _records([[0.0, 1.0], [2.0, bad]], ["x", "y"], ["p", "q"])
        for encode in (
            IDSPreprocessor(TOY_SCHEMA).fit, fitted.transform, fitted.transform_inputs
        ):
            with pytest.raises(ValueError, match=r"non-finite.*\['rate'\]"):
                encode(records)
