"""Tests for the configuration registry, the Trainer protocol and PelicanDetector."""

import gc
import weakref

import numpy as np
import pytest

from repro.core import (
    PAPER_SETTINGS,
    SCALES,
    ExperimentScale,
    NetworkConfig,
    PelicanDetector,
    Trainer,
    build_residual_network,
    compile_for_paper,
    get_paper_config,
    get_scale,
    scaled_config,
)
from repro.data import NSLKDD_SCHEMA, load_nslkdd
from repro.preprocessing import IDSPreprocessor

TINY = NetworkConfig(
    filters=121, kernel_size=3, recurrent_units=121, dropout_rate=0.2,
    epochs=2, learning_rate=0.01, batch_size=64,
)


class TestNetworkConfig:
    def test_paper_settings_match_table1(self):
        unsw = PAPER_SETTINGS["unsw-nb15"]
        assert (unsw.filters, unsw.kernel_size, unsw.recurrent_units) == (196, 10, 196)
        assert (unsw.dropout_rate, unsw.epochs) == (0.6, 100)
        assert (unsw.learning_rate, unsw.batch_size) == (0.01, 4000)

        nsl = PAPER_SETTINGS["nsl-kdd"]
        assert (nsl.filters, nsl.recurrent_units, nsl.epochs) == (121, 121, 50)

    def test_filters_equal_encoded_features(self):
        # Section V-C: filters and recurrent units must equal the input width.
        assert PAPER_SETTINGS["nsl-kdd"].filters == NSLKDD_SCHEMA.num_encoded_features

    def test_with_updates(self):
        updated = PAPER_SETTINGS["nsl-kdd"].with_updates(epochs=3)
        assert updated.epochs == 3
        assert updated.filters == 121
        assert PAPER_SETTINGS["nsl-kdd"].epochs == 50  # original untouched

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"filters": 0},
            {"dropout_rate": 1.0},
            {"epochs": 0},
            {"learning_rate": 0.0},
            {"batch_size": 0},
        ],
    )
    def test_invalid_values(self, kwargs):
        base = dict(
            filters=8, kernel_size=3, recurrent_units=8, dropout_rate=0.5,
            epochs=1, learning_rate=0.01, batch_size=32,
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            NetworkConfig(**base)

    def test_get_paper_config_aliases(self):
        assert get_paper_config("UNSW_NB15") is PAPER_SETTINGS["unsw-nb15"]
        with pytest.raises(ValueError):
            get_paper_config("cicids2017")


class TestExperimentScale:
    def test_known_scales(self):
        assert set(SCALES) == {"smoke", "bench", "full", "paper"}
        assert get_scale("paper").n_records == 148_516

    def test_paper_scale_matches_table1(self):
        paper = get_scale("paper")
        assert paper.epochs == 100
        assert paper.batch_size == 4000
        assert paper.n_splits == 10

    def test_scale_blocks_never_below_one(self):
        scale = ExperimentScale(
            name="t", n_records=100, epochs=1, batch_size=10, n_splits=2,
            blocks_per_network=0.1,
        )
        assert scale.scale_blocks(5) == 1

    def test_scaled_config_overrides_epochs_and_batch(self):
        scale = get_scale("smoke")
        config = scaled_config("nsl-kdd", scale)
        assert config.epochs == scale.epochs
        assert config.batch_size == scale.batch_size
        assert config.filters == 121

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            get_scale("galactic")
        with pytest.raises(ValueError):
            ExperimentScale(name="bad", n_records=0, epochs=1, batch_size=1, n_splits=2)


class TestTrainer:
    @pytest.fixture(scope="class")
    def split(self):
        records = load_nslkdd(n_records=300, seed=2)
        return IDSPreprocessor(NSLKDD_SCHEMA).holdout_split(records, 0.25, seed=0)

    def test_train_and_evaluate(self, split):
        network = build_residual_network(1, split.num_classes, TINY, seed=0)
        trainer = Trainer(TINY, validation_during_training=True)
        result = trainer.train_and_evaluate(network, split, model_name="residual-5")
        assert result.model_name == "residual-5"
        assert 0.0 <= result.multiclass_accuracy <= 1.0
        assert result.report.total == len(split.test)
        assert "val_loss" in result.histories[0].history

    def test_as_row_fields(self, split):
        network = compile_for_paper(
            build_residual_network(1, split.num_classes, TINY, seed=0), TINY
        )
        trainer = Trainer(TINY, validation_during_training=False)
        row = trainer.train_and_evaluate(network, split, model_name="m").as_row()
        assert set(row) == {"model", "dr_percent", "acc_percent", "far_percent", "tp", "fp"}
        assert 0.0 <= row["far_percent"] <= 100.0

    def test_cross_validate_merges_folds(self):
        records = load_nslkdd(n_records=240, seed=3)
        preprocessor = IDSPreprocessor(NSLKDD_SCHEMA)
        trainer = Trainer(TINY, validation_during_training=False)
        result = trainer.cross_validate(
            lambda num_classes, config: build_residual_network(1, num_classes, config, seed=0),
            records,
            preprocessor,
            n_splits=3,
            model_name="residual",
        )
        assert len(result.fold_reports) == 3
        assert result.report.total == len(records)

    def test_cross_validate_max_folds(self):
        records = load_nslkdd(n_records=240, seed=3)
        preprocessor = IDSPreprocessor(NSLKDD_SCHEMA)
        trainer = Trainer(TINY, validation_during_training=False)
        result = trainer.cross_validate(
            lambda num_classes, config: build_residual_network(1, num_classes, config, seed=0),
            records,
            preprocessor,
            n_splits=3,
            max_folds=1,
        )
        assert len(result.fold_reports) == 1

    def test_cross_validate_zero_folds_rejected(self):
        records = load_nslkdd(n_records=120, seed=3)
        trainer = Trainer(TINY)
        with pytest.raises(ValueError):
            trainer.cross_validate(
                lambda n, c: build_residual_network(1, n, c),
                records,
                IDSPreprocessor(NSLKDD_SCHEMA),
                n_splits=3,
                max_folds=0,
            )


class TestPelicanDetector:
    @pytest.fixture(scope="class")
    def trained_detector(self):
        records = load_nslkdd(n_records=400, seed=4)
        detector = PelicanDetector(
            NSLKDD_SCHEMA, num_blocks=1, epochs=4, batch_size=64,
            dropout_rate=0.2, seed=0,
        )
        detector.fit(records.subset(range(300)))
        return detector, records.subset(range(300, 400))

    def test_config_overrides(self):
        detector = PelicanDetector(NSLKDD_SCHEMA, epochs=3, batch_size=32, learning_rate=0.005)
        assert detector.config.epochs == 3
        assert detector.config.batch_size == 32
        assert detector.config.learning_rate == pytest.approx(0.005)
        assert detector.config.filters == 121  # inherited from Table I

    def test_refit_frees_a_replaced_network_held_in_a_cycle(self):
        # Instrumentation that wraps a network's method ties it into a
        # reference cycle; a refit must not leave it to the next automatic
        # collection.
        records = load_nslkdd(n_records=64, seed=3)
        detector = PelicanDetector(NSLKDD_SCHEMA, num_blocks=1, epochs=1, seed=0)
        detector.fit(records)
        network = detector.network
        network.predict = network.predict  # the bound method holds the network
        replaced = weakref.ref(network)
        del network
        gc.disable()
        try:
            detector.fit(records)
            assert replaced() is None
        finally:
            gc.enable()

    def test_unfitted_detector_rejects_prediction(self):
        detector = PelicanDetector(NSLKDD_SCHEMA, num_blocks=1)
        with pytest.raises(RuntimeError):
            detector.predict(load_nslkdd(n_records=50, seed=0))

    def test_predict_returns_class_names(self, trained_detector):
        detector, holdout = trained_detector
        predictions = detector.predict(holdout)
        assert predictions.shape == (100,)
        assert set(predictions) <= set(NSLKDD_SCHEMA.classes)

    def test_predict_proba_shape(self, trained_detector):
        detector, holdout = trained_detector
        probabilities = detector.predict_proba(holdout)
        assert probabilities.shape == (100, 5)
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_predict_is_attack_binary(self, trained_detector):
        detector, holdout = trained_detector
        flags = detector.predict_is_attack(holdout)
        assert set(np.unique(flags)) <= {0, 1}

    def test_evaluate_returns_detection_report(self, trained_detector):
        detector, holdout = trained_detector
        report = detector.evaluate(holdout)
        assert 0.0 <= report.detection_rate <= 1.0
        assert 0.0 <= report.false_alarm_rate <= 1.0
        # The detector must do substantially better than chance on NSL-KDD.
        assert report.accuracy > 0.8

    def test_fit_with_validation_records(self):
        records = load_nslkdd(n_records=240, seed=6)
        detector = PelicanDetector(
            NSLKDD_SCHEMA, num_blocks=1, epochs=2, batch_size=64, seed=0
        )
        history = detector.fit(
            records.subset(range(180)), validation_records=records.subset(range(180, 240))
        )
        assert "val_loss" in history.history

    def test_summary_requires_fit(self):
        with pytest.raises(RuntimeError):
            PelicanDetector(NSLKDD_SCHEMA, num_blocks=1).summary()

    def test_summary_after_fit(self, trained_detector):
        detector, _ = trained_detector
        assert "Total trainable parameters" in detector.summary()

    def test_is_fitted_flag(self, trained_detector):
        detector, _ = trained_detector
        assert detector.is_fitted
        assert not PelicanDetector(NSLKDD_SCHEMA, num_blocks=1).is_fitted
