"""Figure reproductions.

* :func:`figure2` — the motivational depth-degradation experiment (Fig. 2):
  LuNet is trained at increasing depth on UNSW-NB15 and its training/testing
  accuracy is plotted against the number of parameter layers.
* :func:`figure5` — the learning-curve comparison (Fig. 5 a-d): training and
  testing loss per epoch for Plain-21/41 and Residual-21/41 on each dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.config import ExperimentScale, get_scale, scaled_config
from ..core.lunet import build_lunet, lunet_depth_sweep
from ..core.pelican import compile_for_paper, parameter_layer_count
from ..core.trainer import Trainer
from ..data import get_schema
from ..preprocessing import IDSPreprocessor
from .four_networks import _load_records, run_four_network_study
from .paper_values import FIG2_DEGRADATION, FIG5_FINAL_LOSSES
from .results import CurveSet

__all__ = ["Figure2Result", "figure2", "figure5"]


@dataclass
class Figure2Result:
    """Outcome of the Fig. 2 depth sweep.

    Attributes
    ----------
    parameter_layers:
        Network depths (x-axis of the paper's plots).
    training_accuracy / testing_accuracy:
        Final-epoch accuracies per depth.
    """

    dataset: str
    parameter_layers: List[int] = field(default_factory=list)
    training_accuracy: List[float] = field(default_factory=list)
    testing_accuracy: List[float] = field(default_factory=list)

    def curves(self) -> CurveSet:
        """Render-ready curve set (both panels of Fig. 2 on one canvas)."""
        curve_set = CurveSet(
            title=f"Fig. 2 — LuNet accuracy vs depth on {self.dataset}",
            x_label="parameter layers",
            y_label="accuracy",
            x_values=[float(v) for v in self.parameter_layers],
        )
        curve_set.add_series("training accuracy", self.training_accuracy)
        curve_set.add_series("testing accuracy", self.testing_accuracy)
        curve_set.notes.append(
            "paper shape: accuracy degrades beyond ~10-15 parameter layers "
            f"(paper endpoints: {FIG2_DEGRADATION})"
        )
        return curve_set

    def degradation_observed(self) -> bool:
        """True when the deepest network is worse than the best shallower one."""
        if len(self.testing_accuracy) < 2:
            return False
        return self.testing_accuracy[-1] < max(self.testing_accuracy[:-1])


def figure2(
    dataset: str = "unsw-nb15",
    scale: Optional[ExperimentScale] = None,
    block_counts: Optional[Sequence[int]] = None,
    seed: int = 0,
    verbose: int = 0,
) -> Figure2Result:
    """Reproduce Fig. 2: train LuNet at increasing depth and record accuracy."""
    scale = scale or get_scale("bench")
    dataset = dataset.lower().replace("_", "-")
    schema = get_schema(dataset)
    records = _load_records(dataset, scale.n_records, seed)
    preprocessor = IDSPreprocessor(schema)
    split = preprocessor.holdout_split(
        records, test_fraction=1.0 / scale.n_splits, seed=seed
    )
    config = scaled_config(dataset, scale)
    trainer = Trainer(config, validation_during_training=False, verbose=verbose)

    if block_counts is None:
        max_blocks = scale.scale_blocks(10)
        block_counts = lunet_depth_sweep(max_blocks=max_blocks)

    result = Figure2Result(dataset=dataset)
    for blocks in block_counts:
        network = build_lunet(split.num_classes, config, num_blocks=blocks, seed=seed)
        compile_for_paper(network, config)
        trainer.train(network, split)
        train_metrics = network.evaluate(split.train.inputs, split.train.targets)
        test_metrics = network.evaluate(split.test.inputs, split.test.targets)
        result.parameter_layers.append(parameter_layer_count(blocks))
        result.training_accuracy.append(float(train_metrics["accuracy"]))
        result.testing_accuracy.append(float(test_metrics["accuracy"]))
    return result


def figure5(
    dataset: str = "unsw-nb15",
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
) -> Dict[str, CurveSet]:
    """Reproduce Fig. 5: loss-per-epoch curves of the four networks.

    Returns a dict with ``"train"`` and ``"test"`` curve sets (the paper's (a)
    and (b) panels for UNSW-NB15, (c) and (d) for NSL-KDD).
    """
    dataset = dataset.lower().replace("_", "-")
    study = run_four_network_study(dataset=dataset, scale=scale, seed=seed)
    epochs = [float(epoch) for epoch in study.epochs()]
    paper_values = FIG5_FINAL_LOSSES.get(dataset, {})

    curves: Dict[str, CurveSet] = {}
    for portion, losses in (("train", study.train_loss), ("test", study.test_loss)):
        curve_set = CurveSet(
            title=f"Fig. 5 — {portion}ing loss on {dataset}",
            x_label="epoch",
            y_label=f"{portion}ing loss",
            x_values=epochs,
        )
        for name, series in losses.items():
            curve_set.add_series(name, series)
        if portion in paper_values:
            curve_set.notes.append(
                f"paper final losses: {paper_values[portion]}"
            )
        curves[portion] = curve_set
    return curves
