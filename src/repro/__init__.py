"""Reproduction of "Pelican: A Deep Residual Network for Network Intrusion Detection".

The package is organised as a layered system:

* :mod:`repro.nn` — a from-scratch neural-network framework (autodiff, layers,
  optimizers, training loop) substituting for TensorFlow/Keras.
* :mod:`repro.data` — synthetic NSL-KDD and UNSW-NB15 traffic generators that
  reproduce the real datasets' schemas and class structure.
* :mod:`repro.preprocessing` — the paper's Section V-A pipeline: one
  feature encoder (one-hot encoding, standardization) for training and
  serving, and k-fold splitting.
* :mod:`repro.core` — the paper's contribution: plain/residual blocks, the
  Plain-21/41 and Residual-21/41 (Pelican) networks, LuNet and HAST-IDS.
* :mod:`repro.baselines` — classical ML baselines for the comparative study.
* :mod:`repro.metrics` — ACC / detection-rate / false-alarm-rate metrics.
* :mod:`repro.experiments` — the harness regenerating every table and figure.
* :mod:`repro.serving` — the streaming detection service (micro-batching,
  the training encoder reused for serving, graph-free fast inference,
  rolling monitoring).
* :mod:`repro.scenarios` — the composable scenario library: declarative
  traffic episodes (floods, low-and-slow attacks, prior shifts, the
  cross-dataset fleet) and the suite that sweeps them across execution
  models (see ``docs/SCENARIOS.md``).
"""

__version__ = "1.1.0"

__all__ = [
    "nn",
    "data",
    "preprocessing",
    "core",
    "baselines",
    "metrics",
    "experiments",
    "serving",
    "scenarios",
    "__version__",
]
