"""Workload generators and load drivers for the evaluation.

* :mod:`repro.workloads.trees` — directory-tree specifications: the
  uniform trees of the traversal experiments and private-directory
  metadata stress layouts.
* :mod:`repro.workloads.datasets` — synthetic directory structures with
  the shapes of the paper's Table 3 workloads (production labeling,
  ImageNet, KITTI, Cityscapes, CelebA, SVHN, CUB-200, the Linux source
  tree, FSL homes).
* :mod:`repro.workloads.driver` — closed-loop throughput driver, latency
  probes and the MLPerf-style training loop.  Burst access and the
  labeling-trace replay live with their experiments
  (:mod:`repro.experiments.burst`, :mod:`repro.experiments.labeling`).
"""

from repro.workloads.datasets import TABLE3_WORKLOADS
from repro.workloads.driver import (
    LatencyResult,
    ThroughputResult,
    measure_latency,
    run_closed_loop,
    training_run,
)
from repro.workloads.trees import TreeSpec, private_dirs_tree, uniform_tree

__all__ = [
    "LatencyResult",
    "TABLE3_WORKLOADS",
    "ThroughputResult",
    "TreeSpec",
    "measure_latency",
    "private_dirs_tree",
    "run_closed_loop",
    "training_run",
    "uniform_tree",
]
