"""A small numpy-based neural-network framework.

The offline environment provides no deep-learning library, so the predictive
modules of LOAM and its baselines are built on this package:

* :mod:`repro.nn.autodiff` — a vectorized reverse-mode autodiff engine;
* :mod:`repro.nn.layers` — Linear/Sequential/LayerNorm modules;
* :mod:`repro.nn.losses` — MSE and cross-entropy;
* :mod:`repro.nn.optim` — Adam with exponential LR decay;
* :mod:`repro.nn.grl` — the gradient reversal layer for adversarial
  domain adaptation (Ganin & Lempitsky, 2015);
* :mod:`repro.nn.tree_conv` — Bao-style tree convolution with dynamic
  pooling over binary plan trees;
* :mod:`repro.nn.transformer` — a small self-attention encoder;
* :mod:`repro.nn.gcn` — graph convolution over plan adjacency;
* :mod:`repro.nn.gbdt` — gradient-boosted regression trees with the
  XGBoost second-order objective.
"""

from repro.nn.autodiff import Tensor, concat, gather_nodes, grl, relu
from repro.nn.gbdt import GradientBoostedTrees
from repro.nn.gcn import GCNEncoder
from repro.nn.grl import GradientReversal
from repro.nn.layers import LayerNorm, Linear, Module, ReLU, Sequential
from repro.nn.losses import cross_entropy_loss, mse_loss, softmax
from repro.nn.optim import Adam, ExponentialDecay
from repro.nn.transformer import TransformerEncoder
from repro.nn.tree_conv import TreeBatch, TreeConvEncoder

__all__ = [
    "Adam",
    "ExponentialDecay",
    "GCNEncoder",
    "GradientBoostedTrees",
    "GradientReversal",
    "LayerNorm",
    "Linear",
    "Module",
    "ReLU",
    "Sequential",
    "Tensor",
    "TransformerEncoder",
    "TreeBatch",
    "TreeConvEncoder",
    "concat",
    "cross_entropy_loss",
    "gather_nodes",
    "grl",
    "mse_loss",
    "relu",
    "softmax",
]
