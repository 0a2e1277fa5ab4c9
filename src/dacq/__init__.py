"""Learned dynamic configuration of evolutionary algorithms.

A meta-level Q-learning agent, built on a selective state-space sequence
model, picks per-generation hyper-parameters for modular evolutionary
algorithms (3-, 10- and 16-dimensional configuration spaces) on a
BBOB-style benchmark suite.  Training is offline, from a mixed
exploration/exploitation trajectory dataset, with a per-action-dimension
decomposed Q-function and a conservative regularizer.
"""

__version__ = "0.1.0"
