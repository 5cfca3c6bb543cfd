"""Regularized modal regression on Markov-dependent data.

Library layout:

* ``kernels`` -- representing functions for the modal loss and hypothesis-space
  kernels, with calibration checks.
* ``markov`` -- finite-state chains, sampling, stationary analysis and the
  spectral-gap triple.
* ``solver`` -- the regularized modal estimator (half-quadratic and gradient
  solvers), prediction, the gap-aware parameter schedule and both input file
  formats: datasets and models.
* ``risk`` -- surrogate and true modal risks plus the comparison-gap bound
  check.
* ``robustness`` -- breakdown statistic, bracket and contamination experiments.
* ``harness`` -- seeded synthetic experiments (learning curves, gap sweeps,
  robustness comparisons).
* ``cli`` -- the ``modalmr`` command-line front end, which writes every CSV
  table and JSON manifest.
"""

__version__ = "0.1.0"
