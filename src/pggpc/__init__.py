"""Scalable binary Gaussian-process classification with Polya-Gamma augmentation.

The package implements a sparse variational GP classifier trained by
closed-form natural-gradient stochastic variational inference, together
with an exact full-GP Gibbs sampler used as a ground-truth oracle.
"""

__version__ = "0.1.0"
