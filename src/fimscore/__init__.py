"""Gradient-based out-of-distribution detection for small likelihood models.

Feature extraction squares layer-wise gradient norms of the model's
log-likelihood, a detector fits one Gaussian per layer to the log
features, and probes estimate Fisher information structure by Monte
Carlo. Everything is deterministic given a seed. Each name is imported
from its own module, e.g. ``from fimscore.trainer import train``.
"""

__version__ = "0.1.0"
