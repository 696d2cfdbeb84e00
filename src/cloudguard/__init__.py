"""Adaptive cloud security defense at desk scale.

Subpackages and modules:

- ``nn``          from-scratch differentiable network kernel (numpy, float64)
- ``telemetry``   event and window record types plus JSON-lines persistence
- ``features``    fixed-width feature extraction with a named layout
- ``scenario``    seeded synthetic traffic and attack generation
- ``detector``    convolutional-recurrent traffic classifier
- ``perception``  multi-source fusion and threat scoring
- ``policy``      tabular double Q-learning over discretized system state
- ``enforcement`` defense actions, effectiveness lookup, damage resolution
- ``environment`` simulated training environment for the response policy
- ``baseline``    threshold rule engine used as the non-adaptive reference
- ``simulate``    end-to-end pipeline, metrics reports, and comparisons
- ``cli``         command-line front end over generate/train/simulate/compare
"""

__version__ = "0.1.0"

from . import errors

__all__ = ["errors", "__version__"]
