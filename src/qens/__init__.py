"""Simulated quantum ensembles of accuracy-weighted classifiers.

The package pairs an exhaustive classical committee oracle with a dense
statevector simulation of the same ensemble, plus closed-form analysis
of the one-dimensional threshold committee, majority-vote asymptotics,
deterministic data generation, and a reproducible experiment CLI.

The package exposes modules, not names: import from qens.model,
qens.simulator, qens.weighting and the rest.  Importing qens itself
loads none of them.
"""

__version__ = "0.1.0"
