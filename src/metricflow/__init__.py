"""Finite metric flows: exact transport, flow axioms, and flow distances.

A library for computing with metric flows on finite instances — time-indexed
families of finite metric spaces carrying backward transition kernels — with
exact Wasserstein-1 transport, quantitative concentration checks, gluing
constructions, and the flow-level distance within a correspondence. See
README.md for the tour.
"""

import os as _os

# BLAS thread cap: must land in the environment before numpy's first import,
# so it lives at the top of the package root.
if _os.environ.get("METRICFLOW_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["METRICFLOW_THREADS"])

from .ot_core import *  # noqa: E402,F403
from .flow_core import *  # noqa: E402,F403
from .generators import *  # noqa: E402,F403
from .correspondence import *  # noqa: E402,F403
from . import correspondence, flow_core, generators, ot_core  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *ot_core.__all__,
    *flow_core.__all__,
    *generators.__all__,
    *correspondence.__all__,
]
