"""Spectral diffusion on the sphere: exact per-order harmonic transforms,
mirrored Brownian motion, forward/reverse SDEs in spatial and chart
coordinates, score-matching losses with the frequency-vs-spatial bound,
and a sliced Wasserstein estimator."""

__version__ = "0.1.0"

from .metrics import _blas_thread_controls

# NumPy's OpenBLAS runs on one thread in this process, set once and never
# restored: a product or eigh then reduces in one order whatever the
# environment asks for, so every output has the same bits under any
# OPENBLAS_NUM_THREADS.  Set before any submodule runs BLAS.
if (_controls := _blas_thread_controls()) is not None:
    _controls[1](1)

from .grid import BandLimit, GridSpec, build_grid
from .transform import OperatorSet, analysis, build_operators, project_bandlimited, synthesis
from .chart import chart_linear_map, from_chart, synthesis_matrix, to_chart
from .noise import CovarianceSet, build_covariance, sample_mirrored_bm
from .sde import DiffusionState, ScoreField, VpSchedule, integrate
from .lossmap import BoundOperators, build_bound_operators, check_theorem2_bound
from .metrics import SlicedWassersteinResult, sliced_wasserstein

__all__ = [
    "__version__",
    "BandLimit", "GridSpec", "build_grid",
    "OperatorSet", "analysis", "build_operators", "project_bandlimited", "synthesis",
    "chart_linear_map", "from_chart", "synthesis_matrix", "to_chart",
    "CovarianceSet", "build_covariance", "sample_mirrored_bm",
    "DiffusionState", "ScoreField", "VpSchedule", "integrate",
    "BoundOperators", "build_bound_operators", "check_theorem2_bound",
    "SlicedWassersteinResult", "sliced_wasserstein",
]
