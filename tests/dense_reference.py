"""Dense reference forms that only the tests use.

They check the library's identities through the dense operators `ops.Y` and
`ops.U`, which no command builds.
"""

import numpy as np


def vp_drift_identity_error(ops, schedule, t: float) -> float:
    """Max abs deviation of U f(Y ., t) from -beta(t)/2 * identity."""
    L2 = ops.d_spectral
    composed = ops.U @ (-0.5 * schedule.beta(t) * ops.Y)
    return float(np.max(np.abs(composed - (-0.5 * schedule.beta(t)) * np.eye(L2))))
