"""Reference helpers the tests check the library against; no part of the
program runs them.

``finite_diff_check`` pins an analytic gradient to central differences, and
``network_to_dict`` builds a checkpoint document as one Python object, so a
test can serialise it whole and compare it with ``checkpoint_text``.
"""

import numpy as np

from ttalab.errors import InvalidInput
from ttalab.network import layer_to_dict

# Central-difference step balancing truncation and round-off in float64.
FD_STEP = 1e-5


def finite_diff_check(f, x, analytic):
    """Max relative error between an analytic gradient and central differences
    with step FD_STEP.

    Args:
        f: scalar-valued function of a 1-D vector.
        x: point at which to check.
        analytic: claimed gradient of f at x, same shape as x.

    Returns:
        max over coordinates of |analytic - fd| / max(1, |analytic|).
    """
    x = np.asarray(x, dtype=np.float64)
    analytic = np.asarray(analytic, dtype=np.float64)
    if analytic.shape != x.shape:
        raise InvalidInput("analytic gradient shape does not match x")
    worst = 0.0
    for i in range(x.size):
        bump = np.zeros_like(x)
        bump.flat[i] = FD_STEP
        hi = float(f(x + bump))
        lo = float(f(x - bump))
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise InvalidInput("f returned a non-finite value near x")
        fd = (hi - lo) / (2.0 * FD_STEP)
        a = analytic.flat[i]
        worst = max(worst, abs(a - fd) / max(1.0, abs(a)))
    return worst


def network_to_dict(net):
    """The checkpoint document of ``net`` as one dict."""
    return {"k": int(net.k), "layers": [layer_to_dict(layer)
                                         for layer in net.layers],
            "meta": dict(net.meta)}
