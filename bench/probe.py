"""Machine-speed probe for the benchmark; it runs no modalmr code.

It imports the third-party modules modalmr imports and solves a fixed set
of dense systems with the same BLAS, so its wall time follows the machine's
current speed for both CLI start-up and solver work.  ``run.py`` runs it as
a child process before each timed repeat and scales the end-to-end timings
by it.
"""

import numpy as np
import scipy.integrate  # noqa: F401  importing is part of what the probe times
import scipy.sparse.linalg  # noqa: F401
import scipy.stats  # noqa: F401

rng = np.random.default_rng(0)
a = rng.standard_normal((400, 400))
a = a @ a.T + 400.0 * np.eye(400)
for _ in range(60):
    np.linalg.solve(a, a[0])
