"""Independent oracles for the benchmark's output checks.

Plain numpy only: nothing here imports spectralbox, so a fault in the
program cannot hide by being copied into its own check.
"""

from __future__ import annotations

import numpy as np


def cube_gram(delta) -> np.ndarray:
    """Closed form of the unit-cube transform at differences `delta`.

    G(delta) = prod_j (e^{2 pi i delta_j} - 1) / (2 pi i delta_j), with the
    factor 1 at delta_j = 0; `delta` has the coordinates on its last axis.
    expm1 keeps full relative precision for small nonzero delta_j.
    """
    z = 2j * np.pi * np.asarray(delta, dtype=float)
    zero = z == 0
    factor = np.expm1(z) / np.where(zero, 1.0, z)
    return np.prod(np.where(zero, 1.0, factor), axis=-1)


def cocycle_violation(a, b) -> float:
    """Largest modulus of the two cocycle identities over a window.

    a[n] and b[m] are the eigenvalue sequences on the window's n- and
    m-ranges; the identities are (b_m - b_{m+k})(1 - a_n) = 0 and
    (a_n - a_{n+l})(1 - b_m) = 0 for every in-window shift k, l != 0.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    first = np.abs((b[:, None] - b[None, :])[:, :, None] * (1.0 - a)[None, None, :])
    second = np.abs((a[:, None] - a[None, :])[:, :, None] * (1.0 - b)[None, None, :])
    # the diagonal k = 0 (l = 0) is zero in both, so it cannot raise the max
    return float(max(first.max(), second.max()))


def circle_min_modulus(coefficients, samples: int = 1 << 20, zooms: int = 3) -> float:
    """Minimum of |p(z)| on |z| = 1 by a dense scan and local re-scans.

    Coefficients are ascending (constant term first).  Each zoom re-scans
    the two cells around the current minimum at 1024 times finer spacing.
    """
    poly = np.asarray(coefficients, dtype=complex)[::-1]
    theta = 2.0 * np.pi * np.arange(samples) / samples
    values = np.abs(np.polyval(poly, np.exp(1j * theta)))
    best = int(np.argmin(values))
    center, half, low = theta[best], 2.0 * np.pi / samples, values[best]
    for _ in range(zooms):
        local = center + np.linspace(-half, half, 2049)
        local_values = np.abs(np.polyval(poly, np.exp(1j * local)))
        best = int(np.argmin(local_values))
        center, half = local[best], half / 1024.0
        low = min(low, local_values[best])
    return float(low)
