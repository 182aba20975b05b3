"""Linear least squares without LAPACK or BLAS.

A QR factorization by modified Gram-Schmidt over float64 columns, built
from element-wise products and ``np.add.reduce`` sums only.  An element-wise
product is correctly rounded, and ``np.add.reduce`` of a contiguous
float64 array sums pairwise in an order fixed by its length, so a fit comes
out the same bit for bit whichever BLAS kernel or SIMD loops the machine
runs.  ``np.linalg.lstsq``, ``svd``, ``np.polyfit`` and the ``@`` operator
do not promise that, and the first LAPACK call of a process adds about
1.2 MiB to its resident memory.

The caller scales its columns by one power of two and its target by
another (``unit_scale``), so no sum of squares overflows; the scalings are
exact and the coefficients only scale back.
"""

from __future__ import annotations

from math import copysign, frexp, fsum, hypot, ldexp, sqrt

import numpy as np

JACOBI_SWEEPS = 30


def unit_scale(*arrays: np.ndarray) -> tuple[list[np.ndarray], int]:
    """``arrays`` times ``2**-e``, where ``e`` puts their largest magnitude
    in [0.5, 1), and ``e`` (0 for all zeros).  Exact unless a value falls
    below the normal range."""
    peak = max(float(np.max(np.abs(a))) for a in arrays)
    e = frexp(peak)[1]
    return [np.ldexp(a, -e) for a in arrays], e


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.add.reduce(a * b))


def combine(columns: list[np.ndarray], beta: list[float]) -> np.ndarray:
    """``sum(beta[j] * columns[j])``, term by term from the first."""
    total = columns[0] * beta[0]
    for column, b in zip(columns[1:], beta[1:]):
        total = total + column * b
    return total


def factor(columns: list[np.ndarray],
           y: np.ndarray) -> tuple[list[list[float]], list[float]]:
    """The triangular factor ``r`` (rows) of ``columns = q r`` and ``q^T y``,
    by modified Gram-Schmidt on ``[columns | y]``, which makes the least
    squares solution backward stable.  A column that is already in the span
    of those before it leaves a zero (or rounding-level) diagonal."""
    a = list(columns)
    k = len(a)
    r = [[0.0] * k for _ in range(k)]
    qty = [0.0] * k
    for j in range(k):
        norm = sqrt(_dot(a[j], a[j]))
        r[j][j] = norm
        q = a[j] / norm if norm else a[j]
        for i in range(j + 1, k):
            r[j][i] = _dot(q, a[i])
            a[i] = a[i] - q * r[j][i]
        qty[j] = _dot(q, y)
        y = y - q * qty[j]
    return r, qty


def solve(r: list[list[float]], qty: list[float]) -> list[float]:
    """Back substitution of ``r beta = qty``; ``r`` has a nonzero
    diagonal."""
    k = len(qty)
    beta = [0.0] * k
    for j in reversed(range(k)):
        beta[j] = (qty[j] - fsum(r[j][i] * beta[i] for i in range(j + 1, k))
                   ) / r[j][j]
    return beta


def rms(values: np.ndarray) -> float:
    """Root mean square of ``values``, taken of them scaled by a power of
    two (``unit_scale``) and scaled back, so that no square overflows or
    underflows."""
    (scaled,), e = unit_scale(values)
    return ldexp(sqrt(float(np.add.reduce(scaled * scaled)) / len(scaled)), e)


def lstsq(columns: list[np.ndarray], y: np.ndarray) -> list[float]:
    """``beta`` minimizing ``||y - combine(columns, beta)||``; the columns
    are linearly independent."""
    return solve(*factor(columns, y))


def singular_values(r: list[list[float]]) -> list[float]:
    """Singular values of the square factor ``r``, largest first, by
    one-sided Jacobi rotations of its columns in Python floats.  They are
    accurate to a rounding of the largest, so a ratio far below the
    rounding unit's square root (which the Gram matrix's eigenvalues cannot
    give) is resolved."""
    k = len(r)
    cols = [[r[i][j] for i in range(k)] for j in range(k)]
    for _ in range(JACOBI_SWEEPS):
        rotated = False
        for i in range(k):
            for j in range(i + 1, k):
                a = fsum(x * x for x in cols[i])
                b = fsum(x * x for x in cols[j])
                c = fsum(x * y for x, y in zip(cols[i], cols[j]))
                if abs(c) <= 1e-15 * sqrt(a) * sqrt(b):
                    continue
                rotated = True
                zeta = (b - a) / (2.0 * c)
                t = copysign(1.0, zeta) / (abs(zeta) + hypot(1.0, zeta))
                cs = 1.0 / hypot(1.0, t)
                sn = cs * t
                cols[i], cols[j] = ([cs * x - sn * y for x, y in
                                     zip(cols[i], cols[j])],
                                    [sn * x + cs * y for x, y in
                                     zip(cols[i], cols[j])])
        if not rotated:
            break
    return sorted((sqrt(fsum(x * x for x in col)) for col in cols),
                  reverse=True)
