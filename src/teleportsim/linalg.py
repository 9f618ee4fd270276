"""Dense complex linear algebra at the tiny fixed dimensions (2, 4, 8) used here.

Matrices and vectors are plain ``complex128`` ndarrays; scalars are Python
``complex``. Every public operation rejects non-finite input.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "tensor_product",
    "partial_trace",
    "frobenius_distance",
    "eig2_hermitian",
]

HERMITICITY_TOL = 1e-10


def _as_complex_array(a, name: str, ndim: int | None = None) -> np.ndarray:
    arr = np.asarray(a, dtype=np.complex128)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product ``np.kron(a, b)`` of two vectors or matrices, with
    the first factor as the slow (outer) index: two vectors give the joint
    state vector, two matrices the joint operator."""
    a = _as_complex_array(a, "a")
    b = _as_complex_array(b, "b")
    if a.ndim not in (1, 2) or b.ndim not in (1, 2):
        raise ValueError(f"operands must be vectors or matrices, got shapes {a.shape} and {b.shape}")
    return np.kron(a, b)


def partial_trace(rho, dim_a: int, dim_b: int, keep: str) -> np.ndarray:
    """Trace out one factor of a bipartite operator on C^dim_a (x) C^dim_b.

    The first factor is the slow index, matching ``tensor_product``.
    ``keep`` selects the surviving factor: "A" (first) or "B" (second).
    The full trace is preserved exactly.
    """
    rho = _as_complex_array(rho, "rho", ndim=2)
    if keep not in ("A", "B"):
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    n = dim_a * dim_b
    if rho.shape != (n, n):
        raise ValueError(
            f"rho has shape {rho.shape}, expected ({n}, {n}) for factor dimensions {dim_a} x {dim_b}"
        )
    blocks = rho.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "A":
        return np.trace(blocks, axis1=1, axis2=3)
    return np.trace(blocks, axis1=0, axis2=2)


def frobenius_distance(a, b) -> float:
    """Entrywise-quadratic distance sqrt(sum |a_nm - b_nm|^2)."""
    a = _as_complex_array(a, "a", ndim=2)
    b = _as_complex_array(b, "b", ndim=2)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def eig2_hermitian(a) -> tuple[float, float]:
    """Both eigenvalues of a 2x2 Hermitian matrix, ascending.

    Uses the closed-form quadratic mean +/- sqrt(mean^2 - det); the
    discriminant is clamped at zero to absorb round-off.
    """
    a = _as_complex_array(a, "a", ndim=2)
    if a.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {a.shape}")
    if np.abs(a - a.conj().T).max() > HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    mean = 0.5 * (a[0, 0].real + a[1, 1].real)
    det = (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]).real
    radius = np.sqrt(max(mean * mean - det, 0.0))
    return (mean - radius, mean + radius)
