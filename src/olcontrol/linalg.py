"""Dense linear-algebra kernels used throughout the package.

Spectral norms go through LAPACK's SVD, so they are exact to roundoff
(not estimates converging from below) and repeated calls on the same
inputs give bit-identical results.
"""

import numpy as np

from .errors import InvalidInputError


def matvec(m, v) -> np.ndarray:
    """``m @ v`` for each vector along the last axis of ``v``; ``m`` is one
    matrix or a stack matching ``v``'s leading axes.  Each product is the
    matrix-vector product ``m @ v`` takes for a single vector, so the bits
    do not depend on the leading axes (``v @ m.T`` is a different product)."""
    return np.matmul(m, v[..., None])[..., 0]


def row_norms(v) -> np.ndarray:
    """Euclidean norm of each vector along the last axis of ``v``, with the
    bits of ``np.linalg.norm`` on that vector alone (one dot product each)."""
    return np.sqrt(np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0])


def as_matrix(m, name="matrix") -> np.ndarray:
    """Coerce to a finite 2-d float array or raise InvalidInputError."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def as_vector(v, name="vector") -> np.ndarray:
    """Coerce to a finite 1-d float array or raise InvalidInputError."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise InvalidInputError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def as_points(v, dim: int, name="vector") -> np.ndarray:
    """Coerce to finite float ``dim``-vectors along the last axis (leading
    axes index runs) or raise InvalidInputError."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != dim:
        raise InvalidInputError(f"{name} must have dimension {dim}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def spectral_norm(m) -> float:
    """Largest singular value of ``m`` (``np.linalg.norm(m, 2)``)."""
    m = as_matrix(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def batch_spectral_norms(mats: np.ndarray) -> np.ndarray:
    """Spectral norm of every matrix in a (T, n, m) stack at once."""
    mats = np.asarray(mats, dtype=float)
    if mats.ndim != 3:
        raise InvalidInputError(f"expected a (T, n, m) stack, got shape {mats.shape}")
    if not np.isfinite(mats).all():
        raise InvalidInputError("matrix stack contains non-finite entries")
    if mats.size == 0:
        return np.zeros(mats.shape[0])
    return np.linalg.norm(mats, 2, axis=(1, 2))


def spectral_radius_estimate(a, k: int) -> float:
    """Upper-biased spectral radius estimate ``||a^k|| ** (1/k)``.

    Converges to the true spectral radius from above as ``k`` grows; for
    normal matrices it is exact for every ``k``.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"matrix must be square, got shape {a.shape}")
    if k < 8:
        raise InvalidInputError(f"power k must be at least 8, got {k}")
    power = np.linalg.matrix_power(a, k)
    if not np.isfinite(power).all():
        # norms exploded before k steps; the radius is certainly >= 1
        return float("inf")
    return float(spectral_norm(power) ** (1.0 / k))
