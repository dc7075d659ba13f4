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


def as_array(v, name: str, shape: tuple) -> np.ndarray:
    """``v`` as a float array of the declared ``shape`` with every entry
    finite, or InvalidInputError.

    In ``shape`` an int fixes an axis, None takes any length, and a leading
    ``...`` takes any number of leading (run) axes: ``(..., 3)`` is one
    3-vector or a stack of them, ``(None, None)`` any matrix.
    """
    try:
        arr = np.asarray(v, dtype=float)
    except (ValueError, TypeError) as exc:  # text, a ragged nest, an object
        raise InvalidInputError(f"{name} is not an array of numbers: {exc}") from exc
    dims = arr.shape
    k = len(shape)  # declared axes, matched against the last k of dims
    if k and shape[0] is ...:
        k -= 1
        ok = len(dims) >= k
    else:
        ok = len(dims) == k
    # a loop, not a generator: this runs several times per round of the control loop
    for i in range(-k if ok else 0, 0):
        want = shape[i]
        if want is not None and dims[i] != want:
            ok = False
    if not ok:
        spelled = ", ".join("..." if s is ... else "any" if s is None else str(s) for s in shape)
        raise InvalidInputError(f"{name} must have shape ({spelled}), got {arr.shape}")
    if np.count_nonzero(np.isfinite(arr)) != arr.size:  # cheaper than .all() on small arrays
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def spectral_norm(m) -> float:
    """Largest singular value of ``m`` (``np.linalg.norm(m, 2)``)."""
    m = as_array(m, "matrix", (None, None))
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def batch_spectral_norms(mats: np.ndarray) -> np.ndarray:
    """Spectral norm of every matrix in a (T, n, m) stack at once."""
    mats = as_array(mats, "matrix stack", (None, None, None))
    if mats.size == 0:
        return np.zeros(mats.shape[0])
    return np.linalg.norm(mats, 2, axis=(1, 2))


def spectral_radius_estimate(a, k: int) -> float:
    """Upper-biased spectral radius estimate ``||a^k|| ** (1/k)``.

    Converges to the true spectral radius from above as ``k`` grows; for
    normal matrices it is exact for every ``k``.
    """
    a = as_array(a, "matrix", (None, None))
    if a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"matrix must be square, got shape {a.shape}")
    if k < 8:
        raise InvalidInputError(f"power k must be at least 8, got {k}")
    power = np.linalg.matrix_power(a, k)
    if not np.isfinite(power).all():
        # norms exploded before k steps; the radius is certainly >= 1
        return float("inf")
    return float(spectral_norm(power) ** (1.0 / k))
