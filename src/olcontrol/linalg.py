"""Dense linear-algebra kernels used throughout the package.

Spectral norms go through LAPACK's SVD, so they are exact to roundoff
(not estimates converging from below) and repeated calls on the same
inputs give bit-identical results.  Box-constrained quadratics are solved
exactly, by enumerating the box's faces (:func:`box_qp`).
"""

import functools
import itertools
import math
import reprlib
from contextlib import suppress

import numpy as np

from .errors import InvalidInputError, UnsupportedDimensionError

BOX_QP_MAX_DIM = 8  # 3**8 = 6561 faces; past it, bounded-variable least squares (Stark & Parker 1995)
BOX_QP_FEASIBLE_TOL = 1e-12  # how far outside the box a face's stationary point may sit


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

    The entries are numbers as :func:`real` takes them: ints and floats,
    numpy's too, but no bool, no text and nothing else held as an object.
    """
    try:
        arr = np.asarray(v)
    except ValueError as exc:  # a ragged nest
        raise InvalidInputError(f"{name} is not an array of numbers: {exc}") from exc
    if arr.dtype is not _FLOAT:
        arr = _as_floats(arr, name)
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


_FLOAT = np.dtype(float)
_NUMBERS = (int, float, np.integer, np.floating)


def _as_floats(arr: np.ndarray, name: str) -> np.ndarray:
    """``arr``, an array of ints, floats or such numbers held as objects
    (an int past int64, say), converted to float; or InvalidInputError."""
    kind = arr.dtype.kind
    if kind == "O":
        for entry in arr.flat:
            if not isinstance(entry, _NUMBERS) or isinstance(entry, bool):
                raise InvalidInputError(f"{name} is not an array of numbers: holds {reprlib.repr(entry)}")
    elif kind not in "fiu":  # bool, text, bytes, complex, dates, records
        raise InvalidInputError(f"{name} is not an array of numbers: got dtype {arr.dtype}")
    try:
        return arr.astype(float)
    except OverflowError as exc:  # an int past float's range
        raise InvalidInputError(f"{name} is not an array of numbers: {exc}") from exc


def scalar(what: str, types: tuple, cast, ok=lambda value: True):
    """A rule for one scalar argument: ``rule(value, name)`` returns
    ``cast(value)`` if ``value`` is one of ``types`` (a bool is no number,
    although Python's bool is an int) and the cast passes ``ok``, or raises
    InvalidInputError "<name> must be <what>, got <value>"."""

    def rule(value, name: str):
        if isinstance(value, types) and (bool in types or not isinstance(value, bool)):
            with suppress(OverflowError):  # an int past float's range is no float
                if ok(normal := cast(value)):
                    return normal
        # reprlib cuts a value's repr short: a 400-digit int is no message
        raise InvalidInputError(f"{name} must be {what}, got {reprlib.repr(value)}")

    return rule


def count(low: int, high: int | None = 2**63 - 1):
    """The rule of an integer from ``low`` to ``high`` (int64's largest by
    default, no limit if None), returned as an int."""
    what = f"an integer >= {low}" if high is None else f"an integer from {low} to {high}"
    return scalar(what, (int, np.integer), int, lambda v: low <= v and (high is None or v <= high))


def real(positive: bool):
    """The rule of a finite number, > 0 if ``positive`` and >= 0 otherwise,
    returned as a float."""
    ok = (lambda v: 0.0 < v < math.inf) if positive else (lambda v: 0.0 <= v < math.inf)
    what = f"a {'positive' if positive else 'non-negative'} finite number"
    return scalar(what, _NUMBERS, float, ok)


positive = real(positive=True)  # positive(x, name): x as a float in (0, inf)


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
    k = count(8)(k, "power k")
    power = np.linalg.matrix_power(a, k)
    if not np.isfinite(power).all():
        # norms exploded before k steps; the radius is certainly >= 1
        return float("inf")
    return float(spectral_norm(power) ** (1.0 / k))


def box_qp(h: np.ndarray, g: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The x in the box [lower, upper] minimizing x^T h x + 2 g^T x, ``h``
    symmetric positive semidefinite (M, M): exact, over the box's 3^M faces.

    On a face each coordinate sits at a bound or is free; the free ones F
    take the minimum-norm stationary point x_F = -pinv(h_FF) (g_F + h_FB x_B).
    Of the candidates within BOX_QP_FEASIBLE_TOL of the box (every corner
    is), the least-valued is returned, clipped into the box; a tie goes to
    the first face in ``itertools.product((lower, upper, free), ...)`` order.
    It is optimal for a singular ``h`` too: from an optimum, moving along
    null(h_FF) keeps the value until a free coordinate reaches its bound, so
    some optimum is the one stationary point of a face with h_FF nonsingular.
    Two candidates are compared by their difference in value,
    (x - y)^T (h (x + y) + 2 g), which settles a near-tie to about
    eps cond(h) where subtracting two values would leave about sqrt(eps).
    M above BOX_QP_MAX_DIM raises UnsupportedDimensionError.
    """
    m = len(g)
    if m > BOX_QP_MAX_DIM:
        raise UnsupportedDimensionError(f"box_qp enumerates 3^M faces for M <= {BOX_QP_MAX_DIM}, got M = {m}")
    below, above = lower - BOX_QP_FEASIBLE_TOL, upper + BOX_QP_FEASIBLE_TOL
    best = None
    for at_lower, free, fixed in _faces(m):
        x = np.where(at_lower, lower, upper)
        if free.size:
            rows = free[:, None]  # lstsq's minimum-norm solution: pinv(h_FF) times the right side
            x[free] = np.linalg.lstsq(h[rows, free], -(g[free] + h[rows, fixed] @ x[fixed]), rcond=None)[0]
            if np.any(x < below) or np.any(x > above):
                continue
        if best is None or (x - best) @ (h @ (x + best) + 2.0 * g) < 0.0:
            best = x
    return np.clip(best, lower, upper)


@functools.cache
def _faces(m: int) -> tuple:
    """The faces of an M-box in :func:`box_qp`'s order, built once per M:
    each face's mask of coordinates at their lower bound, and the indices
    of its free and of its fixed coordinates."""
    return tuple(
        (face == 0, np.flatnonzero(face == 2), np.flatnonzero(face != 2))
        for face in np.array(list(itertools.product((0, 1, 2), repeat=m)))
    )
