"""Input-validation helpers with consistent, informative error messages."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np


class ValidationError(ValueError):
    """Raised when an argument fails library-level validation."""


def reject_kwargs_with_spec(entry_point: str, **kwargs) -> None:
    """Reject configuration kwargs passed alongside ``spec=``.

    Each keyword maps a parameter name to a ``(value, default)`` pair; any
    value that differs from its default means the caller configured the
    same knob twice — once in the spec and once as a keyword — and the
    conflict raises instead of one side silently winning.  Runtime
    arguments (rng, callback, machine, config) are never passed here.
    """
    for name, (value, default) in kwargs.items():
        conflicting = (
            value is not default
            if default is None or isinstance(default, bool)
            else value != default
        )
        if conflicting:
            raise ValidationError(
                f"{entry_point}: {name}= conflicts with spec=; configure "
                f"{name} through the spec (got {name}={value!r})"
            )


def check_array(
    x,
    *,
    name: str = "array",
    ndim: Optional[int] = None,
    shape: Optional[Sequence[Optional[int]]] = None,
    dtype=float,
) -> np.ndarray:
    """Coerce ``x`` to an ndarray and validate its dimensionality/shape.

    ``shape`` entries of ``None`` act as wildcards, e.g. ``shape=(None, 10)``
    requires a 2-D array whose second dimension is exactly 10.
    """
    arr = np.asarray(x, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ValidationError(f"{name} must have ndim={ndim}, got ndim={arr.ndim}")
    if shape is not None:
        if arr.ndim != len(shape):
            raise ValidationError(
                f"{name} must have ndim={len(shape)}, got ndim={arr.ndim}"
            )
        for axis, expected in enumerate(shape):
            if expected is not None and arr.shape[axis] != expected:
                raise ValidationError(
                    f"{name} axis {axis} must have size {expected}, got {arr.shape[axis]}"
                )
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite values")
    return arr


def check_data_matrix(x, *, name: str = "data", n_features: Optional[int] = None):
    """Validate a 2-D design matrix that may be dense or scipy-sparse.

    Dense inputs go through :func:`check_array` exactly as before (float64
    coercion, finiteness).  Sparse inputs are canonicalized to float CSR and
    only the stored entries are checked for finiteness — the implicit zeros
    are finite by construction.  Returns the validated matrix, so callers
    can dispatch on the returned type.
    """
    from repro.utils.numerics import as_sparse_rows, is_sparse

    if is_sparse(x):
        arr = as_sparse_rows(x)
        if arr.size and not np.all(np.isfinite(arr.data)):
            raise ValidationError(f"{name} contains non-finite values")
        if n_features is not None and arr.shape[1] != n_features:
            raise ValidationError(
                f"{name} axis 1 must have size {n_features}, got {arr.shape[1]}"
            )
        return arr
    shape = (None, n_features) if n_features is not None else None
    return check_array(x, name=name, ndim=2, shape=shape)


def check_has_rows(x, *, name: str = "data"):
    """Reject a (dense or scipy-sparse) matrix with zero rows.

    The trainers' ``train`` boundary: an epoch over no samples runs no
    update and can only report a NaN reconstruction error.
    """
    if x.shape[0] == 0:
        raise ValidationError(f"{name} has no rows; training needs at least one sample")
    return x


def check_binary(x, *, name: str = "array") -> np.ndarray:
    """Validate that ``x`` holds only 0/1 values (as floats)."""
    arr = np.asarray(x, dtype=float)
    if arr.size and not np.all((arr == 0.0) | (arr == 1.0)):
        bad = arr[(arr != 0.0) & (arr != 1.0)]
        raise ValidationError(
            f"{name} must be binary (0/1); found values such as {bad.flat[0]!r}"
        )
    return arr


def check_probability(x, *, name: str = "probability") -> np.ndarray:
    """Validate that ``x`` lies in [0, 1]."""
    arr = np.asarray(x, dtype=float)
    if arr.size and (np.min(arr) < 0.0 or np.max(arr) > 1.0):
        raise ValidationError(
            f"{name} must lie in [0, 1]; range is [{np.min(arr)}, {np.max(arr)}]"
        )
    return arr


def check_positive(value: float, *, name: str = "value", strict: bool = True) -> float:
    """Validate that a scalar is positive (or non-negative when ``strict=False``)."""
    value = float(value)
    if strict and value <= 0:
        raise ValidationError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ValidationError(f"{name} must be >= 0, got {value}")
    return value


def check_in_range(
    value: float,
    low: float,
    high: float,
    *,
    name: str = "value",
    inclusive: Tuple[bool, bool] = (True, True),
) -> float:
    """Validate that ``low (<|<=) value (<|<=) high``."""
    value = float(value)
    lo_ok = value >= low if inclusive[0] else value > low
    hi_ok = value <= high if inclusive[1] else value < high
    if not (lo_ok and hi_ok):
        lo_br = "[" if inclusive[0] else "("
        hi_br = "]" if inclusive[1] else ")"
        raise ValidationError(
            f"{name} must be in {lo_br}{low}, {high}{hi_br}, got {value}"
        )
    return value
