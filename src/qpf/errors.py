"""Exception taxonomy shared by all modules, and the input checks that raise it.

The CLI maps these onto process exit codes: InputError -> 1,
NumericalError -> 2, PostSelectionError -> 3.  In every check a bool is not a number.
"""

import math
import numbers

import numpy as np


class InputError(ValueError):
    """Malformed or invalid input: schema violations, bad flags, bad shapes."""


class NumericalError(RuntimeError):
    """Numerical failure: non-SPD matrix, singular system, no crossover."""


class PostSelectionError(RuntimeError):
    """Ancilla post-selection probability too small to condition on."""


def as_array(value, what: str, ndim: int | None, dtype: type = float,
             finite: bool = True) -> np.ndarray:
    """``value`` as a ``dtype`` array with ``ndim`` axes (None: any), finite if ``finite``."""
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged nest of sequences
        raise InputError(f"{what}: expected a {ndim}-D array, got a ragged one") from None
    if array.dtype.kind not in ("iufc" if dtype is complex else "iuf"):
        raise InputError(f"{what} must be {dtype.__name__}, got {array.dtype}")
    if ndim is not None and array.ndim != ndim:
        raise InputError(f"{what}: expected a {ndim}-D array, got shape {array.shape}")
    array = array.astype(dtype, copy=False)
    if finite and not np.isfinite(array).all():
        raise InputError(f"non-finite {what}")
    return array


def as_real(value, what: str, lo: float = -math.inf, hi: float = math.inf,
            closed: bool = False) -> float:
    """``value``, an int or real float, as a finite float in (lo, hi) ([lo, hi] if closed)."""
    if not isinstance(value, float):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise InputError(f"{what} must be a real number, got {type(value).__name__}")
        try:
            value = float(value)
        except OverflowError:  # an int past the float range
            value = math.inf if value > 0 else -math.inf
    if math.isfinite(value) and (lo <= value <= hi if closed else lo < value < hi):
        return value
    if lo == -math.inf and hi == math.inf:
        raise InputError(f"non-finite {what}")
    span = f"{'[' if closed else '('}{lo!r}, {hi!r}{']' if closed and hi < math.inf else ')'}"
    rule = "be positive and finite" if span == "(0, inf)" else "lie in " + span
    raise InputError(f"{what} must {rule}, got {float(value)!r}")


def as_int(value, what: str, lo: int, hi: int | None = None) -> int:
    """``value``, a Python or numpy int, as an int in [lo, hi] (None: unbounded)."""
    if type(value) is int or (not isinstance(value, bool) and isinstance(value, numbers.Integral)):
        if lo <= value and (hi is None or value <= hi):
            return int(value)
        problem = f"{value} is out of range"
    else:
        problem = f"{value!r} is not an integer"
    span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    raise InputError(f"{what} must be an int {span}: {problem}")
