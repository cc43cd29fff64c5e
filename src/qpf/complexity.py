"""Asymptotic cost models and the classical-vs-quantum crossover.

Classical (conjugate-gradient style):  n * s * k * log(1/eps)
Quantum (HHL style):                   log(n) * s^2 * k^2 / eps
at n a real >= 2 or an ndarray of them (InputError otherwise).

Costs are unitless model units; the "constant_ratio" scales the quantum
model to account for per-unit-cost differences between the technologies.
Log bases are explicit because the crossover location depends on them; the
defaults (natural log for log(1/eps), base 2 for log(n)) are the pair that
reproduces the documented base speed ratio at n = 8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qpf.errors import InputError, NumericalError, as_array, as_int, as_real

LOG_BASES = ("2", "e", "10")  # the names a log base may take, in the order the CLI lists them
_LN_BASES = {name: math.log(base) for name, base in zip(LOG_BASES, (2.0, math.e, 10.0))}
_math_log_each = np.vectorize(math.log, otypes=[float])

SEARCH_RANGE = (2.0, 1.0e7)
BISECT_REL_TOL = 1e-6
CROSSOVER_SAMPLES = 200  # log-spaced grid points scanned for a sign change
MAX_SWEEP_STEPS = 10**6  # sweep rows; each is a Python tuple


@dataclass(frozen=True)
class ComplexityParams:
    """Reals s >= 1, k > 0, 0 < epsilon < 1 (stored as floats); log bases "2", "e" or "10"."""

    s: float
    k: float
    epsilon: float
    log_n_base: str = "2"
    log_eps_base: str = "e"

    def __post_init__(self):
        object.__setattr__(self, "s", as_real(self.s, "sparsity s", 1, closed=True))
        object.__setattr__(self, "k", as_real(self.k, "condition parameter k", 0))
        object.__setattr__(self, "epsilon", as_real(self.epsilon, "epsilon", 0, 1))
        for base in (self.log_n_base, self.log_eps_base):
            if not (isinstance(base, str) and base in _LN_BASES):
                raise InputError(f"log base {base!r} not one of {sorted(_LN_BASES)}")


@dataclass(frozen=True)
class CrossoverReport:
    n_star: float
    constant_ratio: float
    convention: str
    samples: list[tuple[float, float, float]]


def _log(value: float | np.ndarray, base: str) -> float | np.ndarray:
    """log_base of a float, or of each entry of a float ndarray.

    An ndarray's entries go through ``math.log`` one by one: numpy's SIMD
    ``np.log`` can differ from it in the last bit, which JSON output prints.
    """
    ln = _math_log_each(value) if isinstance(value, np.ndarray) else math.log(value)
    return ln / _LN_BASES[base]


def _check_n(n: float | np.ndarray) -> float | np.ndarray:
    if not isinstance(n, np.ndarray):
        return as_real(n, "n", 2, closed=True)
    if not ((n := as_array(n, "n", None)) >= 2).all():
        raise InputError("n must be >= 2")
    return n


def _classical(n: float | np.ndarray, p: ComplexityParams) -> float | np.ndarray:
    return n * p.s * p.k * _log(1.0 / p.epsilon, p.log_eps_base)


def _quantum(n: float | np.ndarray, p: ComplexityParams) -> float | np.ndarray:
    return _log(n, p.log_n_base) * p.s**2 * p.k**2 / p.epsilon


def _finite_cost(n: float | np.ndarray, cost):
    """``cost()`` at a float or ndarray n, or NumericalError naming the first n where a cost
    is not finite."""
    try:
        with np.errstate(all="ignore"):
            value = cost()
    except (OverflowError, ZeroDivisionError):  # Python floats raise where numpy reads inf
        value = n * math.inf
    if isinstance(n, np.ndarray):
        if (finite := np.isfinite(value)).all():
            return value
        n = n.flat[np.argmin(finite.reshape(-1, n.size).all(axis=0))]
    elif math.isfinite(value):
        return value
    raise NumericalError(f"model cost at n = {n:g} is not finite")


def t_classical(n: float | np.ndarray, p: ComplexityParams) -> float | np.ndarray:
    """n*s*k*log(1/eps); NumericalError names the first n where it is not finite."""
    n = _check_n(n)
    return _finite_cost(n, lambda: _classical(n, p))


def t_quantum(n: float | np.ndarray, p: ComplexityParams) -> float | np.ndarray:
    """log(n)*s^2*k^2/eps; NumericalError names the first n where it is not finite."""
    n = _check_n(n)
    return _finite_cost(n, lambda: _quantum(n, p))


def base_speed_ratio(
    n: float, classical: ComplexityParams, quantum: ComplexityParams
) -> float:
    """Classical-to-quantum model cost ratio at dimension n.

    This is the per-unit-cost handicap the quantum side can carry while
    still breaking even at n.  NumericalError when either cost or the ratio is not finite.
    """
    return _finite_cost(n, lambda: t_classical(n, classical) / t_quantum(n, quantum))


def _costs(n, classical: ComplexityParams, quantum: ComplexityParams, constant_ratio: float):
    """The columns ``(n, classical, scaled quantum cost)`` over an ndarray of n, guarded once."""
    return (n, *_finite_cost(n, lambda: (_classical(n, classical),
                                         constant_ratio * _quantum(n, quantum))))


def _convention(classical: ComplexityParams, quantum: ComplexityParams) -> str:
    return (
        f"classical = n*s*k*log_{classical.log_eps_base}(1/eps); "
        f"quantum = log_{quantum.log_n_base}(n)*s^2*k^2/eps, "
        "scaled by constant_ratio"
    )


def find_crossover(
    classical: ComplexityParams,
    quantum: ComplexityParams,
    constant_ratio: float,
) -> CrossoverReport:
    """Bisection root of t_classical(n) = constant_ratio * t_quantum(n).

    Scans a log-spaced grid over [2, 1e7] for a sign change, then bisects to
    1e-6 relative tolerance.  Raises NumericalError when one model dominates
    the whole range or a model cost is not finite, InputError unless constant_ratio > 0.
    """
    constant_ratio = as_real(constant_ratio, "constant_ratio", 0)
    lo_end, hi_end = SEARCH_RANGE
    grid = np.geomspace(lo_end, hi_end, CROSSOVER_SAMPLES)
    columns = _costs(grid, classical, quantum, constant_ratio)
    signs = np.sign(columns[2] - columns[1])  # not products of gaps, which can under- or overflow
    starts = np.flatnonzero((signs[:-1] == 0) | (signs[:-1] * signs[1:] < 0))
    if not starts.size:
        side = "classical" if signs[0] < 0 else "quantum"
        raise NumericalError(
            f"no crossover in [{lo_end:g}, {hi_end:g}]: {side} model dominates"
        )

    i = int(starts[0])  # the gap is 0 at grid[i], or changes sign after it
    lo, hi = float(grid[i]), float(grid[i + 1 if signs[i] else i])
    while hi - lo > BISECT_REL_TOL * 0.5 * (hi + lo):
        mid = 0.5 * (lo + hi)
        f_mid = constant_ratio * t_quantum(mid, quantum) - t_classical(mid, classical)
        if signs[i] * f_mid <= 0:
            hi = mid
        else:
            lo = mid
    n_star = 0.5 * (lo + hi)

    return CrossoverReport(
        n_star=float(n_star),
        constant_ratio=float(constant_ratio),
        convention=_convention(classical, quantum),
        samples=list(zip(*(column.tolist() for column in columns))),
    )


def sweep(
    classical: ComplexityParams,
    quantum: ComplexityParams,
    constant_ratio: float,
    n_range: tuple[float, float],
    steps: int,
) -> list[tuple[float, float, float]]:
    """Log-spaced cost samples (n, classical, scaled quantum); NumericalError on overflow.

    InputError unless constant_ratio > 0, n_range is 2 <= lo <= hi < inf and steps an int.
    The models run once over the grid; ``_log`` takes ``math.log`` per entry
    so that each row keeps the bits a one-point evaluation gives.
    """
    constant_ratio = as_real(constant_ratio, "constant_ratio", 0)
    bounds = as_array(n_range, "n_range bound", 1, finite=False)
    if bounds.shape != (2,) or not 2 <= bounds[0] <= bounds[1] < math.inf:
        raise InputError("need 2 <= lo <= hi < inf")
    (lo, hi), steps = bounds.tolist(), as_int(steps, "steps", 1, MAX_SWEEP_STEPS)
    grid = np.full(steps, lo) if lo == hi else np.geomspace(lo, hi, steps)
    columns = _costs(grid, classical, quantum, constant_ratio)
    return list(zip(*(column.tolist() for column in columns)))


def _sig6(value: float) -> str:
    return np.format_float_positional(
        value, precision=6, unique=False, fractional=False, trim="-"
    )


def sweep_csv(rows: list[tuple[float, float, float]]) -> str:
    """CSV serialization: 6 significant digits, decimal notation, LF newlines.

    ``%.6g`` writes the same digits as ``_sig6`` unless it switches to an
    exponent (below 1e-4 or from 1e6 on); only such a row goes through ``_sig6``.
    """
    lines = ["n,classical_cost,quantum_cost_scaled"]
    for row in rows:
        line = "%.6g,%.6g,%.6g" % tuple(row)
        lines.append(",".join(map(_sig6, row)) if "e" in line else line)
    return "\n".join(lines) + "\n"
