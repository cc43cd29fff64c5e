"""Asymptotic cost models and the classical-vs-quantum crossover.

Classical (conjugate-gradient style):  n * s * k * log(1/eps)
Quantum (HHL style):                   log(n) * s^2 * k^2 / eps

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

from qpf.errors import InputError, NumericalError

_LN_BASES = {name: math.log(base) for name, base in (("2", 2.0), ("e", math.e), ("10", 10.0))}
_math_log_each = np.vectorize(math.log, otypes=[float])

SEARCH_RANGE = (2.0, 1.0e7)
BISECT_REL_TOL = 1e-6
CROSSOVER_SAMPLES = 200  # log-spaced grid points scanned for a sign change
MAX_SWEEP_STEPS = 10**6  # sweep rows; each is a Python tuple


@dataclass(frozen=True)
class ComplexityParams:
    s: float
    k: float
    epsilon: float
    log_n_base: str = "2"
    log_eps_base: str = "e"

    def __post_init__(self):
        if not (self.s >= 1 and math.isfinite(self.s)):
            raise InputError("sparsity s must be finite and >= 1")
        if not (self.k > 0 and math.isfinite(self.k)):
            raise InputError("condition parameter k must be finite and > 0")
        if not 0 < self.epsilon < 1:
            raise InputError("epsilon must lie in (0, 1)")
        for base in (self.log_n_base, self.log_eps_base):
            if base not in _LN_BASES:
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


def _check_n(n: float | np.ndarray) -> None:
    if not ((n >= 2).all() if isinstance(n, np.ndarray) else n >= 2):
        raise InputError("n must be >= 2")


def _check_ratio(constant_ratio: float) -> None:
    if not (constant_ratio > 0 and math.isfinite(constant_ratio)):
        raise InputError("constant_ratio must be positive and finite")


def t_classical(n: float | np.ndarray, p: ComplexityParams) -> float | np.ndarray:
    _check_n(n)
    return n * p.s * p.k * _log(1.0 / p.epsilon, p.log_eps_base)


def t_quantum(n: float | np.ndarray, p: ComplexityParams) -> float | np.ndarray:
    _check_n(n)
    return _log(n, p.log_n_base) * p.s**2 * p.k**2 / p.epsilon


def base_speed_ratio(
    n: float, classical: ComplexityParams, quantum: ComplexityParams
) -> float:
    """Classical-to-quantum model cost ratio at dimension n.

    This is the per-unit-cost handicap the quantum side can carry while
    still breaking even at n.
    """
    return t_classical(n, classical) / t_quantum(n, quantum)


def _costs(n, classical: ComplexityParams, quantum: ComplexityParams, constant_ratio: float):
    """``(n, classical, scaled quantum cost)`` at a float n or over an ndarray of n.

    NumericalError names the first n whose cost is not finite.
    """
    try:
        c_cost = t_classical(n, classical)
        q_cost = constant_ratio * t_quantum(n, quantum)
    except OverflowError:  # s**2 or k**2 of a Python float: no n is finite
        c_cost = q_cost = n * math.inf
    if isinstance(n, np.ndarray):
        finite = np.isfinite(c_cost) & np.isfinite(q_cost)
        bad = None if finite.all() else float(n[np.argmin(finite)])
    else:
        bad = None if math.isfinite(c_cost) and math.isfinite(q_cost) else n
    if bad is not None:
        raise NumericalError(f"model cost at n = {bad:g} is not finite")
    return n, c_cost, q_cost


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
    the whole range or a model cost is not finite.
    """
    _check_ratio(constant_ratio)

    def gap(n: float) -> float:
        _, c_cost, q_cost = _costs(n, classical, quantum, constant_ratio)
        return q_cost - c_cost

    lo_end, hi_end = SEARCH_RANGE
    grid = np.geomspace(lo_end, hi_end, CROSSOVER_SAMPLES).tolist()
    samples = [_costs(n, classical, quantum, constant_ratio) for n in grid]
    values = [q_cost - c_cost for _, c_cost, q_cost in samples]
    bracket = None
    for left, right, f_left, f_right in zip(grid, grid[1:], values, values[1:]):
        if f_left == 0.0:
            bracket = (left, left, f_left)
            break
        if f_left * f_right < 0:
            bracket = (left, right, f_left)
            break
    if bracket is None:
        side = "classical" if values[0] < 0 else "quantum"
        raise NumericalError(
            f"no crossover in [{lo_end:g}, {hi_end:g}]: {side} model dominates"
        )

    lo, hi, f_lo = bracket
    while hi - lo > BISECT_REL_TOL * 0.5 * (hi + lo):
        mid = 0.5 * (lo + hi)
        f_mid = gap(mid)
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    n_star = 0.5 * (lo + hi)

    return CrossoverReport(
        n_star=float(n_star),
        constant_ratio=float(constant_ratio),
        convention=_convention(classical, quantum),
        samples=samples,
    )


def sweep(
    classical: ComplexityParams,
    quantum: ComplexityParams,
    constant_ratio: float,
    n_range: tuple[float, float],
    steps: int,
) -> list[tuple[float, float, float]]:
    """Log-spaced cost samples (n, classical, scaled quantum); NumericalError on overflow.

    The models run once over the grid; ``_log`` takes ``math.log`` per entry
    so that each row keeps the bits a one-point evaluation gives.
    """
    _check_ratio(constant_ratio)
    lo, hi = n_range
    if not (2 <= lo <= hi and math.isfinite(hi)):
        raise InputError("need 2 <= lo <= hi < inf")
    if not 1 <= steps <= MAX_SWEEP_STEPS:
        raise InputError(f"steps must lie in [1, {MAX_SWEEP_STEPS}]")
    if steps == 1 or lo == hi:
        grid = np.full(steps, float(lo))
    else:
        grid = np.geomspace(lo, hi, steps)
    with np.errstate(over="ignore"):  # an overflow reads inf, which _costs rejects
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
