"""Fixed-point machinery for standard interference functions.

A standard interference function (SIF) ``f: R+^k -> R++^k`` is monotone
(``x <= y`` implies ``f(x) <= f(y)``) and scalable (``alpha f(x) > f(alpha x)``
for every ``alpha > 1``).  Two iterations are provided:

* ``yates_iteration``: the plain update ``x <- f(x)``, converging to the
  unique fixed point whenever a feasible point ``f(x') <= x'`` exists; from
  ``x0 = 0`` the iterates increase monotonically to the minimal solution.
* ``normalized_fixed_point``: the conditional-eigenvalue update
  ``x <- theta * f(x) / g(f(x))`` for a monotone, degree-1 homogeneous
  ``g``, converging to the unique eigenvector ``x'`` with
  ``x' = rho * f(x')`` and ``g(x') = theta``, where
  ``rho = theta / g(f(x'))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITER = 10_000
DIVERGENCE_WINDOW = 50


@dataclass
class FixedPointResult:
    x: np.ndarray
    eigenvalue: Optional[float]
    iterations: int
    residual: float
    converged: bool
    note: str = ""


def normalized_fixed_point(
    f,
    g,
    theta: float,
    x0,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    callback=None,
) -> FixedPointResult:
    """Iterate ``x <- theta * f(x) / g(f(x))`` until the sup-norm step is < tol.

    On convergence the eigenvalue field holds ``theta / g(f(x*))``, so that
    ``x* = eigenvalue * f(x*)`` and ``g(x*) = theta`` hold within tolerance.
    Non-convergence is reported in the result, never raised; the run stops
    on the first non-finite iterate (note ``non-finite``, eigenvalue NaN).
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    x = np.array(x0, dtype=float)
    residual = np.inf
    gf = None
    for t in range(1, max_iter + 1):
        fx = f(x)
        gf = g(fx)
        x_next = theta * fx / gf
        residual = float(np.max(np.abs(x_next - x)))
        if callback is not None:
            callback(t, x_next, residual)
        x = x_next
        if not math.isfinite(residual):
            return FixedPointResult(
                x=x, eigenvalue=math.nan, iterations=t, residual=residual,
                converged=False, note="non-finite",
            )
        if residual < tol:
            return FixedPointResult(
                x=x, eigenvalue=theta / float(g(f(x))), iterations=t,
                residual=residual, converged=True,
            )
    return FixedPointResult(
        x=x, eigenvalue=(theta / float(gf) if gf else None), iterations=max_iter,
        residual=residual, converged=False, note="max_iter exceeded",
    )


def yates_iteration(
    f,
    x0,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    divergence_window: int = DIVERGENCE_WINDOW,
    callback=None,
    rel_tol: Optional[float] = None,
) -> FixedPointResult:
    """Iterate ``x <- f(x)`` until the sup-norm step is < tol.

    ``rel_tol``, when given, additionally requires the componentwise relative
    step to fall below it (needed when the fixed point lives at a much
    smaller scale than the absolute tolerance).  If the residual grows for
    ``divergence_window`` consecutive iterations the run stops early and the
    result is flagged "likely infeasible" (no fixed point exists when no
    feasible point does).  A non-finite iterate stops the run at once with
    the note "non-finite".
    """
    x = np.array(x0, dtype=float)
    residual = np.inf
    growing = 0
    for t in range(1, max_iter + 1):
        x_next = f(x)
        prev_residual = residual
        residual = float(np.max(np.abs(x_next - x)))
        if callback is not None:
            callback(t, x_next, residual)
        done = residual < tol
        if done and rel_tol is not None:
            rel = np.abs(x_next - x) / np.maximum(np.abs(x_next), 1e-300)
            done = float(np.max(rel)) < rel_tol
        x = x_next
        if not math.isfinite(residual):
            return FixedPointResult(
                x=x, eigenvalue=None, iterations=t, residual=residual,
                converged=False, note="non-finite",
            )
        if done:
            return FixedPointResult(
                x=x, eigenvalue=None, iterations=t, residual=residual,
                converged=True,
            )
        growing = growing + 1 if residual > prev_residual else 0
        if growing >= divergence_window:
            return FixedPointResult(
                x=x, eigenvalue=None, iterations=t, residual=residual,
                converged=False, note="likely infeasible",
            )
    return FixedPointResult(
        x=x, eigenvalue=None, iterations=max_iter, residual=residual,
        converged=False, note="max_iter exceeded",
    )

