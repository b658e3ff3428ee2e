"""Fixed-point machinery for standard interference functions.

A standard interference function (SIF) ``f: R+^k -> R++^k`` is monotone
(``x <= y`` implies ``f(x) <= f(y)``) and scalable (``alpha f(x) > f(alpha x)``
for every ``alpha > 1``).  Two iterations are provided:

* ``yates_iteration``: the plain update ``x <- f(x)``, converging to the
  unique fixed point whenever a feasible point ``f(x') <= x'`` exists; from
  ``x0 = 0`` the iterates increase monotonically to the minimal solution.
  It stops on an absolute and a relative step test together.
* ``normalized_fixed_point``: the conditional-eigenvalue update
  ``x <- f(x) / g(f(x))`` for a monotone, degree-1 homogeneous ``g``,
  converging to the unique eigenvector ``x'`` with ``x' = rho * f(x')`` and
  ``g(x') = 1``, where ``rho = 1 / g(f(x'))``.  A budget ``theta`` is the
  constraint ``g / theta``.  With ``memory > 0`` each step is
  extrapolated from the last ``memory`` steps (Anderson acceleration) under
  a safeguard that keeps the utility ``min x / f(x)`` from falling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITER = 10_000
DIVERGENCE_WINDOW = 50  # growing Yates residuals before "likely infeasible"
# Relative slack of the accelerated run's two safeguard tests.  Near the fixed
# point u * g(f(x)) tends to 1 exactly, and without slack rounding alone
# would decide between the extrapolated and the plain step.
ANDERSON_SLACK = 1e-12


@dataclass
class FixedPointResult:
    x: np.ndarray
    eigenvalue: Optional[float]
    iterations: int
    residual: float
    converged: bool
    note: str  # converged, non-finite, max_iter exceeded or likely infeasible


def normalized_fixed_point(
    f,
    g,
    x0,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    callback=None,
    memory: int = 0,
) -> FixedPointResult:
    """Iterate ``x <- G(x) = f(x) / g(f(x))`` until the sup-norm step
    ``|G(x) - x|`` is < tol, then return ``G(x)``.

    On convergence the eigenvalue field holds ``1 / g(f(x*))``, so that
    ``x* = eigenvalue * f(x*)`` and ``g(x*) = 1`` hold within tolerance.
    Non-convergence is reported in the result, never raised; the run stops
    on the first non-finite iterate (note ``non-finite``, eigenvalue NaN).

    ``memory > 0`` extrapolates each step from the last ``memory`` steps
    (Type-II Anderson acceleration, Walker & Ni 2011).  An extrapolated
    point is kept only if it is positive, its utility ``min x / f(x)`` has
    not fallen, and ``G`` of it cannot lower that utility; otherwise the run
    goes back to the plain step and forgets its history.  ``callback(t, x,
    residual)`` gets the next plain iterate, or with ``memory`` the point
    just evaluated, so the utility along its points never falls.
    """
    x = np.array(x0, dtype=float)
    residual = np.inf
    gf = None
    if memory:
        d_g, d_r = np.zeros((memory, x.size)), np.zeros((memory, x.size))
        gram = np.zeros((memory, memory))
        count, last, fallback = 0, None, None
    for t in range(1, max_iter + 1):
        fx = f(x)
        gf = g(fx)
        x_next = fx / gf
        if memory:
            u = float((x / fx).min())
            if fallback is not None and not (u >= u_last * (1 - ANDERSON_SLACK)
                                             and u * gf <= 1 + ANDERSON_SLACK):
                x, count, fallback = fallback, 0, None
                continue
            u_last, fallback, r = u, None, x_next - x
            if last is not None:
                j, n = count % memory, min(count + 1, memory)
                d_g[j], d_r[j] = x_next - last[0], r - last[1]
                gram[j, :n] = gram[:n, j] = d_r[:n] @ d_r[j]
                count += 1
                try:
                    x_acc = x_next - np.linalg.solve(gram[:n, :n], d_r[:n] @ r) @ d_g[:n]
                    fallback = x_next if (x_acc > 0).all() else None
                except np.linalg.LinAlgError:
                    pass
            last = (x_next, r)
        residual = float(np.abs(x_next - x).max())
        if callback is not None:
            callback(t, x if memory else x_next, residual)
        x = x_next
        if not math.isfinite(residual):
            return FixedPointResult(
                x=x, eigenvalue=math.nan, iterations=t, residual=residual,
                converged=False, note="non-finite",
            )
        if residual < tol:
            return FixedPointResult(
                x=x, eigenvalue=1.0 / float(g(f(x))), iterations=t,
                residual=residual, converged=True, note="converged",
            )
        if memory and fallback is not None:
            x = x_acc
    return FixedPointResult(
        x=x, eigenvalue=(1.0 / float(gf) if gf else None), iterations=max_iter,
        residual=residual, converged=False, note="max_iter exceeded",
    )


def yates_iteration(
    f,
    x0,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FixedPointResult:
    """Iterate ``x <- f(x)`` until both the sup-norm step and the largest
    componentwise relative step are < tol.

    The relative test keeps the rule meaningful when the fixed point lives
    far below the absolute tolerance (watts-scale PSDs).  If the residual
    grows for ``DIVERGENCE_WINDOW`` consecutive iterations the run stops
    early and the result is flagged "likely infeasible" (no fixed point
    exists when no feasible point does).  A non-finite iterate stops the run
    at once with the note "non-finite".
    """
    x = np.array(x0, dtype=float)
    residual = np.inf
    growing = 0
    for t in range(1, max_iter + 1):
        x_next = f(x)
        prev_residual = residual
        step = np.abs(x_next - x)
        residual = float(step.max())
        done = (residual < tol
                and float((step / np.maximum(np.abs(x_next), 1e-300)).max()) < tol)
        x = x_next
        if not math.isfinite(residual):
            return FixedPointResult(
                x=x, eigenvalue=None, iterations=t, residual=residual,
                converged=False, note="non-finite",
            )
        if done:
            return FixedPointResult(
                x=x, eigenvalue=None, iterations=t, residual=residual,
                converged=True, note="converged",
            )
        growing = growing + 1 if residual > prev_residual else 0
        if growing >= DIVERGENCE_WINDOW:
            return FixedPointResult(
                x=x, eigenvalue=None, iterations=t, residual=residual,
                converged=False, note="likely infeasible",
            )
    return FixedPointResult(
        x=x, eigenvalue=None, iterations=max_iter, residual=residual,
        converged=False, note="max_iter exceeded",
    )
