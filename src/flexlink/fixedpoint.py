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
from dataclasses import dataclass, field
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


@dataclass
class SifAxiomReport:
    """Outcome of sampling-based SIF axiom checks.

    ``monotonicity_violations`` holds tuples ``(x, y, index, gap)`` for pairs
    ``x <= y`` where some component of ``f(x)`` exceeds ``f(y)`` by more than
    the slack; ``scalability_violations`` holds ``(x, alpha, index, gap)``
    where ``alpha * f(x) - f(alpha x)`` fails to be strictly positive.
    """

    n_monotonicity: int = 0
    n_scalability: int = 0
    monotonicity_violations: list = field(default_factory=list)
    scalability_violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.monotonicity_violations and not self.scalability_violations


def check_sif_axioms(f, sample_pairs, alpha_samples, slack: float = 0.0) -> SifAxiomReport:
    """Check monotonicity and scalability of ``f`` on explicit samples.

    ``sample_pairs`` is an iterable of ``(x, y)`` with ``x <= y`` componentwise
    (pairs not satisfying this are skipped); ``alpha_samples`` are scalars > 1
    applied to the first element of each pair.  ``slack`` absorbs floating
    point noise: a violation is only reported if it exceeds the slack.
    """
    report = SifAxiomReport()
    for x, y in sample_pairs:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if not np.all(x <= y):
            continue
        report.n_monotonicity += 1
        fx, fy = f(x), f(y)
        gap = fx - fy
        worst = int(np.argmax(gap))
        if gap[worst] > slack:
            report.monotonicity_violations.append((x, y, worst, float(gap[worst])))
        for alpha in alpha_samples:
            if alpha <= 1:
                raise ValueError("alpha samples must be > 1")
            report.n_scalability += 1
            margin = alpha * fx - f(alpha * x)
            worst = int(np.argmin(margin))
            if margin[worst] <= -slack:
                report.scalability_violations.append((x, float(alpha), worst, float(margin[worst])))
    return report
