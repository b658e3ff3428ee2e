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
  ``normalized_fixed_points`` runs it for a stack of problems at once, each
  with its own stop rule and history; ``normalized_fixed_point`` is its
  batch of one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# np.linalg.solve's LAPACK kernel: its bits without its per-call set-up, which
# would cost an accelerated step of a small problem a fifth of its time.  A
# singular system, or a Gram matrix that overflows at a huge budget, gives a
# non-finite extrapolation (silently: the accelerated loop ignores invalid-value
# and overflow warnings), which the positivity test refuses.
from numpy.linalg._umath_linalg import solve as _lapack_solve

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITER = 10_000
DIVERGENCE_WINDOW = 50  # growing Yates residuals before "likely infeasible"
# Relative slack of the accelerated run's two safeguard tests.  Near the fixed
# point u * g(f(x)) tends to 1 exactly, and without slack rounding alone
# would decide between the extrapolated and the plain step.
ANDERSON_SLACK = 1e-12
_FLOOR, _CEILING = 1 - ANDERSON_SLACK, 1 + ANDERSON_SLACK
_identity = functools.cache(np.eye)  # shared: read, never written


@dataclass
class FixedPointResult:
    x: np.ndarray
    eigenvalue: Optional[float]
    iterations: int
    residual: float
    converged: bool
    note: str  # converged, non-finite, max_iter exceeded or likely infeasible


def normalized_fixed_point(f, g, x0, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                           callback=None, memory: int = 0) -> FixedPointResult:
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

    This is the batch of one of :func:`normalized_fixed_points`.
    """
    solo = None if callback is None else (lambda b, t, x, residual: callback(t, x, residual))
    return normalized_fixed_points(f, g, x0, tol, max_iter, solo, memory)[0]


def normalized_fixed_points(f, g, x0, tol: float = DEFAULT_TOL,
                            max_iter: int = DEFAULT_MAX_ITER, callback=None,
                            memory: int = 0, take=None) -> list:
    """:func:`normalized_fixed_point` of the ``B`` problems whose starts are
    the rows of ``x0``: one result per member.

    ``f`` maps the ``(B, n)`` stacked states to their images and ``g`` the
    images to a ``(B, 1)`` column, member by member.  A batch of one may also
    run on its vector, ``g`` giving a float: the same steps on arrays without
    the member axis.  Each member has its own stop rule and Anderson history,
    and stops once the next evaluation has given its eigenvalue; the maps see
    its last point until the running members are at most half of their rows,
    when ``take(members)``, the maps of the members at those indices alone,
    replaces them.  So each member's iterates are bit for bit those of its
    batch of one.  ``callback(b, t, x, residual)`` is member ``b``'s callback.
    """
    if not memory:
        return _iterate(f, g, x0, tol, max_iter, callback, memory, take)
    with np.errstate(invalid="ignore", over="ignore"):
        return _iterate(f, g, x0, tol, max_iter, callback, memory, take)


def _kept(keep, *members):
    """Each of ``members``, a list or an array over the members, without those ``keep`` drops."""
    return [a[keep] if isinstance(a, np.ndarray) else [v for v, k in zip(a, keep) if k]
            for a in members]


class _Anderson:
    """Anderson steps for a stack's members, each with its own last plain point
    (the fallback) and step, ``memory`` rows of plain point and step differences
    with their Gram matrix (zero rows and the identity where unused, so that BLAS
    sees the same shapes in any batch), utility, and whether it extrapolates."""

    def __init__(self, x, size, memory, each):
        self.each, self.eye = each, _identity(memory)
        self.last_x = self.last_r = x
        self.d_g, self.d_r = np.zeros((2,) + x.shape[:-1] + (memory, x.shape[-1]))
        self.gram = np.zeros(x.shape[:-1] + self.eye.shape)
        self.gram[...] = self.eye
        self.u_last, self.has_fb = [math.inf] * size, [False] * size

    def keep(self, keep):
        (self.u_last, self.has_fb, self.last_x, self.last_r, self.d_g, self.d_r,
         self.gram) = _kept(keep, self.u_last, self.has_fb, self.last_x, self.last_r, self.d_g,
                            self.d_r, self.gram)

    def step(self, t, x, fx, gf, x_next, r):
        """``(new, x_next, r, back)`` after the plain step ``x_next = x + r``:
        a member whose extrapolated ``x`` lowered the utility ``min x / f(x)``,
        or whose ``g(f(x))`` exceeds 1, goes back (``back``) to its last plain
        point and step (so its residual repeats) and forgets its history; the
        others extrapolate ``x_next`` to ``new`` where that stays positive."""
        u, new = self.each(np.minimum.reduce(x / fx, axis=-1)), x_next
        back = [h and not (v >= v_last * _FLOOR and v * gv <= _CEILING)
                for h, v, v_last, gv in zip(self.has_fb, u, self.u_last, self.each(gf))]
        if t > 1 and False in back:  # every member's step goes to slot j of its history
            j = (t - 2) % len(self.eye)
            np.subtract(x_next, self.last_x, out=self.d_g[..., j, :])
            np.subtract(r, self.last_r, out=self.d_r[..., j, :])
            gram_row = self.d_r @ self.d_r[..., j, :, None]
            self.gram[..., j:j + 1], self.gram[..., j, :] = gram_row, gram_row[..., 0]
            coef = _lapack_solve(self.gram, self.d_r @ r[..., None], signature="dd->d")
            x_acc = x_next - (coef.swapaxes(-1, -2) @ self.d_g)[..., 0, :]
            self.has_fb = self.each(np.minimum.reduce(x_acc, axis=-1) > 0)
            if True in self.has_fb:
                new = x_acc if False not in self.has_fb else np.where(
                    np.array(self.has_fb)[:, None], x_acc, x_next)
        if True in back:  # the fallback, for any subset of the members
            mask = slice(None) if False not in back else np.array(back)
            self.has_fb = [h and not b for h, b in zip(self.has_fb, back)]
            for a, value in ((self.d_g, 0.0), (self.d_r, 0.0), (self.gram, self.eye)):
                a[mask] = value
            if False not in back:  # all of them: their last plain point and step stand
                return self.last_x, self.last_x, self.last_r, back
            new, x_next, r = (np.where(mask[:, None], old, now) for old, now in (
                (self.last_x, new), (self.last_x, x_next), (self.last_r, r)))
            u = [old if b else now for b, old, now in zip(back, self.u_last, u)]
        self.last_x, self.last_r, self.u_last = x_next, r, u
        return new, x_next, r, back


def _iterate(f, g, x0, tol, max_iter, callback, memory, take):
    x = np.array(x0, dtype=float)
    solo = x.ndim == 1  # a batch of one on its vector: a member's array is the array itself
    size = 1 if solo else len(x)
    # per-member scalars are lists of Python numbers (a batch of one pays no masks and no
    # numpy scalar arithmetic): of g, or of a reduction over the last axis
    each = (lambda a: [float(a)]) if solo else (lambda a: a.ravel().tolist())
    row = (lambda a, i: a) if solo else (lambda a, i: a[i].copy())
    ids, out, stopped, t, res = list(range(size)), [None] * size, [], 0, [math.inf] * size
    if max_iter < 1:  # no step allowed: every member stays at its start
        return [FixedPointResult(row(x, i), None, 0, math.inf, False, "max_iter exceeded")
                for i in ids]
    anderson, active = _Anderson(x, size, memory, each) if memory else None, None
    while True:
        if active is not None:  # the maps' rows (mapped) hold stopped members' last points
            mapped[active] = x
            fx = f(mapped)
            fx, gf = fx[active], g(fx)[active]
        else:
            fx = f(x)
            gf = g(fx)
        if True in stopped:  # settle, then drop, the members that stopped last step
            for i, b in enumerate(ids):
                if stopped[i] and out[b].converged:
                    out[b].eigenvalue = 1.0 / each(gf)[i]
            if False not in stopped:
                return out
            keep = [not s for s in stopped]
            if active is None:  # where the running members sit among the maps' rows
                mapped, active = x, np.arange(len(x))
            ids, res, x, fx, gf, active = _kept(keep, ids, res, x, fx, gf, active)
            if anderson is not None:
                anderson.keep(keep)
            if take is not None and 2 * len(ids) <= len(mapped):
                (f, g), active = take(ids), None
        t += 1
        x_next = fx / gf  # the plain step
        new, r, back = x_next, x_next - x, None
        if anderson is not None:
            new, x_next, r, back = anderson.step(t, x, fx, gf, x_next, r)
        res = each(np.maximum.reduce(np.abs(r), axis=-1))
        if callback is not None:  # with memory the point just evaluated, else the next one
            for i, b in enumerate(ids):
                if back is None or not back[i]:
                    callback(b, t, row(x if memory else x_next, i), res[i])
        stopped = [not tol <= v < math.inf for v in res]  # the stop test
        if True in stopped or t == max_iter:
            for i, b in enumerate(ids):
                finite = math.isfinite(res[i])
                if stopped[i]:  # converged (eigenvalue next evaluation) or non-finite
                    out[b] = FixedPointResult(row(x_next, i), None if finite else math.nan,
                                              t, res[i], finite,
                                              "converged" if finite else "non-finite")
                elif t == max_iter:
                    gv = each(gf)[i]
                    out[b] = FixedPointResult(row(new, i), 1.0 / gv if gv else None, t,
                                              res[i], False, "max_iter exceeded")
            # evaluated next: converged members' last iterates, non-finite ones' last finite points
            done = (x_next if all(map(math.isfinite, res))
                    else np.where(np.isfinite(x_next), x_next, x))
            if True in stopped:
                new = done if False not in stopped else np.where(np.array(stopped)[:, None], done,
                                                                 new)
            stopped = [True] * len(ids) if t == max_iter else stopped
        x = new


def yates_iteration(f, x0, tol: float = DEFAULT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER) -> FixedPointResult:
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
    residual, growing, note = np.inf, 0, "max_iter exceeded"
    for t in range(1, max_iter + 1):
        x_next = f(x)
        step = np.abs(x_next - x)
        residual, prev_residual = float(step.max()), residual
        done = (residual < tol
                and float((step / np.maximum(np.abs(x_next), 1e-300)).max()) < tol)
        x = x_next
        growing = growing + 1 if residual > prev_residual else 0
        if not math.isfinite(residual):
            note = "non-finite"
        elif done:
            note = "converged"
        elif growing >= DIVERGENCE_WINDOW:
            note = "likely infeasible"
        else:
            continue
        break
    else:  # every step taken, or none (max_iter < 1)
        t = max_iter
    return FixedPointResult(x=x, eigenvalue=None, iterations=t, residual=residual,
                            converged=note == "converged", note=note)
