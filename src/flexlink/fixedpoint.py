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
  ``normalized_fixed_points`` is the one loop for any batch of problems, each
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
_FIRST = np.zeros(1, np.intp)  # per_member's one start: each whole row
_rows = lambda a: a.reshape(-1, a.shape[-1])  # the members' rows of states (a vector's: one)
_values = lambda a: np.asarray(a).ravel().tolist()  # per-member values as Python floats


def per_member(ufunc, a):
    """``ufunc`` (max or min) over the last axis of ``a``, a numpy scalar for a vector:
    ``reduce`` without the per-call set-up that costs a small step more than its work."""
    return ufunc.reduceat(a, _FIRST, -1).T[0]


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

    This is the batch of one of :func:`normalized_fixed_points`: ``x0`` is a
    vector and ``g`` gives a float.
    """
    one = None if callback is None else (lambda b, t, x, residual: callback(t, x, residual))
    return normalized_fixed_points(f, g, x0, tol, max_iter, one, memory)[0]


def normalized_fixed_points(f, g, x0, tol: float = DEFAULT_TOL,
                            max_iter: int = DEFAULT_MAX_ITER, callback=None,
                            memory: int = 0, take=None) -> list:
    """:func:`normalized_fixed_point` of the problems whose starts are the
    rows of ``x0``: one result per member.

    ``f`` maps the states ``(..., n)`` to their images and ``g`` the images to
    one value per member: a ``(B,)`` array for ``(B, n)`` states, a scalar for
    a vector (a batch of one).  Each member has its own stop rule and Anderson
    history, and stops once the next evaluation has given its eigenvalue; its
    row (in the maps and the loop's arrays) stays at its last point until the
    running members are at most half of the rows, or the stopped rows have
    cost one evaluation of all the rows (about what a cut costs); then the
    loop keeps the running rows alone and ``take(members)``, their maps,
    replaces the maps.  So each member's iterates are bit for bit those of its
    batch of one.  ``callback(b, t, x, residual)`` is member ``b``'s callback.
    """
    if not memory:
        return _iterate(f, g, x0, tol, max_iter, callback, memory, take)
    with np.errstate(invalid="ignore", over="ignore"):
        return _iterate(f, g, x0, tol, max_iter, callback, memory, take)


class _Anderson:
    """Anderson steps for the rows of a stack, each with its own last plain point
    (the fallback) and step, ``memory`` rows of plain point and step differences
    with their Gram matrix (zero rows and the identity where unused, so that BLAS
    sees the same shapes in any batch), utility, and whether it extrapolates."""

    def __init__(self, x, memory):
        members, self.eye = x.shape[:-1], _identity(memory)
        self.last_x = self.last_r = x
        self.d_g, self.d_r = np.zeros((2,) + members + (memory, x.shape[-1]))
        self.gram = np.broadcast_to(self.eye, members + self.eye.shape).copy()
        # per-member values (numpy scalars for a vector); the first step sets ``u_last``'s
        self.u_last, self.has_fb = math.inf, np.zeros(members, bool)[()]

    def keep(self, rows):
        for name in ("last_x", "last_r", "d_g", "d_r", "gram", "u_last", "has_fb"):
            setattr(self, name, getattr(self, name)[rows])

    def step(self, t, x, fx, gv, x_next, r):
        """``(new, x_next, r, back)`` after the plain step ``x_next = x + r`` (fresh
        arrays), ``gv = g(f(x))``: a member whose extrapolated ``x`` lowered the
        utility ``min x / f(x)``, or whose ``g(f(x))`` exceeds 1, goes back (``back``)
        to its last plain point and step (so its residual repeats) and forgets its
        history; the others extrapolate ``x_next`` to ``new`` where that stays positive."""
        u, new = per_member(np.minimum, x / fx), x_next
        kept = (u >= self.u_last * _FLOOR) & (u * gv <= _CEILING)
        back = self.has_fb ^ (self.has_fb & kept)  # extrapolated, and kept nothing
        backs = any(back.flat)
        if t > 1 and not (backs and all(back.flat)):  # each member's step goes to slot j
            j = (t - 2) % len(self.eye)
            np.subtract(x_next, self.last_x, out=self.d_g[..., j, :])
            np.subtract(r, self.last_r, out=self.d_r[..., j, :])
            gram_row = self.d_r @ self.d_r[..., j, :, None]
            self.gram[..., j:j + 1], self.gram[..., j, :] = gram_row, gram_row[..., 0]
            coef = _lapack_solve(self.gram, self.d_r @ r[..., None], signature="dd->d")
            x_acc = x_next - (coef.swapaxes(-1, -2) @ self.d_g)[..., 0, :]
            self.has_fb = per_member(np.minimum, x_acc) > 0
            if all(self.has_fb.flat):
                new = x_acc
            elif any(self.has_fb.flat):
                new = np.where(self.has_fb[..., None], x_acc, x_next)
        if backs:  # the fallback, for any subset of the members
            self.has_fb = self.has_fb ^ (self.has_fb & back)
            rows = ... if all(back.flat) else np.flatnonzero(back)
            for a, value in ((self.d_g, 0.0), (self.d_r, 0.0), (self.gram, self.eye)):
                a[rows] = value
            if rows is ...:  # their last plain points and steps stand
                return self.last_x, self.last_x, self.last_r, back
            x_next[rows] = self.last_x[rows]  # fresh arrays: written in place
            if new is not x_next:
                new[rows] = self.last_x[rows]
            r[rows], u[rows] = self.last_r[rows], self.u_last[rows]
        self.last_x, self.last_r, self.u_last = x_next, r, u
        return new, x_next, r, back


def _iterate(f, g, x0, tol, max_iter, callback, memory, take):
    x = np.array(x0, dtype=float)
    ids = np.arange(len(_rows(x)))  # the member at each row
    if max_iter < 1:  # no step allowed: every member stays at its start
        return [FixedPointResult(row.copy(), None, 0, math.inf, False, "max_iter exceeded")
                for row in _rows(x)]
    out = [None] * len(ids)
    anderson = _Anderson(x, memory) if memory else None
    # per-member values have the shape of g's (numpy scalars for a vector)
    live, running, settle, t, idle = np.ones(x.shape[:-1], bool)[()], len(ids), None, 0, 0
    while True:
        fx = f(x)
        gf = g(fx)
        idle += len(ids) - running  # rows evaluated for no running member
        if settle is not None:  # some members stopped last step: settle the converged ones
            values = _values(gf)
            for i in settle:
                out[ids[i]].eigenvalue = 1.0 / values[i]
            if not running:
                return out
            settle = None
        if take is not None and (2 * running <= len(ids) or idle >= len(ids)):
            keep = np.flatnonzero(live)  # leave the running rows alone
            ids, x, fx, gf, live = ids[keep], x[keep], fx[keep], gf[keep], live[keep]
            if anderson is not None:
                anderson.keep(keep)
            f, g, idle = *take(ids), 0
        t += 1
        x_next = (fx.T / gf).T  # the plain step: each member's image over its own g
        new, r, back = x_next, x_next - x, None
        if anderson is not None:
            new, x_next, r, back = anderson.step(t, x, fx, gf, x_next, r)
        res = per_member(np.maximum, np.abs(r))
        if callback is not None:  # with memory the point just evaluated, else the next one
            values, at = _values(res), _rows(x if memory else x_next)
            for i in np.flatnonzero(live if back is None else live > back).tolist():
                callback(int(ids[i]), t, at[i].copy(), values[i])
        if running < len(ids):  # stopped members' rows stay at their last points
            new = np.where(live[..., None], new, x)
        go = live & (tol <= res) & (res < math.inf)  # the running rows that step on
        n_stop = 0 if all(go.flat) else np.count_nonzero(live ^ go)  # the common step: one test
        if n_stop or t == max_iter:
            stop, settle, values = live ^ go, [], _values(res)  # converged (eigenvalue next)
            for i in np.flatnonzero(stop).tolist():
                finite = math.isfinite(values[i])
                out[ids[i]] = FixedPointResult(_rows(x_next)[i].copy(),
                                               None if finite else math.nan, t, values[i],
                                               finite, "converged" if finite else "non-finite")
                if finite:
                    settle.append(i)
            if t == max_iter:
                limits = _values(gf)
                for i in np.flatnonzero(go).tolist():
                    out[ids[i]] = FixedPointResult(_rows(new)[i].copy(), 1.0 / limits[i]
                                                   if limits[i] else None, t, values[i], False,
                                                   "max_iter exceeded")
            if n_stop:  # evaluated next: last iterates, or non-finite ones' last finite points
                done = (x_next if len(settle) == n_stop  # every stopped row is finite
                        else np.where(np.isfinite(x_next), x_next, x))
                new = done if n_stop == len(ids) else np.where(stop[..., None], done, new)
            live, running = go, running - n_stop if t < max_iter else 0
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
