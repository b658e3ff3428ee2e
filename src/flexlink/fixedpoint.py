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
# singular system gives NaN (silently: the accelerated loop ignores invalid-value
# warnings), which no extrapolation accepts.
from numpy.linalg._umath_linalg import solve as _lapack_solve

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITER = 10_000
DIVERGENCE_WINDOW = 50  # growing Yates residuals before "likely infeasible"
# Relative slack of the accelerated run's two safeguard tests.  Near the fixed
# point u * g(f(x)) tends to 1 exactly, and without slack rounding alone
# would decide between the extrapolated and the plain step.
ANDERSON_SLACK = 1e-12
_identity = functools.cache(np.eye)  # shared: read, never written


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

    This is the batch of one of :func:`normalized_fixed_points`.
    """
    solo = None if callback is None else (lambda b, t, x, residual: callback(t, x, residual))
    return normalized_fixed_points(f, g, np.asarray(x0, dtype=float), tol, max_iter, solo,
                                   memory)[0]


def normalized_fixed_points(f, g, x0, tol: float = DEFAULT_TOL,
                            max_iter: int = DEFAULT_MAX_ITER, callback=None,
                            memory: int = 0) -> list:
    """:func:`normalized_fixed_point` of the ``B`` problems whose starts are
    the rows of ``x0``: one result per member.

    ``f`` maps the ``(B, n)`` stacked states to their images and ``g`` the
    images to a ``(B, 1)`` column, member by member.  A batch of one may also
    run on its vector, ``g`` giving a float: the same steps on arrays without
    the member axis.  Each member has its own stop rule and Anderson history,
    and leaves the active set once the next evaluation has given its
    eigenvalue; the maps still see its last point.  So each member's iterates
    are bit for bit those of its batch of one.  The history always has
    ``memory`` rows, zero where unused (the identity in the Gram matrix), so
    that BLAS sees the same shapes in any batch.  ``callback(b, t, x,
    residual)`` is member ``b``'s callback.
    """
    if not memory:
        return _iterate(f, g, x0, tol, max_iter, callback, memory)
    with np.errstate(invalid="ignore"):
        return _iterate(f, g, x0, tol, max_iter, callback, memory)


def _iterate(f, g, x0, tol, max_iter, callback, memory):
    x = every = np.array(x0, dtype=float)  # every row a finite point, for the maps
    solo = x.ndim == 1  # a batch of one on its vector: a member's array is the array itself
    size = 1 if solo else len(x)
    # per-member scalars are lists of Python numbers (a batch of one pays no masks and no
    # numpy scalar arithmetic): of g, or of a reduction over the last axis
    each = (lambda a: [float(a)]) if solo else (lambda a: a.ravel().tolist())
    row = (lambda a, i: a) if solo else (lambda a, i: a[i].copy())
    ids, out, stopped, t, res = list(range(size)), [None] * size, None, 0, [math.inf] * size
    active = None  # after a member stops: the indices of the others
    if memory:  # the last plain point (the fallback) and step, the histories of points and
        # steps, their Gram matrix, the utility, and whether the next point is extrapolated
        eye, floor, ceiling = _identity(memory), 1 - ANDERSON_SLACK, 1 + ANDERSON_SLACK
        last_x, last_r, d_g, d_r = x, x, *np.zeros((2,) + x.shape[:-1] + (memory, x.shape[-1]))
        gram = np.zeros(x.shape[:-1] + eye.shape)
        gram[...] = eye
        u_last, has_fb = res, [False] * size
    while True:
        if active is not None:  # the maps see every member, the stopped at their last point
            every[active] = x
            fx = f(every)
            fx, gf = fx[active], g(fx)[active]
        else:
            fx = f(x)
            gf = g(fx)
        if stopped is not None:  # settle, then drop, the members that stopped last step
            for i, b in enumerate(ids):
                if stopped[i] and out[b].converged:
                    out[b].eigenvalue = 1.0 / float(each(gf)[i])
            if False not in stopped:
                return out
            every[ids] = x  # the stopped members' last points stay in every
            keep = [not s for s in stopped]
            pick = lambda *lists: ([v for v, k in zip(a, keep) if k] for a in lists)
            (ids, res), x, fx, gf = pick(ids, res), x[keep], fx[keep], gf[keep]
            active = np.array(ids)
            if memory:
                u_last, has_fb = pick(u_last, has_fb)
                last_x, last_r, d_g, d_r, gram = (a[keep] for a in (last_x, last_r, d_g, d_r, gram))
        t += 1
        x_next, back = fx / gf, (False,)  # back: whether each member takes its fallback
        if memory:
            u = each(np.minimum.reduce(x / fx, axis=-1))
            back = [h and not (v >= v_last * floor and v * gv <= ceiling)
                    for h, v, v_last, gv in zip(has_fb, u, u_last, each(gf))]
        if False not in back:  # every member goes back to its fallback, with no history
            new, step_res, has_fb = last_x, res, [False] * len(ids)
            d_g[:], d_r[:], gram[:] = 0.0, 0.0, eye
        else:
            r = x_next - x
            new, step_res = x_next, each(np.maximum.reduce(np.abs(r), axis=-1))
        if memory and False in back:
            if t > 1:  # every member's step goes to slot j of its history
                j = (t - 2) % memory
                np.subtract(x_next, last_x, out=d_g[..., j, :])
                np.subtract(r, last_r, out=d_r[..., j, :])
                gram_row = d_r @ d_r[..., j, :, None]
                gram[..., j:j + 1], gram[..., j, :] = gram_row, gram_row[..., 0]
                coef = _lapack_solve(gram, d_r @ r[..., None], signature="dd->d")
                x_acc = x_next - (coef.swapaxes(-1, -2) @ d_g)[..., 0, :]
                has_fb = each(np.minimum.reduce(x_acc, axis=-1) > 0)
                if True in has_fb:
                    new = x_acc if False not in has_fb else np.where(
                        np.array(has_fb)[:, None], x_acc, x_next)
            if True in back:  # some members go back to their fallback, with no history
                mask = np.array(back)
                where = lambda old, now: np.where(mask[:, None], old, now)
                new, x_next, r = where(last_x, new), where(last_x, x_next), where(last_r, r)
                step_res, u = (np.where(mask, old, now).tolist()
                               for old, now in ((res, step_res), (u_last, u)))
                has_fb = [h and not b for h, b in zip(has_fb, back)]
                for a, value in ((d_g, 0.0), (d_r, 0.0), (gram, eye)):
                    np.copyto(a, value, where=mask[:, None, None])
            last_x, last_r, u_last = x_next, r, u
        res, stopped = step_res, None
        if callback is not None:
            for i, b in enumerate(ids):
                if not back[i % len(back)]:
                    callback(b, t, row(x if memory else x_next, i), res[i])
        if not (min(res) >= tol and math.isfinite(sum(res))) or t == max_iter:
            stopped = [not tol <= v < math.inf for v in res]
            for i, b in enumerate(ids):
                finite = math.isfinite(res[i])
                if stopped[i]:  # converged (eigenvalue next evaluation) or non-finite
                    out[b] = FixedPointResult(row(x_next, i), None if finite else math.nan,
                                              t, float(res[i]), finite,
                                              "converged" if finite else "non-finite")
                elif t == max_iter:
                    gv = float(each(gf)[i])
                    out[b] = FixedPointResult(row(new, i), 1.0 / gv if gv else None, t,
                                              float(res[i]), False, "max_iter exceeded")
            # evaluated next: a converged member's last iterate (for its eigenvalue), a
            # non-finite member's last finite point
            done = (x_next if all(map(math.isfinite, res))
                    else np.where(np.isfinite(x_next), x_next, x))
            if True in stopped:
                new = done if False not in stopped else np.where(np.array(stopped)[:, None], done,
                                                                 new)
            stopped = [True] * len(ids) if t == max_iter else stopped
        x = new


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
