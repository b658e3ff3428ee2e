"""Three-step joint bandwidth/power optimizer and its companions.

The solver maximizes the minimum per-link QoS satisfaction
``lambda = min_l W0 w_l r_l / d_l`` subject to the per-cell load constraint
``g1(w) <= 1`` and the per-transmitter power constraint ``g2(w, p) <= 1``:

* S1 solves the bandwidth subproblem at fixed power by the normalized
  fixed-point iteration ``w <- f_w(w) / max{g1, g2}(f_w(w))``; the limit is
  the componentwise-minimal optimum and saturates ``max{g1, g2} = 1``.
* S2 runs when the power constraint binds while band is left over
  (``g1 < 1``, ``g2 = 1``): it alternates scaling ``p <- g1(w) p`` with S1
  re-solves, raising the utility monotonically until the band is full.
* S3 runs when the band is full with power to spare (``g1 = 1``,
  ``g2 < 1``): it solves the power subproblem by the normalized iteration on
  the power-demand map, raising the utility strictly.

Every stage iterates one power state ``x``.  In ``per_link`` mode ``x`` is
the per-link PSD ``p``; in ``cell_specific`` mode (one shared DL PSD per cell)
it is the per-transmitter PSD ``p_bar`` and the solver works on the per-link
problem restricted to ``p = Lambda p_bar``.  :func:`power_maps` is the one
place that decides the mode: it returns the expansion to per-link PSDs and
the builder of the power-demand map and power constraint on the state.

:func:`solve_problems` solves a batch of problems sharing a noise PSD and
band at once: S1 and S3 iterate their members together
(:func:`stage1_bandwidth`, :func:`stage3_power`), S2 runs member by member.
:func:`optimize` and the single-problem stages are batches of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .association import associate
from .errors import DomainError, InfeasibleError
from .fixedpoint import (FixedPointResult, normalized_fixed_point, normalized_fixed_points,
                         yates_iteration)
from .interference import (Problem, ProblemStack, cell_power_maps, f_power, g1, g2,
                           link_power_maps, load_maps, utility)
from .model import Association, Scenario
from .units import dbm_to_watt, linear_to_db

W_FLOOR = 1e-12  # bandwidth clamp before dividing in the power-demand map
TOL_OUTER = 1e-7  # S2 stops once 1 - g1(w) falls below this
MAX_SCALING_ROUNDS = 500
TIGHT_TOL = 1e-6  # a constraint with g >= 1 - TIGHT_TOL counts as tight
ANDERSON_MEMORY = 5  # S3's accelerated steps; S1 stays plain (measured slower there)

# open-loop initial PSD: min{PSD_max, SNR_target + P_noise + alpha PL} (dBm per RB)
PSD_MAX_DBM = 12.0
SNR_TARGET_DB = 12.2
PL_ALPHA = 1.0
NOISE_FLOOR_DBM = -121.45


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for :func:`optimize`.

    ``theta`` scales every transmitter's power budget; ``trace_mode``
    ``"boundary"`` records only the stage boundaries.  The inner fixed points
    stop on a sup-norm step below ``fixedpoint.DEFAULT_TOL``.
    """

    power_mode: str = "per_link"  # or "cell_specific"
    theta: float = 1.0
    trace_mode: str = "full"  # or "boundary"

    def __post_init__(self):
        if self.power_mode not in ("per_link", "cell_specific"):
            raise DomainError(f"unknown power mode: {self.power_mode!r}")
        if self.trace_mode not in ("full", "boundary"):
            raise DomainError(f"unknown trace mode: {self.trace_mode!r}")
        if not 0 < self.theta < math.inf:
            raise DomainError("theta must be positive")


@dataclass
class SolveTrace:
    """Per-iteration record of the solve.

    Rows flagged ``boundary`` mark completed solver stages (initial point,
    the S1 fixed point, every S2 power-scaling round, the S3 fixed point);
    the utility recorded on boundary rows is nondecreasing by construction.
    Non-boundary rows log the running allocation inside a fixed-point solve
    for convergence plots; their utility may transiently dip (each S2 round
    first scales the power down before the re-solve recovers).
    """

    rows: list = field(default_factory=list)

    COLUMNS = ("step", "iteration", "lam", "g1", "g2", "residual", "boundary")

    def record(self, step, iteration, lam, g1_val, g2_val, residual, boundary=False):
        self.rows.append((step, int(iteration), float(lam), float(g1_val),
                          float(g2_val), float(residual), bool(boundary)))

    def boundary_lambdas(self):
        return [r[2] for r in self.rows if r[6]]


@dataclass
class StepResult:
    w: np.ndarray
    p: np.ndarray
    lam: float
    fixed_point: Optional[FixedPointResult] = None
    x: Optional[np.ndarray] = None  # power state; p = expand(x)
    rounds: int = 0


@dataclass
class Solution:
    """Terminal allocation with achieved utility and constraint values.

    ``lam`` is the per-link minimum QoS satisfaction of the returned
    allocation (Eq.-level evaluation), and ``lam_ul``/``lam_dl`` are the
    same minimum over the uplinks and the downlinks alone, so
    ``lam = min(lam_ul, lam_dl)``; ``lam_solver`` is the solver's terminal
    utility (identical in per-link mode up to tolerance, and the
    per-transmitter-constraint utility in cell-specific mode).
    """

    w: np.ndarray
    p: np.ndarray
    lam: float
    lam_ul: float
    lam_dl: float
    lam_solver: float
    step: str
    g1: float
    g2: float
    converged: bool
    trace: SolveTrace
    p_bar: Optional[np.ndarray] = None


def initial_psd(problem: Problem) -> np.ndarray:
    """Open-loop initial PSD per link (watts/RB).

    ``PSD_l = min{PSD_max, SNR_target + P_noise + alpha * PL_l}`` in dBm,
    with ``PL_l`` the pathloss of the serving link (of a stack: every member's).
    """
    pl_db = -linear_to_db(problem.d_diag)
    psd_dbm = np.minimum(PSD_MAX_DBM, SNR_TARGET_DB + NOISE_FLOOR_DBM + PL_ALPHA * pl_db)
    return dbm_to_watt(psd_dbm)


def initial_power_state(stack: ProblemStack, power_mode: str) -> np.ndarray:
    """Initial power state of ``power_mode`` of every member of ``stack``,
    one row each: the open-loop per-link PSD, or per transmitter its UE
    entries and one shared DL entry per cell (the largest open-loop PSD among
    its downlinks, so the weakest served link still meets its target)."""
    p0 = initial_psd(stack).reshape(stack.size, -1)
    if power_mode != "cell_specific":
        return p0
    k, q = stack.k, np.zeros(stack.size * stack.n_bs)
    np.maximum.at(q, stack.b_dl, p0[:, k:].reshape(-1))
    return np.concatenate([p0[:, :k], q.reshape(stack.size, -1)], 1)


def power_maps(stack: ProblemStack, power_mode: str):
    """``(expand, build)`` for the power states ``x`` of ``power_mode``: the
    per-link PSDs ``expand(x)`` of the members of ``stack``, and
    ``build(stack, w)``, the power-demand map and power constraint on ``x``
    at fixed bandwidths ``w``."""
    if power_mode == "cell_specific":
        return stack.expand, cell_power_maps
    return (lambda x: x), link_power_maps


def _fixed_points(build, stack, fixed, x0, callback, memory=0) -> list:
    """:func:`normalized_fixed_points` of the maps ``build(stack, fixed)``
    from the rows of ``x0``, built again on running members (``take``).  A
    batch of one runs through :func:`normalized_fixed_point` on its vector."""
    f, g = build(stack, fixed)
    if len(x0) > 1:
        take = lambda members: build(stack.take(members), fixed[members])
        return normalized_fixed_points(f, g, x0, callback=callback, memory=memory, take=take)
    solo = None if callback is None else (lambda t, x, residual: callback(0, t, x, residual))
    return [normalized_fixed_point(f, g, x0[0], callback=solo, memory=memory)]


def stage1_bandwidth(stack: ProblemStack, p_fixed, opts: SolveOptions = SolveOptions(),
                     w_start=None, traces=None) -> list:
    """:func:`step1_update_bandwidth` of every member of ``stack`` at once,
    from the rows of ``p_fixed``: one result per member."""
    p = np.asarray(p_fixed, dtype=float)
    callback = None
    if traces is not None and opts.trace_mode == "full":
        def callback(b, t, w_t, residual):
            problem = stack.problems[b]
            traces[b].record("s1", t, utility(w_t, p[b], problem),
                             g1(w_t, problem), g2(w_t, p[b], problem), residual)

    res = _fixed_points(load_maps, stack, p, np.zeros(p.shape) if w_start is None else w_start,
                        callback)
    return [StepResult(w=r.x, p=p[b], lam=float(r.eigenvalue), fixed_point=r)
            for b, r in enumerate(res)]


def step1_update_bandwidth(problem: Problem, p_fixed, opts: SolveOptions = SolveOptions(),
                           w_start=None, trace: Optional[SolveTrace] = None) -> StepResult:
    """Bandwidth subproblem at fixed power: normalized fixed point of the
    bandwidth-demand map under ``max{g1, g2}``.

    Returns the componentwise-minimal optimal ``w`` with
    ``max{g1(w), g2(w, p)} = 1`` and the achieved utility
    ``lam = 1 / max{g1, g2}(f(w))``.  The batch of one of
    :func:`stage1_bandwidth`.
    """
    return stage1_bandwidth(problem.stack, np.asarray(p_fixed, dtype=float)[None], opts,
                            None if w_start is None else np.asarray(w_start, dtype=float)[None],
                            None if trace is None else [trace])[0]


def step2_power_scaling(problem: Problem, w0, x0, opts: SolveOptions = SolveOptions(),
                        trace: Optional[SolveTrace] = None) -> StepResult:
    """Power scaling toward the full-load condition.

    Entered with ``g1(w) < 1`` and ``g2 = 1``: repeatedly shrink the power
    state by the current load ``x <- g1(w) x`` and re-solve the bandwidth
    subproblem.  The utility after each round increases strictly until
    ``g1(w) = 1``.  Returns the input unchanged when the band is already full.
    """
    expand = power_maps(problem.stack, opts.power_mode)[0]
    w = np.asarray(w0, dtype=float)
    x = np.asarray(x0, dtype=float)
    p = expand(x)
    rounds = 0
    last = None
    while (load := g1(w, problem)) < 1.0 - TOL_OUTER and rounds < MAX_SCALING_ROUNDS:
        x = load * x
        p = expand(x)
        last = step1_update_bandwidth(problem, p, opts, w_start=w, trace=trace)
        w, lam = last.w, last.lam
        rounds += 1
        if trace is not None:
            trace.record("s2", rounds, lam, g1(w, problem), g2(w, p, problem),
                         last.fixed_point.residual, boundary=True)
    if last is None:  # no round: S1's utility at its fixed point ``w``
        f, g = load_maps(problem.stack, p)
        lam = 1.0 / float(g(f(w)))
    return StepResult(w=w, p=p, lam=lam, fixed_point=last.fixed_point if last else None,
                      x=x, rounds=rounds)


def stage3_power(stack: ProblemStack, w_fixed, x0, opts: SolveOptions = SolveOptions(),
                 traces=None) -> list:
    """:func:`step3_update_power` of every member of ``stack`` at once, from
    the rows of ``w_fixed`` and ``x0``: one result per member."""
    w = np.maximum(np.asarray(w_fixed, dtype=float), W_FLOOR)
    expand, build = power_maps(stack, opts.power_mode)

    callback = None
    if traces is not None and opts.trace_mode == "full":
        def callback(b, t, x_t, residual):
            problem = stack.problems[b]
            p_t = power_maps(problem.stack, opts.power_mode)[0](x_t)
            traces[b].record("s3", t, utility(w[b], p_t, problem),
                             g1(w[b], problem), g2(w[b], p_t, problem), residual)

    with np.errstate(divide="ignore", invalid="ignore"):  # f_power's, entered once per stage
        res = _fixed_points(build, stack, w, np.asarray(x0, dtype=float), callback,
                            ANDERSON_MEMORY)
    p = expand(np.array([r.x for r in res]))
    return [StepResult(w=w[b], p=p[b], lam=float(r.eigenvalue), fixed_point=r, x=r.x)
            for b, r in enumerate(res)]


def step3_update_power(problem: Problem, w_fixed, x0, opts: SolveOptions = SolveOptions(),
                       trace: Optional[SolveTrace] = None) -> StepResult:
    """Power subproblem at fixed bandwidth: normalized fixed point of the
    power-demand map under the power constraint.

    Entered from a full-load state with ``g2 < 1``; keeps the allocation
    unchanged when entered with ``g2 = 1`` and strictly raises the utility
    otherwise.  ``x0`` is the power state of ``opts.power_mode``; the
    returned ``p`` is the expanded per-link PSD either way.  The batch of one
    of :func:`stage3_power`.
    """
    return stage3_power(problem.stack, np.asarray(w_fixed, dtype=float)[None],
                        np.asarray(x0, dtype=float)[None], opts,
                        None if trace is None else [trace])[0]


def solve_problems(problems, opts: SolveOptions = SolveOptions(), rows=None) -> list:
    """Run the full three-step solve for every problem in ``problems``
    (sharing a noise PSD and band: one venue's associations, or a chunk of
    trials; ``rows`` their stacked couplings from ``Problem.batch``) as one batch.

    Each member starts from the open-loop PSD and ``w = 0``.  S1 runs for
    all members, S2 for each member whose power constraint binds first, and
    S3 for the members whose band fills with power to spare.  Any state with
    both constraints tight is terminal (local optimum).  A member's
    ``Solution`` is bit for bit its batch of one, :func:`optimize`.  A stage
    of one member runs through the single-problem stage function, so that
    profilers and tracers see a solo solve's stages by their names.
    """
    if not problems:
        return []
    stack = problems[0].stack if len(problems) == 1 else ProblemStack(problems, rows)
    expand = power_maps(stack, opts.power_mode)[0]
    x = initial_power_state(stack, opts.power_mode)
    p = expand(x)
    traces = [SolveTrace() for _ in problems]
    for trace in traces:
        trace.record("init", 0, 0.0, 0.0, 0.0, math.nan, boundary=True)

    def constraints():  # g1 and g2 of every member
        return list(zip(np.ravel(stack.g1(w.reshape(-1))).tolist(),
                        np.ravel(stack.g2((w * p).reshape(-1))).tolist()))
    tight = lambda v: v >= 1.0 - TIGHT_TOL

    s1 = (stage1_bandwidth(stack, p, opts, traces=traces) if len(problems) > 1
          else [step1_update_bandwidth(problems[0], p[0], opts, trace=traces[0])])
    w, lam, steps = np.array([r.w for r in s1]), [r.lam for r in s1], ["s1"] * len(problems)
    converged, values = [r.fixed_point.converged for r in s1], constraints()
    for b, (r, (load, use)) in enumerate(zip(s1, values)):
        fp = r.fixed_point
        traces[b].record("s1", fp.iterations, lam[b], load, use, fp.residual, boundary=True)
        if converged[b] and not tight(load) and tight(use):
            s2 = step2_power_scaling(problems[b], w[b], x[b], opts, trace=traces[b])
            w[b], p[b], lam[b], x[b] = s2.w, s2.p, s2.lam, s2.x
            # load < 1 - TIGHT_TOL < 1 - TOL_OUTER: S2 takes at least one round
            steps[b] = "s2"
            converged[b] = s2.fixed_point.converged and tight(g1(w[b], problems[b]))
    values = constraints() if "s2" in steps else values

    members = [b for b, (load, use) in enumerate(values)
               if converged[b] and tight(load) and not tight(use)]
    if len(members) == 1:
        b = members[0]
        s3 = [step3_update_power(problems[b], w[b], x[b], opts, trace=traces[b])]
    elif members:
        sub = stack if len(members) == len(problems) else stack.take(members)
        s3 = stage3_power(sub, w[members], x[members], opts, [traces[b] for b in members])
    if members:
        for b, r in zip(members, s3):
            lam[b], x[b], p[b] = r.lam, r.x, r.p
        values = constraints()
        for b, r in zip(members, s3):
            fp = r.fixed_point
            converged[b], steps[b] = converged[b] and fp.converged, "s3"
            traces[b].record("s3", fp.iterations, lam[b], *values[b], fp.residual, boundary=True)

    qos, k = stack.qos(w.reshape(-1), p.reshape(-1)).reshape(w.shape), stack.k
    lams = zip(*(q.min(1).tolist() for q in (qos, qos[:, :k], qos[:, k:])))
    return [Solution(w=w[b].copy(), p=p[b].copy(), lam=lam_b, lam_ul=lam_ul, lam_dl=lam_dl,
                     lam_solver=lam[b], step=steps[b], g1=values[b][0],
                     g2=values[b][1], converged=converged[b], trace=traces[b],
                     p_bar=x[b].copy() if opts.power_mode == "cell_specific" else None)
            for b, (lam_b, lam_ul, lam_dl) in enumerate(lams)]


def optimize(scenario: Scenario, policy=None, opts: SolveOptions = SolveOptions(),
             overlap=None, assoc: Optional[Association] = None) -> Solution:
    """Run the full three-step solve for one scenario and policy: the batch
    of one of :func:`solve_problems`."""
    if assoc is None:
        if policy is None:
            raise DomainError("either a policy or an association is required")
        assoc = associate(policy, scenario)
    problem = Problem.from_scenario(scenario, assoc, overlap=overlap, theta=opts.theta)
    return solve_problems([problem], opts)[0]


@dataclass
class PowerMinResult:
    p_min: np.ndarray
    lam: float
    psi_before: float
    psi_after: float
    saving_ratio: float
    fixed_point: FixedPointResult


def minimize_power(problem: Problem, w_star, p_star) -> PowerMinResult:
    """Shrink the power so every link sits exactly at its demand.

    Requires a strictly feasible allocation (utility > 1).  The plain Yates
    iteration on the power-demand map from ``p = 0`` converges to the
    componentwise-minimal power meeting all rate constraints with equality
    (utility 1), so the band-weighted L1 cost ``psi(p) = sum_l w_l p_l``,
    like any monotone cost, can only improve.
    """
    w_star = np.maximum(np.asarray(w_star, dtype=float), W_FLOOR)
    p_star = np.asarray(p_star, dtype=float)
    lam_star = utility(w_star, p_star, problem)
    if not lam_star > 1.0:  # also a NaN utility
        raise InfeasibleError(
            f"power minimization requires utility > 1, got {lam_star:.6g}")
    psi = lambda p: float(np.sum(w_star * p))

    f = lambda p: f_power(p, w_star, problem)
    res = yates_iteration(f, np.zeros(problem.n_links))
    p_min = res.x
    return PowerMinResult(
        p_min=p_min,
        lam=utility(w_star, p_min, problem),
        psi_before=psi(p_star),
        psi_after=psi(p_min),
        saving_ratio=psi(p_min) / psi(p_star),
        fixed_point=res,
    )

