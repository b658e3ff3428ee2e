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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .association import associate
from .errors import DomainError, InfeasibleError
from .fixedpoint import FixedPointResult, normalized_fixed_point, yates_iteration
from .interference import (Problem, cell_power_maps, expand_psd, f_power, g1, g2,
                           link_power_maps, load_maps, qos_levels, utility)
from .io import write_csv
from .model import Association, Scenario
from .units import dbm_to_watt, linear_to_db

W_FLOOR = 1e-12  # bandwidth clamp before dividing in the power-demand map
TOL_OUTER = 1e-7  # S2 stops once 1 - g1(w) falls below this
MAX_SCALING_ROUNDS = 500
TIGHT_TOL = 1e-6  # a constraint with g >= 1 - TIGHT_TOL counts as tight

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

    def to_csv(self, path, meta: Optional[dict] = None):
        write_csv(path, self.COLUMNS, [row[:6] + (int(row[6]),) for row in self.rows], meta=meta)


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
    policy_label: str = ""
    theta: float = 1.0

    def to_dict(self) -> dict:
        out = {
            "w": self.w.tolist(),
            "p": self.p.tolist(),
            "lambda": self.lam,
            "lambda_solver": self.lam_solver,
            "step": self.step,
            "g1": self.g1,
            "g2": self.g2,
            "converged": self.converged,
            "policy": self.policy_label,
            "theta": self.theta,
        }
        if self.p_bar is not None:
            out["p_bar"] = self.p_bar.tolist()
        return out


def initial_psd(problem: Problem) -> np.ndarray:
    """Open-loop initial PSD per link (watts/RB).

    ``PSD_l = min{PSD_max, SNR_target + P_noise + alpha * PL_l}`` in dBm,
    with ``PL_l`` the pathloss of the serving link.
    """
    pl_db = -linear_to_db(problem.d_diag)
    psd_dbm = np.minimum(PSD_MAX_DBM, SNR_TARGET_DB + NOISE_FLOOR_DBM + PL_ALPHA * pl_db)
    return dbm_to_watt(psd_dbm)


def initial_power_state(problem: Problem, power_mode: str) -> np.ndarray:
    """Initial power state of ``power_mode``: the open-loop per-link PSD, or
    per transmitter its UE entries and one shared DL entry per cell (the
    largest open-loop PSD among its downlinks, so the weakest served link
    still meets its target)."""
    p0 = initial_psd(problem)
    if power_mode != "cell_specific":
        return p0
    assoc = problem.assoc
    k = assoc.n_ue
    q = np.zeros(assoc.n_bs)
    np.maximum.at(q, assoc.b_dl, p0[k:])
    return np.concatenate([p0[:k], q])


def power_maps(problem: Problem, power_mode: str):
    """``(expand, build)`` for the power state ``x`` of ``power_mode``: the
    per-link PSD ``expand(x)`` and ``build(problem, w)``, the power-demand map
    and the power constraint on ``x`` at fixed bandwidth ``w``."""
    if power_mode == "cell_specific":
        return (lambda x: expand_psd(x, problem.assoc)), cell_power_maps
    return (lambda x: x), link_power_maps


def step1_update_bandwidth(problem: Problem, p_fixed, opts: SolveOptions = SolveOptions(),
                           w_start=None, trace: Optional[SolveTrace] = None) -> StepResult:
    """Bandwidth subproblem at fixed power: normalized fixed point of the
    bandwidth-demand map under ``max{g1, g2}``.

    Returns the componentwise-minimal optimal ``w`` with
    ``max{g1(w), g2(w, p)} = 1`` and the achieved utility
    ``lam = 1 / max{g1, g2}(f(w))``.
    """
    p_fixed = np.asarray(p_fixed, dtype=float)
    f, g = load_maps(problem, p_fixed)
    x0 = np.zeros(problem.n_links) if w_start is None else w_start

    callback = None
    if trace is not None and opts.trace_mode == "full":
        def callback(t, w_t, residual):
            trace.record("s1", t, utility(w_t, p_fixed, problem),
                         g1(w_t, problem), g2(w_t, p_fixed, problem), residual)

    res = normalized_fixed_point(f, g, 1.0, x0, callback=callback)
    return StepResult(w=res.x, p=p_fixed, lam=float(res.eigenvalue), fixed_point=res)


def step2_power_scaling(problem: Problem, w0, x0, opts: SolveOptions = SolveOptions(),
                        trace: Optional[SolveTrace] = None) -> StepResult:
    """Power scaling toward the full-load condition.

    Entered with ``g1(w) < 1`` and ``g2 = 1``: repeatedly shrink the power
    state by the current load ``x <- g1(w) x`` and re-solve the bandwidth
    subproblem.  The utility after each round increases strictly until
    ``g1(w) = 1``.  Returns the input unchanged when the band is already full.
    """
    expand, _ = power_maps(problem, opts.power_mode)
    w = np.asarray(w0, dtype=float)
    x = np.asarray(x0, dtype=float)
    p = expand(x)
    rounds = 0
    last = None
    while g1(w, problem) < 1.0 - TOL_OUTER and rounds < MAX_SCALING_ROUNDS:
        x = g1(w, problem) * x
        p = expand(x)
        last = step1_update_bandwidth(problem, p, opts, w_start=w, trace=trace)
        w, lam = last.w, last.lam
        rounds += 1
        if trace is not None:
            trace.record("s2", rounds, lam, g1(w, problem), g2(w, p, problem),
                         last.fixed_point.residual, boundary=True)
    if last is None:  # no round: S1's utility at its fixed point ``w``
        f, g = load_maps(problem, p)
        lam = 1.0 / g(f(w))
    return StepResult(w=w, p=p, lam=lam, fixed_point=last.fixed_point if last else None,
                      x=x, rounds=rounds)


def step3_update_power(problem: Problem, w_fixed, x0, opts: SolveOptions = SolveOptions(),
                       trace: Optional[SolveTrace] = None) -> StepResult:
    """Power subproblem at fixed bandwidth: normalized fixed point of the
    power-demand map under the power constraint.

    Entered from a full-load state with ``g2 < 1``; keeps the allocation
    unchanged when entered with ``g2 = 1`` and strictly raises the utility
    otherwise.  ``x0`` is the power state of ``opts.power_mode``; the
    returned ``p`` is the expanded per-link PSD either way.
    """
    w = np.maximum(np.asarray(w_fixed, dtype=float), W_FLOOR)
    expand, build = power_maps(problem, opts.power_mode)
    f, g = build(problem, w)

    callback = None
    if trace is not None and opts.trace_mode == "full":
        def callback(t, x_t, residual):
            p_t = expand(x_t)
            trace.record("s3", t, utility(w, p_t, problem),
                         g1(w, problem), g2(w, p_t, problem), residual)

    with np.errstate(divide="ignore", invalid="ignore"):  # f_power's, entered once per stage
        res = normalized_fixed_point(f, g, 1.0, np.asarray(x0, dtype=float), callback=callback)
    return StepResult(w=w, p=expand(res.x), lam=float(res.eigenvalue), fixed_point=res,
                      x=res.x)


def optimize(scenario: Scenario, policy=None, opts: SolveOptions = SolveOptions(),
             overlap=None, assoc: Optional[Association] = None) -> Solution:
    """Run the full three-step solve for one scenario and policy.

    Starts from the open-loop PSD and ``w = 0``, runs S1, then S2 if the
    power constraint binds first, then S3 if band fills with power to spare.
    Any state with both constraints tight is terminal (local optimum).
    """
    if assoc is None:
        if policy is None:
            raise DomainError("either a policy or an association is required")
        assoc = associate(policy, scenario)
    problem = Problem.from_scenario(scenario, assoc, overlap=overlap, theta=opts.theta)

    expand, _ = power_maps(problem, opts.power_mode)
    x = initial_power_state(problem, opts.power_mode)
    p = expand(x)

    trace = SolveTrace()
    trace.record("init", 0, 0.0, 0.0, 0.0, math.nan, boundary=True)

    s1 = step1_update_bandwidth(problem, p, opts, trace=trace)
    w, lam = s1.w, s1.lam
    converged = s1.fixed_point.converged
    trace.record("s1", s1.fixed_point.iterations, lam,
                 g1(w, problem), g2(w, p, problem), s1.fixed_point.residual, boundary=True)
    step = "s1"

    tight = lambda v: v >= 1.0 - TIGHT_TOL

    if converged and not tight(g1(w, problem)) and tight(g2(w, p, problem)):
        s2 = step2_power_scaling(problem, w, x, opts, trace=trace)
        w, p, lam, x = s2.w, s2.p, s2.lam, s2.x
        if s2.rounds:
            step = "s2"
            if s2.fixed_point is not None:
                converged = converged and s2.fixed_point.converged
            converged = converged and tight(g1(w, problem))

    if converged and tight(g1(w, problem)) and not tight(g2(w, p, problem)):
        s3 = step3_update_power(problem, w, x, opts, trace=trace)
        p, lam, x = s3.p, s3.lam, s3.x
        converged = converged and s3.fixed_point.converged
        step = "s3"
        trace.record("s3", s3.fixed_point.iterations, lam,
                     g1(w, problem), g2(w, p, problem), s3.fixed_point.residual, boundary=True)

    qos = qos_levels(w, p, problem)
    k = assoc.n_ue
    return Solution(
        w=w, p=p, lam=float(qos.min()), lam_ul=float(qos[:k].min()),
        lam_dl=float(qos[k:].min()), lam_solver=lam, step=step,
        g1=g1(w, problem), g2=g2(w, p, problem), converged=converged,
        trace=trace, p_bar=x if opts.power_mode == "cell_specific" else None,
        policy_label=policy.label if policy is not None else "custom",
        theta=opts.theta,
    )


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
    if lam_star <= 1.0:
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

