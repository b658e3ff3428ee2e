"""Independent oracles the solver tests compare against.

Each oracle deliberately uses a different computational route than the code
under test: dense/refined grid search on the constraint set, scalar
bisections, direct linear solves, the dense selection matrices with a
per-cell loop for the cell-specific power-demand map, and the dense 2K x 2K
coupling matrices that the problem's receiver/transmitter rows replaced.
The ``*_ref`` functionals are the per-call forms that the stage-built maps
replaced, kept to check those maps for exact equality;
``normalized_fixed_point_ref`` is the plain normalized iteration as it read
before Anderson acceleration, kept to check that ``memory=0`` is that loop;
``anderson_fixed_point_ref`` is the accelerated loop of one problem written
from ``normalized_fixed_point``'s docstring, to pin its iterates bit for bit.
``check_sif_axioms`` samples the SIF axioms (Yates 1995);
``linear_reformulation_check`` recovers the power-update utility through the
O((2K)^3) linear-in-power route; ``run_trial_loop`` is the Monte Carlo trial
with one ``optimize`` per policy; ``pf_allocate_ref`` is ``pf_allocate`` as
it read when it built its own problem; ``pf_greedy_ref`` is the PF baseline's
greedy hand-out as the per-RB loop that ``pf_allocate``'s one sort replaced;
``generate_ref`` draws a venue as ``generate`` did before it built each dense
array once in place (``np.linalg.norm`` distances, averaged pathloss
transposes, a fading matrix summed from two triangles and a diagonal).
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.linalg._umath_linalg import solve as _lapack_solve

from flexlink.association import COUD, DEUD_O, DEUD_P, Policy, associate, policy_sweep
from flexlink.errors import DomainError, ModelError
from flexlink.experiments import DEFAULT_HISTORY_DL, DEFAULT_HISTORY_UL, MC_OPTS
from flexlink.fixedpoint import ANDERSON_SLACK, DEFAULT_MAX_ITER, DEFAULT_TOL, FixedPointResult
from flexlink.interference import EPS_NO_DL, LN2, Problem, g1, g2, interference_psd, utility
from flexlink.model import (MACRO, OVERLAP_PAIRWISE, PICO, BaseStation, Scenario, UserTerminal,
                            pairwise_overlap_factors)
from flexlink.optimizer import W_FLOOR, initial_psd, optimize
from flexlink.pf_baseline import DEFAULT_PF_SPLIT, EPS_PF, PfAllocation, _pf_rates, _split_band
from flexlink.scenario import (FS_1M_DB, SERVICE_CLASSES_DL_MBPS, SERVICE_CLASSES_UL_MBPS,
                               SITE_EXPONENT, generate, macro_ue_pathloss_db,
                               pico_ue_pathloss_db, uniform_overlap)
from flexlink.units import dbm_to_watt


def v_tilde(problem):
    return problem.rows[np.ix_(problem.assoc.rx, problem.assoc.tx)]  # the dense 2K x 2K V~


def grid_conditional_eigen(m, b, resolution=1e-4, coarse=0.05, shrink=5.0):
    """Grid search for the conditional eigenvector of the affine map
    ``f(x) = M x + b`` on the max-norm unit sphere in the positive orthant.

    Minimizes the normalized-map residual ``||f(x)/||f(x)||_inf - x||_inf``
    over the sphere faces, then refines the grid around the incumbent until
    the spacing reaches ``resolution``.  Returns (x, rho) with
    ``x = rho * f(x)`` and ``||x||_inf = 1`` up to grid error.
    """
    m = np.asarray(m, dtype=float)
    b = np.asarray(b, dtype=float)
    k = b.shape[0]

    def residuals(points):
        fx = points @ m.T + b
        psi = fx / np.max(fx, axis=1, keepdims=True)
        return np.max(np.abs(psi - points), axis=1)

    def face_points(face, centers, half, step):
        axes = []
        for j in range(k):
            if j == face:
                axes.append(np.array([1.0]))
            else:
                lo = max(0.0, centers[j] - half)
                hi = min(1.0, centers[j] + half)
                axes.append(np.arange(lo, hi + step / 2, step))
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in mesh], axis=1)

    best_x, best_res = None, np.inf
    step, half = coarse, 1.0
    centers = np.full(k, 0.5)
    while True:
        for face in range(k):
            if best_x is not None and abs(best_x[face] - 1.0) > half + step:
                continue
            pts = face_points(face, centers, half, step)
            res = residuals(pts)
            i = int(np.argmin(res))
            if res[i] < best_res:
                best_res, best_x = float(res[i]), pts[i]
        if step <= resolution:
            break
        centers = best_x
        half = 2.0 * step
        step = max(resolution, step / shrink)

    fx = m @ best_x + b
    return best_x, 1.0 / float(np.max(fx))


def dense_conditional_eigen_2d(m, b, resolution=1e-4):
    """Exhaustive sphere grid for k=2 at the stated resolution (no pruning)."""
    t = np.arange(0.0, 1.0 + resolution / 2, resolution)
    pts = np.concatenate([
        np.stack([np.ones_like(t), t], axis=1),
        np.stack([t, np.ones_like(t)], axis=1),
    ])
    fx = pts @ np.asarray(m).T + np.asarray(b)
    psi = fx / np.max(fx, axis=1, keepdims=True)
    res = np.max(np.abs(psi - pts), axis=1)
    i = int(np.argmin(res))
    x = pts[i]
    return x, 1.0 / float(np.max(np.asarray(m) @ x + np.asarray(b)))


def linear_solve_conditional_eigen(m, b, tol=1e-12):
    """Conditional eigenvector via direct linear solves and scalar bisection.

    For the affine map the eigen-relation ``x = rho (M x + b)`` with
    ``||x||_inf = 1`` is equivalent to ``x(s) = (s I - M)^{-1} b`` with
    ``s = 1/rho``; ``||x(s)||_inf`` decreases in ``s``, so bisection on ``s``
    finds the sphere crossing.
    """
    m = np.asarray(m, dtype=float)
    b = np.asarray(b, dtype=float)
    k = b.shape[0]
    spectral = max(np.abs(np.linalg.eigvals(m)))

    def norm_at(s):
        return float(np.max(np.linalg.solve(s * np.eye(k) - m, b)))

    lo = spectral + 1e-9
    while norm_at(lo) < 1.0:
        lo = spectral + (lo - spectral) / 2
        if lo - spectral < 1e-15:
            break
    hi = lo + 1.0
    while norm_at(hi) > 1.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if norm_at(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol * max(1.0, hi):
            break
    s = 0.5 * (lo + hi)
    return np.linalg.solve(s * np.eye(k) - m, b), 1.0 / s


def coordinate_bisection_fixed_point(f, dim, upper=1.0, tol=1e-8, sweeps=200):
    """Gauss-Seidel fixed point of ``x = f(x)`` by per-coordinate bisection.

    Requires that each scalar section ``t -> f_i(x with x_i = t) - t`` has a
    sign change on (0, upper], which holds for feasible interference maps.
    """
    x = np.full(dim, upper, dtype=float)
    for _ in range(sweeps):
        x_prev = x.copy()
        for i in range(dim):
            lo, hi = 0.0, upper
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                x[i] = mid
                if f(x)[i] > mid:
                    lo = mid
                else:
                    hi = mid
            x[i] = 0.5 * (lo + hi)
        if np.max(np.abs(x - x_prev)) < tol:
            break
    return x


def max_min_bandwidth_grid(problem, p_fixed, resolution=1e-3, coarse=24):
    """Exhaustive search for the bandwidth subproblem optimum.

    Scans ray directions on the simplex (coarse grid, then local refinement
    down to ``resolution``), scaling each direction onto the constraint
    surface ``max{g1, g2} = 1`` and evaluating the utility there.  Returns
    the best utility found; it can only underestimate the true optimum.
    """
    n = problem.n_links

    def lam_on_surface(direction):
        d = direction / np.sum(direction)
        scale = max(g1(d, problem), g2(d, p_fixed, problem))
        w = d / scale
        return utility(w, p_fixed, problem)

    rng = np.random.default_rng(0)
    dirs = rng.dirichlet(np.ones(n), size=coarse ** 2)
    best_dir, best_lam = None, -np.inf
    for d in dirs:
        lam = lam_on_surface(d)
        if lam > best_lam:
            best_lam, best_dir = lam, d
    width = 0.5
    while width > resolution:
        width /= 4.0
        for _ in range(400):
            cand = np.maximum(best_dir + rng.uniform(-width, width, size=n), 1e-9)
            lam = lam_on_surface(cand)
            if lam > best_lam:
                best_lam, best_dir = lam, cand / np.sum(cand)
    return best_lam


def dl_link_sets(assoc):
    """Per-cell lists of global link indices of the downlinks it serves."""
    k = assoc.n_ue
    return [np.flatnonzero(assoc.b_dl == n) + k for n in range(assoc.n_bs)]


def f_power_cell_loop(p_bar, w_fixed, problem):
    """The per-transmitter power-demand map through the dense ``lambda_map``
    and one Python pass per cell, as ``f_power_cell`` once computed it."""
    assoc, d = problem.assoc, problem.demands
    rb_count, rb_bandwidth = problem.rb_count, problem.rb_bandwidth
    p_bar = np.asarray(p_bar, dtype=float)
    w_fixed = np.asarray(w_fixed, dtype=float)
    k, n_bs = assoc.n_ue, assoc.n_bs
    if np.any(w_fixed <= 0):
        raise DomainError("f_power_cell requires strictly positive fixed bandwidth")

    p = assoc.lambda_map @ p_bar
    ipsd = interference_psd(p, w_fixed, problem)

    out = np.empty(k + n_bs)
    # uplink branch
    pu = p_bar[:k]
    with np.errstate(divide="ignore", invalid="ignore"):
        ru = rb_bandwidth * np.log2(1.0 + pu / ipsd[:k])
        out[:k] = np.where(pu > 0, (pu / w_fixed[:k]) * d[:k] / (rb_count * ru), 0.0)
    zero = pu == 0
    if np.any(zero):
        out[:k][zero] = d[:k][zero] * LN2 / (rb_count * rb_bandwidth * w_fixed[:k][zero]) * ipsd[:k][zero]

    # downlink branch: one sum constraint per cell
    for n, links in enumerate(dl_link_sets(assoc)):
        j = k + n
        if links.size == 0:
            out[j] = EPS_NO_DL
            continue
        nu = float(np.sum(w_fixed[links]))
        if nu <= 0:
            raise DomainError(f"cell {n} serves downlinks but has zero DL load")
        q = p_bar[j]
        if q > 0:
            r = rb_bandwidth * np.log2(1.0 + q / ipsd[links])
            out[j] = (q / nu) * float(np.sum(d[links] / (rb_count * r)))
        else:
            out[j] = float(np.sum(d[links] * LN2 / (rb_count * rb_bandwidth * nu) * ipsd[links]))
    return out


def normalized_fixed_point_ref(f, g, theta, x0, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER,
                               callback=None) -> FixedPointResult:
    """``normalized_fixed_point`` as it read before Anderson acceleration."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    x = np.array(x0, dtype=float)
    residual = np.inf
    gf = None
    for t in range(1, max_iter + 1):
        fx = f(x)
        gf = g(fx)
        x_next = theta * fx / gf
        residual = float(np.abs(x_next - x).max())
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
                residual=residual, converged=True, note="",
            )
    return FixedPointResult(
        x=x, eigenvalue=(theta / float(gf) if gf else None), iterations=max_iter,
        residual=residual, converged=False, note="max_iter exceeded",
    )


def anderson_fixed_point_ref(f, g, x0, memory, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER,
                             callback=None) -> FixedPointResult:
    """``normalized_fixed_point`` with ``memory > 0`` as its docstring states
    it, one problem in plain Python: each plain step ``x_next = f(x) /
    g(f(x))`` goes to slot ``(t - 2) % memory`` of the histories of point and
    step differences, whose Gram matrix (the identity where a row is unused)
    gives the extrapolation.  The extrapolated point is taken when positive,
    and the next step keeps it only if its utility ``min x / f(x)`` has not
    fallen and ``g(f(x))`` has not risen above 1 (both within
    ``ANDERSON_SLACK``); otherwise the run goes back to the last plain point
    with a cleared history.  A converged run's eigenvalue is ``1 / g`` of
    the next evaluation."""
    x = np.array(x0, dtype=float)
    eye = np.eye(memory)
    d_g, d_r, gram = np.zeros((memory, len(x))), np.zeros((memory, len(x))), eye.copy()
    plain, last_step, u_last, extrapolated, residual = x, x, math.inf, False, math.inf
    with np.errstate(invalid="ignore", over="ignore"):  # a singular or huge Gram gives NaN
        fx = f(x)
        gf = float(g(fx))
        for t in range(1, max_iter + 1):
            x_next = fx / gf
            u = float(np.min(x / fx))
            if extrapolated and not (u >= u_last * (1 - ANDERSON_SLACK)
                                     and u * gf <= 1 + ANDERSON_SLACK):
                new = x_next = plain
                extrapolated = False
                d_g[:], d_r[:], gram = 0.0, 0.0, eye.copy()
            else:
                step = x_next - x
                residual = float(np.max(np.abs(step)))
                new = x_next
                if t > 1:
                    j = (t - 2) % memory
                    d_g[j], d_r[j] = x_next - plain, step - last_step
                    column = d_r @ d_r[j, :, None]
                    gram[:, j], gram[j, :] = column[:, 0], column[:, 0]
                    coef = _lapack_solve(gram, d_r @ step[:, None], signature="dd->d")
                    x_acc = x_next - (coef.T @ d_g)[0]
                    extrapolated = bool(np.min(x_acc) > 0)
                    new = x_acc if extrapolated else x_next
                plain, last_step, u_last = x_next, step, u
                if callback is not None:
                    callback(t, x, residual)
            if not math.isfinite(residual):
                return FixedPointResult(x_next, math.nan, t, residual, False, "non-finite")
            if residual < tol:
                return FixedPointResult(x_next, 1.0 / float(g(f(x_next))), t, residual, True,
                                        "converged")
            if t == max_iter:
                return FixedPointResult(new, 1.0 / gf if gf else None, t, residual, False,
                                        "max_iter exceeded")
            x = new
            fx = f(x)
            gf = float(g(fx))


def interference_psd_ref(p, w, problem):
    """``interference_psd`` as it read before the stage-built maps."""
    assoc = problem.assoc
    sent = np.bincount(assoc.tx, weights=np.asarray(p) * np.asarray(w),
                       minlength=problem.rows.shape[1])
    return ((problem.rows @ sent)[assoc.rx] + problem.noise_psd) / problem.d_diag


def expand_psd_ref(p_bar, assoc) -> np.ndarray:
    """The per-link PSD ``Lambda p_bar`` of a per-transmitter PSD, as the
    functional ``expand_psd`` read: uplinks keep their UE's entry, downlinks
    take their serving cell's."""
    p_bar = np.asarray(p_bar, dtype=float)
    k = assoc.n_ue
    return np.concatenate([p_bar[:k], p_bar[k:][assoc.b_dl]])


def f_load_ref(w, p_fixed, problem):
    """``f_load`` as it read before the stage-built maps, with ``link_rates``
    written out."""
    p_fixed = np.asarray(p_fixed, dtype=float)
    if (p_fixed <= 0).any():
        raise DomainError("f_load requires strictly positive fixed power")
    sinr = np.asarray(p_fixed) / interference_psd_ref(p_fixed, w, problem)
    r = problem.rb_bandwidth * np.log2(1.0 + np.asarray(sinr))
    return problem.demands / (problem.rb_count * r)


def g2_ref(w, p, problem) -> float:
    """``g2`` as it read before the stage-built maps."""
    assoc = problem.assoc
    k = assoc.n_ue
    wp = np.asarray(w) * np.asarray(p)
    used = np.concatenate([wp[:k], np.bincount(assoc.b_dl, weights=wp[k:], minlength=assoc.n_bs)])
    return float(problem.rb_count * (used / problem.p_ext_max).max())


def f_power_ref(p, w_fixed, problem):
    """``f_power`` as it read before the stage-built maps."""
    p = np.asarray(p, dtype=float)
    w_fixed = np.asarray(w_fixed, dtype=float)
    d, rb_count, rb_bandwidth = problem.demands, problem.rb_count, problem.rb_bandwidth
    if (w_fixed <= 0).any():
        raise DomainError("f_power requires strictly positive fixed bandwidth")
    ipsd = interference_psd_ref(p, w_fixed, problem)
    nz = p > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        r = rb_bandwidth * np.log2(1.0 + p / ipsd)
        out = np.where(nz, (p / w_fixed) * d / (rb_count * r), 0.0)
    zero = ~nz
    if zero.any():
        out[zero] = d[zero] * LN2 / (rb_count * rb_bandwidth * w_fixed[zero]) * ipsd[zero]
    return out


def f_power_cell_ref(p_bar, w_fixed, problem):
    """``f_power_cell`` as it read before the stage-built maps."""
    assoc = problem.assoc
    w_fixed = np.asarray(w_fixed, dtype=float)
    f = f_power_ref(expand_psd_ref(p_bar, assoc), w_fixed, problem)
    k, n_bs, b_dl = assoc.n_ue, assoc.n_bs, assoc.b_dl
    load_f = np.bincount(b_dl, weights=w_fixed[k:] * f[k:], minlength=n_bs)
    nu = np.bincount(b_dl, weights=w_fixed[k:], minlength=n_bs)
    dl = np.full(n_bs, EPS_NO_DL)
    np.divide(load_f, nu, out=dl, where=nu > 0)
    return np.concatenate([f[:k], dl])


@dataclass(frozen=True)
class DenseCoupling:
    """The 2K x 2K coupling: ``v`` the raw cross gains of the four direction
    blocks, ``v_tilde`` with same-BS pairs, the device self-pair and any
    overlap adjustment applied."""

    v: np.ndarray
    v_tilde: np.ndarray
    d_diag: np.ndarray
    sigma_vec: np.ndarray


def dense_coupling(scenario, assoc) -> DenseCoupling:
    """``build_coupling`` as it assembled the dense matrices: the four blocks
    UL<-UL ``A_ul^T H0``, UL<-DL ``A_ul^T H1 A_dl``, DL<-UL ``H2`` and DL<-DL
    ``H0^T A_dl``, then every entry whose two links share a serving BS and
    every own-UL-into-own-DL entry set to zero."""
    n, k = scenario.n_bs, scenario.n_ue
    if assoc.n_ue != k or assoc.n_bs != n:
        raise ModelError("association does not match scenario dimensions")

    b_ul, b_dl = assoc.b_ul, assoc.b_dl
    ue_idx = np.arange(k)

    v = np.empty((2 * k, 2 * k))
    v[:k, :k] = scenario.h0[b_ul, :]                  # UE j -> BS serving UL k
    v[:k, k:] = scenario.h1[np.ix_(b_ul, b_dl)]       # BS of DL j -> BS of UL k
    v[k:, :k] = scenario.h2                           # UE j -> UE k
    v[k:, k:] = scenario.h0[b_dl, :].T                # BS of DL j -> UE k

    d_diag = np.concatenate([scenario.h0[b_ul, ue_idx], scenario.h0[b_dl, ue_idx]])

    serving = assoc.serving
    same_bs = serving[:, None] == serving[None, :]
    v_tilde = np.where(same_bs, 0.0, v)
    v_tilde[k + ue_idx, ue_idx] = 0.0  # own-UL into own-DL: h2 self-gain, never read

    sigma_vec = np.full(2 * k, scenario.noise_psd)
    return DenseCoupling(v=v, v_tilde=v_tilde, d_diag=d_diag, sigma_vec=sigma_vec)


def dense_overlap(coupling: DenseCoupling, overlap, assoc) -> DenseCoupling:
    """``apply_overlap`` on the dense ``v_tilde``: the UL<-DL and DL<-UL
    blocks scaled entry by entry by the lifted factors."""
    if overlap is None:  # full overlap
        return coupling

    k = assoc.n_ue
    if overlap.load_ul.shape[0] != assoc.n_bs or overlap.load_dl.shape[0] != assoc.n_bs:
        raise ModelError("overlap loads must have one entry per BS")

    vt = np.array(coupling.v_tilde)
    b_ul, b_dl = assoc.b_ul, assoc.b_dl

    if overlap.scheme == OVERLAP_PAIRWISE:
        ul_dl, dl_ul = pairwise_overlap_factors(overlap.load_ul, overlap.load_dl)
        # lift A_x^T O A_y: entry (k, j) is O[serving_x[k], serving_y[j]]
        vt[:k, k:] *= ul_dl[np.ix_(b_ul, b_dl)]
        vt[k:, :k] *= dl_ul[np.ix_(b_dl, b_ul)]
    else:  # cell_specific
        c_ul, c_dl = overlap.load_ul, overlap.load_dl
        vt[:k, k:] *= np.outer(c_ul[b_ul], c_dl[b_dl])
        vt[k:, :k] *= np.outer(c_dl[b_dl], c_ul[b_ul])

    return replace(coupling, v_tilde=vt)


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


@dataclass
class LinearCheckReport:
    lam_affine: float
    rel_diff: float
    ok: bool  # rel_diff <= 1e-4


def linear_reformulation_check(problem, w_fixed, p_candidate) -> LinearCheckReport:
    """Cross-check the power-update utility through the linear-in-power route.

    The rate constraints at fixed bandwidth are equivalent to the linear
    system ``p >= eta_l(lam) * [D^-1 (V~ diag(w) p + sigma)]_l`` with
    ``eta_l(lam) = 2^{lam d_l / (W0 B w_l)} - 1``.  For each trial ``lam``
    the right-hand side is an affine interference map whose minimal fixed
    point is a direct linear solve (it exists exactly when the weighted
    coupling has spectral radius below one); the largest ``lam`` whose fixed
    point respects the power budget is located by bisection, and the SINRs
    realized there invert back through ``eta``.  The report compares that
    utility against the utility of the candidate power vector.
    """
    w = np.maximum(np.asarray(w_fixed, dtype=float), W_FLOOR)
    d = problem.demands
    w0b = problem.rb_count * problem.rb_bandwidth
    k = problem.n_links

    m_aff = (v_tilde(problem) * w[None, :]) / problem.d_diag[:, None]
    c_aff = problem.noise_psd / problem.d_diag
    eta = lambda lam: np.exp2(lam * d / (w0b * w)) - 1.0

    def solve_min_power(lam: float):
        """Minimal fixed point of p = eta(lam) * (M p + c), or None when the
        target is infeasible (spectral radius >= 1 or eta overflows)."""
        with np.errstate(over="ignore"):
            e = eta(lam)
        if not np.all(np.isfinite(e)):
            return None
        em = e[:, None] * m_aff
        if np.max(np.abs(np.linalg.eigvals(em))) >= 1.0 - 1e-12:
            return None
        p = np.linalg.solve(np.eye(k) - em, e * c_aff)
        if np.any(p <= 0):
            return None
        return p

    def budget(lam: float) -> float:
        p = solve_min_power(lam)
        return np.inf if p is None else g2(w, p, problem)

    lam_cand = utility(w, p_candidate, problem)
    lo = hi = max(lam_cand, 1e-12)
    if budget(lo) <= 1.0:
        while budget(hi) <= 1.0:
            hi *= 2.0
    else:
        while budget(lo) > 1.0:
            lo /= 2.0
            if lo < 1e-30:
                raise DomainError("no feasible utility found in linear reformulation")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if budget(mid) <= 1.0:
            lo = mid
        else:
            hi = mid
        if (hi - lo) <= 1e-12 * max(1.0, lo):
            break

    p_aff = solve_min_power(lo)
    realized_sinr = p_aff / (m_aff @ p_aff + c_aff)
    lam_affine = float(np.min(w0b * w / d * np.log2(1.0 + realized_sinr)))
    rel_diff = abs(lam_affine - lam_cand) / max(abs(lam_cand), 1e-300)
    return LinearCheckReport(lam_affine=lam_affine, rel_diff=rel_diff, ok=rel_diff <= 1e-4)


def run_trial_loop(config, seed) -> dict:
    """``experiments.run_trial`` as a plain loop: one ``optimize`` per policy,
    with no solve shared between policies of the same association."""
    scenario = generate(config, seed)
    overlap = uniform_overlap(scenario.n_bs, DEFAULT_HISTORY_UL, DEFAULT_HISTORY_DL)

    partial = {}
    for pol in policy_sweep():
        sol = optimize(scenario, pol, MC_OPTS, overlap=overlap)
        partial[f"{pol.offset_db:g}"] = {
            "lam": sol.lam, "lam_ul": sol.lam_ul, "lam_dl": sol.lam_dl,
            "step": sol.step, "converged": sol.converged,
        }
    best_offset = max(partial, key=lambda o: partial[o]["lam"])
    references = {label: optimize(scenario, pol, MC_OPTS, overlap=overlap).lam
                  for label, pol in (("coud", Policy(COUD)), ("deud_p", Policy(DEUD_P)))}

    full = {}
    for label, pol in (("coud", Policy(COUD)), ("deud_p", Policy(DEUD_P)),
                       ("best", Policy(DEUD_O, offset_db=float(best_offset)))):
        full[label] = optimize(scenario, pol, MC_OPTS).lam

    pf = {}
    for label, pol in (("coud", Policy(COUD)), ("deud_p", Policy(DEUD_P))):
        alloc = pf_allocate_ref(scenario, associate(pol, scenario), split=DEFAULT_PF_SPLIT)
        pf[label] = {"lam_ul": alloc.lam_ul, "lam_dl": alloc.lam_dl, "lam": alloc.lam}

    return {"seed": seed, "partial": partial, "best_offset": best_offset,
            "references": references, "full": full, "pf": pf}


def pf_allocate_ref(scenario, assoc, split=DEFAULT_PF_SPLIT) -> PfAllocation:
    """``pf_allocate`` as it read when it took a scenario and an association
    and built their full-overlap problem itself."""
    k, n = scenario.n_ue, scenario.n_bs
    problem = _split_band(Problem.from_scenario(scenario, assoc))
    p = initial_psd(problem)
    demands = scenario.demands

    gain = _pf_rates(problem, p, np.zeros(2 * k), split) / demands  # QoS per RB
    rbs = max(split)
    held = np.zeros((2 * k, rbs))  # QoS a link holds before its c-th RB
    np.cumsum(np.broadcast_to(gain[:, None], (2 * k, rbs - 1)), axis=1, out=held[:, 1:])
    priority = (gain[:, None] / (held + EPS_PF)).ravel()
    link = np.repeat(np.arange(2 * k), rbs)
    group = (assoc.serving + n * (np.arange(2 * k) >= k))[link]  # UL cells, then DL
    order = np.lexsort((link, -priority, group))
    link, group = link[order], group[order]
    taken = np.arange(link.size) - np.searchsorted(group, group) < np.repeat(split, n)[group]
    counts = np.bincount(link[taken], minlength=2 * k)

    rates = _pf_rates(problem, p, counts, split)
    qos = counts * rates / demands
    return PfAllocation(w=counts / scenario.rb_count, p=p, rb_counts=counts.astype(int),
                        lam_ul=float(np.min(qos[:k])), lam_dl=float(np.min(qos[k:])), qos=qos)


def pf_greedy_ref(scenario, assoc, split) -> np.ndarray:
    """``pf_allocate``'s RB counts by its greedy rule, one RB at a time: each
    cell and direction gives its next RB to the link with the largest
    ``gain / (qos + EPS_PF)``, the first such link on a tie."""
    k = scenario.n_ue
    problem = _split_band(Problem.from_scenario(scenario, assoc))
    gain = _pf_rates(problem, initial_psd(problem), np.zeros(2 * k), split) / scenario.demands
    counts = np.zeros(2 * k, dtype=int)
    for cell in range(scenario.n_bs):
        for direction, served in enumerate((assoc.b_ul, assoc.b_dl)):
            links = np.flatnonzero(served == cell) + direction * k
            if links.size == 0:
                continue
            qos = np.zeros(links.size)
            for _rb in range(split[direction]):
                pick = int(np.argmax(gain[links] / (qos + EPS_PF)))
                counts[links[pick]] += 1
                qos[pick] += gain[links[pick]]
    return counts


def _db_to_linear_ref(x_db):
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def _site_pathloss_db_ref(d_m, min_dist_m=10.0):
    d = np.maximum(np.asarray(d_m, dtype=float), min_dist_m)
    return FS_1M_DB + 10.0 * SITE_EXPONENT * np.log10(d)


def _distances_ref(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)


def _symmetric_fading_ref(rng, n):
    f = rng.exponential(1.0, size=(n, n))
    return np.triu(f, 1) + np.triu(f, 1).T + np.diag(np.diag(f))


def generate_ref(config, seed: int) -> Scenario:
    """Draw one scenario. Same (config, seed) always yields the same object."""
    rng = np.random.default_rng(seed)
    width, height = config.playground
    cell_radius = config.isd_m / 2.0

    macro_pos = [
        ((c + 0.5) * config.isd_m, (r + 0.5) * config.isd_m)
        for r in range(config.macro_rows)
        for c in range(config.macro_cols)
    ]
    # attach picos to every other macro so each macro cell is pico-adjacent
    stride = 2 if config.n_pico <= len(macro_pos) // 2 else 1
    pico_pos = []
    for i in range(config.n_pico):
        cx, cy = macro_pos[(stride * i + 1) % len(macro_pos)]
        radius = cell_radius * rng.uniform(*config.pico_ring)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        pico_pos.append((float(np.clip(cx + radius * np.cos(angle), 0.0, width)),
                         float(np.clip(cy + radius * np.sin(angle), 0.0, height))))

    bs_list = [BaseStation(position=p, kind=MACRO,
                           max_power_w=float(dbm_to_watt(config.macro_power_dbm)))
               for p in macro_pos]
    bs_list += [BaseStation(position=p, kind=PICO,
                            max_power_w=float(dbm_to_watt(config.pico_power_dbm)))
                for p in pico_pos]

    ue_xy = rng.uniform([0.0, 0.0], [width, height], size=(config.n_ue, 2))
    classes = rng.choice(len(config.service_mix), size=config.n_ue, p=config.service_mix)
    ue_list = [UserTerminal(position=(float(x), float(y)), service_class=int(c),
                            max_power_w=float(dbm_to_watt(config.ue_power_dbm)))
               for (x, y), c in zip(ue_xy, classes)]

    bs_xy = np.array([b.position for b in bs_list])
    is_macro = np.array([b.kind == MACRO for b in bs_list])

    d_bs_ue = _distances_ref(bs_xy, ue_xy)
    pl0 = np.where(is_macro[:, None],
                   macro_ue_pathloss_db(d_bs_ue, config.min_dist_macro_ue_m),
                   pico_ue_pathloss_db(d_bs_ue, config.min_dist_pico_ue_m))
    pl1 = _site_pathloss_db_ref(_distances_ref(bs_xy, bs_xy), config.min_dist_site_m)
    pl2 = _site_pathloss_db_ref(_distances_ref(ue_xy, ue_xy), config.min_dist_site_m)

    h0 = _db_to_linear_ref(-pl0)
    h1 = _db_to_linear_ref(-(pl1 + pl1.T) / 2.0)
    h2 = _db_to_linear_ref(-(pl2 + pl2.T) / 2.0)
    if config.rayleigh_fading:
        h0 = h0 * rng.exponential(1.0, size=h0.shape)
        h1 = h1 * _symmetric_fading_ref(rng, h1.shape[0])
        h2 = h2 * _symmetric_fading_ref(rng, h2.shape[0])
    h0 = np.minimum(h0, 1.0)
    # self-gain entries are stored but never read (masked as intra-cell)
    np.fill_diagonal(h1, 1.0)
    np.fill_diagonal(h2, 1.0)
    h1 = np.minimum(h1, 1.0)
    h2 = np.minimum(h2, 1.0)

    demands = np.concatenate([
        np.array([SERVICE_CLASSES_UL_MBPS[c] for c in classes]) * 1e6,
        np.array([SERVICE_CLASSES_DL_MBPS[c] for c in classes]) * 1e6,
    ])

    return Scenario(
        bs_list=bs_list, ue_list=ue_list, h0=h0, h1=h1, h2=h2, demands=demands,
        rb_count=config.rb_count, rb_bandwidth=config.rb_bandwidth_hz,
        noise_psd=float(dbm_to_watt(config.noise_psd_dbm)),
    )
