"""SINR, rate and constraint functionals over a problem instance.

All operations are pure functions of immutable inputs.  ``w`` is the per-link
fraction of the band's ``rb_count`` resource blocks, ``p`` the per-link PSD in
watts per RB, and ``p_bar`` the per-transmitter PSD (K uplink entries followed
by N cell-specific downlink entries).

Every functional (``interference_psd``, ``sinr``, ``link_rates``,
``f_load``, ``f_power``, ``f_power_cell``, ``g1``, ``g2``, ``g2_bar``,
``qos_levels``, ``utility``) takes its math arguments followed by the
:class:`Problem` it is evaluated on; ``spectral_efficiency`` and
``expand_psd`` need only a bandwidth or an association.

The solver's fixed-point stages iterate maps built once per stage, at the
stage's fixed power or bandwidth: :func:`load_maps` (S1),
:func:`link_power_maps` and :func:`cell_power_maps` (S3).  The conversions,
domain checks and problem constants are taken there, not per iteration.
``f_load``, ``f_power``, ``f_power_cell``, ``interference_psd``, ``g2`` and
``g2_bar`` call those same maps, so each map has one definition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ModelError
from .model import Association, Scenario, _readonly, apply_overlap, build_coupling

LN2 = float(np.log(2.0))

# Positivity floor for the downlink entry of cells serving no downlinks: the
# SIF codomain must stay strictly positive, but such entries never constrain.
EPS_NO_DL = 1e-15


@dataclass(frozen=True)
class Problem:
    """One problem instance: everything the functionals evaluate.

    The paper's 2K x 2K coupling (receiver link by transmitter link) is
    ``V~ = rows[np.ix_(assoc.rx, assoc.tx)]``.  ``rows`` is (N+K) x (K+N):
    one uplink receiver row per cell, then one downlink receiver row per UE;
    one uplink transmitter column per UE, then one downlink transmitter
    column per cell.  This is exact because an uplink's row of ``V~``
    depends only on its serving cell and a downlink's column only on its
    sending cell (see :func:`flexlink.model.build_coupling`), so ``rows``
    holds about a quarter of the entries of ``V~`` and ``V~ diag(p) w`` is
    ``rows`` times the per-transmitter sums of ``w p``.  Cross-direction
    entries carry any overlap adjustment.

    ``d_diag`` is each link's direct gain ``h0[serving, ue]``, ``noise_psd``
    the receiver noise per RB and ``p_ext_max`` the per-transmitter power
    budgets over the whole band (``[p_max^UL; q_max^DL]``, UEs then BSs).
    ``rows`` and ``d_diag`` are made read-only in place, not copied, because
    ``dataclasses.replace`` re-runs ``__post_init__`` on every derived problem.
    """

    rows: np.ndarray
    d_diag: np.ndarray
    noise_psd: float
    assoc: Association
    demands: np.ndarray
    p_ext_max: np.ndarray
    rb_count: int
    rb_bandwidth: float

    def __post_init__(self):
        self.rows.setflags(write=False)
        self.d_diag.setflags(write=False)
        object.__setattr__(self, "demands", _readonly(self.demands))
        object.__setattr__(self, "p_ext_max", _readonly(self.p_ext_max))
        if not np.all(self.d_diag > 0):
            raise ModelError("direct link gains must be strictly positive")
        if not self.noise_psd > 0:
            raise ModelError("noise PSD must be strictly positive")
        if not np.all((self.p_ext_max > 0) & (self.p_ext_max < np.inf)):
            raise DomainError("power budgets must be strictly positive")

    @classmethod
    def from_scenario(cls, scenario: Scenario, assoc: Association,
                      overlap=None, theta: float = 1.0) -> "Problem":
        """The problem of ``scenario`` under ``assoc``, with the overlap
        adjustment applied (``None``: full overlap) and every power budget
        scaled by ``theta``."""
        if not 0 < theta < np.inf:
            raise DomainError("theta must be positive")
        rows = build_coupling(scenario, assoc)
        if overlap is not None:
            rows = apply_overlap(rows, overlap, assoc)
        return cls(
            rows=rows,
            d_diag=scenario.h0[assoc.serving, np.tile(np.arange(assoc.n_ue), 2)],
            noise_psd=scenario.noise_psd,
            assoc=assoc,
            demands=scenario.demands,
            p_ext_max=np.concatenate([scenario.ue_max_powers(), scenario.bs_max_powers()]) * theta,
            rb_count=scenario.rb_count,
            rb_bandwidth=scenario.rb_bandwidth,
        )

    @property
    def n_links(self) -> int:
        return self.d_diag.shape[0]


def _kernels(problem: Problem):
    """:func:`interference_psd` and :func:`g2` as maps of ``x = w p``, with
    the problem's constants read once."""
    rows, tx, rx, n_tx = problem.rows, problem.assoc.tx, problem.assoc.rx, problem.rows.shape[1]
    noise_psd, d_diag = problem.noise_psd, problem.d_diag
    rb_count, p_ext_max = problem.rb_count, problem.p_ext_max
    ipsd = lambda x: ((rows @ np.bincount(tx, weights=x, minlength=n_tx))[rx] + noise_psd) / d_diag
    use = lambda x: float(rb_count * (np.bincount(tx, weights=x, minlength=n_tx) / p_ext_max).max())
    return ipsd, use


def _cell_mean(problem: Problem, w_fixed):
    """:func:`f_power_cell`'s per-transmitter demands from per-link ones."""
    k, b_dl, n_bs = problem.assoc.n_ue, problem.assoc.b_dl, problem.assoc.n_bs
    w_dl = np.asarray(w_fixed, dtype=float)[k:]
    nu = np.bincount(b_dl, weights=w_dl, minlength=n_bs)
    has_dl = nu > 0

    def mean(f):
        dl = np.full(n_bs, EPS_NO_DL)
        np.divide(np.bincount(b_dl, weights=w_dl * f[k:], minlength=n_bs), nu,
                  out=dl, where=has_dl)
        return np.concatenate([f[:k], dl])
    return mean


def load_maps(problem: Problem, p_fixed):
    """S1's maps ``f_load(., p_fixed)`` and ``max{g1, g2(., p_fixed)}``."""
    p = np.asarray(p_fixed, dtype=float)
    if (p <= 0).any():
        raise DomainError("f_load requires strictly positive fixed power")
    (ipsd, use), d = _kernels(problem), problem.demands
    rb_count, rb_bandwidth = problem.rb_count, problem.rb_bandwidth
    f = lambda w: d / (rb_count * (rb_bandwidth * np.log2(1.0 + p / ipsd(p * w))))
    return f, lambda w: max(g1(w, problem), use(w * p))


def link_power_maps(problem: Problem, w_fixed):
    """S3's maps ``f_power(., w_fixed)`` and ``g2(w_fixed, .)`` on ``p > 0``
    (the normalized iteration stays positive; a zero PSD gives NaN here)."""
    w = np.asarray(w_fixed, dtype=float)
    if (w <= 0).any():
        raise DomainError("f_power requires strictly positive fixed bandwidth")
    (ipsd, use), d = _kernels(problem), problem.demands
    rb_count, rb_bandwidth = problem.rb_count, problem.rb_bandwidth
    f = lambda p: (p / w) * d / (rb_count * (rb_bandwidth * np.log2(1.0 + p / ipsd(p * w))))
    return f, lambda p: use(w * p)


def cell_power_maps(problem: Problem, w_fixed):
    """S3's maps ``f_power_cell(., w_fixed)`` and ``g2_bar(w_fixed, .)`` on
    ``p_bar > 0``."""
    (f, g), mean = link_power_maps(problem, w_fixed), _cell_mean(problem, w_fixed)
    assoc = problem.assoc
    return (lambda x: mean(f(expand_psd(x, assoc)))), (lambda x: g(expand_psd(x, assoc)))


def interference_psd(p, w, problem: Problem):
    """Per-link interference-plus-noise PSD normalized by the direct gain:
    ``[D^-1 (V~ diag(p) w + sigma)]``.  Each transmitter's ``w p`` is summed
    over its links first, so ``V~ x = (rows @ A_ext x)[rx]``."""
    return _kernels(problem)[0](np.asarray(p) * np.asarray(w))


def sinr(p, w, problem: Problem):
    """Per-RB SINR of every link; zero power gives zero SINR."""
    return np.asarray(p) / interference_psd(p, w, problem)


def spectral_efficiency(sinr_values, rb_bandwidth: float):
    """Achievable rate per RB, ``B log2(1 + SINR)`` in bit/s."""
    return rb_bandwidth * np.log2(1.0 + np.asarray(sinr_values))


def link_rates(p, w, problem: Problem):
    return spectral_efficiency(sinr(p, w, problem), problem.rb_bandwidth)


def qos_levels(w, p, problem: Problem):
    """Per-link QoS satisfaction ``W0 w_l r_l / d_l``."""
    rates = link_rates(p, w, problem)
    return problem.rb_count * np.asarray(w) * rates / problem.demands


def utility(w, p, problem: Problem) -> float:
    """Minimum QoS satisfaction level over all links."""
    return float(qos_levels(w, p, problem).min())


def f_load(w, p_fixed, problem: Problem):
    """Bandwidth-demand map ``f_l = d_l / (W0 r_l(p', w))`` at fixed power.

    A standard interference function of ``w`` for any strictly positive fixed
    power (rates stay positive, interference grows with occupancy).
    """
    return load_maps(problem, p_fixed)[0](w)


def g1(w, problem: Problem) -> float:
    """Per-cell load constraint functional ``||A w||_inf``; ``A w`` sums each
    cell's served links."""
    assoc = problem.assoc
    return float(np.bincount(assoc.serving, weights=w, minlength=assoc.n_bs).max())


def g2(w, p, problem: Problem) -> float:
    """Per-transmitter power constraint functional
    ``W0 ||diag(p_ext_max)^-1 A_ext diag(w) p||_inf``; ``A_ext x`` sums each
    transmitter's links: its UE's uplink, or its cell's downlinks."""
    return _kernels(problem)[1](np.asarray(w) * np.asarray(p))


def expand_psd(p_bar, assoc: Association) -> np.ndarray:
    """Per-link PSD ``Lambda p_bar`` of a per-transmitter PSD: uplinks keep
    their UE's entry, downlinks take their serving cell's."""
    p_bar = np.asarray(p_bar, dtype=float)
    k = assoc.n_ue
    return np.concatenate([p_bar[:k], p_bar[k:][assoc.b_dl]])


def g2_bar(w, p_bar, problem: Problem) -> float:
    """Power constraint on the per-transmitter PSD, ``g2(w, Lambda p_bar)``."""
    return g2(w, expand_psd(p_bar, problem.assoc), problem)


def f_power(p, w_fixed, problem: Problem):
    """Power-demand map for fixed bandwidth: ``f'_l = (p_l / w_l) d_l / (W0 r_l)``.

    At ``p_l = 0`` the map continues with its limit
    ``d_l ln2 / (W0 B w_l) * I_l(p)`` where ``I_l`` is the normalized
    interference-plus-noise PSD, which keeps the codomain strictly positive.
    A standard interference function of ``p``.
    """
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = link_power_maps(problem, w_fixed)[0](p)
    zero = ~(p > 0)
    if zero.any():
        d, w = problem.demands[zero], np.asarray(w_fixed, dtype=float)[zero]
        ipsd = interference_psd(p, w_fixed, problem)[zero]
        out[zero] = d * LN2 / (problem.rb_count * problem.rb_bandwidth * w) * ipsd
    return out


def f_power_cell(p_bar, w_fixed, problem: Problem):
    """Per-transmitter power-demand map: UL entries are per-UE rate
    constraints, DL entries per-cell sum rate constraints.

    With ``f' = f_power(Lambda p_bar, w)``, entry ``j < K`` is ``f'_j`` and
    entry ``K + n`` is the load-weighted mean
    ``sum_{l in DL_n} w_l f'_l / nu_n`` with ``nu_n = sum_{l in DL_n} w_l``,
    which equals ``(p_bar_{K+n} / nu_n) sum_{l in DL_n} d_l / (W0 r_l)``.
    Cells serving no downlink get a tiny positive constant so the map stays
    a valid SIF; those entries never bind.
    """
    f = f_power(expand_psd(p_bar, problem.assoc), w_fixed, problem)
    return _cell_mean(problem, w_fixed)(f)
