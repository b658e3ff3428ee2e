"""SINR, rate and constraint functionals over a coupling model.

All operations are pure functions of immutable inputs.  ``w`` is the per-link
fraction of the band's ``rb_count`` resource blocks, ``p`` the per-link PSD in
watts per RB, and ``p_bar`` the per-transmitter PSD (K uplink entries followed
by N cell-specific downlink entries).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import Association, CouplingModel, Scenario

LN2 = float(np.log(2.0))

# Positivity floor for the downlink entry of cells serving no downlinks: the
# SIF codomain must stay strictly positive, but such entries never constrain.
EPS_NO_DL = 1e-15


@dataclass(frozen=True)
class PowerLimits:
    """Per-transmitter power budgets over the whole band, UEs then BSs."""

    p_ext_max: np.ndarray

    def __post_init__(self):
        arr = np.array(self.p_ext_max, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "p_ext_max", arr)
        if not np.all(self.p_ext_max > 0):
            raise DomainError("power limits must be strictly positive")

    @classmethod
    def from_scenario(cls, scenario: Scenario, theta: float = 1.0) -> "PowerLimits":
        """Budgets ``[p_max^UL; q_max^DL]``, optionally scaled by ``theta``."""
        if theta <= 0:
            raise DomainError("theta must be positive")
        return cls(np.concatenate([scenario.ue_max_powers(), scenario.bs_max_powers()]) * theta)


def interference_psd(p, w, model: CouplingModel):
    """Per-link interference-plus-noise PSD normalized by the direct gain:
    ``[D^-1 (V~ diag(p) w + sigma)]``, with ``V~ x = (rows @ x)[rx]``."""
    heard = model.rows @ (np.asarray(p) * np.asarray(w))
    return (heard[model.rx] + model.sigma_vec) / model.d_diag


def sinr(p, w, model: CouplingModel):
    """Per-RB SINR of every link; zero power gives zero SINR."""
    return np.asarray(p) / interference_psd(p, w, model)


def spectral_efficiency(sinr_values, rb_bandwidth: float):
    """Achievable rate per RB, ``B log2(1 + SINR)`` in bit/s."""
    return rb_bandwidth * np.log2(1.0 + np.asarray(sinr_values))


def link_rates(p, w, model: CouplingModel, rb_bandwidth: float):
    return spectral_efficiency(sinr(p, w, model), rb_bandwidth)


def qos_levels(w, p, model: CouplingModel, demands, rb_count: int, rb_bandwidth: float):
    """Per-link QoS satisfaction ``W0 w_l r_l / d_l``."""
    return rb_count * np.asarray(w) * link_rates(p, w, model, rb_bandwidth) / np.asarray(demands)


def utility(w, p, model: CouplingModel, demands, rb_count: int, rb_bandwidth: float) -> float:
    """Minimum QoS satisfaction level over all links."""
    return float(np.min(qos_levels(w, p, model, demands, rb_count, rb_bandwidth)))


def f_load(w, p_fixed, model: CouplingModel, demands, rb_count: int, rb_bandwidth: float):
    """Bandwidth-demand map ``f_l = d_l / (W0 r_l(p', w))`` at fixed power.

    A standard interference function of ``w`` for any strictly positive fixed
    power (rates stay positive, interference grows with occupancy).
    """
    p_fixed = np.asarray(p_fixed, dtype=float)
    if np.any(p_fixed <= 0):
        raise DomainError("f_load requires strictly positive fixed power")
    r = link_rates(p_fixed, w, model, rb_bandwidth)
    return np.asarray(demands) / (rb_count * r)


def g1(w, assoc: Association) -> float:
    """Per-cell load constraint functional ``||A w||_inf``; ``A w`` sums each
    cell's served links."""
    return float(np.max(np.bincount(assoc.serving, weights=w, minlength=assoc.n_bs)))


def g2(w, p, assoc: Association, limits: PowerLimits, rb_count: int) -> float:
    """Per-transmitter power constraint functional
    ``W0 ||diag(p_ext_max)^-1 A_ext diag(w) p||_inf``.

    ``A_ext`` keeps each UE's uplink entry and sums each cell's downlinks.
    """
    k = assoc.n_ue
    wp = np.asarray(w) * np.asarray(p)
    used = np.concatenate([wp[:k], np.bincount(assoc.b_dl, weights=wp[k:], minlength=assoc.n_bs)])
    return float(rb_count * np.max(used / limits.p_ext_max))


def expand_psd(p_bar, assoc: Association) -> np.ndarray:
    """Per-link PSD ``Lambda p_bar`` of a per-transmitter PSD: uplinks keep
    their UE's entry, downlinks take their serving cell's."""
    p_bar = np.asarray(p_bar, dtype=float)
    k = assoc.n_ue
    return np.concatenate([p_bar[:k], p_bar[k:][assoc.b_dl]])


def g2_bar(w, p_bar, assoc: Association, limits: PowerLimits, rb_count: int) -> float:
    """Power constraint on the per-transmitter PSD, ``g2(w, Lambda p_bar)``."""
    return g2(w, expand_psd(p_bar, assoc), assoc, limits, rb_count)


def f_power(p, w_fixed, model: CouplingModel, demands, rb_count: int, rb_bandwidth: float):
    """Power-demand map for fixed bandwidth: ``f'_l = (p_l / w_l) d_l / (W0 r_l)``.

    At ``p_l = 0`` the map continues with its limit
    ``d_l ln2 / (W0 B w_l) * I_l(p)`` where ``I_l`` is the normalized
    interference-plus-noise PSD, which keeps the codomain strictly positive.
    A standard interference function of ``p``.
    """
    p = np.asarray(p, dtype=float)
    w_fixed = np.asarray(w_fixed, dtype=float)
    d = np.asarray(demands, dtype=float)
    if np.any(w_fixed <= 0):
        raise DomainError("f_power requires strictly positive fixed bandwidth")
    ipsd = interference_psd(p, w_fixed, model)
    nz = p > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        r = rb_bandwidth * np.log2(1.0 + p / ipsd)
        out = np.where(nz, (p / w_fixed) * d / (rb_count * r), 0.0)
    zero = ~nz
    if np.any(zero):
        out[zero] = d[zero] * LN2 / (rb_count * rb_bandwidth * w_fixed[zero]) * ipsd[zero]
    return out


def f_power_cell(p_bar, w_fixed, model: CouplingModel, assoc: Association,
                 demands, rb_count: int, rb_bandwidth: float):
    """Per-transmitter power-demand map: UL entries are per-UE rate
    constraints, DL entries per-cell sum rate constraints.

    With ``f' = f_power(Lambda p_bar, w)``, entry ``j < K`` is ``f'_j`` and
    entry ``K + n`` is the load-weighted mean
    ``sum_{l in DL_n} w_l f'_l / nu_n`` with ``nu_n = sum_{l in DL_n} w_l``,
    which equals ``(p_bar_{K+n} / nu_n) sum_{l in DL_n} d_l / (W0 r_l)``.
    Cells serving no downlink get a tiny positive constant so the map stays
    a valid SIF; those entries never bind.
    """
    w_fixed = np.asarray(w_fixed, dtype=float)
    f = f_power(expand_psd(p_bar, assoc), w_fixed, model, demands, rb_count, rb_bandwidth)
    k, n_bs, b_dl = assoc.n_ue, assoc.n_bs, assoc.b_dl
    load_f = np.bincount(b_dl, weights=w_fixed[k:] * f[k:], minlength=n_bs)
    nu = np.bincount(b_dl, weights=w_fixed[k:], minlength=n_bs)
    dl = np.full(n_bs, EPS_NO_DL)
    np.divide(load_f, nu, out=dl, where=nu > 0)
    return np.concatenate([f[:k], dl])


@dataclass(frozen=True)
class Problem:
    """Bundle of everything the solvers evaluate: coupling, association,
    demands, band geometry and power budgets."""

    model: CouplingModel
    assoc: Association
    demands: np.ndarray
    limits: PowerLimits
    rb_count: int
    rb_bandwidth: float

    def __post_init__(self):
        arr = np.array(self.demands, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "demands", arr)

    @classmethod
    def from_scenario(cls, scenario: Scenario, assoc: Association,
                      overlap=None, theta: float = 1.0) -> "Problem":
        from .model import apply_overlap, build_coupling

        model = build_coupling(scenario, assoc)
        if overlap is not None:
            model = apply_overlap(model, overlap, assoc)
        return cls(
            model=model,
            assoc=assoc,
            demands=scenario.demands,
            limits=PowerLimits.from_scenario(scenario, theta=theta),
            rb_count=scenario.rb_count,
            rb_bandwidth=scenario.rb_bandwidth,
        )

    @property
    def n_links(self) -> int:
        return self.model.n_links

    def f_load(self, w, p_fixed):
        return f_load(w, p_fixed, self.model, self.demands, self.rb_count, self.rb_bandwidth)

    def f_power(self, p, w_fixed):
        return f_power(p, w_fixed, self.model, self.demands, self.rb_count, self.rb_bandwidth)

    def f_power_cell(self, p_bar, w_fixed):
        return f_power_cell(p_bar, w_fixed, self.model, self.assoc, self.demands,
                            self.rb_count, self.rb_bandwidth)

    def g1(self, w) -> float:
        return g1(w, self.assoc)

    def g2(self, w, p) -> float:
        return g2(w, p, self.assoc, self.limits, self.rb_count)

    def g2_bar(self, w, p_bar) -> float:
        return g2_bar(w, p_bar, self.assoc, self.limits, self.rb_count)

    def utility(self, w, p) -> float:
        return utility(w, p, self.model, self.demands, self.rb_count, self.rb_bandwidth)

    def qos_levels(self, w, p):
        return qos_levels(w, p, self.model, self.demands, self.rb_count, self.rb_bandwidth)
