"""QoS-based proportional-fairness baseline with a fixed UL/DL band split.

The band is split globally into disjoint UL and DL sub-bands (default 9:16 of
25 RBs), so uplinks and downlinks never interfere; the cross-direction blocks
of the coupling are zeroed in this baseline's SINR evaluation.  Within each
cell and direction, RBs are handed out one at a time to the link with the
largest marginal gain of QoS satisfaction relative to what it already has
(the classic PF ratio with the rate replaced by the QoS satisfaction level),
at a fixed open-loop PSD.  This greedy single-shot rule *is* the baseline
definition; there is no time-domain averaging window.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .interference import link_rates
from .model import Association, Scenario, build_coupling
from .optimizer import initial_psd

EPS_PF = 1e-3  # smoothing constant in the PF priority ratio


@dataclass
class PfAllocation:
    w: np.ndarray
    p: np.ndarray
    rb_counts: np.ndarray
    lam_ul: float
    lam_dl: float
    qos: np.ndarray

    @property
    def lam(self) -> float:
        return min(self.lam_ul, self.lam_dl)

    def to_dict(self) -> dict:
        return {
            "w": self.w.tolist(),
            "p": self.p.tolist(),
            "rb_counts": self.rb_counts.tolist(),
            "lambda_ul": self.lam_ul,
            "lambda_dl": self.lam_dl,
            "lambda": self.lam,
        }


def _pf_rates(scenario, assoc, p, counts, split):
    """Per-RB rates under the split-band interference model.

    A same-direction interferer occupies its RBs within its direction's
    sub-band, so the collision probability is ``count / direction_band``.
    Cross-direction interference does not exist under disjoint sub-bands.
    """
    n, k = scenario.n_bs, scenario.n_ue
    model = build_coupling(scenario, assoc)
    rows = np.array(model.rows)
    rows[:n, k:] = 0.0
    rows[n:, :k] = 0.0
    band = np.concatenate([np.full(k, split[0]), np.full(k, split[1])]).astype(float)
    occupancy = counts / band
    return link_rates(p, occupancy, replace(model, rows=rows), scenario.rb_bandwidth)


def pf_allocate(scenario: Scenario, assoc: Association, split=(9, 16)) -> PfAllocation:
    """Allocate the split band greedily per cell and direction.

    ``split`` is (UL RBs, DL RBs) and must sum to the scenario's RB count.
    The per-RB gains come from the rates at zero occupancy (no inter-cell
    interference yet); the returned QoS levels use the rates of the final
    allocation.
    """
    ul_rbs, dl_rbs = split
    if ul_rbs + dl_rbs != scenario.rb_count or ul_rbs < 0 or dl_rbs < 0:
        raise ConfigError(f"split {split} does not partition {scenario.rb_count} RBs")

    k, n = scenario.n_ue, scenario.n_bs
    p = initial_psd(scenario, assoc)
    demands = scenario.demands

    budgets = (ul_rbs, dl_rbs)
    gain = _pf_rates(scenario, assoc, p, np.zeros(2 * k), split) / demands  # QoS per RB
    counts = np.zeros(2 * k)
    for cell in range(n):
        for direction, served in enumerate((assoc.b_ul, assoc.b_dl)):
            links = np.flatnonzero(served == cell) + direction * k
            if links.size == 0:
                continue
            qos = np.zeros(links.size)
            for _rb in range(budgets[direction]):
                pick = int(np.argmax(gain[links] / (qos + EPS_PF)))
                counts[links[pick]] += 1
                qos[pick] += gain[links[pick]]

    rates = _pf_rates(scenario, assoc, p, counts, split)
    qos = counts * rates / demands
    return PfAllocation(
        w=counts / scenario.rb_count,
        p=p,
        rb_counts=counts.astype(int),
        lam_ul=float(np.min(qos[:k])),
        lam_dl=float(np.min(qos[k:])),
        qos=qos,
    )
