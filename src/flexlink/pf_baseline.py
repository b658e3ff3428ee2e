"""QoS-based proportional-fairness baseline with a fixed UL/DL band split.

The band is split globally into disjoint UL and DL sub-bands (by default
``DEFAULT_PF_SPLIT``, 9:16 of 25 RBs), so uplinks and downlinks never
interfere; the cross-direction blocks of the coupling are zeroed in this
baseline's SINR evaluation.  Within each
cell and direction, RBs are handed out one at a time to the link with the
largest marginal gain of QoS satisfaction relative to what it already has
(the classic PF ratio with the rate replaced by the QoS satisfaction level),
at a fixed open-loop PSD.  This greedy single-shot rule *is* the baseline
definition; there is no time-domain averaging window.  A link's ratio only
falls as it gains RBs, so the greedy rule is one sort: each cell and direction
takes the first RBs of its links' ratios at their 1st, 2nd, ... RB, ordered by
falling ratio and then by link index (the greedy tie-break: the lowest wins).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .interference import Problem, interference_psd, spectral_efficiency
from .optimizer import initial_psd

EPS_PF = 1e-3  # smoothing constant in the PF priority ratio
DEFAULT_PF_SPLIT = (9, 16)  # (UL RBs, DL RBs) of the study's 25


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


def _split_band(problem: Problem) -> Problem:
    """The problem under disjoint UL and DL sub-bands: no cross-direction
    coupling, since uplinks and downlinks never share an RB."""
    k, n = problem.assoc.n_ue, problem.assoc.n_bs
    rows = np.array(problem.rows)
    rows[:n, k:] = 0.0
    rows[n:, :k] = 0.0
    return replace(problem, rows=rows)


def _pf_rates(problem: Problem, p, counts, split):
    """Per-RB rates on the split-band problem.

    A same-direction interferer occupies its RBs within its direction's
    sub-band, so the collision probability is ``count / direction_band``.
    """
    k = problem.assoc.n_ue
    band = np.concatenate([np.full(k, split[0]), np.full(k, split[1])]).astype(float)
    sinr = p / interference_psd(p, counts / band, problem)
    return spectral_efficiency(sinr, problem.rb_bandwidth)


def pf_allocate(problem: Problem, split=DEFAULT_PF_SPLIT) -> PfAllocation:
    """Allocate the split band of ``problem`` greedily per cell and direction.

    ``split`` is (UL RBs, DL RBs); each direction gets at least one RB and
    the two sum to the problem's RB count; the problem's overlap adjustment
    and budgets play no part.
    The per-RB gains come from the rates at zero occupancy (no inter-cell
    interference yet); the returned QoS levels use the rates of the final
    allocation.
    """
    ul_rbs, dl_rbs = split
    if ul_rbs + dl_rbs != problem.rb_count or ul_rbs < 1 or dl_rbs < 1:
        raise ConfigError(f"split {split} must give each direction at least one "
                          f"of the {problem.rb_count} RBs")

    assoc, problem = problem.assoc, _split_band(problem)
    k, n = assoc.n_ue, assoc.n_bs
    p = initial_psd(problem)
    demands = problem.demands

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
    return PfAllocation(
        w=counts / problem.rb_count,
        p=p,
        rb_counts=counts.astype(int),
        lam_ul=float(np.min(qos[:k])),
        lam_dl=float(np.min(qos[k:])),
        qos=qos,
    )
