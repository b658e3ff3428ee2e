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

:func:`pf_allocate_all` runs the baselines of a batch of problems at once (a
Monte Carlo chunk's references): one split-band :class:`ProblemStack`
evaluates every member's rates, and each member's candidates are sorted on
their own.  :func:`pf_allocate` is its batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .interference import Problem, ProblemStack
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


def pf_allocate(problem: Problem, split=DEFAULT_PF_SPLIT) -> PfAllocation:
    """Allocate the split band of ``problem`` greedily per cell and direction:
    the batch of one of :func:`pf_allocate_all`."""
    return pf_allocate_all([problem], split)[0]


def pf_allocate_all(problems, split=DEFAULT_PF_SPLIT) -> list[PfAllocation]:
    """The PF baseline of each of the sequence ``problems`` (sharing a noise PSD and band).

    ``split`` is (UL RBs, DL RBs); each direction gets at least one RB and
    the two sum to the problems' RB count; their overlap adjustment and
    budgets play no part.
    The per-RB gains come from the rates at zero occupancy (no inter-cell
    interference yet); the returned QoS levels use the rates of the final
    allocation.  A same-direction interferer occupies its RBs within its
    direction's sub-band, so the collision probability is ``count / band``.
    """
    first = problems[0]
    if sum(split) != first.rb_count or min(split) < 1:
        raise ConfigError(f"split {split} must give each direction at least one "
                          f"of the {first.rb_count} RBs")
    b, k, n = len(problems), first.assoc.n_ue, first.assoc.n_bs
    rows = np.array([problem.rows for problem in problems])
    rows[:, :n, k:] = 0.0  # uplinks and downlinks never share an RB
    rows[:, n:, :k] = 0.0
    stack = ProblemStack(problems, rows)
    p, band = initial_psd(stack), np.tile(np.repeat(np.array(split, dtype=float), k), (b, 1))
    gain = stack.rates(p, np.zeros(p.shape)) / stack.demands  # QoS per RB

    rbs = max(split)
    held = np.zeros((b, 2 * k, rbs))  # QoS a link holds before its c-th RB
    np.cumsum(np.broadcast_to(gain[..., None], (b, 2 * k, rbs - 1)), axis=2, out=held[..., 1:])
    # a link's ratio at each RB up to its direction's quota (it can take no more)
    link, rb = np.nonzero(np.arange(rbs) < np.repeat(split, k)[:, None])
    ratio = (gain[..., None] / (held + EPS_PF)).reshape(b, -1).take(link * rbs + rb, 1)
    cell = np.array([np.concatenate([pr.assoc.b_ul, pr.assoc.b_dl + n]) for pr in problems])
    # each member's by cell and direction (UL cells, then DL; a narrow key sorts by
    # radix), falling ratio and link: the candidates run by link and the sort is stable
    keys = cell.astype(np.min_scalar_type(2 * n))[:, link]
    order = np.lexsort((-ratio, keys), axis=1).ravel()
    # each cell and direction takes the first ``quota`` of its sorted candidates
    quota, slot = np.tile(np.repeat(split, n), b), np.arange(rbs)
    size = np.bincount((cell + 2 * n * np.arange(b)[:, None]).ravel(), minlength=2 * n * b) * quota
    taken = ((np.cumsum(size) - size)[:, None] + slot)[slot < np.minimum(quota, size)[:, None]]
    counts = np.bincount(link[order[taken]] + 2 * k * (taken // link.size),
                         minlength=2 * k * b).reshape(b, -1)

    qos, w = counts * stack.rates(p, counts / band) / stack.demands, counts / first.rb_count
    lam_ul, lam_dl = qos[:, :k].min(1), qos[:, k:].min(1)
    return [PfAllocation(w=w[i], p=p[i], rb_counts=counts[i], lam_ul=float(lam_ul[i]),
                         lam_dl=float(lam_dl[i]), qos=qos[i]) for i in range(b)]
