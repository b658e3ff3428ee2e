"""SINR, rate and constraint functionals over a problem instance.

All operations are pure functions of immutable inputs.  ``w`` is the per-link
fraction of the band's ``rb_count`` resource blocks, ``p`` the per-link PSD in
watts per RB, and ``p_bar`` the per-transmitter PSD (K uplink entries followed
by N cell-specific downlink entries).

Every functional (``interference_psd``, ``f_load``, ``f_power``,
``f_power_cell``, ``g1``, ``g2``, ``g2_bar``, ``qos_levels``, ``utility``)
takes its math arguments followed by the :class:`Problem` it is evaluated
on; ``spectral_efficiency`` needs only a bandwidth.  The per-RB rate, the
``g1``/``g2`` maxima and ``Lambda p_bar`` are each defined once, as the
:class:`ProblemStack` maps ``rates``, ``g1``, ``g2`` and ``expand``.

The solver's fixed-point stages iterate maps built once per stage, at the
stage's fixed power or bandwidth: :func:`load_maps` (S1),
:func:`link_power_maps` and :func:`cell_power_maps` (S3).  They evaluate a
:class:`ProblemStack`, problems sharing a noise PSD and band on a leading
member axis, so that one call serves a whole batch (``Problem.stack`` is a
problem's batch of one).  The conversions, domain checks and problem
constants are taken there, not per iteration.  ``f_load``, ``f_power``,
``f_power_cell``, ``interference_psd``, ``g1``, ``g2`` and ``g2_bar`` call
those same maps on a batch of one, so each map has one definition.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .errors import DomainError, ModelError
from .model import Association, Scenario, _readonly, build_couplings

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
        if not (self.d_diag > 0).all():
            raise ModelError("direct link gains must be strictly positive")
        if not self.noise_psd > 0:
            raise ModelError("noise PSD must be strictly positive")
        if not ((self.p_ext_max > 0) & (self.p_ext_max < np.inf)).all():
            raise DomainError("power budgets must be strictly positive")

    @classmethod
    def from_scenario(cls, scenario: Scenario, assoc: Association,
                      overlap=None, theta: float = 1.0) -> "Problem":
        """The problem of ``scenario`` under ``assoc``, with the overlap
        adjustment applied (``None``: full overlap) and every power budget
        scaled by ``theta``: the batch of one of :meth:`batch`."""
        return cls.batch([(scenario, assoc)], overlap, theta)[0][0]

    @classmethod
    def batch(cls, cases, overlap=None, theta: float = 1.0):
        """``(problems, rows)``: the problem of each ``(scenario, assoc)`` of
        ``cases`` and the stacked couplings they view (``build_couplings``);
        a venue's problems share its demands and one budget array."""
        if not 0 < theta < np.inf:
            raise DomainError("theta must be positive")
        rows = build_couplings(cases, overlap)
        rows.setflags(write=False)  # and so every problem's view of it
        venues = {id(scenario): scenario for scenario, _ in cases}
        budgets = {key: _readonly(np.concatenate([sc.ue_max_powers(), sc.bs_max_powers()]) * theta)
                   for key, sc in venues.items()}
        ue = np.tile(np.arange(cases[0][1].n_ue), 2)
        problems = [cls(rows=coupling, d_diag=scenario.h0[assoc.serving, ue],
                        noise_psd=scenario.noise_psd, assoc=assoc, demands=scenario.demands,
                        p_ext_max=budgets[id(scenario)], rb_count=scenario.rb_count,
                        rb_bandwidth=scenario.rb_bandwidth)
                    for (scenario, assoc), coupling in zip(cases, rows)]
        return problems, rows

    @property
    def n_links(self) -> int:
        return self.d_diag.shape[0]

    @functools.cached_property
    def stack(self) -> "ProblemStack":
        """This problem as a batch of one, built on first use."""
        return ProblemStack((self,))


class ProblemStack:
    """Problems sharing a noise PSD and band (one venue's associations, or a
    chunk of trials) on a leading member axis, so that the stage maps
    evaluate ``B`` members at once.

    ``rows`` are the couplings stacked ``(B, N+K, K+N)``: the problems may
    view them (:meth:`Problem.batch`), members may share one (a broadcast
    view).  One ``matmul`` runs every member's matrix-vector product; without
    ``rows``, ``Problem.stack`` (a batch of one) maps vectors by the plain 2-D
    product.  Per-link vectors are flat, member after member, and the index
    vectors are offset by member, so one ``bincount`` sums every member.  A
    member's values are bit for bit its values alone: BLAS runs one product
    per member, and a bin adds its own entries in order.

    ``ipsd`` is :func:`interference_psd` as a map of the flat ``x = w p``
    and ``rates(p, w)`` the per-RB rate, :func:`spectral_efficiency` of the
    SINR ``p / ipsd(p w)``.  ``g1`` of the flat ``w`` is each member's
    largest cell load and ``g2`` of the flat ``x`` ``rb_count`` times its
    largest transmitter use: a ``(B, 1)`` column, or a batch of one's float.
    :meth:`state_maps` turns maps of flat vectors into maps of member states.
    """

    def __init__(self, problems, rows=None):
        problems = tuple(problems)
        first = problems[0]
        if len({(pr.noise_psd, pr.rb_count, pr.rb_bandwidth) for pr in problems}) > 1:
            raise ModelError("stacked problems must share the noise PSD and the band")
        if rows is None and len(problems) > 1:
            raise ModelError("a stack of several problems needs their stacked couplings")
        # member-major parts (a batch of one's vectors): index vectors (not offset) and values
        part = ((lambda name: attrgetter(name)(first)) if rows is None
                else (lambda name: np.array(list(map(attrgetter(name), problems)))))
        parts = {name.split(".")[-1]: part(name) for name in (
            "assoc.tx", "assoc.rx", "assoc.serving", "assoc.b_dl", "d_diag", "demands")}
        parts["p_ext_max"] = np.array([pr.p_ext_max for pr in problems])
        # weak: a problem caches its own stack, which must not keep it alive
        self._build(tuple(map(weakref.ref, problems)), first.rows if rows is None else rows, parts)

    def _build(self, refs, rows, parts):
        self._problems, self.rows, self._parts, first = refs, rows, parts, refs[0]()
        self.solo = solo = rows.ndim == 2  # a batch of one maps vectors by the 2-D product
        (n_rx, n_tx), b, self.k, self.n_bs = (rows.shape[-2:], len(refs), first.assoc.n_ue,
                                              first.assoc.n_bs)
        n_bs, noise, self.size = self.n_bs, first.noise_psd, b
        # each member's first receiver row, transmitter and cell in the flat vectors
        rx0, tx0, cell0 = (np.arange(0, b * size, size) for size in (n_rx, n_tx, n_bs))
        flat = ((lambda name, offset: parts[name]) if solo else
                (lambda name, offset: (parts[name] + offset[:, None]).ravel()))
        tx, rx, serving, self.b_dl = (flat(name, offset) for name, offset in (
            ("tx", tx0), ("rx", rx0), ("serving", cell0), ("b_dl", cell0)))
        self.d_diag, self.demands = (parts[name].ravel() for name in ("d_diag", "demands"))
        p_ext_max = parts["p_ext_max"].ravel()
        rb_count = self.rb_count = first.rb_count
        rb_bandwidth = self.rb_bandwidth = first.rb_bandwidth
        product = rows.__matmul__ if solo else (
            lambda s: (rows @ s.reshape(b, n_tx, 1)).reshape(-1))
        d_diag = self.d_diag  # the maps close over locals: ``self`` would make a cycle
        ipsd = self.ipsd = lambda x: (product(np.bincount(tx, x, b * n_tx))[rx] + noise) / d_diag
        loads = lambda w: np.bincount(serving, w, b * n_bs)
        uses = lambda x: np.bincount(tx, x, b * n_tx) / p_ext_max
        # a member's largest entry, from each one's first: a (B, 1) column, or one's float
        largest = ((lambda flat, offset: float(np.maximum.reduce(flat, None))) if solo else
                   (lambda flat, offset: np.maximum.reduceat(flat, offset)[:, None]))
        self.rates = lambda p, w: spectral_efficiency(p / ipsd(p * w), rb_bandwidth)
        self.g1 = lambda w: largest(loads(w), cell0)
        self.g2 = lambda x: largest(uses(x), tx0) * rb_count

    def take(self, members) -> "ProblemStack":
        """The members at the indices ``members``: rows of the member-major parts and couplings."""
        sub = object.__new__(ProblemStack)
        sub._build(tuple(self._problems[b] for b in members), self.rows[members],
                   {name: part[members] for name, part in self._parts.items()})
        return sub

    @property
    def problems(self) -> tuple:
        return tuple(ref() for ref in self._problems)

    def state_maps(self, f, g):
        """``f`` and ``g`` of flat per-link vectors as maps of member states:
        a stack's take ``(B, n)`` states, a batch of one's take its vector."""
        if self.solo:
            return f, g
        return (lambda x: f(x.reshape(-1)).reshape(x.shape)), (lambda x: g(x.reshape(-1)))

    def qos(self, w, p):
        """:func:`qos_levels` of the flat ``w`` and ``p``."""
        return self.rb_count * w * self.rates(p, w) / self.demands

    def expand(self, p_bar):
        """Every member's per-link PSD ``Lambda p_bar`` (a batch of one's, of
        its vector): uplinks keep their UE's entry, downlinks their cell's."""
        k = self.k
        if p_bar.ndim == 1:
            return np.concatenate([p_bar[:k], p_bar[k:][self.b_dl]])
        dl = p_bar[:, k:].reshape(-1)[self.b_dl].reshape(-1, k)
        return np.concatenate([p_bar[:, :k], dl], 1)


def _cell_mean(stack: ProblemStack, w_fixed):
    """:func:`f_power_cell`'s per-transmitter demands from per-link ones."""
    k, n_bs, b_dl, size = stack.k, stack.n_bs, stack.b_dl, stack.size * stack.n_bs
    w_dl = np.asarray(w_fixed, dtype=float).reshape(stack.size, -1)[:, k:].reshape(-1)
    nu = np.bincount(b_dl, w_dl, size)
    has_dl, floor = nu > 0, np.full(size, EPS_NO_DL)

    def mean(f):
        dl = floor.copy()
        np.divide(np.bincount(b_dl, w_dl * f[..., k:].reshape(-1), size), nu, out=dl, where=has_dl)
        if f.ndim == 1:  # a batch of one's vector
            return np.concatenate([f[:k], dl])
        return np.concatenate([f[:, :k], dl.reshape(-1, n_bs)], 1)
    return mean


def load_maps(stack: ProblemStack, p_fixed):
    """S1's maps ``f_load(., p_fixed)`` and ``max{g1, g2(., p_fixed)}`` of
    every member (:meth:`ProblemStack.state_maps`)."""
    p = np.asarray(p_fixed, dtype=float).reshape(-1)
    if (p <= 0).any():
        raise DomainError("f_load requires strictly positive fixed power")
    d, rb_count, rates, g1, g2 = stack.demands, stack.rb_count, stack.rates, stack.g1, stack.g2
    higher = max if stack.solo else np.maximum
    return stack.state_maps(lambda w: d / (rb_count * rates(p, w)),
                            lambda w: higher(g1(w), g2(w * p)))


def link_power_maps(stack: ProblemStack, w_fixed):
    """S3's maps ``f_power(., w_fixed)`` and ``g2(w_fixed, .)`` of every
    member on ``p > 0`` (the normalized iteration stays positive; a zero PSD
    gives NaN here)."""
    w = np.asarray(w_fixed, dtype=float).reshape(-1)
    if (w <= 0).any():
        raise DomainError("f_power requires strictly positive fixed bandwidth")
    d, rb_count, rates, g2 = stack.demands, stack.rb_count, stack.rates, stack.g2
    return stack.state_maps(lambda p: (p / w) * d / (rb_count * rates(p, w)),
                            lambda p: g2(w * p))


def cell_power_maps(stack: ProblemStack, w_fixed):
    """S3's maps ``f_power_cell(., w_fixed)`` and ``g2_bar(w_fixed, .)`` of
    every member on ``p_bar > 0``."""
    (f, g), mean = link_power_maps(stack, w_fixed), _cell_mean(stack, w_fixed)
    return (lambda x: mean(f(stack.expand(x)))), (lambda x: g(stack.expand(x)))


def interference_psd(p, w, problem: Problem):
    """Per-link interference-plus-noise PSD normalized by the direct gain:
    ``[D^-1 (V~ diag(p) w + sigma)]``.  Each transmitter's ``w p`` is summed
    over its links first, so ``V~ x = (rows @ A_ext x)[rx]``."""
    return problem.stack.ipsd(np.asarray(p, dtype=float) * np.asarray(w, dtype=float))


def spectral_efficiency(sinr_values, rb_bandwidth: float):
    """Achievable rate per RB, ``B log2(1 + SINR)`` in bit/s."""
    return rb_bandwidth * np.log2(1.0 + np.asarray(sinr_values))


def qos_levels(w, p, problem: Problem):
    """Per-link QoS satisfaction ``W0 w_l r_l / d_l``."""
    return problem.stack.qos(np.asarray(w, dtype=float), np.asarray(p, dtype=float))


def utility(w, p, problem: Problem) -> float:
    """Minimum QoS satisfaction level over all links."""
    return float(qos_levels(w, p, problem).min())


def f_load(w, p_fixed, problem: Problem):
    """Bandwidth-demand map ``f_l = d_l / (W0 r_l(p', w))`` at fixed power.

    A standard interference function of ``w`` for any strictly positive fixed
    power (rates stay positive, interference grows with occupancy).
    """
    return load_maps(problem.stack, p_fixed)[0](np.asarray(w, dtype=float))


def g1(w, problem: Problem) -> float:
    """Per-cell load constraint functional ``||A w||_inf``; ``A w`` sums each
    cell's served links."""
    return problem.stack.g1(np.asarray(w, dtype=float))


def g2(w, p, problem: Problem) -> float:
    """Per-transmitter power constraint functional
    ``W0 ||diag(p_ext_max)^-1 A_ext diag(w) p||_inf``; ``A_ext x`` sums each
    transmitter's links: its UE's uplink, or its cell's downlinks."""
    return problem.stack.g2(np.asarray(w, dtype=float) * np.asarray(p, dtype=float))


def g2_bar(w, p_bar, problem: Problem) -> float:
    """Power constraint on the per-transmitter PSD, ``g2(w, Lambda p_bar)``."""
    return g2(w, problem.stack.expand(np.asarray(p_bar, dtype=float)), problem)


def f_power(p, w_fixed, problem: Problem):
    """Power-demand map for fixed bandwidth: ``f'_l = (p_l / w_l) d_l / (W0 r_l)``.

    At ``p_l = 0`` the map continues with its limit
    ``d_l ln2 / (W0 B w_l) * I_l(p)`` where ``I_l`` is the normalized
    interference-plus-noise PSD, which keeps the codomain strictly positive.
    A standard interference function of ``p``.
    """
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = link_power_maps(problem.stack, w_fixed)[0](p)
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
    f = f_power(problem.stack.expand(np.asarray(p_bar, dtype=float)), w_fixed, problem)
    return _cell_mean(problem.stack, w_fixed)(f)
