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
member axis, so that one call serves a whole batch; ``Problem.stack``, one
problem over its own coupling, is a batch of one on vectors.  The
conversions, domain checks and problem constants are taken there, not per
iteration.  ``f_load``, ``f_power``, ``f_power_cell``, ``interference_psd``,
``g1``, ``g2`` and ``g2_bar`` call those same maps on a batch of one, so
each map has one definition.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .errors import DomainError, ModelError
from .fixedpoint import per_member
from .model import Association, Scenario, _built, _readonly, build_couplings

LN2 = float(np.log(2.0))

# Positivity floor for the downlink entry of cells serving no downlinks: the
# SIF codomain must stay strictly positive, but such entries never constrain.
EPS_NO_DL = 1e-15


def _vetted(d_diag, noise_psd, p_ext_max):
    """Read-only ``p_ext_max`` after one test each: gains ``d_diag`` (frozen), noise, budgets."""
    d_diag.setflags(write=False)
    p_ext_max = _readonly(p_ext_max)
    if not (d_diag > 0).all():
        raise ModelError("direct link gains must be strictly positive")
    if not np.all(noise_psd > 0):
        raise ModelError("noise PSD must be strictly positive")
    if not ((p_ext_max > 0) & (p_ext_max < np.inf)).all():
        raise DomainError("power budgets must be strictly positive and finite")
    return p_ext_max


@dataclass(frozen=True)
class Problem:
    """One problem instance: everything the functionals evaluate.

    The paper's 2K x 2K coupling (receiver link by transmitter link) is
    ``V~ = rows[np.ix_(rx, tx)]``.  ``rows`` is (N+K) x (K+N): one uplink
    receiver row per cell, then one downlink receiver row per UE; one uplink
    transmitter column per UE, then one downlink transmitter column per cell.
    So each link's row and column are functions of ``assoc``'s maps:
    ``rx = [b_ul, N + arange(K)]`` and ``tx = [arange(K), K + b_dl]``.  This
    is exact because an uplink's row of ``V~`` depends only on its serving
    cell and a downlink's column only on its sending cell (see
    :func:`flexlink.model.build_coupling`), so ``rows`` holds about a quarter
    of the entries of ``V~`` and ``V~ diag(p) w`` is ``rows`` times the
    per-transmitter sums of ``w p``.  Cross-direction entries carry any
    overlap adjustment.

    ``d_diag`` is each link's direct gain ``h0[[b_ul, b_dl], ue]``, ``noise_psd``
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
        object.__setattr__(self, "demands", _readonly(self.demands))
        object.__setattr__(self, "p_ext_max", _vetted(self.d_diag, self.noise_psd, self.p_ext_max))

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
        a venue's problems share its demands and one budget array, checked once."""
        if not 0 < theta < np.inf:
            raise DomainError("theta must be positive")
        rows = build_couplings(cases, overlap)
        rows.setflags(write=False)  # and so every problem's view of it
        venues = list({id(scenario): scenario for scenario, _ in cases}.values())
        ue = np.tile(np.arange(cases[0][1].n_ue), 2)
        d_diag = np.array([scenario.h0[np.concatenate([assoc.b_ul, assoc.b_dl]), ue]
                           for scenario, assoc in cases])
        noise, budgets = np.array([v.noise_psd for v in venues]), np.array(
            [np.concatenate([v.ue_max_powers(), v.bs_max_powers()]) for v in venues])
        with np.errstate(over="ignore"):  # a budget past the largest float is refused, not warned
            budgets = dict(zip(map(id, venues), _vetted(d_diag, noise, budgets * theta)))
        problems = [_built(cls, rows=coupling, d_diag=d, noise_psd=scenario.noise_psd, assoc=assoc,
                           demands=scenario.demands, p_ext_max=budgets[id(scenario)],
                           rb_count=scenario.rb_count, rb_bandwidth=scenario.rb_bandwidth)
                    for (scenario, assoc), coupling, d in zip(cases, rows, d_diag)]
        return problems, rows

    @property
    def n_links(self) -> int:
        return self.d_diag.shape[0]

    @functools.cached_property
    def stack(self) -> "ProblemStack":
        """This problem as a batch of one, built on first use."""
        return ProblemStack((self,), self.rows)


class ProblemStack:
    """Problems sharing a noise PSD and band (one venue's associations, or a
    chunk of trials) on a leading member axis, so that the stage maps
    evaluate ``B`` members at once.

    ``rows`` are the couplings stacked ``(B, N+K, K+N)``: the problems may view
    them (:meth:`Problem.batch`), members may share one (a broadcast view,
    which :meth:`take` keeps shared).  One problem may also stand over its own
    2-D coupling and arrays (``Problem.stack``).  ``shape`` is a per-member
    value's: ``(B,)``, or ``()`` over a 2-D coupling, whose values are then
    numpy scalars.  A state is ``shape + (n,)``, member-major rows of per-link
    (or per-transmitter) values, and so are the per-link arrays; the maps take
    and give states.  Each link's serving cell, receiver row ``rx`` and
    transmitter column ``tx`` (see :class:`Problem`) are derived from its
    member's ``b_ul`` and ``b_dl`` and offset by member, so one bincount
    sums every member and one matmul runs every member's matrix-vector
    product.  A member's values are bit for bit its values alone: BLAS runs
    one product per member, and a bin adds its own entries in order.

    ``ipsd`` is :func:`interference_psd` as a map of ``x = w p`` and
    ``rates(p, w)`` the per-RB rate, :func:`spectral_efficiency` of the SINR
    ``p / ipsd(p w)``.  ``g1`` of ``w`` is each member's largest cell load,
    ``g2`` of ``x`` ``rb_count`` times its largest transmitter use, and
    ``g12(w, x)`` the larger of the two.
    """

    def __init__(self, problems, rows):
        problems, shape = tuple(problems), np.shape(rows)[:-2]
        if len({(pr.noise_psd, pr.rb_count, pr.rb_bandwidth) for pr in problems}) > 1:
            raise ModelError("stacked problems must share the noise PSD and the band")
        if shape != (len(problems),) and (shape or len(problems) > 1):
            raise ModelError("a stack of several problems needs their stacked couplings")
        # member-major parts (a lone problem's own arrays)
        parts = {name.split(".")[-1]: np.array(list(map(attrgetter(name), problems))).reshape(
            shape + (-1,)) if shape else attrgetter(name)(problems[0]) for name in (
            "assoc.b_ul", "assoc.b_dl", "d_diag", "demands", "p_ext_max")}
        # weak: a problem caches its own stack, which must not keep it alive
        self._build(tuple(map(weakref.ref, problems)), rows, parts)

    def _build(self, refs, rows, parts):
        self._problems, self.rows, self._parts, first = refs, rows, parts, refs[0]()
        (n_rx, n_tx), b, shape = rows.shape[-2:], len(refs), rows.shape[:-2]
        b_ul, b_dl, self.d_diag, self.demands, p_ext_max = parts.values()
        k, n_bs, noise = b_dl.shape[-1], first.assoc.n_bs, first.noise_psd
        self.k, self.n_bs, self.size, self.shape = k, n_bs, b, shape
        # every link's serving cell, receiver row and transmitter column, offset by member
        links, ue = np.empty((3,) + shape + (2 * k,), int), np.arange(k)
        links[:2, ..., :k], links[0, ..., k:], links[1, ..., k:] = b_ul, b_dl, n_bs + ue
        links[2, ..., :k], links[2, ..., k:] = ue, k + b_dl
        if shape:
            links += np.multiply.outer((n_bs, n_rx, n_tx), np.arange(b))[..., None]
        serving, rx, self._tx = links
        tx, serving, self.b_dl = self._tx.ravel(), serving.ravel(), serving[..., k:].ravel()
        rb_count = self.rb_count = first.rb_count
        rb_bandwidth = self.rb_bandwidth = first.rb_bandwidth
        # each member's transmitter sums as matmul takes them, and its cells and transmitters
        column, cells, transmitters = (shape + (n_tx,) + (1,) * len(shape), shape + (n_bs,),
                                       shape + (n_tx,))
        n_cell, n_sum, d_diag = b * n_bs, b * n_tx, self.d_diag  # locals: ``self`` makes a cycle
        ipsd = self.ipsd = lambda x: ((rows @ np.bincount(tx, x.ravel(), n_sum).reshape(
            column)).ravel()[rx] + noise) / d_diag
        self.rates = lambda p, w: spectral_efficiency(p / ipsd(p * w), rb_bandwidth)
        loads = lambda w: np.bincount(serving, w.ravel(), n_cell).reshape(cells)
        uses = lambda x: np.bincount(tx, x.ravel(), n_sum).reshape(transmitters) / p_ext_max
        self.g1 = lambda w: per_member(np.maximum, loads(w))
        self.g2 = lambda x: per_member(np.maximum, uses(x)) * rb_count
        # ``max{g1(w), g2(x)}`` as one maximum: ``rb_count > 0`` scales each use, rounding and all,
        # without changing which is largest
        self.g12 = lambda w, x: per_member(
            np.maximum, np.concatenate([loads(w), uses(x) * rb_count], -1))

    def take(self, members) -> "ProblemStack":
        """The members at the indices ``members``: rows of the member-major parts and couplings
        (one view of a shared coupling)."""
        sub, members, rows = object.__new__(ProblemStack), np.asarray(members), self.rows
        sub._build(tuple(self._problems[b] for b in members),
                   rows[:members.size] if rows.strides[0] == 0 else rows.take(members, 0),
                   {name: part.take(members, 0) for name, part in self._parts.items()})
        return sub

    @property
    def problems(self) -> tuple:
        return tuple(ref() for ref in self._problems)

    def qos(self, w, p):
        """:func:`qos_levels` of ``w`` and ``p``."""
        return self.rb_count * w * self.rates(p, w) / self.demands

    def expand(self, p_bar):
        """Every member's per-link PSD ``Lambda p_bar``, in the rows of
        ``p_bar``: each link takes its transmitter's entry (an uplink its UE's,
        a downlink its cell's)."""
        return p_bar.ravel()[self._tx].reshape(p_bar.shape[:-1] + (-1,))


def _cell_mean(stack: ProblemStack, w_fixed):
    """:func:`f_power_cell`'s per-transmitter demands from per-link ones."""
    k, b_dl, size = stack.k, stack.b_dl, stack.size * stack.n_bs
    w_dl = np.asarray(w_fixed, dtype=float).reshape(stack.shape + (-1,))[..., k:].ravel()
    nu, cells = np.bincount(b_dl, w_dl, size), stack.shape + (stack.n_bs,)
    has_dl, floor = nu > 0, np.full(size, EPS_NO_DL)

    def mean(f):
        dl = floor.copy()
        np.divide(np.bincount(b_dl, w_dl * f[..., k:].ravel(), size), nu, out=dl, where=has_dl)
        return np.concatenate([f[..., :k], dl.reshape(cells)], -1)
    return mean


def load_maps(stack: ProblemStack, p_fixed):
    """S1's maps ``f_load(., p_fixed)`` and ``max{g1, g2(., p_fixed)}`` of
    every member, on states of ``stack``."""
    p = np.asarray(p_fixed, dtype=float).reshape(stack.shape + (-1,))
    if (p <= 0).any():
        raise DomainError("f_load requires strictly positive fixed power")
    d, rb_count, rates, g12 = stack.demands, stack.rb_count, stack.rates, stack.g12
    return (lambda w: d / (rb_count * rates(p, w))), (lambda w: g12(w, w * p))


def link_power_maps(stack: ProblemStack, w_fixed):
    """S3's maps ``f_power(., w_fixed)`` and ``g2(w_fixed, .)`` of every
    member on ``p > 0`` (the normalized iteration stays positive; a zero PSD
    gives NaN here)."""
    w = np.asarray(w_fixed, dtype=float).reshape(stack.shape + (-1,))
    if (w <= 0).any():
        raise DomainError("f_power requires strictly positive fixed bandwidth")
    d, rb_count, rates, g2 = stack.demands, stack.rb_count, stack.rates, stack.g2
    return (lambda p: (p / w) * d / (rb_count * rates(p, w))), (lambda p: g2(w * p))


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
    return rb_bandwidth * np.log2(1.0 + sinr_values)


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
    return float(problem.stack.g1(np.asarray(w, dtype=float)))


def g2(w, p, problem: Problem) -> float:
    """Per-transmitter power constraint functional
    ``W0 ||diag(p_ext_max)^-1 A_ext diag(w) p||_inf``; ``A_ext x`` sums each
    transmitter's links: its UE's uplink, or its cell's downlinks."""
    return float(problem.stack.g2(np.asarray(w, dtype=float) * np.asarray(p, dtype=float)))


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
