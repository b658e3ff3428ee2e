"""Network model: topology, link association and interference coupling.

Conventions used throughout the package:

* ``N`` base stations, ``K`` user terminals, ``2K`` service links.
* Link index ``l`` in ``0..K-1`` is the uplink of UE ``l``; ``K..2K-1`` is the
  downlink of UE ``l - K``.  Vectors over links (``w``, ``p``, demands) use
  this ordering, uplink block first.
* Channel gains are linear amplitude-squared attenuations in ``(0, 1]``.
* Powers are watts; PSD values are watts per resource block.
* :func:`build_coupling` gives the coupling ``rows`` of an association,
  which :class:`flexlink.interference.Problem` holds with the rest of a
  solve's instance.  Full band overlap is ``None``, not an
  :class:`OverlapModel`.
"""

from __future__ import annotations

import functools
import logging
import sys
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .errors import ModelError

log = logging.getLogger(__name__)

MACRO = "macro"
PICO = "pico"

OVERLAP_PAIRWISE = "cell_pairwise"
OVERLAP_SPECIFIC = "cell_specific"
OVERLAP_SCHEMES = (OVERLAP_PAIRWISE, OVERLAP_SPECIFIC)


def _breach(value, integer: bool = False):
    """What a number field must be and ``value`` is not, or None: a number
    (for ``integer`` an integer), never a bool, finite as a float (``abs``
    takes an integer too large for a float; ``isfinite`` raises)."""
    if integer and (not isinstance(value, Integral) or isinstance(value, bool)):
        return "an integer"
    ok = isinstance(value, Real) and not isinstance(value, bool)
    return None if ok and abs(value) <= sys.float_info.max else "a finite number"


def _readonly(a, dtype=float):
    """A read-only ``dtype`` copy of ``a``, or ``a`` if it is one owning its data."""
    if isinstance(a, np.ndarray) and a.dtype == dtype and a.flags.owndata \
            and not a.flags.writeable:
        return a
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _built(cls, **fields):
    """A ``cls`` holding ``fields`` as they are: a batch member, checked with its batch."""
    vars(obj := object.__new__(cls)).update(fields)
    return obj


@dataclass(frozen=True)
class BaseStation:
    """A transmitter/receiver site. ``max_power_w`` is the total DL budget
    over the whole band."""

    position: tuple[float, float]
    kind: str = MACRO
    max_power_w: float = 19.953  # 43 dBm

    def __post_init__(self):
        if self.kind not in (MACRO, PICO):
            raise ModelError(f"unknown base station kind: {self.kind!r}")
        if not self.max_power_w > 0:
            raise ModelError("base station max power must be positive")


@dataclass(frozen=True)
class UserTerminal:
    """A user terminal. ``max_power_w`` bounds its UL transmit power over the
    whole band."""

    position: tuple[float, float]
    service_class: int = 0
    max_power_w: float = 0.1585  # 22 dBm

    def __post_init__(self):
        if not self.max_power_w > 0:
            raise ModelError("user terminal max power must be positive")


def check_band(rb_bandwidth, noise_psd):
    """Refuse an RB bandwidth or a noise PSD that is not positive and finite."""
    if not rb_bandwidth > 0 or not noise_psd > 0:
        raise ModelError("rb_bandwidth and noise_psd must be positive")
    if not np.isfinite(rb_bandwidth) or not np.isfinite(noise_psd):
        raise ModelError("rb_bandwidth and noise_psd must be finite")


@dataclass(frozen=True)
class Scenario:
    """Static snapshot of the network.

    Attributes
    ----------
    bs_list, ue_list : lists of sites and terminals.
    h0 : (N, K) BS-to-UE linear channel gains.
    h1 : (N, N) BS-to-BS linear channel gains (symmetric; diagonal stored but
        never read).
    h2 : (K, K) UE-to-UE linear channel gains (symmetric).
    demands : (2K,) required bit rates in bit/s, uplink block first.
    rb_count : total number of resource blocks in the shared band.
    rb_bandwidth : effective bandwidth per RB in Hz.
    noise_psd : receiver noise power per RB in watts.
    """

    bs_list: tuple[BaseStation, ...]
    ue_list: tuple[UserTerminal, ...]
    h0: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    demands: np.ndarray
    rb_count: int
    rb_bandwidth: float
    noise_psd: float

    def __post_init__(self):
        object.__setattr__(self, "bs_list", tuple(self.bs_list))
        object.__setattr__(self, "ue_list", tuple(self.ue_list))
        for name in ("h0", "h1", "h2", "demands"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        self._validate()

    def _validate(self):
        n, k = self.n_bs, self.n_ue
        if n < 1 or k < 1:
            raise ModelError("need at least one BS and one UE")
        if self.h0.shape != (n, k) or self.h1.shape != (n, n) or self.h2.shape != (k, k):
            raise ModelError("channel gain matrix shapes do not match topology")
        for name in ("h0", "h1", "h2"):
            h = getattr(self, name)
            if not np.all(h > 0) or not np.all(h <= 1.0):
                raise ModelError(f"{name} entries must be linear gains in (0, 1]")
        if not np.array_equal(self.h1, self.h1.T):
            raise ModelError("h1 must be symmetric")
        if not np.array_equal(self.h2, self.h2.T):
            raise ModelError("h2 must be symmetric")
        if self.demands.shape != (2 * k,):
            raise ModelError("demands must have one entry per link (2K)")
        if not np.all(self.demands > 0):
            raise ModelError("demands must be strictly positive")
        if not np.all(np.isfinite(self.demands)):
            raise ModelError("demands must be finite")
        if int(self.rb_count) < 1:
            raise ModelError("rb_count must be >= 1")
        check_band(self.rb_bandwidth, self.noise_psd)

    @property
    def n_bs(self) -> int:
        return len(self.bs_list)

    @property
    def n_ue(self) -> int:
        return len(self.ue_list)

    @property
    def n_links(self) -> int:
        return 2 * self.n_ue

    def bs_max_powers(self) -> np.ndarray:
        return np.array([b.max_power_w for b in self.bs_list])

    def ue_max_powers(self) -> np.ndarray:
        return np.array([u.max_power_w for u in self.ue_list])


@dataclass(frozen=True)
class Association:
    """Serving-BS maps for both directions.

    ``b_ul``/``b_dl`` give the serving BS of each UE's uplink and downlink.
    The solver applies the paper's selection operators through these two
    maps only: ``ProblemStack`` in :mod:`flexlink.interference` derives each
    link's serving cell and its receiver row and transmitter column of the
    coupling from them.

    The dense properties are the paper-notation reference forms, built anew
    on every access.  The package never reads them; they stay only for the
    benchmark tracer, which wraps them by name, and for the tests, which
    check the index form against them: ``a_ul``/``a_dl``
    are N x K with exactly one 1 per column; ``a`` stacks them side by side
    over the 2K links.  ``a_ext`` maps transmitters (K UEs then N BSs) to
    links, and ``lambda_map`` expands a per-transmitter PSD vector to a
    per-link one via ``p = lambda_map @ p_bar``.
    """

    b_ul: np.ndarray
    b_dl: np.ndarray
    n_bs: int

    def __post_init__(self):
        vars(self).update(vars(self.batch(np.asarray(self.b_ul)[None], self.b_dl, self.n_bs)[0]))

    @classmethod
    def batch(cls, b_ul, b_dl, n_bs) -> list:
        """One association per row of the (M, K) uplink maps ``b_ul``, checked at once: each views
        its row of one ``b_ul`` and shares ``b_dl``.  ``Association(...)`` is M = 1."""
        what = _breach(n_bs, integer=True)
        if what or n_bs < 1:
            raise ModelError(f"n_bs must be {what or 'an integer'} >= 1, got {n_bs!r}")
        maps = [np.asarray(b) for b in (b_ul, b_dl)]
        for name, b in zip(("b_ul", "b_dl"), maps):
            # checked before the cast, which would truncate 1.7 and warn on NaN
            whole = b == np.floor(b) if b.dtype.kind == "f" else True
            if not np.all(whole & (b >= 0) & (b < n_bs)):
                raise ModelError(f"{name} must hold integer BS indices in [0, {n_bs})")
        b_ul, b_dl = (_readonly(b, dtype=int) for b in maps)
        if b_ul.ndim != 2 or b_ul.shape[1:] != b_dl.shape:
            raise ModelError("b_ul and b_dl must be 1-d and equally sized")
        return [_built(cls, b_ul=u, b_dl=b_dl, n_bs=n_bs) for u in b_ul]

    @property
    def n_ue(self) -> int:
        return self.b_ul.shape[0]

    def _onehot(self, b) -> np.ndarray:
        return np.eye(self.n_bs)[:, b]

    @property
    def a_ul(self) -> np.ndarray:
        return self._onehot(self.b_ul)

    @property
    def a_dl(self) -> np.ndarray:
        return self._onehot(self.b_dl)

    @property
    def a(self) -> np.ndarray:
        return np.hstack([self.a_ul, self.a_dl])

    @property
    def a_ext(self) -> np.ndarray:
        k, n = self.n_ue, self.n_bs
        return np.block([[np.eye(k), np.zeros((k, k))], [np.zeros((n, k)), self.a_dl]])

    @property
    def lambda_map(self) -> np.ndarray:
        return self.a_ext.T


@dataclass(frozen=True)
class OverlapModel:
    """UL/DL band-overlap adjustment derived from historical per-cell loads.

    ``load_ul``/``load_dl`` are length-N historical load estimates in [0, 1].
    ``scheme`` selects how cross-direction interference terms are scaled.
    Full overlap, which leaves the coupling untouched, is no model: ``None``.
    """

    scheme: str
    load_ul: np.ndarray
    load_dl: np.ndarray

    def __post_init__(self):
        if self.scheme not in OVERLAP_SCHEMES:
            raise ModelError(f"unknown overlap scheme: {self.scheme!r}")
        object.__setattr__(self, "load_ul", _readonly(self.load_ul))
        object.__setattr__(self, "load_dl", _readonly(self.load_dl))
        for v in (self.load_ul, self.load_dl):
            if not np.all((v >= 0) & (v <= 1)):
                raise ModelError("historical loads must lie in [0, 1]")

    @functools.cached_property
    def factors(self) -> tuple:
        """The N x N cross-direction factors ``(ul_dl, dl_ul)``, computed on
        first use: ``pairwise_overlap_factors`` of the loads, or for
        ``cell_specific`` the receiving cell's load times the sending cell's."""
        if self.scheme == OVERLAP_PAIRWISE:
            pair = pairwise_overlap_factors(self.load_ul, self.load_dl)
        else:
            pair = np.outer(self.load_ul, self.load_dl), np.outer(self.load_dl, self.load_ul)
        return tuple(map(_readonly, pair))


def build_coupling(scenario: Scenario, assoc: Association) -> np.ndarray:
    """The coupling ``rows`` of an association: ``V~ = rows[np.ix_(rx, tx)]``.

    The four blocks of ``V~`` are, in receiver-block/transmitter-block order:
    UL<-UL ``A_ul^T H0``, UL<-DL ``A_ul^T H1 A_dl``, DL<-UL ``H2`` and
    DL<-DL ``H0^T A_dl``.  Stored once per receiving cell and per sending
    cell, they are the four blocks of ``rows``: ``h0`` and ``h1`` in the
    cell rows, ``h2`` and ``h0^T`` in the UE rows.  Every entry whose two
    links share a serving BS is zero (own-cell scheduling is orthogonal):
    each UE's uplink cell in the ``h0`` block, the diagonal of the ``h1``
    block, each UE's downlink cell in the ``h0^T`` block, and the ``h2``
    entries of UE pairs whose downlink and uplink cells agree.  This in
    particular clears the diagonal of ``V~``.  The DL<-UL entry of a UE
    against itself is also cleared even when its two serving BSs differ:
    that coupling would be the ``h2`` self-gain of the device, which is not
    a propagation channel and is never read.  The same UE's UL<-DL entry
    stays (a real BS-to-BS path when the association is decoupled).
    """
    return build_couplings([(scenario, assoc)])[0]


def build_couplings(cases, overlap=None) -> np.ndarray:
    """The couplings of the ``(scenario, assoc)`` pairs of ``cases`` stacked
    ``(B, N+K, K+N)``, each bit for bit :func:`build_coupling` (and with an
    ``overlap`` model :func:`apply_overlap`): venue blocks copied to their
    members, own-cell entries cleared by member index, one overlap scaling."""
    first = cases[0][0]
    n, k = first.n_bs, first.n_ue
    if any(a.n_ue != k or a.n_bs != n or sc.n_ue != k or sc.n_bs != n for sc, a in cases):
        raise ModelError("association does not match scenario dimensions")
    b_ul, b_dl = (np.array([getattr(a, name) for _, a in cases]) for name in ("b_ul", "b_dl"))
    rows = np.empty((len(cases), n + k, k + n))
    for scenario in {id(sc): sc for sc, _ in cases}.values():
        members = [b for b, (sc, _) in enumerate(cases) if sc is scenario]
        rows[members, :n, :k] = scenario.h0                # UE j -> BS n
        rows[members, :n, k:] = scenario.h1                # BS m -> BS n
        rows[members, n:, :k] = scenario.h2                # UE j -> UE k
        rows[members, n:, k:] = scenario.h0.T              # BS m -> UE k
    member, ue, bs = np.arange(len(cases))[:, None], np.arange(k), np.arange(n)
    rows[member, b_ul, ue] = 0.0                      # UL j at its own BS
    rows[:, bs, k + bs] = 0.0                         # DL of BS n at BS n
    dl_rows = rows[:, n:]
    np.copyto(dl_rows[..., :k], 0.0, where=b_dl[:, :, None] == b_ul[:, None, :])
    dl_rows[member, ue, k + b_dl] = 0.0               # DL k from its own BS
    dl_rows[:, ue, ue] = 0.0  # own-UL into own-DL: h2 self-gain, never read
    if overlap is not None:
        _scale_cross(rows, overlap, b_ul, b_dl)
    return rows


def pairwise_overlap_factors(load_ul, load_dl):
    """Cell-pairwise cross-direction overlap factors from per-cell loads.

    The factor of receiver cell i in direction X against cell j in the
    opposite direction Y is ``max{0, (v_j^Y + v_i^X - 1)/v_i^X}``, the
    fraction of cell i's direction-X band that cell j's direction-Y band must
    overlap.  A zero load in a denominator yields factor 0 and a warning.
    Same-direction interference is not scaled (factor 1).

    Returns ``(ul_dl, dl_ul)``: the N x N factors of uplink receivers against
    downlink interferers, and of downlink receivers against uplink
    interferers.
    """
    load_ul = np.asarray(load_ul, dtype=float)
    load_dl = np.asarray(load_dl, dtype=float)

    def cross(rx_name, rx, tx):
        vi, vj = rx[:, None], tx[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            fac = (vj + vi - 1.0) / vi
        if np.any(rx == 0):
            log.warning("zero historical %s load in %d cell(s); overlap factor set to 0",
                        rx_name, int(np.sum(rx == 0)))
        return np.where(vi > 0, np.clip(fac, 0.0, 1.0), 0.0)

    return cross("ul", load_ul, load_dl), cross("dl", load_dl, load_ul)


def apply_overlap(rows: np.ndarray, overlap: OverlapModel, assoc: Association) -> np.ndarray:
    """A copy of the coupling ``rows`` with its cross-direction entries scaled.

    Either scheme's N x N directional factors ``O`` (``OverlapModel.factors``)
    are lifted to links via ``A_x^T O A_y`` and multiply elementwise.  The
    UL<-DL block of ``rows`` is indexed by receiving and sending cell, so the
    N x N factors scale it as they stand.  Same-direction blocks are
    unchanged (factor 1).
    """
    rows = np.array(rows)
    _scale_cross(rows[None], overlap, assoc.b_ul[None], assoc.b_dl[None])
    return rows


def _scale_cross(rows, overlap: OverlapModel, b_ul, b_dl):
    """:func:`apply_overlap` in place on the stacked ``rows`` of the maps ``b_ul``, ``b_dl``."""
    n, k = rows.shape[1] - b_ul.shape[1], b_ul.shape[1]
    if overlap.load_ul.shape[0] != n or overlap.load_dl.shape[0] != n:
        raise ModelError("overlap loads must have one entry per BS")
    ul_dl, dl_ul = overlap.factors
    # DL<-UL lifted by A_dl^T O A_ul: entry (k, j) is O[b_dl[k], b_ul[j]]
    rows[:, :n, k:] *= ul_dl
    rows[:, n:, :k] *= dl_ul[b_dl[:, :, None], b_ul[:, None, :]]
