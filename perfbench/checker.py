"""Independent solution checker.

Recomputes the constraint values and the per-link QoS levels of an
allocation from the raw problem data (channel gains, noise, demands,
budgets, serving-BS index vectors and the historical loads of the overlap
model) with plain numpy, following the paper's formulas.  It never calls
``flexlink.interference`` or ``flexlink.model`` for the numbers, so a fault
in the program's coupling or constraint code cannot hide itself.

At the solver's fixed point the allocation is a conditional eigenvector of
the demand maps, so every per-link QoS level equals ``lambda`` (every UL
level in cell-specific mode, where a cell's downlinks share one PSD).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MATCH_RTOL = 1e-9       # recomputed g1, g2 and lambda against the solver's values
CONSTRAINT_SLACK = 1e-6  # g1, g2 <= 1 + slack and max(g1, g2) >= 1 - slack
QOS_SPREAD = 1e-3       # max/min - 1 over the per-link QoS levels
MONOTONE_RTOL = 1e-9    # lambda(theta_next) >= lambda(theta) * (1 - rtol)


@dataclass(frozen=True)
class RawProblem:
    """Everything the checker reads, as plain arrays.

    ``h0`` is N x K (BS to UE), ``h1`` N x N (BS to BS), ``h2`` K x K
    (UE to UE); ``demands`` has the K uplinks first; ``ue_budget_w`` and
    ``bs_budget_w`` are the whole-band power budgets already scaled by theta.
    ``overlap`` is ``None`` (full overlap) or ``(scheme, load_ul, load_dl)``
    with scheme ``"cell_pairwise"`` or ``"cell_specific"``.
    """

    h0: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    noise_psd: float
    demands: np.ndarray
    rb_count: int
    rb_bandwidth: float
    ue_budget_w: np.ndarray
    bs_budget_w: np.ndarray
    b_ul: np.ndarray
    b_dl: np.ndarray
    overlap: tuple | None = None


@dataclass(frozen=True)
class Recomputed:
    g1: float
    g2: float
    qos: np.ndarray


def overlap_factors(raw: RawProblem):
    """Link-level factors of the two cross-direction blocks.

    Returns ``(ul_dl, dl_ul)``: entry ``[k, j]`` of ``ul_dl`` scales the
    interference of downlink ``j`` on uplink ``k``; ``dl_ul[k, j]`` that of
    uplink ``j`` on downlink ``k``.  Pairwise: receiver cell ``i`` in
    direction X, interfering cell ``j`` in direction Y,
    ``max{0, (v_j^Y + v_i^X - 1) / v_i^X}`` (0 where ``v_i^X = 0``).
    Cell-specific: the product of the two cells' own-direction loads.
    """
    k = raw.b_ul.shape[0]
    if raw.overlap is None:
        return np.ones((k, k)), np.ones((k, k))
    scheme, load_ul, load_dl = raw.overlap
    v_rx_ul = np.asarray(load_ul, dtype=float)[raw.b_ul][:, None]
    v_tx_dl = np.asarray(load_dl, dtype=float)[raw.b_dl][None, :]
    v_rx_dl = np.asarray(load_dl, dtype=float)[raw.b_dl][:, None]
    v_tx_ul = np.asarray(load_ul, dtype=float)[raw.b_ul][None, :]
    if scheme == "cell_specific":
        return v_rx_ul * v_tx_dl, v_rx_dl * v_tx_ul
    if scheme != "cell_pairwise":
        raise ValueError(f"unknown overlap scheme {scheme!r}")

    def pairwise(v_rx, v_tx):
        safe = np.where(v_rx > 0, v_rx, 1.0)
        fac = np.maximum(0.0, (v_tx + v_rx - 1.0) / safe)
        return np.where(v_rx > 0, np.minimum(fac, 1.0), 0.0)

    return pairwise(v_rx_ul, v_tx_dl), pairwise(v_rx_dl, v_tx_ul)


def recompute(raw: RawProblem, w, p) -> Recomputed:
    """Per-link QoS levels and the two constraint functionals of ``(w, p)``.

    Interference at a receiver comes from every link not served by the
    receiver's own BS (own-cell scheduling is orthogonal); a UE's own uplink
    never interferes with its own downlink.
    """
    w = np.asarray(w, dtype=float)
    p = np.asarray(p, dtype=float)
    k = raw.b_ul.shape[0]
    ue = np.arange(k)
    b_ul, b_dl = raw.b_ul, raw.b_dl
    tx_ul = p[:k] * w[:k]   # PSD x occupancy of each uplink transmitter (UE j)
    tx_dl = p[k:] * w[k:]   # same for each downlink transmitter (BS b_dl[j])
    f_ul_dl, f_dl_ul = overlap_factors(raw)

    # uplink k is received at BS b_ul[k]
    g_ul_ul = raw.h0[b_ul, :] * (b_ul[:, None] != b_ul[None, :])
    g_ul_dl = raw.h1[b_ul[:, None], b_dl[None, :]] * (b_ul[:, None] != b_dl[None, :]) * f_ul_dl
    i_ul = g_ul_ul @ tx_ul + g_ul_dl @ tx_dl
    # downlink k is received at UE k
    g_dl_ul = raw.h2 * (b_dl[:, None] != b_ul[None, :]) * f_dl_ul
    g_dl_ul[ue, ue] = 0.0
    g_dl_dl = raw.h0[b_dl, :].T * (b_dl[:, None] != b_dl[None, :])
    i_dl = g_dl_ul @ tx_ul + g_dl_dl @ tx_dl

    signal = np.concatenate([raw.h0[b_ul, ue] * p[:k], raw.h0[b_dl, ue] * p[k:]])
    sinr = signal / (np.concatenate([i_ul, i_dl]) + raw.noise_psd)
    rate = raw.rb_bandwidth * np.log2(1.0 + sinr)
    qos = raw.rb_count * w * rate / raw.demands

    n = raw.h0.shape[0]
    cell_load = np.bincount(b_ul, weights=w[:k], minlength=n) + \
        np.bincount(b_dl, weights=w[k:], minlength=n)
    ue_use = raw.rb_count * tx_ul / raw.ue_budget_w
    bs_use = raw.rb_count * np.bincount(b_dl, weights=tx_dl, minlength=n) / raw.bs_budget_w
    return Recomputed(g1=float(np.max(cell_load)),
                      g2=float(max(np.max(ue_use), np.max(bs_use))),
                      qos=qos)


def rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def check_solution(raw: RawProblem, w, p, g1, g2, lam, cell_specific: bool) -> list[str]:
    """Check one solver output; returns the failed checks (empty when valid)."""
    r = recompute(raw, w, p)
    failures = []
    if not np.all(np.isfinite(r.qos)) or np.min(r.qos) <= 0:
        return ["qos_not_positive_finite"]
    for name, mine, theirs in (("g1", r.g1, g1), ("g2", r.g2, g2),
                               ("lambda", float(np.min(r.qos)), lam)):
        if rel_diff(mine, theirs) > MATCH_RTOL:
            failures.append(f"{name}_mismatch recomputed={mine!r} reported={theirs!r}")
    if max(r.g1, r.g2) > 1.0 + CONSTRAINT_SLACK:
        failures.append(f"constraint_violated g1={r.g1!r} g2={r.g2!r}")
    if max(r.g1, r.g2) < 1.0 - CONSTRAINT_SLACK:
        failures.append(f"no_constraint_tight g1={r.g1!r} g2={r.g2!r}")
    levels = r.qos[: raw.b_ul.shape[0]] if cell_specific else r.qos
    spread = float(np.max(levels) / np.min(levels) - 1.0)
    if spread > QOS_SPREAD:
        failures.append(f"qos_spread {spread:.3e} > {QOS_SPREAD:g}")
    return failures


def check_nondecreasing(thetas, lams) -> list[int]:
    """Indices ``i`` whose ``lams[i]`` falls below ``lams[i-1]`` although
    ``thetas[i] > thetas[i-1]`` (a larger budget never lowers the optimum)."""
    bad = []
    for i in range(1, len(lams)):
        if thetas[i] > thetas[i - 1] and lams[i] < lams[i - 1] * (1.0 - MONOTONE_RTOL):
            bad.append(i)
    return bad
