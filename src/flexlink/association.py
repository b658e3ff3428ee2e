"""Link association policies: coupled, offset-decoupled and pathloss-decoupled.

Downlink association always follows the strongest reference signal (RSRP).
Uplink association may differ: ``deud_o`` adds a cell-selection offset to the
reference signals of pico cells in UL, ``deud_p`` picks the uplink server by
best channel gain (smallest pathloss): ``deud_o`` at the venue's macro-pico
power gap (``equivalent``).  Ties break to the lowest BS index so results
are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import MACRO, PICO, Association, Scenario
from .units import linear_to_db, watt_to_dbm

COUD = "coud"
DEUD_O = "deud_o"
DEUD_P = "deud_p"

# Pico UL cell-selection offsets swept in the policy study (dB).
SWEEP_OFFSETS_DB = (0,) + tuple(range(1, 52, 2))


@dataclass(frozen=True)
class Policy:
    kind: str
    offset_db: float = 0.0

    def __post_init__(self):
        if self.kind not in (COUD, DEUD_O, DEUD_P):
            raise ConfigError(f"unknown association policy: {self.kind!r}")
        if not math.isfinite(self.offset_db):
            raise ConfigError(f"policy offset must be finite, got {self.offset_db!r} dB")

    @property
    def label(self) -> str:
        if self.kind == DEUD_O:
            return f"deud-o:{self.offset_db:g}"
        return self.kind.replace("_", "-")

    @classmethod
    def parse(cls, text: str) -> "Policy":
        """Parse CLI syntax ``coud``, ``deud-p`` or ``deud-o:OFFSET``."""
        text = text.strip().lower().replace("_", "-")
        if text == "coud":
            return cls(COUD)
        if text == "deud-p":
            return cls(DEUD_P)
        if text.startswith("deud-o:"):
            try:
                offset_db = float(text.split(":", 1)[1])
            except ValueError as exc:
                raise ConfigError(f"bad offset in policy {text!r}") from exc
            return cls(DEUD_O, offset_db=offset_db)
        raise ConfigError(f"cannot parse policy {text!r}")


def rsrp(scenario: Scenario) -> np.ndarray:
    """Reference signal received power in dBm, one row per BS.

    The reference power is the per-RB share of the BS budget, ``q_max / W0``;
    under a uniform RB count the argmax over BSs is unaffected by this choice.
    """
    ref_dbm = watt_to_dbm(scenario.bs_max_powers() / scenario.rb_count)
    return ref_dbm[:, None] + linear_to_db(scenario.h0)


def associate_all(policies, scenario: Scenario) -> list[Association]:
    """Bind each policy to a scenario, producing serving maps for both directions.

    ``rsrp`` and the downlink map are computed once, and every offset's
    uplink map comes from one ``argmax`` over ``rs + offsets`` (the additions
    of one policy alone).  Policies with equal maps share one ``Association``.
    """
    rs = rsrp(scenario)
    b_dl = np.argmax(rs, axis=0)
    pico = np.array([bs.kind == PICO for bs in scenario.bs_list])
    offsets = np.array([[pol.offset_db] for pol in policies if pol.kind == DEUD_O])
    b_ul_o = iter(np.argmax(rs + np.where(pico, offsets, 0.0)[:, :, None], axis=1)
                  if offsets.size else ())
    # DEUD_P: the best uplink channel, i.e. the least attenuation
    maps = [b_dl if pol.kind == COUD else next(b_ul_o) if pol.kind == DEUD_O
            else np.argmax(scenario.h0, axis=0) for pol in policies]
    distinct = {m.tobytes(): m for m in maps}  # equal maps once, checked as one batch
    built = dict(zip(distinct, Association.batch(
        np.array([*distinct.values()]).reshape(len(distinct), scenario.n_ue), b_dl, scenario.n_bs)))
    return [built[m.tobytes()] for m in maps]


def associate(policy: Policy, scenario: Scenario) -> Association:
    """``associate_all`` of one policy."""
    return associate_all([policy], scenario)[0]


def equivalent(policy: Policy, scenario: Scenario):
    """The reference kind ``policy`` reduces to on ``scenario``, or None.
    ``deud_o`` at offset 0 is ``coud``; at the macro-pico transmit power gap
    (13 dB with the default powers; it exists when each kind has one power)
    the offset cancels the gap in every pico's RSRP, so it is ``deud_p``."""
    if policy.kind != DEUD_O:
        return None
    if policy.offset_db == 0:
        return COUD
    macro, pico = ({float(watt_to_dbm(b.max_power_w)) for b in scenario.bs_list if b.kind == kind}
                   for kind in (MACRO, PICO))
    gap = macro.pop() - pico.pop() if len(macro) == len(pico) == 1 else math.nan
    return DEUD_P if math.isclose(policy.offset_db, gap, abs_tol=1e-9) else None


def policy_sweep() -> list[Policy]:
    """The offset policy set: deud_o with pico UL offsets {0, 1, 3, ..., 51} dB."""
    return [Policy(DEUD_O, offset_db=float(o)) for o in SWEEP_OFFSETS_DB]
