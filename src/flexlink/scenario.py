"""Synthetic scenario generation and the uniform historical-load overlap.

Macros sit on a regular grid, picos on an annulus near the macro cell edge,
user terminals uniformly over the playground.  Pathloss follows standard
log-distance models (3GPP-style urban macro/pico curves for BS-UE links, a
2 GHz free-space anchor with exponent 3.0 for BS-BS and UE-UE links) with
optional unit-mean Rayleigh power fading.  Everything is deterministic given
the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Integral, Real

import numpy as np

from .errors import ConfigError
from .model import (
    MACRO,
    PICO,
    BaseStation,
    OverlapModel,
    Scenario,
    UserTerminal,
)
from .units import db_to_linear, dbm_to_watt

# Service classes: (downlink, uplink) demands in Mbit/s.
SERVICE_CLASSES_DL_MBPS = (300.0, 25.0, 50.0, 10.0, 0.01)
SERVICE_CLASSES_UL_MBPS = (50.0, 50.0, 25.0, 10.0, 0.01)

# log-distance pathloss at 2 GHz: free-space at the 1 m anchor plus exponent 3
FS_1M_DB = 38.46
SITE_EXPONENT = 3.0


@dataclass(frozen=True)
class ScenarioConfig:
    """Geometry and radio parameters of the synthetic playground.

    The playground is ``macro_cols * isd_m`` by ``macro_rows * isd_m`` meters
    with one macro at the center of each grid cell.  Each pico is attached to
    a macro (round-robin) at a radius of 0.7-0.9 macro cell radii.
    """

    macro_rows: int = 2
    macro_cols: int = 3
    n_pico: int = 3
    n_ue: int = 30
    isd_m: float = 500.0
    rb_count: int = 25
    rb_bandwidth_hz: float = 180e3
    macro_power_dbm: float = 43.0
    pico_power_dbm: float = 30.0
    ue_power_dbm: float = 22.0
    noise_psd_dbm: float = -121.45
    service_mix: tuple = (0.2, 0.2, 0.2, 0.2, 0.2)
    rayleigh_fading: bool = True
    pico_ring: tuple = (0.7, 0.9)
    min_dist_macro_ue_m: float = 35.0
    min_dist_pico_ue_m: float = 10.0
    min_dist_site_m: float = 10.0

    def __post_init__(self):
        # every field has the type of its default; a tuple also its length
        for f in fields(self):
            value = getattr(self, f.name)
            kind = type(f.default)
            if kind is tuple:
                ok = (isinstance(value, tuple) and len(value) == len(f.default)
                      and all(map(_finite, value)))
                what = f"{len(f.default)} finite numbers"
            elif kind is float:
                ok, what = _finite(value), "a finite number"
            elif kind is int:
                ok, what = isinstance(value, Integral) and type(value) is not bool, "an integer"
            else:
                ok, what = isinstance(value, bool), "true or false"
            if not ok:
                raise ConfigError(f"{f.name} must be {what}, got {value!r}")
        if self.macro_rows < 1 or self.macro_cols < 1:
            raise ConfigError("need at least one macro cell")
        if self.n_pico < 0 or self.n_ue < 1:
            raise ConfigError("invalid pico/UE counts")
        if abs(sum(self.service_mix) - 1.0) > 1e-9 or min(self.service_mix) < 0:
            raise ConfigError("service_mix must be a probability vector")
        if not (0 < self.pico_ring[0] <= self.pico_ring[1] <= 1.0):
            raise ConfigError("pico_ring must satisfy 0 < lo <= hi <= 1")
        for name in ("isd_m", "min_dist_macro_ue_m", "min_dist_pico_ue_m", "min_dist_site_m"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")

    @property
    def playground(self) -> tuple:
        return (self.macro_cols * self.isd_m, self.macro_rows * self.isd_m)


def _finite(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)


def macro_ue_pathloss_db(d_m, min_dist_m=35.0):
    d_km = np.maximum(np.asarray(d_m, dtype=float), min_dist_m) / 1000.0
    return 128.1 + 37.6 * np.log10(d_km)


def pico_ue_pathloss_db(d_m, min_dist_m=10.0):
    d_km = np.maximum(np.asarray(d_m, dtype=float), min_dist_m) / 1000.0
    return 140.7 + 36.7 * np.log10(d_km)


def site_pathloss_db(d_m, min_dist_m=10.0):
    """BS-BS and UE-UE links: free-space 1 m anchor plus exponent 3."""
    d = np.maximum(np.asarray(d_m, dtype=float), min_dist_m)
    return FS_1M_DB + 10.0 * SITE_EXPONENT * np.log10(d)


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)


def _symmetric_fading(rng, n):
    f = rng.exponential(1.0, size=(n, n))
    return np.triu(f, 1) + np.triu(f, 1).T + np.diag(np.diag(f))


def generate(config: ScenarioConfig, seed: int) -> Scenario:
    """Draw one scenario. Same (config, seed) always yields the same object."""
    rng = np.random.default_rng(seed)
    width, height = config.playground
    cell_radius = config.isd_m / 2.0

    macro_pos = [
        ((c + 0.5) * config.isd_m, (r + 0.5) * config.isd_m)
        for r in range(config.macro_rows)
        for c in range(config.macro_cols)
    ]
    # attach picos to every other macro so each macro cell is pico-adjacent
    stride = 2 if config.n_pico <= len(macro_pos) // 2 else 1
    pico_pos = []
    for i in range(config.n_pico):
        cx, cy = macro_pos[(stride * i + 1) % len(macro_pos)]
        radius = cell_radius * rng.uniform(*config.pico_ring)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        pico_pos.append((float(np.clip(cx + radius * np.cos(angle), 0.0, width)),
                         float(np.clip(cy + radius * np.sin(angle), 0.0, height))))

    bs_list = [BaseStation(position=p, kind=MACRO,
                           max_power_w=float(dbm_to_watt(config.macro_power_dbm)))
               for p in macro_pos]
    bs_list += [BaseStation(position=p, kind=PICO,
                            max_power_w=float(dbm_to_watt(config.pico_power_dbm)))
                for p in pico_pos]

    ue_xy = rng.uniform([0.0, 0.0], [width, height], size=(config.n_ue, 2))
    classes = rng.choice(len(config.service_mix), size=config.n_ue, p=config.service_mix)
    ue_list = [UserTerminal(position=(float(x), float(y)), service_class=int(c),
                            max_power_w=float(dbm_to_watt(config.ue_power_dbm)))
               for (x, y), c in zip(ue_xy, classes)]

    bs_xy = np.array([b.position for b in bs_list])
    is_macro = np.array([b.kind == MACRO for b in bs_list])

    d_bs_ue = _distances(bs_xy, ue_xy)
    pl0 = np.where(is_macro[:, None],
                   macro_ue_pathloss_db(d_bs_ue, config.min_dist_macro_ue_m),
                   pico_ue_pathloss_db(d_bs_ue, config.min_dist_pico_ue_m))
    pl1 = site_pathloss_db(_distances(bs_xy, bs_xy), config.min_dist_site_m)
    pl2 = site_pathloss_db(_distances(ue_xy, ue_xy), config.min_dist_site_m)

    h0 = db_to_linear(-pl0)
    h1 = db_to_linear(-(pl1 + pl1.T) / 2.0)
    h2 = db_to_linear(-(pl2 + pl2.T) / 2.0)
    if config.rayleigh_fading:
        h0 = h0 * rng.exponential(1.0, size=h0.shape)
        h1 = h1 * _symmetric_fading(rng, h1.shape[0])
        h2 = h2 * _symmetric_fading(rng, h2.shape[0])
    h0 = np.minimum(h0, 1.0)
    # self-gain entries are stored but never read (masked as intra-cell)
    np.fill_diagonal(h1, 1.0)
    np.fill_diagonal(h2, 1.0)
    h1 = np.minimum(h1, 1.0)
    h2 = np.minimum(h2, 1.0)

    demands = np.concatenate([
        np.array([SERVICE_CLASSES_UL_MBPS[c] for c in classes]) * 1e6,
        np.array([SERVICE_CLASSES_DL_MBPS[c] for c in classes]) * 1e6,
    ])

    return Scenario(
        bs_list=bs_list, ue_list=ue_list, h0=h0, h1=h1, h2=h2, demands=demands,
        rb_count=config.rb_count, rb_bandwidth=config.rb_bandwidth_hz,
        noise_psd=float(dbm_to_watt(config.noise_psd_dbm)),
    )


def uniform_overlap(n_bs: int, load_ul: float, load_dl: float,
                    scheme: str = "cell_pairwise") -> OverlapModel:
    """Overlap model with the same historical loads in every cell."""
    return OverlapModel(scheme=scheme,
                        load_ul=np.full(n_bs, load_ul),
                        load_dl=np.full(n_bs, load_dl))
