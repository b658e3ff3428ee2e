"""Serialization: scenario/solution JSON documents and plot-ready CSV.

Boundary-unit conventions: positions in meters, powers in dBm, channel gains
as dB pathloss, demands in Mbit/s.  Everything is converted to linear SI units
on load.  Every written artifact embeds the config hash, the seed and the
tool version, and canonical hashing uses sorted-key compact JSON.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json

import numpy as np

from . import __version__
from .errors import ConfigError, FlexlinkError
from .model import BaseStation, Scenario, UserTerminal
from .scenario import ScenarioConfig
from .units import dbm_to_watt, linear_to_db, watt_to_dbm

SCENARIO_SCHEMA_VERSION = 1
SOLUTION_SCHEMA_VERSION = 1

REQUIRED_CONFIG_KEYS = ("macro_rows", "macro_cols", "n_pico", "n_ue")


def canonical_hash(doc) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def read_json(path, what: str = "document") -> dict:
    """Parse a JSON file holding one object; a malformed file or another
    top-level value is a ``ConfigError`` naming ``what``."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{what} is not valid JSON: {exc}") from exc
    return as_object(doc, what)


@contextlib.contextmanager
def reading(what: str):
    """Read a ``what`` document: a missing key or a wrongly typed value met
    inside the block becomes a ``ConfigError`` naming ``what``.  The package's
    own errors pass through unchanged, so a well-formed document describing
    an invalid model keeps its ``ModelError``."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"missing required {what} key: {exc.args[0]}") from exc
    except FlexlinkError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {what}: {exc}") from exc


def as_object(value, what: str) -> dict:
    """``value`` if it is a JSON object, else a ``ConfigError`` naming ``what``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object")
    return value


def load_config(path) -> ScenarioConfig:
    """Read a generation config (JSON).  Unknown or missing keys are errors."""
    return config_from_dict(read_json(path, "config"))


def config_from_dict(raw: dict) -> ScenarioConfig:
    allowed = {f.name for f in dataclasses.fields(ScenarioConfig)}
    for key in REQUIRED_CONFIG_KEYS:
        if key not in raw:
            raise ConfigError(f"missing required config key: {key}")
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {key: tuple(v) if isinstance(v, list) else v for key, v in raw.items()}
    with reading("config"):
        return ScenarioConfig(**kwargs)


def config_to_dict(config: ScenarioConfig) -> dict:
    out = dataclasses.asdict(config)
    out["service_mix"] = list(config.service_mix)
    out["pico_ring"] = list(config.pico_ring)
    return out


def scenario_to_dict(scenario: Scenario, meta: dict | None = None) -> dict:
    k = scenario.n_ue
    doc = {
        "schema_version": SCENARIO_SCHEMA_VERSION,
        "rb_count": scenario.rb_count,
        "rb_bandwidth_hz": scenario.rb_bandwidth,
        "noise_psd_dbm": float(watt_to_dbm(scenario.noise_psd)),
        "base_stations": [
            {
                "id": i,
                "kind": b.kind,
                "position_m": list(b.position),
                "max_power_dbm": float(watt_to_dbm(b.max_power_w)),
            }
            for i, b in enumerate(scenario.bs_list)
        ],
        "user_terminals": [
            {
                "id": i,
                "position_m": list(u.position),
                "service_class": u.service_class,
                "max_power_dbm": float(watt_to_dbm(u.max_power_w)),
                "demand_ul_mbps": float(scenario.demands[i] / 1e6),
                "demand_dl_mbps": float(scenario.demands[k + i] / 1e6),
            }
            for i, u in enumerate(scenario.ue_list)
        ],
        "pathloss_db": {
            "bs_to_ue": (-linear_to_db(scenario.h0)).tolist(),
            "bs_to_bs": (-linear_to_db(scenario.h1)).tolist(),
            "ue_to_ue": (-linear_to_db(scenario.h2)).tolist(),
        },
        "meta": dict(meta or {}),
    }
    doc["meta"].setdefault("tool_version", __version__)
    return doc


def scenario_from_dict(doc: dict) -> Scenario:
    if doc.get("schema_version") != SCENARIO_SCHEMA_VERSION:
        raise ConfigError("unsupported scenario schema version")
    with reading("scenario"):
        return _scenario_from_doc(doc)


def _scenario_from_doc(doc: dict) -> Scenario:
    bs_list = [
        BaseStation(
            position=tuple(b["position_m"]),
            kind=b["kind"],
            max_power_w=float(dbm_to_watt(b["max_power_dbm"])),
        )
        for b in doc["base_stations"]
    ]
    ue_list = [
        UserTerminal(
            position=tuple(u["position_m"]),
            service_class=int(u["service_class"]),
            max_power_w=float(dbm_to_watt(u["max_power_dbm"])),
        )
        for u in doc["user_terminals"]
    ]
    demands = np.concatenate([
        np.array([u["demand_ul_mbps"] for u in doc["user_terminals"]]) * 1e6,
        np.array([u["demand_dl_mbps"] for u in doc["user_terminals"]]) * 1e6,
    ])
    pl = doc["pathloss_db"]
    to_gain = lambda m: 10.0 ** (-np.asarray(m, dtype=float) / 10.0)
    return Scenario(
        bs_list=bs_list,
        ue_list=ue_list,
        h0=to_gain(pl["bs_to_ue"]),
        h1=to_gain(pl["bs_to_bs"]),
        h2=to_gain(pl["ue_to_ue"]),
        demands=demands,
        rb_count=int(doc["rb_count"]),
        rb_bandwidth=float(doc["rb_bandwidth_hz"]),
        noise_psd=float(dbm_to_watt(doc["noise_psd_dbm"])),
    )


def save_scenario(scenario: Scenario, path, meta: dict | None = None) -> dict:
    doc = scenario_to_dict(scenario, meta=meta)
    write_json(doc, path)
    return doc


def load_scenario(path) -> Scenario:
    return scenario_from_dict(read_json(path, "scenario"))


def write_json(doc: dict, path):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def solution_to_dict(solution, assoc, scenario_doc: dict, meta: dict | None = None) -> dict:
    doc = {
        "schema_version": SOLUTION_SCHEMA_VERSION,
        "solution": solution.to_dict(),
        "association": assoc.to_dict(),
        "scenario": scenario_doc,
        "meta": dict(meta or {}),
    }
    doc["meta"].setdefault("tool_version", __version__)
    doc["meta"].setdefault("scenario_hash", canonical_hash(scenario_doc))
    return doc


def write_csv(path, header_cols, rows, meta: dict | None = None):
    """Plot-ready CSV with one leading ``# key=value`` comment line."""
    with open(path, "w") as fh:
        if meta:
            fh.write("# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
        fh.write(",".join(header_cols) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)
