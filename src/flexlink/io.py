"""Serialization, the one place a file format is written or read: the
scenario and solution JSON documents, the solve trace and plot-ready CSV.

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
import re
from numbers import Real

import numpy as np

from . import __version__
from .errors import ConfigError, FlexlinkError
from .interference import Problem
from .model import (OVERLAP_PAIRWISE, OVERLAP_SPECIFIC, Association, BaseStation, Scenario,
                    UserTerminal, _breach)
from .scenario import ScenarioConfig, uniform_overlap
from .units import dbm_to_watt, linear_to_db, watt_to_dbm

SCENARIO_SCHEMA_VERSION = 1
SOLUTION_SCHEMA_VERSION = 1

REQUIRED_CONFIG_KEYS = ("macro_rows", "macro_cols", "n_pico", "n_ue")

OVERLAP_CHOICES = {"none": None, "pairwise": OVERLAP_PAIRWISE,
                   "specific": OVERLAP_SPECIFIC}  # none: full overlap, no model


def canonical_hash(doc) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def read_json(path, what: str = "document") -> dict:
    """Parse a JSON file holding one object; a malformed file or another
    top-level value is a ``ConfigError`` naming ``what``."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # undecodable bytes too
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
    return {key: list(v) if isinstance(v, tuple) else v
            for key, v in dataclasses.asdict(config).items()}


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


def _check_version(doc: dict, what: str, version: int):
    got = doc.get("schema_version")
    if type(got) is not int or got != version:
        raise ConfigError(f"{what} key 'schema_version' must be {version}, got {json.dumps(got)}")


def _number(node: dict, key: str, integer: bool = False):
    """``node[key]`` if it is a number by ``ScenarioConfig``'s rule (finite as
    a float, and for ``integer`` an ``Integral``; never a ``bool``), else a
    ``TypeError`` naming the key (``reading`` turns it into a ``ConfigError``)."""
    value = node[key]
    what = _breach(value, integer)
    if what:
        raise TypeError(f"key {key!r} must be {what}, got {json.dumps(value)}")
    return value


def _numbers(node: dict, key: str, shape: tuple, finite: bool = True) -> np.ndarray:
    """``node[key]`` as a float array of ``shape`` whose entries pass ``_number``'s
    rule, else a ``TypeError`` naming the key.  Without ``finite``, NaN and
    infinity pass too: a BS index's value is the ``Association``'s to check."""
    array = np.array(node[key], dtype=object)
    if array.shape == shape and all(issubclass(kind, Real) and kind is not bool
                                    for kind in set(map(type, array.flat))):
        with contextlib.suppress(OverflowError):  # an integer too large for a float
            array = array.astype(float)
            if not finite or np.isfinite(array).all():
                return array
    raise TypeError(f"key {key!r} must be {' x '.join(map(str, shape))} "
                    f"{'finite ' if finite else ''}numbers")


def scenario_from_dict(doc: dict) -> Scenario:
    _check_version(doc, "scenario", SCENARIO_SCHEMA_VERSION)
    with reading("scenario"):
        bs_list = [
            BaseStation(
                position=tuple(_numbers(b, "position_m", (2,)).tolist()),
                kind=b["kind"],
                max_power_w=float(dbm_to_watt(_number(b, "max_power_dbm"))),
            )
            for b in doc["base_stations"]
        ]
        ue_list = [
            UserTerminal(
                position=tuple(_numbers(u, "position_m", (2,)).tolist()),
                service_class=_number(u, "service_class", integer=True),
                max_power_w=float(dbm_to_watt(_number(u, "max_power_dbm"))),
            )
            for u in doc["user_terminals"]
        ]
        demands = np.array([[_number(u, f"demand_{d}_mbps") for u in doc["user_terminals"]]
                            for d in ("ul", "dl")]).ravel() * 1e6
        pl, n, k = doc["pathloss_db"], len(bs_list), len(ue_list)
        to_gain = lambda key, shape: 10.0 ** (-_numbers(pl, key, shape) / 10.0)
        return Scenario(
            bs_list=bs_list,
            ue_list=ue_list,
            h0=to_gain("bs_to_ue", (n, k)),
            h1=to_gain("bs_to_bs", (n, n)),
            h2=to_gain("ue_to_ue", (k, k)),
            demands=demands,
            rb_count=_number(doc, "rb_count", integer=True),
            rb_bandwidth=float(_number(doc, "rb_bandwidth_hz")),
            noise_psd=float(dbm_to_watt(_number(doc, "noise_psd_dbm"))),
        )


def write_json(doc: dict, path):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_scenario(path):
    """The scenario document at ``path``, its scenario and its outputs' provenance."""
    doc = read_json(path, "scenario")
    meta = as_object(doc.get("meta", {}), "scenario key 'meta'")
    return doc, scenario_from_dict(doc), _provenance(meta, "scenario")


def _provenance(meta: dict, what: str) -> dict:
    """The ``seed`` and ``config_hash`` of a ``what`` document's ``meta``, which
    every output repeats: each absent, null or as ``generate`` writes it, else
    a ``ConfigError`` naming ``what`` and the key."""
    rules = {"seed": ("a non-negative integer", lambda v: not _breach(v, integer=True) and v >= 0),
             "config_hash": ("16 lowercase hex digits",
                             lambda v: isinstance(v, str) and re.fullmatch("[0-9a-f]{16}", v))}
    for key, (rule, ok) in rules.items():
        if meta.get(key) is not None and not ok(meta[key]):
            raise ConfigError(f"{what} meta key {key!r} must be {rule} or null, "
                              f"got {json.dumps(meta[key])}")
    return {key: meta.get(key) for key in rules}


def overlap_model(name: str, n_bs: int, *loads):
    """The ``OVERLAP_CHOICES`` model ``name`` with UL and DL ``loads`` in every cell."""
    scheme = OVERLAP_CHOICES[name]
    return None if scheme is None else uniform_overlap(n_bs, *loads, scheme=scheme)


def load_solution(path):
    """The problem, ``w``, ``p`` and outputs' provenance of the solution at ``path``."""
    doc = read_json(path, "solution")
    _check_version(doc, "solution", SOLUTION_SCHEMA_VERSION)
    with reading("solution"):
        scenario_doc, assoc_doc, solved = (as_object(doc[key], f"solution key {key!r}")
                                           for key in ("scenario", "association", "solution"))
        meta = as_object(doc.get("meta", {}), "solution key 'meta'")
        scenario = scenario_from_dict(scenario_doc)
        assoc = Association(*(_numbers(assoc_doc, key, (scenario.n_ue,), finite=False)
                              for key in ("b_ul", "b_dl")), n_bs=assoc_doc["n_bs"])
        n, links = scenario.n_links, {}
        for key in ("w", "p"):  # a malformed vector and a negative entry read alike
            with contextlib.suppress(TypeError):
                links[key] = _numbers(solved, key, (n,))
            if key not in links or np.any(links[key] < 0):
                raise ConfigError(f"solution key {key!r} must be a list of {n} "
                                  "non-negative numbers")
        overlap = meta.get("overlap", "none")
        if overlap not in OVERLAP_CHOICES:
            raise ConfigError(f"unknown overlap {overlap!r} in the solution meta")
        loads = [f"overlap_load_{d}" for d in ("ul", "dl")] if overlap != "none" else []
        if not all(key in meta for key in loads):
            raise ConfigError(f"the solution meta names overlap {overlap!r} but not its loads")
        problem = Problem.from_scenario(
            scenario, assoc, theta=_number(solved, "theta") if "theta" in solved else 1.0,
            overlap=overlap_model(overlap, scenario.n_bs, *(_number(meta, key) for key in loads)))
    return problem, links["w"], links["p"], {"scenario_hash": canonical_hash(scenario_doc),
                                              **_provenance(meta, "solution")}


def power_min_to_dict(result, meta: dict) -> dict:
    return {"p_min": result.p_min.tolist(), "lambda": result.lam,
            "psi_before": result.psi_before, "psi_after": result.psi_after,
            "saving_ratio": result.saving_ratio, "meta": {"tool_version": __version__, **meta}}


def solution_to_dict(solution, assoc, scenario_doc: dict, meta: dict) -> dict:
    """The solution document; its ``policy`` and ``theta`` are ``meta``'s."""
    solved = {"w": solution.w.tolist(), "p": solution.p.tolist(), "lambda": solution.lam,
              "lambda_solver": solution.lam_solver, "step": solution.step, "g1": solution.g1,
              "g2": solution.g2, "converged": solution.converged,
              "policy": meta["policy"], "theta": meta["theta"]}
    if solution.p_bar is not None:  # cell-specific mode only
        solved["p_bar"] = solution.p_bar.tolist()
    doc = {
        "schema_version": SOLUTION_SCHEMA_VERSION,
        "solution": solved,
        "association": {"b_ul": assoc.b_ul.tolist(), "b_dl": assoc.b_dl.tolist(),
                        "n_bs": assoc.n_bs},
        "scenario": scenario_doc,
        "meta": dict(meta),
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


def write_trace(trace, path, meta: dict | None = None):
    """A solve's ``SolveTrace`` as CSV: its ``COLUMNS``, ``boundary`` as 0/1."""
    write_csv(path, trace.COLUMNS, [row[:6] + (int(row[6]),) for row in trace.rows], meta=meta)


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)
