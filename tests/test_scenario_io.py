"""Scenario generation, config validation, JSON persistence."""

import json

import numpy as np
import pytest

from flexlink import io
from flexlink.association import Policy
from flexlink.errors import ConfigError
from flexlink.experiments import MC_OPTS, STUDY_CONFIG
from flexlink.optimizer import optimize
from flexlink.scenario import (
    ScenarioConfig,
    generate,
    macro_ue_pathloss_db,
    pico_ue_pathloss_db,
    site_pathloss_db,
    uniform_overlap,
)

from .oracles import generate_ref


def test_same_seed_same_scenario():
    cfg = ScenarioConfig(n_ue=10)
    a = generate(cfg, seed=123)
    b = generate(cfg, seed=123)
    assert np.array_equal(a.h0, b.h0)
    assert np.array_equal(a.h1, b.h1)
    assert np.array_equal(a.h2, b.h2)
    assert np.array_equal(a.demands, b.demands)
    assert [u.position for u in a.ue_list] == [u.position for u in b.ue_list]
    c = generate(cfg, seed=124)
    assert not np.array_equal(a.h0, c.h0)


def test_pathloss_distance_doubling():
    assert macro_ue_pathloss_db(500.0) - macro_ue_pathloss_db(250.0) == \
        pytest.approx(37.6 * np.log10(2.0), abs=1e-9)
    assert pico_ue_pathloss_db(200.0) - pico_ue_pathloss_db(100.0) == \
        pytest.approx(36.7 * np.log10(2.0), abs=1e-9)
    assert site_pathloss_db(400.0) - site_pathloss_db(200.0) == \
        pytest.approx(30.0 * np.log10(2.0), abs=1e-9)
    # minimum-distance clamps
    assert macro_ue_pathloss_db(1.0) == macro_ue_pathloss_db(35.0)
    assert pico_ue_pathloss_db(1.0) == pico_ue_pathloss_db(10.0)


def test_generated_scenario_satisfies_model_invariants():
    for seed in range(4):
        sc = generate(ScenarioConfig(n_ue=8), seed=seed)
        for h in (sc.h0, sc.h1, sc.h2):
            assert np.all(h > 0) and np.all(h <= 1.0)
        assert np.array_equal(sc.h1, sc.h1.T)
        assert np.array_equal(sc.h2, sc.h2.T)
        assert np.all(sc.demands > 0)


VENUE = dict(macro_rows=3, macro_cols=4, n_pico=6)


@pytest.mark.parametrize("config, seed", [(STUDY_CONFIG, s) for s in range(10)] + [
    (ScenarioConfig(n_ue=1, n_pico=0), 4),
    (ScenarioConfig(n_ue=12, rayleigh_fading=False), 5),
    (ScenarioConfig(n_ue=20, n_pico=5), 6),  # more picos than half the macros: stride 1
    (ScenarioConfig(n_ue=300, **VENUE), 0),
    (ScenarioConfig(n_ue=1000, **VENUE), 1),
])
def test_generate_equals_its_reference_bit_for_bit(config, seed):
    """``generate`` builds each dense array once in place; every output is
    the reference's, bit for bit."""
    sc, ref = generate(config, seed), generate_ref(config, seed)
    for name in ("h0", "h1", "h2", "demands"):
        assert np.array_equal(getattr(sc, name), getattr(ref, name)), name
    assert sc.bs_list == ref.bs_list and sc.ue_list == ref.ue_list
    assert (sc.noise_psd, sc.rb_count, sc.rb_bandwidth) == \
        (ref.noise_psd, ref.rb_count, ref.rb_bandwidth)


def test_lone_messaging_ue_is_comfortably_feasible():
    # class 4 (index 4): 0.01 Mbit/s in both directions
    cfg = ScenarioConfig(n_ue=1, service_mix=(0.0, 0.0, 0.0, 0.0, 1.0), n_pico=0)
    sc = generate(cfg, seed=5)
    sol = optimize(sc, Policy("coud"), MC_OPTS)
    assert sol.lam > 100.0


def test_scenario_json_round_trip(tmp_path):
    cfg = ScenarioConfig(n_ue=6)
    sc = generate(cfg, seed=11)
    path = tmp_path / "scenario.json"
    io.write_json(io.scenario_to_dict(sc, meta={"seed": 11}), path)
    back = io.read_scenario(path)[1]
    assert np.allclose(back.h0, sc.h0, rtol=1e-12)
    assert np.allclose(back.h1, sc.h1, rtol=1e-12)
    assert np.allclose(back.h2, sc.h2, rtol=1e-12)
    assert np.allclose(back.demands, sc.demands, rtol=1e-12)
    assert back.rb_count == sc.rb_count
    assert back.noise_psd == pytest.approx(sc.noise_psd, rel=1e-12)
    assert [b.kind for b in back.bs_list] == [b.kind for b in sc.bs_list]


def test_config_round_trip_and_validation(tmp_path):
    doc = {"macro_rows": 1, "macro_cols": 2, "n_pico": 1, "n_ue": 5,
           "service_mix": [0.2, 0.2, 0.2, 0.2, 0.2]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    cfg = io.load_config(path)
    assert cfg.n_ue == 5 and cfg.macro_cols == 2

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"macro_rows": 1, "macro_cols": 2, "n_pico": 1}))
    with pytest.raises(ConfigError, match="n_ue"):
        io.load_config(bad)

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps(doc | {"bogus_key": 1}))
    with pytest.raises(ConfigError, match="bogus_key"):
        io.load_config(unknown)


def test_config_validation_rules():
    with pytest.raises(ConfigError):
        ScenarioConfig(service_mix=(0.5, 0.5, 0.5, 0.0, 0.0))
    with pytest.raises(ConfigError):
        ScenarioConfig(pico_ring=(0.9, 0.7))
    with pytest.raises(ConfigError):
        ScenarioConfig(macro_rows=0)
    from flexlink.errors import ModelError

    for scheme in ("bogus", "none"):  # full overlap is None, not a scheme
        with pytest.raises(ModelError):
            uniform_overlap(2, 0.5, 0.5, scheme=scheme)


def test_canonical_hash_stability():
    doc = {"b": 1.5, "a": [1, 2]}
    assert io.canonical_hash(doc) == io.canonical_hash({"a": [1, 2], "b": 1.5})
    assert io.canonical_hash(doc) != io.canonical_hash({"a": [1, 2], "b": 1.6})


def test_scenario_missing_key_is_config_error_naming_it():
    doc = io.scenario_to_dict(generate(ScenarioConfig(n_ue=4), seed=3))
    for key in ("base_stations", "pathloss_db", "noise_psd_dbm"):
        broken = {k: v for k, v in doc.items() if k != key}
        with pytest.raises(ConfigError, match=key):
            io.scenario_from_dict(broken)
    nested = json.loads(json.dumps(doc))
    del nested["user_terminals"][0]["demand_dl_mbps"]
    with pytest.raises(ConfigError, match="demand_dl_mbps"):
        io.scenario_from_dict(nested)


@pytest.mark.parametrize("field", ["demands", "noise_psd", "rb_bandwidth"])
def test_scenario_rejects_non_finite_values(field):
    import dataclasses

    from flexlink.errors import ModelError

    sc = generate(ScenarioConfig(n_ue=4), seed=3)
    bad = np.full_like(sc.demands, np.inf) if field == "demands" else np.inf
    with pytest.raises(ModelError, match="finite"):
        dataclasses.replace(sc, **{field: bad})
