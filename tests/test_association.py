"""Association policies, RSRP and the offset sweep."""

import dataclasses

import numpy as np
import pytest

from flexlink.association import (
    PICO,
    Policy,
    associate,
    associate_all,
    equivalent,
    policy_sweep,
    rsrp,
)
from flexlink.errors import ConfigError
from flexlink.experiments import STUDY_CONFIG
from flexlink.model import Association
from flexlink.scenario import ScenarioConfig, generate
from flexlink.units import dbm_to_watt

from .helpers import make_scenario


def _hetnet(h0):
    n = h0.shape[0]
    kinds = ["macro"] + ["pico"] * (n - 1)
    powers = [dbm_to_watt(43.0)] + [dbm_to_watt(30.0)] * (n - 1)
    k = h0.shape[1]
    sc = make_scenario(h0, np.eye(n) * 0.5 + 0.5, np.eye(k) * 0.5 + 0.5,
                       np.full(2 * k, 1e6), kinds=kinds)
    # rebuild with per-BS powers
    from flexlink.model import BaseStation, Scenario

    bs = [BaseStation(position=(100.0 * i, 0.0), kind=kinds[i], max_power_w=float(powers[i]))
          for i in range(n)]
    return Scenario(bs_list=bs, ue_list=sc.ue_list, h0=sc.h0, h1=sc.h1, h2=sc.h2,
                    demands=sc.demands, rb_count=sc.rb_count,
                    rb_bandwidth=sc.rb_bandwidth, noise_psd=sc.noise_psd)


def test_rsrp_power_gap_with_equal_gains():
    sc = _hetnet(np.array([[1e-8, 1e-8], [1e-8, 1e-8]]))
    r = rsrp(sc)
    gap = r[0] - r[1]
    assert np.allclose(gap, 13.0)


def test_rsrp_gain_doubling_adds_3db():
    sc1 = _hetnet(np.array([[1e-8]]))
    sc2 = _hetnet(np.array([[2e-8]]))
    assert rsrp(sc2)[0, 0] - rsrp(sc1)[0, 0] == pytest.approx(3.0103, abs=1e-4)


def test_single_bs_always_wins():
    sc = _hetnet(np.array([[1e-9, 5e-8, 2e-7]]))
    assoc = associate(Policy("coud"), sc)
    assert assoc.b_ul.tolist() == [0, 0, 0]
    assert assoc.b_dl.tolist() == [0, 0, 0]


def test_deud_o_zero_offset_equals_coud():
    sc = generate(ScenarioConfig(macro_rows=1, macro_cols=2, n_pico=1, n_ue=8), seed=3)
    a = associate(Policy("coud"), sc)
    b = associate(Policy("deud_o", offset_db=0.0), sc)
    assert np.array_equal(a.b_ul, b.b_ul)
    assert np.array_equal(a.b_dl, b.b_dl)


def test_deud_o_13db_equals_deud_p_at_13db_power_gap():
    # the default powers: 43 dBm macros, 30 dBm picos
    for seed in range(5):
        sc = generate(ScenarioConfig(macro_rows=1, macro_cols=2, n_pico=2, n_ue=10), seed=seed)
        o = associate(Policy("deud_o", offset_db=13.0), sc)
        p = associate(Policy("deud_p"), sc)
        assert np.array_equal(o.b_ul, p.b_ul)
        assert np.array_equal(o.b_dl, p.b_dl)


def test_deud_p_equivalent_offset_is_the_venue_power_gap():
    """With 33 dBm picos the gap is 10 dB: deud-o:10 is deud-p, deud-o:13 is
    not, and its uplink map differs from deud-p's on every seed here."""
    config = dataclasses.replace(STUDY_CONFIG, pico_power_dbm=33.0)
    for seed in range(5):
        sc = generate(config, seed=seed)
        assert [equivalent(Policy("deud_o", offset_db=o), sc) for o in (0.0, 10.0, 13.0)] == \
            ["coud", "deud_p", None]
        assert equivalent(Policy("deud_p"), sc) is None
        o10, o13, p = (associate(Policy.parse(t), sc)
                       for t in ("deud-o:10", "deud-o:13", "deud-p"))
        assert np.array_equal(o10.b_ul, p.b_ul)
        assert not np.array_equal(o13.b_ul, p.b_ul)
    # without one power per kind there is no gap, so no offset is deud-p
    sc = generate(ScenarioConfig(macro_rows=1, macro_cols=2, n_pico=0, n_ue=4), seed=0)
    assert equivalent(Policy("deud_o", offset_db=13.0), sc) is None


def test_tie_breaks_to_lowest_index():
    sc = _hetnet(np.array([[1e-8], [1e-8]]))
    # pico is 13 dB down on RSRP; with a 13 dB offset the UL tie goes low
    assoc = associate(Policy("deud_o", offset_db=13.0), sc)
    assert assoc.b_ul[0] == 0
    same = make_scenario(np.array([[2e-8], [2e-8]]), np.eye(2) * 0.5 + 0.5,
                         np.array([[1.0]]), [1e6, 1e6])
    a = associate(Policy("coud"), same)
    assert a.b_dl[0] == 0


def test_rsrp_constant_shift_leaves_association_unchanged():
    sc = generate(ScenarioConfig(macro_rows=1, macro_cols=3, n_pico=0, n_ue=6), seed=9)
    base = associate(Policy("coud"), sc)
    r = rsrp(sc)
    shifted = np.argmax(r + 7.3, axis=0)
    assert np.array_equal(shifted, base.b_dl)


def test_deud_p_downlink_is_coud_downlink():
    for seed in range(4):
        sc = generate(ScenarioConfig(macro_rows=2, macro_cols=2, n_pico=2, n_ue=12), seed=seed)
        assert np.array_equal(associate(Policy("deud_p"), sc).b_dl,
                              associate(Policy("coud"), sc).b_dl)


@pytest.mark.parametrize("config, seed", [(STUDY_CONFIG, s) for s in range(6)]
                         + [(ScenarioConfig(n_ue=300), 1)],
                         ids=[f"study-{s}" for s in range(6)] + ["k300-1"])
def test_associate_all_equals_one_policy_at_a_time(config, seed):
    sc = generate(config, seed)
    policies = [Policy("coud"), *policy_sweep(), Policy("deud_p"),
                Policy("deud_o", offset_db=60.0), Policy("deud_o", offset_db=2.5),
                Policy("coud")]
    batch = associate_all(policies, sc)
    rs, pico = rsrp(sc), np.array([bs.kind == PICO for bs in sc.bs_list])
    for pol, assoc in zip(policies, batch):
        alone = associate(pol, sc)
        assert (assoc.b_ul.tolist(), assoc.b_dl.tolist(), assoc.n_bs) == \
            (alone.b_ul.tolist(), alone.b_dl.tolist(), alone.n_bs)
        # the per-policy formula: the pico offset added to the reference signals
        ul = (np.argmax(rs + np.where(pico, pol.offset_db, 0.0)[:, None], axis=0)
              if pol.kind == "deud_o" else np.argmax(sc.h0 if pol.kind == "deud_p" else rs, axis=0))
        assert np.array_equal(assoc.b_ul, ul) and np.array_equal(assoc.b_dl, np.argmax(rs, axis=0))
    # equal maps share one object, and only equal maps do
    for a in batch:
        for b in batch:
            assert (a is b) == np.array_equal(a.b_ul, b.b_ul)
    if config is STUDY_CONFIG:
        by_label = dict(zip((pol.label for pol in policies), batch))
        assert by_label["deud-o:0"] is by_label["coud"]
        assert by_label["deud-o:13"] is by_label["deud-p"]


def test_associations_of_a_venue_share_one_downlink_map():
    """``associate_all`` checks and freezes the venue's downlink map once, so
    no ``Association`` copies it: every distinct one holds the same array."""
    batch = associate_all(policy_sweep() + [Policy("coud"), Policy("deud_p")],
                          generate(STUDY_CONFIG, 1))
    assert len({id(a) for a in batch}) > 1
    assert all(a.b_dl is batch[0].b_dl for a in batch)
    assert not batch[0].b_dl.flags.writeable


@pytest.mark.parametrize("seed", [1, 2])
def test_associations_of_a_venue_view_one_array(seed):
    """The distinct uplink maps of one ``associate_all`` are read-only rows of
    one array.  Each equals its ``Association`` built alone."""
    sc = generate(STUDY_CONFIG, seed)
    batch = associate_all(policy_sweep() + [Policy("coud"), Policy("deud_p")], sc)
    distinct = list({id(a): a for a in batch}.values())
    assert len(distinct) > 2
    for name in ("b_ul",):
        stacked = getattr(distinct[0], name).base  # the array every association's row views
        assert stacked is not None and not stacked.flags.writeable, name
        for a in distinct:
            view = getattr(a, name)
            assert view.base is stacked and np.shares_memory(view, stacked), name
            assert not view.flags.writeable, name
    for a in distinct:
        alone = Association(b_ul=a.b_ul.tolist(), b_dl=a.b_dl.tolist(), n_bs=sc.n_bs)
        for name in ("b_ul", "b_dl"):
            assert np.array_equal(getattr(alone, name), getattr(a, name)), name
            assert getattr(alone, name).dtype == getattr(a, name).dtype, name


def test_policy_sweep_contents():
    sweep = policy_sweep()
    assert len(sweep) == 27
    offsets = [p.offset_db for p in sweep]
    assert offsets[0] == 0.0
    assert 13.0 in offsets
    assert offsets == sorted(offsets)
    sc = generate(STUDY_CONFIG, 0)  # the default 13 dB power gap
    assert {p.offset_db: equivalent(p, sc) for p in sweep if equivalent(p, sc)} == \
        {0.0: "coud", 13.0: "deud_p"}


def test_policy_parse_and_label():
    assert Policy.parse("coud").kind == "coud"
    assert Policy.parse("deud-p").kind == "deud_p"
    p = Policy.parse("deud-o:21")
    assert p.kind == "deud_o" and p.offset_db == 21.0
    assert p.label == "deud-o:21"
    with pytest.raises(ConfigError):
        Policy.parse("nonsense")
    for bad in ("deud-o:abc", "deud-o:nan", "deud-o:-inf"):
        with pytest.raises(ConfigError):
            Policy.parse(bad)
