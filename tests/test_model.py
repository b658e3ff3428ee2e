"""Coupling matrix construction and overlap adjustment.

The raw cross gains ``v`` exist only in the dense reference
(``tests/oracles.py``); a ``Problem`` stores ``V~`` by receiver row and
transmitter column.
"""

import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flexlink.association import Policy, associate
from flexlink.errors import ModelError
from flexlink.experiments import STUDY_CONFIG
from flexlink.interference import Problem, interference_psd
from flexlink.model import (
    OVERLAP_PAIRWISE,
    OVERLAP_SPECIFIC,
    Association,
    OverlapModel,
    apply_overlap,
    build_coupling,
    build_couplings,
    pairwise_overlap_factors,
)
from flexlink.scenario import generate

from .helpers import make_scenario, two_cell_scenario, coud_assoc, random_scenario
from .oracles import dense_coupling, dense_overlap, v_tilde


def test_single_cell_coupling_is_interference_free():
    h0 = np.array([[2e-8]])
    sc = make_scenario(h0, np.array([[1.0]]), np.array([[1.0]]), [1e6, 2e6])
    assoc = Association(b_ul=[0], b_dl=[0], n_bs=1)
    problem = Problem.from_scenario(sc, assoc)
    assert np.all(v_tilde(problem) == 0.0)
    assert np.allclose(problem.d_diag, [2e-8, 2e-8])
    dense = dense_coupling(sc, assoc)
    assert dense.v.shape == (2, 2)
    assert np.all(dense.v > 0)


def test_two_cell_coud_blocks_match_hand_expansion():
    sc = two_cell_scenario()
    assoc = coud_assoc(sc)
    assert assoc.b_ul.tolist() == [0, 1] and assoc.b_dl.tolist() == [0, 1]
    problem = Problem.from_scenario(sc, assoc)
    h0, h1, h2 = sc.h0, sc.h1, sc.h2

    # receiver-block / transmitter-block entries written out by hand
    expected_v = np.array([
        [h0[0, 0], h0[0, 1], h1[0, 0], h1[0, 1]],   # UL of UE0 hears ...
        [h0[1, 0], h0[1, 1], h1[1, 0], h1[1, 1]],   # UL of UE1
        [h2[0, 0], h2[0, 1], h0[0, 0], h0[1, 0]],   # DL of UE0
        [h2[1, 0], h2[1, 1], h0[0, 1], h0[1, 1]],   # DL of UE1
    ])
    assert np.array_equal(dense_coupling(sc, assoc).v, expected_v)

    expected_vt = np.array([
        [0.0, h0[0, 1], 0.0, h1[0, 1]],
        [h0[1, 0], 0.0, h1[1, 0], 0.0],
        [0.0, h2[0, 1], 0.0, h0[1, 0]],
        [h2[1, 0], 0.0, h0[0, 1], 0.0],
    ])
    assert np.array_equal(v_tilde(problem), expected_vt)
    assert np.array_equal(problem.d_diag, [h0[0, 0], h0[1, 1], h0[0, 0], h0[1, 1]])


def test_decoupled_ue_keeps_bs_to_bs_entry_but_not_self_gain():
    sc = two_cell_scenario()
    # UE0: uplink at BS1, downlink at BS0; UE1 coupled at BS1
    assoc = Association(b_ul=[1, 1], b_dl=[0, 1], n_bs=2)
    vt = v_tilde(Problem.from_scenario(sc, assoc))
    # own DL (from BS0) interferes own UL (at BS1) through the BS-to-BS channel
    assert vt[0, 2] == sc.h1[1, 0]
    assert vt[0, 2] > 0
    # own UL never interferes own DL: the h2 self-gain is not a channel
    assert vt[2, 0] == 0.0


def test_coud_cross_blocks_zero_exactly_on_shared_bs():
    sc = random_scenario(3, n_ue=5, n_bs=3)
    rng = np.random.default_rng(5)
    b = rng.integers(0, 3, size=5)
    assoc = Association(b_ul=b, b_dl=b, n_bs=3)
    vt = v_tilde(Problem.from_scenario(sc, assoc))
    k = 5
    same = b[:, None] == b[None, :]
    assert np.array_equal(vt[:k, k:] == 0.0, same)
    assert np.array_equal(vt[k:, :k] == 0.0, same)


@pytest.mark.filterwarnings("error")  # a cast warning before the error fails too
@pytest.mark.parametrize("b_ul, b_dl", [([1.7, 0.2], [0, 0]), ([0, 1], [np.nan, 0]),
                                        ([0.0, 1.0], [np.inf, 1e300]), ([0, 2], [0, 0]),
                                        ([0, 1], [-1, 0])])
def test_association_rejects_non_integral_or_non_finite_indices(b_ul, b_dl):
    """Also integer indices outside [0, n_bs): one rule, named by the map."""
    with pytest.raises(ModelError, match="integer BS indices"):
        Association(b_ul=np.array(b_ul), b_dl=np.array(b_dl), n_bs=2)
    assert Association(b_ul=[1.0, 0.0], b_dl=[0, 1], n_bs=2).b_ul.tolist() == [1, 0]


def test_dimension_mismatch_raises():
    sc = two_cell_scenario()
    bad = Association(b_ul=[0, 1, 0], b_dl=[0, 1, 1], n_bs=2)
    with pytest.raises(ModelError):
        build_coupling(sc, bad)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_coupling_permutation_equivariant(seed):
    sc = random_scenario(seed, n_ue=4, n_bs=2)
    rng = np.random.default_rng(seed + 1)
    b_ul = rng.integers(0, 2, size=4)
    b_dl = rng.integers(0, 2, size=4)
    assoc = Association(b_ul=b_ul, b_dl=b_dl, n_bs=2)
    problem = Problem.from_scenario(sc, assoc)

    perm = rng.permutation(4)
    sc_p = make_scenario(sc.h0[:, perm], sc.h1, sc.h2[np.ix_(perm, perm)],
                         np.concatenate([sc.demands[:4][perm], sc.demands[4:][perm]]))
    assoc_p = Association(b_ul=b_ul[perm], b_dl=b_dl[perm], n_bs=2)
    problem_p = Problem.from_scenario(sc_p, assoc_p)

    link_perm = np.concatenate([perm, perm + 4])
    v, v_p = dense_coupling(sc, assoc).v, dense_coupling(sc_p, assoc_p).v
    assert np.array_equal(v_p, v[np.ix_(link_perm, link_perm)])
    assert np.array_equal(v_tilde(problem_p), v_tilde(problem)[np.ix_(link_perm, link_perm)])
    assert np.array_equal(problem_p.d_diag, problem.d_diag[link_perm])


# overlap adjustment


def test_pairwise_factors_match_worked_example():
    # cell i: (UL, DL) = (0.3, 0.7); cell j: (0.7, 0.3)
    ul_dl, dl_ul = pairwise_overlap_factors(load_ul=[0.3, 0.7], load_dl=[0.7, 0.3])
    assert dl_ul[0, 1] == pytest.approx(0.57, abs=0.005)
    assert ul_dl[0, 1] == 0.0


def test_cell_specific_products_match_worked_example():
    sc = two_cell_scenario()
    assoc = coud_assoc(sc)
    overlap = OverlapModel(scheme="cell_specific", load_ul=[0.3, 0.7], load_dl=[0.7, 0.3])
    full = v_tilde(Problem.from_scenario(sc, assoc))
    adjusted = v_tilde(Problem.from_scenario(sc, assoc, overlap=overlap))
    k = 2
    # DL served by cell 0 hears UL served by cell 1: c_dl[0] * c_ul[1] = 0.49
    assert adjusted[k + 0, 1] == pytest.approx(0.49 * full[k + 0, 1])
    # UL served by cell 0 hears DL served by cell 1: c_ul[0] * c_dl[1] = 0.09
    assert adjusted[0, k + 1] == pytest.approx(0.09 * full[0, k + 1])


def test_zero_historical_load_gives_zero_factor_and_diagnostic(caplog):
    with caplog.at_level(logging.WARNING, logger="flexlink.model"):
        ul_dl, _ = pairwise_overlap_factors(load_ul=[0.0, 0.5], load_dl=[0.6, 0.6])
    assert np.all(ul_dl[0, :] == 0.0)
    assert any("overlap factor set to 0" in r.message for r in caplog.records)


def test_zero_load_diagnostic_once_per_model(caplog):
    """A model computes its pairwise factors once, so every problem built on
    it shares them and the zero-load warning is logged once per model."""
    sc = two_cell_scenario()
    assoc = coud_assoc(sc)
    overlap = OverlapModel(scheme="cell_pairwise", load_ul=[0.0, 0.5], load_dl=[0.6, 0.6])
    with caplog.at_level(logging.WARNING, logger="flexlink.model"):
        first = Problem.from_scenario(sc, assoc, overlap=overlap)
        second = Problem.from_scenario(sc, assoc, overlap=overlap)
    assert np.array_equal(first.rows, second.rows)
    assert [r.message for r in caplog.records].count(
        "zero historical ul load in 1 cell(s); overlap factor set to 0") == 1
    assert len(caplog.records) == 1


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000),
       scheme=st.sampled_from(["cell_pairwise", "cell_specific"]))
def test_overlap_never_increases_coupling(seed, scheme):
    sc = random_scenario(seed, n_ue=4, n_bs=3)
    rng = np.random.default_rng(seed)
    assoc = Association(b_ul=rng.integers(0, 3, size=4),
                        b_dl=rng.integers(0, 3, size=4), n_bs=3)
    overlap = OverlapModel(scheme=scheme, load_ul=rng.uniform(0, 1, 3),
                           load_dl=rng.uniform(0, 1, 3))
    full = v_tilde(Problem.from_scenario(sc, assoc))
    adjusted = v_tilde(Problem.from_scenario(sc, assoc, overlap=overlap))
    assert np.all(adjusted <= full + 1e-300)
    # same-direction blocks untouched
    assert np.array_equal(adjusted[:4, :4], full[:4, :4])
    assert np.array_equal(adjusted[4:, 4:], full[4:, 4:])


@st.composite
def coupling_cases(draw):
    """Small scenarios with arbitrary associations, so some cells serve no
    uplink or no downlink, under each overlap scheme."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 8))
    b = st.lists(st.integers(0, n - 1), min_size=k, max_size=k)
    assoc = Association(b_ul=draw(b), b_dl=draw(b), n_bs=n)
    seed = draw(st.integers(0, 10_000))
    scheme = draw(st.sampled_from([None, "cell_pairwise", "cell_specific"]))
    return random_scenario(seed, n_ue=k, n_bs=n), assoc, scheme, seed


def _empty_cell_case(scheme):
    # cell 1 serves only uplinks, cell 2 only downlinks, cell 0 nothing
    assoc = Association(b_ul=[1, 1, 1], b_dl=[2, 2, 2], n_bs=3)
    return random_scenario(3, n_ue=3, n_bs=3), assoc, scheme, 3


@settings(max_examples=150, deadline=None)
@given(case=coupling_cases())
@example(case=_empty_cell_case("cell_pairwise"))
@example(case=_empty_cell_case("cell_specific"))
def test_cell_row_coupling_matches_dense_reference(case):
    sc, assoc, scheme, seed = case
    n, k = sc.n_bs, sc.n_ue
    rng = np.random.default_rng(seed)
    overlap = None if scheme is None else OverlapModel(
        scheme=scheme, load_ul=rng.uniform(0, 1, n), load_dl=rng.uniform(0, 1, n))
    problem = Problem.from_scenario(sc, assoc, overlap=overlap)
    dense = dense_overlap(dense_coupling(sc, assoc), overlap, assoc)

    assert problem.rows.shape == (n + k, k + n)
    assert np.array_equal(v_tilde(problem), dense.v_tilde)
    assert np.array_equal(problem.d_diag, dense.d_diag)
    assert np.array_equal(np.full(2 * k, problem.noise_psd), dense.sigma_vec)

    w = rng.uniform(0.01, 1.0, 2 * k)
    p = 10 ** rng.uniform(-6, -1, 2 * k)
    expected = (dense.v_tilde @ (p * w) + dense.sigma_vec) / dense.d_diag
    assert np.allclose(interference_psd(p, w, problem), expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("scheme", [None, OVERLAP_PAIRWISE, OVERLAP_SPECIFIC])
def test_stacked_build_equals_one_problem_at_a_time(scheme):
    """``build_couplings`` of members from two study venues, taken in turn (so
    a venue's members are not consecutive), gives each member's
    ``build_coupling`` and ``apply_overlap`` and the dense reference bit for
    bit.  ``Problem.batch``'s problems view that stack and equal their
    ``from_scenario``; a venue's problems share its demands and budgets."""
    venues = [generate(STUDY_CONFIG, seed) for seed in (0, 1)]
    rng = np.random.default_rng(5)
    overlap = None if scheme is None else OverlapModel(
        scheme, load_ul=rng.uniform(0.1, 1, venues[0].n_bs),
        load_dl=rng.uniform(0.1, 1, venues[0].n_bs))
    cases = [(sc, associate(Policy.parse(label), sc))
             for label in ("coud", "deud-p", "deud-o:7") for sc in venues]
    rows = build_couplings(cases, overlap)
    problems, stacked = Problem.batch(cases, overlap, theta=0.5)
    assert stacked.tobytes() == rows.tobytes()
    for (sc, assoc), coupling, problem in zip(cases, rows, problems):
        alone = build_coupling(sc, assoc)
        alone = alone if overlap is None else apply_overlap(alone, overlap, assoc)
        assert coupling.tobytes() == alone.tobytes()
        dense = dense_overlap(dense_coupling(sc, assoc), overlap, assoc)
        assert np.array_equal(v_tilde(problem), dense.v_tilde)
        one = Problem.from_scenario(sc, assoc, overlap, theta=0.5)
        for name in ("rows", "d_diag", "demands", "p_ext_max"):
            assert getattr(problem, name).tobytes() == getattr(one, name).tobytes(), name
        assert np.shares_memory(problem.rows, stacked) and problem.demands is sc.demands
    assert problems[0].p_ext_max is problems[2].p_ext_max is not problems[1].p_ext_max


def test_coupling_arrays_are_read_only():
    sc = two_cell_scenario()
    assoc = coud_assoc(sc)
    problem = Problem.from_scenario(sc, assoc)
    for arr in (problem.rows, problem.d_diag):
        with pytest.raises(ValueError):
            arr[0] = 0
    # marked in place, not copied: a derived problem shares the caller's arrays
    rows = np.array(problem.rows)
    derived = dataclasses.replace(problem, rows=rows)
    assert derived.rows is rows and derived.d_diag is problem.d_diag
    assert not rows.flags.writeable


def test_association_matrices_have_block_structure():
    assoc = Association(b_ul=[1, 0, 1], b_dl=[0, 0, 1], n_bs=2)
    k, n = 3, 2
    assert np.all(assoc.a_ul.sum(axis=0) == 1)
    assert np.all(assoc.a_dl.sum(axis=0) == 1)
    assert assoc.a.shape == (n, 2 * k)
    expected_ext = np.vstack([
        np.hstack([np.eye(k), np.zeros((k, k))]),
        np.hstack([np.zeros((n, k)), assoc.a_dl]),
    ])
    assert np.array_equal(assoc.a_ext, expected_ext)
    # p = lambda_map @ p_bar reproduces per-link PSD from per-transmitter PSD
    p_bar = np.array([1.0, 2.0, 3.0, 10.0, 20.0])
    p = assoc.lambda_map @ p_bar
    assert p.tolist() == [1.0, 2.0, 3.0, 10.0, 10.0, 20.0]
