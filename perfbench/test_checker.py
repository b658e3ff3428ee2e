"""Tests of the independent solution checker.

Run from the repository root: ``python3 -m pytest perfbench/test_checker.py``.
"""

import dataclasses
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checker  # noqa: E402


def two_cell(overlap=None):
    """UE j served by BS j in both directions; W0 = 10 RBs of B = 1 Hz,
    so QoS_l = 10 w_l log2(1 + SINR_l) / d_l with d = 1."""
    return checker.RawProblem(
        h0=np.array([[0.5, 0.1], [0.2, 0.4]]),
        h1=np.array([[1.0, 0.05], [0.05, 1.0]]),
        h2=np.array([[1.0, 0.02], [0.02, 1.0]]),
        noise_psd=0.01, demands=np.ones(4), rb_count=10, rb_bandwidth=1.0,
        ue_budget_w=np.array([10.0, 10.0]), bs_budget_w=np.array([40.0, 40.0]),
        b_ul=np.array([0, 1]), b_dl=np.array([0, 1]), overlap=overlap)


W = np.array([0.3, 0.4, 0.5, 0.6])  # UL0, UL1, DL0, DL1
P = np.array([1.0, 2.0, 3.0, 4.0])


def expected_qos(f_ul0_dl1=1.0, f_ul1_dl0=1.0, f_dl0_ul1=1.0, f_dl1_ul0=1.0):
    # interference + noise at each receiver, worked by hand:
    # UL0 at BS0 hears UL1 (0.1*2*0.4) and DL1 from BS1 (0.05*4*0.6)
    # UL1 at BS1 hears UL0 (0.2*1*0.3) and DL0 from BS0 (0.05*3*0.5)
    # DL0 at UE0 hears UE1's UL (0.02*2*0.4) and BS1's DL (0.2*4*0.6)
    # DL1 at UE1 hears UE0's UL (0.02*1*0.3) and BS0's DL (0.1*3*0.5)
    i_n = np.array([0.08 + 0.12 * f_ul0_dl1, 0.06 + 0.075 * f_ul1_dl0,
                    0.016 * f_dl0_ul1 + 0.48, 0.006 * f_dl1_ul0 + 0.15]) + 0.01
    signal = np.array([0.5 * 1.0, 0.4 * 2.0, 0.5 * 3.0, 0.4 * 4.0])
    return 10.0 * W * np.log2(1.0 + signal / i_n)


def test_recompute_full_overlap_by_hand():
    r = checker.recompute(two_cell(), W, P)
    np.testing.assert_allclose(r.qos, expected_qos(), rtol=1e-14)
    assert r.g1 == pytest.approx(1.0)  # BS1 carries 0.4 UL + 0.6 DL
    assert r.g2 == pytest.approx(0.8)  # UE1 uses 10 * 0.4 * 2 of its 10 W


def test_recompute_decoupled_uplink_by_hand():
    # UE1 sends its uplink to BS0 but receives its downlink from BS1
    raw = dataclasses.replace(two_cell(), b_ul=np.array([0, 0]))
    # UL0, UL1 at BS0 hear only DL1 from BS1 (0.05*4*0.6); DL0 at UE0 hears
    # only BS1 (0.2*4*0.6); DL1 at UE1 hears UE0's UL (0.02*1*0.3) and BS0
    # (0.1*3*0.5) but never UE1's own uplink
    i_n = np.array([0.12, 0.12, 0.48, 0.006 + 0.15]) + 0.01
    signal = np.array([0.5 * 1.0, 0.1 * 2.0, 0.5 * 3.0, 0.4 * 4.0])
    r = checker.recompute(raw, W, P)
    np.testing.assert_allclose(r.qos, 10.0 * W * np.log2(1.0 + signal / i_n), rtol=1e-14)
    assert r.g1 == pytest.approx(1.2)  # BS0 carries 0.3 + 0.4 UL and 0.5 DL


def test_recompute_pairwise_overlap_by_hand():
    # (v_j^Y + v_i^X - 1) / v_i^X with UL loads (0.4, 0.6), DL loads (0.8, 0.7)
    raw = two_cell(("cell_pairwise", np.array([0.4, 0.6]), np.array([0.8, 0.7])))
    expected = expected_qos(f_ul0_dl1=0.1 / 0.4, f_ul1_dl0=0.4 / 0.6,
                            f_dl0_ul1=0.4 / 0.8, f_dl1_ul0=0.1 / 0.7)
    np.testing.assert_allclose(checker.recompute(raw, W, P).qos, expected, rtol=1e-14)


def test_pairwise_factor_clamps_at_zero_and_for_idle_cells():
    raw = two_cell(("cell_pairwise", np.array([0.5, 0.0]), np.array([0.3, 0.7])))
    ul_dl, dl_ul = checker.overlap_factors(raw)
    assert ul_dl[0, 1] == pytest.approx(0.2 / 0.5)  # (0.7 + 0.5 - 1) / 0.5
    assert ul_dl[1, 0] == 0.0                      # receiving cell has no UL load
    assert dl_ul[0, 1] == 0.0                      # (0.0 + 0.3 - 1) / 0.3 < 0
    assert dl_ul[1, 0] == pytest.approx(0.2 / 0.7)  # (0.5 + 0.7 - 1) / 0.7


def test_recompute_cell_specific_overlap_by_hand():
    raw = two_cell(("cell_specific", np.array([0.4, 0.6]), np.array([0.8, 0.7])))
    expected = expected_qos(f_ul0_dl1=0.4 * 0.7, f_ul1_dl0=0.6 * 0.8,
                            f_dl0_ul1=0.8 * 0.6, f_dl1_ul0=0.7 * 0.4)
    np.testing.assert_allclose(checker.recompute(raw, W, P).qos, expected, rtol=1e-14)


def solved_two_cell():
    """A flexlink solve of a two-cell scenario and the checker's view of it."""
    import flexlink as fl

    h0 = np.array([[1e-7, 2e-8], [5e-9, 3e-7]])
    h1 = np.array([[1.0, 4e-9], [4e-9, 1.0]])
    h2 = np.array([[1.0, 6e-8], [6e-8, 1.0]])
    bs = [fl.BaseStation(position=(100.0 * i, 0.0), max_power_w=19.95) for i in range(2)]
    ue = [fl.UserTerminal(position=(10.0 * j, 50.0), max_power_w=0.1585) for j in range(2)]
    scenario = fl.Scenario(bs_list=bs, ue_list=ue, h0=h0, h1=h1, h2=h2,
                           demands=np.array([5e6, 8e6, 2e7, 1e7]), rb_count=25,
                           rb_bandwidth=180e3, noise_psd=1e-13)
    overlap = fl.uniform_overlap(2, 0.35, 0.75)
    sol = fl.optimize(scenario, fl.Policy("coud"), overlap=overlap)
    assoc = fl.associate(fl.Policy("coud"), scenario)
    raw = checker.RawProblem(
        h0=h0, h1=h1, h2=h2, noise_psd=1e-13, demands=scenario.demands, rb_count=25,
        rb_bandwidth=180e3, ue_budget_w=np.full(2, 0.1585), bs_budget_w=np.full(2, 19.95),
        b_ul=assoc.b_ul, b_dl=assoc.b_dl,
        overlap=("cell_pairwise", overlap.load_ul, overlap.load_dl))
    return raw, sol


def test_accepts_solver_output():
    raw, sol = solved_two_cell()
    assert sol.converged
    assert checker.check_solution(raw, sol.w, sol.p, sol.g1, sol.g2, sol.lam, False) == []


def test_rejects_perturbed_solution():
    raw, sol = solved_two_cell()
    w = sol.w.copy()
    w[0] *= 1.01
    failures = checker.check_solution(raw, w, sol.p, sol.g1, sol.g2, sol.lam, False)
    assert any(f.startswith("qos_spread") for f in failures)
    assert any(f.startswith("lambda_mismatch") or f.startswith("g1_mismatch") for f in failures)

    p = sol.p * 0.5  # every level drops below the reported lambda
    failures = checker.check_solution(raw, sol.w, p, sol.g1, sol.g2 * 0.5, sol.lam, False)
    assert any(f.startswith("lambda_mismatch") for f in failures)

    failures = checker.check_solution(raw, sol.w * 1.1, sol.p, sol.g1 * 1.1, sol.g2 * 1.1,
                                      sol.lam, False)
    assert any(f.startswith("constraint_violated") for f in failures)


def test_nondecreasing():
    assert checker.check_nondecreasing([0.1, 0.2, 0.4], [1.0, 1.0, 2.0]) == []
    assert checker.check_nondecreasing([0.1, 0.2, 0.4], [1.0, 0.9, 2.0]) == [1]
