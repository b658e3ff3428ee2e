"""SINR, rates, demand maps and constraint functionals."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flexlink import interference
from flexlink.errors import DomainError, ModelError
from flexlink.interference import (
    EPS_NO_DL,
    Problem,
    ProblemStack,
    cell_power_maps,
    f_load,
    f_power,
    f_power_cell,
    g1,
    g2,
    g2_bar,
    interference_psd,
    link_power_maps,
    load_maps,
    qos_levels,
    spectral_efficiency,
)
from flexlink.model import Association

from .helpers import (
    RB_BW,
    RB_COUNT,
    assoc_problem,
    coud_assoc,
    make_scenario,
    random_problem,
    random_wp,
    single_link_scenario,
    two_cell_scenario,
)
from .oracles import f_power_cell_loop


def _two_cell():
    sc = two_cell_scenario()
    assoc = coud_assoc(sc)
    return sc, assoc, Problem.from_scenario(sc, assoc)


def test_sinr_zero_load_is_noise_only():
    sc, assoc, problem = _two_cell()
    p = np.array([1e-3, 2e-3, 5e-2, 8e-2])
    out = p / interference_psd(p, np.zeros(4), problem)
    assert np.allclose(out, p * problem.d_diag / sc.noise_psd)


def test_sinr_single_cell_ignores_load():
    sc = single_link_scenario()
    assoc = Association(b_ul=[0], b_dl=[0], n_bs=1)
    problem = Problem.from_scenario(sc, assoc)
    p = np.array([2e-3, 1e-2])
    for w in (np.zeros(2), np.array([0.4, 0.6]), np.ones(2)):
        assert np.allclose(p / interference_psd(p, w, problem), p * problem.d_diag / sc.noise_psd)


def test_sinr_matches_hand_formulas_on_two_cell_instance():
    sc, assoc, problem = _two_cell()
    h0, h1, h2, s2 = sc.h0, sc.h1, sc.h2, sc.noise_psd
    w = np.array([0.3, 0.5, 0.6, 0.2])
    p = np.array([1e-3, 2e-3, 5e-2, 8e-2])
    out = p / interference_psd(p, w, problem)

    # uplink of UE0, served by BS0: hears UE1's UL and BS1's DL
    ul0 = p[0] * h0[0, 0] / (h0[0, 1] * w[1] * p[1] + h1[0, 1] * w[3] * p[3] + s2)
    # downlink of UE1, served by BS1: hears UE0's UL and BS0's DL
    dl1 = p[3] * h0[1, 1] / (h2[1, 0] * w[0] * p[0] + h0[0, 1] * w[2] * p[2] + s2)
    assert out[0] == pytest.approx(ul0, rel=1e-12)
    assert out[3] == pytest.approx(dl1, rel=1e-12)


def test_sinr_jointly_scale_invariant():
    sc, assoc, problem = _two_cell()
    w, p = random_wp(2, 4)
    alpha = 7.5
    scaled = dataclasses.replace(problem, noise_psd=alpha * sc.noise_psd)
    assert np.allclose(alpha * p / interference_psd(alpha * p, w, scaled),
                       p / interference_psd(p, w, problem), rtol=1e-12)


def test_spectral_efficiency_reference_points():
    assert spectral_efficiency(0.0, 180e3) == 0.0
    assert spectral_efficiency(1.0, 180e3) == pytest.approx(180e3)
    assert spectral_efficiency(3.0, 180e3) == pytest.approx(360e3)
    s = np.array([0.5, 1.0, 2.0])
    out = spectral_efficiency(s, 1.0)
    assert np.all(np.diff(out) > 0)


def test_f_load_unit_band_identity():
    # noise-only link with SINR exactly 1 and demand W0*B needs the full band
    sc = single_link_scenario(demand_ul=RB_COUNT * RB_BW, demand_dl=RB_COUNT * RB_BW,
                              gain_ul=1e-8)
    assoc = Association(b_ul=[0], b_dl=[0], n_bs=1)
    problem = Problem.from_scenario(sc, assoc)
    p_unit = sc.noise_psd / problem.d_diag  # SINR = 1 per link
    out = f_load(np.zeros(2), p_unit, problem)
    assert np.allclose(out, 1.0)


def test_f_load_matches_hand_two_link_evaluation():
    sc, assoc, problem = _two_cell()
    w, p = random_wp(4, 4)
    out = f_load(w, p, problem)
    s = p / interference_psd(p, w, problem)
    for l in range(4):
        expected = sc.demands[l] / (sc.rb_count * sc.rb_bandwidth * np.log2(1.0 + s[l]))
        assert out[l] == pytest.approx(expected, rel=1e-12)


def test_f_load_rejects_zero_power():
    sc, assoc, problem = _two_cell()
    with pytest.raises(DomainError):
        f_load(np.full(4, 0.1), np.array([1e-3, 0.0, 1e-3, 1e-3]), problem)


def test_g1_reference_values():
    one = assoc_problem(Association(b_ul=[0, 0], b_dl=[0, 0], n_bs=1))
    assert g1(np.zeros(4), one) == 0.0
    assert g1(np.array([0.2, 0.3, 0.2, 0.1]), one) == pytest.approx(0.8)
    two = assoc_problem(Association(b_ul=[0, 1], b_dl=[0, 1], n_bs=2))
    assert g1(np.array([0.1, 0.4, 0.3, 0.5]), two) == pytest.approx(0.9)


def test_g2_reference_values():
    sc, assoc, problem = _two_cell()
    assert g2(np.full(4, 0.5), np.zeros(4), problem) == 0.0

    # one UE using half the band at 1/W0 of its power budget -> UL ratio 0.5
    w = np.array([0.5, 0.0, 0.0, 0.0])
    p = np.array([sc.ue_list[0].max_power_w / sc.rb_count, 0.0, 0.0, 0.0])
    assert g2(w, p, problem) == pytest.approx(0.5)


def test_g2_full_band_full_budget_is_one():
    # one BS, two DLs sharing the band at the per-RB budget PSD
    h0 = np.array([[1e-7, 2e-7]])
    sc = make_scenario(h0, np.array([[1.0]]), np.eye(2) * 0.5 + 0.5,
                       [1e6, 1e6, 1e6, 1e6], bs_power_w=8.0)
    assoc = Association(b_ul=[0, 0], b_dl=[0, 0], n_bs=1)
    problem = Problem.from_scenario(sc, assoc)
    q_rb = 8.0 / sc.rb_count
    w = np.array([0.0, 0.0, 0.5, 0.5])
    p = np.array([0.0, 0.0, q_rb, q_rb])
    assert g2(w, p, problem) == pytest.approx(1.0)


def test_g2_elementwise_product_order_is_bit_identical():
    sc, assoc, problem = _two_cell()
    w, p = random_wp(9, 4)
    a = g2(w, p, problem)
    b = g2(p, w, problem)  # diag(w)p == diag(p)w
    assert a == b


@pytest.mark.parametrize("budget", [0.0, -1.0, np.nan, np.inf])
def test_problem_rejects_non_positive_budget(budget):
    sc, assoc, _ = _two_cell()
    problem = Problem.from_scenario(sc, assoc)
    assert not problem.p_ext_max.flags.writeable
    p_ext_max = np.array(problem.p_ext_max)
    p_ext_max[3] = budget
    with pytest.raises(DomainError, match="power budgets must be strictly positive"):
        dataclasses.replace(problem, p_ext_max=p_ext_max)
    with pytest.raises(DomainError):
        Problem.from_scenario(sc, assoc, theta=budget)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), alpha=st.sampled_from([0.5, 2.0, 10.0]))
def test_g1_g2_homogeneous_degree_one(seed, alpha):
    scenario, assoc, problem = random_problem(seed)
    w, p = random_wp(seed, problem.n_links)
    assert g1(alpha * w, problem) == pytest.approx(alpha * g1(w, problem), rel=1e-12)
    assert g2(alpha * w, p, problem) == pytest.approx(alpha * g2(w, p, problem), rel=1e-12)
    assert g2(w, alpha * p, problem) == pytest.approx(alpha * g2(w, p, problem), rel=1e-12)


# power-demand map


def test_f_power_continuous_at_zero_power():
    scenario, assoc, problem = random_problem(12)
    w, p = random_wp(12, problem.n_links)
    p0 = p.copy()
    p0[2] = 0.0
    base = f_power(p0, w, problem)
    p_eps = p0.copy()
    p_eps[2] = 1e-12
    near = f_power(p_eps, w, problem)
    assert near[2] == pytest.approx(base[2], rel=1e-6)


def test_f_power_single_link_closed_form_fixed_point():
    sc = single_link_scenario(demand_ul=3e6, demand_dl=8e6, gain_ul=1e-8)
    assoc = Association(b_ul=[0], b_dl=[0], n_bs=1)
    problem = Problem.from_scenario(sc, assoc)
    w = np.array([0.4, 0.6])
    f = lambda p: f_power(p, w, problem)

    from flexlink.fixedpoint import yates_iteration

    res = yates_iteration(f, np.zeros(2), tol=1e-14)
    assert res.converged
    gain = problem.d_diag
    expected = (2.0 ** (sc.demands / (sc.rb_count * w * sc.rb_bandwidth)) - 1.0) \
        * sc.noise_psd / gain
    assert np.allclose(res.x, expected, rtol=1e-9)


def test_f_power_decreases_when_interferers_back_off():
    scenario, assoc, problem = random_problem(23, n_ue=3, n_bs=2)
    w, p = random_wp(23, problem.n_links)
    base = f_power(p, w, problem)
    damped = p.copy()
    damped[1:] *= 0.25  # keep own power of link 0
    out = f_power(damped, w, problem)
    assert out[0] < base[0]


def test_f_power_requires_positive_bandwidth():
    scenario, assoc, problem = random_problem(5)
    w, p = random_wp(5, problem.n_links)
    w[0] = 0.0
    with pytest.raises(DomainError):
        f_power(p, w, problem)


# per-transmitter (cell-specific) variant


def test_f_power_cell_single_downlink_reduces_to_per_link():
    sc = single_link_scenario(demand_ul=2e6, demand_dl=9e6)
    assoc = Association(b_ul=[0], b_dl=[0], n_bs=1)
    problem = Problem.from_scenario(sc, assoc)
    w = np.array([0.3, 0.7])
    p_bar = np.array([1e-3, 2e-2])  # UE PSD, cell DL PSD
    p = assoc.lambda_map @ p_bar
    per_link = f_power(p, w, problem)
    per_cell = f_power_cell(p_bar, w, problem)
    assert per_cell[0] == pytest.approx(per_link[0], rel=1e-12)
    assert per_cell[1] == pytest.approx(per_link[1], rel=1e-12)


def test_f_power_cell_matches_weighted_substitution_oracle():
    # DL entry of cell n equals (1/nu_n) * sum_l w_l f'_l(Lambda p_bar)
    scenario, assoc, problem = random_problem(31, n_ue=4, n_bs=2, coud=True)
    k, n = 4, 2
    w, _ = random_wp(31, 2 * k)
    rng = np.random.default_rng(31)
    p_bar = 10 ** rng.uniform(-4, -2, size=k + n)
    p = assoc.lambda_map @ p_bar
    per_link = f_power(p, w, problem)
    out = f_power_cell(p_bar, w, problem)
    assert np.allclose(out[:k], per_link[:k], rtol=1e-12)
    for cell in range(n):
        links = np.flatnonzero(assoc.b_dl == cell) + k
        if links.size == 0:
            continue
        nu = np.sum(w[links])
        expected = np.sum(w[links] * per_link[links]) / nu
        assert out[k + cell] == pytest.approx(expected, rel=1e-12)


def test_f_power_cell_empty_cell_entry_is_tiny_positive():
    scenario = two_cell_scenario()
    assoc = Association(b_ul=[0, 0], b_dl=[0, 0], n_bs=2)  # BS1 serves nothing
    w = np.full(4, 0.2)
    p_bar = np.array([1e-3, 1e-3, 1e-2, 0.0])
    out = f_power_cell(p_bar, w, Problem.from_scenario(scenario, assoc))
    assert out[3] > 0 and out[3] < 1e-12


@pytest.mark.parametrize("link, value", [(0, -0.1), (3, 0.0)])
def test_f_power_cell_rejects_non_positive_bandwidth(link, value):
    sc, assoc, problem = _two_cell()
    w = np.full(4, 0.2)
    w[link] = value
    with pytest.raises(DomainError):
        f_power_cell(np.full(4, 1e-3), w, Problem.from_scenario(sc, assoc))


def test_g2_bar_equals_g2_after_expansion():
    scenario, assoc, problem = random_problem(41, n_ue=3, n_bs=2, coud=True)
    w, _ = random_wp(41, 6)
    rng = np.random.default_rng(41)
    p_bar = 10 ** rng.uniform(-4, -2, size=5)
    expanded = assoc.lambda_map @ p_bar
    assert g2_bar(w, p_bar, problem) == g2(w, expanded, problem)
    assert g2_bar(w, np.zeros(5), problem) == 0.0
    # scaling to exact budget saturation mirrors the g2 construction
    scale = 1.0 / g2_bar(w, p_bar, problem)
    assert g2_bar(w, scale * p_bar, problem) == pytest.approx(1.0, rel=1e-12)


def test_qos_levels_zero_bandwidth_zero_qos():
    scenario, assoc, problem = random_problem(51)
    w, p = random_wp(51, problem.n_links)
    w[0] = 0.0
    q = qos_levels(w, p, problem)
    assert q[0] == 0.0
    assert np.all(q[1:] > 0)


# index form of the selection operators against the dense reference matrices


@st.composite
def associations(draw):
    n_bs = draw(st.integers(1, 4))
    k = draw(st.integers(1, 8))
    cells = st.lists(st.integers(0, n_bs - 1), min_size=k, max_size=k)
    return Association(b_ul=draw(cells), b_dl=draw(cells), n_bs=n_bs)


@settings(max_examples=100, deadline=None)
@given(assoc=associations(), seed=st.integers(0, 10_000))
# cell 0 serves no downlink, cells 1 and 2 no uplink, cell 3 nothing at all
@example(assoc=Association(b_ul=[0, 0, 0], b_dl=[1, 1, 2], n_bs=4), seed=0)
def test_index_selection_matches_dense_matrices(assoc, seed):
    k, n = assoc.n_ue, assoc.n_bs
    w, p = random_wp(seed, 2 * k)
    rng = np.random.default_rng(seed)
    p_bar = 10 ** rng.uniform(-5, -1, size=k + n)
    p_bar[rng.random(k + n) < 0.3] = 0.0  # exercise the zero-PSD limits too
    problem = dataclasses.replace(assoc_problem(assoc, seed),
                                  p_ext_max=10 ** rng.uniform(-2, 1.5, size=k + n))

    assert np.array_equal(problem.stack.expand(p_bar), assoc.lambda_map @ p_bar)
    assert g1(w, problem) == pytest.approx(float(np.max(assoc.a @ w)), rel=1e-12)
    dense_g2 = RB_COUNT * np.max(assoc.a_ext @ (w * p) / problem.p_ext_max)
    assert g2(w, p, problem) == pytest.approx(dense_g2, rel=1e-12)
    dense_g2_bar = RB_COUNT * np.max(assoc.a_ext @ (w * (assoc.lambda_map @ p_bar))
                                     / problem.p_ext_max)
    assert g2_bar(w, p_bar, problem) == pytest.approx(dense_g2_bar, rel=1e-12)

    out = f_power_cell(p_bar, w, problem)
    np.testing.assert_allclose(out, f_power_cell_loop(p_bar, w, problem), rtol=1e-12, atol=0)
    no_dl = np.bincount(assoc.b_dl, minlength=n) == 0
    assert np.all(out[k:][no_dl] == EPS_NO_DL)


def test_every_rate_evaluation_calls_spectral_efficiency_once(monkeypatch):
    """The per-RB rate has one definition: each evaluation of S1's and S3's
    demand maps and of the QoS levels, on a batch of one and on a stack of
    two, calls ``spectral_efficiency`` exactly once and returns its values."""
    scenario, assoc, problem = random_problem(61, n_ue=3, n_bs=2)
    other = Association(b_ul=assoc.b_dl, b_dl=assoc.b_ul, n_bs=2)
    members, rows = Problem.batch([(scenario, assoc), (scenario, other)])
    w, p = random_wp(61, 6)
    p_bar = np.array([1e-3, 2e-3, 3e-3, 1e-2, 2e-2])
    maps = (lambda s, w, p, x: load_maps(s, p)[0](w),
            lambda s, w, p, x: link_power_maps(s, w)[0](p),
            lambda s, w, p, x: cell_power_maps(s, w)[0](x),
            lambda s, w, p, x: s.qos(w, p))
    two = [np.tile(v, (2, 1)) for v in (w, p, p_bar)]
    cases = [lambda: qos_levels(w, p, problem)]
    for stack, args in ((problem.stack, (w, p, p_bar)), (ProblemStack(members, rows), two)):
        cases += [functools.partial(f, stack, *args) for f in maps]
    expected = [case() for case in cases]

    calls = []
    real = interference.spectral_efficiency

    def counting(sinr_values, rb_bandwidth):
        calls.append(rb_bandwidth)
        return real(sinr_values, rb_bandwidth)

    monkeypatch.setattr(interference, "spectral_efficiency", counting)
    for case, values in zip(cases, expected):
        calls.clear()
        assert np.array_equal(case(), values)
        assert calls == [scenario.rb_bandwidth]


def test_several_problems_stack_only_over_their_stacked_couplings():
    """A stack of several problems is refused without their ``(B, N+K, K+N)``
    couplings, over one problem's own 2-D coupling (``Problem.stack``'s), and
    over stacked couplings of another member count."""
    scenario, assoc, _ = random_problem(71, n_ue=5, n_bs=3)
    problems, rows = Problem.batch([(scenario, assoc)] * 2)
    for bad in (None, rows[0], rows[:1], np.concatenate([rows, rows])):
        with pytest.raises(ModelError, match="stacked couplings"):
            ProblemStack(problems, bad)


def test_take_of_a_take_evaluates_as_a_fresh_stack():
    """``ProblemStack.take`` slices the parent stack's member-major arrays; a
    take of a take evaluates ``ipsd``, ``g1``, ``g2``, ``qos`` and ``expand``
    exactly as a stack built afresh from the same members."""
    scenario, _, _ = random_problem(71, n_ue=5, n_bs=3)
    rng = np.random.default_rng(71)
    assocs = [Association(b_ul=rng.integers(0, 3, 5), b_dl=rng.integers(0, 3, 5), n_bs=3)
              for _ in range(6)]
    problems, rows = Problem.batch([(scenario, a) for a in assocs])
    taken = ProblemStack(problems, rows).take(np.array([0, 2, 3, 5])).take(np.array([1, 3]))
    fresh = ProblemStack([problems[2], problems[5]], rows[[2, 5]])
    w, x = rng.uniform(0.01, 0.3, (2, 10)), rng.uniform(1e-4, 1e-2, (2, 10))
    p_bar = rng.uniform(1e-4, 1e-2, (2, 8))
    assert taken.problems == fresh.problems and taken.size == fresh.size == 2
    for a, b in ((taken.ipsd(x), fresh.ipsd(x)), (taken.g1(w), fresh.g1(w)),
                 (taken.g2(x), fresh.g2(x)), (taken.qos(w, x), fresh.qos(w, x)),
                 (taken.expand(p_bar), fresh.expand(p_bar))):
        assert a.tobytes() == b.tobytes()
