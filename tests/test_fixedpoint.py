"""Normalized and plain fixed-point iterations, SIF axiom checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexlink.fixedpoint import normalized_fixed_point, yates_iteration
from flexlink.interference import f_load, f_power

from .helpers import random_problem, random_wp
from .oracles import (
    check_sif_axioms,
    dense_conditional_eigen_2d,
    grid_conditional_eigen,
    linear_solve_conditional_eigen,
)

MAXNORM = lambda x: float(np.max(x))


def random_affine_sif(seed, k):
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.05, 1.0, size=(k, k))
    b = rng.uniform(0.1, 1.0, size=k)
    return m, b


def test_constant_map_converges_in_one_step():
    c = np.array([2.0, 0.5, 1.0])
    res = normalized_fixed_point(lambda x: c, MAXNORM, 1.0, np.zeros(3))
    assert res.converged and res.iterations <= 2
    assert np.allclose(res.x, c / 2.0)
    assert res.eigenvalue == pytest.approx(0.5)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_affine_matches_dense_grid_oracle_2d(seed):
    m, b = random_affine_sif(seed, 2)
    res = normalized_fixed_point(lambda x: m @ x + b, MAXNORM, 1.0,
                                 np.ones(2), tol=1e-12)
    x_grid, rho_grid = dense_conditional_eigen_2d(m, b, resolution=1e-4)
    assert np.max(np.abs(res.x - x_grid)) <= 1e-3
    assert abs(res.eigenvalue - rho_grid) <= 1e-3


@pytest.mark.parametrize("seed,k", [(3, 2), (4, 3), (5, 4)])
def test_refined_grid_oracle_agrees_with_linear_solve(seed, k):
    m, b = random_affine_sif(seed, k)
    x_grid, rho_grid = grid_conditional_eigen(m, b, resolution=1e-4)
    x_lin, rho_lin = linear_solve_conditional_eigen(m, b)
    assert np.max(np.abs(x_grid - x_lin)) <= 5e-4
    assert abs(rho_grid - rho_lin) <= 5e-4


def test_theta_homogeneity_of_update_and_of_homogeneous_limits():
    m, b = random_affine_sif(7, 3)
    f = lambda x: m @ x + b
    # the update map is exactly homogeneous in theta at every point
    rng = np.random.default_rng(7)
    for x in rng.uniform(0.1, 3.0, size=(10, 3)):
        one = 1.0 * f(x) / MAXNORM(f(x))
        three = 3.0 * f(x) / MAXNORM(f(x))
        assert np.allclose(three, 3.0 * one, rtol=1e-15)

    # for a degree-1 homogeneous map the limit itself scales with theta
    lin = lambda x: m @ x
    r1 = normalized_fixed_point(lin, MAXNORM, 1.0, np.ones(3), tol=1e-13)
    r3 = normalized_fixed_point(lin, MAXNORM, 3.0, np.ones(3), tol=1e-13)
    assert np.allclose(r3.x, 3.0 * r1.x, rtol=1e-9)
    assert MAXNORM(r3.x) == pytest.approx(3.0, rel=1e-9)


def test_norm_constraint_holds_at_fixed_point():
    m, b = random_affine_sif(11, 4)
    res = normalized_fixed_point(lambda x: m @ x + b, MAXNORM, 0.7, np.ones(4), tol=1e-10)
    assert res.converged
    assert MAXNORM(res.x) == pytest.approx(0.7, rel=1e-8)
    # eigen relation x = rho f(x)
    assert np.allclose(res.x, res.eigenvalue * (m @ res.x + b), rtol=1e-7)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_uniqueness_from_different_starts(seed):
    m, b = random_affine_sif(seed, 3)
    f = lambda x: m @ x + b
    rng = np.random.default_rng(seed)
    r1 = normalized_fixed_point(f, MAXNORM, 1.0, rng.uniform(0.01, 5.0, 3), tol=1e-10)
    r2 = normalized_fixed_point(f, MAXNORM, 1.0, rng.uniform(0.01, 5.0, 3), tol=1e-10)
    assert r1.converged and r2.converged
    assert np.max(np.abs(r1.x - r2.x)) <= 100 * 1e-10


def test_max_iter_exceeded_is_flagged_not_raised():
    # swap map with a tiny offset contracts very slowly
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    b = np.array([1e-9, 3e-9])
    res = normalized_fixed_point(lambda x: m @ x + b, MAXNORM, 1.0,
                                 np.array([0.3, 1.0]), tol=1e-12, max_iter=5)
    assert not res.converged
    assert res.note == "max_iter exceeded"


# Yates iteration


def test_yates_scalar_closed_form():
    res = yates_iteration(lambda x: x / 2.0 + 1.0, np.array([0.0]))
    assert res.converged
    assert res.x[0] == pytest.approx(2.0, abs=1e-6)


def test_yates_immediate_at_fixed_point():
    res = yates_iteration(lambda x: x / 2.0 + 1.0, np.array([2.0]), tol=1e-9)
    assert res.converged and res.iterations <= 1


def test_yates_two_link_power_control_matches_coordinate_bisection():
    from .oracles import coordinate_bisection_fixed_point

    scenario, assoc, problem = random_problem(21, n_ue=1, n_bs=2, demand_scale=2e6)
    w = np.array([0.5, 0.5])
    f = lambda p: f_power(p, w, problem)
    res = yates_iteration(f, np.zeros(2), tol=1e-12)
    assert res.converged
    oracle = coordinate_bisection_fixed_point(f, 2, upper=1.0, tol=1e-10)
    assert np.max(np.abs(res.x - oracle)) <= 1e-8


def test_yates_monotone_from_zero_and_from_feasible():
    scenario, assoc, problem = random_problem(33, n_ue=2, n_bs=2, demand_scale=2e6)
    w = np.full(4, 0.4)
    f = lambda p: f_power(p, w, problem)

    iterates = []
    yates_iteration(f, np.zeros(4), callback=lambda t, x, r: iterates.append(x.copy()))
    for a, b in zip(iterates, iterates[1:]):
        assert np.all(b >= a - 1e-15)

    p_star = iterates[-1]
    feasible = 2.0 * p_star  # scalability makes any upscaled fixed point feasible
    down = []
    yates_iteration(f, feasible, callback=lambda t, x, r: down.append(x.copy()))
    prev = feasible
    for x in down:
        assert np.all(x <= prev + 1e-15)
        prev = x


def test_non_finite_map_stops_after_one_iteration():
    nan_map = lambda x: np.full_like(x, np.nan)
    res = normalized_fixed_point(nan_map, lambda x: float(np.max(x)), 1.0, np.ones(3))
    assert (res.iterations, res.converged, res.note) == (1, False, "non-finite")
    res = yates_iteration(nan_map, np.zeros(3))
    assert (res.iterations, res.converged, res.note) == (1, False, "non-finite")
    # an infinite step (g of the image is 0) stops the same way
    with np.errstate(divide="ignore"):
        res = normalized_fixed_point(lambda x: x + 1.0, lambda x: 0.0, 1.0, np.ones(2))
    assert (res.iterations, res.note) == (1, "non-finite")


def test_yates_divergence_flagged_infeasible():
    res = yates_iteration(lambda x: 2.0 * x + 1.0, np.array([0.0]),
                          divergence_window=10, max_iter=1000)
    assert not res.converged
    assert res.note == "likely infeasible"


def test_callable_wrappers_carry_dimension():
    # plain callables: the dimension is carried by the start vector
    m, b = random_affine_sif(2, 3)
    f = lambda x: m @ x + b
    g = lambda x: float(np.max(x))
    res = normalized_fixed_point(f, g, 1.0, np.ones(3), tol=1e-10)
    assert res.x.shape == (3,)
    assert res.converged and g(res.x) == pytest.approx(1.0, rel=1e-8)


# axiom checker


def _pairs(rng, dim, n):
    xs = rng.uniform(0.0, 3.0, size=(n, dim))
    ys = xs + rng.uniform(0.0, 2.0, size=(n, dim))
    return list(zip(xs, ys))


def test_axioms_pass_for_affine_shift():
    rng = np.random.default_rng(0)
    report = check_sif_axioms(lambda x: x + 1.0, _pairs(rng, 3, 50), [1.5, 2.0, 10.0])
    assert report.passed
    assert report.n_monotonicity == 50


def test_axioms_fail_scalability_for_square():
    rng = np.random.default_rng(1)
    pairs = [(x + 0.1, y + 0.1) for x, y in _pairs(rng, 2, 30)]
    report = check_sif_axioms(lambda x: x ** 2, pairs, [2.0])
    assert not report.passed
    assert report.scalability_violations
    assert not report.monotonicity_violations


def test_axioms_pass_for_bandwidth_demand_map():
    scenario, assoc, problem = random_problem(8, n_ue=2, n_bs=2)
    _, p = random_wp(8, 4)
    f = lambda w: f_load(w, p, problem)
    rng = np.random.default_rng(8)
    pairs = [(x, y) for x, y in zip(rng.uniform(0, 1, (1000, 4)),
                                    rng.uniform(0, 1, (1000, 4)) + rng.uniform(0, 1, (1000, 4)))]
    pairs = [(np.minimum(x, y), np.maximum(x, y) + 0.01) for x, y in pairs]
    report = check_sif_axioms(f, pairs, [1.2, 2.0], slack=1e-12)
    assert report.passed
