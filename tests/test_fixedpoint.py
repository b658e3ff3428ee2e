"""Normalized and plain fixed-point iterations, SIF axiom checks."""

import collections
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexlink import fixedpoint
from flexlink.fixedpoint import DIVERGENCE_WINDOW, normalized_fixed_point, yates_iteration
from flexlink.interference import f_load, f_power

from .helpers import random_problem, random_wp, yates_iterates
from .oracles import (
    anderson_fixed_point_ref,
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
    res = normalized_fixed_point(lambda x: c, MAXNORM, np.zeros(3))
    assert res.converged and res.iterations <= 2
    assert np.allclose(res.x, c / 2.0)
    assert res.eigenvalue == pytest.approx(0.5)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_affine_matches_dense_grid_oracle_2d(seed):
    m, b = random_affine_sif(seed, 2)
    res = normalized_fixed_point(lambda x: m @ x + b, MAXNORM,
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
    r1 = normalized_fixed_point(lin, MAXNORM, np.ones(3), tol=1e-13)
    r3 = normalized_fixed_point(lin, lambda x: MAXNORM(x) / 3.0, np.ones(3), tol=1e-13)
    assert np.allclose(r3.x, 3.0 * r1.x, rtol=1e-9)
    assert MAXNORM(r3.x) == pytest.approx(3.0, rel=1e-9)


def test_norm_constraint_holds_at_fixed_point():
    m, b = random_affine_sif(11, 4)
    res = normalized_fixed_point(lambda x: m @ x + b, lambda x: MAXNORM(x) / 0.7, np.ones(4),
                                 tol=1e-10)
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
    r1 = normalized_fixed_point(f, MAXNORM, rng.uniform(0.01, 5.0, 3), tol=1e-10)
    r2 = normalized_fixed_point(f, MAXNORM, rng.uniform(0.01, 5.0, 3), tol=1e-10)
    assert r1.converged and r2.converged
    assert np.max(np.abs(r1.x - r2.x)) <= 100 * 1e-10


def _uneven_affine(seed):
    """An affine SIF ``x -> m x + b`` with uneven coupling, 2 to 6 links, and
    a start."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 7))
    m, b = rng.uniform(0.0, 1.0, size=(k, k)) ** 3, rng.uniform(0.1, 1.0, size=k) ** 2
    return m, b, rng.uniform(0.01, 5.0, k)


def test_anderson_steps_find_the_plain_fixed_point_without_losing_utility():
    """On affine SIFs with uneven coupling, where extrapolated steps often
    overshoot, the accelerated run converges to the plain fixed point, and the
    utility ``min x / f(x)`` of the points it evaluates never falls after its
    first plain step."""
    for seed in range(100):
        m, b, x0 = _uneven_affine(seed)
        f = lambda x: m @ x + b
        seen = []
        plain = normalized_fixed_point(f, MAXNORM, x0, tol=1e-12)
        fast = normalized_fixed_point(f, MAXNORM, x0, tol=1e-12, memory=3,
                                      callback=lambda t, x, residual: seen.append(x.copy()))
        assert plain.note == fast.note == "converged"
        assert np.max(np.abs(fast.x - plain.x)) <= 1e-10
        assert fast.eigenvalue == pytest.approx(plain.eigenvalue, rel=1e-10)
        utilities = [float((x / f(x)).min()) for x in seen]
        assert all(v >= u * (1 - 1e-12) for u, v in zip(utilities[1:], utilities[2:])), seed
    assert yates_iteration(lambda x: x / 2.0 + 1.0, np.array([0.0])).note == "converged"


def test_stacked_members_match_their_runs_alone(monkeypatch):
    """A stack of the two-link affine SIFs of the test above (three history
    rows in two dimensions make many Anderson systems singular; members fall
    back and stop at different steps) gives every member's solo result bit
    for bit."""
    cases = [case for case in (_uneven_affine(seed) for seed in range(100)) if len(case[2]) == 2]
    m, b, x0 = (np.array(parts) for parts in zip(*cases))
    f = lambda x: (m @ x[..., None])[..., 0] + b
    g = lambda y: y.max(axis=-1)
    digest = lambda r: (r.x.tobytes(), r.eigenvalue, r.iterations, r.residual, r.note)
    singular, kernel = [], fixedpoint._lapack_solve

    def counted(a, rhs, **kw):
        out = kernel(a, rhs, **kw)
        singular.append(int(np.isnan(out).any(axis=(-2, -1)).sum()))
        return out

    monkeypatch.setattr(fixedpoint, "_lapack_solve", counted)
    stacked = fixedpoint.normalized_fixed_points(f, g, x0, tol=1e-12, memory=3)
    alone = [normalized_fixed_point(lambda x, i=i: m[i] @ x + b[i], MAXNORM, x0[i],
                                    tol=1e-12, memory=3) for i in range(len(x0))]
    assert list(map(digest, stacked)) == list(map(digest, alone))
    assert len({r.iterations for r in stacked}) > 1 and sum(singular)


@pytest.mark.parametrize("memory", [0, 3])
def test_stopped_members_leave_the_maps(memory):
    """A stack of affine SIFs in which member 0 (a cyclic map) needs about
    2,000 plain steps and the others at most 65: with ``take`` the loop
    rebuilds its maps on the running members, so the rows its maps evaluate
    total at most twice the members' own evaluations (each step's and the
    eigenvalue's) plus B, against B times the slowest member's without it;
    every member still gives its solo result bit for bit."""
    rng = np.random.default_rng(11)
    size, k = 12, 4
    m = rng.uniform(0.0, 1.0, size=(size, k, k)) ** 3
    b = rng.uniform(0.1, 1.0, size=(size, k)) ** 2
    m[0], b[0] = np.roll(np.eye(k), 1, axis=1) + 0.01 * m[0], 0.01 * b[0]
    x0 = rng.uniform(0.01, 5.0, size=(size, k))
    rows = []

    def maps(members):
        m_at, b_at = m[members], b[members]

        def f(x):
            rows.append(len(x))
            return (m_at @ x[..., None])[..., 0] + b_at
        return f, lambda y: y.max(axis=-1)

    stacked = fixedpoint.normalized_fixed_points(*maps(list(range(size))), x0, tol=1e-12,
                                                 memory=memory, take=maps)
    alone = [normalized_fixed_point(lambda x, i=i: m[i] @ x + b[i], MAXNORM, x0[i],
                                    tol=1e-12, memory=memory) for i in range(size)]
    digest = lambda r: (r.x.tobytes(), r.eigenvalue, r.iterations, r.residual, r.note)
    assert list(map(digest, stacked)) == list(map(digest, alone))
    own = sum(r.iterations + 1 for r in stacked)
    assert sum(rows) <= 2 * own + size, (sum(rows), own)
    slowest = max(r.iterations for r in stacked)
    assert memory or size * (slowest + 1) > 2 * own + size


def test_accelerated_stack_with_take_follows_each_member_alone():
    """A stack of affine SIFs with ``memory=5``, ``take`` and a callback, whose
    members stop at many different iterations: the loop keeps stopped members'
    rows until the running ones are at most half of them, then leaves them to
    the maps of the running members; every result and every callback argument
    is still the member's solo run bit for bit."""
    rng = np.random.default_rng(5)
    size, k = 16, 4
    m = rng.uniform(0.0, 1.0, size=(size, k, k)) ** 3
    b = rng.uniform(0.1, 1.0, size=(size, k)) ** 2
    for i in range(0, size, 3):  # near-cyclic members converge slowly, each at its own pace
        m[i] = np.roll(np.eye(k), 1, axis=1) + (0.002 * (i + 1)) * m[i]
        b[i] *= 0.002 * (i + 1)
    x0 = rng.uniform(0.01, 5.0, size=(size, k))
    taken, seen = [], collections.defaultdict(list)

    def maps(members):
        taken.append(list(members))
        m_at, b_at = m[members], b[members]
        return (lambda x: (m_at @ x[..., None])[..., 0] + b_at,
                lambda y: y.max(axis=-1))

    stacked = fixedpoint.normalized_fixed_points(
        *maps(list(range(size))), x0, tol=1e-12, memory=5, take=maps,
        callback=lambda i, t, x, residual: seen[i].append((t, x.tobytes(), repr(residual))))
    digest = lambda r: (r.x.tobytes(), repr(r.eigenvalue), r.iterations, repr(r.residual),
                        r.converged, r.note)
    for i in range(size):
        calls = []
        alone = normalized_fixed_point(
            lambda x, i=i: m[i] @ x + b[i], MAXNORM, x0[i], tol=1e-12, memory=5,
            callback=lambda t, x, residual: calls.append((t, x.tobytes(), repr(residual))))
        assert digest(stacked[i]) == digest(alone), i
        assert seen[i] == calls, i
    assert len({r.iterations for r in stacked}) >= 5
    assert len(taken) >= 3 and all(len(a) > len(b) for a, b in zip(taken, taken[1:]))


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("memory", [3, 5])
@pytest.mark.parametrize("max_iter", [7, fixedpoint.DEFAULT_MAX_ITER])
def test_stacked_members_follow_the_anderson_reference(k, memory, max_iter):
    """Every member of a stack of affine SIFs, one of them NaN, gives the
    results and the callback arguments of the one-problem loop of
    ``anderson_fixed_point_ref`` bit for bit, cut at ``max_iter`` or not.
    From three links on some members go back to their last plain point (a
    step without a callback)."""
    rng = np.random.default_rng(k)
    m = rng.uniform(0.0, 1.0, size=(12, k, k)) ** 3
    b = rng.uniform(0.1, 1.0, size=(12, k)) ** 2
    b[4, 0] = np.nan
    x0 = rng.uniform(0.01, 5.0, size=(12, k))
    seen = {i: [] for i in range(12)}
    stacked = fixedpoint.normalized_fixed_points(
        lambda x: (m @ x[..., None])[..., 0] + b, lambda y: y.max(axis=-1), x0,
        tol=1e-12, max_iter=max_iter, memory=memory,
        callback=lambda i, t, x, residual: seen[i].append((t, x.tobytes(), repr(residual))))
    digest = lambda r: (r.x.tobytes(), repr(r.eigenvalue), r.iterations, repr(r.residual),
                        r.converged, r.note)  # repr: NaN equals NaN
    for i, fast in enumerate(stacked):
        calls = []
        ref = anderson_fixed_point_ref(
            lambda x: (m[i] @ x[..., None])[..., 0] + b[i], MAXNORM, x0[i], memory, tol=1e-12,
            max_iter=max_iter, callback=lambda t, x, residual: calls.append(
                (t, x.tobytes(), repr(residual))))
        assert digest(fast) == digest(ref), i
        assert seen[i] == calls, i
    notes = collections.Counter(r.note for r in stacked)
    cut = "converged" if max_iter == fixedpoint.DEFAULT_MAX_ITER else "max_iter exceeded"
    assert notes["non-finite"] == 1 and cut in notes, notes
    fallbacks = sum(b - a > 1 for calls in seen.values() for (a, *_), (b, *_) in
                    zip(calls, calls[1:]))
    assert k == 2 or fallbacks, fallbacks


def test_accelerated_run_at_a_huge_budget_warns_nothing():
    """Under a budget of 1e300 the Gram matrix of the Anderson history
    overflows; the non-finite extrapolation is refused without a warning, and
    the run goes on with plain steps (the absolute step test cannot pass at
    that scale)."""
    m, b = random_affine_sif(7, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = normalized_fixed_point(lambda x: m @ x + b, lambda y: MAXNORM(y) / 1e300,
                                     np.ones(3), max_iter=50, memory=3)
    assert res.note == "max_iter exceeded" and np.isfinite(res.x).all()
    assert MAXNORM(res.x) == pytest.approx(1e300, rel=1e-9)


def test_max_iter_exceeded_is_flagged_not_raised():
    # swap map with a tiny offset contracts very slowly
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    b = np.array([1e-9, 3e-9])
    res = normalized_fixed_point(lambda x: m @ x + b, MAXNORM,
                                 np.array([0.3, 1.0]), tol=1e-12, max_iter=5)
    assert not res.converged
    assert res.note == "max_iter exceeded"


@pytest.mark.parametrize("memory", [0, 3])
@pytest.mark.parametrize("max_iter", [0, -3])
def test_no_step_allowed_ends_at_the_start(max_iter, memory):
    """A cap below one ends the run unconverged at its start, as
    ``yates_iteration`` does; a map that raises after 10 calls turns an
    uncapped run into a failure instead of a hang."""
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    b = np.array([1e-9, 3e-9])
    calls = []

    def f(x):
        calls.append(1)
        if len(calls) > 10:
            raise RuntimeError("max_iter below one did not stop the run")
        return x @ m.T + b

    g = lambda y: np.max(y, axis=-1)
    x0 = np.array([0.3, 1.0])
    solo = normalized_fixed_point(f, MAXNORM, x0, tol=1e-12, max_iter=max_iter, memory=memory)
    batch = fixedpoint.normalized_fixed_points(f, g, np.array([x0, 2.0 * x0]), tol=1e-12,
                                               max_iter=max_iter, memory=memory)
    for res, start in zip([solo] + batch, [x0, x0, 2.0 * x0]):
        assert not res.converged and res.note == "max_iter exceeded"
        assert res.iterations == 0 and np.array_equal(res.x, start)
    assert yates_iteration(f, x0, max_iter=max_iter).note == "max_iter exceeded"


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

    res = yates_iteration(f, np.zeros(4))
    iterates = yates_iterates(f, np.zeros(4), res.iterations)
    assert np.array_equal(iterates[-1], res.x)
    for a, b in zip(iterates, iterates[1:]):
        assert np.all(b >= a - 1e-15)

    p_star = iterates[-1]
    feasible = 2.0 * p_star  # scalability makes any upscaled fixed point feasible
    res = yates_iteration(f, feasible)
    down = yates_iterates(f, feasible, res.iterations)
    assert np.array_equal(down[-1], res.x)
    prev = feasible
    for x in down:
        assert np.all(x <= prev + 1e-15)
        prev = x


def test_non_finite_map_stops_after_one_iteration():
    nan_map = lambda x: np.full_like(x, np.nan)
    res = normalized_fixed_point(nan_map, lambda x: float(np.max(x)), np.ones(3))
    assert (res.iterations, res.converged, res.note) == (1, False, "non-finite")
    res = yates_iteration(nan_map, np.zeros(3))
    assert (res.iterations, res.converged, res.note) == (1, False, "non-finite")
    # an infinite step (g of the image is 0) stops the same way
    with np.errstate(divide="ignore"):
        res = normalized_fixed_point(lambda x: x + 1.0, lambda x: 0.0, np.ones(2))
    assert (res.iterations, res.note) == (1, "non-finite")


def test_yates_divergence_flagged_infeasible():
    res = yates_iteration(lambda x: 2.0 * x + 1.0, np.array([0.0]), max_iter=1000)
    assert not res.converged
    assert res.note == "likely infeasible"
    assert res.iterations == DIVERGENCE_WINDOW + 1


def test_callable_wrappers_carry_dimension():
    # plain callables: the dimension is carried by the start vector
    m, b = random_affine_sif(2, 3)
    f = lambda x: m @ x + b
    g = lambda x: float(np.max(x))
    res = normalized_fixed_point(f, g, np.ones(3), tol=1e-10)
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
