"""Bounded-variable simplex: golden instances, duals, scipy cross-check,
and byte equality with the reference simplex."""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings, strategies as st

from equilab import equilibria, lp
from equilab.lp import InfeasibleError, SimplexError, solve_lp

from market_corpus import random_market
from reference_oracles import (ReferenceState, brute_force_welfare,
                               record_simplex_calls, reference_simplex,
                               simplex_outcome)


def test_box_only_maximum():
    res = solve_lp([1.0, -2.0, 0.0], lo=[-1, -1, -1], hi=[2, 3, 4])
    assert np.allclose(res.x, [2, -1, -1])
    assert res.value == pytest.approx(4.0)


def test_single_equality():
    # max x1 + x2  s.t.  x1 + x2 = 1,  0 <= x <= 1
    res = solve_lp([1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    assert res.value == pytest.approx(1.0)
    assert res.duals_eq[0] == pytest.approx(1.0)


def test_transport_instance():
    # max 3a + 5b  s.t.  a <= 4, 2b <= 12, 3a + 2b <= 18
    res = solve_lp([3.0, 5.0],
                   a_ub=[[1, 0], [0, 2], [3, 2]], b_ub=[4, 12, 18],
                   lo=[0, 0], hi=[100, 100])
    assert res.value == pytest.approx(36.0)
    assert np.allclose(res.x, [2.0, 6.0])


def test_infeasible_detected():
    with pytest.raises(InfeasibleError):
        solve_lp([1.0], a_eq=[[1.0]], b_eq=[5.0], lo=[0.0], hi=[1.0])
    with pytest.raises(InfeasibleError):
        solve_lp([1.0], lo=[2.0], hi=[1.0])


def test_unbounded_detected():
    with pytest.raises(SimplexError):
        solve_lp([1.0], lo=[0.0], hi=[np.inf])


def test_negative_bounds():
    res = solve_lp([-1.0], a_eq=[[1.0]], b_eq=[-2.0], lo=[-5.0], hi=[0.0])
    assert res.x[0] == pytest.approx(-2.0)
    assert res.value == pytest.approx(2.0)


def test_duals_price_the_binding_rows():
    # max 2x + y  s.t.  x + y <= 3, x <= 2, bounds [0, 10]
    res = solve_lp([2.0, 1.0], a_ub=[[1, 1], [1, 0]], b_ub=[3, 2],
                   lo=[0, 0], hi=[10, 10])
    assert res.value == pytest.approx(5.0)
    assert res.duals_ub[0] == pytest.approx(1.0)
    assert res.duals_ub[1] == pytest.approx(1.0)


# classic Beale cycling instance (max form)
_BEALE = ((), dict(c=[0.75, -150.0, 0.02, -6.0],
                   a_ub=[[0.25, -60.0, -1.0 / 25.0, 9.0],
                         [0.5, -90.0, -1.0 / 50.0, 3.0],
                         [0.0, 0.0, 1.0, 0.0]],
                   b_ub=[0.0, 0.0, 1.0], lo=[0] * 4, hi=[1e6] * 4))


def test_degenerate_cycling_guard():
    res = solve_lp(*_BEALE[0], **_BEALE[1])
    assert res.value == pytest.approx(0.05, abs=1e-8)


def test_stall_counts_only_pivots_that_do_not_improve(monkeypatch):
    """Bland's rule starts after more than `_STALL_LIMIT` pivots in a row
    without improvement.  These bounded LPs never make three such pivots in
    a row, so a limit of 2 leaves every pivot count and vertex as it is."""
    def solve(seed):
        rng = np.random.default_rng(seed)
        res = solve_lp(rng.normal(size=12), a_ub=rng.normal(size=(6, 12)),
                       b_ub=rng.uniform(1.0, 10.0, 6), lo=np.zeros(12), hi=np.full(12, 5.0))
        return res.iterations, res.x.tobytes()

    default = [solve(seed) for seed in range(300)]
    monkeypatch.setattr(lp, "_STALL_LIMIT", 2)
    assert [solve(seed) for seed in range(300)] == default


def test_determinism():
    rng = np.random.default_rng(5)
    c = rng.normal(size=12)
    A = rng.normal(size=(4, 12))
    b = rng.normal(size=4)
    first = solve_lp(c, a_ub=A, b_ub=b, lo=-np.ones(12), hi=np.ones(12))
    second = solve_lp(c, a_ub=A, b_ub=b, lo=-np.ones(12), hi=np.ones(12))
    assert np.array_equal(first.x, second.x)
    assert first.iterations == second.iterations


def _scipy_check(c, a_eq, b_eq, a_ub, b_ub, lo, hi):
    return scipy.optimize.linprog(
        -np.asarray(c), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=list(zip(lo, hi)), method="highs")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_matches_scipy_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    m_eq = int(rng.integers(0, 3))
    m_ub = int(rng.integers(0, 4))
    c = rng.normal(size=n)
    lo = -rng.uniform(0.5, 3.0, size=n)
    hi = rng.uniform(0.5, 3.0, size=n)
    a_eq = rng.normal(size=(m_eq, n))
    a_ub = rng.normal(size=(m_ub, n))
    # anchor the right-hand sides at an interior point so most draws are feasible
    x0 = rng.uniform(lo, hi)
    b_eq = a_eq @ x0
    b_ub = a_ub @ x0 + rng.uniform(0.0, 1.0, size=m_ub)

    ref = _scipy_check(c, a_eq if m_eq else None, b_eq if m_eq else None,
                       a_ub if m_ub else None, b_ub if m_ub else None, lo, hi)
    assert ref.status == 0
    res = solve_lp(c, a_eq if m_eq else None, b_eq if m_eq else None,
                   a_ub if m_ub else None, b_ub if m_ub else None, lo, hi)
    assert res.value == pytest.approx(-ref.fun, abs=1e-7)
    # primal feasibility of the vertex itself
    assert np.all(res.x >= lo - 1e-8) and np.all(res.x <= hi + 1e-8)
    if m_eq:
        assert np.allclose(a_eq @ res.x, b_eq, atol=1e-7)
    if m_ub:
        assert np.all(a_ub @ res.x <= b_ub + 1e-7)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_duals_certify_optimality(seed):
    """Strong duality: c'x* equals b'y* once bound multipliers are folded in."""
    rng = np.random.default_rng(seed + 17)
    n = int(rng.integers(2, 6))
    m = int(rng.integers(1, 4))
    c = rng.normal(size=n)
    lo, hi = -np.ones(n), np.ones(n)
    A = rng.normal(size=(m, n))
    b = A @ rng.uniform(lo, hi)
    res = solve_lp(c, a_eq=A, b_eq=b, lo=lo, hi=hi)
    # reduced costs: d = c - A'y; at lo when d < 0, at hi when d > 0
    d = c - A.T @ res.duals_eq
    gap = res.value - (res.duals_eq @ b
                       + np.maximum(d, 0) @ hi + np.minimum(d, 0) @ lo)
    assert abs(gap) < 1e-7


# ---------------------------------------------------------------------------
# Byte equality with the reference simplex: the same pivots, the same bits

def _random_lp(seed):
    """An LP from one of three families: small integers, whose ties and
    degenerate vertices exercise the tie rules; the same integers moved by
    about 1e-11, which puts ratios on both sides of the 1e-12 tie band; and
    Gaussian data.  One draw in eight is large enough to pass the pivot at
    which the basic values are refreshed.  Bounds may be infinite or empty;
    right-hand sides are anchored at a point inside the box (feasible) or
    drawn freely (often infeasible)."""
    rng = np.random.default_rng(seed)
    if rng.random() < 0.125:
        n, m_eq, m_ub = (int(v) for v in rng.integers((30, 0, 10), (61, 9, 31)))
    else:
        n, m_eq, m_ub = (int(v) for v in rng.integers((1, 0, 0), (9, 4, 6)))
    family = rng.integers(3)

    def draw(*shape):
        if family == 2:
            return rng.normal(size=shape)
        values = rng.integers(-2, 3, size=shape).astype(float)
        if family == 1:
            values += rng.normal(scale=1e-11, size=shape)
        return values

    lo = rng.integers(-2, 2, size=n).astype(float)
    hi = lo + rng.integers(0, 3, size=n)
    hi[rng.random(n) < 0.02] -= 3.0
    lo[rng.random(n) < 0.2] = -np.inf
    hi[rng.random(n) < 0.2] = np.inf
    a_eq, a_ub = draw(m_eq, n), draw(m_ub, n)
    if rng.random() < 0.7:
        x0 = np.clip(draw(n), np.fmax(lo, -3.0), np.fmin(hi, 3.0))
        b_eq = a_eq @ x0
        b_ub = a_ub @ x0 + np.round(rng.uniform(0.0, 1.0, m_ub))
    else:
        b_eq, b_ub = draw(m_eq), draw(m_ub)
    return (draw(n), a_eq if m_eq else None, b_eq if m_eq else None,
            a_ub if m_ub else None, b_ub if m_ub else None, lo, hi), {}


def _same_as_reference(args, kwargs):
    outcome = simplex_outcome(solve_lp, args, kwargs)
    assert outcome == simplex_outcome(reference_simplex, args, kwargs)
    return outcome


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1).map(_random_lp))
@example(_BEALE)
def test_matches_reference_simplex_bytes(case):
    _same_as_reference(*case)


def test_reference_sweep_reaches_every_outcome():
    """A fixed sweep of the same draws meets every outcome of the solver,
    and LPs long enough that one phase refreshes its basic values."""
    kinds = set()
    for seed in range(1500):
        outcome = _same_as_reference(*_random_lp(seed))
        if outcome[0] in (SimplexError, InfeasibleError):
            kinds.add(outcome[1])
        else:
            kinds.add("pivoted" if outcome[-1] else "no pivot")
            if outcome[-1] > 2 * lp._REFRESH_EVERY:
                kinds.add("refreshed")
    assert kinds == {"pivoted", "no pivot", "refreshed", "unbounded",
                     "no feasible point", "empty variable bound"}


@pytest.mark.parametrize("K", [1, 2, 4, 24])
def test_corpus_programs_replay_on_reference(monkeypatch, K):
    """Every LP that `approximate_equilibria` and the brute-force welfare
    oracle solve on corpus markets: convexified relaxations, branch-and-bound
    nodes, demand-set LPs and one residual program per indicator pattern."""
    markets = [random_market(np.random.default_rng((61, K, i)), K=K, max_blocks=5)
               for i in range(12)]

    def run():
        for market in markets:
            equilibria.approximate_equilibria(market)
            try:
                brute_force_welfare(market)
            except InfeasibleError:
                pass

    calls = record_simplex_calls(monkeypatch, [lp], run)
    assert len(calls) >= 60
    for args, kwargs, outcome in calls:
        assert simplex_outcome(reference_simplex, args, kwargs) == outcome


@pytest.mark.parametrize("state", [
    {}, dict(divide="raise", over="warn", under="ignore", invalid="print")])
def test_numpy_error_state_does_not_leak(state):
    """The error state `solve_lp` enters around its pivot loops is the
    caller's again after a return and after each error raised inside them."""
    with np.errstate(**state):
        before = np.geterr(), np.geterrcall()
        solve_lp([2.0, 1.0], a_ub=[[1, 1], [1, 0]], b_ub=[3, 2],
                 lo=[0, 0], hi=[10, 10])
        assert (np.geterr(), np.geterrcall()) == before
        with pytest.raises(InfeasibleError, match="no feasible point"):
            solve_lp([1.0], a_eq=[[1.0]], b_eq=[5.0], lo=[0.0], hi=[1.0])
        assert (np.geterr(), np.geterrcall()) == before
        with pytest.raises(SimplexError, match="unbounded"):
            solve_lp([1.0, 0.0], a_ub=[[0.0, 1.0]], b_ub=[1.0], lo=[0, 0],
                     hi=[np.inf, 1])
        assert (np.geterr(), np.geterrcall()) == before


@pytest.mark.parametrize("B", [np.zeros((2, 2)), np.array([[1.0, 2.0], [2.0, 4.0]])])
def test_singular_basis_error_matches_reference(B):
    rhs = np.ones(2)
    with pytest.raises(SimplexError) as expected:
        ReferenceState._basic_solve(None, B, rhs)
    state = lp._State(B, rhs, None, None, None, None, 0)
    with np.errstate(call=state.note_invalid, invalid="call"):
        with pytest.raises(SimplexError, match=r"singular basis \(cond=") as got:
            state._solve(B, rhs)
    assert str(got.value) == str(expected.value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("data", [
    dict(a_eq=[[1.0, 1.0]], b_eq=[np.inf]),
    dict(a_eq=[[1.0, 1.0]], b_eq=[np.nan]),
    dict(a_ub=[[np.inf, 1.0]], b_ub=[1.0]),
    dict(a_ub=[[1.0, 1.0]], b_ub=[1.0], lo=[-np.inf, 0.0], hi=[-np.inf, 1.0]),
    dict(a_ub=[[1.0, 1.0]], b_ub=[1.0], lo=[np.nan, 0.0], hi=[1.0, 1.0]),
])
@pytest.mark.parametrize("c", [[1.0, 1.0], [np.nan, 1.0], [np.inf, 1.0]])
def test_non_finite_data_matches_reference(c, data):
    """An invalid operation outside a basis solve is no singular basis."""
    _same_as_reference((c,), data)
