"""Convexified welfare LP: structure, duality, scipy oracle."""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from equilab.convexify import PricedMarket, build_convexified, dual_value, solve_lp
from equilab.model import (Agent, BlockBid, HourlyCurveBid, Market,
                           validate_market)

from market_corpus import random_market, random_price_vector
from market_helpers import imbalance


def test_reference_program_shape(four_agent_market):
    prog = build_convexified(four_agent_market)
    # two relaxed blocks plus one step per curve
    assert prog.objective.size == 4
    assert prog.balance.shape == (1, 4)
    assert prog.a_ub.shape[0] == 0
    cm = prog.compiled
    assert [b.bid_id for b in cm.blocks] == ["b1", "b4"]
    assert [c.bid_id for c in cm.curves] == ["c2", "c3"]
    # blocks relax to [0, 1] regardless of their minimum acceptance ratio
    for col in cm.block_col.tolist():
        assert prog.lo[col] == 0.0 and prog.hi[col] == 1.0


def test_reference_solution(four_agent_market):
    sol = solve_lp(four_agent_market)
    assert sol.primal_value == pytest.approx(7.0)
    assert sol.dual_objective == pytest.approx(7.0)
    assert sol.lambda_star[0] == pytest.approx(3.0)
    assert np.allclose(imbalance(sol.allocation, four_agent_market), [0.0], atol=1e-9)


def test_reference_dual_function(four_agent_market):
    # dual function values away from the optimum dominate the primal
    assert dual_value(PricedMarket(four_agent_market, [3.0])) == pytest.approx(7.0)
    assert dual_value(PricedMarket(four_agent_market, [0.0])) == pytest.approx(14.0)
    assert dual_value(PricedMarket(four_agent_market, [10.0])) == pytest.approx(32.0)
    for lam in ([1.0], [2.5], [4.0], [6.0]):
        assert dual_value(PricedMarket(four_agent_market, lam)) >= 7.0 - 1e-9


def test_group_rows():
    mk = Market(1, (
        Agent("s", (HourlyCurveBid("c", 0, ((1.0, -4.0),)),)),
        Agent("b", (
            BlockBid("b1", 6.0, (2.0,), group="g"),
            BlockBid("b2", 9.0, (3.0,), group="g"),
        )),
    ))
    assert validate_market(mk).ok
    prog = build_convexified(mk)
    assert prog.a_ub.shape[0] == 1
    assert prog.b_ub[0] == pytest.approx(1.0)
    sol = solve_lp(mk)
    # only one group member may clear; b2 earns 9 - 3 = 6 > 4 = 6 - 2
    assert sol.primal_value == pytest.approx(6.0)
    assert sol.allocation["b2"] == pytest.approx(1.0)
    assert sol.allocation["b1"] == pytest.approx(0.0)


def test_parent_link_rows():
    mk = Market(1, (
        Agent("s", (HourlyCurveBid("c", 0, ((0.0, -4.0),)),)),
        Agent("b", (
            BlockBid("p", -1.0, (1.0,)),
            BlockBid("k", 5.0, (1.0,), parent="p"),
        )),
    ))
    prog = build_convexified(mk)
    assert prog.a_ub.shape[0] == 1
    sol = solve_lp(mk)
    # child worth 5 drags the losing parent in; pair nets 4
    assert sol.primal_value == pytest.approx(4.0)
    assert sol.allocation["p"] == pytest.approx(1.0)
    assert sol.allocation["k"] == pytest.approx(1.0)


def test_loop_rows_force_equal_ratios():
    mk = Market(1, (
        Agent("s", (HourlyCurveBid("c", 0, ((0.0, -4.0),)),)),
        Agent("b", (
            BlockBid("x", 3.0, (1.0,), loop="y"),
            BlockBid("y", -1.0, (1.0,), loop="x"),
        )),
    ))
    prog = build_convexified(mk)
    assert prog.a_ub.shape[0] == 2
    sol = solve_lp(mk)
    assert sol.allocation["x"] == pytest.approx(sol.allocation["y"], abs=1e-9)
    assert sol.primal_value == pytest.approx(2.0)


def test_relaxation_upper_bounds_blocks(four_agent_market):
    # fractional acceptance of the big buy block is allowed in the relaxation
    sol = solve_lp(four_agent_market)
    assert 0.0 <= sol.allocation["b1"] <= 1.0
    assert sol.primal_value >= 6.0  # above the best integral welfare


def _scipy_value(prog):
    n = prog.objective.size
    res = scipy.optimize.linprog(
        -prog.objective,
        A_eq=prog.balance, b_eq=np.zeros(prog.balance.shape[0]),
        A_ub=prog.a_ub if prog.a_ub.shape[0] else None,
        b_ub=prog.b_ub if prog.a_ub.shape[0] else None,
        bounds=list(zip(prog.lo, prog.hi)), method="highs")
    assert res.status == 0
    return -res.fun


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_matches_scipy_on_random_markets(seed):
    rng = np.random.default_rng(seed)
    market = random_market(rng, K=int(rng.integers(1, 3)))
    sol = solve_lp(market)
    assert sol.primal_value == pytest.approx(_scipy_value(sol.program), abs=1e-7)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_dual_dominates_everywhere(seed):
    """Weak duality: the dual function is >= the primal optimum at any price."""
    rng = np.random.default_rng(seed)
    market = random_market(rng, K=1)
    sol = solve_lp(market)
    for _ in range(5):
        lam = random_price_vector(rng, market)
        assert dual_value(PricedMarket(market, lam)) >= sol.primal_value - 1e-8


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_allocation_is_feasible_for_relaxation(seed):
    rng = np.random.default_rng(seed)
    market = random_market(rng, K=1)
    sol = solve_lp(market)
    prog = sol.program
    x = sol.var_values
    assert np.all(x >= prog.lo - 1e-8) and np.all(x <= prog.hi + 1e-8)
    assert np.allclose(prog.balance @ x, 0.0, atol=1e-7)
    if prog.a_ub.shape[0]:
        assert np.all(prog.a_ub @ x <= prog.b_ub + 1e-8)
    assert np.allclose(imbalance(sol.allocation, market), 0.0, atol=1e-7)
