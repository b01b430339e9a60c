"""Exact welfare search versus indicator-pattern brute force."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equilab import welfare
from equilab.convexify import solve_lp
from equilab.equilibria import approximate_equilibria
from equilab.market_io import load_market
from equilab.model import Agent, BlockBid, HourlyCurveBid, Market
from equilab.welfare import NodeBudgetExceeded, solve_welfare

from conftest import FIXTURES
from market_corpus import random_market, split_group_market
from market_helpers import imbalance, total_value
from reference_oracles import acceptance_feasible, brute_force_welfare


def test_reference_welfare(four_agent_market):
    sol = solve_welfare(solve_lp(four_agent_market))
    assert sol.welfare == pytest.approx(6.0)
    assert sol.gap <= 1e-6
    acc = sol.allocation
    assert acc["b1"] == pytest.approx(1.0)
    assert acc["b4"] == pytest.approx(1.0)
    assert acc["c2"] == pytest.approx(1.0)
    assert acc["c3"] == pytest.approx(-2.0)


def test_reference_brute_force_agrees(four_agent_market):
    a = solve_welfare(solve_lp(four_agent_market))
    b = brute_force_welfare(four_agent_market)
    assert a.welfare == pytest.approx(b.welfare, abs=1e-9)


def test_exact_below_relaxation(four_agent_market):
    exact = solve_welfare(solve_lp(four_agent_market)).welfare
    relaxed = solve_lp(four_agent_market).primal_value
    assert exact <= relaxed + 1e-9
    assert relaxed - exact == pytest.approx(1.0)


def test_mar_forces_all_or_floor():
    # seller covers [0, 4]; buyer block of 4 at price 20 with floor 0.75
    mk = Market(1, (
        Agent("s", (HourlyCurveBid("c", 0, ((3.0, -4.0),)),)),
        Agent("b", (BlockBid("b", 20.0, (4.0,), mar=0.75),)),
    ))
    sol = solve_welfare(solve_lp(mk))
    assert sol.welfare == pytest.approx(8.0)
    assert sol.allocation["b"] == pytest.approx(1.0)


def test_rejecting_block_can_win():
    # paradoxical block: fractional LP likes it, integral rejection is better
    mk = Market(1, (
        Agent("s", (HourlyCurveBid("c", 0, ((1.0, -1.0), (8.0, -3.0))),)),
        Agent("b", (BlockBid("b", 10.0, (2.0,)),)),
        Agent("b2", (HourlyCurveBid("c2", 0, ((6.0, 1.0),)),)),
    ))
    sol = solve_welfare(solve_lp(mk))
    ref = brute_force_welfare(mk)
    assert sol.welfare == pytest.approx(ref.welfare, abs=1e-9)


def test_node_budget_raises():
    # odd seller capacity against even blocks keeps the relaxation fractional
    agents = [Agent("s", (HourlyCurveBid("c", 0, ((5.0, -9.0),)),))]
    for i in range(10):
        agents.append(Agent(f"a{i}", (BlockBid(f"b{i}", 11.0 + i * 0.01, (2.0,)),)))
    mk = Market(1, tuple(agents))
    with pytest.raises(NodeBudgetExceeded) as exc:
        solve_welfare(solve_lp(mk), node_budget=1)
    assert exc.value.best is None or exc.value.best.welfare <= 1e9


def test_solution_is_acceptance_feasible(four_agent_market):
    sol = solve_welfare(solve_lp(four_agent_market))
    for agent in four_agent_market.agents:
        acc = {b.bid_id: sol.allocation[b.bid_id] for b in agent.bids}
        assert acceptance_feasible(agent, acc)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    market = random_market(rng, K=int(rng.integers(1, 3)), max_blocks=6)
    a = solve_welfare(solve_lp(market))
    b = brute_force_welfare(market)
    assert a.welfare == pytest.approx(b.welfare, abs=1e-7)
    assert a.gap <= 1e-6
    # both allocations balance and respect indicator semantics
    for sol in (a, b):
        assert np.allclose(imbalance(sol.allocation, market), 0.0, atol=1e-7)
        for agent in market.agents:
            acc = {bid.bid_id: sol.allocation[bid.bid_id] for bid in agent.bids}
            assert acceptance_feasible(agent, acc, tol=1e-7)
        assert total_value(sol.allocation, market) == pytest.approx(sol.welfare, abs=1e-7)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_structured_blocks_match_brute_force(seed):
    """Groups, parent links, and loops all survive the search."""
    rng = np.random.default_rng(seed)
    market = random_market(rng, K=1, max_blocks=8, structured=True)
    a = solve_welfare(solve_lp(market))
    b = brute_force_welfare(market)
    assert a.welfare == pytest.approx(b.welfare, abs=1e-7)


def _count_branches(monkeypatch) -> dict:
    """Count, per node, which branching rule `solve_welfare` applies."""
    fired = {"mar": 0, "group": 0}
    implied = welfare._implied_violations

    def counted(*args):
        mar_viol, group_viol = implied(*args)
        if mar_viol:
            fired["mar"] += 1
        elif group_viol is not None:
            fired["group"] += 1
        return mar_viol, group_viol

    monkeypatch.setattr(welfare, "_implied_violations", counted)
    return fired


def test_group_branch_matches_brute_force(monkeypatch):
    fired = _count_branches(monkeypatch)
    for i in range(30):
        market = split_group_market(np.random.default_rng((8, i)), K=(1, 2, 4)[i % 3])
        before = fired["group"]
        a = solve_welfare(solve_lp(market))
        assert fired["group"] > before
        assert a.welfare == pytest.approx(brute_force_welfare(market).welfare, abs=1e-7)
        assert a.gap <= 1e-6
        for agent in market.agents:
            acc = {bid.bid_id: a.allocation[bid.bid_id] for bid in agent.bids}
            assert acceptance_feasible(agent, acc, tol=1e-7)


def _equivalence_markets(four_agent_market):
    yield four_agent_market
    yield load_market(FIXTURES / "structured.csv")
    # the relaxation takes half of each exclusive block, both above their
    # floors: only the group rule can branch here, and no corpus market tried
    # reached that rule
    yield Market(1, (
        Agent("s", (HourlyCurveBid("c", 0, ((1.0, -2.5),)),)),
        Agent("b", (BlockBid("b1", 10.0, (2.0,), mar=0.25, group="g"),
                    BlockBid("b2", 12.0, (3.0,), mar=0.25, group="g"))),
    ))
    for i in range(40):
        K = (1, 2, 4, 24)[i % 4]
        yield random_market(np.random.default_rng((11, i)), K=K, structured=True)


def test_fresh_and_shared_relaxation_roots_agree(monkeypatch, four_agent_market):
    # a freshly solved relaxation and the one `approximate_equilibria` shares
    # with its other analyses start the same search, and both branching
    # rules run over the sample
    fired = _count_branches(monkeypatch)
    for market in _equivalence_markets(four_agent_market):
        a = solve_welfare(solve_lp(market))
        b = approximate_equilibria(market).pricing.exact
        assert a.welfare == b.welfare
        assert a.allocation == b.allocation
        assert (a.nodes, a.gap) == (b.nodes, b.gap)
    assert fired["mar"] > 0 and fired["group"] > 0
