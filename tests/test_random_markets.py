"""Synthetic market families and the Monte Carlo equilibrium study."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equilab.convexify import solve_lp
from equilab.equilibria import convex_hull_pricing
from equilab.model import validate_market
from equilab.random_markets import (SimpleRandomMarketSpec,
                                    certified_equilibrium, draw_costs,
                                    gen_simple_random_market,
                                    marginal_supplier_is_convex,
                                    market_from_costs,
                                    monte_carlo_equilibrium_probability)

from market_helpers import agent_demand_set, gen_tied_cost_market
from reference_oracles import aggregate_demand_convexity_check


def test_spec_validation():
    with pytest.raises(ValueError):
        SimpleRandomMarketSpec(n=2, k=1)
    # demand must lie strictly inside the n suppliers' total capacity 2n
    for n, demand in [(3, 7.0), (3, 6.0), (3, 0.0), (3, -1.0), (1, 2.0)]:
        with pytest.raises(ValueError, match="demand"):
            SimpleRandomMarketSpec(n=n, k=1, demand=demand)
    for n, demand in [(2, 3.0), (1, 1.5), (3, 5.999)]:
        spec = SimpleRandomMarketSpec(n=n, k=1, demand=demand)
        marginal_supplier_is_convex(spec, draw_costs(spec))
    with pytest.raises(ValueError):
        SimpleRandomMarketSpec(n=4, k=5)
    spec = SimpleRandomMarketSpec(n=4, k=2)
    assert spec.reservation_price == pytest.approx(20.0)


def test_spec_rejects_what_cannot_be_drawn():
    # the spec is checked when it is built, before any cost is drawn: beyond
    # 1000 suppliers a draw without near-ties almost never comes, and the
    # trial seeds need a non-negative seed
    SimpleRandomMarketSpec(n=1000, k=1)
    with pytest.raises(ValueError, match="exceeds 1000"):
        SimpleRandomMarketSpec(n=10_000, k=1)
    SimpleRandomMarketSpec(n=6, k=3, seed=0)
    with pytest.raises(ValueError, match="seed -1"):
        SimpleRandomMarketSpec(n=6, k=3, seed=-1)


def test_costs_deterministic_per_trial():
    spec = SimpleRandomMarketSpec(n=5, k=2, seed=11)
    a = draw_costs(spec, 3)
    b = draw_costs(spec, 3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, draw_costs(spec, 4))
    # a different seed reshuffles every trial
    other = SimpleRandomMarketSpec(n=5, k=2, seed=12)
    assert not np.array_equal(a, draw_costs(other, 3))


def test_costs_have_no_near_ties():
    spec = SimpleRandomMarketSpec(n=8, k=4, seed=0)
    for trial in range(50):
        c = np.sort(draw_costs(spec, trial))
        assert np.min(np.diff(c)) > 1e-6 * 10.0


def test_generated_market_shape():
    spec = SimpleRandomMarketSpec(n=4, k=2, seed=1)
    market = gen_simple_random_market(spec)
    assert validate_market(market).ok
    assert len(market.agents) == 5
    kinds = [a.agent_id[:4] for a in market.agents]
    assert kinds == ["dema", "conv", "conv", "bin2", "bin3"]
    # binary suppliers are all-or-nothing sells of the full capacity
    bin2 = market.agents[3].bids[0]
    assert bin2.q[0] == pytest.approx(-2.0)
    assert bin2.mar == 1.0


def test_analytic_verdict_exact():
    spec = SimpleRandomMarketSpec(n=4, k=2, demand=5.0)
    # third cheapest is index 2 -> binary -> no equilibrium
    assert not marginal_supplier_is_convex(spec, [1.0, 2.0, 3.0, 9.0])
    # third cheapest is index 1 -> convex -> equilibrium
    assert marginal_supplier_is_convex(spec, [1.0, 5.0, 3.0, 9.0])


@pytest.mark.parametrize("demand", [2.0, 4.0, 6.0])
def test_verdict_at_whole_multiples_of_capacity(demand):
    """No supplier is marginal, so every market has an equilibrium."""
    for n, k in [(4, 0), (4, 1), (5, 3), (6, 6)]:
        spec = SimpleRandomMarketSpec(n=n, k=k, demand=demand, seed=5)
        for trial in range(8):
            costs = draw_costs(spec, trial)
            verdict = marginal_supplier_is_convex(spec, costs)
            assert verdict
            assert certified_equilibrium(market_from_costs(spec, costs)) == verdict


def test_pipeline_agrees_with_analytic_verdict():
    spec = SimpleRandomMarketSpec(n=5, k=3, seed=7)
    for trial in range(60):
        costs = draw_costs(spec, trial)
        market = market_from_costs(spec, costs)
        assert certified_equilibrium(market) == marginal_supplier_is_convex(spec, costs)


def test_certified_matches_pricing_gap():
    spec = SimpleRandomMarketSpec(n=4, k=2, seed=3)
    for trial in range(20):
        market = gen_simple_random_market(spec, trial)
        pricing = convex_hull_pricing(solve_lp(market))
        assert certified_equilibrium(market) == (pricing.total_loc <= 1e-7)


def test_degenerate_mixes():
    all_convex = SimpleRandomMarketSpec(n=4, k=4, seed=2)
    res = monte_carlo_equilibrium_probability(all_convex, 40)
    assert res.estimate == 1.0
    none_convex = SimpleRandomMarketSpec(n=4, k=0, seed=2)
    res = monte_carlo_equilibrium_probability(none_convex, 40)
    assert res.estimate == 0.0


def test_monte_carlo_result_fields():
    spec = SimpleRandomMarketSpec(n=4, k=2, seed=5)
    res = monte_carlo_equilibrium_probability(spec, 200)
    assert res.trials == 200
    assert res.successes == round(res.estimate * 200)
    assert 0.0 <= res.ci_lo <= res.estimate <= res.ci_hi <= 1.0
    # estimate should be in the right neighborhood of k/n = 0.5
    assert abs(res.estimate - 0.5) < 0.15
    with pytest.raises(ValueError):
        monte_carlo_equilibrium_probability(spec, 0)


def test_monte_carlo_deterministic():
    spec = SimpleRandomMarketSpec(n=5, k=2, seed=9)
    a = monte_carlo_equilibrium_probability(spec, 60)
    b = monte_carlo_equilibrium_probability(spec, 60)
    assert a.successes == b.successes


# sha256 of the bytes below, recorded before the simplex, the compiled
# market and the carrier lines were last made faster.
TRIAL_FLOATS_SHA256 = "14b7019a1b305f463cbb128a271b3224401189f77bf010f375dc47a9f877bbd0"


def test_trial_floats_keep_their_bytes():
    """Every float a Monte Carlo trial computes on its way to a verdict:
    lambda*, the LP's column values, the primal value and dual objective,
    each agent's best surplus and line arrays, the LP bundles and the
    containment flags, hashed over n = 5, 10, 20, 40, five seeds and five
    trials each.  The success counts alone miss a float that moves without
    flipping a verdict."""
    h = hashlib.sha256()
    for n in (5, 10, 20, 40):
        for seed in range(5):
            spec = SimpleRandomMarketSpec(n, max(1, n // 3), seed=seed)
            for trial in range(5):
                dual = solve_lp(gen_simple_random_market(spec, trial))
                bundles = dual.lp_bundles()
                for v in (dual.lambda_star, dual.var_values, dual.best_surplus,
                          dual.line_origin, dual.line_unit, dual.line_intervals, bundles):
                    h.update(np.asarray(v, dtype=float).tobytes())
                h.update(repr((dual.primal_value, dual.dual_objective,
                               dual.containment(bundles))).encode())
    assert h.hexdigest() == TRIAL_FLOATS_SHA256


# ---------------------------------------------------------------------------
# Tied-cost family

def test_tied_cost_validation():
    with pytest.raises(ValueError):
        gen_tied_cost_market(0, 0, 1.0)
    with pytest.raises(ValueError):
        gen_tied_cost_market(1, 1, 4.0)   # demand = total capacity
    with pytest.raises(ValueError):
        gen_tied_cost_market(1, 0, 1.0, cost=5.0, reservation=5.0)


@pytest.mark.parametrize("n_binary", [1, 2, 5])
def test_tied_cost_aggregate_is_convex(n_binary):
    # the LP-vertex certificate can miss these (ties let the vertex split a
    # binary supplier) but the aggregate route must prove the equilibrium
    market = gen_tied_cost_market(1, n_binary, demand=n_binary + 1.0)
    chk = aggregate_demand_convexity_check(solve_lp(market))
    assert chk.convex
    # one convex supplier fills the gaps: supply spans [0, 2(N+1)] jointly
    assert chk.certificate is not None and chk.certificate.is_equilibrium
    assert chk.equilibrium is not None


def test_tied_cost_supply_interval():
    market = gen_tied_cost_market(1, 2, demand=3.0)
    lam = [3.0]
    total_lo = total_hi = 0.0
    for agent in market.agents[1:]:
        ds = agent_demand_set(agent, lam)
        vs = ds.vertices
        total_lo += float(np.min(vs))
        total_hi += float(np.max(vs))
    assert total_lo == pytest.approx(-6.0)
    assert total_hi == pytest.approx(0.0)


def test_without_convex_setter_no_equilibrium():
    # all-binary tie with fractional residual demand cannot balance exactly
    market = gen_tied_cost_market(0, 3, demand=3.0)
    assert not certified_equilibrium(market)
    dual = solve_lp(market)
    chk = aggregate_demand_convexity_check(dual)
    assert not chk.convex
    # hull pricing decides existence exactly: a positive total lost
    # opportunity cost means no equilibrium at any prices
    pricing = convex_hull_pricing(dual)
    assert pricing.total_loc > 0.0
    assert not pricing.certificate.is_equilibrium


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 8), st.integers(0, 8), st.integers(0, 2 ** 20))
def test_verdict_equivalence_property(n, k_raw, seed):
    k = min(k_raw, n)
    spec = SimpleRandomMarketSpec(n=n, k=k, seed=seed)
    costs = draw_costs(spec, 0)
    market = market_from_costs(spec, costs)
    assert certified_equilibrium(market) == marginal_supplier_is_convex(spec, costs)
