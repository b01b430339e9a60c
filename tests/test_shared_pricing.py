"""One solved convexified LP shared by every analysis at lambda*.

`approximate_equilibria` must build the program once, solve the root
relaxation once, build one demand set and one nonconvexity measure per
agent, enumerate each block component's indicator patterns once (for the
best surplus and the demand set alike), test the LP bundle's containment
once per agent, and give exactly what the standalone allocation functions
give.
"""

import dataclasses
import sys
from collections import Counter

import numpy as np
import pytest

from equilab import convexify, demand, geometry, model
from equilab.config import DEFAULT_TOL
from equilab.convexify import ConvexifiedProgram, priced_at, solve_lp
from equilab.demand import DemandSet, agent_best_surplus, demand_set, nonconvexity
from equilab.equilibria import (approximate_equilibria, balanced_lp_allocation,
                                convex_hull_pricing, demand_snapped_allocation,
                                detect_equilibrium, lost_opportunity_cost)
from equilab.model import block_components
from equilab.random_markets import (SimpleRandomMarketSpec, certified_equilibrium,
                                    draw_costs, gen_simple_random_market,
                                    marginal_supplier_is_convex)

from market_corpus import random_market

DIMS = (1, 2, 4, 24)
CORPUS = 20


def corpus_market(i):
    return random_market(np.random.default_rng((4242, i)), K=DIMS[i % len(DIMS)],
                         max_blocks=8)


@pytest.fixture(params=["four-agent"] + list(range(CORPUS)))
def market(request, four_agent_market):
    if request.param == "four-agent":
        return four_agent_market
    return corpus_market(request.param)


def count_calls(monkeypatch, counts: Counter, name: str, fn, when=None):
    """Count calls of `fn` through every equilab module binding of it."""
    def counted(*args, **kwargs):
        if when is None or when(*args, **kwargs):
            counts[name] += 1
        return fn(*args, **kwargs)
    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] != "equilab" or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, key, counted)
    return counted


def test_one_build_solve_demand_set_and_measure_per_agent(monkeypatch, market):
    counts: Counter = Counter()
    count_calls(monkeypatch, counts, "build", convexify.build_convexified)
    count_calls(monkeypatch, counts, "demand_set", demand.demand_set)
    count_calls(monkeypatch, counts, "nonconvexity", demand.nonconvexity)
    monkeypatch.setattr(ConvexifiedProgram, "solve_raw", count_calls(
        monkeypatch, counts, "root_solve", ConvexifiedProgram.solve_raw,
        when=lambda program, overrides=None: not overrides))

    approximate_equilibria(market)

    n = len(market.agents)
    assert counts == Counter(build=1, root_solve=1, demand_set=n, nonconvexity=n)


def test_one_best_surplus_and_lp_containment_per_agent(monkeypatch, market):
    # one pattern pass per block component gives both the best surplus and
    # the demand set
    components = sum(len(block_components(a.block_bids)) for a in market.agents)
    counts: Counter = Counter()
    count_calls(monkeypatch, counts, "patterns", model.iter_patterns)
    monkeypatch.setattr(DemandSet, "contains", count_calls(
        monkeypatch, counts, "contains", DemandSet.contains))

    res = approximate_equilibria(market)

    dual = res.dual
    moved = sum(not np.array_equal(res.pricing.allocation.bundle(market, agent),
                                   dual.lp_bundle(i))
                for i, agent in enumerate(market.agents))
    assert counts["patterns"] == components
    assert counts["contains"] == len(market.agents) + moved

    counts.clear()
    certified_equilibrium(market)
    assert counts["patterns"] == components


def test_monte_carlo_certificate_builds_no_pieces(monkeypatch):
    # every one-commodity demand set lies on its carrier line, so the
    # certificate tests containment without a piece, a dedup or a nearest point
    spec = SimpleRandomMarketSpec(6, 3, seed=4)
    counts: Counter = Counter()
    monkeypatch.setattr(geometry.Piece, "of", count_calls(
        monkeypatch, counts, "piece", geometry.Piece.of))
    count_calls(monkeypatch, counts, "dedup", demand._dedup_pieces)
    count_calls(monkeypatch, counts, "union_nearest", geometry.union_nearest)

    verdicts = [certified_equilibrium(gen_simple_random_market(spec, t)) for t in range(20)]

    assert counts == Counter()
    assert verdicts == [marginal_supplier_is_convex(spec, draw_costs(spec, t))
                        for t in range(20)]
    assert 0 < sum(verdicts) < 20


def test_one_canonical_form_per_pattern(monkeypatch, market):
    # the carrier line and the pieces read each pattern's canonical
    # generators from one pass
    counts: Counter = Counter()
    count_calls(monkeypatch, counts, "canonical", geometry.canonical_generators)
    sets = []

    def recorded(*args, **kwargs):
        sets.append(demand_set(*args, **kwargs))
        return sets[-1]

    monkeypatch.setattr(convexify, "demand_set", recorded)

    approximate_equilibria(market)

    shaped = [ds for ds in sets if {"line", "pieces"} & vars(ds).keys()]
    assert shaped
    assert counts["canonical"] == sum(len(ds.patterns) for ds in shaped)


def test_one_pattern_pass_per_component_at_other_prices(monkeypatch, market):
    # at prices other than lambda* (a uniform-price clearing's, say) one
    # PricedMarket gives the certificate and the lost opportunity cost
    components = sum(len(block_components(a.block_bids)) for a in market.agents)
    lam = solve_lp(market).lambda_star + 0.25
    allocation = convex_hull_pricing(market).allocation
    want = (detect_equilibrium(market, lam, allocation),
            lost_opportunity_cost(market, allocation, lam))
    counts: Counter = Counter()
    count_calls(monkeypatch, counts, "patterns", model.iter_patterns)

    priced = priced_at(market, lam)
    got = (detect_equilibrium(market, priced, allocation),
           lost_opportunity_cost(market, allocation, priced))

    assert got == want
    assert counts["patterns"] == components


def test_duality_check_seeds_best_surplus(market):
    dual = solve_lp(market)
    assert dual.dual_objective == convexify.dual_value(market, dual.lambda_star,
                                                       DEFAULT_TOL)
    for i, agent in enumerate(market.agents):
        assert dual.best_surplus(i) == agent_best_surplus(agent, dual.lambda_star,
                                                          DEFAULT_TOL)


def test_certificate_same_with_dual_or_prices(market):
    dual = solve_lp(market)
    for allocation in (dual.allocation, convex_hull_pricing(market, dual=dual).allocation):
        assert (detect_equilibrium(market, dual, allocation)
                == detect_equilibrium(market, dual.lambda_star, allocation))


def assert_same(a, b, path="result"):
    """Field-by-field equality with ==; arrays must match exactly."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b), path
        for f in dataclasses.fields(a):
            if f.compare:
                assert_same(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert np.array_equal(a, b), path
    else:
        assert a == b, path


def test_bundle_equals_standalone_functions(market):
    res = approximate_equilibria(market)
    assert_same(res.lp_result, balanced_lp_allocation(market), "lp_result")
    assert_same(res.snapped, demand_snapped_allocation(market), "snapped")
    assert_same(res.pricing, convex_hull_pricing(market), "pricing")
    assert_same(res.dual, solve_lp(market), "dual")


def test_caches_keyed_by_tolerance_and_norm(four_agent_market):
    market = four_agent_market
    dual = solve_lp(market)
    K = market.num_commodities
    for i, agent in enumerate(market.agents):
        x = dual.allocation.bundle(market, agent)
        assert np.array_equal(dual.lp_bundle(i), x)
        for tol in (DEFAULT_TOL, 1e-3):
            ds = dual.demand(i, tol)
            assert ds.tol == tol
            assert ds.pieces == demand_set(agent, dual.lambda_star, K, tol).pieces
            for norm in ("l1", "l2", "linf"):
                assert dual.measure(i, tol, norm) == nonconvexity(ds, norm, probes=(x,))
        assert dual.demand(i, DEFAULT_TOL) is dual.demand(i)
        assert dual.demand(i, 1e-3) is not dual.demand(i)


def test_probing_at_the_lp_bundle_never_lowers_the_measure(market):
    """The solved market measures the same sets as the market at its prices,
    with each LP bundle added as a candidate."""
    dual = solve_lp(market)
    priced = priced_at(market, dual.lambda_star)
    for i in range(len(market.agents)):
        for norm in ("l1", "l2", "linf"):
            assert dual.measure(i, norm=norm) >= priced.measure(i, norm=norm)
