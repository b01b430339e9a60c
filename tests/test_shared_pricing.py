"""One solved convexified LP shared by every analysis at lambda*.

`approximate_equilibria` must build the program once, solve the root
relaxation once, build one demand set and one nonconvexity measure per
agent, enumerate each block component's indicator patterns once per market
(`Market.compiled`, for the best surplus and the demand set alike, at any
prices), test the LP bundle's containment
once per agent, and give exactly what the standalone allocation functions
give.
"""

import dataclasses
import math
import sys
from collections import Counter

import numpy as np
import pytest

from equilab import convexify, demand, geometry, model
from equilab.config import DEFAULT_NORM, DEFAULT_TOL
from equilab.convexify import ConvexifiedProgram, PricedMarket, solve_lp
from equilab.demand import DemandSet, agent_best_surplus, demand_set, nonconvexity
from equilab.equilibria import (approximate_equilibria, balanced_lp_allocation,
                                convex_hull_pricing, demand_snapped_allocation,
                                detect_equilibrium, lost_opportunity_cost)
from equilab.model import block_components
from equilab.random_markets import (SimpleRandomMarketSpec, certified_equilibrium,
                                    draw_costs, gen_simple_random_market,
                                    marginal_supplier_is_convex)

from market_corpus import random_market
from market_helpers import agent_demand_set
from reference_oracles import agent_bundle, reference_demand_set

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

    # an agent whose set is an axis line is decided from the pricing arrays,
    # and one whose acceptances lose nothing (lost opportunity cost exactly
    # 0.0) by value; the others ask `contains` once for the LP bundle and
    # once more when the exact welfare allocation moves them
    dual, exact = res.dual, res.pricing.allocation
    off_line = [i for i, on in enumerate(dual.on_line) if not on]
    ids = [agent.agent_id for agent in market.agents]
    lp_loc = lost_opportunity_cost(dual, dual.allocation)[1]
    exact_loc = lost_opportunity_cost(dual, exact)[1]
    asked = sum(lp_loc[ids[i]] != 0.0 for i in off_line)
    moved = sum(not np.array_equal(exact.bundles(market)[i], dual.lp_bundles()[i])
                and exact_loc[ids[i]] != 0.0 for i in off_line)
    assert counts["patterns"] == components
    assert counts["contains"] == asked + moved

    # the compiled market keeps its patterns; an equal new market enumerates
    # them once more
    counts.clear()
    certified_equilibrium(market)
    assert counts["patterns"] == 0
    certified_equilibrium(dataclasses.replace(market))
    assert counts["patterns"] == components


def at_the_money_agents(market):
    """Agents of a certificate with more than one kept pattern or an
    at-the-money block on: the ones that needed a demand set before their
    lone block's two intervals were written on the line."""
    dual = solve_lp(market)
    needed = 0
    for agent in market.agents:
        ref = reference_demand_set(agent, dual.lambda_star, 1, dual.tol)
        patterns = math.prod(len(factor) for factor in ref.factors)
        free_block = any(free for factor in ref.factors[1:] for _, _, free in factor)
        needed += patterns > 1 or free_block
    return needed


def test_monte_carlo_certificate_builds_no_pieces(monkeypatch):
    # every one-commodity demand set lies on its carrier line, so the
    # certificate tests containment without a piece or a nearest point;
    # every agent, an at-the-money block's too, is decided on its
    # line from the pricing arrays, without a demand set
    spec = SimpleRandomMarketSpec(6, 3, seed=4)
    markets = [gen_simple_random_market(spec, t) for t in range(20)]
    at_the_money = sum(at_the_money_agents(m) for m in markets)
    counts: Counter = Counter()
    monkeypatch.setattr(geometry.Piece, "of", count_calls(
        monkeypatch, counts, "piece", geometry.Piece.of))
    count_calls(monkeypatch, counts, "union_nearest", geometry.union_nearest)
    count_calls(monkeypatch, counts, "demand_set", demand.demand_set)

    verdicts = [certified_equilibrium(m) for m in markets]

    assert counts == Counter()
    assert 0 < at_the_money < sum(len(m.agents) for m in markets) // 4
    assert verdicts == [marginal_supplier_is_convex(spec, draw_costs(spec, t))
                        for t in range(20)]
    assert 0 < sum(verdicts) < 20


def test_measure_skips_most_piece_projections(monkeypatch):
    # on a K=24 corpus market, the corners stop at their own piece and the
    # box bounds skip far pieces: less than half the full loop's projections
    dual = solve_lp(corpus_market(67))
    sets = [dual.demand(i) for i in range(len(dual.market.agents))]
    sets = [ds for ds in sets if ds.line is None]
    full = 0
    for ds in sets:
        n = len(ds.pieces)
        corners = sum(len(geometry.piece_vertices(p)) for p in ds.pieces)
        full += (corners + n * (n - 1) // 2) * n
    counts: Counter = Counter()
    count_calls(monkeypatch, counts, "projection", geometry.piece_nearest)

    for ds in sets:
        nonconvexity(ds)

    assert full > 400
    assert 0 < counts["projection"] < full / 2


def test_one_canonical_form_per_pattern(monkeypatch, market):
    # the carrier line and the pieces read each pattern's canonical
    # generators from one fold, and each free generator's form is found
    # once per set; the pricing folds one more, the on pattern's, per agent
    # on a line through a lone block at the money
    counts: Counter = Counter()
    count_calls(monkeypatch, counts, "canonical", geometry.fold_generators)
    count_calls(monkeypatch, counts, "form", geometry.generator_form)
    sets = []
    build = PricedMarket.__post_init__

    def recorded(*args, **kwargs):
        sets.append(demand_set(*args, **kwargs))
        return sets[-1]

    def counted_build(priced):
        before, forms = counts["canonical"], counts["form"]
        build(priced)
        counts["pricing"] += counts["canonical"] - before
        counts["pricing forms"] += counts["form"] - forms
        cm = priced.market.compiled
        counts["lone lines"] += sum(priced.on_line[i] for i, comp in zip(cm.component_owner,
                                                                         cm.components)
                                    if len(comp) == 1 and priced.classes[comp[0]] == 0)

    monkeypatch.setattr(demand, "demand_set", recorded)
    monkeypatch.setattr(PricedMarket, "__post_init__", counted_build)

    approximate_equilibria(market)

    shaped = [ds for ds in sets if {"line", "pieces"} & vars(ds).keys()]
    assert shaped
    assert counts["pricing"] == counts["lone lines"]
    assert counts["canonical"] - counts["pricing"] == sum(len(ds.patterns) for ds in shaped)
    assert counts["pricing forms"] == counts["pricing"]
    assert counts["form"] - counts["pricing forms"] == sum(
        len({id(g) for factor in ds.factors for _, _, free in factor for g in free})
        for ds in shaped)


def test_one_pattern_pass_per_component_at_other_prices(monkeypatch, market):
    # at prices other than lambda* (a uniform-price clearing's, say) one
    # PricedMarket gives the certificate and the lost opportunity cost; the
    # expected values come from an equal market, so `market` is compiled in
    # the counted calls
    components = sum(len(block_components(a.block_bids)) for a in market.agents)
    twin = dataclasses.replace(market)
    twin_dual = solve_lp(twin)
    lam = twin_dual.lambda_star + 0.25
    allocation = convex_hull_pricing(twin_dual).allocation
    want = (detect_equilibrium(PricedMarket(twin, lam), allocation),
            lost_opportunity_cost(PricedMarket(twin, lam), allocation))
    counts: Counter = Counter()
    count_calls(monkeypatch, counts, "patterns", model.iter_patterns)

    priced = PricedMarket(market, lam)
    got = (detect_equilibrium(priced, allocation),
           lost_opportunity_cost(priced, allocation))

    assert got == want
    assert counts["patterns"] == components


def test_duality_check_seeds_best_surplus(market):
    dual = solve_lp(market)
    assert dual.dual_objective == convexify.dual_value(
        PricedMarket(market, dual.lambda_star, DEFAULT_TOL))
    for i, agent in enumerate(market.agents):
        assert dual.best_surplus[i] == agent_best_surplus(agent, dual.lambda_star,
                                                          DEFAULT_TOL)


def test_certificate_same_with_dual_or_prices(market):
    dual = solve_lp(market)
    for allocation in (dual.allocation, convex_hull_pricing(dual).allocation):
        assert (detect_equilibrium(dual, allocation)
                == detect_equilibrium(PricedMarket(market, dual.lambda_star), allocation))


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
    assert_same(res.lp_result, balanced_lp_allocation(solve_lp(market)), "lp_result")
    assert_same(res.snapped, demand_snapped_allocation(solve_lp(market)), "snapped")
    assert_same(res.pricing, convex_hull_pricing(solve_lp(market)), "pricing")
    assert_same(res.dual, solve_lp(market), "dual")


def piece_bytes(ds):
    """The bytes of every array of every piece of the demand set."""
    return [tuple(a.tobytes() for a in (p.offset, p.units, p.lo, p.hi)) for p in ds.pieces]

def test_caches_keyed_by_tolerance_and_norm(four_agent_market):
    # the tolerance and the norm are the priced market's own, so each
    # (tolerance, norm) keeps its own caches, and each measure is in its norm
    market = four_agent_market
    K = market.num_commodities
    duals = {(tol, norm): solve_lp(market, tol, norm)
             for tol in (None, DEFAULT_TOL, 1e-3) for norm in ("l1", "l2", "linf")}
    assert duals[None, "l2"].tol == DEFAULT_TOL
    assert solve_lp(market).norm == DEFAULT_NORM == "l2"
    for (tol, norm), dual in duals.items():
        assert dual.norm == norm
        for i, agent in enumerate(market.agents):
            x = agent_bundle(agent, dual.allocation.acceptances, K)
            assert np.array_equal(dual.lp_bundles()[i], x)
            ds = dual.demand(i)
            assert ds is dual.demand(i)
            assert ds.tol == dual.tol
            assert piece_bytes(ds) == piece_bytes(
                agent_demand_set(agent, dual.lambda_star, K, tol))
            assert dual.measure(i) == nonconvexity(ds, norm, probes=(x,))


def test_probing_at_the_lp_bundle_never_lowers_the_measure(market):
    """The solved market measures the same sets as the market at its prices,
    with each LP bundle added as a candidate, in every norm."""
    for norm in ("l1", "l2", "linf"):
        dual = solve_lp(market, norm=norm)
        priced = PricedMarket(market, dual.lambda_star, norm=norm)
        for i in range(len(market.agents)):
            assert dual.measure(i) >= priced.measure(i)
