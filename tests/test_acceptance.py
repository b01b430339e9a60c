"""End-to-end guarantees of the equilibrium laboratory.

One test per headline claim: reference-market golden values, the convex-share
law of the simple random family, the allocation bounds at scale, the pricing
identities, structured existence checks, oracle equivalence of the welfare
search, hull equality of the relaxed demand, and serialization contracts.
Each test is meant to be read as a single pass/fail verdict.
"""

import time

import numpy as np
import pytest

from equilab import lp
from equilab.convexify import PricedMarket, build_convexified, solve_lp
from equilab.demand import agent_best_surplus
from equilab.equilibria import (balanced_lp_allocation, convex_hull_pricing,
                                demand_snapped_allocation, lost_opportunity_cost,
                                singleton_demand_equilibrium_check)
from equilab.euphemia import clear_euphemia_style
from equilab.geometry import merge_intervals, piece_vertices
from equilab.market_io import (emit_market, emit_outcome, load_outcome,
                               parse_market, parse_outcome)
from equilab.model import Market
from equilab.random_markets import (SimpleRandomMarketSpec,
                                    monte_carlo_equilibrium_probability)
from equilab.welfare import solve_welfare

from market_corpus import (random_balanced_allocation, random_market,
                           random_price_vector)
from market_helpers import (agent_demand_set, check_loc_dominance, gen_tied_cost_market,
                            imbalance, zero_allocation)
from reference_oracles import aggregate_demand_convexity_check, brute_force_welfare, in_hull

CORPUS_DIMS = (1, 2, 4, 24)
CORPUS_SIZE = 1000


@pytest.fixture(scope="module")
def bound_corpus():
    """1000 deterministic random markets spanning several commodity counts."""
    markets = []
    for i in range(CORPUS_SIZE):
        rng = np.random.default_rng((90210, i))
        markets.append(random_market(rng, K=CORPUS_DIMS[i % len(CORPUS_DIMS)],
                                     max_blocks=8))
    return markets


def test_reference_market_golden_values(four_agent_market):
    started = time.perf_counter()

    dual = solve_lp(four_agent_market)
    assert dual.primal_value == pytest.approx(7.0, abs=1e-6)
    assert dual.lambda_star[0] == pytest.approx(3.0, abs=1e-6)

    exact = solve_welfare(dual)
    assert exact.welfare == pytest.approx(6.0, abs=1e-6)
    oracle = brute_force_welfare(four_agent_market)
    assert exact.welfare == pytest.approx(oracle.welfare, abs=1e-6)

    pricing = convex_hull_pricing(dual)
    assert pricing.total_loc == pytest.approx(1.0, abs=1e-6)
    assert pricing.duality_gap == pytest.approx(1.0, abs=1e-6)

    lp_alloc = balanced_lp_allocation(dual)
    assert lp_alloc.violations == 1
    assert lp_alloc.stats.per_agent == pytest.approx((0.0, 0.0, 0.0, 1.0), abs=1e-6)

    snapped = demand_snapped_allocation(dual)
    assert snapped.imbalance == pytest.approx(1.0, abs=1e-6)

    want_vertices = ([(3.0,)], [(0.0,)], [(-2.0,)], [(-2.0,), (0.0,)])
    for agent, want in zip(four_agent_market.agents, want_vertices):
        got = sorted(tuple(v) for v in agent_demand_set(agent, [3.0]).vertices)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-6)

    assert time.perf_counter() - started < 1.0


def test_equilibrium_probability_matches_convex_share():
    started = time.perf_counter()
    trials = 10_000
    for n, k in ((4, 1), (4, 2), (5, 3), (6, 3)):
        spec = SimpleRandomMarketSpec(n=n, k=k, seed=1_000 * n + k)
        res = monte_carlo_equilibrium_probability(spec, trials)
        p = k / n
        radius = 3.0 * np.sqrt(p * (1.0 - p) / trials)
        assert abs(res.estimate - p) <= radius, (n, k, res.estimate)
    assert time.perf_counter() - started < 60.0


def test_allocation_bounds_hold_at_scale(bound_corpus):
    started = time.perf_counter()
    for market in bound_corpus:
        K = market.num_commodities
        dual = solve_lp(market)
        lp_alloc = balanced_lp_allocation(dual)
        assert lp_alloc.violations <= min(lp_alloc.stats.count, K)
        snapped = demand_snapped_allocation(dual)
        gap = float(np.linalg.norm(imbalance(snapped.allocation, market)))
        assert gap <= snapped.bound + 1e-9 * (1.0 + snapped.bound)
        # every agent the snap moves best-responds at lambda*
        _, per_agent, _ = lost_opportunity_cost(dual, snapped.allocation)
        inside = dual.containment(dual.lp_bundles())
        for i, agent in enumerate(market.agents):
            if not inside[i]:
                assert per_agent[agent.agent_id] <= 1e-6, agent.agent_id
    assert time.perf_counter() - started < 600.0


def test_pricing_gap_identity_at_scale(bound_corpus):
    for market in bound_corpus:
        pricing = convex_hull_pricing(solve_lp(market))
        gap = pricing.dual.dual_objective - pricing.exact.welfare
        assert abs(pricing.total_loc - gap) <= 1e-6


def test_priced_allocation_minimizes_lost_opportunity(four_agent_market):
    for i in range(200):
        rng = np.random.default_rng((5150, i))
        market = random_market(rng, K=int(rng.integers(1, 3)), max_blocks=6)
        pricing = convex_hull_pricing(solve_lp(market))
        sampled = 0
        while sampled < 50:
            pair = random_balanced_allocation(market, rng)
            if pair is None:
                pair = zero_allocation(market)
            lam = random_price_vector(rng, market)
            assert check_loc_dominance(pricing, PricedMarket(market, lam), pair)
            sampled += 1
    # the uniform-price clearing of the reference market leaves nine times
    # the lost opportunity cost of hull pricing
    pricing = convex_hull_pricing(solve_lp(four_agent_market))
    cleared = clear_euphemia_style(four_agent_market)
    cleared_loc, _, _ = lost_opportunity_cost(
        PricedMarket(four_agent_market, cleared.lam), cleared.allocation)
    assert pricing.total_loc == pytest.approx(1.0, abs=1e-6)
    assert cleared_loc == pytest.approx(9.0, abs=1e-6)
    assert pricing.total_loc <= cleared_loc


def test_singleton_demand_always_certifies(bound_corpus):
    applied = 0
    for market in bound_corpus:
        chk = singleton_demand_equilibrium_check(solve_lp(market))
        if chk.applies:
            applied += 1
            assert chk.equilibrium_found
            assert chk.certificate.is_equilibrium
            # the certified (snapped) allocation is a best response for all
            total, _, _ = lost_opportunity_cost(
                PricedMarket(market, chk.certificate.lambda_star), chk.allocation)
            assert total <= 1e-6
    assert applied > 0  # the sufficient condition must actually trigger


def test_certified_aggregate_equilibria_best_respond(bound_corpus):
    certified = 0
    for market in bound_corpus:
        if market.num_commodities != 1:
            continue
        chk = aggregate_demand_convexity_check(solve_lp(market))
        if chk.certificate is None or not chk.certificate.is_equilibrium:
            continue
        certified += 1
        total, _, _ = lost_opportunity_cost(
            PricedMarket(market, chk.certificate.lambda_star), chk.equilibrium)
        assert total <= 1e-6
    assert certified > 0


def test_tied_cost_family_aggregate_span_and_equilibrium():
    for n_binary in range(1, 11):
        market = gen_tied_cost_market(1, n_binary, demand=n_binary + 1.0)
        lam = [3.0]
        # exact Minkowski sum of the supplier demand sets at the tied cost;
        # every piece is an interval on the single commodity axis
        totals = [(0.0, 0.0)]
        for agent in market.agents[1:]:
            ivs = []
            for piece in agent_demand_set(agent, lam).pieces:
                vs = piece_vertices(piece)[:, 0]
                ivs.append((float(vs.min()), float(vs.max())))
            totals = merge_intervals([(a + lo, b + hi)
                                      for a, b in totals for lo, hi in ivs], 1e-9)
        span = 2.0 * (n_binary + 1)
        assert len(totals) == 1
        assert totals[0] == pytest.approx((-span, 0.0), abs=1e-9)
        dual = solve_lp(market)
        chk = aggregate_demand_convexity_check(dual)
        assert chk.convex
        assert chk.certificate is not None and chk.certificate.is_equilibrium
        # hull pricing decides existence exactly, and agrees
        pricing = convex_hull_pricing(dual)
        assert pricing.total_loc == 0.0
        assert pricing.certificate.is_equilibrium


def test_welfare_search_matches_enumeration():
    for i in range(500):
        rng = np.random.default_rng((8486, i))
        market = random_market(rng, K=1 + i % 2, max_blocks=8)
        searched = solve_welfare(solve_lp(market))
        enumerated = brute_force_welfare(market)
        assert abs(searched.welfare - enumerated.welfare) <= 1e-6


def _assert_relaxed_argmax_equals_hull(agent, K, lam, rng):
    single = Market(K, (agent,))
    prog = build_convexified(single)
    B = prog.balance
    surplus_obj = prog.objective - B.T @ lam
    a_ub = prog.a_ub if prog.a_ub.shape[0] else None
    b_ub = prog.b_ub if prog.a_ub.shape[0] else None
    best = lp.solve_lp(surplus_obj, a_ub=a_ub, b_ub=b_ub,
                       lo=prog.lo, hi=prog.hi).value
    # independent route: the closed-form per-agent surplus maximum
    assert best == pytest.approx(agent_best_surplus(agent, lam), abs=1e-7)

    ds = agent_demand_set(agent, lam, K)
    verts = ds.vertices
    scale = 1.0 + abs(best)
    # every hull vertex of the exact demand attains the relaxed optimum
    for y in verts:
        pinned = lp.solve_lp(surplus_obj, a_eq=B, b_eq=y, a_ub=a_ub, b_ub=b_ub,
                             lo=prog.lo, hi=prog.hi)
        assert pinned.value >= best - 1e-6 * scale
    # extreme points of the relaxed argmax face lie in the demand hull
    eps = 1e-9 * scale
    face_ub = [-surplus_obj]
    face_rhs = [-(best - eps)]
    if a_ub is not None:
        face_ub = list(a_ub) + face_ub
        face_rhs = list(b_ub) + face_rhs
    for _ in range(4):
        d = rng.normal(size=K)
        res = lp.solve_lp(B.T @ d, a_ub=np.array(face_ub),
                          b_ub=np.array(face_rhs), lo=prog.lo, hi=prog.hi)
        bundle = B @ res.x
        assert in_hull(bundle, verts, 1e-6)


def test_relaxed_demand_equals_demand_hull():
    checked = 0
    i = 0
    while checked < 1000:
        rng = np.random.default_rng((417, i))
        i += 1
        K = int(rng.integers(1, 3))
        market = random_market(rng, K=K, max_blocks=6)
        for agent in market.agents:
            if checked >= 1000:
                break
            lam = np.asarray(random_price_vector(rng, market), dtype=float)
            _assert_relaxed_argmax_equals_hull(agent, K, lam, rng)
            checked += 1


def test_serialization_identity_and_deterministic_reports(fixture_dir, tmp_path):
    fixtures = sorted(list(fixture_dir.glob("*.csv")) +
                      list(fixture_dir.glob("*.json")))
    assert len(fixtures) >= 5
    for path in fixtures:
        text = path.read_text(encoding="utf-8")
        market = parse_market(text)
        for fmt in ("csv", "json"):
            once = emit_market(market, fmt)
            assert parse_market(once) == market
            assert emit_market(parse_market(once), fmt) == once

    # clearing the same input twice yields byte-identical outcome reports
    from equilab.cli import main
    market_path = fixture_dir / "four_agent.csv"
    out_a = tmp_path / "a.outcome.json"
    out_b = tmp_path / "b.outcome.json"
    assert main(["clear", str(market_path), "--mode", "chp",
                 "--out", str(out_a)]) == 0
    assert main(["clear", str(market_path), "--mode", "chp",
                 "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    rep = load_outcome(out_a)
    assert emit_outcome(parse_outcome(emit_outcome(rep))) == emit_outcome(rep)

    # batch reports are byte-deterministic too
    work = tmp_path / "batch"
    work.mkdir()
    (work / "case.market.csv").write_text(
        market_path.read_text(encoding="utf-8"), encoding="utf-8")
    (work / "case.outcome.json").write_text(
        out_a.read_text(encoding="utf-8"), encoding="utf-8")
    agg_a, agg_b = tmp_path / "agg_a", tmp_path / "agg_b"
    assert main(["report", str(work), "--out", str(agg_a)]) == 0
    assert main(["report", str(work), "--out", str(agg_b)]) == 0
    for name in ("report.json", "report.csv"):
        assert (agg_a / name).read_bytes() == (agg_b / name).read_bytes()
