"""Block-order clearing with uniform prices and no-loss block rules."""

import importlib.util
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equilab.config import DEFAULT_TOL
from equilab.convexify import PricedMarket, solve_lp
from equilab.curves import canonical_steps
from equilab.equilibria import lost_opportunity_cost
from equilab import euphemia, model
from equilab.euphemia import (MAX_COMBOS, ClearingComplexityError, _feasible_prices,
                              _Pattern, _prefilter, _price_bound, _price_excess,
                              _prices_certain, _row_excess, _screened_out,
                              _StepTable, _block_patterns, clear_euphemia_style)
from equilab.lp import InfeasibleError, solve_lp as lp_solve
from equilab.model import Agent, BlockBid, HourlyCurveBid, Market, iter_patterns
from equilab.welfare import solve_welfare

from euphemia_oracle import clear_euphemia_style as oracle_clear, kept_situations, reach
from market_corpus import random_market, split_group_market
from market_helpers import imbalance
from reference_oracles import (acceptance_feasible, record_simplex_calls,
                               reference_simplex, simplex_outcome)


def test_reference_market_rejects_blocks(four_agent_market):
    res = clear_euphemia_style(four_agent_market)
    assert res.cleared
    assert res.welfare == pytest.approx(1.0)
    assert res.lam == pytest.approx((1.0,))
    assert res.active_blocks == ()
    # both blocks are paradoxically rejected: in the money at 1 yet inactive
    assert res.allocation["b1"] == pytest.approx(0.0)
    assert res.allocation["b4"] == pytest.approx(0.0)
    assert res.allocation["c2"] == pytest.approx(1.0)
    assert res.allocation["c3"] == pytest.approx(-1.0)


def test_reference_clearing_leaves_loc(four_agent_market):
    res = clear_euphemia_style(four_agent_market)
    total, per, _ = lost_opportunity_cost(PricedMarket(four_agent_market, res.lam),
                                          res.allocation)
    assert total == pytest.approx(9.0)
    assert per["a1"] == pytest.approx(9.0)


def test_block_only_market(four_agent_market):
    mk = Market(1, (
        Agent("b", (BlockBid("bb", 12.0, (3.0,)),)),
        Agent("s", (BlockBid("bs", -6.0, (-3.0,)),)),
    ))
    res = clear_euphemia_style(mk)
    assert res.cleared
    assert res.welfare == pytest.approx(6.0)
    assert set(res.active_blocks) == {"bb", "bs"}
    # any uniform price in [2, 4] is lossless; the reported one must be
    assert 2.0 - 1e-9 <= res.lam[0] <= 4.0 + 1e-9


def test_minimum_acceptance_ratio_partial_fill():
    mk = Market(1, (
        Agent("b", (HourlyCurveBid("c", 0, ((5.0, 1.0),)),)),
        Agent("s", (BlockBid("bs", -4.0, (-2.0,), mar=0.5),)),
    ))
    res = clear_euphemia_style(mk)
    assert res.cleared
    assert res.allocation["bs"] == pytest.approx(0.5)
    assert res.welfare == pytest.approx(3.0)


def test_two_hour_spanning_block():
    mk = Market(2, (
        Agent("b1", (HourlyCurveBid("c1", 0, ((6.0, 1.0),)),)),
        Agent("b2", (HourlyCurveBid("c2", 1, ((2.0, 1.0),)),)),
        Agent("s", (BlockBid("bs", -4.0, (-1.0, -1.0)),)),
    ))
    res = clear_euphemia_style(mk)
    assert res.cleared
    assert res.welfare == pytest.approx(4.0)
    assert res.allocation["bs"] == pytest.approx(1.0)
    # block loses in hour 1 but the two-hour revenue covers its cost
    assert res.lam[0] + res.lam[1] >= 4.0 - 1e-9


def test_no_clearing_possible():
    # lone block buyer with nobody to trade with still clears at zero trade
    mk = Market(1, (
        Agent("b", (BlockBid("bb", 12.0, (3.0,)),)),
        Agent("s", (HourlyCurveBid("c", 0, ((20.0, -1.0),)),)),
    ))
    res = clear_euphemia_style(mk)
    assert res.cleared
    assert res.welfare == pytest.approx(0.0)
    assert res.active_blocks == ()


def _assert_legal_outcome(market, res, tol=1e-7):
    """The published clearing rules, checked directly on the outcome."""
    lam = np.asarray(res.lam)
    alloc = res.allocation
    assert np.allclose(imbalance(alloc, market), 0.0, atol=tol)
    for agent in market.agents:
        acc = {b.bid_id: alloc[b.bid_id] for b in agent.bids}
        assert acceptance_feasible(agent, acc, tol=tol)
        for bid in agent.block_bids:
            a = alloc[bid.bid_id]
            m = float(bid.price - lam @ bid.q)
            scale = 1.0 + abs(bid.price) + float(np.abs(lam) @ np.abs(bid.q))
            if a > tol:
                # no active block may lose money at the uniform prices
                assert m >= -tol * scale
        for bid in agent.curve_bids:
            q = alloc[bid.bid_id]
            p = float(lam[bid.hour])
            scale = 1.0 + abs(p)
            for step in canonical_steps(bid.points, bid.mode):
                if step.lo >= 0.0 and step.price > p + tol * scale:
                    # strictly in-money buy step must be fully served
                    assert q >= step.hi - tol * scale
                if step.hi <= 0.0 and step.price < p - tol * scale:
                    assert q <= step.lo + tol * scale


def test_reference_outcome_is_legal(four_agent_market):
    _assert_legal_outcome(four_agent_market, clear_euphemia_style(four_agent_market))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_random_outcomes_are_legal(seed):
    rng = np.random.default_rng(seed)
    market = random_market(rng, K=int(rng.integers(1, 3)), max_blocks=4)
    try:
        res = clear_euphemia_style(market)
    except ClearingComplexityError:
        return
    if res.cleared:
        _assert_legal_outcome(market, res)
        # uniform-price clearing can never beat the unrestricted optimum
        assert res.welfare <= solve_welfare(solve_lp(market)).welfare + 1e-7


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_convex_market_equals_relaxation(seed):
    """With no blocks the clearing is the plain convexified optimum."""
    rng = np.random.default_rng(seed)
    market = random_market(rng, K=1, max_blocks=0)
    res = clear_euphemia_style(market)
    assert res.cleared
    assert res.welfare == pytest.approx(solve_lp(market).primal_value, abs=1e-7)


# ---------------------------------------------------------------------------
# Optimality oracle: the unscreened enumerator gives the same result

def _fields(res):
    # a no-clearing result's prices are nan, which == cannot compare
    return (res.status, res.lam if res.cleared else None, res.welfare,
            res.active_blocks, res.combos_checked,
            list(res.allocation.acceptances.items()))


def _assert_same_as_oracle(market):
    try:
        expected = oracle_clear(market)
    except ClearingComplexityError:
        with pytest.raises(ClearingComplexityError):
            clear_euphemia_style(market)
        return
    assert _fields(clear_euphemia_style(market)) == _fields(expected)


def _combo_count(market):
    blocks = tuple(b for a in market.agents for b in a.block_bids)
    n = sum(1 for _ in iter_patterns(blocks))
    for hour in range(market.num_commodities):
        prices = {st.price for a in market.agents for bid in a.curve_bids
                  if bid.hour == hour for st in bid.steps}
        n *= 2 * len(prices) + 1
    return n


# markets per floor(log2(pattern/situation count)) for K=1, max_blocks=4
_K1_QUOTAS = {3: 12, 4: 50, 5: 60, 6: 40, 7: 23, 8: 15}


def _k1_stratified_corpus():
    strata = {key: [] for key in _K1_QUOTAS}
    for draw in range(20000):
        market = random_market(np.random.default_rng((2024, draw)), K=1, max_blocks=4)
        key = int(math.log2(_combo_count(market)))
        if key in strata and len(strata[key]) < _K1_QUOTAS[key]:
            strata[key].append(market)
        if all(len(strata[k]) == q for k, q in _K1_QUOTAS.items()):
            break
    return [m for key in sorted(strata) for m in strata[key]]


def test_oracle_reference_market(four_agent_market):
    _assert_same_as_oracle(four_agent_market)


def test_oracle_k1_corpus_every_stratum():
    markets = _k1_stratified_corpus()
    assert len(markets) == sum(_K1_QUOTAS.values()) >= 200
    for market in markets:
        _assert_same_as_oracle(market)


def test_k1_corpus_lps_replay_on_reference(monkeypatch):
    """The quantity and price LPs of uniform-price clearing, bit for bit."""
    markets = _k1_stratified_corpus()
    calls = record_simplex_calls(
        monkeypatch, [euphemia],
        lambda: [clear_euphemia_style(m) for m in markets])
    assert len(calls) >= 200
    for args, kwargs, outcome in calls:
        assert simplex_outcome(reference_simplex, args, kwargs) == outcome


def test_oracle_k2_corpus():
    for i in range(40):
        _assert_same_as_oracle(
            random_market(np.random.default_rng((2025, i)), K=2, max_blocks=2))


def _k4_corpus(max_combos=None):
    markets = [random_market(np.random.default_rng((2026, i)), K=4, max_blocks=2)
               for i in range(20)]
    return [m for m in markets if max_combos is None or _combo_count(m) <= max_combos]


def test_oracle_k4_corpus():
    markets = _k4_corpus(max_combos=2000)
    assert len(markets) >= 12
    for market in markets:
        _assert_same_as_oracle(market)


def test_combos_checked_counts_the_whole_product(four_agent_market):
    # the prefilters drop situations before the product is formed, but the
    # count still covers every pattern/situation combination
    markets = ([four_agent_market] + _k1_stratified_corpus() + _k4_corpus(MAX_COMBOS)
               + [random_market(np.random.default_rng((2025, i)), K=2, max_blocks=2)
                  for i in range(40)])
    for market in markets:
        assert clear_euphemia_style(market).combos_checked == _combo_count(market)


def test_prefilter_keeps_the_tol_branch():
    # With no block and no at-the-money step a combination passes when its
    # forced imbalance is within `tol`, however the quantity screen would
    # judge it.  The interval (3, 5) forces an excess demand of 1e-4, inside
    # tol=1e-3 but far past the screen's margin, and it is the best
    # combination: at 3 the sell step cannot serve 1.0001, at 5 it earns 2.
    market = Market(1, (
        Agent("b", (HourlyCurveBid("d", 0, ((5.0, 1.0001),)),)),
        Agent("s", (HourlyCurveBid("o", 0, ((3.0, -1.0),)),)),
    ))
    res = clear_euphemia_style(market, tol=1e-3)
    assert _fields(res) == _fields(oracle_clear(market, tol=1e-3))
    assert res.welfare == pytest.approx(5.0 * 1.0001 - 3.0)


def test_price_lp_runs_only_where_it_can_decide(monkeypatch):
    # A price LP runs for a replacement of the incumbent only when no
    # certificate proves it feasible (no active block, or at K = 1 a price
    # screen excess below minus its margin); a certified incumbent is priced
    # once, at the end.  So each call either prices the result or comes from
    # an uncertified replacement.
    calls = []

    def spy(pattern, lo, hi):
        lam = _feasible_prices(pattern, lo, hi)
        calls.append((pattern, lo, hi, lam))
        return lam

    monkeypatch.setattr(euphemia, "_feasible_prices", spy)
    deferred = 0
    for market in _k1_stratified_corpus():
        calls.clear()
        res = clear_euphemia_style(market)
        assert _fields(res) == _fields(oracle_clear(market))
        for i, (pattern, lo, hi, lam) in enumerate(calls):
            certified = not pattern.names or _screened_out(
                -_price_excess(pattern.q, pattern.price, lo, hi), pattern.price_scale)
            prices_result = (i == len(calls) - 1 and lam is not None
                             and tuple(float(v) for v in lam) == res.lam)
            assert prices_result or not certified
            deferred += certified
    assert deferred > 0


def test_prefilter_pass_keeps_what_each_pattern_keeps():
    # the one array pass over all patterns of a market keeps, per pattern and
    # hour, the situations the per-pattern oracle keeps; the scaling corpora
    # hold up to eight blocks over two and four hours
    markets = (_k1_stratified_corpus()
               + [random_market(np.random.default_rng((1, i)), K=K, max_blocks=8)
                  for K in (2, 4) for i in range(40)])
    tol = DEFAULT_TOL
    for market in markets:
        cm = market.compiled
        steps = _StepTable(cm, _price_bound(cm))
        patterns = _block_patterns(cm)
        scales, kept = _prefilter(cm, patterns, steps, tol)
        assert len(scales) == len(kept) == len(patterns)
        for z, scale, situations in zip(patterns, scales, kept):
            price = cm.block_table[[j for j, zj in enumerate(z) if zj], 0]
            assert scale == float(np.max(np.abs(price), initial=0.0))
            assert situations == kept_situations(cm, z, steps, tol)


def test_k1_corpus_runs_no_infeasible_lp(monkeypatch):
    # For one hour the prefilters and the price screen are exact, so every
    # LP that clearing still runs on the stratified corpus is feasible.
    calls, infeasible = [], []

    def counted(*args, **kwargs):
        calls.append(None)
        try:
            return lp_solve(*args, **kwargs)
        except InfeasibleError:
            infeasible.append(None)
            raise

    monkeypatch.setattr(euphemia, "solve_lp", counted)
    for market in _k1_stratified_corpus():
        clear_euphemia_style(market)
    assert calls
    assert not infeasible


def test_cap_is_checked_before_any_pattern(monkeypatch):
    # 2^20 patterns of 20 lone blocks exceed the cap on their own; their
    # count is the product of the components' two patterns each, so no
    # pattern of the whole market is built or checked
    calls = []
    feasible = model.pattern_feasible
    monkeypatch.setattr(model, "pattern_feasible",
                        lambda *args: calls.append(None) or feasible(*args))
    market = Market(1, (
        Agent("b", tuple(BlockBid(f"b{i}", 5.0 + i, (1.0,)) for i in range(20))),
        Agent("s", (HourlyCurveBid("s", 0, ((1.0, -5.0),)),)),
    ))
    with pytest.raises(ClearingComplexityError):
        clear_euphemia_style(market)
    assert not calls


def _cleared_patterns(monkeypatch, market):
    """The block patterns whose combinations `clear_euphemia_style(market)`
    clears, in the order it reaches them, one entry per run of combinations."""
    seen = []
    clear = euphemia._clear_combo
    blocks = market.compiled.blocks

    def spy(pattern, *args):
        z = tuple(int(b.bid_id in pattern.names) for b in blocks)
        if not seen or seen[-1] != z:
            seen.append(z)
        return clear(pattern, *args)

    with monkeypatch.context() as m:
        m.setattr(euphemia, "_clear_combo", spy)
        clear_euphemia_style(market)
    return seen


def _interleaved_market():
    # components {b0, b2} (a group), {b1}, {b3, b5, b7} (a parent chain)
    # and {b4, b6} (a loop) interleave in block order
    blocks = (
        BlockBid("b0", 8.0, (2.0,), mar=0.5, group="g"),
        BlockBid("b1", 3.0, (1.0,)),
        BlockBid("b2", 9.0, (3.0,), group="g"),
        BlockBid("b3", 4.0, (1.0,)),
        BlockBid("b4", 5.0, (2.0,), loop="b6"),
        BlockBid("b5", 2.0, (1.0,), mar=0.25, parent="b3"),
        BlockBid("b6", -1.0, (-1.0,), loop="b4"),
        BlockBid("b7", 1.5, (0.5,), parent="b5"),
    )
    return Market(1, (Agent("portfolio", blocks),
                      Agent("s", (HourlyCurveBid("s", 0, ((1.0, -4.0), (2.5, -7.0))),))))


def test_patterns_are_visited_in_bitmask_order(monkeypatch):
    # the patterns are listed as `iter_patterns` lists them, and those with
    # a combination are cleared in that order, each in one run
    markets = ([_interleaved_market()]
               + [random_market(np.random.default_rng((2027, i)), K=K, max_blocks=6)
                  for K in (1, 2, 4) for i in range(15)]
               + [split_group_market(np.random.default_rng((2028, i)), K=K)
                  for K in (1, 2, 4) for i in range(3)])
    runs = 0
    for market in markets:
        blocks = tuple(b for a in market.agents for b in a.block_bids)
        patterns = list(iter_patterns(blocks))
        assert _block_patterns(market.compiled) == patterns
        at = [patterns.index(z) for z in _cleared_patterns(monkeypatch, market)]
        assert at == sorted(set(at))
        runs += len(at)
    assert runs > 2 * len(markets)
    market = _interleaved_market()
    assert len(_block_patterns(market.compiled)) == 3 * 2 * 4 * 2
    _assert_same_as_oracle(market)


def _scaling_script():
    path = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "euphemia_scaling.py"
    spec = importlib.util.spec_from_file_location("euphemia_scaling", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# `scripts/euphemia_scaling.py` on its default 40 markets per hour count:
# combinations checked and the digest of every result field
_SCALING = {
    1: (16643, "b27f91031d38182ec0ccfc31bd44e4b9b9b9288a98da3718ed19ae0f4c9e76c8"),
    2: (75841, "03d8cf5610fcc484dc40f6290791b7c0460f40f575be73d54e6c4cc4e8b6d1b8"),
    4: (240647, "4bf8792e185df52f326a29b73449b10ea2ca9736da4d03d36361aaa0f13fcea6"),
}


def test_scaling_corpus_output_is_locked():
    # the oracle tests reach at most two blocks for K >= 2; these corpora
    # hold up to eight, so their digests lock the multi-hour screens' output
    measure = _scaling_script().measure
    for K, (combos, digest) in _SCALING.items():
        row = measure(K, 40)
        assert (row["combos_checked"], row["digest"]) == (combos, digest), K


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([1, 2]))
def test_oracle_random_markets(seed, K):
    rng = np.random.default_rng(seed)
    _assert_same_as_oracle(random_market(rng, K=K, max_blocks=4 if K == 1 else 2))


# ---------------------------------------------------------------------------
# The screens are sound: "empty" means the simplex raises InfeasibleError

def _grid(rng, size, lo, hi, step=0.5):
    return rng.integers(round(lo / step), round(hi / step) + 1, size=size) * step


def _nudge(rng, x):
    """x moved by amounts around the screen margin, so that some violations
    fall inside its band and some just outside."""
    step = rng.choice([0.0, 1e-9, 1e-7, 1e-6, 1e-5], size=x.shape)
    return x + step * rng.choice([-1.0, 1.0], size=x.shape)


def _box(rng, n, lo, hi):
    a, b = _grid(rng, n, lo, hi), _grid(rng, n, lo, hi)
    return np.minimum(a, b), np.maximum(a, b)


def _lp_feasible(**lp_args):
    try:
        lp_solve(**lp_args)
    except InfeasibleError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([1, 2, 3]))
def test_price_screen_is_sound(seed, K):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    Q = (_grid(rng, (n, K), -3, 3) * (rng.random((n, K)) < 0.8)
         * 10.0 ** rng.integers(-4, 1, size=(n, K)))
    # rows pass through, or a grid step away from, one point near the box
    through = Q @ _grid(rng, K, -6, 6)
    p = _nudge(rng, through + _grid(rng, n, -1, 1) * (rng.random(n) < 0.5))
    lo, hi = _box(rng, K, -6, 6)
    excess = _price_excess(Q, p, lo, hi)
    scale = float(np.max(np.abs(p)))
    feasible = _lp_feasible(c=np.zeros(K), a_ub=Q, b_ub=p, lo=lo, hi=hi)
    if _screened_out(excess, scale):
        assert not feasible
    if K == 1 and _screened_out(-excess, scale):
        assert feasible


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([1, 2, 3]))
def test_deferral_certificate_is_sound(seed, K):
    # where `_prices_certain` lets clearing defer a price LP, the LP itself
    # finds prices: at K = 1 through the screen's margin, and at any K for a
    # pattern without an active block
    rng = np.random.default_rng(seed)
    lo, hi = _box(rng, K, -6, 6)
    empty = _Pattern([], np.zeros((0, K)), np.zeros(0), np.zeros(0), 0.0)
    assert _prices_certain(empty, _price_excess(empty.q, empty.price, lo, hi))
    lam = _feasible_prices(empty, lo, hi)
    assert lam is not None and np.all((lo <= lam) & (lam <= hi))
    n = int(rng.integers(1, 5))
    Q = (_grid(rng, (n, K), -3, 3) * (rng.random((n, K)) < 0.8)
         * 10.0 ** rng.integers(-4, 1, size=(n, K)))
    through = Q @ _grid(rng, K, -6, 6)
    p = _nudge(rng, through + _grid(rng, n, -1, 1) * (rng.random(n) < 0.5))
    pattern = _Pattern([f"b{i}" for i in range(n)], Q, p, np.ones(n),
                       float(np.max(np.abs(p))))
    certain = _prices_certain(pattern, _price_excess(Q, p, lo, hi))
    assert not certain or K == 1
    if certain:
        assert _feasible_prices(pattern, lo, hi) is not None


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([1, 2, 3]))
def test_balance_screen_is_sound(seed, K):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    A = (_grid(rng, (K, n), -3, 3) * (rng.random((K, n)) < 0.7)
         * 10.0 ** rng.integers(-4, 1, size=(K, n)))
    lo, hi = _box(rng, n, 0, 2)
    through = A @ _grid(rng, n, 0, 2)
    b = _nudge(rng, through + _grid(rng, K, -1, 1) * (rng.random(K) < 0.5))
    excess = float(np.max(_row_excess(*reach(A, lo, hi), b)))
    scale = float(np.max(np.abs(b)))
    feasible = _lp_feasible(c=np.zeros(n), a_eq=A, b_eq=b, lo=lo, hi=hi)
    if _screened_out(excess, scale):
        assert not feasible
    if K == 1 and _screened_out(-excess, scale):
        assert feasible


def test_price_screen_weighs_a_crossing_by_the_cheaper_row():
    # lam <= 1 (weight 3) and lam >= 1 + 2e-5 (weight 5e-5) cross, but at
    # lam = 1 the total violation is 1e-9, inside the simplex's tolerance
    Q = np.array([[3.0], [-5e-5]])
    p = np.array([3.0, -5e-5 * (1.0 + 2e-5)])
    lo, hi = np.array([-5.0]), np.array([5.0])
    assert not _screened_out(_price_excess(Q, p, lo, hi), 3.0)
    assert _lp_feasible(c=np.zeros(1), a_ub=Q, b_ub=p, lo=lo, hi=hi)
