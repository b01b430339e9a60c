"""CLI end to end: commands, exit codes, golden outputs."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from equilab import cli, demand
from equilab.cli import main
from equilab.convexify import PricedMarket, solve_lp
from equilab.market_io import emit_market, load_outcome, parse_outcome

from conftest import FIXTURES
from market_corpus import large_market, random_market

FIXTURE_CSV = str(FIXTURES / "four_agent.csv")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_clear_chp_golden(capsys):
    code, out, _ = run(capsys, "clear", FIXTURE_CSV, "--mode", "chp")
    assert code == 0
    rep = parse_outcome(out)
    assert rep.mode == "chp"
    assert rep.prices == pytest.approx((3.0,))
    assert rep.welfare == pytest.approx(6.0)
    assert rep.total_loc == pytest.approx(1.0)
    assert rep.per_agent_loc["a2"] == pytest.approx(1.0)
    assert not rep.equilibrium
    assert rep.config["mode"] == "chp"


def test_clear_exact_golden(capsys):
    code, out, _ = run(capsys, "clear", FIXTURE_CSV, "--mode", "exact")
    assert code == 0
    rep = parse_outcome(out)
    assert rep.welfare == pytest.approx(6.0)
    assert rep.acceptances["b1"] == pytest.approx(1.0)
    assert rep.acceptances["c3"] == pytest.approx(-2.0)


def test_clear_euphemia_golden(capsys):
    code, out, _ = run(capsys, "clear", FIXTURE_CSV, "--mode", "euphemia")
    assert code == 0
    rep = parse_outcome(out)
    assert rep.prices == pytest.approx((1.0,))
    assert rep.welfare == pytest.approx(1.0)
    assert rep.acceptances["b1"] == pytest.approx(0.0)
    assert rep.total_loc == pytest.approx(9.0)


def test_clear_writes_file(capsys, tmp_path):
    out_path = tmp_path / "res.json"
    code, out, _ = run(capsys, "clear", FIXTURE_CSV, "--mode", "chp",
                       "--out", str(out_path))
    assert code == 0
    assert out == ""
    rep = load_outcome(out_path)
    assert rep.welfare == pytest.approx(6.0)


def test_clear_deterministic(capsys):
    a = run(capsys, "clear", FIXTURE_CSV, "--mode", "chp")
    b = run(capsys, "clear", FIXTURE_CSV, "--mode", "chp")
    assert a == b


def test_clear_missing_file(capsys):
    code, _, err = run(capsys, "clear", "/nonexistent.csv")
    assert code == 1
    assert "error" in err


def test_clear_invalid_market(capsys, tmp_path):
    bad = tmp_path / "bad.market.csv"
    bad.write_text("header,1,EUR,MW,x\n"
                   "curve,a,c,1,stepwise,1.0,1.0\n"
                   "curve,a,c,1,stepwise,2.0,2.0\n")
    code, _, err = run(capsys, "clear", str(bad))
    assert code == 1
    assert "bad-curve" in err


@pytest.mark.parametrize("mode", ["chp", "exact", "euphemia"])
def test_clear_rejects_a_duplicate_agent_id(capsys, tmp_path, mode):
    # before validation caught it, chp died on a welfare/value mismatch and
    # the per-agent outputs dropped one of the two agents
    doc = json.loads((FIXTURES / "four_agent.json").read_text())
    doc["agents"][3]["id"] = "a1"
    bad = tmp_path / "dup.market.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "clear", str(bad), "--mode", mode)
    assert (code, out) == (1, "")
    assert err == "error: duplicate-agent-id: agent id 'a1' used more than once\n"

@pytest.mark.parametrize("mode", ["chp", "exact", "euphemia"])
def test_clear_rejects_a_group_across_agents(capsys, tmp_path, mode):
    # before validation caught it, chp died on a duality-gap assertion and
    # euphemia cleared as if the group were market-wide
    bad = tmp_path / "group.market.csv"
    bad.write_text("header,1,EUR,MW,x\n"
                   "block,a,a1,10.0,1.0,g,,,1.0\n"
                   "block,b,b1,10.0,1.0,g,,,1.0\n"
                   "curve,s,s1,1,stepwise,1.0,-5.0\n")
    code, out, err = run(capsys, "clear", str(bad), "--mode", mode)
    assert (code, out) == (1, "")
    assert err == "error: bad-group: b1: group 'g' belongs to another agent\n"


def test_clear_budget_exceeded(capsys, tmp_path):
    # odd seller capacity against 2-unit buy blocks keeps the root fractional
    rows = ["header,1,EUR,MW,frac", "curve,s,c,1,stepwise,5.0,-9.0"]
    for i in range(10):
        rows.append(f"block,a{i},b{i},{11.0 + 0.01 * i},1.0,,,,2.0")
    path = tmp_path / "frac.market.csv"
    path.write_text("\n".join(rows) + "\n")
    code, _, err = run(capsys, "clear", str(path), "--mode", "exact",
                       "--node-budget", "1")
    assert code == 3
    assert "budget" in err


@pytest.fixture
def seven_blocks(tmp_path):
    # seven independent all-or-nothing blocks, all at the money at price 1:
    # 2**7 = 128 demand pieces, over the cap of 64
    rows = ["header,1,EUR,MW,seven-blocks"]
    rows += [f"block,a,b{k},{float(k)},1.0,,,,{float(k)}" for k in range(1, 8)]
    rows.append("curve,s,c1,1,stepwise,1.0,-100.0")
    path = tmp_path / "seven.market.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


@pytest.fixture
def capped_loss(tmp_path):
    # the reference market with a2 also bidding seven all-or-nothing blocks
    # at the money at price 3 (2**7 = 128 demand pieces): a2 still buys 1
    # through c2 at a loss of 1, so only its demand set can decide it
    rows = ["header,1,EUR,MW,capped-loss", "block,a1,b1,12.0,1.0,,,,3.0",
            "curve,a2,c2,1,stepwise,2.0,1.0"]
    rows += [f"block,a2,d{k},{3.0 * k},1.0,,,,{float(k)}" for k in range(2, 9)]
    rows += ["curve,a3,c3,1,stepwise,1.0,-2.0", "block,a4,b4,-6.0,1.0,,,,-2.0"]
    path = tmp_path / "capped.market.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


@pytest.mark.parametrize("mode", ["exact", "chp"])
def test_clear_demand_piece_cap_exits_budget(capsys, capped_loss, mode):
    code, out, err = run(capsys, "clear", capped_loss, "--mode", mode)
    assert code == 3
    assert out == ""
    assert err == "error: 128 demand pieces (cap 64)\n"


@pytest.mark.parametrize("mode", ["exact", "chp"])
def test_clear_settles_a_capped_agent_by_value(capsys, seven_blocks, mode):
    # every block at 0 is surplus-maximal at price 1, so the agent
    # best-responds and is in its demand set without its 128 pieces
    code, out, err = run(capsys, "clear", seven_blocks, "--mode", mode)
    assert (code, err) == (0, "")
    rep = parse_outcome(out)
    assert rep.equilibrium
    assert rep.prices == (1.0,)
    assert set(rep.acceptances.values()) == {0.0}
    assert rep.per_agent_loc == {"a": 0.0, "s": 0.0}


def test_clear_euphemia_settles_the_capped_agent_by_value(capsys, capped_loss):
    # at the uniform price 3, a2 takes d4 and loses nothing, so its 128
    # pieces are never built; a1, left out in the money, loses 3
    code, out, err = run(capsys, "clear", capped_loss, "--mode", "euphemia")
    assert (code, err) == (0, "")
    rep = parse_outcome(out)
    assert rep.prices == (3.0,)
    assert rep.acceptances["d4"] == 1.0
    assert rep.per_agent_loc == {"a1": 3.0, "a2": 0.0, "a3": 0.0, "a4": 0.0}
    assert not rep.equilibrium


@pytest.mark.parametrize("mode, key, agents, K", [("chp", (1, 0), 12, 24),
                                                  ("euphemia", (0, 9), 6, 2)])
def test_clear_builds_no_demand_set_for_a_settled_agent(monkeypatch, tmp_path,
                                                        mode, key, agents, K):
    # an agent off a line whose lost opportunity cost is exactly 0.0 is in
    # its demand set by value, so `clear` builds no demand set for it
    market = large_market(np.random.default_rng(key), agents, K)
    path, out = tmp_path / "large.market.json", tmp_path / "outcome.json"
    path.write_text(emit_market(market, "json"))
    built = []
    build = demand.demand_set
    monkeypatch.setattr(demand, "demand_set",
                        lambda priced, i: built.append(i) or build(priced, i))
    assert main(["clear", str(path), "--mode", mode, "--out", str(out)]) == 0
    rep = load_outcome(out)
    on_line = PricedMarket(market, rep.prices).on_line
    settled = {i for i, agent in enumerate(market.agents)
               if not on_line[i] and rep.per_agent_loc[agent.agent_id] == 0.0}
    assert settled
    assert not settled & set(built)


@pytest.mark.parametrize("price", [[], ["--price", "1.0"]])
def test_analyze_demand_piece_cap_exits_budget(capsys, seven_blocks, price):
    # lambda* is 1 as well
    code, out, err = run(capsys, "analyze", seven_blocks, *price)
    assert code == 3
    assert out == ""
    assert err == "error: 128 demand pieces (cap 64)\n"


def test_analyze_golden(capsys):
    code, out, _ = run(capsys, "analyze", FIXTURE_CSV)
    assert code == 0
    doc = json.loads(out)
    assert doc["prices"] == pytest.approx([3.0])
    assert doc["num_nonconvex_demands"] == 1
    assert doc["top_nonconvexity"] == pytest.approx([1.0])
    ag = doc["agents"]
    assert [ag[a]["singleton_demand"] for a in ("a1", "a2", "a3", "a4")] == \
        [True, True, True, False]
    assert ag["a4"]["demand_vertices"] == [[-2.0], [0.0]]
    assert doc["money_classes"] == {"b1": "in", "c2": "out",
                                    "c3": "in", "b4": "at"}


# (2, 180): the LP bundle of one agent is a hull point 0.4875 farther from
# its demand set than any unprobed candidate; (1, 275): a last-bit difference
@settings(max_examples=15, deadline=None)
@given(st.sampled_from((1, 2, 4)), st.integers(0, 2 ** 31 - 1))
@example(2, 180)
@example(1, 275)
def test_analyze_reports_the_bound_measures(K, seed):
    market = random_market(np.random.default_rng((K, seed)), K=K, max_blocks=8)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "m.json", Path(tmp) / "a.json"
        path.write_text(emit_market(market, "json"))
        assert main(["analyze", str(path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
    stats = solve_lp(market).nonconvex_stats()
    assert doc["num_nonconvex_demands"] == stats.count
    assert doc["top_nonconvexity"] == list(stats.top)
    assert [a["nonconvexity"] for a in doc["agents"].values()] == list(stats.per_agent)


@pytest.mark.parametrize("norm, top", [("l1", 99.0), ("linf", 49.5)])
def test_analyze_pieces_whose_range_excludes_zero(capsys, tmp_path, norm, top):
    # two at-the-money blocks with mar 0.99 in one group: segments over
    # [0.99, 1] * q, whose l1 and linf distance LPs were once infeasible
    path = tmp_path / "offset-range.market.csv"
    path.write_text("header,2,EUR,MW,offset-range\n"
                    "block,a,b1,99.0,0.99,g,,,100.0,0.0\n"
                    "block,a,b2,99.0,0.99,g,,,0.0,100.0\n"
                    "curve,s,c1,1,stepwise,0.99,-100.0\n"
                    "curve,s,c2,2,stepwise,0.99,-100.0\n")
    code, out, err = run(capsys, "analyze", str(path), "--norm", norm,
                         "--price", "0.99", "0.99")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["top_nonconvexity"] == pytest.approx([top, 0.0])
    assert doc["agents"]["a"]["nonconvexity"] == pytest.approx(top)


def test_analyze_lists_a_nested_pieces_corners(capsys, tmp_path):
    # two at-the-money blocks of one profile in one exclusive group: b2's
    # piece [0.5, 1] lies inside b1's [0.3, 1], and each pattern keeps its
    # piece, so b2's corner 0.5 is a vertex; the measure is half b1's gap
    path = tmp_path / "nested.market.csv"
    path.write_text("header,1,EUR,MW,nested\n"
                    "block,a,b1,2.0,0.3,g,,,1.0\n"
                    "block,a,b2,2.0,0.5,g,,,1.0\n"
                    "curve,s,c1,1,stepwise,1.0,-2.0\n")
    code, out, err = run(capsys, "analyze", str(path), "--price", "2.0")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["agents"]["a"]["demand_vertices"] == [[0.0], [0.3], [0.5], [1.0]]
    assert doc["agents"]["a"]["nonconvexity"] == 0.15
    assert doc["top_nonconvexity"] == [0.15]


def test_analyze_explicit_price(capsys):
    code, out, _ = run(capsys, "analyze", FIXTURE_CSV, "--price", "5.0")
    assert code == 0
    doc = json.loads(out)
    assert doc["prices"] == [5.0]
    assert doc["agents"]["a1"]["demand_vertices"] == [[0.0]]


def test_analyze_wrong_price_dim(capsys):
    code, _, err = run(capsys, "analyze", FIXTURE_CSV, "--price", "1.0", "2.0")
    assert code == 1
    assert "prices" in err


@pytest.mark.parametrize("argv", [
    ("clear", FIXTURE_CSV, "--mode", "bogus"),
    ("clear",),
    ("clear", FIXTURE_CSV, "--bogus"),
    ("simulate", "--n", "3", "--k", "1", "--norm", "l1"),
    ("clear", FIXTURE_CSV, "--tol", "nan"),
    ("clear", FIXTURE_CSV, "--tol", "-1"),
    ("clear", FIXTURE_CSV, "--tol", "0"),
    ("clear", FIXTURE_CSV, "--tol", "1e-300"),
    ("clear", FIXTURE_CSV, "--tol", "abc"),
    ("analyze", FIXTURE_CSV, "--tol", "-1"),
    ("simulate", "--n", "3", "--k", "1", "--trials", "5", "--tol", "nan"),
    ("analyze", FIXTURE_CSV, "--price", "nan"),
    ("analyze", FIXTURE_CSV, "--price", "inf"),
    ("simulate", "--n", "6", "--k", "3", "--seed", "-1"),
    ("simulate", "--n", "10000", "--k", "1", "--trials", "1"),
    ("clear", FIXTURE_CSV, "--node-budget", "0"),
    ("clear", FIXTURE_CSV, "--node-budget", "-3"),
], ids=["unknown-mode", "missing-input", "unknown-option", "simulate-norm",
        "clear-tol-nan", "clear-tol-negative", "clear-tol-zero", "clear-tol-below-eps",
        "clear-tol-not-a-number", "analyze-tol-negative",
        "simulate-tol-nan", "price-nan", "price-inf", "simulate-seed-negative",
        "simulate-n-too-large", "node-budget-zero", "node-budget-negative"])
def test_usage_error_or_bad_value_exits_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("argv", [("--help",), ("--version",), ("clear", "--help")])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0


def test_simulate_golden(capsys):
    code, out, _ = run(capsys, "simulate", "--n", "4", "--k", "2",
                       "--trials", "50", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["trials"] == 50
    assert doc["convex_share"] == pytest.approx(0.5)
    assert 0.0 <= doc["ci95"][0] <= doc["estimate"] <= doc["ci95"][1] <= 1.0
    # deterministic under the same seed
    code2, out2, _ = run(capsys, "simulate", "--n", "4", "--k", "2",
                         "--trials", "50", "--seed", "3")
    assert out2 == out


def test_simulate_convex_share_at_whole_multiples_of_capacity(capsys):
    """No supplier is marginal, so every trial has an equilibrium."""
    code, out, _ = run(capsys, "simulate", "--n", "3", "--k", "0",
                       "--demand", "4", "--trials", "20")
    assert code == 0
    doc = json.loads(out)
    assert doc["estimate"] == 1.0
    assert doc["convex_share"] == 1.0


def test_simulate_config_echoes_no_norm(capsys):
    """simulate has no --norm, so its config names no norm."""
    code, out, _ = run(capsys, "simulate", "--n", "4", "--k", "2", "--trials", "5",
                       "--tol", "1e-6")
    assert code == 0
    assert json.loads(out)["config"] == {"tol": 1e-6}


def test_parser_built_once_dispatches_to_the_current_handler(monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_simulate", lambda args: seen.append(args.n) or 0)
    assert main(["simulate", "--n", "3", "--k", "1"]) == 0
    assert seen == [3]


def test_simulate_bad_spec(capsys):
    code, _, err = run(capsys, "simulate", "--n", "4", "--k", "9")
    assert code == 1
    assert "error" in err


def test_simulate_rejects_demand_beyond_capacity(capsys):
    # three suppliers of capacity 2 cannot cover a demand of 7
    code, out, err = run(capsys, "simulate", "--n", "3", "--k", "1",
                         "--demand", "7", "--trials", "20")
    assert code == 1
    assert out == ""
    assert "demand 7" in err
    code, _, _ = run(capsys, "simulate", "--n", "2", "--k", "1",
                     "--demand", "3", "--trials", "20")
    assert code == 0


def test_report_pipeline(capsys, tmp_path, four_agent_market):
    (tmp_path / "one.market.csv").write_text(emit_market(four_agent_market))
    code, out, _ = run(capsys, "clear", str(tmp_path / "one.market.csv"),
                       "--mode", "chp", "--out", str(tmp_path / "one.outcome.json"))
    assert code == 0
    code, out, _ = run(capsys, "report", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["instances"] == 1
    grp = doc["groups"]["four-agent"]
    assert grp["count"] == 1
    assert grp["equilibrium_pct"] == pytest.approx(0.0)


def test_report_writes_files(capsys, tmp_path, four_agent_market):
    (tmp_path / "one.market.csv").write_text(emit_market(four_agent_market))
    run(capsys, "clear", str(tmp_path / "one.market.csv"),
        "--mode", "chp", "--out", str(tmp_path / "one.outcome.json"))
    out_dir = tmp_path / "agg"
    code, _, _ = run(capsys, "report", str(tmp_path), "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "report.json").exists()
    csv_text = (out_dir / "report.csv").read_text()
    assert csv_text.splitlines()[0] == "label,count,equilibrium_pct,median_volume_ratio"
    assert "four-agent" in csv_text


def test_report_empty_dir(capsys, tmp_path):
    code, _, err = run(capsys, "report", str(tmp_path))
    assert code == 1
    assert "no market" in err


@pytest.mark.parametrize("edit", [lambda doc: {k: v for k, v in doc.items() if k != "welfare"},
                                  lambda doc: list(doc),
                                  lambda doc: {**doc, "welfare": "abc"},
                                  lambda doc: {**doc, "per_agent_value": [0.0]}],
                         ids=["missing-field", "json-array", "welfare-not-a-number",
                              "values-not-a-map"])
def test_report_malformed_outcome_exits_1(capsys, tmp_path, four_agent_market, edit):
    # each once ended in a TypeError traceback
    (tmp_path / "one.market.csv").write_text(emit_market(four_agent_market))
    outcome = tmp_path / "one.outcome.json"
    run(capsys, "clear", str(tmp_path / "one.market.csv"), "--out", str(outcome))
    outcome.write_text(json.dumps(edit(json.loads(outcome.read_text()))))
    code, out, err = run(capsys, "report", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("field, value", [("label", 7), ("equilibrium", "yes"),
                                          ("convex_volume", "abc"),
                                          ("nonconvex_volume", None)])
def test_report_rejects_a_mistyped_figure_field(capsys, tmp_path, four_agent_market,
                                                field, value):
    # `figure_data` reads these; a "convex_volume" of "abc" once ended in a
    # TypeError traceback there
    (tmp_path / "one.market.csv").write_text(emit_market(four_agent_market))
    outcome = tmp_path / "one.outcome.json"
    run(capsys, "clear", str(tmp_path / "one.market.csv"), "--out", str(outcome))
    outcome.write_text(json.dumps({**json.loads(outcome.read_text()), field: value}))
    code, out, err = run(capsys, "report", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {field} is not a ")


def test_report_mixed_dimensions(capsys, tmp_path, four_agent_market):
    (tmp_path / "a.market.csv").write_text(emit_market(four_agent_market))
    run(capsys, "clear", str(tmp_path / "a.market.csv"),
        "--mode", "chp", "--out", str(tmp_path / "a.outcome.json"))
    two_hour = ("header,2,EUR,MW,pair\n"
                "curve,b,cb,1,stepwise,6.0,1.0\n"
                "curve,s,cs,2,stepwise,2.0,-1.0\n"
                "block,x,bx,-1.0,1.0,,,,-1.0,1.0\n")
    (tmp_path / "b.market.csv").write_text(two_hour)
    run(capsys, "clear", str(tmp_path / "b.market.csv"),
        "--mode", "chp", "--out", str(tmp_path / "b.outcome.json"))
    code, _, err = run(capsys, "report", str(tmp_path))
    assert code == 1
    assert "inconsistent" in err
