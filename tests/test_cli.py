"""CLI end to end: commands, exit codes, golden outputs."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from equilab import cli
from equilab.cli import main
from equilab.convexify import solve_lp
from equilab.market_io import (emit_market, load_outcome, parse_outcome,
                               save_outcome)

from conftest import FIXTURES
from market_corpus import random_market

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


@pytest.mark.parametrize("mode", ["exact", "chp"])
def test_clear_demand_piece_cap_exits_budget(capsys, seven_blocks, mode):
    code, out, err = run(capsys, "clear", seven_blocks, "--mode", mode)
    assert code == 3
    assert out == ""
    assert err == "error: 128 demand pieces (cap 64)\n"


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
