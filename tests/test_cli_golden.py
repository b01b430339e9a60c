"""Byte-level CLI goldens: every case's stdout must match its file exactly.

The cases run from inside `tests/fixtures`, so the `input` echoed in each
outcome's config is the bare file name.  To rewrite the goldens after an
intended output change, run `PYTHONPATH=src python tests/test_cli_golden.py`
and review the diff.
"""

import os
import pathlib

import pytest

from equilab.cli import main
from equilab.market_io import load_market

from conftest import FIXTURES

GOLDEN = pathlib.Path(__file__).parent / "golden"
FIXTURE_NAMES = ("four_agent.csv", "four_agent.json", "structured.csv",
                 "tied_cost.json", "two_hour_block.csv")


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name in FIXTURE_NAMES:
        for mode in ("exact", "chp", "euphemia"):
            cases[f"clear-{mode}-{name}"] = ["clear", name, "--mode", mode]
        cases[f"analyze-{name}"] = ["analyze", name]
        for norm in ("l1", "linf"):
            cases[f"analyze-{norm}-{name}"] = ["analyze", name, "--norm", norm]
        hours = load_market(FIXTURES / name).num_commodities
        cases[f"analyze-price-{name}"] = ["analyze", name, "--price", *["2.5"] * hours]
    # At --tol 0.05 block b4 is at the money, its agent's measure and the
    # singleton-demand verdict change: these lock the tolerance's path into
    # the pricing, the demand sets and the measure.
    for name in ("four_agent.csv", "four_agent.json"):
        cases[f"analyze-tol-{name}"] = ["analyze", name, "--price", "3.1", "--tol", "0.05"]
    # A 12-agent K = 24 market with three off-line demand sets at its
    # convexified prices (4, 4 and 8 pieces); it has no equilibrium.  It is
    # not in FIXTURE_NAMES because --mode euphemia rejects a market this big.
    cases["clear-chp-large_k24.json"] = ["clear", "large_k24.json", "--mode", "chp"]
    cases["analyze-large_k24.json"] = ["analyze", "large_k24.json"]
    # Its off-line multi-piece measures in the two LP norms.
    for norm in ("l1", "linf"):
        cases[f"analyze-{norm}-large_k24.json"] = ["analyze", "large_k24.json", "--norm", norm]
    cases["simulate-n6-k3"] = ["simulate", "--n", "6", "--k", "3", "--demand", "5",
                                "--seed", "4", "--trials", "200"]
    cases["simulate-n40-k13"] = ["simulate", "--n", "40", "--k", "13", "--demand", "5",
                                 "--seed", "4", "--trials", "200"]
    # These lock the one-pass certificate's two routes: at k=0 every marginal
    # supplier is a block, so every trial builds a demand set; at k=n none
    # does.  Demand 4 is a whole multiple of the supplier capacity, and
    # --tol 0.05 moves the containment bar.
    cases["simulate-n10-k0"] = ["simulate", "--n", "10", "--k", "0",
                                "--seed", "4", "--trials", "200"]
    cases["simulate-n12-k12"] = ["simulate", "--n", "12", "--k", "12",
                                 "--seed", "4", "--trials", "200"]
    cases["simulate-n6-k2-demand4"] = ["simulate", "--n", "6", "--k", "2", "--demand", "4",
                                       "--seed", "4", "--trials", "200"]
    cases["simulate-n6-k3-tol"] = ["simulate", "--n", "6", "--k", "3", "--tol", "0.05",
                                   "--seed", "4", "--trials", "200"]
    return cases


CASES = _cases()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, capsys, monkeypatch):
    monkeypatch.chdir(FIXTURES)
    assert main(CASES[case]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / f"{case}.out").read_bytes()


def _rewrite() -> None:
    import contextlib
    import io
    GOLDEN.mkdir(exist_ok=True)
    os.chdir(FIXTURES)
    for case, argv in sorted(CASES.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0, case
        (GOLDEN / f"{case}.out").write_bytes(buf.getvalue().encode("utf-8"))


if __name__ == "__main__":
    _rewrite()
