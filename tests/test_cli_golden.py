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
    cases["simulate-n6-k3"] = ["simulate", "--n", "6", "--k", "3", "--demand", "5",
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
