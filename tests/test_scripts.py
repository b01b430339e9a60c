"""Byte-level golden of the reference-market walkthrough script's stdout."""

import pathlib
import runpy

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_walkthrough_matches_golden(capsys):
    runpy.run_path(str(ROOT / "scripts" / "reference_market_walkthrough.py"),
                   run_name="__main__")
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (ROOT / "tests" / "golden" / "walkthrough.out").read_bytes()
