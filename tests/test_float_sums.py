"""The same float sums on every supported Python.

CPython 3.12 made the builtin `sum` of floats compensated (Neumaier
summation), so its bits differ from 3.11's.  The package sums floats with
`config.ordered_sum`, left to right from +0.0, which keeps 3.11's bits.
These tests run on one interpreter: they put an emulation of 3.12's `sum`
in place of the builtin in every `equilab` module and check that no output
moves.
"""

import sys

import numpy as np
import pytest

from equilab.cli import main
from equilab.config import ordered_sum
from equilab.convexify import dual_value, solve_lp

from conftest import FIXTURES
from market_corpus import random_market
from test_cli_golden import CASES, GOLDEN


def compensated_sum(iterable, start=0):
    """CPython 3.12's builtin `sum`: ints add exactly, then exact floats are
    summed with Neumaier's compensation, which is added back at the end or
    before the first item that is neither an exact float nor a machine int
    (a numpy float, say); from there on each item is added plainly."""
    it = iter(iterable)
    result = start
    if type(result) is int:
        for item in it:
            if type(item) in (int, bool):
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        f, c = result, 0.0
        for item in it:
            if type(item) is float:
                t = f + item
                c += (f - t) + item if abs(f) >= abs(item) else (item - t) + f
                f = t
                continue
            if isinstance(item, int) and -2 ** 63 <= item < 2 ** 63:
                f += float(item)
                continue
            result = (f + c if c and c - c == 0.0 else f) + item
            break
        else:
            return f + c if c and c - c == 0.0 else f
    for item in it:
        result = result + item
    return result


def use_compensated_sum(monkeypatch):
    """`sum` in every loaded `equilab` module becomes the 3.12 emulation."""
    for name, module in list(sys.modules.items()):
        if name == "equilab" or name.startswith("equilab."):
            monkeypatch.setattr(module, "sum", compensated_sum, raising=False)


def test_emulation_compensates_as_python_312():
    tenths = [0.1] * 10
    assert compensated_sum(tenths) == 1.0 != ordered_sum(tenths)
    assert compensated_sum([1e100, 1.0, -1e100]) == 1.0
    assert ordered_sum([1e100, 1.0, -1e100]) == 0.0
    assert compensated_sum([np.float64(0.1)] * 10) == ordered_sum(tenths)
    assert compensated_sum([1, 2, True]) == 4
    assert compensated_sum([-0.0]) == 0.0 and ordered_sum([-0.0]) == 0.0
    assert ordered_sum([]) == 0.0


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_goldens_hold_under_compensated_sum(case, capsys, monkeypatch):
    use_compensated_sum(monkeypatch)
    monkeypatch.chdir(FIXTURES)
    assert main(CASES[case]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / f"{case}.out").read_bytes()


# Corpus markets on which a compensated sum moves the last bit of the price
# dual (K = 1, seed 82) or of the sum of the K largest measures (K = 4,
# seed 133) when the builtin `sum` adds them.
@pytest.mark.parametrize("K, seed", [(1, 82), (4, 133)])
def test_dual_value_and_top_sum_keep_their_bits(K, seed, monkeypatch):
    market = random_market(np.random.default_rng(seed), K=K, max_blocks=8)

    def bits():
        dual = solve_lp(market)
        return dual_value(dual).hex(), dual.nonconvex_stats().top_sum.hex()

    plain = bits()
    use_compensated_sum(monkeypatch)
    assert bits() == plain
