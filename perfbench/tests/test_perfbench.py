"""Tests of the benchmark itself: frozen inputs, tracing and the contract.

Run from the repository root with `python -m pytest perfbench/tests`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import market_corpus
from perfbench import harness, markets
from perfbench.tracing import TRACED, Tracer
from perfbench.workloads import WORKLOADS, interleave

ROOT = Path(__file__).resolve().parents[2]

# Ops per traced pass in these tests: enough to reach every traced layer of
# the workload (approx_corpus needs each K of its cycle, clear_large both
# modes and both file formats).
TEST_OPS = {"montecarlo": 4, "approx_corpus": 8, "euphemia_corpus": 3,
            "clear_large": 4}


@pytest.mark.parametrize("K,max_blocks,one_block,structured", [
    (1, 8, False, True), (2, 6, False, True), (4, 8, False, True),
    (24, 8, False, True), (2, 4, False, True), (1, 0, False, True),
    (3, 5, True, True), (2, 8, False, False),
])
def test_frozen_generator_matches_corpus(K, max_blocks, one_block, structured):
    for i in range(40):
        ours = markets.random_market(np.random.default_rng((90210, i)), K,
                                     max_blocks, one_block, structured)
        theirs = market_corpus.random_market(np.random.default_rng((90210, i)), K,
                                             max_blocks, one_block, structured)
        assert ours == theirs


def test_large_market_has_requested_agents():
    market = markets.large_market(np.random.default_rng(3), 12, K=24)
    assert len(market.agents) == 12
    assert market.num_commodities == 24
    assert all(len(a.block_bids) <= 3 for a in market.agents)


def test_interleave_keeps_shares_in_every_prefix():
    groups = [list(range(10)), list(range(100, 103)), list(range(200, 201))]
    order = interleave(groups)
    assert sorted(order) == sorted(sum(groups, []))
    for n in range(1, len(order) + 1):
        for g in groups:
            share = n * len(g) / len(order)
            assert abs(sum(x in g for x in order[:n]) - share) < 1.0 + 1e-9


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Two traced passes per workload on one seed, plus their pools."""
    runs = {}
    for name, cls in WORKLOADS.items():
        workdir = tmp_path_factory.mktemp(name)
        workload = cls()
        pool = workload.inputs(5, workdir)
        runs[name] = [harness.run_traced(workload, pool, workdir, 5,
                                         ops=TEST_OPS[name])
                      for _ in range(2)]
    return runs


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counters_repeat(traced_runs, name):
    (_, first, _, _), (_, second, _, _) = traced_runs[name]
    counts = {k: v for k, (v, unit) in first.items() if unit == "count"}
    assert counts == {k: v for k, (v, unit) in second.items() if unit == "count"}
    assert any(counts.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_and_untraced_digests_agree(traced_runs, tmp_path, name):
    workload = WORKLOADS[name]()
    pool = workload.inputs(5, tmp_path)
    plain = harness.Loop(workload, pool)
    for i in range(TEST_OPS[name]):
        plain.step(i)
    traced_loop = traced_runs[name][0][0]
    assert plain.digest.hexdigest() == traced_loop.digest.hexdigest()


@pytest.mark.parametrize("span,workload", [(s, w) for s, _, _, w in TRACED])
def test_every_traced_function_is_called_on_its_workload(traced_runs, span, workload):
    tracer = traced_runs[workload][0][3]
    assert tracer.calls[span] > 0, f"{span} never traced on {workload}"


def test_tracing_restores_the_package():
    import equilab.euphemia
    import equilab.lp
    before = equilab.euphemia.solve_lp
    assert before is equilab.lp.solve_lp
    tracer = Tracer()
    tracer.install()
    try:
        assert equilab.euphemia.solve_lp is not before
        assert equilab.euphemia.solve_lp is equilab.lp.solve_lp
    finally:
        tracer.uninstall()
    assert equilab.euphemia.solve_lp is before


def test_fails_without_the_package(tmp_path):
    """In a directory holding only the benchmark, the run fails and prints
    no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = [sys.executable] + bench["command"][1:] + [
        "--workload", bench["workloads"][0]["name"], "--seed", "1",
        "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
