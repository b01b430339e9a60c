"""Set-up, the timed op loop and the traced pass of the benchmark."""

from __future__ import annotations

import bisect
import gc
import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

from .tracing import Tracer, layer_metrics
from .workloads import DESIGNED_FAILURES, CheckError

SETUP_ROUNDS = 3      # set-up is repeated and its median reported
MIN_OPS = 100         # at least 10 samples beyond p90
PASSES = 3            # an op's latency is its fastest of PASSES runs
LOOP_LIMIT_S = 150.0  # the op loop stops here even below MIN_OPS
REFERENCE_S = 0.6e-3  # nominal seconds of reference_work(); see HostSpeed


def reference_work() -> int:
    """A fixed computation independent of equilab: interpreter work plus
    small numpy calls, about the mix an equilab op makes."""
    total = 0
    seen = {}
    for i in range(3000):
        total += i * i
        seen[i % 17] = total
    a = numpy.arange(12.0).reshape(3, 4)
    for _ in range(20):
        b = a @ a.T
        numpy.linalg.solve(b + 50.0 * numpy.eye(3), a[:, 0])
    return total


class HostSpeed:
    """The host's speed over time, from timing `reference_work()` between ops.

    Other machines on a shared host slow every op by up to 1.9x, in phases
    from seconds to minutes.  `factor(at)` is REFERENCE_S over the 10th
    percentile of the reference times within WINDOW_S of time `at`; a time
    measured then and multiplied by it reads as on a host where the
    reference takes REFERENCE_S.
    """

    INTERVAL_S = 0.1
    WINDOW_S = 2.5

    def __init__(self):
        self.times: list[float] = []      # start of each reference run
        self.samples: list[float] = []    # its duration
        self._last = float("-inf")

    def sample(self) -> None:
        """Time the reference once, unless one ran in the last INTERVAL_S."""
        if time.perf_counter() - self._last >= self.INTERVAL_S:
            self._time_reference()

    def burst(self, n: int = 5) -> None:
        """Time the reference n times now, around a step outside the op loop."""
        for _ in range(n):
            self._time_reference()

    def _time_reference(self) -> None:
        start = time.perf_counter()
        reference_work()
        self._last = time.perf_counter()
        self.times.append(start)
        self.samples.append(self._last - start)

    def factor(self, at: float | None = None) -> float:
        """The factor around time `at`, or over the whole run when None."""
        window = self.samples
        if at is not None:
            lo = bisect.bisect_left(self.times, at - self.WINDOW_S)
            hi = bisect.bisect_right(self.times, at + self.WINDOW_S)
            window = self.samples[lo:hi] or self.samples
        ranked = sorted(window)
        return REFERENCE_S / ranked[len(ranked) // 10]


class Loop:
    """Runs ops on the pool, checks every output and keeps a digest."""

    def __init__(self, workload, pool, host: HostSpeed | None = None):
        self.workload, self.pool, self.host = workload, pool, host
        self.latencies: list[float] = []
        self.starts: list[float] = []
        self.failed = 0
        self.digest = hashlib.sha256()

    def step(self, i: int, tracer: Tracer | None = None) -> str:
        """Run and check op i; returns its digest line."""
        w = self.workload
        item = self.pool[i % len(self.pool)]
        if self.host is not None:
            self.host.sample()
        if tracer is not None:
            tracer.op_id, tracer.enabled = i, True
        start = time.perf_counter()
        self.starts.append(start)
        try:
            out = w.op(item)
        except DESIGNED_FAILURES as exc:
            out = exc
        finally:
            self.latencies.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.enabled = False
        if isinstance(out, DESIGNED_FAILURES):
            self.failed += 1
            line = f"failed:{type(out).__name__}"
        else:
            line = w.check(item, out)
        self.digest.update(line.encode() + b"\n")
        return line

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)


def environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def _timed_steps(host: HostSpeed, steps) -> list[tuple[float, float]]:
    """Run each step between reference bursts; returns (start, seconds) pairs."""
    timings = []
    for step in steps:
        host.burst()
        start = time.perf_counter()
        step()
        timings.append((start, time.perf_counter() - start))
    host.burst()
    return timings


def setup_seconds(host: HostSpeed, timings) -> tuple[float, float]:
    """Median of the step times, scaled by the host factor and unscaled."""
    return (statistics.median(s * host.factor(start) for start, s in timings),
            statistics.median(s for _, s in timings))


def import_timings(src: Path, host: HostSpeed) -> list[tuple[float, float]]:
    """Wall time for a fresh interpreter to start and import equilab from
    `src`, SETUP_ROUNDS times."""
    env = dict(os.environ, PYTHONPATH=str(src))
    return _timed_steps(host, [lambda: subprocess.run(
        [sys.executable, "-c", "import equilab"], env=env, cwd=src,
        check=True, timeout=120)] * SETUP_ROUNDS)


def setup(workload, seed: int, workdir: Path, host: HostSpeed):
    """Set up SETUP_ROUNDS times: inputs, files and warm-up ops.

    Returns the pool of the last round and the (start, seconds) of each round.
    """
    pool = None

    def one_round():
        nonlocal pool
        pool = None                    # one pool in memory at a time
        pool = workload.inputs(seed, workdir)
        warm = Loop(workload, pool)
        for i in range(workload.WARMUP):
            warm.step(i)

    timings = _timed_steps(host, [one_round] * SETUP_ROUNDS)
    # The pool lives for the whole run; keep the collector off it.
    gc.collect()
    gc.freeze()
    return pool, timings


def _latency_figures(latencies: list[float]) -> dict:
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
    return {"ops_per_s": len(latencies) / sum(latencies),
            "op_ms_p50": statistics.median(latencies) * 1e3,
            "op_ms_p90": p90 * 1e3}


def run_untraced(workload, pool, seconds: float, host: HostSpeed,
                 setup_s: tuple[float, float]):
    """The timed loop; returns the loop, the end-to-end metrics and run facts.

    The first pass runs ops until 1/PASSES of `seconds` is spent (and for at
    least MIN_OPS ops); PASSES - 1 more passes repeat the same ops in the
    same order.  Each latency is scaled by the `HostSpeed` factor around the
    time it was measured, and an op's latency is its fastest scaled pass.
    `setup_s` is the (scaled, unscaled) set-up time.  Every pass is checked
    and must give the same outputs as the first.
    """
    first = Loop(workload, pool, host)
    lines = []
    begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - begin
        n = len(first.latencies)
        if (elapsed >= seconds / PASSES and n >= MIN_OPS) or elapsed >= LOOP_LIMIT_S:
            break
        lines.append(first.step(n))
    passes = [first]
    for _ in range(PASSES - 1):
        again = Loop(workload, pool, host)
        for i in range(len(lines)):
            if again.step(i) != lines[i]:
                raise CheckError(f"op {i} gave a different output on a later pass")
        passes.append(again)
    raw = [min(p.latencies[i] for p in passes) for i in range(len(lines))]
    best = [min(p.latencies[i] * host.factor(p.starts[i]) for p in passes)
            for i in range(len(lines))]
    scaled = _latency_figures(best)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s[0], "s"),
        "ops_per_s": (scaled["ops_per_s"], "1/s"),
        "op_ms_p50": (scaled["op_ms_p50"], "ms"),
        "op_ms_p90": (scaled["op_ms_p90"], "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    facts = {"ops": len(best), "passes": PASSES,
             "samples_beyond_p90": sum(v * 1e3 > scaled["op_ms_p90"] for v in best),
             "fail_ratio": first.failed / len(best),
             "host_factor": host.factor(), "reference_samples": len(host.samples),
             "unscaled": dict(_latency_figures(raw), setup_s=setup_s[1]),
             "loop_s": time.perf_counter() - begin}
    return first, metrics, facts


def run_traced(workload, pool, workdir: Path, seed: int, ops: int | None = None):
    """The first `ops` ops untraced, then traced; returns the traced loop,
    the per-layer metrics and run facts.  Spans go to `workdir`."""
    n = workload.TRACE_OPS if ops is None else ops
    plain = Loop(workload, pool)
    for i in range(n):
        plain.step(i)
    tracer = Tracer()
    tracer.install()
    traced = Loop(workload, pool)
    try:
        for i in range(n):
            traced.step(i, tracer)
    finally:
        tracer.uninstall()
    if traced.digest.hexdigest() != plain.digest.hexdigest():
        raise CheckError("traced and untraced outputs differ")
    agents = sum(workload.agents(pool[i % len(pool)]) for i in range(n))
    metrics = layer_metrics(tracer, agents)
    metrics["trace_overhead"] = (traced.ops_per_s / plain.ops_per_s, "ratio")
    spans = tracer.write_spans(workdir / f"spans-seed{seed}.csv")
    facts = {"ops": n, "spans": spans, "untraced_ops_per_s": plain.ops_per_s,
             "traced_ops_per_s": traced.ops_per_s}
    return traced, metrics, facts, tracer
