"""Benchmark of equilab: one workload, one process, one caller, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; equilab is imported from `src/`.
With `--trace 0` the op loop runs untraced for S seconds (and for at least
100 ops) and the end-to-end metrics are printed.  With `--trace 1` a fixed
op count runs once untraced and once traced, and the per-layer metrics are
printed.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is nonzero
when an output check fails or equilab cannot be found.
"""

import time

PROCESS_START = time.perf_counter()

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_equilab() -> None:
    """Import equilab from this checkout's `src/`, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "equilab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no equilab package under {src}")
    # One core, one thread: pinned before numpy can start a BLAS thread pool.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(ROOT)]
    import equilab
    if Path(equilab.__file__).resolve().parent != (src / "equilab").resolve():
        raise SystemExit(f"perfbench: equilab imported from {equilab.__file__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_equilab()
    import_s = time.perf_counter() - PROCESS_START
    from perfbench import harness
    from perfbench.workloads import WORKLOADS, CheckError
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    workdir = ROOT / ".perfbench" / f"{workload.name}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)

    correct, loop, metrics, facts = True, None, {}, {}
    host = harness.HostSpeed()
    try:
        pool, rounds = harness.setup(workload, args.seed, workdir, host)
        if args.trace:
            loop, metrics, facts, _ = harness.run_traced(
                workload, pool, workdir, args.seed)
        else:
            imports = harness.import_timings(ROOT / "src", host)
            scaled, unscaled = zip(harness.setup_seconds(host, imports),
                                   harness.setup_seconds(host, rounds))
            loop, metrics, facts = harness.run_untraced(
                workload, pool, args.seconds, host, (sum(scaled), sum(unscaled)))
            facts.update(import_s=import_s,
                         fresh_import_s=[s for _, s in imports],
                         setup_rounds_s=[s for _, s in rounds])
    except CheckError as exc:
        print(f"perfbench: wrong output: {exc}", file=sys.stderr)
        correct = False

    env = harness.environment()
    env.update(workload=workload.name, seed=args.seed)
    print("# env " + json.dumps(env))
    if loop is not None:
        facts["digest"] = loop.digest.hexdigest()
        print("# run " + json.dumps(facts))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(loop.latencies) if loop else 1,
        "failed": loop.failed if loop else 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
