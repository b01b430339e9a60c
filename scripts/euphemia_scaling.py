"""Time uniform-price clearing on corpus markets as the hour count grows.

For each hour count K the script draws the corpus markets of
`tests/market_corpus.py` with seeds (1, i), i < 40, and `max_blocks=8`, and
clears each with `clear_euphemia_style`.  Per K it prints the wall time, the
markets rejected with `ClearingComplexityError`, the summed `combos_checked`
and a SHA-256 digest of every result field, so two checkouts can be compared
for speed and for identical output:

    PYTHONPATH=src python3 scripts/euphemia_scaling.py [--markets 40]
        [--out scaling.json]
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from market_corpus import random_market  # noqa: E402

from equilab.euphemia import ClearingComplexityError, clear_euphemia_style  # noqa: E402

HOURS = (1, 2, 4)


def _record(res) -> str:
    return repr((res.status, res.lam, res.welfare, res.active_blocks,
                 res.combos_checked, list(res.allocation.acceptances.items())))


def measure(K: int, n_markets: int) -> dict:
    markets = [random_market(np.random.default_rng((1, i)), K=K, max_blocks=8)
               for i in range(n_markets)]
    digest = hashlib.sha256()
    rejected = combos = 0
    start = time.perf_counter()
    for market in markets:
        try:
            res = clear_euphemia_style(market)
        except ClearingComplexityError:
            rejected += 1
            digest.update(b"rejected\n")
            continue
        combos += res.combos_checked
        digest.update(_record(res).encode() + b"\n")
    wall = time.perf_counter() - start
    return {"K": K, "markets": n_markets, "wall_s": round(wall, 4),
            "rejected": rejected, "combos_checked": combos,
            "digest": digest.hexdigest()}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--markets", type=int, default=40)
    ap.add_argument("--out", type=Path, help="also write the rows as JSON")
    args = ap.parse_args()

    rows = []
    for K in HOURS:
        row = measure(K, args.markets)
        rows.append(row)
        print(f"K={K:<3} {row['wall_s']:8.3f} s  rejected {row['rejected']:>2}/"
              f"{row['markets']}  combos {row['combos_checked']:>8}  "
              f"digest {row['digest'][:16]}")
    if args.out:
        args.out.write_text(json.dumps(rows, indent=1) + "\n")


if __name__ == "__main__":
    main()
