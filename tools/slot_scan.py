"""Scan the TDMA slot optimizer over SNRs 30 decades wide, with relay-only users.

    python3 tools/slot_scan.py [--src CHECKOUT/src] [--seeds 1 2 3] [--blocks 100]

Imports marcsim from ``--src`` (default: this checkout's ``src``). For each
seed, K in 2, 3, 4, 6, 8 and relay-only share 0, 0.3, 0.6 it takes a fresh
``default_rng(seed)`` and draws ``--blocks`` blocks of 500 trials: d, then
nr, each 10**uniform(-15, 15, (500, K)); then hp, 10**uniform(-15, 15, 500);
then d = 0 where rng.random((500, K)) < share. Each block goes through
``tdma.block_slots``. It prints the failures per seed, and each failing
trial as seed, K, share, block, row, message, d, nr and hp, so that two
checkouts' lists can be compared.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
N = 500


def blocks(seed: int, K: int, share: float, n_blocks: int):
    """The (d, nr, hp) of each of n_blocks blocks of N trials of the recipe."""
    rng = np.random.default_rng(seed)
    for _ in range(n_blocks):
        d = 10.0 ** rng.uniform(-15.0, 15.0, (N, K))
        nr = 10.0 ** rng.uniform(-15.0, 15.0, (N, K))
        hp = 10.0 ** rng.uniform(-15.0, 15.0, N)
        d[rng.random((N, K)) < share] = 0.0
        yield d, nr, hp


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", type=Path, default=ROOT / "src", help="the checkout's src folder")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--blocks", type=int, default=100, help="blocks of 500 trials per case")
    args = p.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from marcsim import tdma

    print(f"marcsim from {args.src}")
    for seed in args.seeds:
        failures = 0
        for K in (2, 3, 4, 6, 8):
            for share in (0.0, 0.3, 0.6):
                for b, (d, nr, hp) in enumerate(blocks(seed, K, share, args.blocks)):
                    _, why = tdma.block_slots(d, nr, hp)
                    failures += len(why)
                    for j, message in sorted(why.items()):
                        print(f"FAIL seed={seed} K={K} share={share} block={b} row={j}: "
                              f"{message}; d={d[j].tolist()} nr={nr[j].tolist()} "
                              f"hp={hp[j].item()!r}")
        print(f"seed {seed}: {failures} failures in {15 * args.blocks * N} trials")
    return 0


if __name__ == "__main__":
    sys.exit(main())
