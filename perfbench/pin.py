"""Regenerate pins.json: the digest of every possible item and of the report.

    PYTHONPATH=src python3 perfbench/pin.py [--workload NAME ...]

Run from the root of a checkout whose reports are known to be right (the
tier-1 suite passes).  Every verdict must hold or nothing is written.
witt-chains pins all 625 pairs under each structure, so any seed's sample
can be checked, and the order of the pairs by measured time, from which
samples are drawn: a pair costs the sum of its items' median times over
ORDER_PASSES passes.  That takes about 20 minutes on an otherwise idle
machine.  The report digest is pinned for every seed where the rows do
not depend on it, and for the default seed otherwise.  Item timings go
to stderr.
"""

import argparse
import json
import statistics
import sys
import time

from worker import item_digest, report_digest
from workloads import DEFAULT_SEED, PINS, WITT_SIZE, WORKLOADS, WittChains, witt_pairs

ORDER_PASSES = 3


def pin(name):
    wl = WORKLOADS[name]()
    witt = isinstance(wl, WittChains)
    if witt:
        every = [(i, j) for i in range(1, WITT_SIZE + 1) for j in range(1, WITT_SIZE + 1)]
        wl.setup(DEFAULT_SEED, order=every)
        wl.pairs = every
    else:
        wl.setup(DEFAULT_SEED)
    rows, seconds = {}, {}
    for _ in range(ORDER_PASSES if witt else 1):
        for key, call in wl.items():
            start = time.perf_counter()
            got = call()
            seconds.setdefault(key, []).append(time.perf_counter() - start)
            print(f"{name} {key} {seconds[key][-1]:.4f}", file=sys.stderr, flush=True)
            if not wl.verdict(key, got) or rows.setdefault(key, got) != got:
                raise SystemExit(f"{name} {key}: verdict false or rows differ, "
                                 f"nothing pinned: {got}")
    out = {"items": {key: item_digest(r) for key, r in rows.items()}}
    if witt:
        cost = {}
        for key, times in seconds.items():
            pair = key.split("|")[0]
            cost[pair] = cost.get(pair, 0.0) + statistics.median(times)
        out["order"] = sorted(cost, key=lambda pair: (cost[pair], pair))
        wl.pairs = witt_pairs(DEFAULT_SEED, [tuple(map(int, p.split(","))) for p in out["order"]])
        default_keys = [key for key, _ in wl.items()]
    else:
        default_keys = list(rows)
    report = [row for key in default_keys for row in rows[key]]
    out["report"] = {"seed": DEFAULT_SEED if witt else None,
                     "sha256": report_digest(name, report, True)}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="*", choices=sorted(WORKLOADS), default=sorted(WORKLOADS))
    args = ap.parse_args()
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    for name in args.workload:
        pins[name] = pin(name)
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
