#!/usr/bin/env python3
"""Run the full theorem suite over the curated carrier corpus.

Prints one line per ring with pass/fail/skip counts and exits nonzero if
any theorem fails on a carrier whose hypotheses were satisfied.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import starorder as so

# The corpus is shared with the test suite.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from corpus import curated_rings  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--limit", type=int, default=30, help="modular family bound")
    args = parser.parse_args()

    red_alerts = 0
    t0 = time.time()
    for ring in curated_rings(args.limit):
        verdicts = so.run_suite(ring)
        counts = {"pass": 0, "fail": 0, "skipped": 0}
        for v in verdicts:
            counts[v.status] += 1
            if v.status == "fail" and v.hypothesis_met:
                red_alerts += 1
                print(f"  RED ALERT {ring.label}: {v.theorem} witness={v.witness}")
        print(
            f"{ring.label:<18} order={ring.order:<4} "
            f"pass={counts['pass']:<3} fail={counts['fail']:<2} "
            f"skipped={counts['skipped']}"
        )
    print(f"done in {time.time() - t0:.1f}s, red alerts: {red_alerts}")
    return 1 if red_alerts else 0


if __name__ == "__main__":
    sys.exit(main())
