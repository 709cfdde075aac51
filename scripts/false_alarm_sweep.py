#!/usr/bin/env python3
"""False-trigger rate of the windowed detector on pure noise.

Scores many independent noise windows and prints the fraction that reach
each score level. The strict in-band run rule makes ds >= 1 on noise rare;
this sweep quantifies how rare at a chosen window count. The windows are
consecutive windows of one white-noise trace, drawn in one call.
"""

import argparse

import numpy as np

from hecsim.detection import Algorithm1Params, detect_stream
from hecsim.signals import SeismicTrace


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--windows", type=int, default=1000)
    ap.add_argument("--rate", type=float, default=1000.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    params = Algorithm1Params()
    rng = np.random.default_rng(args.seed)
    n = int(round(params.window_s * args.rate))
    trace = SeismicTrace(samples=rng.standard_normal(args.windows * n),
                         sample_rate_hz=args.rate)
    detections = detect_stream(trace, params)
    counts = {ds: sum(d.ds == ds for d in detections) for ds in (0, 1, 2)}
    worst_run = max(d.max_run for d in detections)

    print(f"windows: {args.windows}")
    for ds in (0, 1, 2):
        frac = counts[ds] / args.windows
        print(f"  ds={ds}: {counts[ds]} ({frac:.4%})")
    print(f"longest in-band run seen: {worst_run}")
    print(f"fraction ds>=1: {(counts[1] + counts[2]) / args.windows:.4%}")


if __name__ == "__main__":
    main()
