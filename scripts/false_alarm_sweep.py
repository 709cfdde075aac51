#!/usr/bin/env python3
"""False-trigger rate of the windowed detector on pure noise.

Scores many independent noise windows and prints the fraction that reach
each score level. The strict in-band run rule makes ds >= 1 on noise rare;
this sweep quantifies how rare at a chosen window count. The windows are
consecutive windows of one white-noise trace, drawn in one call.

The same trace also goes through TriggerScreen, the screened block-stream
scorer the scenario runs use, in the blocks of whole windows a scenario run
gives it (block_samples); the script exits 1 if it does not return exactly
the ds >= 1 windows of detect_stream.
"""

import argparse
import math
import sys

import numpy as np

from hecsim.detection import Algorithm1Params, TriggerScreen, detect_stream
from hecsim.errors import InvalidInputError
from hecsim.signals import Signal


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--windows", type=int, default=1000)
    ap.add_argument("--rate", type=float, default=1000.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.windows < 1:
        ap.error(f"--windows must be at least 1, got {args.windows}")
    if not 0 < args.rate < math.inf:
        ap.error(f"--rate must be positive and finite, got {args.rate}")

    params = Algorithm1Params()
    rng = np.random.default_rng(args.seed)
    n = int(round(params.window_s * args.rate))
    trace = Signal(samples=rng.standard_normal(args.windows * n),
                   sample_rate_hz=args.rate)
    try:
        detections = detect_stream(trace, params)
    except InvalidInputError as exc:  # a rate too low for the sub-segments
        ap.error(f"--rate {args.rate}: {exc}")
    counts = {ds: sum(d.ds == ds for d in detections) for ds in (0, 1, 2)}
    worst_run = max(d.max_run for d in detections)

    print(f"windows: {args.windows}")
    for ds in (0, 1, 2):
        frac = counts[ds] / args.windows
        print(f"  ds={ds}: {counts[ds]} ({frac:.4%})")
    print(f"longest in-band run seen: {worst_run}")
    print(f"fraction ds>=1: {(counts[1] + counts[2]) / args.windows:.4%}")

    hits = [d for d in detections if d.ds >= 1]
    screen, x = TriggerScreen(args.rate, params), trace.samples
    step = screen.block_samples
    if screen(x[i:i + step] for i in range(0, len(x), step)) != hits:
        print("TriggerScreen differs from detect_stream's ds>=1 windows",
              file=sys.stderr)
        sys.exit(1)
    print(f"TriggerScreen agrees on all {len(hits)} ds>=1 windows")


if __name__ == "__main__":
    main()
