#!/usr/bin/env python3
"""False-trigger rate of the windowed detector on noise of one class.

Scores consecutive windows of one noise trace with detect_stream and prints
the fraction that reach each score level, the longest in-band run and its
99th percentile. The strict in-band run rule makes ds >= 1 on noise rare;
this sweep quantifies how rare at a chosen window count, for the noise a
rule that skips noise-only windows must survive. Each class has unit RMS
before a tone or ring is added:

  white     the noise of a scenario run (synth_rumble_stream, no event)
  pink      deterrent.generate_pink_noise
  brown     integrated white noise, less its trailing 1 s moving mean
  tone      white plus a steady sine (--tone-hz, --tone-amp)
  impulses  white plus a decaying ring every --ring-every-s ("footsteps":
            --ring-hz, --ring-amp, --ring-decay-s)

For white noise the script also checks the run path's rule, that a window
no rumble touches scores 0: if any white-noise window scores ds >= 1, the
script exits 1.
"""

import argparse
import math
import sys

import numpy as np

from hecsim.deterrent import generate_pink_noise
from hecsim.detection import Algorithm1Params, detect_stream
from hecsim.errors import InvalidInputError
from hecsim.signals import Signal, synth_rumble_stream

NOISES = ("white", "pink", "brown", "tone", "impulses")


def noise_trace(args, total: int) -> np.ndarray:
    """total samples of the chosen class at args.rate."""
    rate, seed = args.rate, args.seed
    if args.noise == "pink":
        return generate_pink_noise(total, rate, seed).samples
    x = synth_rumble_stream([], total / rate, rate, seed).samples
    if args.noise == "brown":
        walk = np.cumsum(x)
        sums = np.concatenate(([0.0], np.cumsum(walk)))
        ends = np.arange(1, total + 1)
        starts = np.maximum(0, ends - max(1, int(round(rate))))
        x = walk - (sums[ends] - sums[starts]) / (ends - starts)
        return x / np.sqrt(np.mean(x ** 2))
    t = np.arange(total) / rate
    if args.noise == "tone":
        x += args.tone_amp * np.sin(2 * np.pi * args.tone_hz * t)
    elif args.noise == "impulses":
        since = np.mod(t, args.ring_every_s)
        x += (args.ring_amp * np.exp(-since / args.ring_decay_s)
              * np.sin(2 * np.pi * args.ring_hz * since))
    return x


def main() -> None:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--windows", type=int, default=1000)
    ap.add_argument("--rate", type=float, default=1000.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--noise", choices=NOISES, default="white")
    ap.add_argument("--tone-hz", type=float, default=30.0)
    ap.add_argument("--tone-amp", type=float, default=0.5)
    ap.add_argument("--ring-hz", type=float, default=25.0)
    ap.add_argument("--ring-amp", type=float, default=1.0)
    ap.add_argument("--ring-decay-s", type=float, default=0.1)
    ap.add_argument("--ring-every-s", type=float, default=0.6)
    args = ap.parse_args()
    if args.windows < 1:
        ap.error(f"--windows must be at least 1, got {args.windows}")
    if not 0 < args.rate < math.inf:
        ap.error(f"--rate must be positive and finite, got {args.rate}")
    if args.seed < 0:
        ap.error(f"--seed must be non-negative, got {args.seed}")
    for flag in ("tone_hz", "tone_amp", "ring_hz", "ring_amp"):
        if not math.isfinite(getattr(args, flag)):
            ap.error(f"--{flag.replace('_', '-')} must be finite, got "
                     f"{getattr(args, flag)}")
    for flag in ("ring_decay_s", "ring_every_s"):
        if not 0 < getattr(args, flag) < math.inf:
            ap.error(f"--{flag.replace('_', '-')} must be positive and "
                     f"finite, got {getattr(args, flag)}")

    params = Algorithm1Params()
    n = int(round(params.window_s * args.rate))
    try:
        trace = Signal(samples=noise_trace(args, args.windows * n),
                       sample_rate_hz=args.rate)
        detections = detect_stream(trace, params)
    except InvalidInputError as exc:  # a rate too low for the sub-segments
        ap.error(f"--rate {args.rate}: {exc}")
    counts = {ds: sum(d.ds == ds for d in detections) for ds in (0, 1, 2)}
    runs = [d.max_run for d in detections]

    print(f"noise: {args.noise}")
    print(f"windows: {args.windows}")
    for ds in (0, 1, 2):
        frac = counts[ds] / args.windows
        print(f"  ds={ds}: {counts[ds]} ({frac:.4%})")
    print(f"longest in-band run seen: {max(runs)}")
    print(f"99th percentile run: {np.percentile(runs, 99, method='lower')}")
    print(f"fraction ds>=1: {(counts[1] + counts[2]) / args.windows:.4%}")

    if args.noise == "white":
        if counts[1] + counts[2]:
            print("white noise scores ds>=1, which the run path scores 0 "
                  "by rule", file=sys.stderr)
            sys.exit(1)
        print("no white-noise window scores ds>=1, as the run path's "
              "rule needs")


if __name__ == "__main__":
    main()
