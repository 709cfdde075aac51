#!/usr/bin/env python3
"""Windowed-detector recall against the STFT tracker on synthetic recordings.

Generates N recordings, each holding one rumble at a random onset with a
random SNR, runs both detectors on every recording, and reports pooled
recall plus a per-SNR-bucket breakdown. A rumble lasts 3 to 5 s and starts
at least 0.5 s into its recording and ends 0.5 s before its end, so a
recording lasts at least 6 s. A bad flag is a usage error (exit 2).
"""

import argparse
import math

import numpy as np

from hecsim.detection import (Algorithm1Params, detect_stream,
                              match_and_recall, stft_oracle_detect)
from hecsim.errors import InvalidInputError
from hecsim.seeds import derive_seed
from hecsim.signals import RumbleSpec, synth_rumble_stream


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--recordings", type=int, default=50)
    ap.add_argument("--total-s", type=float, default=20.0)
    ap.add_argument("--snr-low", type=float, default=5.0)
    ap.add_argument("--snr-high", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.recordings < 1:
        ap.error(f"--recordings must be at least 1, got {args.recordings}")
    if not 6.0 <= args.total_s < math.inf:
        ap.error(f"--total-s must be at least 6 and finite, got {args.total_s}")
    if not math.isfinite(args.snr_low) or not math.isfinite(args.snr_high):
        ap.error(f"--snr-low and --snr-high must be finite, got "
                 f"{args.snr_low} and {args.snr_high}")
    if args.snr_low > args.snr_high:
        ap.error(f"--snr-low {args.snr_low} is above --snr-high "
                 f"{args.snr_high}")
    if args.seed < 0:
        ap.error(f"--seed must be non-negative, got {args.seed}")
    # the amplitude ratio rises with the SNR: if both bounds give a finite
    # one, every SNR drawn between them does
    for snr in (args.snr_low, args.snr_high):
        try:
            RumbleSpec(duration_s=3.0, snr_db=snr)
        except InvalidInputError as exc:
            ap.error(f"--snr-low/--snr-high: {exc}")

    params = Algorithm1Params()
    rng = np.random.default_rng(args.seed)
    pooled_oracle = 0
    pooled_matched = 0
    buckets: dict[int, list[int]] = {}

    for i in range(args.recordings):
        duration = float(rng.uniform(3.0, 5.0))
        onset = float(rng.uniform(0.5, args.total_s - duration - 0.5))
        snr = float(rng.uniform(args.snr_low, args.snr_high))
        trace = synth_rumble_stream(
            [(onset, RumbleSpec(duration_s=duration, snr_db=snr))],
            total_s=args.total_s,
            seed=derive_seed(args.seed, "recording", i))
        detections = detect_stream(trace, params)
        events = stft_oracle_detect(trace)
        report = match_and_recall(detections, events, window_s=params.window_s)
        pooled_oracle += report.oracle_count
        pooled_matched += report.matched_count
        bucket = int(snr // 5) * 5
        hit = 1 if (report.recall is not None and report.recall == 1.0) else 0
        buckets.setdefault(bucket, []).append(hit)

    recall = pooled_matched / pooled_oracle if pooled_oracle else float("nan")
    print(f"recordings: {args.recordings}")
    print(f"oracle events: {pooled_oracle}  matched: {pooled_matched}")
    print(f"pooled recall: {recall:.4f}")
    for bucket in sorted(buckets):
        hits = buckets[bucket]
        print(f"  SNR [{bucket},{bucket + 5}) dB: "
              f"{sum(hits)}/{len(hits)} recordings fully matched")


if __name__ == "__main__":
    main()
