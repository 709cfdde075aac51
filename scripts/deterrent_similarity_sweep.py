#!/usr/bin/env python3
"""Similarity and distinctness of seeded playback modifications.

Draws N modifications of a synthetic bee-buzz clip and reports, per
modification kind, the range of spectral similarity to the original and the
relative L2 change, plus a pairwise-distinctness check over all outputs.
"""

import argparse
import math

import numpy as np

from hecsim.deterrent import (apply_modification, l2_delta, pick_modification,
                              stft_similarity)
from hecsim.errors import InvalidInputError
from hecsim.seeds import derive_seed
from hecsim.signals import synth_bee_buzz


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--draws", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--clip-s", type=float, default=2.0)
    args = ap.parse_args()
    if args.draws < 1:
        ap.error(f"--draws must be at least 1, got {args.draws}")
    if not 0 < args.clip_s < math.inf:
        ap.error(f"--clip-s must be positive and finite, got {args.clip_s}")

    per_kind: dict[str, list[tuple[float, float]]] = {}
    signatures = set()
    try:
        clip = synth_bee_buzz(duration_s=args.clip_s,
                              seed=derive_seed(args.seed, "clip"))
        for i in range(args.draws):
            params = pick_modification(derive_seed(args.seed, "draw", i))
            modified = apply_modification(clip, params)
            score = stft_similarity(clip, modified)
            delta = l2_delta(clip, modified)
            per_kind.setdefault(params.kind.value, []).append(
                (score.max_xcorr, delta))
            signatures.add((round(modified.sample_rate_hz, 9),
                            modified.samples.tobytes()))
    except InvalidInputError as exc:  # a clip too short for a draw's frames
        ap.error(f"--clip-s {args.clip_s}: {exc}")

    print(f"draws: {args.draws}, distinct outputs: {len(signatures)}")
    for kind in sorted(per_kind):
        rows = per_kind[kind]
        sims = np.array([r[0] for r in rows])
        deltas = np.array([r[1] for r in rows])
        print(f"  {kind}: n={len(rows)}  "
              f"similarity min/mean={sims.min():.3f}/{sims.mean():.3f}  "
              f"l2 delta min/mean={deltas.min():.4f}/{deltas.mean():.4f}")


if __name__ == "__main__":
    main()
