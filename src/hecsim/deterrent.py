"""Playback deterrents: randomized bee-sound modifications and similarity.

Elephants habituate to a repeated clip, so every activation draws one of
three modifications with a random strength factor alpha: reinterpreting the
frame rate, overlaying pink noise, or punching short silence gaps. The
spectrogram cross-correlation score checks that a modified clip still
resembles the original.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import InvalidInputError
from .signals import (Signal, check_rate, compute_stft, frame_spectra,
                      sliding_frames)

log = logging.getLogger(__name__)

ALPHA_RANGE = (0.5, 1.5)  # range of the strength factor alpha
# spectrogram frames for the similarity check
SIMILARITY_FRAME_S = 0.064
SIMILARITY_HOP_S = 0.032
# each full frame of this length gets a gap with this probability
_GAP_FRAME_S = 1.0
_GAP_PROB = 0.3


class ModificationKind(str, Enum):
    FRAME_RATE_SCALE = "frame_rate_scale"
    PINK_NOISE_OVERLAY = "pink_noise_overlay"
    SILENCE_GAPS = "silence_gaps"


_KINDS = (ModificationKind.FRAME_RATE_SCALE,
          ModificationKind.PINK_NOISE_OVERLAY,
          ModificationKind.SILENCE_GAPS)


@dataclass(frozen=True)
class ModificationParams:
    """One activation's draw: which modification, how strong, which seed."""

    kind: ModificationKind
    alpha: float
    seed: int


@dataclass(frozen=True)
class SimilarityScore:
    max_xcorr: float
    lag_frames: int


def _check_seed(seed) -> int:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidInputError(f"seed must be an integer >= 0, got {seed!r}")
    return int(seed)


def pick_modification(seed: int) -> ModificationParams:
    """Draw a modification kind uniformly and alpha uniformly in ALPHA_RANGE.

    The seed is recorded in the result so the exact draw can be replayed.
    """
    seed = _check_seed(seed)
    rng = np.random.default_rng(seed)
    kind = _KINDS[int(rng.integers(0, len(_KINDS)))]
    alpha = float(rng.uniform(*ALPHA_RANGE))
    return ModificationParams(kind=kind, alpha=alpha, seed=seed)


def apply_modification(clip: Signal, params: ModificationParams) -> Signal:
    if params.kind is ModificationKind.FRAME_RATE_SCALE:
        return modify_frame_rate(clip, params.alpha)
    if params.kind is ModificationKind.PINK_NOISE_OVERLAY:
        return overlay_pink_noise(clip, params.alpha, params.seed)
    if params.kind is ModificationKind.SILENCE_GAPS:
        return insert_silence_gaps(clip, params.alpha, params.seed)
    raise InvalidInputError(f"unknown modification {params.kind!r}")


def modify_frame_rate(clip: Signal, alpha: float) -> Signal:
    """Reinterpret the samples at alpha times the original rate.

    The sample values are untouched; pitch and duration change together.
    """
    if not alpha > 0:
        raise InvalidInputError(f"alpha must be positive, got {alpha!r}")
    return replace(clip, sample_rate_hz=clip.sample_rate_hz * alpha)


def generate_pink_noise(n_samples: int, sample_rate_hz: float, seed: int) -> Signal:
    """Pink noise with unit RMS: white noise shaped by 1/sqrt(f).

    Shaping the spectrum of seeded white noise keeps the phases random while
    the power density falls off as 1/f. The DC bin is zeroed, so the result
    is mean-free before normalization.
    """
    check_rate(sample_rate_hz)
    if n_samples < 2:
        raise InvalidInputError("need at least two samples")
    rng = np.random.default_rng(_check_seed(seed))
    spectrum = np.fft.rfft(rng.standard_normal(n_samples))
    f = np.fft.rfftfreq(n_samples, 1.0 / sample_rate_hz)
    shape = np.zeros_like(f)
    shape[1:] = 1.0 / np.sqrt(f[1:])
    x = np.fft.irfft(spectrum * shape, n=n_samples)
    x /= np.sqrt(np.mean(x ** 2))
    return Signal(samples=x, sample_rate_hz=sample_rate_hz)


def _check_alpha(alpha: float) -> None:
    if not 0 <= alpha < math.inf:
        raise InvalidInputError(
            f"alpha must be non-negative and finite, got {alpha!r}")


def overlay_pink_noise(clip: Signal, alpha: float, seed: int) -> Signal:
    """Add pink noise scaled to 0.1 * alpha of the clip RMS.

    If the mix exceeds full scale it is renormalized to peak 1. alpha of 0
    or a silent clip returns the input unchanged.
    """
    _check_alpha(alpha)
    _check_seed(seed)
    rms = float(np.sqrt(np.mean(clip.samples ** 2)))
    if alpha == 0.0 or rms == 0.0:
        return clip
    noise = generate_pink_noise(len(clip.samples), clip.sample_rate_hz, seed)
    y = clip.samples + noise.samples * (0.1 * alpha * rms)
    peak = float(np.max(np.abs(y)))
    if peak > 1.0:
        y = y / peak
    return replace(clip, samples=y)


def insert_silence_gaps(clip: Signal, alpha: float, seed: int) -> Signal:
    """Zero one gap of alpha * 100 ms in each randomly selected 1 s frame.

    Every full frame is selected independently with probability 0.3; when
    chance selects none at all, one frame is forced so that a draw can
    never return the clip unmodified. The gap offset is uniform within the
    frame, and a gap longer than the frame is clamped with a warning. Total
    length never changes. A clip shorter than one frame, or a gap that
    rounds to no sample, raises InvalidInputError.
    """
    _check_alpha(alpha)
    rng = np.random.default_rng(_check_seed(seed))
    frame_n = int(round(_GAP_FRAME_S * clip.sample_rate_hz))
    n_frames = len(clip.samples) // frame_n if frame_n else 0
    gap_n = int(round(alpha * 0.1 * clip.sample_rate_hz))
    if n_frames == 0 or gap_n == 0:
        raise InvalidInputError(
            f"no gap fits: {len(clip.samples)} samples at {clip.sample_rate_hz}"
            f" Hz hold {n_frames} whole frames, and alpha {alpha!r} gives a "
            f"{gap_n}-sample gap")
    if gap_n > frame_n:
        log.warning("gap of %d samples clamped to the %d-sample frame",
                    gap_n, frame_n)
        gap_n = frame_n

    mask = rng.random(n_frames) < _GAP_PROB
    selected = [k for k in range(n_frames) if mask[k]]
    if not selected:
        selected = [int(rng.integers(0, n_frames))]

    y = clip.samples.copy()
    for k in selected:
        start = k * frame_n + int(rng.integers(0, frame_n - gap_n + 1))
        y[start:start + gap_n] = 0.0
    return replace(clip, samples=y)


def _onto_grid(grid, freqs, rows):
    """np.interp(grid, freqs, row) for every row, weights found once."""
    j = np.clip(np.searchsorted(freqs, grid, side="right") - 1, 0, len(freqs) - 2)
    # clamped like np.interp; a grid point on a bin takes its value exactly
    w = np.clip((grid - freqs[j]) / (freqs[j + 1] - freqs[j]), 0.0, 1.0)
    out, right = rows[:, j], rows[:, j + 1]  # new arrays, worked in place
    out *= 1.0 - w
    right *= w
    return np.add(out, right, out=out)


def _row_sums(rows):
    """Prefix sums of the row energies and of the count of non-zero rows."""
    energy = np.concatenate(([0.0], (rows * rows).sum(axis=1)))
    return np.cumsum(energy), np.cumsum(energy > 0)


def _overlap_norms(cum, nonzero, lo, hi):
    """Per lag: the norm of rows[lo:hi] and, by row count, if it is non-zero."""
    return np.sqrt(np.maximum(cum[hi] - cum[lo], 0.0)), nonzero[hi] > nonzero[lo]


def _best_lag(la, lb, sums_a=None) -> SimilarityScore:
    """Score every frame lag of two spectrograms (rows are frames) at once.

    A lag's inner product is a diagonal sum of one frame Gram matrix, its
    overlap norms are differences of cumulative row energies. A lag whose
    overlap is all zeros is skipped; ties go to the most negative lag.
    sums_a, if given, is _row_sums(la).
    """
    # the row sums first, while no Gram matrix is held
    sums_a, sums_b = sums_a or _row_sums(la), _row_sums(lb)
    # row i of a meets row j of b at lag i - j
    n_a, n_b = len(la), len(lb)
    diag = np.subtract.outer(np.arange(n_a), np.arange(n_b)) + (n_b - 1)
    dots = np.bincount(diag.ravel(), weights=(la @ lb.T).ravel(),
                       minlength=n_a + n_b - 1)
    lags = np.arange(-(n_b - 1), n_a)
    a0, a1 = np.maximum(lags, 0), np.minimum(lags + n_b, n_a)
    ov_a, live_a = _overlap_norms(*sums_a, a0, a1)
    ov_b, live_b = _overlap_norms(*sums_b, a0 - lags, a1 - lags)
    denom = ov_a * ov_b  # > 0 only guards an overlap lost to cumsum rounding
    scored = live_a & live_b & (denom > 0)
    if not scored.any():
        raise InvalidInputError("no overlapping frames at any lag")
    scores = np.divide(dots, denom, out=np.full(len(lags), -np.inf), where=scored)
    best = int(np.argmax(scores))  # first maximum: the most negative lag
    return SimilarityScore(max_xcorr=float(scores[best]), lag_frames=int(lags[best]))


def _check_finite(**clips: Signal) -> None:
    for name, clip in clips.items():
        if not np.isfinite(clip.samples).all():
            raise InvalidInputError(f"clip {name} has a NaN or infinite sample")


def _logged(mags, floor, freqs, grid, out=None):
    """log(mags + floor) in out or a new array, on grid if that is coarser,
    centered to unit norm; None if flat, where that leaves rounding residue."""
    x = np.add(mags, floor, out=out)
    np.log(x, out=x)
    if grid[-1] < freqs[-1]:
        x = _onto_grid(grid, freqs, x)
    if x.min() == x.max():
        return None
    x -= x.mean()
    x /= np.linalg.norm(x)
    return x


# the last stft_similarity reference: a copy of its samples, its rate, freqs,
# magnitudes, peak, magnitudes _logged at its own floor and their _row_sums;
# never written, replaced whole, so two threads at worst make it twice
_reference: tuple | None = None


def _reference_record(clip: Signal) -> tuple:
    global _reference
    ref = _reference
    if (ref is None or ref[1] != clip.sample_rate_hz
            or not np.array_equal(ref[0], clip.samples)):
        _check_finite(a=clip)
        spec = compute_stft(clip, SIMILARITY_FRAME_S, SIMILARITY_HOP_S)
        f, m, peak = spec.freqs_hz, spec.magnitudes, float(spec.magnitudes.max())
        log = _logged(m, 1e-6 * peak or 1e-12, f, f)
        _reference = ref = (clip.samples.copy(), clip.sample_rate_hz, f, m,
                            peak, log, None if log is None else _row_sums(log))
    return ref


def stft_similarity(a: Signal, b: Signal) -> SimilarityScore:
    """Best normalized cross-correlation of two log-magnitude spectrograms.

    Each clip is analyzed at its own rate; the finer frequency grid is
    interpolated onto the coarser one so the comparison happens on shared
    bins. Both spectrograms are made zero-mean as a whole, and at every
    integer frame lag the overlapping regions are compared by normalized
    inner product, so an exact copy scores 1 and abs(score) <= 1 holds up
    to rounding. On a stationary clip every lag ties within rounding, so
    rounding picks the lag. A flat spectrogram, such as a silent or
    constant clip's, has no shape to compare and scores 0 at lag 0. A NaN
    or infinite sample is rejected.

    a is the reference: its spectrogram and log spectrogram, kept with a
    copy of its samples and its rate, are reused while a later a has equal
    samples at the same rate, as when many draws are checked against one
    original; a b of its rate and length is analyzed where it changed.
    """
    samples, rate, fa, ma, peak_a, log_a, sums_a = _reference_record(a)
    _check_finite(b=b)
    rows = None  # of the frames b changed, at a's rate and length
    if rate == b.sample_rate_hz and len(b.samples) == len(samples):
        frames, changed = (
            sliding_frames(x, rate, SIMILARITY_FRAME_S, SIMILARITY_HOP_S)[0]
            for x in (b.samples, b.samples != samples))
        rows = np.flatnonzero(changed.any(axis=(1, 2)))
    if rows is None or len(rows) == len(ma):  # new rate or length, or all new
        sb = compute_stft(b, SIMILARITY_FRAME_S, SIMILARITY_HOP_S)
        fb, lb = sb.freqs_hz, sb.magnitudes
        del sb  # so that lb is freed once it is put onto the grid
    else:  # each frame is its own FFT row: unchanged rows are the reference's
        fb, lb = fa, ma.copy()
        for i, mags in frame_spectra(frames, np.hanning(frames.shape[2]),
                                     rows):
            lb[rows[i:i + len(mags)]] = mags[:, 0]
    peak_b = float(lb.max())
    floor = 1e-6 * max(peak_a, peak_b) or 1e-12
    # shared grid: the coarser axis (equal tops mean equal rates and grids)
    grid = fb if fb[-1] < fa[-1] else fa
    lb = _logged(lb, floor, fb, grid, out=lb)  # lb is new
    own = grid is fa and peak_b <= peak_a  # the reference's own floor
    la = log_a if own else _logged(ma, floor, fa, grid)
    if la is None or lb is None:
        return SimilarityScore(max_xcorr=0.0, lag_frames=0)
    return _best_lag(la, lb, sums_a if own else None)


def l2_delta(a: Signal, b: Signal) -> float:
    """Relative L2 distance between two clips as functions of time.

    Clips at the same rate and length are compared sample-wise. Otherwise
    both are evaluated on a shared time grid at the finer rate (zero outside
    their support), which makes a frame-rate reinterpretation register as a
    change even though the stored samples are identical.
    """
    _check_finite(a=a, b=b)
    ga, gb = a.samples, b.samples
    if a.sample_rate_hz != b.sample_rate_hz or len(ga) != len(gb):
        rate = max(a.sample_rate_hz, b.sample_rate_hz)
        total = max(a.duration_s, b.duration_s)
        t = np.arange(int(round(total * rate))) / rate
        ta = np.arange(len(ga)) / a.sample_rate_hz
        tb = np.arange(len(gb)) / b.sample_rate_hz
        ga = np.interp(t, ta, ga, left=0.0, right=0.0)
        gb = np.interp(t, tb, gb, left=0.0, right=0.0)
    # a silent reference has no norm; 1e-30 keeps the distance finite
    return float(np.linalg.norm(ga - gb)) / (float(np.linalg.norm(ga)) or 1e-30)
