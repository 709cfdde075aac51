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
from .signals import Signal, Spectrogram, check_rate, compute_stft

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


def pick_modification(seed: int) -> ModificationParams:
    """Draw a modification kind uniformly and alpha uniformly in ALPHA_RANGE.

    The seed is recorded in the result so the exact draw can be replayed.
    """
    if not isinstance(seed, (int, np.integer)):
        raise InvalidInputError("expected an integer seed")
    seed = int(seed)
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
    rng = np.random.default_rng(seed)
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
    length never changes.
    """
    _check_alpha(alpha)
    rng = np.random.default_rng(seed)
    frame_n = int(round(_GAP_FRAME_S * clip.sample_rate_hz))
    n_frames = len(clip.samples) // frame_n if frame_n > 0 else 0
    gap_n = int(round(alpha * 0.1 * clip.sample_rate_hz))
    if gap_n > frame_n:
        log.warning("gap of %d samples clamped to the %d-sample frame",
                    gap_n, frame_n)
        gap_n = frame_n

    selected: list[int] = []
    if n_frames > 0 and gap_n > 0:
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
    return rows[:, j] * (1.0 - w) + rows[:, j + 1] * w


def _overlap_norms(rows, lo, hi):
    """Per lag: the norm of rows[lo:hi] and, by row count, if it is non-zero."""
    energy = (rows * rows).sum(axis=1)
    cum = np.concatenate(([0.0], np.cumsum(energy)))
    nonzero = np.concatenate(([0], np.cumsum(energy > 0)))
    return np.sqrt(np.maximum(cum[hi] - cum[lo], 0.0)), nonzero[hi] > nonzero[lo]


def _best_lag(la, lb) -> SimilarityScore:
    """Score every frame lag of two spectrograms (rows are frames) at once.

    A lag's inner product is a diagonal sum of one frame Gram matrix, its
    overlap norms are differences of cumulative row energies. A lag whose
    overlap is all zeros is skipped; ties go to the most negative lag.
    """
    # row i of a meets row j of b at lag i - j
    n_a, n_b = len(la), len(lb)
    diag = np.subtract.outer(np.arange(n_a), np.arange(n_b)) + (n_b - 1)
    dots = np.bincount(diag.ravel(), weights=(la @ lb.T).ravel(),
                       minlength=n_a + n_b - 1)
    lags = np.arange(-(n_b - 1), n_a)
    a0, a1 = np.maximum(lags, 0), np.minimum(lags + n_b, n_a)
    ov_a, live_a = _overlap_norms(la, a0, a1)
    ov_b, live_b = _overlap_norms(lb, a0 - lags, a1 - lags)
    denom = ov_a * ov_b  # > 0 only guards an overlap lost to cumsum rounding
    scored = live_a & live_b & (denom > 0)
    if not scored.any():
        raise InvalidInputError("no overlapping frames at any lag")
    scores = np.divide(dots, denom, out=np.full(len(lags), -np.inf), where=scored)
    best = int(np.argmax(scores))  # first maximum: the most negative lag
    return SimilarityScore(max_xcorr=float(scores[best]), lag_frames=int(lags[best]))


# the first argument of the last stft_similarity call: a private copy of
# its samples, its rate and its spectrogram. It is read and replaced whole,
# so calls from two threads at worst make one spectrogram twice
_reference: tuple[np.ndarray, float, Spectrogram] | None = None


def _reference_stft(clip: Signal) -> Spectrogram:
    """The similarity spectrogram of clip, made once while the samples and
    rate stay equal to the last reference's; a clip changed in place or
    read at a new rate is analyzed again."""
    global _reference
    if _reference is not None:
        samples, rate, spec = _reference
        if (rate == clip.sample_rate_hz
                and np.array_equal(samples, clip.samples)):
            return spec
    spec = compute_stft(clip, SIMILARITY_FRAME_S, SIMILARITY_HOP_S,
                        window_fn="hann")
    _reference = (clip.samples.copy(), clip.sample_rate_hz, spec)
    return spec


def stft_similarity(a: Signal, b: Signal) -> SimilarityScore:
    """Best normalized cross-correlation of two log-magnitude spectrograms.

    Each clip is analyzed at its own rate; the finer frequency grid is
    interpolated onto the coarser one so the comparison happens on shared
    bins. Both spectrograms are made zero-mean as a whole, and at every
    integer frame lag the overlapping regions are compared by normalized
    inner product, so an exact copy scores 1 and abs(score) <= 1 holds up
    to rounding. On a stationary clip every lag ties within rounding, so
    rounding picks the lag. A flat spectrogram, such as a silent or
    constant clip's, has no shape to compare and scores 0 at lag 0.

    a is the reference: its spectrogram is kept, with a copy of its
    samples and its rate, and reused while a later a has equal samples at
    the same rate, as when many draws are checked against one original.
    """
    sa = _reference_stft(a)
    sb = compute_stft(b, SIMILARITY_FRAME_S, SIMILARITY_HOP_S, window_fn="hann")
    fa, ma, fb, mb = sa.freqs_hz, sa.magnitudes, sb.freqs_hz, sb.magnitudes
    floor = 1e-6 * max(float(ma.max()), float(mb.max())) or 1e-12
    # new arrays, worked in place: ma may be the kept reference's
    la, lb = ma + floor, mb + floor
    np.log(la, out=la)
    np.log(lb, out=lb)

    # shared grid: keep the coarser axis, interpolate the other onto it
    # (equal tops mean equal rates, so the grids already agree)
    if fa[-1] < fb[-1]:
        lb = _onto_grid(fa, fb, lb)
    elif fb[-1] < fa[-1]:
        la = _onto_grid(fb, fa, la)

    # a flat spectrogram has no shape to compare; centering it would leave
    # rounding residue, not zeros, so it is caught before
    if la.min() == la.max() or lb.min() == lb.max():
        return SimilarityScore(max_xcorr=0.0, lag_frames=0)
    for x in (la, lb):
        x -= x.mean()
        x /= np.linalg.norm(x)
    return _best_lag(la, lb)


def l2_delta(a: Signal, b: Signal) -> float:
    """Relative L2 distance between two clips as functions of time.

    Clips at the same rate and length are compared sample-wise. Otherwise
    both are evaluated on a shared time grid at the finer rate (zero outside
    their support), which makes a frame-rate reinterpretation register as a
    change even though the stored samples are identical.
    """
    ref = float(np.linalg.norm(a.samples))
    if ref == 0.0:
        ref = 1e-30
    if a.sample_rate_hz == b.sample_rate_hz and len(a.samples) == len(b.samples):
        return float(np.linalg.norm(a.samples - b.samples)) / ref
    rate = max(a.sample_rate_hz, b.sample_rate_hz)
    total = max(a.duration_s, b.duration_s)
    t = np.arange(int(round(total * rate))) / rate
    ta = np.arange(len(a.samples)) / a.sample_rate_hz
    tb = np.arange(len(b.samples)) / b.sample_rate_hz
    ga = np.interp(t, ta, a.samples, left=0.0, right=0.0)
    gb = np.interp(t, tb, b.samples, left=0.0, right=0.0)
    ref = float(np.linalg.norm(ga))
    if ref == 0.0:
        ref = 1e-30
    return float(np.linalg.norm(ga - gb)) / ref
