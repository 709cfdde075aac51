"""Windowed seismic rumble detection and the spectrogram reference detector.

The field detector scores each 4 s window by reading the peak frequency of
32 short sub-segments and measuring the longest consecutive run whose peak
falls strictly inside the rumble band. The spectrogram detector is the
slower reference used to label events when scoring recall.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidInputError
# compute_stft is not called here; perfbench's tracer wraps this binding
from .signals import (Signal, check_rate, compute_stft,  # noqa: F401
                      default_pad_length)

# spectrogram frames and rumble band of the reference tracker
ORACLE_FRAME_S = 0.5
ORACLE_HOP_S = 0.125
ORACLE_BAND_LOW_HZ = 20.0
ORACLE_BAND_HIGH_HZ = 40.0

# frames per FFT call: 8 windows of 32 sub-segments, about 1 MB of spectra
FFT_CHUNK_FRAMES = 256
# samples per block of a scored stream, rounded down to whole windows (one
# window at least): 32 windows of 4 s, 1 MB of float64, at 1 kHz. Synthesis
# draws one block while the screen scores the other, so a stream's two
# blocks hold 2 MB
BLOCK_SAMPLES = 128_000


@dataclass(frozen=True)
class Algorithm1Params:
    """Scoring thresholds for the windowed detector.

    A sub-segment is in-band when its peak frequency lies strictly between
    band_low_hz and band_high_hz. With the default 4 s window and 0.125 s
    sub-segments there are 32 readings; a run longer than run_low scores 1
    and a run of run_high or more scores 2.
    """

    window_s: float = 4.0
    subsegment_s: float = 0.125
    band_low_hz: float = 20.0
    band_high_hz: float = 40.0
    run_low: int = 6
    run_high: int = 24

    def __post_init__(self):
        for name in ("window_s", "subsegment_s"):
            if not 0 < (value := getattr(self, name)) < math.inf:
                raise InvalidInputError(
                    f"{name} must be positive and finite, got {value!r}")
        ratio = self.window_s / self.subsegment_s
        if not 1 <= ratio < math.inf or abs(ratio - round(ratio)) > 1e-9:
            raise InvalidInputError(
                f"window_s {self.window_s!r} must hold a whole number of "
                f"subsegment_s {self.subsegment_s!r}")
        if not 0 < self.band_low_hz < self.band_high_hz:
            raise InvalidInputError("band edges must satisfy 0 < low < high")
        if not 0 < self.run_low < self.run_high:
            raise InvalidInputError("run thresholds must satisfy 0 < low < high")

    @property
    def subsegments_per_window(self) -> int:
        return int(round(self.window_s / self.subsegment_s))


@dataclass(frozen=True)
class WindowDetection:
    """Score for one analysis window."""

    window_index: int
    ds: int
    max_run: int
    window_start_s: float


@dataclass(frozen=True)
class RumbleEvent:
    """Event interval found by the spectrogram detector."""

    t_start_s: float
    t_end_s: float

    @property
    def duration_s(self) -> float:
        return self.t_end_s - self.t_start_s


@dataclass(frozen=True)
class RecallReport:
    oracle_count: int
    matched_count: int
    recall: float | None  # None when there are no reference events


def score_from_run(max_run: int, params: Algorithm1Params) -> int:
    """Map the longest in-band run to a detection score of 0, 1, or 2."""
    if max_run >= params.run_high:
        return 2
    if params.run_low < max_run < params.run_high:
        return 1
    return 0


def _runs(flags: np.ndarray) -> np.ndarray:
    """[start, stop) index pairs, one row per maximal run of True in flags."""
    padded = np.concatenate(([0], np.asarray(flags, dtype=np.int8), [0]))
    return np.flatnonzero(np.diff(padded)).reshape(-1, 2)


def _geometry(rate: float, params: Algorithm1Params
              ) -> tuple[int, int, int, int, np.ndarray]:
    """Check the window and sub-segment geometry at a sample rate.

    Returns the window length n, the sub-segments k per window and their
    length, the FFT length and the in-band test of each bin above DC. A
    window's tail shorter than one sub-segment is ignored.
    """
    n = int(round(params.window_s * rate))
    if n < 1:
        raise InvalidInputError("window shorter than one sample")
    sub = int(round(params.subsegment_s * rate))
    if sub < 2:
        raise InvalidInputError("sub-segment shorter than two samples at "
                                f"{rate!r} Hz")
    # a sub-segment length rounded down can leave room for an extra one;
    # params hold window_s >= subsegment_s, so a window holds at least one
    k = min(n // sub, params.subsegments_per_window)
    pad = default_pad_length(sub)
    freqs = np.fft.rfftfreq(pad, 1.0 / rate)[1:]
    in_band = (freqs > params.band_low_hz) & (freqs < params.band_high_hz)
    return n, k, sub, pad, in_band


def _windows(x: np.ndarray, n: int, k: int, sub: int) -> np.ndarray:
    """The full windows of x as a (windows, k, sub) view; the remainder
    is left out."""
    count = len(x) // n
    return x[:count * n].reshape(count, n)[:, :k * sub].reshape(count, k, sub)


def _fft_scratch(frames: int, pad: int) -> tuple[np.ndarray, ...]:
    """Zero-padded input, spectrum and magnitudes above DC for up to frames
    frames.

    Scratch reused for frames of one length m keeps its padding zero,
    since only the first m samples of a row are ever written.
    """
    bins = pad // 2 + 1
    return (np.zeros((frames, pad)), np.empty((frames, bins), complex),
            np.empty((frames, bins - 1)))


def _in_band_flags(frames: np.ndarray, pad: int, in_band: np.ndarray,
                   rows: np.ndarray | None = None,
                   window: np.ndarray | None = None,
                   scratch: tuple[np.ndarray, ...] | None = None
                   ) -> np.ndarray:
    """Whether each frame of a (rows, columns, m) array, or of its given
    rows only, peaks in band, FFT_CHUNK_FRAMES frames per FFT call.

    Each frame is mean-removed, windowed if a window is given and
    zero-padded to pad, as compute_stft does, in scratch from _fft_scratch
    for at least max(FFT_CHUNK_FRAMES, columns) frames of m samples, or in
    scratch made for this call. The peak bin skips DC, ties go to the
    lowest bin, and in_band tests each bin.
    """
    count = len(frames) if rows is None else len(rows)
    cols, m = frames.shape[1:]
    step = max(1, FFT_CHUNK_FRAMES // cols)
    rows_per_fft = min(count, step)
    if scratch is None:
        scratch = _fft_scratch(rows_per_fft * cols, pad)
    buf, spec, mags = (a[:rows_per_fft * cols].reshape(rows_per_fft, cols,
                                                       a.shape[1])
                       for a in scratch)
    flags = np.empty((count, cols), dtype=bool)
    for i0 in range(0, count, step):
        chunk = frames[slice(i0, i0 + step) if rows is None
                       else rows[i0:i0 + step]]
        c = len(chunk)
        np.subtract(chunk, chunk.mean(axis=2, keepdims=True),
                    out=buf[:c, :, :m])
        if window is not None:
            buf[:c, :, :m] *= window
        # rfft of a padded buffer is faster than rfft(n=pad), same bits
        np.fft.rfft(buf[:c], axis=2, out=spec[:c])
        # argmax copies a strided array, so DC is dropped before it
        np.abs(spec[:c, :, 1:], out=mags[:c])
        flags[i0:i0 + c] = in_band[mags[:c].argmax(axis=2)]
    return flags


def _max_runs(segs: np.ndarray, pad: int, in_band: np.ndarray,
              rows: np.ndarray | None = None,
              scratch: tuple[np.ndarray, ...] | None = None) -> np.ndarray:
    """Longest in-band sub-segment run of each window of a (windows, k, sub)
    array, or of the windows at the given row indices."""
    flags = _in_band_flags(segs, pad, in_band, rows, scratch=scratch)
    # in-band count so far, less the count at the last out-of-band reading
    count = flags.cumsum(axis=1)
    since = np.maximum.accumulate(np.where(flags, 0, count), axis=1)
    return (count - since).max(axis=1, initial=0)


def _detection(start_s: float, rate: float, n: int, i: int, run: int,
               params: Algorithm1Params) -> WindowDetection:
    return WindowDetection(window_index=i, ds=score_from_run(run, params),
                           max_run=run, window_start_s=start_s + i * n / rate)


def detect_stream(trace: Signal,
                  params: Algorithm1Params = Algorithm1Params()) -> list[WindowDetection]:
    """Score every full window of a trace; the remainder is ignored.

    Each window keeps its absolute start time, so detections sit on the
    trace's own timeline.
    """
    x, rate = trace.samples, trace.sample_rate_hz
    if len(x) == 0:
        raise InvalidInputError("cannot window an empty trace")
    n, k, sub, pad, in_band = _geometry(rate, params)
    runs = _max_runs(_windows(x, n, k, sub), pad, in_band)
    return [_detection(trace.start_time_s, rate, n, i, run, params)
            for i, run in enumerate(runs.tolist())]


class TriggerScreen:
    """Finds the windows of detect_stream that score ds >= 1, and only
    those, in streams of consecutive sample blocks at one rate.

    The geometry is checked and the FFT scratch made once, for every stream
    the screen scores; fresh scratch per stream or per block costs page
    faults, since glibc trims and re-faults it. Each block is scored as it
    arrives and not read again once the next is asked for, so a synthesis
    stream may then redraw it; a stream the screen starts is closed when it
    is done, also when it raises. Every block but the last holds whole
    windows, block_samples (BLOCK_SAMPLES rounded down to whole windows) in
    a scenario run; a block after one that ends inside a window is
    rejected. The last block's remainder is ignored, and a stream of no
    sample scores nothing. Window indices and start times count from the
    stream's start, so a whole trace given as one block gives the same
    detections as in blocks.

    A window scores ds >= 1 when it holds an in-band run of L = run_low + 1
    sub-segments. Any L consecutive sub-segments hold exactly one index
    congruent to L - 1 mod L, so a window whose sub-segments L - 1,
    2L - 1, ... are all out of band cannot score. Those columns of every
    window are screened first, and only the windows with one of them in
    band are scored in full.
    """

    def __init__(self, sample_rate_hz: float,
                 params: Algorithm1Params = Algorithm1Params()):
        check_rate(sample_rate_hz)
        self.rate, self.params = sample_rate_hz, params
        self.geometry = _geometry(sample_rate_hz, params)
        n, k, _, pad, _ = self.geometry
        self.block_samples = max(1, BLOCK_SAMPLES // n) * n
        self.scratch = _fft_scratch(max(FFT_CHUNK_FRAMES, k), pad)

    def __call__(self, blocks: Iterable[np.ndarray],
                 start_time_s: float = 0.0) -> list[WindowDetection]:
        n, k, sub, pad, in_band = self.geometry
        L = self.params.run_low + 1
        if L > k:
            return []
        found: list[WindowDetection] = []
        # stream index of the block's first window, and the samples left
        # after the last full window of the block before
        first = tail = 0
        blocks = iter(blocks)
        try:
            for block in blocks:
                if tail:
                    raise InvalidInputError(
                        f"a block before the last ends inside window {first}"
                        f", after {tail} of its {n} samples")
                segs = _windows(block, n, k, sub)
                hits = np.flatnonzero(_in_band_flags(
                    segs[:, L - 1::L], pad, in_band,
                    scratch=self.scratch).any(axis=1))
                runs = _max_runs(segs, pad, in_band, hits, self.scratch)
                found.extend(_detection(start_time_s, self.rate, n, first + i,
                                        run, self.params)
                             for i, run in zip(hits.tolist(), runs.tolist())
                             if run >= L)
                first, tail = first + len(segs), len(block) % n
        finally:
            # a stream left unfinished by an error is closed, so its
            # look-ahead stops drawing into slots that may serve the next
            getattr(blocks, "close", lambda: None)()
        return found


def stft_oracle_detect(trace: Signal,
                       min_event_s: float = 3.0) -> list[RumbleEvent]:
    """Reference detector: track the spectrogram peak through the band.

    Maximal runs of frames whose peak frequency sits strictly inside the
    band become events when they last at least min_event_s. An event spans
    from the first frame's start to the last frame's end.
    """
    if not min_event_s >= 0:
        raise InvalidInputError(
            f"min_event_s must be non-negative, got {min_event_s!r}")
    x, rate = trace.samples, trace.sample_rate_hz
    frame, hop = (int(round(s * rate)) for s in (ORACLE_FRAME_S, ORACLE_HOP_S))
    if frame < 2 or hop < 1:
        raise InvalidInputError("frame_s and hop_s too small for the rate")
    if len(x) < frame:
        raise InvalidInputError("signal shorter than one frame")
    pad = default_pad_length(frame)
    freqs = np.fft.rfftfreq(pad, 1.0 / rate)[1:]
    bins = (freqs > ORACLE_BAND_LOW_HZ) & (freqs < ORACLE_BAND_HIGH_HZ)
    in_band = _in_band_flags(sliding_window_view(x, frame)[::hop, None], pad,
                             bins, window=np.hanning(frame))[:, 0]
    times = trace.start_time_s + np.arange(len(in_band)) * hop / rate
    events = (RumbleEvent(t_start_s=float(times[i]),
                          t_end_s=float(times[j - 1]) + ORACLE_FRAME_S)
              for i, j in _runs(in_band))
    return [ev for ev in events if ev.duration_s >= min_event_s]


def match_and_recall(detections: list[WindowDetection],
                     events: list[RumbleEvent], ds_min: int = 1,
                     window_s: float = 4.0) -> RecallReport:
    """Score the windowed detector against reference events.

    An event is matched when any window with ds >= ds_min overlaps its
    interval. Recall is matched / total; with no reference events the ratio
    is undefined and recall is None rather than 0 or 1. ds_min is 1 or 2,
    the same rule as PnConfig.ds_threshold.
    """
    if ds_min not in (1, 2):
        raise InvalidInputError(f"ds_min must be 1 or 2, got {ds_min!r}")
    starts = [d.window_start_s for d in detections if d.ds >= ds_min]
    matched = sum(any(s < ev.t_end_s and s + window_s > ev.t_start_s
                      for s in starts) for ev in events)
    recall = None if not events else matched / len(events)
    return RecallReport(oracle_count=len(events), matched_count=matched,
                        recall=recall)
